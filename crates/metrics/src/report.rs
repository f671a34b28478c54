//! The one typed report: experiment tables and `*_report.json` bodies.
//!
//! The `repro` binary prints one table per paper figure: the "same
//! rows/series the paper reports". A [`Table`] declares its columns once and
//! holds typed [`Value`] cells; aligned text, CSV and JSON rows all render
//! from it, dependency-free (the vendored `serde` has no `serde_json`).

use std::fmt;

/// One typed value: a table cell, or a field of a JSON report document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `-` in text, `null` in JSON.
    Null,
    /// `yes`/`no` in text, `true`/`false` in JSON.
    Bool(bool),
    Int(u64),
    /// A float and its text decimals; JSON has the full value, or `null`.
    Float(f64, usize),
    Str(String),
    /// Ordered fields: a report document, or an object nested in one.
    Obj(Vec<(String, Value)>),
    Arr(Vec<Value>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render as a JSON document: the top-level object's fields one per
    /// line, each element of its arrays on a line of its own, everything
    /// deeper inline.
    pub fn to_json(&self) -> String {
        self.json(0) + "\n"
    }

    fn json(&self, depth: usize) -> String {
        match self {
            Value::Obj(f) => {
                let field = |(k, v): &(String, Value)| {
                    format!("\"{}\": {}", json_escape(k), v.json(depth + 1))
                };
                let items: Vec<String> = f.iter().map(field).collect();
                if depth == 0 && !items.is_empty() {
                    format!("{{\n  {}\n}}", items.join(",\n  "))
                } else {
                    format!("{{{}}}", items.join(", "))
                }
            }
            Value::Arr(a) => {
                let items: Vec<String> = a.iter().map(|v| v.json(depth + 1)).collect();
                if depth == 1 && !items.is_empty() {
                    format!("[\n    {}\n  ]", items.join(",\n    "))
                } else {
                    format!("[{}]", items.join(", "))
                }
            }
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Float(x, _) if !x.is_finite() => "null".to_string(),
            Value::Float(x, _) => format!("{x:?}"),
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            Value::Int(n) => n.to_string(),
        }
    }
}

/// The text-cell rendering.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("-"),
            Value::Bool(b) => f.write_str(if *b { "yes" } else { "no" }),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x, p) => write!(f, "{x:.p$}"),
            Value::Str(s) => f.write_str(s),
            Value::Obj(_) | Value::Arr(_) => f.write_str(&self.json(2)),
        }
    }
}

/// Escape `s` for the inside of a JSON string: `"`, `\`, and every control
/// character below 0x20 (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

macro_rules! value_from {
    ($($t:ty => $make:expr),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                $make(x)
            }
        }
    )*};
}
value_from!(String => Value::Str, &str => |s: &str| Value::Str(s.into()), bool => Value::Bool,
    u64 => Value::Int, usize => |n| Value::Int(n as u64));

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// One report column over rows of type `R`: `(text header, JSON key, cell)`.
pub type Col<'a, R> = (&'a str, &'a str, fn(&R) -> Value);

/// A column-aligned table of typed cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    /// Text header and JSON key per column; empty hides the column there.
    header: Vec<String>,
    keys: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create a table with a title and column headers (which double as the
    /// JSON keys).
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        let header: Vec<String> = header.iter().map(ToString::to_string).collect();
        Self {
            title: title.into(),
            keys: header.clone(),
            header,
            rows: Vec::new(),
        }
    }

    /// The report over `rows`, every [`Col`] declared once for all three
    /// renderings. An empty header keeps a column out of text and CSV, an
    /// empty key out of the JSON rows.
    pub fn of<R>(title: impl Into<String>, rows: &[R], cols: &[Col<'_, R>]) -> Self {
        let cells = |r| cols.iter().map(|c| (c.2)(r)).collect();
        Self {
            title: title.into(),
            header: cols.iter().map(|c| c.0.into()).collect(),
            keys: cols.iter().map(|c| c.1.into()).collect(),
            rows: rows.iter().map(cells).collect(),
        }
    }

    /// Append a row of text cells; panics if the arity doesn't match.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.into_iter().map(Value::Str).collect());
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The `cells` of the columns that `names` (headers or keys) keeps.
    fn shown<T>(names: &[String], cells: impl IntoIterator<Item = T>) -> Vec<T> {
        let kept = names.iter().zip(cells).filter(|(n, _)| !n.is_empty());
        kept.map(|(_, c)| c).collect()
    }

    /// Header line, then the data rows, as text.
    fn text(&self) -> Vec<Vec<String>> {
        let cells = |r: &Vec<Value>| Self::shown(&self.header, r.iter().map(Value::to_string));
        let header = Self::shown(&self.header, self.header.iter().cloned());
        std::iter::once(header)
            .chain(self.rows.iter().map(cells))
            .collect()
    }

    /// The rows as a JSON array of objects, one field per keyed column.
    pub fn json_rows(&self) -> Value {
        let row = |r: &Vec<Value>| {
            let fields = self.keys.iter().cloned().zip(r.iter().cloned());
            Value::Obj(Self::shown(&self.keys, fields))
        };
        Value::Arr(self.rows.iter().map(row).collect())
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let lines = self.text();
        let mut widths = vec![0; lines[0].len()];
        for row in &lines {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = *w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&lines[0]));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &lines[1..] {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Render as CSV (comma-separated, header first). A cell holding a
    /// comma, a quote or a line break is quoted (RFC 4180), so a multi-line
    /// cell stays one record.
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        for row in self.text() {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// One-line summary of the simulator's kernel fast paths: what fraction of
/// router×phase visits and end-of-cycle state updates were elided.
/// `phase_visits` / `state_updates` are the plain-scan totals
/// (`cycles × routers × phases` and `cycles × routers`).
pub fn kernel_summary(
    phase_visits: u64,
    phase_visits_skipped: u64,
    state_updates: u64,
    state_updates_skipped: u64,
) -> String {
    let frac = |skipped: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * skipped as f64 / total as f64
        }
    };
    format!(
        "kernel: skipped {:.1}% of router phase visits ({}/{}), \
         {:.1}% of state updates ({}/{})",
        frac(phase_visits_skipped, phase_visits),
        phase_visits_skipped,
        phase_visits,
        frac(state_updates_skipped, state_updates),
        state_updates_skipped,
        state_updates,
    )
}

/// One-line summary of the invariant-oracle verdict for a run (or a batch
/// of runs whose violation counts were summed).
pub fn oracle_summary(enabled: bool, violations: u64) -> String {
    if !enabled {
        "oracle: disabled".to_string()
    } else if violations == 0 {
        "oracle: enabled — no invariant violations".to_string()
    } else {
        format!("oracle: enabled — {violations} invariant violation(s) recorded")
    }
}

/// Format a float with 2 decimal places (latency cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a ratio as a signed percentage (reduction cells), e.g. `-18.9%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["p", "RO_RR", "RAIR"]);
        t.row(vec!["0".into(), "12.00".into(), "11.90".into()]);
        t.row(vec!["100".into(), "45.12".into(), "36.60".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("RO_RR"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + rule + 2 rows
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("", &["name", "v"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn kernel_summary_fractions() {
        let s = kernel_summary(1000, 930, 500, 250);
        assert_eq!(
            s,
            "kernel: skipped 93.0% of router phase visits (930/1000), \
             50.0% of state updates (250/500)"
        );
        // Zero totals (e.g. a zero-cycle run) must not divide by zero.
        assert!(kernel_summary(0, 0, 0, 0).contains("0.0%"));
    }

    #[test]
    fn oracle_summary_states() {
        assert_eq!(oracle_summary(false, 0), "oracle: disabled");
        assert!(oracle_summary(true, 0).contains("no invariant violations"));
        assert!(oracle_summary(true, 3).contains("3 invariant violation(s)"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00"); // rounds-to-even at f64 repr
        assert_eq!(pct(-0.189), "-18.9%");
        assert_eq!(pct(0.03), "+3.0%");
    }
}
