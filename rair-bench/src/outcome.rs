//! What one run of one workload produced, and the pinned values it is
//! checked against.

use crate::json::{escape, Value};
use crate::names::Metric;
use std::collections::BTreeMap;

/// The benchmark's default seed (`0xC0FFEE`), the one `expected.json` pins.
pub const DEFAULT_SEED: u64 = 12_648_430;

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: timed units plus correctness checks.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Human-readable context printed beside the metrics (sample counts,
    /// medians, skipped comparisons).
    pub info: Vec<String>,
    /// Pinned comparisons made (0 for a non-default seed).
    pub pinned: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count `n` timed units as attempted.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Count one correctness check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Compare `got` with the value `expected.json` pins under `key`. Only
    /// the pinned seed can be compared; any other seed says so and moves on
    /// (the any-seed cross-checks still run).
    pub fn check_pinned(&mut self, expected: &Expected, seed: u64, key: &str, got: u64) {
        if seed != expected.seed {
            self.info.push(format!(
                "{key} = {got:016x} (pinned comparison skipped: expected.json pins seed {})",
                expected.seed
            ));
            return;
        }
        self.pinned += 1;
        let want = expected.values.get(key).copied();
        self.check(want == Some(got), || {
            format!("{key}: got {got:016x}, expected.json pins {want:016x?}")
        });
    }

    /// The result line: exactly the metrics in `declared`, in that order.
    /// A declared metric the run did not produce, or a value that is not a
    /// finite number, is a failure of the run, not a silent zero.
    pub fn result_line(&mut self, declared: &[Metric], default_zero: bool) -> String {
        let mut fields = Vec::with_capacity(declared.len());
        for d in declared {
            let v = match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.failed += 1;
                    self.failures.push(format!("{} is {v}", d.name));
                    0.0
                }
                None if default_zero => 0.0,
                None => {
                    self.failed += 1;
                    self.failures.push(format!("{} was not measured", d.name));
                    0.0
                }
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                escape(d.name),
                escape(d.unit)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// `expected.json`: the simulated outputs of the default seed.
pub struct Expected {
    seed: u64,
    values: BTreeMap<String, u64>,
}

impl Expected {
    /// The copy compiled into the binary.
    pub fn embedded() -> Self {
        Self::parse(include_str!("../expected.json")).expect("expected.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Value::parse(text)?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or("expected.json: no numeric `seed`")? as u64;
        let pinned = doc
            .get("pinned")
            .and_then(Value::as_object)
            .ok_or("expected.json: no `pinned` object")?;
        let mut values = BTreeMap::new();
        for (k, v) in pinned {
            let hex = v
                .as_str()
                .ok_or_else(|| format!("expected.json: {k} is not a string"))?;
            let n = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("expected.json: {k} is not 64-bit hex"))?;
            values.insert(k.clone(), n);
        }
        Ok(Self { seed, values })
    }

    /// Render a new `expected.json` from freshly measured values.
    pub fn render(seed: u64, values: &BTreeMap<String, u64>) -> String {
        let rows: Vec<String> = values
            .iter()
            .map(|(k, v)| format!("    \"{}\": \"{v:016x}\"", escape(k)))
            .collect();
        format!(
            "{{\n  \"seed\": {seed},\n  \"pinned\": {{\n{}\n  }}\n}}\n",
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::END_TO_END;

    #[test]
    fn expected_round_trips() {
        let mut vals = BTreeMap::new();
        vals.insert("a.digest".to_string(), 0xDEAD_BEEF_u64);
        let e = Expected::parse(&Expected::render(7, &vals)).unwrap();
        assert_eq!(e.seed, 7);
        assert_eq!(e.values, vals);
        assert!(Expected::parse("{\"seed\": 1}").is_err());
        let embedded = Expected::embedded();
        assert_eq!(embedded.seed, DEFAULT_SEED);
    }

    #[test]
    fn pinned_mismatch_fails_and_other_seeds_skip() {
        let mut vals = BTreeMap::new();
        vals.insert("k".to_string(), 5u64);
        let e = Expected::parse(&Expected::render(1, &vals)).unwrap();
        let mut o = Outcome::default();
        o.check_pinned(&e, 1, "k", 5);
        assert_eq!((o.attempted, o.failed, o.pinned), (1, 0, 1));
        o.check_pinned(&e, 1, "k", 6);
        assert_eq!((o.attempted, o.failed, o.pinned), (2, 1, 2));
        o.check_pinned(&e, 1, "not pinned", 6);
        assert_eq!((o.attempted, o.failed, o.pinned), (3, 2, 3));
        o.check_pinned(&e, 2, "k", 6);
        assert_eq!((o.attempted, o.failed, o.pinned), (3, 2, 3));
        assert!(o.info[0].contains("skipped"));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome::default();
        o.ops(10);
        o.set("work_per_s", 1234.5678);
        o.set("sim_apl_cycles", 20.25);
        o.set("peak_rss_mb", 9.0);
        o.set("setup_s", 0.125);
        let line = o.result_line(&END_TO_END, false);
        let v = Value::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let ms = v.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(ms.len(), END_TO_END.len());
        assert_eq!(
            ms["work_per_s"].get("value").and_then(Value::as_f64),
            Some(1234.5678)
        );
        assert_eq!(ms["setup_s"].get("unit").and_then(Value::as_str), Some("s"));
        // A missing or non-finite metric turns the run incorrect.
        let mut bad = Outcome::default();
        bad.set("work_per_s", f64::NAN);
        let v = Value::parse(&bad.result_line(&END_TO_END, false)).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(4.0));
    }
}
