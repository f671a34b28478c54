//! The `*_report.json` schemas: every report renders through the one
//! writer (`metrics::report`), and this file pins each one's key set and
//! value types — against a synthetic report, and against the copy committed
//! at the repository root — so a column edit cannot silently change what CI
//! artifacts and downstream readers see.

use experiments::admit::{self, controls_table, NegativeCase};
use experiments::service::chaos::Battery;
use experiments::service::{serve, ChaosReport, JobExec, JobSpec, ServeConfig, StdStore};
use experiments::{ExpConfig, RunResult};
use metrics::report::Value;
use std::sync::Arc;

/// `{key:type,...}` / `[type-of-first-element]` / scalar type names.
fn shape(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(_) => "bool".into(),
        Value::Int(_) => "int".into(),
        Value::Float(..) => "float".into(),
        Value::Str(_) => "str".into(),
        Value::Arr(a) => format!("[{}]", a.first().map_or(String::new(), shape)),
        Value::Obj(f) => {
            let fields: Vec<String> = f.iter().map(|(k, v)| format!("{k}:{}", shape(v))).collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// Every string token of a JSON text, unescaped, with whether it is an
/// object key. Panics on a raw control character inside a string.
fn strings(json: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut s = String::new();
        loop {
            match chars.next().expect("unterminated string") {
                '"' => break,
                '\\' => match chars.next().expect("dangling escape") {
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        s.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                    }
                    c => s.push(c), // `\"`, `\\`
                },
                c => {
                    assert!(c as u32 >= 0x20, "raw control byte {c:?} inside a string");
                    s.push(c);
                }
            }
        }
        out.push((s, chars.peek() == Some(&':')));
    }
    out
}

/// The keys of the first row of the top-level array `array` in the report
/// committed at the repo root.
fn committed_row_keys(file: &str, array: &str) -> String {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let start = format!("  \"{array}\": [");
    let row = (text.lines().skip_while(|l| !l.starts_with(&start)))
        .find(|l| l.starts_with("    {"))
        .unwrap_or_else(|| panic!("{file}: no {array} row"));
    let keys: Vec<String> = (strings(row).into_iter().filter(|(_, key)| *key))
        .map(|(k, _)| k)
        .collect();
    keys.join(" ")
}

/// The keys of a `{k:type,...}` row shape, space-separated.
fn shape_keys(row_shape: &str) -> String {
    let fields = row_shape.trim_matches(|c| "[{}]".contains(c)).split(',');
    let keys: Vec<&str> = fields.map(|f| f.split(':').next().unwrap()).collect();
    keys.join(" ")
}

/// The `controls` row of the two self-check reports.
const CONTROL_ROW: &str = "{control:str,caught:bool,property:str,witness:str}";

fn control(caught: bool) -> NegativeCase {
    NegativeCase {
        name: "ring-no-dateline-escape".into(),
        caught,
        property: "escape-cdg-acyclic",
        witness: "cycle r15:E:esc0 -> \"r0\"".into(),
    }
}

/// One control type, rendered by one function into both reports: the text
/// says `NO` in capitals, JSON says `false`.
#[test]
fn controls_schema() {
    let t = controls_table(&[control(true), control(false)]);
    assert_eq!(shape(&t.json_rows()), format!("[{CONTROL_ROW}]"));
    assert!(t.render().contains("  NO  "), "{}", t.render());
    for file in ["ADMIT_report.json", "CHAOS_report.json"] {
        assert_eq!(
            committed_row_keys(file, "controls"),
            shape_keys(CONTROL_ROW),
            "{file}"
        );
    }
}

#[test]
fn admit_report_schema() {
    let row = |wait_bound, defect: Option<&str>| admit::AdmitRow {
        topology: "ring",
        region: "halves",
        routing: "XY",
        scheme: "RA_RAIR".into(),
        verdict: "reject",
        properties: vec!["progress", "bandwidth-feasibility"],
        wait_bound,
        states: 753,
        micros: 1162,
        defect: defect.map(String::from),
    };
    let rows = [
        row(Some(1460), Some("feasibility: \"overload\"")),
        row(None, None),
    ];
    let json = admit::table(&rows).json_rows();
    let want = "[{topology:str,region:str,routing:str,scheme:str,verdict:str,properties:str,\
                wait_bound:int,states:int,micros:int,defect:str}]";
    assert_eq!(shape(&json), want);
    // A real matrix renders the same shape, admitted rows with a `null` defect.
    let real = admit::run_matrix(&[noc_sim::topology::TopologyKind::Ring]);
    let real = shape(&admit::table(&real).json_rows());
    assert_eq!(real, want.replace("defect:str", "defect:null"));
    // An unproven bound and an absent defect are `null`, not omitted.
    let Value::Arr(rows) = json else { panic!() };
    assert!(shape(&rows[1]).ends_with("wait_bound:null,states:int,micros:int,defect:null}"));
    assert_eq!(
        committed_row_keys("ADMIT_report.json", "rows"),
        shape_keys(want)
    );
}

#[test]
fn chaos_report_schema() {
    let report = ChaosReport {
        reference_digest: 0xabcd,
        batteries: vec![Battery {
            name: "journal-torn-tail",
            faults: 2,
            recovered: false,
            detail: "cut@7: \"diverged\"".into(),
        }],
        controls: vec![control(true)],
    };
    let want_row = "{battery:str,faults:int,recovered:bool,detail:str}";
    let want = format!(
        "{{reference_digest:str,all_green:bool,batteries:[{want_row}],controls:[{CONTROL_ROW}]}}"
    );
    assert_eq!(shape(&report.json()), want);
    assert!(report
        .json()
        .to_json()
        .contains("\"reference_digest\": \"000000000000abcd\""));
    // The text table says `NO` in capitals; JSON says `false`.
    assert!(report.table().render().contains("  NO  "));
    assert_eq!(
        committed_row_keys("CHAOS_report.json", "batteries"),
        shape_keys(want_row)
    );
}

/// A quarantined job's `reason` is its panic message, which is routinely
/// multi-line (`assert_eq!`, the static verifier). It must reach
/// `SERVE_report.json` escaped — no raw control byte inside a string — and
/// read back unchanged.
#[test]
fn serve_report_escapes_a_multiline_panic_message() {
    const MESSAGE: &str = "left\n  right\t\"q\"";
    let dir = std::env::temp_dir().join(format!("rair-report-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec: JobExec = Arc::new(|_: &JobSpec, _: &ExpConfig| -> RunResult { panic!("{MESSAGE}") });
    let specs = JobSpec::parse_jobs("poison ro_rr local single uniform 0.10 1\n").unwrap();
    let scfg = ServeConfig {
        max_attempts: 1,
        backoff_base_ms: 1,
        ..ServeConfig::new(&dir, ExpConfig::quick())
    };
    let report = serve(&StdStore, &specs, &scfg, &exec);
    assert_eq!(report.quarantined(), 1);
    let row = "{label:str,id:str,status:str,attempts:int,restored:bool,reason:str}";
    let want = format!(
        "{{sweep_digest:str,resumed:int,cache_hits:int,executed:int,quarantined:int,\
         journal_write_errors:int,journal_torn_tail:bool,journal_quarantined_rows:int,\
         jobs:[{row}]}}"
    );
    assert_eq!(shape(&report.json()), want);

    let written = std::fs::read_to_string(dir.join("SERVE_report.json")).unwrap();
    assert_eq!(written, report.json().to_json());
    assert!(written.contains("left\\n  right\\t\\\"q\\\""), "{written}");
    let tokens = strings(&written); // panics on a raw control byte in a string
    let reason = tokens
        .iter()
        .position(|(s, key)| *key && s == "reason")
        .unwrap();
    assert!(
        tokens[reason + 1].0.contains(MESSAGE),
        "{:?}",
        tokens[reason + 1]
    );
    // The text table carries the same message in its `detail` column, one
    // quoted CSV field for all its lines.
    let csv = report.table().to_csv();
    assert!(
        csv.ends_with(",\"quarantined after 1 failed attempt(s); last: panicked: left\n  right\t\"\"q\"\"\"\n"),
        "{csv}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
