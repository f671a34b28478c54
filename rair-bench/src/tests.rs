//! Tests that span modules: the names the harness emits against the
//! contract and against `BENCHMARK.json`, the command line, and a smoke
//! run of the kernel workloads through both passes.

use super::*;
use std::collections::BTreeSet;

/// A name: starts with a letter or digit, then up to 63 of `[A-Za-z0-9_.-]`.
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_emitted_name_and_unit_is_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(is_name(w), "{w}");
        assert!(seen.insert(w), "{w} used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(m.name), "{}", m.name);
        assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(["higher", "lower"].contains(&m.better), "{}", m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    assert!(KERNEL_WORKLOADS
        .iter()
        .all(|k| WORKLOADS.contains(k) && kernel::spec(k).is_some()));
    assert!(!is_name(".hidden") && !is_name("a b") && !is_name(""));
}

#[test]
fn benchmark_json_declares_exactly_what_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("paths"), ["rair-bench"]);
    let command = strings("command");
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))
    );
    assert!(command.contains(&"rair-bench/Cargo.toml"));
    let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let field = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no `{k}`"))
            .to_string()
    };
    let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(w.as_object().unwrap().len(), 2);
        let why = field(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let declared = |key: &str, extra: usize| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(
                    m.as_object().unwrap().len(),
                    3 + extra,
                    "{key}: keys of {m:?}"
                );
                (field(m, "name"), field(m, "unit"), field(m, "better"))
            })
            .collect()
    };
    let emitted = |ms: &[Metric]| -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    };
    assert_eq!(declared("end_to_end", 1), emitted(&END_TO_END));
    assert_eq!(declared("per_layer", 0), emitted(&PER_LAYER));
    for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    assert!(declared("end_to_end", 1).contains(&("setup_s".into(), "s".into(), "lower".into())));
}

#[test]
fn command_line_is_checked_where_it_enters() {
    let parse = |args: &[&str]| parse_args(args.iter().map(ToString::to_string));
    let a = parse(&[
        "--workload",
        "mesh8_low",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (a.workload.as_deref(), a.seed, a.seconds, a.trace),
        (Some("mesh8_low"), 7, 3.0, Some(true))
    );
    let d = parse(&[]).unwrap();
    assert_eq!(
        (d.workload, d.seed, d.trace, d.print_expected),
        (None, DEFAULT_SEED, None, false)
    );
    for bad in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--seed", "x"],
        &["--seconds", "0"],
        &["--seconds", "nan"],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}

/// The three kernel workloads at 1/50 size through the main pass and the
/// traced pass: an API change that breaks the benchmark fails here, not at
/// measurement time.
#[test]
fn smoke_kernel_workloads_through_both_passes() {
    for name in KERNEL_WORKLOADS {
        let spec = kernel::spec(name).unwrap().scaled(50);
        let pass = kernel::main_pass(&spec, DEFAULT_SEED, 0.0);
        assert_eq!(
            pass.chunk_secs.len(),
            kernel::SEGMENTS * kernel::CHECK_CHUNK
        );
        assert_eq!(pass.setup_secs.len(), kernel::SEGMENTS);
        assert!(
            pass.digests.iter().all(|d| *d == pass.digests[0]),
            "{name}: {:x?}",
            pass.digests
        );
        assert!(
            pass.apl > 1.0 && pass.apl < 1000.0,
            "{name}: APL {}",
            pass.apl
        );

        let tracer = Tracer::new();
        let mut calib = Calibration::default();
        let mut o = Outcome::default();
        let root = tracer.enter(name, None);
        kernel::trace(&spec, DEFAULT_SEED, &tracer, root, &mut calib, &mut o);
        tracer.exit(root);
        // Live, replayed and two-shard runs agreed and the oracle was silent.
        assert_eq!(o.failed, 0, "{name}: {:?}", o.failures);
        assert_eq!(o.metrics["shard.digest_match"], 1.0);
        assert_eq!(o.metrics["oracle.violations"], 0.0);
        assert!(o.metrics["network.live_cps"] > 0.0 && o.metrics["traffic.packets"] > 0.0);
        assert_eq!(o.metrics.contains_key("rair.policy_cost_frac"), spec.busy);
        for m in o.metrics.keys() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == *m),
                "{m} is not declared"
            );
        }

        let spans = tracer.snapshot();
        let doc =
            Value::parse(&spans::to_json(name, DEFAULT_SEED, &spans)).expect("trace.json parses");
        let listed = doc.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), spans.len());
        for (id, s) in listed.iter().enumerate() {
            let num = |k: &str| s.get(k).and_then(Value::as_f64).unwrap();
            assert_eq!(num("id") as usize, id);
            assert!(num("start_ns") <= num("end_ns"));
            assert_eq!(s.get("workload").and_then(Value::as_str), Some(name));
            // Every span but the root hangs off an earlier one.
            match s.get("parent") {
                Some(Value::Null) => assert_eq!(id, root),
                Some(p) => assert!((p.as_f64().unwrap() as usize) < id),
                None => panic!("span {id} has no parent field"),
            }
        }
        let live = spans
            .iter()
            .filter(|s| s.name == "network.run[live]")
            .count();
        assert_eq!(live, kernel::CHECK_CHUNK);
        assert!(spans::self_ns(&spans, root) < spans[root].end_ns - spans[root].start_ns);
    }
}
