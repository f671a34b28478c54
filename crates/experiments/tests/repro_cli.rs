//! End-to-end tests of the `repro` binary: argument handling and the fast
//! experiments (the slow figures are covered by the headline-claims
//! integration tests at library level).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn no_args_fails_with_usage() {
    let out = repro().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_experiment_fails() {
    let out = repro().arg("fig99").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn unknown_flag_fails() {
    let out = repro().arg("--frob").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_succeeds() {
    for flag in ["--help", "-h"] {
        let out = repro().arg(flag).output().unwrap();
        assert!(out.status.success());
        let s = String::from_utf8_lossy(&out.stdout);
        assert!(s.contains("usage:") && s.contains("\n  serve <a jobs file>"));
        assert!(!s.contains("bench-kernel"), "{s}");
    }
}

#[test]
fn seed_requires_value() {
    let out = repro().args(["--seed"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed needs an integer"));
}

/// A zero measurement window makes every APL 0/0; `--windows` must reject
/// it (and malformed pairs) up front instead of printing a table of NaN.
/// So must a pair whose sum passes `u64::MAX`: the end cycle used to panic
/// in debug builds and wrap to a 0-cycle capture in release.
#[test]
fn windows_rejects_zero_measure_and_malformed_pairs() {
    for bad in ["100,0", "100", "100,x", ",50", "18446744073709551615,1"] {
        let out = repro()
            .args(["--quick", "--windows", bad, "trace-demo"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "`--windows {bad}`");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--windows needs WARMUP,MEASURE") && err.contains("usage:"),
            "`{bad}`: {err}"
        );
        assert!(out.stdout.is_empty(), "`{bad}` printed results");
    }
    // The largest pair that still has an end cycle parses.
    let out = repro()
        .args(["--windows", "18446744073709551614,1", "--help"])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn table1_prints_configuration() {
    let out = repro().arg("table1").output().unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("Table 1"));
    assert!(s.contains("128 cycles"));
    assert!(s.contains("64 nodes"));
}

#[test]
fn table1_csv_mode() {
    let out = repro().args(["--csv", "table1"]).output().unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.starts_with("parameter,paper,simulator"));
    assert!(!s.contains("=="), "CSV must not contain table borders");
}

/// Under `--csv` stdout is CSV alone: one block per table, blocks
/// separated by one blank line, every record of a block as wide as its
/// header; the knee lines go to stderr.
#[test]
fn csv_stdout_is_blank_line_separated_rectangular_blocks() {
    let out = repro()
        .args(["--csv", "--windows", "100,300", "curve"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.ends_with('\n') && !s.ends_with("\n\n"), "{s:?}");
    let blocks: Vec<&str> = s.trim_end().split("\n\n").collect();
    assert_eq!(blocks.len(), 3, "{s}");
    for block in blocks {
        let widths: Vec<usize> = block.lines().map(|l| l.split(',').count()).collect();
        assert!(widths.len() > 1 && widths[0] > 1, "{block}");
        assert!(
            widths.iter().all(|&w| w == widths[0]),
            "ragged block:\n{block}"
        );
    }
    assert!(err.contains("knee"), "{err}");
}

#[test]
fn lbdr_reports_14_percent() {
    let out = repro().arg("lbdr").output().unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("+14.1%"), "{s}");
}

#[test]
fn admit_proves_every_shipped_config_under_every_property() {
    let dir = std::env::temp_dir().join(format!("rair-cli-admit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro().arg("admit").current_dir(&dir).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    // It simulates nothing, so its banner names no windows and no seed.
    assert!(err.contains("[repro] running admit…"), "{err}");
    assert!(!err.contains("cycles") && !err.contains("seed"), "{err}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("Static admission"), "{s}");
    assert!(
        s.contains("all 336 configurations admitted under 6 properties"),
        "{s}"
    );
    // Every row of the report was checked for deadlock freedom too.
    let report = std::fs::read_to_string(dir.join("ADMIT_report.json")).unwrap();
    let rows: Vec<&str> = (report.lines())
        .filter(|l| l.contains("\"verdict\": "))
        .collect();
    assert_eq!(rows.len(), 336);
    for row in rows {
        assert!(row.contains("\"verdict\": \"admit\""), "{row}");
        assert!(row.contains(" deadlock-freedom lbdr-confinement "), "{row}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `admit` runs its negative controls too, and prints each of the static
/// verifier's, and the unranked-application scheme, as caught with a
/// concrete witness.
#[test]
fn admit_prints_every_verifier_control_rejected_with_a_witness() {
    let dir = std::env::temp_dir().join(format!("rair-cli-controls-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro().arg("admit").current_dir(&dir).output().unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    let controls = [
        "escape-vcs-disabled",
        "mixed-dor-escape",
        "severed-dimension",
        "inconsistent-lbdr-bits",
        "nan-rank-intensity",
        "torus-no-dateline-escape",
        "ring-no-dateline-escape",
        "unranked-application",
    ];
    for name in controls {
        let line = s.lines().find(|l| l.trim_start().starts_with(name));
        let line = line.unwrap_or_else(|| panic!("{name} not printed: {s}"));
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cells[1], "yes", "{line}");
        assert!(cells.len() > 3, "{name} has no witness: {line}");
    }
    // The cyclic configs print a concrete channel cycle; the severed mesh
    // an unreachable pair or a router without an escape channel.
    assert!(s.contains("cycle r15:E:esc0 -> r0:E:esc0"), "{s}");
    assert!(
        s.contains("unreachable pair") || s.contains("no escape channel"),
        "{s}"
    );
    assert!(s.contains("all 20 negative controls rejected"), "{s}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The banner names only what a command reads: `table1` neither windows
/// nor seed, `lbdr` its seed alone.
#[test]
fn banner_names_only_the_windows_and_seed_a_command_reads() {
    let out = repro()
        .args(["--seed", "3", "table1", "lbdr"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("[repro] running table1…\n"), "{err}");
    assert!(err.contains("[repro] running lbdr (seed 3)…\n"), "{err}");
    assert!(!err.contains("cycles"), "{err}");
}

#[test]
fn trace_demo_roundtrips_through_file() {
    let dir = std::env::temp_dir().join("rair_repro_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.bin");
    let out = repro()
        .args([
            "--quick",
            "--trace-file",
            path.to_str().unwrap(),
            "trace-demo",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("Trace-driven comparison"));
    assert!(s.contains("RA_RAIR"));
    assert!(path.exists(), "trace file not written");
    assert!(std::fs::metadata(&path).unwrap().len() > 1000);
    std::fs::remove_file(&path).ok();
}

/// `--quick`/`--smoke` are presets: they apply before the explicit
/// overrides wherever they stand in argv, so both orders run the same
/// windows (the preset used to win when it came last).
#[test]
fn windows_override_presets_in_either_argv_order() {
    let cache = std::env::temp_dir().join(format!("rair-cli-order-{}", std::process::id()));
    for args in [
        ["--windows", "100,200", "--quick", "fig9"],
        ["--quick", "--windows", "100,200", "fig9"],
    ] {
        let out = repro()
            .args(args)
            .env("RAIR_CACHE_DIR", &cache)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        assert!(
            err.contains("[repro] running fig9 (100 + 200 cycles"),
            "{args:?}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

/// `fig9` renders Figs. 9 and 10 from one sweep, each above its headline.
#[test]
fn fig9_prints_the_fig9_and_fig10_tables() {
    let cache = std::env::temp_dir().join(format!("rair-cli-fig9-{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--windows", "100,300", "fig9"])
        .env("RAIR_CACHE_DIR", &cache)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let s = String::from_utf8_lossy(&out.stdout);
    let at = ["== Fig.9 ", "VA+SA vs", "== Fig.10 ", "DBAR vs"].map(|w| s.find(w));
    assert!(at.iter().all(Option::is_some) && at.is_sorted(), "{s}");
}

/// A flag none of the named subcommands reads, a trailing positional after
/// a solo subcommand, and a solo subcommand among experiments all fail up
/// front, by name, with the usage — nothing runs first.
#[test]
fn out_of_scope_flags_and_stray_positionals_fail_with_usage() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["fig14", "--retries", "3"],
            "--retries is not read by fig14",
        ),
        // Each job's own seed seeds its simulation.
        (
            &["--seed", "3", "serve", "x.jobs"],
            "--seed is not read by serve",
        ),
        (
            &["table1", "--trace-file", "t.bin"],
            "--trace-file is not read by table1",
        ),
        (
            &["--windows", "5,5", "chaos"],
            "--windows is not read by chaos",
        ),
        (
            &["chaos", "fig14"],
            "chaos cannot be combined with experiments",
        ),
        (&["serve", "jobs.txt", "extra"], "(`extra`)"),
        (
            &["fig14", "serve", "x"],
            "serve cannot be combined with experiments",
        ),
        (&["fig9", "fig99"], "unknown experiment fig99"),
        (
            &["--timeout-ms"],
            "--timeout-ms needs a positive number of milliseconds",
        ),
    ];
    for (args, want) in cases {
        let out = repro().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        assert!(
            err.contains(want) && err.contains("usage:"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("[repro] running"), "{args:?} ran something");
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
    // One reader among the named subcommands is enough.
    let out = repro()
        .args(["--seed", "3", "table1", "lbdr"])
        .output()
        .unwrap();
    assert!(out.status.success());
}

/// What was retired is gone by name — a flag and a subcommand of the
/// model, `serve`'s model screen (admission is its one gate), the five
/// flags that split a self-check by topology, ran its negative controls
/// alone or spelled `RAIR_ORACLE=1`, the oracle matrix
/// (tier-1's `oracle_differential` runs it), the four six-app studies
/// that `ablation` runs as one sweep, the Fig. 10 subcommand, whose
/// table `fig9` prints from the same sweep, and the static verifier's own
/// subcommand, whose matrix and controls `admit` runs — and the two `serve`
/// knobs reject a zero at parse time: `--retries 0` used to run as 1, and
/// `--timeout-ms 0` timed every attempt out at once and journaled
/// `quarantine` rows a later resume then honoured. (The retired names are
/// spelled in halves so that a grep of the tree for them stays empty.)
#[test]
fn retired_names_and_zero_valued_serve_knobs_fail_with_usage() {
    let (flag, experiment) = (["--pr", "une"].concat(), ["bench", "-model"].concat());
    let mut cases: Vec<(Vec<&str>, String)> = vec![
        (vec![flag.as_str(), "curve"], format!("unknown flag {flag}")),
        (
            vec![experiment.as_str()],
            format!("unknown experiment {experiment}"),
        ),
        (
            vec!["--retries", "0", "serve", "jobs.txt"],
            "--retries needs a positive integer".into(),
        ),
        (
            vec!["--timeout-ms", "0", "serve", "jobs.txt"],
            "--timeout-ms needs a positive number of milliseconds".into(),
        ),
    ];
    let screen = ["--scr", "een"].concat();
    cases.push((
        vec!["serve", "jobs.txt", screen.as_str()],
        format!("unknown flag {screen}"),
    ));
    let retired = [
        ("--topo", "logy", "admit"),
        ("--inject", "-cyclic", "admit"),
        ("--inject", "-broken", "admit"),
        ("--inject", "-wrong-result", "chaos"),
        ("--ora", "cle", "oracle"),
    ]
    .map(|(a, b, cmd)| ([a, b].concat(), cmd));
    for (flag, cmd) in &retired {
        cases.push((vec![flag.as_str(), *cmd], format!("unknown flag {flag}")));
    }
    let experiments = [
        ("ora", "cle"),
        ("ablation", "-delta"),
        ("ablation", "-vcsplit"),
        ("ablation", "-rank"),
        ("base", "lines"),
        ("fig", "10"),
        ("verify", "-config"),
    ]
    .map(|(a, b)| [a, b].concat());
    for name in &experiments {
        cases.push((vec![name.as_str()], format!("unknown experiment {name}")));
    }
    for (args, want) in cases {
        let out = repro().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(&want) && err.contains("usage:"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
}

/// An unwritable `--trace-file` is a reported error, not a panic.
#[test]
fn trace_demo_reports_an_unwritable_trace_file() {
    let out = repro()
        .args(["--quick", "--windows", "100,200"])
        .args(["--trace-file", "/nonexistent/dir/t.bin", "trace-demo"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("[repro] trace-demo: /nonexistent/dir/t.bin: "),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

/// A report that cannot be written is a reported error (exit 1), not a
/// panic: run `admit` in a directory where the report path is taken by a
/// directory.
#[test]
fn unwritable_report_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("rair-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("ADMIT_report.json")).unwrap();
    let out = repro().arg("admit").current_dir(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("[repro] cannot write ADMIT_report.json: "),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_requires_a_jobs_file() {
    let out = repro().arg("serve").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve needs a jobs file"));

    let out = repro()
        .args(["serve", "/nonexistent/jobs.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_demo_jobs_run_dedup_gate_and_resume() {
    let dir = std::env::temp_dir().join(format!("rair-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/serve_demo.jobs"
    );
    let run = || {
        repro()
            .args([
                "--quick",
                "--windows",
                "200,600",
                "serve",
                jobs,
                "--dir",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let s1 = String::from_utf8_lossy(&first.stdout);
    // The inverted scheme is gate-rejected; the relabeled duplicate dedups.
    assert!(s1.contains("rejected"), "{s1}");
    assert!(s1.contains("sweep digest"), "{s1}");

    // Second invocation resumes everything from the journal: 0 executed,
    // identical digest.
    let second = run();
    assert!(second.status.success());
    let s2 = String::from_utf8_lossy(&second.stdout);
    assert!(s2.contains("0 executed"), "{s2}");
    let digest = |s: &str| {
        s.lines()
            .find(|l| l.contains("sweep digest"))
            .and_then(|l| l.split_whitespace().nth(2).map(str::to_string))
            .unwrap()
    };
    assert_eq!(digest(&s1), digest(&s2), "resumed digest must match");
    let _ = std::fs::remove_dir_all(&dir);
}
