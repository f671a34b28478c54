//! `cargo run -p xtask -- lint` — the kernel determinism lint.
//!
//! Exits nonzero and prints one line per finding when any banned token
//! (hash collections, OS entropy, wall clock, unordered parallelism; the
//! panic and allocation families inside the hot-path function bodies)
//! appears in a kernel crate outside a `// lint: allow(rule)` escape.
//!
//! `cargo run -p xtask -- bench-pairs …` — alternating parent/change runs
//! of one `rair-bench` workload, appended to `BENCH_history.jsonl`
//! ([`xtask::bench_pairs`]).
//!
//! `cargo run -p xtask -- tier1 …` — alternating pairs of timed
//! `cargo test -q` runs of two checkouts, appended to
//! `BENCH_history.jsonl` ([`xtask::tier1`]).
//!
//! Both run on one pairs driver, [`xtask::bench_pairs::drive`].

use std::process::ExitCode;
use xtask::bench_pairs::{self, Measurement, Pairs};
use xtask::tier1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("bench-pairs") => {
            pairs_task(bench_pairs::USAGE, bench_pairs::Bench::parse(&args[1..]))
        }
        Some("tier1") => pairs_task(tier1::USAGE, tier1::Tier1::parse(&args[1..])),
        Some("--help" | "-h") => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => {
            if let Some(cmd) = other {
                eprintln!("unknown task `{cmd}`");
            }
            print_usage();
            ExitCode::FAILURE
        }
    }
}

/// Run a pairs task on the pairs driver. A bad command line gets the usage;
/// a failed run, a `LOSS` verdict or a mismatch only its own message.
fn pairs_task(usage: &str, parsed: Result<(Pairs, impl Measurement), String>) -> ExitCode {
    let history = xtask::workspace_root().join("BENCH_history.jsonl");
    let run = parsed
        .map_err(|e| format!("{e}\nusage: {usage}"))
        .and_then(|(pairs, m)| bench_pairs::drive(&pairs, &m, &history));
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[xtask] {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo run -p xtask -- lint");
    eprintln!("       {}", bench_pairs::USAGE);
    eprintln!("       {}", tier1::USAGE);
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint         ban nondeterministic std/rayon tokens from the kernel crates");
    eprintln!("  bench-pairs  alternate rair-bench runs of two checkouts, append them to");
    eprintln!(
        "               BENCH_history.jsonl and print the pairs rule's verdict (exit 1 on LOSS)"
    );
    eprintln!("  tier1        time alternating pairs of prebuilt `cargo test -q` runs of two");
    eprintln!("               checkouts, append tier1_wall_s rows to BENCH_history.jsonl and");
    eprintln!("               print the pairs rule's verdict (exit 1 on LOSS)");
    eprintln!();
    eprintln!("rules:");
    for r in xtask::RULES {
        eprintln!("  {:<24} {}", r.name, r.why);
    }
    let p = &xtask::PANIC_RULE;
    eprintln!("  {:<24} {} (function-scoped)", p.name, p.why);
    let a = &xtask::ALLOC_RULE;
    eprintln!("  {:<24} {} (tick-kernel phases)", a.name, a.why);
    let s = &xtask::SWALLOWED_IO_RULE;
    eprintln!("  {:<24} {} (durability modules)", s.name, s.why);
    let r = &xtask::REFERENCE_RULE;
    eprintln!("  {:<24} {} (non-test code)", r.name, r.why);
}

fn lint() -> ExitCode {
    let root = xtask::workspace_root();
    let findings = xtask::lint_workspace(&root);
    if findings.is_empty() {
        let files: usize = xtask::SCOPES.len();
        let hot: usize = xtask::HOT_PATHS.iter().map(|h| h.functions.len()).sum();
        let dur = xtask::DURABILITY_SCOPES.len();
        println!(
            "xtask lint: clean ({files} scopes, {hot} hot-path functions, \
             {dur} durability scopes, 0 findings)"
        );
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("xtask lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
