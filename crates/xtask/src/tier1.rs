//! `cargo run -p xtask -- tier1` — timed tier-1 runs, appended to the
//! benchmark trajectory.
//!
//! `--pairs N --parent DIR --change DIR` builds both checkouts' tier-1
//! tests once (`cargo test -q --no-run`), then times `N` pairs of one
//! `cargo test -q` over the prebuilt binaries of each, the side that runs
//! first alternating pair by pair. Each run appends a `tier1_wall_s` row,
//! tagged with its `pair` and the host block, to `BENCH_history.jsonl` at
//! the root of the checkout xtask was built from; the task then prints the
//! pairs rule's verdict on `tier1_wall_s` (lower is better; see
//! [`crate::bench_pairs`]). A run whose tests fail is an error, not a row,
//! and a `LOSS` is an error, as it is for `bench-pairs`.

use crate::bench_pairs::{commit_of, host_block, Better, Verdict};
use metrics::report::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub const USAGE: &str =
    "cargo run -p xtask -- tier1 --pr N --pairs N --parent <dir> --change <dir>";

/// Parsed command line: `pairs` alternating runs of each checkout, judged
/// under the pairs rule.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub pr: u32,
    pub pairs: usize,
    pub parent: PathBuf,
    pub change: PathBuf,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut pr, mut pairs, mut parent, mut change) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--pr" => pr = Some(value.parse().map_err(|_| "--pr needs a number")?),
                "--pairs" => match value.parse() {
                    Ok(n) if n > 0 => pairs = Some(n),
                    _ => return Err("--pairs needs a number of at least 1".into()),
                },
                "--parent" => parent = Some(PathBuf::from(value)),
                "--change" => change = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            pr: pr.ok_or("--pr is required")?,
            pairs: pairs.ok_or("--pairs is required")?,
            parent: parent.ok_or("--pairs needs --parent")?,
            change: change.ok_or("--pairs needs --change")?,
        })
    }
}

/// One history row, on a single line, rendered by the repo's one JSON
/// writer ([`metrics::report::Value`]).
pub fn row(pr: u32, commit: &str, role: &str, pair: usize, host: &Value, wall_s: f64) -> String {
    Value::obj([
        ("pr", u64::from(pr).into()),
        ("commit", commit.into()),
        ("role", role.into()),
        ("pair", pair.into()),
        ("workload", "tier1".into()),
        ("host", host.clone()),
        ("tier1_wall_s", Value::Float(wall_s, 0)),
    ])
    .to_string()
}

/// `cargo test -q` with `extra` arguments in `checkout`; `Err` unless it
/// exits 0.
fn cargo_test(checkout: &Path, extra: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["test", "-q"])
        .args(extra)
        .current_dir(checkout)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "cargo test -q {} failed: {status}",
            extra.join(" ")
        ))
    }
}

/// Build `checkout`'s tests.
fn build(checkout: &Path) -> Result<(), String> {
    eprintln!("[tier1] building the tests of {}", checkout.display());
    cargo_test(checkout, &["--no-run"])
}

/// Wall-clock seconds of one `cargo test -q` of the prebuilt tests.
fn time_once(checkout: &Path) -> Result<f64, String> {
    let start = Instant::now();
    cargo_test(checkout, &[])?;
    Ok(start.elapsed().as_secs_f64())
}

/// Run `args`' pairs, append their rows to `history` and print the
/// verdict.
pub fn run(args: &Args, history: &Path) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    let host = host_block();
    let sides = [("parent", &args.parent), ("change", &args.change)];
    for (_, checkout) in sides {
        build(checkout)?;
    }
    let commits = sides.map(|(_, checkout)| commit_of(checkout));
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        // Alternate which side runs first, so a drifting host favours
        // neither.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let (role, checkout) = sides[side];
            let wall_s = time_once(checkout)?;
            let line = row(args.pr, &commits[side], role, pair, &host, wall_s);
            writeln!(file, "{line}").map_err(|e| format!("{}: {e}", history.display()))?;
            eprintln!("[tier1] pair {pair} {role}: tier1_wall_s {wall_s:.3}");
            walls[side].push(wall_s);
        }
    }
    let verdict = Verdict::of(Better::Lower, &walls[0], &walls[1]);
    println!(
        "tier1 — {} pair(s), parent {} -> change {}",
        args.pairs, commits[0], commits[1]
    );
    println!("tier1_wall_s (lower is better): {verdict}");
    if verdict.loss {
        return Err("tier1_wall_s lost to the parent".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line() {
        let a = Args::parse(&argv("--pr 3 --pairs 10 --parent /p --change /c")).unwrap();
        let want = Args {
            pr: 3,
            pairs: 10,
            parent: "/p".into(),
            change: "/c".into(),
        };
        assert_eq!(a, want);
        for bad in [
            "--pr 1",
            "--pairs 3 --parent /p --change /c",
            "--pr x --pairs 3 --parent /p --change /c",
            "--pr 1 --pairs 3 --parent /p",
            "--pr 1 --pairs 3 --change /c",
            "--pr 1 --parent /p --change /c",
            "--pr 1 --pairs 0 --parent /p --change /c",
            "--pr 1 --pairs 3 --parent /p --change",
            "--pr 1 --pairs 3 --parent /p --change /c --checkout /x",
            "--pr 1 --role change",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
        let err = Args::parse(&argv("--pr 1 --role change")).unwrap_err();
        assert_eq!(err, "unknown flag --role");
    }

    #[test]
    fn a_row_is_one_json_object_with_the_documented_keys() {
        let host = Value::obj([("nproc", 2usize.into())]);
        assert_eq!(
            row(7, "abc1234", "parent", 3, &host, 41.5),
            "{\"pr\": 7, \"commit\": \"abc1234\", \"role\": \"parent\", \"pair\": 3, \
             \"workload\": \"tier1\", \"host\": {\"nproc\": 2}, \"tier1_wall_s\": 41.5}"
        );
    }
}
