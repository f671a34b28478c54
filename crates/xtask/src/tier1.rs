//! `cargo run -p xtask -- tier1` — timed tier-1 runs, appended to the
//! benchmark trajectory.
//!
//! The task builds a checkout's tier-1 tests (`cargo test -q --no-run`),
//! then times one `cargo test -q` over the prebuilt binaries and appends a
//! `tier1_wall_s` row, with the host block, to `BENCH_history.jsonl` at the
//! root of the checkout xtask was built from. A run whose tests fail is an
//! error, not a row.
//!
//! With `--pairs N --parent DIR --change DIR` it builds both checkouts once
//! and runs `N` pairs, the side that runs first alternating pair by pair,
//! appends one row per run tagged with its `pair`, and prints the pairs
//! rule's verdict on `tier1_wall_s` (lower is better; see
//! [`crate::bench_pairs`]). A `LOSS` is an error, as it is for
//! `bench-pairs`.

use crate::bench_pairs::{commit_of, host_block, Better, Verdict};
use metrics::report::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub const USAGE: &str =
    "cargo run -p xtask -- tier1 --pr N --role parent|change [--checkout <dir>]\n       \
     cargo run -p xtask -- tier1 --pr N --pairs N --parent <dir> --change <dir>";

/// What to time.
#[derive(Debug, PartialEq)]
pub enum Mode {
    /// One run of `checkout`, recorded as `role`.
    Once { role: String, checkout: PathBuf },
    /// `pairs` alternating runs of each checkout, judged under the pairs
    /// rule.
    Pairs {
        pairs: usize,
        parent: PathBuf,
        change: PathBuf,
    },
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub pr: u32,
    pub mode: Mode,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut pr, mut role, mut checkout) = (None, None, None);
        let (mut pairs, mut parent, mut change) = (None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--pr" => pr = Some(value.parse().map_err(|_| "--pr needs a number")?),
                "--role" if value == "parent" || value == "change" => role = Some(value.clone()),
                "--role" => return Err(format!("--role is parent or change, not {value}")),
                "--checkout" => checkout = Some(PathBuf::from(value)),
                "--pairs" => match value.parse() {
                    Ok(n) if n > 0 => pairs = Some(n),
                    _ => return Err("--pairs needs a number of at least 1".into()),
                },
                "--parent" => parent = Some(PathBuf::from(value)),
                "--change" => change = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let pr = pr.ok_or("--pr is required")?;
        let mode = match (role, pairs) {
            (Some(role), None) if parent.is_none() && change.is_none() => Mode::Once {
                role,
                checkout: checkout.unwrap_or_else(|| PathBuf::from(".")),
            },
            (None, Some(pairs)) if checkout.is_none() => Mode::Pairs {
                pairs,
                parent: parent.ok_or("--pairs needs --parent")?,
                change: change.ok_or("--pairs needs --change")?,
            },
            (None, None) => return Err("--role or --pairs is required".into()),
            _ => return Err("--role [--checkout] and --pairs --parent --change do not mix".into()),
        };
        Ok(Self { pr, mode })
    }
}

/// One history row, on a single line, rendered by the repo's one JSON
/// writer ([`metrics::report::Value`]); a run of a set of pairs carries its
/// `pair`.
pub fn row(
    pr: u32,
    commit: &str,
    role: &str,
    pair: Option<usize>,
    host: &Value,
    wall_s: f64,
) -> String {
    let mut fields = vec![
        ("pr".to_string(), u64::from(pr).into()),
        ("commit".to_string(), commit.into()),
        ("role".to_string(), role.into()),
    ];
    fields.extend(pair.map(|p| ("pair".to_string(), p.into())));
    fields.extend([
        ("workload".to_string(), "tier1".into()),
        ("host".to_string(), host.clone()),
        ("tier1_wall_s".to_string(), Value::Float(wall_s, 0)),
    ]);
    Value::Obj(fields).to_string()
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

/// Run what `args` asks for, append its rows to `history` and print the
/// result: the wall time of a single run, the verdict of a set of pairs.
pub fn run(args: &Args, history: &Path) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    let mut append =
        |line: String| writeln!(file, "{line}").map_err(|e| format!("{}: {e}", history.display()));
    let host = host_block();
    match &args.mode {
        Mode::Once { role, checkout } => {
            build(checkout)?;
            let wall_s = time_once(checkout)?;
            append(row(
                args.pr,
                &commit_of(checkout),
                role,
                None,
                &host,
                wall_s,
            ))?;
            println!("tier1_wall_s {wall_s:.3}");
            Ok(())
        }
        Mode::Pairs {
            pairs,
            parent,
            change,
        } => {
            let sides = [("parent", parent), ("change", change)];
            for (_, checkout) in sides {
                build(checkout)?;
            }
            let commits = sides.map(|(_, checkout)| commit_of(checkout));
            let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            for pair in 0..*pairs {
                // Alternate which side runs first, so a drifting host
                // favours neither.
                let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
                for side in order {
                    let (role, checkout) = sides[side];
                    let wall_s = time_once(checkout)?;
                    append(row(
                        args.pr,
                        &commits[side],
                        role,
                        Some(pair),
                        &host,
                        wall_s,
                    ))?;
                    eprintln!("[tier1] pair {pair} {role}: tier1_wall_s {wall_s:.3}");
                    walls[side].push(wall_s);
                }
            }
            let verdict = Verdict::of(Better::Lower, &walls[0], &walls[1]);
            println!(
                "tier1 — {pairs} pair(s), parent {} -> change {}",
                commits[0], commits[1]
            );
            println!("tier1_wall_s (lower is better): {verdict}");
            if verdict.loss {
                return Err("tier1_wall_s lost to the parent".into());
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line() {
        let once = |role: &str, checkout: &str| Mode::Once {
            role: role.into(),
            checkout: checkout.into(),
        };
        let a = Args::parse(&argv("--pr 7 --role parent --checkout /p")).unwrap();
        assert_eq!((a.pr, a.mode), (7, once("parent", "/p")));
        let a = Args::parse(&argv("--role change --pr 1")).unwrap();
        assert_eq!(a.mode, once("change", "."));
        let a = Args::parse(&argv("--pr 3 --pairs 10 --parent /p --change /c")).unwrap();
        let pairs = Mode::Pairs {
            pairs: 10,
            parent: "/p".into(),
            change: "/c".into(),
        };
        assert_eq!((a.pr, a.mode), (3, pairs));
        for bad in [
            "--role change",
            "--pr 1",
            "--pr 1 --role both",
            "--pr x --role change",
            "--pr 1 --role change --checkout",
            "--pr 1 --role change --pairs 3",
            "--pr 1 --pairs 3 --parent /p",
            "--pr 1 --pairs 0 --parent /p --change /c",
            "--pr 1 --pairs 3 --parent /p --change /c --checkout /x",
            "--pr 1 --role parent --parent /p",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_row_is_one_json_object_with_the_documented_keys() {
        let host = Value::obj([("nproc", 2usize.into())]);
        assert_eq!(
            row(7, "abc1234", "change", None, &host, 48.25),
            "{\"pr\": 7, \"commit\": \"abc1234\", \"role\": \"change\", \
             \"workload\": \"tier1\", \"host\": {\"nproc\": 2}, \"tier1_wall_s\": 48.25}"
        );
        assert_eq!(
            row(7, "abc1234", "parent", Some(3), &host, 41.5),
            "{\"pr\": 7, \"commit\": \"abc1234\", \"role\": \"parent\", \"pair\": 3, \
             \"workload\": \"tier1\", \"host\": {\"nproc\": 2}, \"tier1_wall_s\": 41.5}"
        );
    }
}
