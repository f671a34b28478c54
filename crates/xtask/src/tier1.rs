//! `cargo run -p xtask -- tier1` — one timed tier-1 run, appended to the
//! benchmark trajectory.
//!
//! The task builds a checkout's tier-1 tests (`cargo test -q --no-run`),
//! then times one `cargo test -q` over the prebuilt binaries and appends a
//! `tier1_wall_s` row, with the host block, to `BENCH_history.jsonl` at the
//! root of the checkout xtask was built from. A run whose tests fail is an
//! error, not a row. The task records; judging a parent's rows against a
//! change's under the pairs rule is left to the reader of the history.

use crate::bench_pairs::{commit_of, host_block};
use metrics::report::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub const USAGE: &str =
    "cargo run -p xtask -- tier1 --pr N --role parent|change [--checkout <dir>]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub pr: u32,
    pub role: String,
    pub checkout: PathBuf,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut pr, mut role, mut checkout) = (None, None, PathBuf::from("."));
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--pr" => pr = Some(value.parse().map_err(|_| "--pr needs a number")?),
                "--role" if value == "parent" || value == "change" => role = Some(value.clone()),
                "--role" => return Err(format!("--role is parent or change, not {value}")),
                "--checkout" => checkout = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            pr: pr.ok_or("--pr is required")?,
            role: role.ok_or("--role is required")?,
            checkout,
        })
    }
}

/// One history row, on a single line, rendered by the repo's one JSON
/// writer ([`metrics::report::Value`]).
pub fn row(pr: u32, commit: &str, role: &str, host: &Value, wall_s: f64) -> String {
    Value::obj([
        ("pr", u64::from(pr).into()),
        ("commit", commit.into()),
        ("role", role.into()),
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

/// Build the tests, time one run, append its row to `history`; returns the
/// wall-clock seconds.
pub fn run(args: &Args, history: &Path) -> Result<f64, String> {
    eprintln!("[tier1] building the tests of {}", args.checkout.display());
    cargo_test(&args.checkout, &["--no-run"])?;
    let start = Instant::now();
    cargo_test(&args.checkout, &[])?;
    let wall_s = start.elapsed().as_secs_f64();
    let line = row(
        args.pr,
        &commit_of(&args.checkout),
        &args.role,
        &host_block(),
        wall_s,
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", history.display()))?;
    Ok(wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line() {
        let a = Args::parse(&argv("--pr 7 --role parent --checkout /p")).unwrap();
        assert_eq!((a.pr, a.role.as_str()), (7, "parent"));
        assert_eq!(a.checkout, PathBuf::from("/p"));
        let a = Args::parse(&argv("--role change --pr 1")).unwrap();
        assert_eq!(a.checkout, PathBuf::from("."));
        for bad in [
            "--role change",
            "--pr 1",
            "--pr 1 --role both",
            "--pr x --role change",
            "--pr 1 --role change --checkout",
            "--pr 1 --role change --pairs 3",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_row_is_one_json_object_with_the_documented_keys() {
        let host = Value::obj([("nproc", 2usize.into())]);
        assert_eq!(
            row(7, "abc1234", "change", &host, 48.25),
            "{\"pr\": 7, \"commit\": \"abc1234\", \"role\": \"change\", \
             \"workload\": \"tier1\", \"host\": {\"nproc\": 2}, \"tier1_wall_s\": 48.25}"
        );
    }
}
