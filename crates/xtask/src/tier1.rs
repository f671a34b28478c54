//! `cargo run -p xtask -- tier1` — timed tier-1 runs, appended to the
//! benchmark trajectory.
//!
//! A [`Measurement`] for the pairs driver ([`crate::bench_pairs::drive`]):
//! `--pairs N --parent DIR --change DIR` builds both checkouts' tier-1
//! tests once (`cargo test -q --no-run`), then times `N` pairs of one
//! `cargo test -q` over the prebuilt binaries of each, the side that runs
//! first alternating pair by pair. Each run appends a `tier1_wall_s` row,
//! tagged with its `pair` and the host block, to `BENCH_history.jsonl`;
//! the driver then prints the pairs rule's verdict on `tier1_wall_s`
//! (lower is better). A run whose tests fail is an error, not a row, and a
//! `LOSS` is an error, as it is for `bench-pairs`.

use crate::bench_pairs::{Better, Measurement, Pairs};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub const USAGE: &str =
    "cargo run -p xtask -- tier1 --pr N --pairs N --parent <dir> --change <dir>";

/// The tier-1 suite as a measured workload.
#[derive(Debug, PartialEq)]
pub struct Tier1;

impl Tier1 {
    /// The command line: the shared flags, `--pairs` required.
    pub fn parse(argv: &[String]) -> Result<(Pairs, Self), String> {
        let (pairs, []) = Pairs::parse(argv, [], None)?;
        Ok((pairs, Self))
    }
}

impl Measurement for Tier1 {
    fn workload(&self) -> &str {
        "tier1"
    }

    fn metrics(&self) -> &'static [(&'static str, Better)] {
        &[("tier1_wall_s", Better::Lower)]
    }

    fn build(&self, checkout: &Path) -> Result<(), String> {
        cargo_test(checkout, &["--no-run"])
    }

    /// Wall-clock seconds of one `cargo test -q` of the prebuilt tests.
    fn run(&self, checkout: &Path, _pair: usize) -> Result<Vec<f64>, String> {
        let start = Instant::now();
        cargo_test(checkout, &[])?;
        Ok(vec![start.elapsed().as_secs_f64()])
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_pairs::row;
    use metrics::report::Value;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line() {
        let (a, _) = Tier1::parse(&argv("--pr 3 --pairs 10 --parent /p --change /c")).unwrap();
        let want = Pairs {
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
            "--pr 1 --pairs 3 --parent /p --change /c --workload w",
            "--pr 1 --role change",
        ] {
            assert!(Tier1::parse(&argv(bad)).is_err(), "{bad}");
        }
        let err = Tier1::parse(&argv("--pr 1 --role change")).unwrap_err();
        assert_eq!(err, "unknown flag --role");
    }

    #[test]
    fn a_row_is_one_json_object_with_the_documented_keys() {
        let host = Value::obj([("nproc", 2usize.into())]);
        let wall = [("tier1_wall_s", 41.5)];
        assert_eq!(
            row(7, "abc1234", "parent", 3, "tier1", None, &host, &wall),
            "{\"pr\": 7, \"commit\": \"abc1234\", \"role\": \"parent\", \"pair\": 3, \
             \"workload\": \"tier1\", \"host\": {\"nproc\": 2}, \"tier1_wall_s\": 41.5}"
        );
    }
}
