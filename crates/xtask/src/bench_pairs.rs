//! `cargo run -p xtask -- bench-pairs` — alternating parent/change runs of
//! one `rair-bench` workload, appended to the repo's benchmark trajectory.
//!
//! The task builds `rair-bench` in two checkouts (each into its own
//! `rair-bench/target`), runs `--workload W --seed 300+i --trace 0` on both
//! for every pair `i` — the same seed on both sides, the side that runs
//! first alternating pair by pair, the run length the harness's default —
//! appends one JSON row per run to `BENCH_history.jsonl` at the root of the
//! checkout xtask was built from, and prints the gain rule as a verdict: a
//! gain is claimed only on ten pairs or more, when the change wins at least
//! nine tenths of them (ties count for neither) **and** the medians differ
//! by more than the distance between the quartiles of the parent's own runs.
//! The rule cuts both ways: when the *parent* wins nine tenths of the pairs
//! and the medians are apart by more than the change's quartile distance the
//! verdict is `LOSS` and the task exits 1 — CI's `bench-gate` job runs it
//! against the base commit on the one runner.
//!
//! The history file is append-only. Timings from different hosts are not
//! comparable, which is why every row carries its host block and why the CI
//! job uploads its rows as an artifact instead of committing them.

use metrics::report::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The end-to-end metrics of `BENCHMARK.json`, in row order.
pub const METRICS: [&str; 4] = ["work_per_s", "sim_apl_cycles", "peak_rss_mb", "setup_s"];

/// Fewest pairs a gain may be claimed on; fewer are reported, not claimed.
pub const MIN_PAIRS: usize = 10;

/// First seed of a set of pairs: pair `i` runs on `SEED_BASE + i`
/// (`rair-bench/BASELINE.json`'s first set used the same base).
pub const SEED_BASE: u64 = 300;

pub const USAGE: &str = "cargo run -p xtask -- bench-pairs --pr N --parent <checkout> \
                         --change <checkout> --workload W [--pairs 10]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub pr: u32,
    pub parent: PathBuf,
    pub change: PathBuf,
    pub workload: String,
    pub pairs: usize,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut pr, mut parent, mut change, mut workload, mut pairs) =
            (None, None, None, None, 10);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--pr" => pr = Some(value.parse().map_err(|_| "--pr needs a number")?),
                "--parent" => parent = Some(PathBuf::from(value)),
                "--change" => change = Some(PathBuf::from(value)),
                "--workload" => workload = Some(value.clone()),
                "--pairs" => {
                    pairs = value.parse().map_err(|_| "--pairs needs a number")?;
                    if pairs == 0 {
                        return Err("--pairs must be at least 1".into());
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            pr: pr.ok_or("--pr is required")?,
            parent: parent.ok_or("--parent is required")?,
            change: change.ok_or("--change is required")?,
            workload: workload.ok_or("--workload is required")?,
            pairs,
        })
    }
}

/// The four end-to-end metrics of one `--trace 0` run, in [`METRICS`] order.
pub type Run = [f64; 4];

/// Read one run out of `rair-bench`'s stdout: the `workload metric value
/// unit` lines. A missing metric or a nonzero `failed` count is an error —
/// a run that failed a check is not a measurement.
pub fn parse_run(workload: &str, stdout: &str) -> Result<Run, String> {
    let field = |name: &str| {
        stdout
            .lines()
            .find_map(|l| {
                let mut w = l.split_whitespace();
                (w.next() == Some(workload) && w.next() == Some(name)).then_some(())?;
                w.next()
            })
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("no `{workload} {name} <value>` line in the harness output"))
    };
    if field("failed")? != 0.0 {
        return Err(format!("{workload}: the run failed a check"));
    }
    let mut run = [0.0; 4];
    for (slot, name) in run.iter_mut().zip(METRICS) {
        *slot = field(name)?;
    }
    Ok(run)
}

/// Quantile `q` of `values` by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
}

/// The gain rule applied to one higher-is-better metric over paired runs.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub pairs: usize,
    pub wins: usize,
    pub losses: usize,
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub gain: bool,
    /// The rule with the sides swapped: the parent beat the change.
    pub loss: bool,
}

impl Verdict {
    /// `parent[i]` and `change[i]` are the two sides of pair `i`.
    pub fn of(parent: &[f64], change: &[f64]) -> Self {
        let quartiles = |v: &[f64]| [0.25, 0.5, 0.75].map(|q| quantile(v, q));
        let (p, c) = (quartiles(parent), quartiles(change));
        let wins = parent.iter().zip(change).filter(|(p, c)| c > p).count();
        let losses = parent.iter().zip(change).filter(|(p, c)| c < p).count();
        // One side beats the other: nine tenths of at least ten pairs, and
        // the medians apart by more than the beaten side's own spread.
        let beats = |won: usize, ahead: f64, [q1, _, q3]: [f64; 3]| {
            parent.len() >= MIN_PAIRS && 10 * won >= 9 * parent.len() && ahead > q3 - q1
        };
        Self {
            pairs: parent.len(),
            wins,
            losses,
            parent: p,
            change: c,
            gain: beats(wins, c[1] - p[1], p),
            loss: beats(losses, p[1] - c[1], c),
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ([p1, p2, p3], [c1, c2, c3]) = (self.parent, self.change);
        write!(
            f,
            "median [quartiles] {p2:.6} [{p1:.6}, {p3:.6}] -> {c2:.6} [{c1:.6}, {c3:.6}] = {:.3}x; \
             change wins {} of {} pairs ({} lost); medians apart by {:.6}, parent IQR {:.6}: {}",
            c2 / p2,
            self.wins,
            self.pairs,
            self.losses,
            c2 - p2,
            p3 - p1,
            if self.gain {
                "GAIN"
            } else if self.loss {
                "LOSS"
            } else if self.pairs < MIN_PAIRS {
                "fewer than ten pairs, no claim"
            } else {
                "no gain under the rule"
            }
        )
    }
}

fn first_line_of(dir: &Path, cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    out.status.success().then(|| line.to_string())
}

/// The host block every row carries: `{nproc, cpu, kernel, rustc}` (`null`
/// for what this host does not tell).
pub fn host_block() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|t| {
        let line = t.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = first_line_of(Path::new("."), "rustc", &["--version"]);
    Value::obj([
        ("nproc", nproc.into()),
        ("cpu", cpu.into()),
        ("kernel", kernel.map(|k| k.trim().to_string()).into()),
        ("rustc", rustc.into()),
    ])
}

/// Short commit of `checkout`, `-dirty` appended when the work tree differs.
fn commit_of(checkout: &Path) -> String {
    let head = first_line_of(checkout, "git", &["rev-parse", "--short", "HEAD"]);
    let dirty = first_line_of(checkout, "git", &["status", "--porcelain"]).is_some();
    let suffix = if dirty { "-dirty" } else { "" };
    format!("{}{suffix}", head.as_deref().unwrap_or("unknown"))
}

/// One history row, on a single line, rendered by the repo's one JSON
/// writer ([`metrics::report::Value`]).
#[allow(clippy::too_many_arguments)]
pub fn row(
    pr: u32,
    commit: &str,
    role: &str,
    pair: usize,
    workload: &str,
    seed: u64,
    host: &Value,
    run: &Run,
) -> String {
    let mut fields = vec![
        ("pr".to_string(), u64::from(pr).into()),
        ("commit".to_string(), commit.into()),
        ("role".to_string(), role.into()),
        ("pair".to_string(), pair.into()),
        ("workload".to_string(), workload.into()),
        ("seed".to_string(), seed.into()),
        ("host".to_string(), host.clone()),
    ];
    let metrics = METRICS.iter().zip(run);
    fields.extend(metrics.map(|(name, x)| (name.to_string(), Value::Float(*x, 0))));
    Value::Obj(fields).to_string()
}

/// `cargo <verb> --release --offline --quiet` on a checkout's `rair-bench`,
/// built into that checkout's own target directory.
fn harness(checkout: &Path, verb: &str) -> Command {
    let mut c = Command::new("cargo");
    c.args([verb, "--release", "--offline", "--quiet", "--manifest-path"])
        .arg("rair-bench/Cargo.toml")
        .current_dir(checkout)
        .env("CARGO_TARGET_DIR", checkout.join("rair-bench/target"));
    c
}

fn run_once(checkout: &Path, workload: &str, seed: u64) -> Result<Run, String> {
    let out = harness(checkout, "run")
        .args(["--", "--workload", workload, "--trace", "0", "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    parse_run(workload, &String::from_utf8_lossy(&out.stdout)).map_err(|e| {
        format!(
            "{} (seed {seed}): {e}\n{}",
            checkout.display(),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// Build both sides, run the pairs, append the rows to `history`, print the
/// per-metric summary and the verdict on `work_per_s`.
pub fn run(args: &Args, history: &Path) -> Result<(), String> {
    let sides = [("parent", &args.parent), ("change", &args.change)];
    for (role, checkout) in sides {
        eprintln!("[bench-pairs] building {role} ({})", checkout.display());
        let ok = harness(checkout, "build")
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            return Err(format!("{role}: building rair-bench failed"));
        }
    }
    let host = host_block();
    let commits = sides.map(|(_, checkout)| commit_of(checkout));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        let seed = SEED_BASE + pair as u64;
        // Alternate which side runs first, so a drifting host favours neither.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let (role, checkout) = sides[side];
            let run = run_once(checkout, &args.workload, seed)?;
            let line = row(
                args.pr,
                &commits[side],
                role,
                pair,
                &args.workload,
                seed,
                &host,
                &run,
            );
            writeln!(file, "{line}").map_err(|e| format!("{}: {e}", history.display()))?;
            eprintln!("[bench-pairs] pair {pair} {role}: work_per_s {}", run[0]);
            runs[side].push(run);
        }
    }
    let column = |side: usize, m: usize| runs[side].iter().map(|r| r[m]).collect::<Vec<_>>();
    println!(
        "{} — {} pair(s), seeds {SEED_BASE}..={}, parent {} -> change {}",
        args.workload,
        args.pairs,
        SEED_BASE + args.pairs as u64 - 1,
        commits[0],
        commits[1]
    );
    for (m, name) in METRICS.iter().enumerate().skip(1) {
        let (p, c) = (column(0, m), column(1, m));
        let same = p.iter().zip(&c).filter(|(p, c)| p == c).count();
        println!(
            "{name}: median {} -> {} ({same} of {} pairs identical)",
            quantile(&p, 0.5),
            quantile(&c, 0.5),
            args.pairs
        );
    }
    let verdict = Verdict::of(&column(0, 0), &column(1, 0));
    println!("work_per_s: {verdict}");
    if verdict.loss {
        return Err(format!("{}: work_per_s lost to the parent", args.workload));
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
        let a = Args::parse(&argv(
            "--pr 18 --parent /p --change /c --workload mesh8_low",
        ))
        .unwrap();
        assert_eq!((a.pr, a.pairs, a.workload.as_str()), (18, 10, "mesh8_low"));
        assert_eq!((a.parent, a.change), ("/p".into(), "/c".into()));
        let a = Args::parse(&argv("--pairs 3 --pr 1 --parent p --change c --workload w")).unwrap();
        assert_eq!(a.pairs, 3);
        for bad in [
            "--parent p --change c --workload w",
            "--pr 1 --change c --workload w",
            "--pr 1 --parent p --change c",
            "--pr 1 --parent p --change c --workload w --pairs 0",
            "--pr 1 --parent p --change c --workload w --pairs",
            "--pr x --parent p --change c --workload w",
            "--pr 1 --parent p --change c --workload w --seconds 5",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    const OUTPUT: &str = "# mesh8_low.digest = 3ceb (pinned comparison skipped)\n\
        # mesh8_low chunk_ms p50 120.5 p75 131.5 max 168.0 (n = 82)\n\
        mesh8_low work_per_s 490650.5 1/s\n\
        mesh8_low sim_apl_cycles 19.25 cycles\n\
        mesh8_low peak_rss_mb 4 MB\n\
        mesh8_low setup_s 0.049 s\n\
        mesh8_low ops 83 count\n\
        mesh8_low failed 0 count\n\
        {\"correct\": true, \"attempted\": 83, \"failed\": 0, \"metrics\": {}}\n";

    #[test]
    fn a_run_is_read_from_the_metric_lines() {
        assert_eq!(
            parse_run("mesh8_low", OUTPUT),
            Ok([490650.5, 19.25, 4.0, 0.049])
        );
        // Another workload's lines, a failed check and a missing metric are
        // errors, not zeros.
        assert!(parse_run("mesh8_high", OUTPUT).is_err());
        let failed = OUTPUT.replace("failed 0 count", "failed 2 count");
        assert!(parse_run("mesh8_low", &failed)
            .unwrap_err()
            .contains("failed a check"));
        let cut = OUTPUT.replace("mesh8_low setup_s 0.049 s\n", "");
        assert!(parse_run("mesh8_low", &cut)
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn the_rule_needs_nine_tenths_of_the_pairs_and_medians_beyond_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Ten wins, medians 30 apart, parent IQR 4.5: a gain.
        let change: Vec<f64> = parent.iter().map(|p| p + 30.0).collect();
        let v = Verdict::of(&parent, &change);
        assert_eq!((v.wins, v.losses, v.gain), (10, 0, true));
        assert!(v.to_string().contains("GAIN"), "{v}");
        // Nine wins and a loss still pass; eight wins and two ties do not
        // (ties count for neither side).
        let mut nine = change.clone();
        nine[0] = 50.0;
        assert!(Verdict::of(&parent, &nine).gain);
        let mut eight = change.clone();
        (eight[0], eight[1]) = (parent[0], parent[1]);
        let v = Verdict::of(&parent, &eight);
        assert_eq!((v.wins, v.losses, v.gain), (8, 0, false));
        // Ten wins by less than the parent's own spread: no gain.
        let close: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        let v = Verdict::of(&parent, &close);
        assert_eq!((v.wins, v.gain), (10, false));
        assert!(v.to_string().contains("no gain"), "{v}");
        // The same rule with the sides swapped is a loss: nine of ten pairs
        // to the parent, medians apart by more than the change's IQR.
        let slower: Vec<f64> = parent.iter().map(|p| p - 30.0).collect();
        let v = Verdict::of(&parent, &slower);
        assert_eq!((v.wins, v.losses, v.gain, v.loss), (0, 10, false, true));
        assert!(v.to_string().contains("LOSS"), "{v}");
        let mut nine = slower.clone();
        nine[0] = 500.0;
        assert!(Verdict::of(&parent, &nine).loss);
        let mut eight = slower.clone();
        (eight[0], eight[1]) = (parent[0], parent[1]);
        assert!(!Verdict::of(&parent, &eight).loss);
        // Ten losses inside the change's own spread, and a gain, are no loss.
        let v = Verdict::of(&close, &parent);
        assert_eq!((v.losses, v.gain, v.loss), (10, false, false));
        assert!(!Verdict::of(&parent, &change).loss);
        // The change's spread is the yardstick of a loss, the parent's of a
        // gain: a change as noisy as the gap it lost by has not lost.
        let noisy = (0..10).map(|i| parent[i] - 1.0 - 40.0 * (i % 2) as f64);
        let v = Verdict::of(&parent, &noisy.collect::<Vec<_>>());
        assert_eq!((v.losses, v.loss), (10, false), "{v}");
        // Fewer than ten pairs are reported, never claimed.
        let v = Verdict::of(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]);
        assert_eq!((v.pairs, v.wins, v.gain), (3, 3, false));
        assert!(!Verdict::of(&[2.0, 2.0, 2.0], &[1.0, 1.0, 1.0]).loss);
        assert!(v.to_string().contains("fewer than ten pairs"), "{v}");
    }

    #[test]
    fn a_row_is_one_json_object_with_the_documented_keys() {
        let host = Value::obj([
            ("nproc", 2usize.into()),
            ("cpu", "x \"quoted\"".into()),
            ("kernel", "k".into()),
            ("rustc", Value::Null),
        ]);
        let run = [490650.5, 19.25, 4.0, 0.049];
        let line = row(
            18,
            "abc1234-dirty",
            "change",
            3,
            "mesh8_low",
            303,
            &host,
            &run,
        );
        assert_eq!(
            line,
            "{\"pr\": 18, \"commit\": \"abc1234-dirty\", \"role\": \"change\", \"pair\": 3, \
             \"workload\": \"mesh8_low\", \"seed\": 303, \"host\": {\"nproc\": 2, \
             \"cpu\": \"x \\\"quoted\\\"\", \"kernel\": \"k\", \"rustc\": null}, \
             \"work_per_s\": 490650.5, \"sim_apl_cycles\": 19.25, \"peak_rss_mb\": 4.0, \
             \"setup_s\": 0.049}"
        );
        let Value::Obj(h) = host_block() else {
            panic!("the host block is an object");
        };
        let keys: Vec<&str> = h.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["nproc", "cpu", "kernel", "rustc"]);
    }
}
