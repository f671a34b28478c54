//! The pairs driver, and `cargo run -p xtask -- bench-pairs` on it —
//! alternating parent/change runs of one `rair-bench` workload, appended to
//! the repo's benchmark trajectory.
//!
//! [`drive`] serves every pairs task: it builds one [`Measurement`] in two
//! checkouts, runs it once per side for every pair — the side that runs
//! first alternating pair by pair — appends one JSON row per run to
//! `BENCH_history.jsonl` at the root of the checkout xtask was built from,
//! and prints the pairs rule as a verdict on every metric of the
//! measurement, each in its own direction: a gain is claimed only on ten
//! pairs or more, when the change wins at least nine tenths of them (ties
//! count for neither) **and** the medians differ by more than the distance
//! between the quartiles of the parent's own runs. The rule cuts both ways:
//! when the *parent* wins nine tenths of the pairs and the medians are apart
//! by more than the change's quartile distance the verdict is `LOSS`. A
//! measurement may name one metric that is checked instead of judged: both
//! sides of a pair must reproduce it exactly. Either failure — a `LOSS` on
//! any metric or a mismatch — exits 1.
//!
//! [`Bench`] is `bench-pairs`' measurement: `rair-bench --workload W --seed
//! 300+i --trace 0` (the same seed on both sides of pair `i`, the run
//! length the harness's default) built into each checkout's own
//! `rair-bench/target`, judged on the end-to-end metrics of
//! `BENCHMARK.json` in its directions (`work_per_s` higher is better,
//! `peak_rss_mb` and `setup_s` lower), with `sim_apl_cycles` checked: both
//! sides of a pair simulate the same traffic, so a pair whose APLs differ is
//! a behaviour change. CI's `bench-gate` job runs it against the base commit
//! on the one runner. [`crate::tier1`] is the other measurement.
//!
//! The history file is append-only. Timings from different hosts are not
//! comparable, which is why every row carries its host block and why the CI
//! job uploads its rows as an artifact instead of committing them.

use metrics::report::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Which way an end-to-end metric improves (`BENCHMARK.json`'s `better`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The end-to-end metrics of `BENCHMARK.json`, in row order, with the way
/// each improves.
pub const METRICS: [(&str, Better); 4] = [
    ("work_per_s", Better::Higher),
    ("sim_apl_cycles", Better::Lower),
    ("peak_rss_mb", Better::Lower),
    ("setup_s", Better::Lower),
];

/// `sim_apl_cycles`' place in [`METRICS`]: checked identical within each
/// pair, not judged.
const APL: usize = 1;

/// Fewest pairs a gain may be claimed on; fewer are reported, not claimed.
pub const MIN_PAIRS: usize = 10;

/// First seed of a set of pairs: pair `i` runs on `SEED_BASE + i`
/// (`rair-bench/BASELINE.json`'s first set used the same base).
pub const SEED_BASE: u64 = 300;

pub const USAGE: &str = "cargo run -p xtask -- bench-pairs --pr N --parent <checkout> \
                         --change <checkout> --workload W [--pairs 10]";

/// The command line every pairs task shares.
#[derive(Debug, PartialEq)]
pub struct Pairs {
    pub pr: u32,
    pub pairs: usize,
    pub parent: PathBuf,
    pub change: PathBuf,
}

impl Pairs {
    /// Parse `--pr N --pairs N --parent DIR --change DIR` and the task's
    /// `own` flags, whose values come back in `own`'s order. Every flag
    /// takes one value; `--pairs` falls back to `default_pairs`, and is
    /// required without one.
    pub fn parse<const N: usize>(
        argv: &[String],
        own: [&str; N],
        default_pairs: Option<usize>,
    ) -> Result<(Self, [Option<String>; N]), String> {
        let (mut pr, mut pairs, mut parent, mut change) = (None, default_pairs, None, None);
        let mut values = std::array::from_fn(|_| None);
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
                other => match own.iter().position(|f| *f == other) {
                    Some(i) => values[i] = Some(value.clone()),
                    None => return Err(format!("unknown flag {other}")),
                },
            }
        }
        let pairs = Self {
            pr: pr.ok_or("--pr is required")?,
            pairs: pairs.ok_or("--pairs is required")?,
            parent: parent.ok_or("--parent is required")?,
            change: change.ok_or("--change is required")?,
        };
        Ok((pairs, values))
    }
}

/// What a pairs task measures: built once per checkout, then run once per
/// side of every pair.
pub trait Measurement {
    /// The `workload` field of its rows and the title of its verdict.
    fn workload(&self) -> &str;
    /// The metrics of one run, in row order, each with the way it improves.
    fn metrics(&self) -> &'static [(&'static str, Better)];
    /// The metric both sides of a pair must reproduce exactly: checked, not
    /// judged.
    fn identical(&self) -> Option<usize> {
        None
    }
    /// The seed pair `pair` runs on, if the runs take one (its rows then
    /// carry a `seed` field).
    fn seed(&self, _pair: usize) -> Option<u64> {
        None
    }
    /// Build `checkout` before the first pair.
    fn build(&self, checkout: &Path) -> Result<(), String>;
    /// One run of `checkout` in pair `pair`: the metrics, in
    /// [`Self::metrics`] order.
    fn run(&self, checkout: &Path, pair: usize) -> Result<Vec<f64>, String>;
}

/// `bench-pairs`' measurement: one `rair-bench` workload.
#[derive(Debug, PartialEq)]
pub struct Bench {
    pub workload: String,
}

impl Bench {
    /// The command line: the shared flags (`--pairs` defaults to 10) and
    /// `--workload W`.
    pub fn parse(argv: &[String]) -> Result<(Pairs, Self), String> {
        let (pairs, [workload]) = Pairs::parse(argv, ["--workload"], Some(10))?;
        let workload = workload.ok_or("--workload is required")?;
        Ok((pairs, Self { workload }))
    }
}

impl Measurement for Bench {
    fn workload(&self) -> &str {
        &self.workload
    }

    fn metrics(&self) -> &'static [(&'static str, Better)] {
        &METRICS
    }

    fn identical(&self) -> Option<usize> {
        Some(APL)
    }

    fn seed(&self, pair: usize) -> Option<u64> {
        Some(SEED_BASE + pair as u64)
    }

    fn build(&self, checkout: &Path) -> Result<(), String> {
        let ok = harness(checkout, "build")
            .status()
            .is_ok_and(|s| s.success());
        ok.then_some(())
            .ok_or_else(|| "building rair-bench failed".into())
    }

    fn run(&self, checkout: &Path, pair: usize) -> Result<Vec<f64>, String> {
        let seed = SEED_BASE + pair as u64;
        let out = harness(checkout, "run")
            .args(["--", "--workload", &self.workload, "--trace", "0", "--seed"])
            .arg(seed.to_string())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        let run = parse_run(&self.workload, &String::from_utf8_lossy(&out.stdout));
        run.map(Vec::from).map_err(|e| {
            format!(
                "{} (seed {seed}): {e}\n{}",
                checkout.display(),
                String::from_utf8_lossy(&out.stderr)
            )
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
    for (slot, (name, _)) in run.iter_mut().zip(METRICS) {
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

/// The gain rule applied to one metric over paired runs, in the metric's
/// direction.
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
    pub fn of(better: Better, parent: &[f64], change: &[f64]) -> Self {
        let quartiles = |v: &[f64]| [0.25, 0.5, 0.75].map(|q| quantile(v, q));
        let (p, c) = (quartiles(parent), quartiles(change));
        // How far `to` is ahead of `from`, in the metric's direction.
        let ahead = |from: f64, to: f64| match better {
            Better::Higher => to - from,
            Better::Lower => from - to,
        };
        let pairs = || parent.iter().zip(change);
        let wins = pairs().filter(|&(&p, &c)| ahead(p, c) > 0.0).count();
        let losses = pairs().filter(|&(&p, &c)| ahead(c, p) > 0.0).count();
        // One side beats the other: nine tenths of at least ten pairs, and
        // the medians apart by more than the beaten side's own spread.
        let beats = |won: usize, by: f64, [q1, _, q3]: [f64; 3]| {
            parent.len() >= MIN_PAIRS && 10 * won >= 9 * parent.len() && by > q3 - q1
        };
        Self {
            pairs: parent.len(),
            wins,
            losses,
            parent: p,
            change: c,
            gain: beats(wins, ahead(p[1], c[1]), p),
            loss: beats(losses, ahead(c[1], p[1]), c),
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

/// Judge paired runs of `metrics` (`parent[i]` and `change[i]` are pair
/// `i`): the metric at `identical` must match within every pair, and every
/// other metric gets the pairs rule in its own direction. Returns the report
/// lines, and what the set fails on — a mismatch or a `LOSS` on any metric.
pub fn judge<R: AsRef<[f64]>>(
    metrics: &[(&str, Better)],
    identical: Option<usize>,
    parent: &[R],
    change: &[R],
) -> (Vec<String>, Result<(), String>) {
    let column = |runs: &[R], m: usize| runs.iter().map(|r| r.as_ref()[m]).collect::<Vec<_>>();
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (m, &(name, better)) in metrics.iter().enumerate() {
        let (p, c) = (column(parent, m), column(change, m));
        if Some(m) == identical {
            let differ: Vec<usize> = (0..p.len()).filter(|&i| p[i] != c[i]).collect();
            lines.push(format!(
                "{name}: median {} -> {} ({} of {} pairs identical)",
                quantile(&p, 0.5),
                quantile(&c, 0.5),
                p.len() - differ.len(),
                p.len()
            ));
            if !differ.is_empty() {
                failures.push(format!("{name} differs within pair(s) {differ:?}"));
            }
            continue;
        }
        let verdict = Verdict::of(better, &p, &c);
        let way = if better == Better::Higher {
            "higher"
        } else {
            "lower"
        };
        lines.push(format!("{name} ({way} is better): {verdict}"));
        if verdict.loss {
            failures.push(format!("{name} lost to the parent"));
        }
    }
    let outcome = if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    };
    (lines, outcome)
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
pub fn commit_of(checkout: &Path) -> String {
    let head = first_line_of(checkout, "git", &["rev-parse", "--short", "HEAD"]);
    let dirty = first_line_of(checkout, "git", &["status", "--porcelain"]).is_some();
    let suffix = if dirty { "-dirty" } else { "" };
    format!("{}{suffix}", head.as_deref().unwrap_or("unknown"))
}

/// One history row, on a single line, rendered by the repo's one JSON
/// writer ([`metrics::report::Value`]): `pr`, `commit`, `role`, `pair`,
/// `workload`, `seed` (when the run has one), `host`, then the metrics.
#[allow(clippy::too_many_arguments)]
pub fn row(
    pr: u32,
    commit: &str,
    role: &str,
    pair: usize,
    workload: &str,
    seed: Option<u64>,
    host: &Value,
    metrics: &[(&str, f64)],
) -> String {
    let mut fields = vec![
        ("pr".to_string(), u64::from(pr).into()),
        ("commit".to_string(), commit.into()),
        ("role".to_string(), role.into()),
        ("pair".to_string(), pair.into()),
        ("workload".to_string(), workload.into()),
    ];
    fields.extend(seed.map(|s| ("seed".to_string(), s.into())));
    fields.push(("host".to_string(), host.clone()));
    fields.extend(
        metrics
            .iter()
            .map(|&(name, x)| (name.to_string(), Value::Float(x, 0))),
    );
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

/// The pairs driver: build `m` on both sides, run `pairs`' pairs, append
/// the rows to `history`, print [`judge`]'s lines and fail where it does.
pub fn drive(pairs: &Pairs, m: &impl Measurement, history: &Path) -> Result<(), String> {
    let workload = m.workload();
    let sides = [("parent", &pairs.parent), ("change", &pairs.change)];
    for (role, checkout) in sides {
        eprintln!("[{workload}] building {role} ({})", checkout.display());
        m.build(checkout).map_err(|e| format!("{role}: {e}"))?;
    }
    let host = host_block();
    let commits = sides.map(|(_, checkout)| commit_of(checkout));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    let names = m.metrics();
    let mut runs: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs.pairs {
        // Alternate which side runs first, so a drifting host favours neither.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let (role, checkout) = sides[side];
            let run = m.run(checkout, pair)?;
            let metrics: Vec<(&str, f64)> =
                names.iter().map(|&(n, _)| n).zip(run.clone()).collect();
            let (commit, seed) = (&commits[side], m.seed(pair));
            let line = row(
                pairs.pr, commit, role, pair, workload, seed, &host, &metrics,
            );
            writeln!(file, "{line}").map_err(|e| format!("{}: {e}", history.display()))?;
            let shown: Vec<String> = metrics.iter().map(|(n, x)| format!("{n} {x}")).collect();
            eprintln!("[{workload}] pair {pair} {role}: {}", shown.join(" "));
            runs[side].push(run);
        }
    }
    let seeds = match (m.seed(0), m.seed(pairs.pairs - 1)) {
        (Some(a), Some(b)) => format!(", seeds {a}..={b}"),
        _ => String::new(),
    };
    println!(
        "{workload} — {} pair(s){seeds}, parent {} -> change {}",
        pairs.pairs, commits[0], commits[1]
    );
    let (lines, outcome) = judge(names, m.identical(), &runs[0], &runs[1]);
    for line in lines {
        println!("{line}");
    }
    outcome.map_err(|e| format!("{workload}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line() {
        let (a, b) = Bench::parse(&argv(
            "--pr 18 --parent /p --change /c --workload mesh8_low",
        ))
        .unwrap();
        assert_eq!((a.pr, a.pairs, b.workload.as_str()), (18, 10, "mesh8_low"));
        assert_eq!((a.parent, a.change), ("/p".into(), "/c".into()));
        let (a, _) =
            Bench::parse(&argv("--pairs 3 --pr 1 --parent p --change c --workload w")).unwrap();
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
            assert!(Bench::parse(&argv(bad)).is_err(), "{bad}");
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
        let v = Verdict::of(Better::Higher, &parent, &change);
        assert_eq!((v.wins, v.losses, v.gain), (10, 0, true));
        assert!(v.to_string().contains("GAIN"), "{v}");
        // Nine wins and a loss still pass; eight wins and two ties do not
        // (ties count for neither side).
        let mut nine = change.clone();
        nine[0] = 50.0;
        assert!(Verdict::of(Better::Higher, &parent, &nine).gain);
        let mut eight = change.clone();
        (eight[0], eight[1]) = (parent[0], parent[1]);
        let v = Verdict::of(Better::Higher, &parent, &eight);
        assert_eq!((v.wins, v.losses, v.gain), (8, 0, false));
        // Ten wins by less than the parent's own spread: no gain.
        let close: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        let v = Verdict::of(Better::Higher, &parent, &close);
        assert_eq!((v.wins, v.gain), (10, false));
        assert!(v.to_string().contains("no gain"), "{v}");
        // The same rule with the sides swapped is a loss: nine of ten pairs
        // to the parent, medians apart by more than the change's IQR.
        let slower: Vec<f64> = parent.iter().map(|p| p - 30.0).collect();
        let v = Verdict::of(Better::Higher, &parent, &slower);
        assert_eq!((v.wins, v.losses, v.gain, v.loss), (0, 10, false, true));
        assert!(v.to_string().contains("LOSS"), "{v}");
        let mut nine = slower.clone();
        nine[0] = 500.0;
        assert!(Verdict::of(Better::Higher, &parent, &nine).loss);
        let mut eight = slower.clone();
        (eight[0], eight[1]) = (parent[0], parent[1]);
        assert!(!Verdict::of(Better::Higher, &parent, &eight).loss);
        // Ten losses inside the change's own spread, and a gain, are no loss.
        let v = Verdict::of(Better::Higher, &close, &parent);
        assert_eq!((v.losses, v.gain, v.loss), (10, false, false));
        assert!(!Verdict::of(Better::Higher, &parent, &change).loss);
        // The change's spread is the yardstick of a loss, the parent's of a
        // gain: a change as noisy as the gap it lost by has not lost.
        let noisy = (0..10).map(|i| parent[i] - 1.0 - 40.0 * (i % 2) as f64);
        let v = Verdict::of(Better::Higher, &parent, &noisy.collect::<Vec<_>>());
        assert_eq!((v.losses, v.loss), (10, false), "{v}");
        // Fewer than ten pairs are reported, never claimed.
        let v = Verdict::of(Better::Higher, &[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]);
        assert_eq!((v.pairs, v.wins, v.gain), (3, 3, false));
        assert!(!Verdict::of(Better::Higher, &[2.0, 2.0, 2.0], &[1.0, 1.0, 1.0]).loss);
        assert!(v.to_string().contains("fewer than ten pairs"), "{v}");
    }

    /// Lower is better for memory and setup time: the same rule, mirrored.
    #[test]
    fn a_lower_is_better_metric_gains_when_it_falls_and_loses_when_it_rises() {
        let parent: Vec<f64> = (0..10).map(|i| 7.3 + 0.01 * f64::from(i)).collect();
        let smaller: Vec<f64> = parent.iter().map(|p| p - 1.6).collect();
        let v = Verdict::of(Better::Lower, &parent, &smaller);
        assert_eq!((v.wins, v.losses, v.gain, v.loss), (10, 0, true, false));
        assert!(v.to_string().contains("GAIN"), "{v}");
        let larger: Vec<f64> = parent.iter().map(|p| p + 1.6).collect();
        let v = Verdict::of(Better::Lower, &parent, &larger);
        assert_eq!((v.wins, v.losses, v.gain, v.loss), (0, 10, false, true));
        assert!(v.to_string().contains("LOSS"), "{v}");
        // The same numbers read as higher-is-better swap the verdicts.
        assert!(Verdict::of(Better::Higher, &parent, &larger).gain);
    }

    /// Ten pairs of `[work_per_s, sim_apl_cycles, peak_rss_mb, setup_s]`.
    fn runs(work: f64, apl: f64, rss: f64, setup: f64) -> Vec<Run> {
        (0..10)
            .map(|i| {
                let d = f64::from(i) * 1e-3;
                [work + d, apl, rss + d, setup + d]
            })
            .collect()
    }

    #[test]
    fn every_metric_is_judged_and_any_loss_or_apl_mismatch_fails() {
        let parent = runs(100.0, 34.2, 7.3, 0.18);
        let (lines, outcome) = judge(&METRICS, Some(APL), &parent, &runs(100.0, 34.2, 5.6, 0.18));
        assert_eq!(outcome, Ok(()));
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].starts_with("work_per_s (higher is better)"),
            "{lines:?}"
        );
        assert!(lines[1].contains("10 of 10 pairs identical"), "{lines:?}");
        assert!(
            lines[2].starts_with("peak_rss_mb (lower is better)"),
            "{lines:?}"
        );
        assert!(lines[2].ends_with("GAIN"), "{lines:?}");
        assert!(
            lines[3].starts_with("setup_s (lower is better)"),
            "{lines:?}"
        );
        // A slower setup fails the set, whatever the throughput does.
        let (_, outcome) = judge(&METRICS, Some(APL), &parent, &runs(200.0, 34.2, 7.3, 0.5));
        assert_eq!(outcome, Err("setup_s lost to the parent".to_string()));
        // One pair whose APLs differ is an error, not noise.
        let mut moved = parent.clone();
        moved[3][APL] += 0.5;
        let (lines, outcome) = judge(&METRICS, Some(APL), &parent, &moved);
        assert!(lines[1].contains("9 of 10 pairs identical"), "{lines:?}");
        assert_eq!(
            outcome,
            Err("sim_apl_cycles differs within pair(s) [3]".to_string())
        );
    }

    /// The metric table is `BENCHMARK.json`'s `end_to_end` list: the same
    /// names in the same order, each with its `better` field (the file is
    /// read, never written).
    #[test]
    fn the_metric_table_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let start = text.find("\"end_to_end\"").expect("an end_to_end list");
        let list = &text[start..];
        let list = &list[..list.find(']').expect("a closed list")];
        let field = |key: &str| -> Vec<String> {
            let quoted = format!("\"{key}\": \"");
            list.match_indices(&quoted)
                .map(|(at, _)| {
                    let v = &list[at + quoted.len()..];
                    v[..v.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let way = |b: Better| {
            if b == Better::Higher {
                "higher"
            } else {
                "lower"
            }
        };
        assert_eq!(field("name"), METRICS.map(|(name, _)| name));
        assert_eq!(field("better"), METRICS.map(|(_, b)| way(b)));
        assert_eq!(METRICS[APL].0, "sim_apl_cycles");
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
        let metrics: Vec<(&str, f64)> = METRICS.iter().map(|&(n, _)| n).zip(run).collect();
        let line = row(
            18,
            "abc1234-dirty",
            "change",
            3,
            "mesh8_low",
            Some(303),
            &host,
            &metrics,
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
