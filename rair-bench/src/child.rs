//! The three workloads that run `repro` as a child process, the way a user
//! does: `fig14_cold`, `fig14_warm` and `serve_batch`.

use crate::estimate::{fastest_decile, median, quantile};
use crate::gen::{self, derive, Stream};
use crate::host::vm_hwm_kb;
use crate::outcome::{Expected, Outcome};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A child workload runs until `--seconds` have passed and at least this
/// many invocations are in.
pub const MIN_REPS: usize = 3;

/// Every child's stderr (progress lines, warnings) is appended here, in the
/// run's scratch directory.
const STDERR_LOG: &str = "repro.stderr.log";

/// Worker threads of a timed child. One, not the host's two: with two, a
/// neighbour taking one core for minutes at a time made whole runs read
/// 1.4× slow (bimodal, 4 runs of 10), while one busy thread is moved to
/// the free core and repeats. The pool with two workers is measured by the
/// traced passes (`runner.pool_efficiency`, `serve.overhead_frac`).
const CHILD_THREADS: &str = "1";

/// Where one run of one workload keeps its inputs, caches and outputs.
pub struct Scratch {
    pub dir: PathBuf,
    pub repro: PathBuf,
}

/// The cargo target directory this binary was built into.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.ancestors()
        .find(|d| d.join("CACHEDIR.TAG").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// Build the program under test with the repo's own manifest and profile,
/// into the same target directory as the harness.
pub fn build_repro(target: &Path) -> Result<PathBuf, String> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "experiments",
            "--bin",
            "repro",
        ])
        .arg("--manifest-path")
        .arg(manifest)
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    let bin = target.join("release").join("repro");
    if status.success() && bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "building `repro` from {manifest} failed ({status})"
        ))
    }
}

pub struct ChildRun {
    pub wall_s: f64,
    pub stdout: String,
    pub ok: bool,
    pub peak_rss_kb: u64,
}

/// Run `repro args…` to completion. Wall time runs from spawn to exit;
/// `VmHWM` is polled from `/proc/<pid>/status` every 20 ms while it runs.
pub fn run_repro(s: &Scratch, args: &[&str], cache: &Path) -> Result<ChildRun, String> {
    let stderr = File::options()
        .create(true)
        .append(true)
        .open(s.dir.join(STDERR_LOG))
        .map_err(|e| format!("open {STDERR_LOG}: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(&s.repro)
        .args(args)
        .current_dir(&s.dir)
        .env("RAIR_CACHE_DIR", cache)
        .env("RAIR_THREADS", CHILD_THREADS)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", s.repro.display()))?;
    let pid = child.id().to_string();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_kb(&pid).unwrap_or(0));
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let mut stdout = String::new();
        let read = pipe.read_to_string(&mut stdout);
        let status = child.wait();
        let wall_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak_rss_kb = poller.join().expect("the RSS poller does not panic");
        read.map_err(|e| format!("read child stdout: {e}"))?;
        let status = status.map_err(|e| format!("wait for child: {e}"))?;
        Ok(ChildRun {
            wall_s,
            stdout,
            ok: status.success(),
            peak_rss_kb,
        })
    })
}

/// Part of set-up: check that the binary starts at all before timing it.
fn startup_probe(s: &Scratch) -> bool {
    Command::new(&s.repro)
        .arg("--help")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|st| st.success())
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

fn fnv(text: &str) -> u64 {
    let mut d = metrics::Digest::new();
    d.write_bytes(text.as_bytes());
    d.finish()
}

/// Mean of the six per-application APLs in the `RA_RAIR` row of the table
/// `repro fig14` prints.
pub fn fig14_rair_apl(stdout: &str) -> Option<f64> {
    let row = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some("RA_RAIR"))?;
    let apl: Vec<f64> = row
        .split_whitespace()
        .skip(1)
        .take(6)
        .filter_map(|t| t.parse().ok())
        .collect();
    (apl.len() == 6).then(|| apl.iter().sum::<f64>() / 6.0)
}

/// Warm-up and measurement cycles of the four `fig14` simulations: shorter
/// than `--quick`'s 2 000 + 15 000 so that four invocations fit a run and
/// the saturation searches (which `--quick` sizes, not `--windows`) are
/// most of a cold one.
pub const FIG14_WINDOWS: (u64, u64) = (1_000, 6_000);

fn fig14_args(bench_seed: u64) -> [String; 6] {
    [
        "--quick".into(),
        "--windows".into(),
        format!("{},{}", FIG14_WINDOWS.0, FIG14_WINDOWS.1),
        "--seed".into(),
        derive(bench_seed, Stream::Repro).to_string(),
        "fig14".into(),
    ]
}

fn cache_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.flatten().count())
}

/// Timed reps shared by the three workloads: `unit(rep)` sets one rep up
/// (returning the seconds that took) and runs it.
fn reps(
    seconds: f64,
    o: &mut Outcome,
    mut unit: impl FnMut(usize, &mut Outcome) -> Result<(f64, ChildRun), String>,
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let (mut walls, mut setups, mut peak_kb) = (Vec::new(), Vec::new(), 0);
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let rep = walls.len();
        let (setup_s, run) = unit(rep, o)?;
        o.check(run.ok, || {
            format!("rep {rep}: repro exited with a failure status")
        });
        setups.push(setup_s);
        walls.push(run.wall_s);
        peak_kb = peak_kb.max(run.peak_rss_kb);
    }
    Ok((walls, setups, peak_kb))
}

fn report(o: &mut Outcome, what: &str, per_rep: f64, walls: &[f64], setup_s: f64, peak_kb: u64) {
    o.set("work_per_s", per_rep / fastest_decile(walls));
    o.set("setup_s", setup_s);
    o.set("peak_rss_mb", peak_kb as f64 / 1024.0);
    o.info.push(format!(
        "{what} rep_s fastest {:.4} p50 {:.4} max {:.4} (n = {})",
        fastest_decile(walls),
        median(walls),
        quantile(walls, 1.0),
        walls.len()
    ));
}

/// `fig14_cold` (every rep starts on an empty saturation cache) and
/// `fig14_warm` (every rep starts on a copy of a cache one untimed cold
/// invocation filled).
pub fn fig14(
    cold: bool,
    s: &Scratch,
    bench_seed: u64,
    seconds: f64,
    expected: &Expected,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let args = fig14_args(bench_seed);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut prefill_s = 0.0;
    let mut reference: Option<String> = None;
    let filled = s.dir.join("cache-filled");
    if !cold {
        let t = Instant::now();
        fresh_dir(&filled)?;
        let run = run_repro(s, &args, &filled)?;
        prefill_s = t.elapsed().as_secs_f64();
        o.check(run.ok, || {
            "prefill: repro exited with a failure status".into()
        });
        o.check(cache_entries(&filled) == 6, || {
            format!(
                "prefill left {} cache entries, not 6",
                cache_entries(&filled)
            )
        });
        reference = Some(run.stdout);
    }
    let (walls, setups, peak_kb) = reps(seconds, &mut o, |rep, o| {
        let t = Instant::now();
        let cache = s.dir.join(format!("cache-{rep}"));
        fresh_dir(&cache)?;
        if !cold {
            for e in std::fs::read_dir(&filled)
                .map_err(|e| e.to_string())?
                .flatten()
            {
                std::fs::copy(e.path(), cache.join(e.file_name())).map_err(|e| e.to_string())?;
            }
        }
        let started = startup_probe(s);
        let setup_s = t.elapsed().as_secs_f64();
        o.check(started, || "repro --help failed".into());
        let run = run_repro(s, &args, &cache)?;
        // Cold: six searches ran and were written. Warm: none was.
        o.check(cache_entries(&cache) == 6, || {
            format!("rep {rep}: {} cache entries, not 6", cache_entries(&cache))
        });
        let same = reference.get_or_insert_with(|| run.stdout.clone()) == &run.stdout;
        o.check(same, || {
            format!("rep {rep}: stdout differs from the first invocation's")
        });
        Ok((setup_s, run))
    })?;
    o.ops(walls.len());
    let stdout = reference.unwrap_or_default();
    o.check_pinned(expected, bench_seed, "fig14.stdout_fnv", fnv(&stdout));
    o.set(
        "sim_apl_cycles",
        fig14_rair_apl(&stdout).unwrap_or(f64::NAN),
    );
    let what = if cold { "fig14_cold" } else { "fig14_warm" };
    report(
        &mut o,
        what,
        1.0,
        &walls,
        prefill_s + median(&setups),
        peak_kb,
    );
    Ok(o)
}

/// The value `expected.json` pins for both `fig14_*` workloads.
pub fn pin_fig14(s: &Scratch, bench_seed: u64) -> Result<u64, String> {
    let args = fig14_args(bench_seed);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let cache = s.dir.join("cache-pin");
    fresh_dir(&cache)?;
    let run = run_repro(s, &args, &cache)?;
    if run.ok {
        Ok(fnv(&run.stdout))
    } else {
        Err("repro fig14 failed".into())
    }
}

/// What `repro serve` printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    pub digest: u64,
    pub resumed: usize,
    pub cache_hits: usize,
    pub executed: usize,
    pub quarantined: usize,
    pub rejected: usize,
    pub lines: usize,
    /// Mean of the `APL x` cells of the done rows.
    pub apl: f64,
}

pub fn parse_serve(stdout: &str) -> Option<ServeSummary> {
    let (mut lines, mut rejected, mut apl_sum, mut apl_n) = (0, 0, 0.0, 0);
    for l in stdout.lines() {
        let t: Vec<&str> = l.split_whitespace().collect();
        if t.len() >= 4 && t[2].parse::<u32>().is_ok() {
            match t[1] {
                "done" | "screened" | "quarantined" => lines += 1,
                "rejected" => {
                    lines += 1;
                    rejected += 1;
                }
                _ => continue,
            }
            if let Some(i) = t.iter().position(|x| *x == "APL") {
                apl_sum += t.get(i + 1)?.parse::<f64>().ok()?;
                apl_n += 1;
            }
        }
    }
    let tail = stdout.lines().find(|l| l.starts_with("sweep digest "))?;
    let t: Vec<&str> = tail
        .split(|c: char| c.is_whitespace() || c == '(' || c == ',')
        .filter(|x| !x.is_empty())
        .collect();
    // sweep digest <hex> <n> resumed <n> cache hits <n> executed <n> quarantined)
    let count = |label: &str| -> Option<usize> {
        let i = t.iter().position(|x| x.trim_end_matches(')') == label)?;
        let back = if label == "hits" { 2 } else { 1 };
        t.get(i.checked_sub(back)?)?.parse().ok()
    };
    Some(ServeSummary {
        digest: u64::from_str_radix(t.get(2)?, 16).ok()?,
        resumed: count("resumed")?,
        cache_hits: count("hits")?,
        executed: count("executed")?,
        quarantined: count("quarantined")?,
        rejected,
        lines,
        apl: apl_sum / f64::from(apl_n.max(1)),
    })
}

/// Windows of every `serve_batch` job: short, so per-job fixed cost
/// (admission, construction, journal rows, result write) is a large share.
pub const SERVE_WINDOWS: (u64, u64) = (500, 3000);

/// The counts every `serve_batch` invocation must report.
pub fn check_serve_counts(
    o: &mut Outcome,
    what: &str,
    executed: usize,
    cache_hits: usize,
    rejected: usize,
    quarantined: usize,
) {
    let got = (executed, cache_hits, rejected, quarantined);
    let want = (
        gen::JOBS_DISTINCT,
        gen::JOBS_DUPLICATES,
        gen::JOBS_REJECTED,
        0,
    );
    o.check(got == want, || {
        format!("{what}: (executed, cache hits, rejected, quarantined) = {got:?}, want {want:?}")
    });
}

fn serve_rep(s: &Scratch, bench_seed: u64, rep: usize) -> Result<(f64, bool, ChildRun), String> {
    let t = Instant::now();
    let jobs = s.dir.join(format!("batch-{rep}.jobs"));
    std::fs::write(&jobs, gen::jobs_file(bench_seed))
        .map_err(|e| format!("write jobs file: {e}"))?;
    let dir = s.dir.join(format!("serve-{rep}"));
    let cache = s.dir.join(format!("cache-{rep}"));
    fresh_dir(&dir)?;
    fresh_dir(&cache)?;
    let started = startup_probe(s);
    let setup_s = t.elapsed().as_secs_f64();
    let windows = format!("{},{}", SERVE_WINDOWS.0, SERVE_WINDOWS.1);
    let args = [
        "--windows",
        &windows,
        "serve",
        &jobs.to_string_lossy(),
        "--dir",
        &dir.to_string_lossy(),
    ];
    Ok((setup_s, started, run_repro(s, &args, &cache)?))
}

/// `serve_batch`: the generated jobs file through `repro serve`, each rep
/// into a fresh state directory (closed loop, one worker).
pub fn serve_batch(
    s: &Scratch,
    bench_seed: u64,
    seconds: f64,
    expected: &Expected,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut first: Option<ServeSummary> = None;
    let (walls, setups, peak_kb) = reps(seconds, &mut o, |rep, o| {
        let (setup_s, started, run) = serve_rep(s, bench_seed, rep)?;
        o.check(started, || "repro --help failed".into());
        match parse_serve(&run.stdout) {
            None => o.check(false, || {
                format!("rep {rep}: cannot parse the serve report")
            }),
            Some(sum) => {
                o.check(sum.lines == gen::JOBS_LINES && sum.resumed == 0, || {
                    format!(
                        "rep {rep}: {} lines resolved, {} resumed",
                        sum.lines, sum.resumed
                    )
                });
                check_serve_counts(
                    o,
                    &format!("rep {rep}"),
                    sum.executed,
                    sum.cache_hits,
                    sum.rejected,
                    sum.quarantined,
                );
                let f = first.get_or_insert(sum);
                o.check(f.digest == sum.digest, || {
                    format!(
                        "rep {rep}: sweep digest {:016x} != first rep's {:016x}",
                        sum.digest, f.digest
                    )
                });
            }
        }
        Ok((setup_s, run))
    })?;
    o.ops(walls.len() * gen::JOBS_LINES);
    if let Some(f) = &first {
        o.check_pinned(expected, bench_seed, "serve.sweep_digest", f.digest);
        o.set("sim_apl_cycles", f.apl);
    }
    report(
        &mut o,
        "serve_batch",
        gen::JOBS_LINES as f64,
        &walls,
        median(&setups),
        peak_kb,
    );
    Ok(o)
}

/// The value `expected.json` pins for `serve_batch`.
pub fn pin_serve(s: &Scratch, bench_seed: u64) -> Result<u64, String> {
    let (_, _, run) = serve_rep(s, bench_seed, 0)?;
    parse_serve(&run.stdout)
        .filter(|_| run.ok)
        .map(|sum| sum.digest)
        .ok_or_else(|| "repro serve failed".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_repro_prints() {
        let fig14 = "== Fig.14 ==\n scheme   App0   App1   App2   App3   App4   App5  avg red.\n\
                     ---\n  RO_RR  20.19  35.01  18.63  20.36  20.62  35.41         —\n\
                     RA_RAIR  18.00  39.00  17.00  16.00  19.00  38.00     +3.7%\n";
        assert_eq!(fig14_rair_apl(fig14), Some(24.5));
        assert_eq!(fig14_rair_apl("nothing here"), None);

        let serve = "== Experiment service — job outcomes ==\n\
           job    status  attempts    source  detail\n\
           ------\n\
           baseline-rr      done         1  executed   APL 22.50\n\
           inverted  rejected         0  executed  admission gate rejected RAIR_ForeignH: native request starves (prio 1<2)\n\
           baseline-again      done         1  restored   APL 23.50\n\n\
           sweep digest ed0ce4a9ad4fac1a  (0 resumed, 1 cache hits, 4 executed, 0 quarantined)\n";
        assert_eq!(
            parse_serve(serve),
            Some(ServeSummary {
                digest: 0xed0c_e4a9_ad4f_ac1a,
                resumed: 0,
                cache_hits: 1,
                executed: 4,
                quarantined: 0,
                rejected: 1,
                lines: 3,
                apl: 23.0,
            })
        );
        assert_eq!(parse_serve("garbage"), None);
    }
}
