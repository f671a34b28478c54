//! `rair-bench` — the repo's benchmark: six workloads, end-to-end metrics
//! with tracing off, per-layer metrics from spans with tracing on. See the
//! README beside this package for why each workload and estimator exists.
//!
//! ```text
//! rair-bench --workload NAME --seed N --seconds S --trace 0|1   one run, result line last
//! rair-bench [--seed N] [--seconds S] [--out DIR]                every workload, both passes
//! rair-bench --print-expected                                    regenerate expected.json
//! ```

mod child;
mod estimate;
mod gen;
mod host;
mod json;
mod kernel;
mod layers;
mod names;
mod outcome;
mod spans;

use child::Scratch;
use host::Calibration;
use json::Value;
use names::{Metric, END_TO_END, KERNEL_WORKLOADS, PER_LAYER, WORKLOADS};
use outcome::{Expected, Outcome, DEFAULT_SEED};
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;

const USAGE: &str = "usage: rair-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     rair-bench --print-expected [--out DIR]\n\
                     workloads: mesh8_low mesh8_high mesh16_mid fig14_cold fig14_warm serve_batch";

/// Variables that change what the program under test does; a benchmark
/// run starts from none of them.
const SCRUBBED: [&str; 5] = [
    "RAIR_SHARDS",
    "RAIR_ORACLE",
    "RAIR_VERIFY",
    "RAIR_COLD_SAT",
    "RAIR_CACHE_DIR",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    print_expected: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: None,
        out: None,
        print_expected: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--out" => a.out = Some(PathBuf::from(value("a directory")?)),
            "--print-expected" => a.print_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// An empty private directory for one run of one workload.
fn scratch_dir(out: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = out.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    dir.canonicalize()
        .map_err(|e| format!("resolve {}: {e}", dir.display()))
}

fn scratch(out: &Path, name: &str) -> Result<Scratch, String> {
    Ok(Scratch {
        dir: scratch_dir(out, name)?,
        repro: child::build_repro(&child::target_dir()?)?,
    })
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn measure(workload: &str, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    let expected = Expected::embedded();
    if let Some(spec) = kernel::spec(workload) {
        return Ok(kernel::measure(&spec, seed, seconds, &expected));
    }
    let s = scratch(out, &format!("{workload}.t0"))?;
    match workload {
        "fig14_cold" => child::fig14(true, &s, seed, seconds, &expected),
        "fig14_warm" => child::fig14(false, &s, seed, seconds, &expected),
        _ => child::serve_batch(&s, seed, seconds, &expected),
    }
}

/// `--trace 1`: the per-layer metrics of one workload, and `trace.json`.
fn trace(workload: &str, seed: u64, out: &Path) -> Result<Outcome, String> {
    let dir = scratch_dir(out, &format!("{workload}.t1"))?;
    let mut o = Outcome::default();
    let tracer = Arc::new(Tracer::new());
    let mut calib = Calibration::default();
    let root = tracer.enter(workload, None);
    for _ in 0..3 {
        calib.sample(&tracer, root);
    }
    if let Some(spec) = kernel::spec(workload) {
        kernel::trace(&spec, seed, &tracer, root, &mut calib, &mut o);
    } else {
        match workload {
            "fig14_cold" => layers::fig14_cold(&dir, seed, &tracer, root, &mut calib, &mut o)?,
            "fig14_warm" => layers::fig14_warm(&dir, seed, &tracer, root, &mut calib, &mut o)?,
            _ => layers::serve_batch(&dir, seed, &tracer, root, &mut calib, &mut o)?,
        }
    }
    calib.sample(&tracer, root);
    let root_s = tracer.exit(root);

    let spans = tracer.snapshot();
    o.set("host.calib_ms_min", estimate::quantile(&calib.ms, 0.0));
    o.set("host.calib_ms_p50", estimate::median(&calib.ms));
    o.set("host.calib_ms_max", estimate::quantile(&calib.ms, 1.0));
    o.set("trace.spans", spans.len() as f64);
    o.set("trace.root_s", root_s);
    o.set(
        "trace.accounted_frac",
        1.0 - spans::self_ns(&spans, root) as f64
            / (spans[root].end_ns - spans[root].start_ns) as f64,
    );
    let path = dir.join("trace.json");
    std::fs::write(&path, spans::to_json(workload, seed, &spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    o.info.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    o.set("checks.pinned", o.pinned as f64);
    o.set("checks.run", o.attempted as f64);
    o.set("checks.failed", o.failed as f64);
    Ok(o)
}

/// One run of one workload; the result line is the last line of stdout.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<ExitCode, String> {
    let mut o = if traced {
        trace(workload, seed, out)?
    } else {
        measure(workload, seed, seconds, out)?
    };
    let declared: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let line = o.result_line(declared, traced);
    for i in &o.info {
        println!("# {i}");
    }
    for d in declared {
        println!(
            "{workload} {} {} {}",
            d.name,
            o.metrics.get(d.name).copied().unwrap_or(0.0),
            d.unit
        );
    }
    println!("{workload} ops {} count", o.attempted);
    println!("{workload} failed {} count", o.failed);
    for f in &o.failures {
        eprintln!("rair-bench: FAILED {f}");
    }
    println!("{line}");
    Ok(exit_code(o.failed == 0))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, main pass then traced pass, each in a process of its
/// own (so one workload's memory high-water mark is not another's), and
/// `results.json` with the host block.
fn run_all(seed: u64, seconds: f64, out: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    let mut failed = false;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let run = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(out)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            failed |= !run.status.success();
            let stdout = String::from_utf8_lossy(&run.stdout);
            let (body, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{body}");
            match Value::parse(last) {
                Ok(_) => rows.push(format!(
                    "    {{\"workload\": \"{workload}\", \"trace\": {}, \"result\": {last}}}",
                    u8::from(traced)
                )),
                Err(e) => {
                    eprintln!("rair-bench: {workload} printed no result line ({e})");
                    failed = true;
                }
            }
        }
    }
    let doc = format!(
        "{{\n  \"note\": \"timings from different hosts are not comparable\",\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"host\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        host::describe(),
        rows.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(exit_code(!failed))
}

/// Measure the default seed's simulated outputs and print a new
/// `expected.json`. For a benchmark PR that changes simulated behaviour on
/// purpose; any other PR must leave the pinned values alone.
fn print_expected(out: &Path) -> Result<String, String> {
    let mut values = BTreeMap::new();
    for name in KERNEL_WORKLOADS {
        let spec = kernel::spec(name).expect("kernel workload");
        values.insert(format!("{name}.digest"), kernel::pin(&spec, DEFAULT_SEED));
    }
    let s = scratch(out, "print-expected")?;
    values.insert(
        "fig14.stdout_fnv".into(),
        child::pin_fig14(&s, DEFAULT_SEED)?,
    );
    values.insert(
        "serve.sweep_digest".into(),
        child::pin_serve(&s, DEFAULT_SEED)?,
    );
    Ok(Expected::render(DEFAULT_SEED, &values))
}

fn run(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = parse_args(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    for var in SCRUBBED {
        std::env::remove_var(var);
    }
    // The in-process traced passes drive the two-worker pools; timed
    // children get their own setting (`child::run_repro`).
    std::env::set_var("RAIR_THREADS", "2");
    let out = match args.out {
        Some(dir) => dir,
        None => child::target_dir()?.join("rair-bench-out"),
    };
    if args.print_expected {
        print!("{}", print_expected(&out)?);
        return Ok(ExitCode::SUCCESS);
    }
    match args.workload {
        Some(w) => run_one(
            &w,
            args.seed,
            args.seconds,
            args.trace.unwrap_or(false),
            &out,
        ),
        None => run_all(args.seed, args.seconds, &out),
    }
}

fn main() -> ExitCode {
    run(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("rair-bench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests;
