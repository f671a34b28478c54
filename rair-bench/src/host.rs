//! What the harness reads from the host: memory high-water marks, a fixed
//! calibration spin, and the description that goes beside every result.

use crate::json::escape;
use crate::spans::Tracer;
use std::hint::black_box;
use std::process::Command;

/// `VmHWM` of process `pid` (`"self"` for this one) in kB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn own_peak_rss_mb() -> f64 {
    vm_hwm_kb("self").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// A fixed amount of integer work timed between the phases of a traced
/// pass: how its duration spreads says how noisy the host was during this
/// particular run, independently of the program under test.
#[derive(Default)]
pub struct Calibration {
    pub ms: Vec<f64>,
}

impl Calibration {
    pub fn sample(&mut self, tracer: &Tracer, root: usize) {
        let (_, secs) = tracer.time("host.calib", Some(root), |_| {
            let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x)
        });
        self.ms.push(secs * 1e3);
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// The host block of `results.json`. Timings from different hosts are not
/// comparable; this is what says which host a file came from.
pub fn describe() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit =
        first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "not a git checkout".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        escape(&cpu),
        escape(&kernel),
        escape(&rustc),
        escape(&commit)
    )
}
