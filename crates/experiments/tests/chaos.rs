//! Kill-resume integration tests: SIGKILL the `repro serve` binary at
//! seeded random points mid-sweep, rerun to completion, and require the
//! final sweep digest to be bit-identical to an uninterrupted run. The
//! figure-side front door of the same journal (`repro resilience`) gets the
//! same treatment against its report file.
//!
//! This is the end-to-end complement of the in-process chaos batteries in
//! `experiments::service::chaos`: a real child process, real SIGKILL (no
//! destructors, no flushes), real files on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Deterministic xorshift64 for kill delays, seeded per test.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rair-killres-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small real sweep: a scheme/routing/region mix, one gated job, one
/// relabeled duplicate — same shape as the in-process battery jobs.
const JOBS: &str = "j0 ro_rr local single uniform 0.05 1\n\
                    j1 rair dbar halves uniform 0.05 2\n\
                    j2 ro_age xy single transpose 0.05 3\n\
                    inv rair_foreign_high local halves uniform 0.05 4\n\
                    j0-dup ro_rr local single uniform 0.05 1\n";

fn serve_cmd(jobs: &Path, dir: &Path) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_repro"));
    c.args([
        "--quick",
        "--windows",
        "200,600",
        "serve",
        jobs.to_str().unwrap(),
        "--dir",
        dir.to_str().unwrap(),
    ]);
    c
}

/// Run `repro serve` to completion and parse the sweep digest off stdout.
fn run_to_completion(jobs: &Path, dir: &Path) -> u64 {
    let out = serve_cmd(jobs, dir).output().unwrap();
    assert!(
        out.status.success(),
        "repro serve failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.contains("sweep digest"))
        .unwrap_or_else(|| panic!("no sweep digest line in:\n{stdout}"));
    let hex = line
        .split_whitespace()
        .nth(2)
        .expect("digest token after 'sweep digest'");
    u64::from_str_radix(hex, 16).expect("digest parses as hex")
}

/// SIGKILL the serve child after `delay_ms`, then rerun to completion in
/// the same directory and return the recovered digest.
fn kill_then_resume(jobs: &Path, dir: &Path, delay_ms: u64) -> u64 {
    let mut child = serve_cmd(jobs, dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(delay_ms));
    // `Child::kill` is SIGKILL on Unix: no atexit, no Drop, no flush.
    let _ = child.kill();
    let _ = child.wait();
    run_to_completion(jobs, dir)
}

#[test]
fn sigkill_mid_sweep_resumes_bit_identically() {
    let ref_dir = fresh_dir("ref");
    let jobs = ref_dir.join("jobs.txt");
    std::fs::write(&jobs, JOBS).unwrap();
    let reference = run_to_completion(&jobs, &ref_dir);

    let mut rng = XorShift::new(0xD15EA5E);
    let kill_dir = fresh_dir("kill");
    let digest = kill_then_resume(&jobs, &kill_dir, 20 + rng.next() % 150);
    assert_eq!(
        digest, reference,
        "digest diverged after SIGKILL + resume (expected {reference:016x}, got {digest:016x})"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

/// The slow battery: several seeded kill points, including repeated kills
/// against the SAME directory (crash during recovery of a crash).
#[test]
#[ignore = "multi-kill battery; run with --ignored or via the CI chaos job"]
fn sigkill_battery_across_kill_points() {
    let ref_dir = fresh_dir("bref");
    let jobs = ref_dir.join("jobs.txt");
    std::fs::write(&jobs, JOBS).unwrap();
    let reference = run_to_completion(&jobs, &ref_dir);

    let mut rng = XorShift::new(0xBEEFCAFE);
    for round in 0..4u32 {
        let dir = fresh_dir(&format!("bk{round}"));
        // Two kills against the same directory before letting it finish:
        // the second interrupts recovery itself.
        for _ in 0..2 {
            let mut child = serve_cmd(&jobs, &dir)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap();
            std::thread::sleep(Duration::from_millis(10 + rng.next() % 200));
            let _ = child.kill();
            let _ = child.wait();
        }
        let digest = run_to_completion(&jobs, &dir);
        assert_eq!(
            digest, reference,
            "round {round}: digest diverged after double SIGKILL + resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// `repro --smoke --windows 200,600 resilience` in `dir` (it journals to
/// `results/RESILIENCE.checkpoint` and writes `RESILIENCE_report.json`
/// relative to the working directory). One worker, so the two smoke jobs
/// finish one after the other and a kill can land between their `done`
/// rows.
fn resilience_cmd(dir: &Path) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_repro"));
    c.args(["--smoke", "--windows", "200,600", "resilience"])
        .current_dir(dir)
        .env("RAIR_THREADS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    c
}

fn resilience_report(dir: &Path) -> Vec<u8> {
    let status = resilience_cmd(dir).status().unwrap();
    assert!(status.success(), "repro resilience failed in {dir:?}");
    std::fs::read(dir.join("RESILIENCE_report.json")).unwrap()
}

/// The figure-side front door: SIGKILL the journaled resilience sweep at
/// seeded delays (the whole smoke sweep takes about 30 ms), rerun to
/// completion, and require a byte-identical report.
#[test]
#[ignore = "kill-resume battery; run with --ignored or via the CI chaos job"]
fn sigkill_mid_resilience_sweep_resumes_byte_identically() {
    let ref_dir = fresh_dir("rref");
    let reference = resilience_report(&ref_dir);

    let mut rng = XorShift::new(0x5EED_F00D);
    for round in 0..6u32 {
        let dir = fresh_dir(&format!("rk{round}"));
        let mut child = resilience_cmd(&dir).spawn().unwrap();
        std::thread::sleep(Duration::from_millis(2 + rng.next() % 30));
        let _ = child.kill();
        let _ = child.wait();
        assert_eq!(
            resilience_report(&dir),
            reference,
            "round {round}: report diverged after SIGKILL + resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}
