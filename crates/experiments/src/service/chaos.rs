//! `repro chaos` — the fault-injection battery that proves every recovery
//! path of the durability layer.
//!
//! One reference sweep (tiny windows, real simulations) establishes the
//! golden sweep digest; every battery then injects one fault class and
//! asserts the service recovers to a **bit-identical** digest:
//!
//! | battery                  | fault                                     |
//! |--------------------------|-------------------------------------------|
//! | `journal-torn-tail`      | journal truncated mid-row (torn append)   |
//! | `journal-interior`       | byte flipped in an interior journal row   |
//! | `checkpoint-corrupt`     | digit altered inside a journaled sweep row |
//! | `cache-corrupt`          | corrupted saturation disk-cache entry     |
//! | `append-faults`          | seeded EIO/ENOSPC/torn/crash via chaos store |
//! | `sigkill-resume`         | child `repro serve` SIGKILLed mid-sweep   |
//!
//! The `--inject-wrong-result` negative tampers a journal `done` row with a
//! *recomputed* CRC — a valid-looking but wrong result. The digest
//! comparison must detect the divergence; the invocation always exits
//! nonzero (the store is corrupt by construction), and prints whether the
//! tamper was caught. A chaos harness whose negative control passes
//! silently is not testing anything.

use super::journal::{Journal, WAL_TAG};
use super::serve::{serve, JobExec, JobSpec, ServeConfig};
use super::store::{frame, unframe, ChaosConfig, ChaosStore, StdStore};
use crate::runner::{self, ExpConfig, Job, RunResult};
use metrics::report::{Table, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Outcome of one battery.
#[derive(Debug, Clone)]
pub struct Battery {
    pub name: &'static str,
    /// Faults actually injected (a battery that injected nothing proves
    /// nothing and is reported as not recovered).
    pub faults: u64,
    pub recovered: bool,
    pub detail: String,
}

/// The full battery report.
#[derive(Debug)]
pub struct ChaosReport {
    pub reference_digest: u64,
    pub batteries: Vec<Battery>,
}

impl ChaosReport {
    pub fn all_green(&self) -> bool {
        self.batteries.iter().all(|b| b.recovered)
    }

    /// The batteries as the one report: the text table and the
    /// `batteries` rows of `CHAOS_report.json`.
    pub fn table(&self) -> Table {
        Table::of(
            "Chaos battery — fault injection and recovery",
            &self.batteries,
            &[
                ("battery", "battery", |b| b.name.into()),
                ("faults", "faults", |b| b.faults.into()),
                ("recovered", "", |b| {
                    if b.recovered { "yes" } else { "NO" }.into()
                }),
                ("", "recovered", |b| b.recovered.into()),
                ("detail", "detail", |b| b.detail.clone().into()),
            ],
        )
    }

    /// The `CHAOS_report.json` document.
    pub fn json(&self) -> Value {
        Value::obj([
            (
                "reference_digest",
                format!("{:016x}", self.reference_digest).into(),
            ),
            ("all_green", self.all_green().into()),
            ("batteries", self.table().json_rows()),
        ])
    }
}

/// The chaos sweep's windows: tiny but real simulations, so resume
/// verification exercises the actual kernel, not a stub.
pub fn chaos_ec() -> ExpConfig {
    ExpConfig {
        warmup: 200,
        measure: 600,
        seed: 0xC0FFEE,
        quick: true,
        cycle_budget: None,
    }
}

/// The chaos jobs: a small scheme/routing/region mix at light load (fast),
/// including one statically rejected scheme (the gate path) and one
/// relabeled duplicate (the dedup path).
pub fn chaos_jobs_text() -> &'static str {
    "# chaos battery jobs\n\
     j0 ro_rr local single uniform 0.05 1\n\
     j1 rair dbar halves uniform 0.05 2\n\
     j2 ro_age xy single transpose 0.05 3\n\
     j3 rair_va local quadrants uniform 0.05 4\n\
     inv rair_foreign_high local halves uniform 0.05 5\n\
     j0-dup ro_rr local single uniform 0.05 1\n"
}

fn chaos_jobs() -> Vec<JobSpec> {
    JobSpec::parse_jobs(chaos_jobs_text()).expect("builtin chaos jobs parse")
}

fn scfg(dir: &Path) -> ServeConfig {
    ServeConfig {
        backoff_base_ms: 1,
        ..ServeConfig::new(dir, chaos_ec())
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rair-chaos-{}-{tag}", std::process::id()));
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos dir");
    dir
}

/// Tiny deterministic PRNG for kill delays and cut points (`Date`-free,
/// seed-driven like everything else in the tree).
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

/// Run the reference sweep: untouched storage, real simulations.
fn reference(exec: &JobExec) -> (u64, Vec<u8>) {
    let dir = fresh_dir("reference");
    let jobs = chaos_jobs();
    let cfg = scfg(&dir);
    let store = StdStore;
    let report = serve(&store, &jobs, &cfg, exec);
    let journal = std::fs::read(dir.join("journal.wal")).expect("reference journal");
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    (report.sweep_digest, journal)
}

/// Serve against a pre-seeded journal and report the digest.
fn resume_with_journal(
    tag: &str,
    journal_bytes: &[u8],
    exec: &JobExec,
) -> (u64, super::serve::ServeReport) {
    let dir = fresh_dir(tag);
    std::fs::write(dir.join("journal.wal"), journal_bytes).expect("seed journal");
    let report = serve(&StdStore, &chaos_jobs(), &scfg(&dir), exec);
    let digest = report.sweep_digest;
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    (digest, report)
}

/// Battery: truncate the journal at several points (including mid-row) and
/// verify each resume reproduces the reference digest.
fn battery_torn_tail(
    refd: u64,
    journal: &[u8],
    exec: &JobExec,
    rng: &mut XorShift,
    smoke: bool,
) -> Battery {
    let cuts: Vec<usize> = {
        let n = journal.len();
        let mut c = vec![
            n - 1,                              // torn mid final line
            n - (rng.next() as usize % 30 + 2), // torn deeper into the tail
            n / 2,                              // half the history gone
        ];
        if smoke {
            c.truncate(2);
        }
        c
    };
    let mut failures = Vec::new();
    for &cut in &cuts {
        let (d, _) = resume_with_journal("torn", &journal[..cut], exec);
        if d != refd {
            failures.push(format!("cut@{cut}: {d:016x} != {refd:016x}"));
        }
    }
    Battery {
        name: "journal-torn-tail",
        faults: cuts.len() as u64,
        recovered: failures.is_empty(),
        detail: if failures.is_empty() {
            format!(
                "{} truncation points, all digests bit-identical",
                cuts.len()
            )
        } else {
            failures.join("; ")
        },
    }
}

/// Battery: flip a byte inside an interior `done` row; the row must be
/// quarantined, the job re-run, and the digest unchanged.
fn battery_interior(refd: u64, journal: &[u8], exec: &JobExec) -> Battery {
    let text = String::from_utf8_lossy(journal);
    let lines: Vec<&str> = text.lines().collect();
    let Some(target) = lines
        .iter()
        .position(|l| l.contains("\tdone\t") || l.contains("done\t"))
        .filter(|&i| i + 1 < lines.len())
    else {
        return Battery {
            name: "journal-interior",
            faults: 0,
            recovered: false,
            detail: "no interior done row found in reference journal".into(),
        };
    };
    let mutated: Vec<String> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if i != target {
                return (*l).to_string();
            }
            let mut bytes = l.as_bytes().to_vec();
            let mid = bytes.len() * 3 / 4;
            bytes[mid] ^= 0x01;
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect();
    let seeded = mutated.join("\n") + "\n";
    let (d, report) = resume_with_journal("interior", seeded.as_bytes(), exec);
    let quarantined = report.journal_quarantined_rows >= 1;
    Battery {
        name: "journal-interior",
        faults: 1,
        recovered: d == refd && quarantined,
        detail: format!(
            "corrupt row at line {} quarantined={} digest {}",
            target + 1,
            report.journal_quarantined_rows,
            if d == refd {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        ),
    }
}

/// Alter one digit of tab-separated field `field` in the journaled `done`
/// row of the job labeled `label` (frame fields count: 6 = `delivered`,
/// 7 = the `throughput` bit pattern), leaving the row's CRC untouched.
pub(crate) fn flip_done_field(journal: &str, label: &str, field: usize) -> String {
    let label = runner::esc_label(label);
    let flipped: Vec<String> = journal
        .lines()
        .map(|line| {
            let mut f: Vec<String> = line.split('\t').map(str::to_string).collect();
            if f.get(2).is_some_and(|k| k == "done") && f.get(5) == Some(&label) {
                let last = f[field].pop();
                f[field].push(if last == Some('1') { '2' } else { '1' });
            }
            f.join("\t")
        })
        .collect();
    flipped.join("\n") + "\n"
}

/// Battery: alter a digit *inside the payload* of two journaled
/// `run_parallel_checkpointed` rows (`delivered` of one, a hex digit of
/// `throughput` of the other) between a failed first pass and the resumed
/// second pass. Neither row may be replayed: both jobs re-run and the
/// results match a clean sweep.
fn battery_checkpoint(dirtag: &str) -> Battery {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    let dir = fresh_dir(dirtag);
    let path = dir.join("sweep.ckpt");
    let journal = Journal::new(&path, &StdStore);
    let digest_of = |rs: &[Result<RunResult, runner::JobError>]| -> u64 {
        let mut d = metrics::Digest::new();
        for r in rs.iter().flatten() {
            r.digest_into(&mut d);
        }
        d.finish()
    };
    let runs = Arc::new(AtomicUsize::new(0));
    let mk = |label: &'static str, fail: Option<Arc<AtomicBool>>| -> Job {
        let runs = Arc::clone(&runs);
        Job::new(label, move || {
            runs.fetch_add(1, Ordering::SeqCst);
            if let Some(f) = &fail {
                assert!(!f.load(Ordering::SeqCst), "injected first-pass failure");
            }
            RunResult::fabricated(label, label.len() as u64)
        })
    };
    // Clean reference (no checkpoint involved).
    let clean = digest_of(&runner::run_parallel_results(vec![
        mk("a", None),
        mk("b", None),
        mk("c", None),
    ]));
    // Pass 1: "c" fails twice, the journal keeps a's and b's `done` rows.
    let failing = Arc::new(AtomicBool::new(true));
    let r1 = runner::run_parallel_checkpointed(
        vec![
            mk("a", None),
            mk("b", None),
            mk("c", Some(Arc::clone(&failing))),
        ],
        &journal,
    );
    let pass1_ok = r1[2].is_err() && path.exists();
    let text = std::fs::read_to_string(&path).expect("checkpoint exists");
    let text = flip_done_field(&flip_done_field(&text, "a", 7), "b", 6);
    std::fs::write(&path, text).expect("rewrite checkpoint");
    // Pass 2: failure fixed; a, b (rows rejected by the CRC) and c all run.
    failing.store(false, Ordering::SeqCst);
    let before = runs.load(Ordering::SeqCst);
    let r2 = runner::run_parallel_checkpointed(
        vec![mk("a", None), mk("b", None), mk("c", Some(failing))],
        &journal,
    );
    let reran = runs.load(Ordering::SeqCst) - before;
    let resumed = digest_of(&r2);
    let ok = pass1_ok
        && r2.iter().all(Result::is_ok)
        && reran == 3
        && resumed == clean
        && !path.exists();
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    Battery {
        name: "checkpoint-corrupt",
        faults: 2,
        recovered: ok,
        detail: if ok {
            "altered delivered/throughput digits rejected by the row CRC, both jobs re-ran, \
             results matched the clean sweep, file cleaned up"
                .into()
        } else {
            format!(
                "pass1_ok={pass1_ok} reran={reran}/3 resumed={resumed:016x} clean={clean:016x} \
                 removed={}",
                !path.exists()
            )
        },
    }
}

/// Battery: corrupt a live saturation disk-cache entry; the re-search must
/// produce the bit-identical value, the entry must be set aside as
/// `*.corrupt`, and the corruption counter must tick.
fn battery_cache_corrupt() -> Battery {
    use noc_sim::config::SimConfig;
    use noc_sim::region::RegionMap;
    use traffic::scenario::AppSpec;
    let dir = fresh_dir("satcache");
    // The env var is process-global; `repro chaos` runs batteries
    // sequentially on the main thread, so this scoped override is safe.
    std::env::set_var("RAIR_CACHE_DIR", &dir);
    crate::sweep::clear_saturation_cache();
    let cfg = SimConfig::table1();
    let region = RegionMap::halves(&cfg);
    let ec = chaos_ec();
    let spec = AppSpec::intra_only(0.0);
    let before = crate::sweep::saturation_cache_corrupt_count();
    let out = (|| -> Result<(bool, String), String> {
        let (v1, _) =
            crate::sweep::try_cached_saturation_traced("chaos/sat", &ec, &cfg, &region, 0, &spec)
                .map_err(|e| e.to_string())?;
        let entry = std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "txt"))
            .ok_or("no cache entry written")?;
        // Flip a bit in the stored value (the last hex digit of line 1).
        let mut bytes = std::fs::read(&entry).map_err(|e| e.to_string())?;
        let eol = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("empty entry")?;
        bytes[eol - 1] ^= 0x04;
        std::fs::write(&entry, &bytes).map_err(|e| e.to_string())?;
        crate::sweep::clear_saturation_cache();
        let (v2, how) =
            crate::sweep::try_cached_saturation_traced("chaos/sat2", &ec, &cfg, &region, 0, &spec)
                .map_err(|e| e.to_string())?;
        let corrupt_counted = crate::sweep::saturation_cache_corrupt_count() > before;
        let set_aside = std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "corrupt"));
        let identical = v1.to_bits() == v2.to_bits();
        let miss = how != crate::sweep::SatLookup::DiskHit;
        Ok((
            identical && miss && corrupt_counted && set_aside,
            format!(
                "re-search {} (via {how:?}), counter={} set_aside={set_aside}",
                if identical {
                    "bit-identical"
                } else {
                    "DIVERGED"
                },
                corrupt_counted
            ),
        ))
    })();
    std::env::remove_var("RAIR_CACHE_DIR");
    crate::sweep::clear_saturation_cache();
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    let (recovered, detail) = out.unwrap_or_else(|e| (false, e));
    Battery {
        name: "cache-corrupt",
        faults: 1,
        recovered,
        detail,
    }
}

/// Battery: run the whole service through a seeded [`ChaosStore`] injecting
/// EIO/ENOSPC/torn/crash-before-rename; the sweep must still complete with
/// the reference digest.
fn battery_append_faults(refd: u64, exec: &JobExec, seed: u64) -> Battery {
    let dir = fresh_dir("appendfaults");
    let store = ChaosStore::new(ChaosConfig::battery(seed));
    let report = serve(&store, &chaos_jobs(), &scfg(&dir), exec);
    let injected = store.injected();
    let classes: std::collections::BTreeSet<&str> =
        injected.iter().map(|i| i.fault.label()).collect();
    let ok = report.sweep_digest == refd && !injected.is_empty();
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    Battery {
        name: "append-faults",
        faults: injected.len() as u64,
        recovered: ok,
        detail: format!(
            "{} faults over {} store ops ({}); digest {}; {} journal append(s) degraded",
            injected.len(),
            store.ops(),
            classes.into_iter().collect::<Vec<_>>().join(", "),
            if report.sweep_digest == refd {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            report.journal_write_errors,
        ),
    }
}

/// Battery: SIGKILL a child `repro serve` at seeded points mid-sweep, then
/// complete the sweep and verify the digest against the reference.
fn battery_sigkill(refd: u64, exec: &JobExec, rng: &mut XorShift, smoke: bool) -> Battery {
    let dir = fresh_dir("sigkill");
    let jobs_path = dir.join("jobs.txt");
    std::fs::write(&jobs_path, chaos_jobs_text()).expect("write chaos jobs");
    let unstarted = |detail: &str| Battery {
        name: "sigkill-resume",
        faults: 0,
        recovered: false,
        detail: detail.into(),
    };
    let Ok(exe) = std::env::current_exe() else {
        return unstarted("current_exe() unavailable");
    };
    let kills = if smoke { 1 } else { 3 };
    let mut interrupted = 0u64;
    for _ in 0..kills {
        let Ok(mut child) = Command::new(&exe)
            .args([
                "--quick",
                "--windows",
                "200,600",
                "serve",
                jobs_path.to_str().expect("utf8 path"),
                "--dir",
                dir.to_str().expect("utf8 path"),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
        else {
            return unstarted("could not spawn child repro serve");
        };
        // Seeded kill point somewhere inside the sweep.
        std::thread::sleep(Duration::from_millis(15 + rng.next() % 120));
        // `Child::kill` delivers SIGKILL on Unix — no cleanup handlers run,
        // exactly the crash the journal must survive.
        if child.kill().is_ok() {
            interrupted += 1;
        }
        // lint: allow(swallowed-io-error)
        let _ = child.wait();
    }
    // Complete the sweep in-process from whatever the kills left behind.
    let report = serve(&StdStore, &chaos_jobs(), &scfg(&dir), exec);
    let ok = report.sweep_digest == refd && interrupted > 0;
    // lint: allow(swallowed-io-error)
    let _ = std::fs::remove_dir_all(&dir);
    Battery {
        name: "sigkill-resume",
        faults: interrupted,
        recovered: ok,
        detail: format!(
            "{interrupted} SIGKILL(s) mid-sweep; resumed {} row(s), re-ran {}, digest {}",
            report.resumed,
            report.executed,
            if report.sweep_digest == refd {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        ),
    }
}

/// Run the full battery. `smoke` trims repetition counts for CI's quick
/// lane; `seed` drives every randomized choice (kill delays, cut points,
/// chaos-store draws).
pub fn run(smoke: bool, seed: u64) -> ChaosReport {
    let exec = super::serve::sim_exec();
    let mut rng = XorShift::new(seed);
    eprintln!("[chaos] measuring reference sweep (untouched storage)…");
    let (refd, journal) = reference(&exec);
    eprintln!("[chaos] reference digest {refd:016x}; injecting faults…");
    let batteries = vec![
        battery_torn_tail(refd, &journal, &exec, &mut rng, smoke),
        battery_interior(refd, &journal, &exec),
        battery_checkpoint("ckpt"),
        battery_cache_corrupt(),
        battery_append_faults(refd, &exec, seed ^ 0xC4A05),
        battery_sigkill(refd, &exec, &mut rng, smoke),
    ];
    ChaosReport {
        reference_digest: refd,
        batteries,
    }
}

/// The negative control: tamper a journal `done` row *with a recomputed
/// CRC* (structurally valid, semantically wrong) and verify the sweep
/// digest comparison detects the divergence. Returns `(detected, detail)`.
pub fn run_wrong_result(seed: u64) -> (bool, String) {
    let _ = seed;
    let exec = super::serve::sim_exec();
    let (refd, journal) = reference(&exec);
    let text = String::from_utf8_lossy(&journal);
    let mut tampered: Vec<String> = Vec::new();
    let mut hit = false;
    for line in text.lines() {
        let Some(payload) = unframe(WAL_TAG, line) else {
            tampered.push(line.to_string());
            continue;
        };
        if hit || !payload.starts_with("done\t") {
            tampered.push(line.to_string());
            continue;
        }
        // Perturb the delivered-count field of the embedded checkpoint
        // line, then re-frame with a *valid* CRC.
        // payload = done, id, rair-ckpt-v1, label, delivered, …
        let mut fields: Vec<String> = payload.split('\t').map(str::to_string).collect();
        if fields.len() > 4 {
            if let Ok(v) = fields[4].parse::<u64>() {
                fields[4] = (v + 1).to_string();
                hit = true;
            }
        }
        tampered.push(frame(WAL_TAG, &fields.join("\t")));
    }
    if !hit {
        return (false, "no done row found to tamper".into());
    }
    let seeded = tampered.join("\n") + "\n";
    let (d, report) = resume_with_journal("wrongresult", seeded.as_bytes(), &exec);
    let detected = d != refd;
    (
        detected,
        format!(
            "tampered digest {d:016x} vs reference {refd:016x}: {} \
             (journal rows quarantined: {} — CRC is valid, so none, by design)",
            if detected {
                "divergence DETECTED"
            } else {
                "NOT DETECTED — digest failed to catch a wrong result"
            },
            report.journal_quarantined_rows
        ),
    )
}
