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
//! | `append-faults`          | seeded EIO/ENOSPC/torn/crash via chaos store |
//!
//! The other fault classes are covered by tests, not batteries: an altered
//! digit inside a journaled sweep row by `pool`'s
//! `checkpointed_sweep_resumes_cleans_up_and_rejects_altered_rows`, a
//! corrupt saturation-cache entry by `cache`'s
//! `corrupt_or_old_generation_entry_is_set_aside_as_a_miss`,
//! and SIGKILL mid-sweep by `tests/chaos.rs` against the real binary.
//!
//! Then its negative control, `wrong-result`: the same reference journal
//! with one `done` row tampered under a *recomputed* CRC — a valid-looking
//! but wrong result that no local check can see. Resuming from it must
//! diverge from the reference digest; `repro chaos` fails if it does not
//! ([`crate::verify_config::judge_controls`]), since a chaos harness whose
//! negative control passes silently is not testing anything.

use super::journal::WAL_TAG;
use super::serve::{serve, JobExec, JobSpec, ServeConfig};
use super::store::{frame, unframe, ChaosStore, StdStore};
use crate::runner::ExpConfig;
use crate::verify_config::{controls_table, NegativeCase};
use metrics::report::{Table, Value};
use std::path::{Path, PathBuf};

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

/// The batteries and the negative control of one `repro chaos` run.
pub struct ChaosReport {
    pub reference_digest: u64,
    pub batteries: Vec<Battery>,
    pub controls: Vec<NegativeCase>,
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
            ("controls", controls_table(&self.controls).json_rows()),
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
    }
}

/// The chaos jobs: a small scheme/routing/region mix at light load (fast),
/// including one statically rejected scheme (the gate path) and one
/// relabeled duplicate (the dedup path).
fn chaos_jobs() -> Vec<JobSpec> {
    let text = "# chaos battery jobs\n\
                j0 ro_rr local single uniform 0.05 1\n\
                j1 rair dbar halves uniform 0.05 2\n\
                j2 ro_age xy single transpose 0.05 3\n\
                j3 rair_va local quadrants uniform 0.05 4\n\
                inv rair_foreign_high local halves uniform 0.05 5\n\
                j0-dup ro_rr local single uniform 0.05 1\n";
    JobSpec::parse_jobs(text).expect("builtin chaos jobs parse")
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

/// One xorshift64 step from `seed`: the battery's seeded cut point
/// (`Date`-free, seed-driven like everything else in the tree).
fn xorshift(seed: u64) -> u64 {
    let mut x = seed | 0x9E37_79B9_7F4A_7C15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
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
fn battery_torn_tail(refd: u64, journal: &[u8], exec: &JobExec, seed: u64, smoke: bool) -> Battery {
    let cuts: Vec<usize> = {
        let n = journal.len();
        let mut c = vec![
            n - 1,                                  // torn mid final line
            n - (xorshift(seed) as usize % 30 + 2), // torn deeper into the tail
            n / 2,                                  // half the history gone
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

/// Battery: run the whole service through a seeded [`ChaosStore`] injecting
/// EIO/ENOSPC/torn/crash-before-rename; the sweep must still complete with
/// the reference digest.
fn battery_append_faults(refd: u64, exec: &JobExec, seed: u64) -> Battery {
    let dir = fresh_dir("appendfaults");
    let store = ChaosStore::new(seed);
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

/// Run the full battery, then the negative control on the same reference
/// journal. `smoke` trims repetition counts for CI's quick lane; `seed`
/// drives every randomized choice (cut points, chaos-store draws).
pub fn run(smoke: bool, seed: u64) -> ChaosReport {
    let exec = super::serve::sim_exec();
    eprintln!("[chaos] measuring reference sweep (untouched storage)…");
    let (refd, journal) = reference(&exec);
    eprintln!("[chaos] reference digest {refd:016x}; injecting faults…");
    let batteries = vec![
        battery_torn_tail(refd, &journal, &exec, seed, smoke),
        battery_interior(refd, &journal, &exec),
        battery_append_faults(refd, &exec, seed ^ 0xC4A05),
    ];
    ChaosReport {
        reference_digest: refd,
        batteries,
        controls: vec![wrong_result(refd, &journal, &exec)],
    }
}

/// The negative control: the `done` row of the smallest job id tampered
/// *with a recomputed CRC* (structurally valid, semantically wrong);
/// resuming from it must diverge from the reference digest. The row is
/// chosen by id, not by position, because two workers finish jobs in either
/// order. (A journal without such a row resumes untampered, and the
/// control reads as missed.)
fn wrong_result(refd: u64, journal: &[u8], exec: &JobExec) -> NegativeCase {
    let (seeded, _) = tamper_smallest_done(journal);
    let (d, report) = resume_with_journal("wrongresult", seeded.as_bytes(), exec);
    let quarantined = report.journal_quarantined_rows;
    NegativeCase {
        name: "wrong-result".into(),
        caught: d != refd,
        property: "sweep-digest",
        witness: format!(
            "tampered digest {d:016x} vs reference {refd:016x} \
             ({quarantined} journal rows quarantined: the CRC is valid)"
        ),
    }
}

/// `journal` with the `done` row of the smallest job id tampered, and that
/// id (`None` when no row is a `done` row).
fn tamper_smallest_done(journal: &[u8]) -> (String, Option<String>) {
    // Perturb the delivered-count field of the embedded checkpoint line —
    // payload = done, id, rair-ckpt-v1, label, delivered, … — and re-frame.
    let tamper = |line: &str| {
        let mut fields: Vec<String> = (unframe(WAL_TAG, line)?.split('\t'))
            .map(str::to_string)
            .collect();
        let delivered: u64 = fields
            .get(4)
            .filter(|_| fields[0] == "done")?
            .parse()
            .ok()?;
        fields[4] = (delivered + 1).to_string();
        let id = fields[1].clone();
        Some((id, frame(WAL_TAG, &fields.join("\t"))))
    };
    let mut lines: Vec<String> = String::from_utf8_lossy(journal)
        .lines()
        .map(str::to_string)
        .collect();
    // Ids are fixed-width hex, so the smallest string is the smallest id.
    let target = (lines.iter().enumerate())
        .filter_map(|(i, l)| tamper(l).map(|(id, row)| (id, i, row)))
        .min_by(|a, b| a.0.cmp(&b.0));
    let id = target.map(|(id, i, row)| {
        lines[i] = row;
        id
    });
    (lines.join("\n") + "\n", id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The control's witness must not depend on which worker finished
    /// first: the reference journal's rows in reverse order name the same
    /// tampered id and resume to the same tampered digest.
    #[test]
    fn wrong_result_ignores_the_journal_row_order() {
        let exec = super::super::serve::sim_exec();
        let (refd, journal) = reference(&exec);
        let text = String::from_utf8(journal.clone()).unwrap();
        let reversed = text.lines().rev().collect::<Vec<_>>().join("\n") + "\n";
        assert_ne!(reversed, text);
        let (_, id) = tamper_smallest_done(&journal);
        let (_, id_reversed) = tamper_smallest_done(reversed.as_bytes());
        assert!(id.is_some(), "no done row in the reference journal");
        assert_eq!(id, id_reversed);
        let control = wrong_result(refd, &journal, &exec);
        let control_reversed = wrong_result(refd, reversed.as_bytes(), &exec);
        assert!(control.caught);
        assert_eq!(control.witness, control_reversed.witness);
    }
}
