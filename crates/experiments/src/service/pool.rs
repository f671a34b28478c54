//! The one supervised worker pool under `experiments`.
//!
//! Every sweep of independent, deterministic runs — the figures'
//! `run_cells`, `run_parallel_checkpointed` and `repro serve` — is one call to
//! [`run_supervised`]: [`Task`]s drained by `RAIR_THREADS` workers, each
//! attempt under `catch_unwind` (plus a wall-clock timeout on a detached
//! thread when the [`Policy`] sets one), retried with bounded deterministic
//! exponential backoff, and given up on — labeled, never aborting the sweep
//! — after `max_attempts` failures. With a [`Journal`] every transition is a
//! `running` / `done` / `failed` / `quarantine` row, the one resume format
//! (`replay_jobs` folds it back into per-job state).

use super::journal::Journal;
use crate::runner::{self, JobError, RunResult};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The work of one task. `Fn`, not `FnOnce`, so a failed attempt can be
/// retried; `Arc + Sync` so a timed attempt can run on a detached thread.
pub type Work = Arc<dyn Fn() -> RunResult + Send + Sync>;

/// One unit of supervised work. The label travels with the task so a
/// failure can be attributed even though the closure never produced a
/// [`RunResult`]; the id keys the task's journal rows.
pub struct Task {
    pub label: String,
    pub id: u64,
    /// Attempts already consumed by earlier (crashed) invocations.
    pub prior_runs: u32,
    pub run: Work,
}

impl Task {
    /// A fresh task identified by its label (labels must be unique within
    /// a journaled sweep): the id is a domain-tagged digest of the label.
    pub fn new(
        label: impl Into<String>,
        run: impl Fn() -> RunResult + Send + Sync + 'static,
    ) -> Task {
        let label = label.into();
        let mut d = metrics::Digest::new();
        // Domain tag ("RAIRLBL" + version): label ids can never collide
        // with `JobSpec::id`, saturation-cache or sweep digests.
        d.write_u64(0x5241_4952_4C42_4C01);
        d.write_str(&label);
        Task {
            label,
            id: d.finish(),
            prior_runs: 0,
            run: Arc::new(run),
        }
    }
}

/// Retry policy of one pool run.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Attempts (including [`Task::prior_runs`]) before a task is given up
    /// on as poison.
    pub max_attempts: u32,
    /// Base of the backoff between retries, see `backoff_ms`.
    pub backoff_base_ms: u64,
    /// Wall-clock cap per attempt; `None` means unbounded. (Legal under the
    /// determinism lint: a timeout only abandons an attempt, it never feeds
    /// back into simulation state.)
    pub timeout_ms: Option<u64>,
}

/// Retry backoff cap.
pub const BACKOFF_CAP_MS: u64 = 2_000;

/// Deterministic exponential backoff after failed attempt `attempt`
/// (1-based): `base << (attempt-1)` ms, saturating at [`BACKOFF_CAP_MS`]
/// for any attempt count.
fn backoff_ms(base_ms: u64, attempt: u32) -> u64 {
    let factor = 1u64
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u64::MAX);
    base_ms.saturating_mul(factor).min(BACKOFF_CAP_MS)
}

/// How a task ended: its result, or why the pool gave up on it.
pub struct Outcome {
    /// Attempts consumed across all invocations.
    pub attempts: u32,
    pub result: Result<RunResult, JobError>,
}

/// Journal payload grammar (the part after the WAL frame).
pub(crate) mod rows {
    use crate::runner::{self, RunResult};

    pub fn running(id: u64, attempt: u32) -> String {
        format!("running\t{id:016x}\t{attempt}")
    }

    pub fn done(id: u64, r: &RunResult) -> String {
        format!("done\t{id:016x}\t{}", runner::checkpoint_line(r))
    }

    pub fn failed(id: u64, attempt: u32, reason: &str) -> String {
        format!(
            "failed\t{id:016x}\t{attempt}\t{}",
            runner::esc_label(reason)
        )
    }

    /// `queued` (text = label) and the terminal verdicts `rejected` /
    /// `screened` / `quarantine` (text = reason).
    pub fn note(kind: &str, id: u64, text: &str) -> String {
        format!("{kind}\t{id:016x}\t{}", runner::esc_label(text))
    }

    pub fn sweep_done(digest: u64, n: usize) -> String {
        format!("sweep-done\t{digest:016x}\t{n}")
    }
}

/// Per-job state reconstructed from the journal.
#[derive(Default)]
pub(crate) struct ReplayedJob {
    /// `running` rows observed (attempts consumed, across invocations).
    pub runs: u32,
    pub done: Option<RunResult>,
    /// `(row kind, reason)` of a `rejected` / `screened` / `quarantine` row.
    pub terminal: Option<(String, String)>,
}

/// Fold journal payload rows into per-id state. Unknown row kinds are
/// ignored (forward compatibility within the same WAL version).
pub(crate) fn replay_jobs(payloads: &[String]) -> BTreeMap<u64, ReplayedJob> {
    let mut map: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
    for p in payloads {
        let mut f = p.splitn(3, '\t');
        let (Some(kind), Some(id_hex)) = (f.next(), f.next()) else {
            continue;
        };
        let Ok(id) = u64::from_str_radix(id_hex, 16) else {
            continue;
        };
        let rest = f.next().unwrap_or("");
        let st = map.entry(id).or_default();
        match kind {
            "running" => {
                if let Ok(a) = rest.split('\t').next().unwrap_or("").parse::<u32>() {
                    st.runs = st.runs.max(a);
                }
            }
            "done" => {
                if let Some(r) = runner::parse_checkpoint_line(rest) {
                    st.done = Some(r);
                }
            }
            "rejected" | "screened" | "quarantine" => {
                st.terminal = Some((kind.to_string(), runner::unesc_label(rest)));
            }
            _ => {}
        }
    }
    map
}

/// Best-effort extraction of a human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(std::string::ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one attempt under `catch_unwind`, optionally bounded by a
/// wall-clock timeout. A timed-out attempt keeps running on a detached
/// thread (a hung simulation cannot be cancelled cooperatively) — the
/// supervisor simply stops waiting for it; its late result is discarded.
fn run_attempt(run: &Work, timeout_ms: Option<u64>) -> Result<RunResult, String> {
    let run = Arc::clone(run);
    let guarded = move || {
        catch_unwind(AssertUnwindSafe(|| run()))
            .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))
    };
    let Some(ms) = timeout_ms else {
        return guarded();
    };
    // One sender, one message: the wait is racy only in whether the attempt
    // is abandoned, after which the receiver is gone and the send fails.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || drop(tx.send(guarded())));
    // lint: allow(unordered-parallelism)
    rx.recv_timeout(Duration::from_millis(ms))
        .unwrap_or_else(|_| Err(format!("timed out after {ms} ms")))
}

/// Run every task under supervision and return the outcomes in task
/// order. `on_done` runs on the worker right after a task's `done` row is
/// journaled (`serve` persists its result cache there). Parallelism never
/// changes results — runs are independent and deterministic — and progress
/// is reported on stderr as tasks finish.
pub fn run_supervised(
    tasks: &[Task],
    policy: &Policy,
    journal: Option<&Journal>,
    on_done: &(dyn Fn(&Task, &RunResult) + Sync),
) -> Vec<Outcome> {
    let log = |row: String| {
        if let Some(j) = journal {
            j.append(&row);
        }
    };
    let supervise = |t: &Task| -> Outcome {
        let mut last_err = String::from("every attempt was consumed by crashed invocations");
        for attempt in t.prior_runs.saturating_add(1)..=policy.max_attempts {
            log(rows::running(t.id, attempt));
            match run_attempt(&t.run, policy.timeout_ms) {
                Ok(r) => {
                    log(rows::done(t.id, &r));
                    on_done(t, &r);
                    return Outcome {
                        attempts: attempt,
                        result: Ok(r),
                    };
                }
                Err(reason) => {
                    eprintln!(
                        "[sweep] job '{}' attempt {attempt}/{} failed: {reason}",
                        t.label, policy.max_attempts
                    );
                    log(rows::failed(t.id, attempt, &reason));
                    last_err = reason;
                    if attempt < policy.max_attempts {
                        let ms = backoff_ms(policy.backoff_base_ms, attempt);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        // Poison: every granted attempt (including ones consumed by
        // crashed invocations) failed.
        let attempts = t.prior_runs.max(policy.max_attempts);
        let message = format!("quarantined after {attempts} failed attempt(s); last: {last_err}");
        eprintln!("[sweep] job '{}' {message}", t.label);
        log(rows::note("quarantine", t.id, &message));
        let label = t.label.clone();
        Outcome {
            attempts,
            result: Err(JobError { label, message }),
        }
    };
    let (total, next, finished) = (tasks.len(), AtomicUsize::new(0), AtomicUsize::new(0));
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(t) = tasks.get(i) else { return mine };
            mine.push((i, supervise(t)));
            let d = finished.fetch_add(1, Ordering::Relaxed) + 1;
            if total > 1 {
                eprintln!("[sweep] {d}/{total} done ({})", t.label);
            }
        }
    };
    let workers = runner::worker_count_from(std::env::var("RAIR_THREADS").ok().as_deref(), total);
    let mut outcomes: Vec<(usize, Outcome)> = if workers <= 1 {
        worker()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            let joined = handles.into_iter().flat_map(|h| {
                h.join()
                    .expect("pool worker panicked outside a job attempt")
            });
            joined.collect()
        })
    };
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_saturates_for_any_attempt_count() {
        for (attempt, want) in [
            (1, 50),
            (2, 100),
            (6, 1_600),
            (64, BACKOFF_CAP_MS),
            (65, BACKOFF_CAP_MS),
            (u32::MAX, BACKOFF_CAP_MS),
        ] {
            assert_eq!(backoff_ms(50, attempt), want, "attempt {attempt}");
        }
        // The runner's policy (base 0) never sleeps, whatever the attempt.
        assert_eq!(backoff_ms(0, 1), 0);
        assert_eq!(backoff_ms(0, u32::MAX), 0);
    }
}
