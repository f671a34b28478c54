//! The one supervised worker pool under `experiments`.
//!
//! Every sweep of independent, deterministic runs — the figures'
//! `run_cells` (through [`run_sweep`]) and `repro serve` — is one call to
//! [`run_supervised`]: [`Task`]s drained by `RAIR_THREADS` workers, each
//! attempt under `catch_unwind` (plus a wall-clock timeout on a detached
//! thread when the [`Policy`] sets one), retried with bounded deterministic
//! exponential backoff, and given up on — labeled, never aborting the sweep
//! — after `max_attempts` failures. With a [`Journal`] every transition is a
//! `running` / `done` / `failed` / `quarantine` row, the one resume format
//! (`replay_jobs` folds it back into per-job state); [`run_sweep`] replays
//! it to skip finished tasks and removes it once the sweep is green.

use super::journal::Journal;
use crate::runner::{self, RunResult};
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

/// The figure sweeps' policy: simulation jobs are deterministic, so a
/// reproduced panic is a real kernel/config bug and a one-off is a
/// host-level hiccup the sweep should survive — one retry, no backoff, no
/// wall-clock timeout (every run is bounded by its windows, in cycles).
pub(crate) const SWEEP_POLICY: Policy = Policy {
    max_attempts: 2,
    backoff_base_ms: 0,
    timeout_ms: None,
};

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

/// A task the pool gave up on instead of producing a result.
#[derive(Debug, Clone)]
pub struct JobError {
    pub label: String,
    /// Why, including the last attempt's panic message.
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job '{}' failed: {}", self.label, self.message)
    }
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
    /// `quarantine` (text = reason).
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
    /// `(row kind, reason)` of a `rejected` / `quarantine` row.
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
            "rejected" | "quarantine" => {
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
/// order. Parallelism never changes results — runs are independent and
/// deterministic — and progress is reported on stderr as tasks finish.
pub fn run_supervised(tasks: &[Task], policy: &Policy, journal: Option<&Journal>) -> Vec<Outcome> {
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

/// Run `tasks` under [`SWEEP_POLICY`]; results come back in task order, and
/// a task that fails both attempts is an `Err` while every other still runs
/// to completion.
///
/// With a journal the sweep resumes: every transition is journaled under the
/// task's label digest (labels must be unique within the sweep), tasks with a
/// valid `done` row are replayed without re-running, anything an earlier pass
/// failed or left mid-`running` runs again, and the journal file is removed
/// once the whole sweep has succeeded. A failed append only shrinks resume
/// coverage ([`Journal::write_errors`]).
pub(crate) fn run_sweep(
    tasks: Vec<Task>,
    journal: Option<&Journal>,
) -> Vec<Result<RunResult, JobError>> {
    let supervised = |tasks: &[Task]| -> Vec<Result<RunResult, JobError>> {
        let outcomes = run_supervised(tasks, &SWEEP_POLICY, journal);
        outcomes.into_iter().map(|o| o.result).collect()
    };
    let Some(journal) = journal else {
        return supervised(&tasks);
    };
    let mut replayed = replay_jobs(&journal.replay().rows);
    let cached: Vec<Option<RunResult>> = tasks
        .iter()
        .map(|t| replayed.remove(&t.id).and_then(|s| s.done))
        .collect();
    let pending: Vec<Task> = tasks
        .into_iter()
        .zip(&cached)
        .filter_map(|(t, c)| c.is_none().then_some(t))
        .collect();
    let (n, store, path) = (cached.len(), journal.store(), journal.path());
    if pending.len() < n {
        eprintln!(
            "[sweep] resumed {}/{n} result(s) from {}",
            n - pending.len(),
            path.display()
        );
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = store.create_dir_all(dir) {
            eprintln!(
                "[sweep] warning: could not create checkpoint directory {}: {e}",
                dir.display()
            );
        }
    }
    let mut fresh = supervised(&pending).into_iter();
    let results: Vec<Result<RunResult, JobError>> = cached
        .into_iter()
        .map(|c| c.map_or_else(|| fresh.next().expect("one result per pending task"), Ok))
        .collect();
    if results.iter().all(Result::is_ok) && store.exists(path) {
        if let Err(e) = store.remove(path) {
            eprintln!(
                "[sweep] warning: could not remove completed checkpoint {}: {e}",
                path.display()
            );
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ChaosStore, Fault, StdStore};

    /// Alter one digit of tab-separated field `field` in the journaled `done`
    /// row of the task labeled `label` (frame fields count: 6 = `delivered`,
    /// 7 = the `throughput` bit pattern), leaving the row's CRC untouched.
    fn flip_done_field(journal: &str, label: &str, field: usize) -> String {
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

    /// A partially failed sweep resumes from its journal and cleans up —
    /// and a journaled result row with one payload digit altered
    /// (`delivered` of one task, a hex digit of `throughput` of another) is
    /// never replayed as a result: the CRC rejects the row (quarantined, or
    /// dropped as the torn tail when it is the last line) and the task
    /// re-runs.
    #[test]
    fn checkpointed_sweep_resumes_cleans_up_and_rejects_altered_rows() {
        let dir = std::env::temp_dir().join(format!("rair-ckpt-test-{}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sweep.ckpt");
        let journal = Journal::new(&path, &StdStore);
        let calls = Arc::new(AtomicUsize::new(0));
        let sweep = |bad_fails: bool| {
            let mk = |label: &'static str, fail: bool| {
                let calls = calls.clone();
                Task::new(label, move || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    assert!(!fail, "always failing");
                    RunResult::fabricated(label, 0)
                })
            };
            let before = calls.load(Ordering::SeqCst);
            let tasks = vec![mk("a", false), mk("bad", bad_fails), mk("c", false)];
            let results = run_sweep(tasks, Some(&journal));
            (results, calls.load(Ordering::SeqCst) - before)
        };
        // First pass: two tasks succeed, one fails both attempts — the
        // journal keeps the two successes as a clean, replayable WAL.
        let (r1, ran) = sweep(true);
        assert!(r1[0].is_ok() && r1[1].is_err() && r1[2].is_ok());
        assert_eq!(ran, 4, "2 successes + 2 attempts of the failing task");
        let replay = journal.replay();
        assert!(!replay.torn_tail && replay.quarantined.is_empty());
        assert_eq!(
            replay.rows.len(),
            9,
            "4 running, 2 done, 2 failed, 1 quarantine"
        );
        let pass1 = std::fs::read_to_string(&path).unwrap();
        // Second pass with the failing task fixed: only it runs (its earlier
        // quarantine is not honoured); the other two replay from the journal.
        let (r2, ran) = sweep(false);
        assert!(r2.iter().all(Result::is_ok));
        assert_eq!(ran, 1, "resumed tasks must not re-run");
        assert_eq!(r2[0].as_ref().unwrap().label, "a");
        assert!(!path.exists(), "journal removed after a fully green sweep");
        // The same resume over altered rows: neither may be replayed.
        let flipped = flip_done_field(&flip_done_field(&pass1, "a", 6), "c", 7);
        assert_ne!(flipped, pass1);
        std::fs::write(&path, flipped).unwrap();
        let (r3, ran) = sweep(false);
        assert_eq!(ran, 3, "both altered rows rejected, their tasks re-run");
        for (r, label) in r3.iter().zip(["a", "bad", "c"]) {
            let (got, want) = (r.as_ref().unwrap(), RunResult::fabricated(label, 0));
            assert_eq!(got.delivered, want.delivered, "{label}");
            assert_eq!(got.throughput.to_bits(), want.throughput.to_bits());
        }
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_append_failure_is_counted_never_fatal() {
        let dir = std::env::temp_dir().join(format!("rair-ckpt-enospc-{}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sweep.ckpt");
        // Ops: 0 = read (miss), 1 = create_dir_all, 2+ = appends. One
        // append hits ENOSPC; the sweep must still complete green.
        let store = ChaosStore::scripted(vec![(3, Fault::Enospc)]);
        let journal = Journal::new(&path, &store);
        let tasks = vec![
            Task::new("a", || RunResult::fabricated("a", 0)),
            Task::new("b", || RunResult::fabricated("b", 0)),
        ];
        let r = run_sweep(tasks, Some(&journal));
        assert!(
            r.iter().all(Result::is_ok),
            "append failure must not fail tasks"
        );
        assert_eq!(
            journal.write_errors(),
            1,
            "the failed append must be counted"
        );
        assert!(!path.exists(), "green sweep still cleans up");
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
    }

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
