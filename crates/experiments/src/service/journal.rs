//! Crash-safe job journal: a versioned, per-line-CRC'd write-ahead log.
//!
//! Every job transition — the pool's `running`, `done`, `failed` and
//! `quarantine` ([`super::pool`]), serve's `queued`, `rejected` and
//! `sweep-done` — is one line in the shared [`super::store::frame`]:
//!
//! ```text
//! rair-wal-v1 \t <crc32 of payload, 8 hex digits> \t <payload>
//! ```
//!
//! The payload may itself contain tabs (a `done` row embeds a full
//! [`crate::runner::checkpoint_line`] row). It is the one resume format:
//! `repro serve` and `figs::run_cells` given a journal (`repro
//! resilience`) both write and replay it.
//!
//! Recovery ([`Journal::replay`]) replays the longest valid prefix of the
//! file, with two deliberate asymmetries:
//!
//! - **Torn tail tolerated.** An invalid *final* line is what an
//!   interrupted append leaves behind ([`super::store::Store::append_durable`]
//!   fsyncs, so at most the last row can be torn). It is dropped with a
//!   warning and counted — losing the last transition only means the
//!   deterministic job it described reruns.
//! - **Corrupt interior row quarantined.** An invalid line *followed by
//!   valid lines* is bit rot, not a torn append. The row is copied to
//!   `<journal>.quarantine`, counted, warned about — and replay continues
//!   with the valid rows after it. Journal rows are keyed by job id, so
//!   skipping one row degrades to re-running that job, never to replaying
//!   the wrong state.
//!
//! A CRC mismatch and a truncated frame are treated identically: the row
//! is unusable, and which bytes went missing is not recoverable.

use super::store::{frame, unframe, Store};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version tag opening every journal line; bump when the payload grammar
/// changes so old journals are quarantined, not misread.
pub const WAL_TAG: &str = "rair-wal-v1";

/// An append-only, CRC-framed journal over an injectable [`Store`].
pub struct Journal<'s> {
    path: PathBuf,
    store: &'s dyn Store,
    /// Appends that failed (EIO/ENOSPC/torn). The journal degrades to
    /// best-effort — the sweep still completes, resume coverage shrinks.
    write_errors: AtomicU64,
    warned: std::sync::atomic::AtomicBool,
}

/// Result of replaying a journal file.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid payloads, in file order.
    pub rows: Vec<String>,
    /// Whether an invalid final line was dropped (interrupted append).
    pub torn_tail: bool,
    /// `(1-based line number, raw line)` of interior rows that failed CRC
    /// or framing and were quarantined.
    pub quarantined: Vec<(usize, String)>,
}

impl<'s> Journal<'s> {
    pub fn new(path: impl Into<PathBuf>, store: &'s dyn Store) -> Self {
        Self {
            path: path.into(),
            store,
            write_errors: AtomicU64::new(0),
            warned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store this journal writes through.
    pub fn store(&self) -> &'s dyn Store {
        self.store
    }

    /// Append one payload durably. Failures are counted and warned about
    /// (once), never raised: a journal that cannot be written degrades the
    /// sweep to non-resumable, it does not abort it.
    pub fn append(&self, payload: &str) {
        let line = format!("{}\n", frame(WAL_TAG, payload));
        if let Err(e) = self.store.append_durable(&self.path, line.as_bytes()) {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "[journal] warning: append to {} failed ({e}); \
                     continuing without durability for affected rows",
                    self.path.display()
                );
            }
        }
    }

    /// Appends that failed so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Replay the journal: longest valid prefix semantics as described in
    /// the module docs. A missing or unreadable file is an empty journal
    /// (cold start / degraded read — both mean "re-run everything").
    pub fn replay(&self) -> Replay {
        let Ok(bytes) = self.store.read(&self.path) else {
            return Replay::default();
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut out = Replay::default();
        let lines: Vec<&str> = text.lines().collect();
        let last_non_empty = lines.iter().rposition(|l| !l.trim().is_empty());
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match unframe(WAL_TAG, line) {
                Some(payload) => out.rows.push(payload.to_string()),
                None if Some(i) == last_non_empty => {
                    // Interrupted append: at most one torn row, at the end.
                    out.torn_tail = true;
                    eprintln!(
                        "[journal] {}: dropping torn tail line {} \
                         (interrupted append; the job it recorded will re-run)",
                        self.path.display(),
                        i + 1
                    );
                }
                None => {
                    out.quarantined.push((i + 1, (*line).to_string()));
                    eprintln!(
                        "[journal] warning: {}: quarantining corrupt \
                         interior row at line {} (CRC/framing failure)",
                        self.path.display(),
                        i + 1
                    );
                }
            }
        }
        if !out.quarantined.is_empty() {
            let mut body = String::new();
            for (ln, raw) in &out.quarantined {
                body.push_str(&format!("line {ln}: {raw}\n"));
            }
            let qpath = self.quarantine_path();
            if let Err(e) = self.store.append_durable(&qpath, body.as_bytes()) {
                eprintln!(
                    "[journal] warning: could not record quarantined rows to {}: {e}",
                    qpath.display()
                );
            }
        }
        out
    }

    /// Where quarantined rows are preserved for post-mortems.
    pub fn quarantine_path(&self) -> PathBuf {
        let name = self
            .path
            .file_name()
            .map_or_else(|| "journal".into(), |s| s.to_string_lossy().into_owned());
        self.path.with_file_name(format!("{name}.quarantine"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::store::{ChaosStore, Fault, StdStore};
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rair-wal-{}-{tag}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replay_returns_rows_in_order() {
        let dir = tmp("order");
        let store = StdStore;
        let j = Journal::new(dir.join("j.wal"), &store);
        for p in ["queued\t1", "running\t1\t1", "done\t1\tok"] {
            j.append(p);
        }
        assert_eq!(j.write_errors(), 0);
        let r = j.replay();
        assert_eq!(r.rows, vec!["queued\t1", "running\t1\t1", "done\t1\tok"]);
        assert!(!r.torn_tail);
        assert!(r.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_flagged() {
        let dir = tmp("torn");
        let store = StdStore;
        let path = dir.join("j.wal");
        let j = Journal::new(&path, &store);
        j.append("queued\tA");
        j.append("done\tA\tresult");
        // Simulate an interrupted append: a partial frame at EOF.
        let full = std::fs::read(&path).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&frame(WAL_TAG, "done\tB\tresult").as_bytes()[..17]);
        std::fs::write(&path, &torn).unwrap();
        let r = j.replay();
        assert_eq!(r.rows, vec!["queued\tA", "done\tA\tresult"]);
        assert!(r.torn_tail, "partial final line must be reported as torn");
        assert!(r.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_quarantined_and_replay_continues() {
        let dir = tmp("interior");
        let store = StdStore;
        let path = dir.join("j.wal");
        let j = Journal::new(&path, &store);
        j.append("queued\tA");
        j.append("done\tA\tresult-A");
        j.append("done\tB\tresult-B");
        // Flip one byte in the middle row.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("result-A", "resulx-A");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let r = j.replay();
        // The corrupt row is gone; the rows before AND after it survive.
        assert_eq!(r.rows, vec!["queued\tA", "done\tB\tresult-B"]);
        assert!(!r.torn_tail);
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].0, 2, "1-based line number");
        // The quarantine file preserves the damaged row for post-mortems.
        let q = std::fs::read_to_string(j.quarantine_path()).unwrap();
        assert!(q.contains("line 2:") && q.contains("resulx-A"), "{q}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_failures_degrade_with_a_counter_not_a_panic() {
        let dir = tmp("degrade");
        let store = ChaosStore::scripted(vec![(1, Fault::Enospc), (3, Fault::Torn)]);
        let path = dir.join("j.wal");
        let j = Journal::new(&path, &store);
        j.append("queued\tA"); // op 0: lands
        j.append("done\tA\tx"); // op 1: ENOSPC, dropped entirely
        j.append("done\tB\ty"); // op 2: lands
        j.append("done\tC\tz"); // op 3: torn prefix at EOF
        assert_eq!(j.write_errors(), 2);
        let r = j.replay();
        // The fully-written rows replay; the ENOSPC'd row is simply absent
        // and the torn final row is dropped as the torn tail.
        assert_eq!(
            r.rows,
            vec!["queued\tA".to_string(), "done\tB\ty".to_string()]
        );
        assert!(r.torn_tail, "torn final append must be flagged");
        assert!(!r.rows.iter().any(|p| p.contains("done\tA")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
