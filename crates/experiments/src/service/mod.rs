//! The execution substrate under every sweep, and the crash-safe job
//! service built on it.
//!
//! One supervised worker pool ([`pool`]: `catch_unwind`, timeout, bounded
//! backoff, poison-job quarantine) runs every sweep in the crate — the
//! figure drivers' `run_parallel`, the resumable checkpointed runner and
//! `repro serve` — and, given a journal, records every state transition
//! in one per-line-CRC'd WAL ([`journal`]). On top of it, [`serve`] turns a jobs
//! file into something a long-lived design-space exploration can sit on:
//! results are deduplicated against a digest-keyed result cache and every
//! job passes the admission gate before it is built. All filesystem traffic
//! goes through the injectable [`store::Store`] trait (and one framed-entry
//! codec beside it), so the [`chaos`] battery can deterministically
//! inject EIO, ENOSPC, torn writes, crash-before-rename — and SIGKILL the
//! whole process — and prove, digest-for-digest, that every fault class
//! recovers. See DESIGN.md §14 for the architecture, journal grammar, and
//! the failure taxonomy / recovery matrix.

pub mod chaos;
pub mod journal;
pub mod pool;
pub mod serve;
pub mod store;

pub use chaos::{run as run_chaos, run_wrong_result, ChaosReport};
pub use journal::{Journal, Replay, WAL_TAG};
pub use serve::{serve, sim_exec, JobExec, JobSpec, JobStatus, ServeConfig, ServeReport};
pub use store::{
    crc32, frame, read_entry, std_store, ChaosConfig, ChaosStore, Fault, StdStore, Store,
};

/// Recursively copy a directory tree — enough for tests that snapshot a
/// service directory (journal + result cache) and resume from the copy.
#[cfg(test)]
pub(crate) fn copy_dir_for_tests(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir_for_tests(&from, &to);
        } else {
            std::fs::copy(&from, &to).unwrap();
        }
    }
}
