//! The execution substrate under every sweep, and the crash-safe job
//! service built on it.
//!
//! One supervised worker pool ([`pool`]: `catch_unwind`, timeout, bounded
//! backoff, poison-job quarantine) runs every sweep in the crate — the
//! figure drivers' `run_cells` and `repro serve` — and, given a journal
//! (serve's; figure sweeps do not resume), records every state transition
//! in one per-line-CRC'd WAL ([`journal`]). On top of it, [`serve`] turns
//! a jobs file into something a long-lived design-space exploration can
//! sit on: a finished job is one `done` row in its journal, keyed by a
//! digest of the job's parameters, so a resume runs only what that journal
//! does not hold, and every job passes the admission gate before it is
//! built. The saturation loads live in the crate's one cache
//! (`cache::Cache`: one framed file per key, read on every lookup). All
//! filesystem traffic goes through the injectable [`store::Store`] trait
//! (and one framed-entry codec beside it), so the [`chaos`] battery can
//! deterministically inject torn and corrupt journal rows, EIO, ENOSPC,
//! torn writes and crash-before-rename, and prove, digest-for-digest, that
//! each recovers (`tests/chaos.rs` SIGKILLs the real binary). See DESIGN.md
//! §14 for the architecture, journal grammar, and the failure taxonomy /
//! recovery matrix.

pub(crate) mod cache;
pub mod chaos;
pub mod journal;
pub mod pool;
pub mod serve;
pub mod store;

pub(crate) use cache::Cache;
pub use chaos::{run as run_chaos, ChaosReport};
pub use journal::{Journal, Replay, WAL_TAG};
pub use serve::{serve, sim_exec, JobExec, JobSpec, JobStatus, ServeConfig, ServeReport};
pub use store::{crc32, frame, std_store, ChaosStore, Fault, StdStore, Store};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{self, RunResult};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Tokens of every grammar the parsers below read, so line soups reach
    /// past the first field check.
    #[rustfmt::skip]
    const FRAGMENTS: &[&str] = &[
        "\t", "\n", "\r\n", " ", "#", "\\", "\\t", "-", "_", ",", "0", "1", WAL_TAG,
        "rair-ckpt-v1", "done", "running", "failed", "quarantine", "queued", "job", "ro_rr",
        "rair", "local", "dbar", "halves", "transpose", "0.1", "-1", "NaN", "inf", "1e-320",
        "18446744073709551616", "+0", "ffffffff", "é", "\u{0}", "\u{feff}",
    ];

    /// A line soup: per pick, a grammar fragment, an arbitrary character, a
    /// validly framed journal row holding a cut checkpoint row, or a validly
    /// framed row of fragments.
    fn soup(picks: &[(u32, u32)]) -> String {
        let fragment = |v: u32| FRAGMENTS[v as usize % FRAGMENTS.len()];
        let mut text = String::new();
        for &(kind, v) in picks {
            match kind {
                0 => text.push_str(fragment(v)),
                1 => text.push(char::from_u32(v).unwrap_or('\u{fffd}')),
                2 => {
                    let row = runner::checkpoint_line(&RunResult::fabricated("x", u64::from(v)));
                    let cut = v as usize % (row.len() + 1);
                    let payload = format!("done\t{v:016x}\t{}", &row[..cut]);
                    text.push_str(&format!("{}\n", frame(WAL_TAG, &payload)));
                }
                _ => {
                    let payload = format!("{}\t{v:x}\t{}", fragment(v), fragment(v / 7));
                    text.push_str(&format!("{}\n", frame(WAL_TAG, &payload)));
                }
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary text and line soups through every parser a user or a
        /// crash can feed: none panics, what each accepts is well-formed,
        /// and `unframe` inverts `frame` for any payload under any tab-free
        /// tag.
        #[test]
        fn hostile_text_never_panics_a_parser(
            picks in vec((0u32..4, 0u32..0x11_0000), 0..48),
            tag in vec(0u32..0x11_0000, 0..6),
            junk in 0u8..=255,
        ) {
            let text = soup(&picks);
            let positive = |s: &JobSpec| s.rate > 0.0 && s.rate.is_finite();
            if let Ok(specs) = JobSpec::parse_jobs(&text) {
                prop_assert!(!specs.is_empty() && specs.iter().all(positive));
            }
            for line in text.lines() {
                prop_assert!(JobSpec::parse(line).map_or(true, |s| positive(&s)));
                let payload = store::unframe(WAL_TAG, line);
                prop_assert!(payload.is_none_or(|p| line.ends_with(p)));
                let row = runner::parse_checkpoint_line(line);
                prop_assert!(row.is_none() || line.starts_with("rair-ckpt-v1\t"));
            }
            let rows: Vec<String> = text.lines().map(str::to_string).collect();
            prop_assert!(pool::replay_jobs(&rows).len() <= rows.len());

            // The journal: every non-blank line is a row, the torn tail or
            // quarantined, whatever the bytes.
            let dir = std::env::temp_dir().join(format!("rair-hostile-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("journal.wal");
            let bytes = [text.as_bytes(), &[junk, b'\n']].concat();
            std::fs::write(&path, &bytes).unwrap();
            let replay = Journal::new(&path, &StdStore).replay();
            std::fs::remove_dir_all(&dir).unwrap();
            let lossy = String::from_utf8_lossy(&bytes);
            let lines = lossy.lines().filter(|l| !l.trim().is_empty()).count();
            let accounted = replay.rows.len() + replay.quarantined.len() + usize::from(replay.torn_tail);
            prop_assert_eq!(accounted, lines);
            prop_assert!(pool::replay_jobs(&replay.rows).len() <= replay.rows.len());

            let tag: String = tag.iter().filter_map(|&c| char::from_u32(c)).filter(|&c| c != '\t').collect();
            prop_assert_eq!(store::unframe(&tag, &frame(&tag, &text)), Some(text.as_str()));
        }
    }
}
