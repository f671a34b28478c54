//! The saturation-load cache: one CRC-framed file per key in a directory
//! given on every call, read and written through the [`Store`] seam. Its
//! one instance lives in [`crate::sweep`]. It keeps no memory layer: every
//! lookup reads the directory it is given, so an answer is always what that
//! directory holds. A disk hit costs tens of microseconds, and no workload
//! reads a key often enough to pay for more.
//!
//! An entry, `sat_<key:016x>.txt`, holds the load's bit pattern under the
//! [`frame`] tagged [`TAG`]; lines after it are a note readers ignore.
//! Older generations (`v2 <bits> <crc>`, a bare bit pattern), a file that
//! fails the frame and a framed value a search would reject are renamed
//! `*.corrupt`, counted and read as a miss: a recomputation, never a wrong
//! value. A put writes atomically (`create_dir_all`, then `write_atomic`)
//! and only warns on failure, so the next lookup of that key misses and
//! searches again. The cache adds no other file: no index, no lock.

use super::store::{frame, unframe, Store};
use crate::runner;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// File-name prefix: `key` lives in `<dir>/sat_<key:016x>.txt`.
const PREFIX: &str = "sat";

/// Frame tag of an entry's first line.
const TAG: &str = "rair-sat-v3";

/// The load a framed value (its bit pattern, [`runner::f64_field`]) holds,
/// if a search would accept it.
fn decode(hex: &str) -> Option<f64> {
    runner::parse_f64_field(hex).filter(|&v| crate::sweep::is_load(v))
}

/// Lookup counters of one [`Cache`] since it was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStats {
    pub disk_hits: u64,
    /// Lookups no entry answered (a corrupt entry is one of them).
    pub misses: u64,
    /// Disk entries set aside as `*.corrupt`.
    pub corrupt: u64,
}

/// A disk cache of saturation loads keyed by a `u64` digest; `const`
/// constructible, so it can live in a `static`.
pub(crate) struct Cache {
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl Cache {
    pub(crate) const fn new() -> Self {
        Self {
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The file that holds `key` under `dir`.
    fn path(&self, dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{PREFIX}_{key:016x}.txt"))
    }

    /// The value of `key` in its file under `dir`, else `None`.
    pub(crate) fn get(&self, store: &dyn Store, dir: &Path, key: u64) -> Option<f64> {
        let Some(value) = self.read_entry(store, &self.path(dir, key)) else {
            self.misses.fetch_add(1, Relaxed);
            return None;
        };
        self.disk_hits.fetch_add(1, Relaxed);
        Some(value)
    }

    /// Persist `value` under `key`: the framed value, then `note` verbatim
    /// (empty, or whole lines of its own).
    pub(crate) fn put(&self, store: &dyn Store, dir: &Path, key: u64, value: f64, note: &str) {
        let path = self.path(dir, key);
        let body = format!("{}\n{note}", frame(TAG, &runner::f64_field(value)));
        let written = store
            .create_dir_all(dir)
            .and_then(|()| store.write_atomic(&path, body.as_bytes()));
        if let Err(e) = written {
            eprintln!("[cache] warning: could not persist {}: {e}", path.display());
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            disk_hits: self.disk_hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            corrupt: self.corrupt.load(Relaxed),
        }
    }

    /// Decode the file at `path`. A missing or unreadable file is a plain
    /// miss; one whose first line fails the frame or the decoder is a miss
    /// too, but counted, warned about and renamed `<name>.corrupt` for
    /// post-mortems.
    fn read_entry(&self, store: &dyn Store, path: &Path) -> Option<f64> {
        if !store.exists(path) {
            return None;
        }
        let bytes = store.read(path).ok()?;
        let hit = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| unframe(TAG, text.lines().next()?))
            .and_then(decode);
        if hit.is_none() {
            self.corrupt.fetch_add(1, Relaxed);
            let mut aside = path.as_os_str().to_owned();
            aside.push(".corrupt");
            eprintln!(
                "[cache] warning: {TAG} entry {} failed validation (CRC/framing/parse); \
                 setting it aside as *.corrupt and treating it as a miss",
                path.display()
            );
            if let Err(e) = store.rename(path, Path::new(&aside)) {
                eprintln!("[cache] warning: could not set aside corrupt entry: {e}");
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{crc32, ChaosStore, Fault, StdStore};

    /// A fresh, empty directory for one test.
    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rair-cache-{}-{tag}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A lookup answers from the directory it is given: a load put under
    /// one directory is a miss under another, and a hit under its own.
    #[test]
    fn lookups_answer_from_the_directory_they_are_given() {
        let (a, b) = (tmp_dir("dir-a"), tmp_dir("dir-b"));
        let cache = Cache::new();
        cache.put(&StdStore, &a, 0xD1, 0.3125, "");
        assert_eq!(cache.get(&StdStore, &b, 0xD1), None);
        assert_eq!((cache.stats().disk_hits, cache.stats().misses), (0, 1));
        assert_eq!(cache.get(&StdStore, &a, 0xD1), Some(0.3125));
        assert_eq!((cache.stats().disk_hits, cache.stats().misses), (1, 1));
        assert!(files(&b).is_empty(), "a lookup writes nothing");
        for dir in [a, b] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// A damaged entry costs a recomputation, never correctness: whether a
    /// bit of the framed value rots, the value is not a load at all (NaN,
    /// zero, negative: validly framed values a search would reject), or the
    /// entry is of an older generation (v2, legacy), the file is set aside
    /// as `*.corrupt`, counted once and read as a miss, and the next put
    /// writes the same frame again.
    #[test]
    fn corrupt_or_old_generation_entry_is_set_aside_as_a_miss() {
        let dir = tmp_dir("corrupt");
        let cache = Cache::new();
        let (key, load) = (0x5A7, 0.375);
        cache.put(&StdStore, &dir, key, load, "# live = 0.375000\n");
        let path = cache.path(&dir, key);
        let live = std::fs::read_to_string(&path).unwrap();
        let hex = runner::f64_field(load);
        let framed = frame("rair-sat-v3", &hex);
        assert_eq!(live, format!("{framed}\n# live = 0.375000\n"));
        let sat = |v: f64| frame("rair-sat-v3", &runner::f64_field(v));
        for (what, entry) in [
            ("bit rot", live.replacen(&hex, &runner::f64_field(0.75), 1)),
            ("not a load", sat(f64::NAN)),
            ("zero", sat(0.0)),
            ("negative", sat(-0.25)),
            ("v2", format!("v2 {hex} {:08x}\n", crc32(hex.as_bytes()))),
            ("legacy", format!("{hex}\n# legacy comment\n")),
        ] {
            std::fs::write(&path, entry).unwrap();
            // lint: allow(swallowed-io-error)
            let _ = std::fs::remove_file(path.with_extension("txt.corrupt"));
            let before = cache.stats();
            assert_eq!(cache.get(&StdStore, &dir, key), None, "{what}");
            let after = cache.stats();
            assert_eq!(after.corrupt, before.corrupt + 1, "{what}");
            assert_eq!(after.misses, before.misses + 1, "{what}");
            assert!(path.with_extension("txt.corrupt").exists(), "{what}");
            assert!(!path.exists(), "{what}");
            cache.put(&StdStore, &dir, key, load, "");
            let rewritten = std::fs::read_to_string(&path).unwrap();
            assert_eq!(rewritten.lines().next(), Some(framed.as_str()), "{what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Under injected write faults: `ENOSPC` is non-fatal and leaves no
    /// entry, so the next lookup misses (and its caller searches again); a
    /// crash before the rename leaves a stray temp file that the next read
    /// ignores. Both cost a recomputation, never the value.
    #[test]
    fn write_faults_leave_a_miss_never_a_torn_entry() {
        let dir = tmp_dir("write-faults");
        let cache = Cache::new();
        // Ops per put: create_dir_all, write_atomic (`exists` is not drawn).
        let store = ChaosStore::scripted(vec![(1, Fault::Enospc), (3, Fault::CrashBeforeRename)]);
        for fault in ["enospc", "crash-before-rename"] {
            cache.put(&store, &dir, 0xFA17, 0.314159, "# demo\n");
            assert_eq!(cache.get(&store, &dir, 0xFA17), None, "{fault}");
            assert!(!cache.path(&dir, 0xFA17).exists(), "{fault}");
        }
        assert_eq!(store.injected().len(), 2, "both scripted faults fired");
        let names = files(&dir);
        assert!(
            matches!(&names[..], [stray] if stray.contains(".tmp.")),
            "only the crashed write's temp file survives: {names:?}"
        );
        cache.put(&store, &dir, 0xFA17, 0.314159, "# demo\n");
        let bits = cache.get(&store, &dir, 0xFA17).map(f64::to_bits);
        assert_eq!(bits, Some(0.314159f64.to_bits()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
