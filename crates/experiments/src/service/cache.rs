//! The saturation-load cache: a bounded FIFO memory layer over one
//! CRC-framed file per key in a directory given on every call, read and
//! written through the [`Store`] seam. Its one instance lives in
//! [`crate::sweep`].
//!
//! An entry, `sat_<key:016x>.txt`, holds the load's bit pattern under the
//! [`frame`] tagged [`TAG`]; lines after it are a note readers ignore.
//! Older generations (`v2 <bits> <crc>`, a bare bit pattern), a file that
//! fails the frame and a framed value a search would reject are renamed
//! `*.corrupt`, counted and read as a miss: a recomputation, never a wrong
//! value. A put writes atomically (`create_dir_all`, then `write_atomic`)
//! and only warns on failure. The cache adds no other file: no index, no
//! lock.

use super::store::{frame, unframe, Store};
use crate::runner;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Entries the memory layer holds; the oldest is evicted first and
/// survives on disk.
const MEM_CAP: usize = 256;

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
    pub mem_hits: u64,
    pub disk_hits: u64,
    /// Lookups neither layer answered (a corrupt entry is one of them).
    pub misses: u64,
    /// Disk entries set aside as `*.corrupt`.
    pub corrupt: u64,
}

/// A two-layer cache of saturation loads keyed by a `u64` digest; `const`
/// constructible, so it can live in a `static`.
pub(crate) struct Cache {
    mem: Mutex<VecDeque<(u64, f64)>>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl Cache {
    pub(crate) const fn new() -> Self {
        Self {
            mem: Mutex::new(VecDeque::new()),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The file that holds `key` under `dir`.
    fn path(&self, dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{PREFIX}_{key:016x}.txt"))
    }

    /// The value of `key`: from memory, else from its file under `dir`
    /// (and then remembered), else `None`.
    pub(crate) fn get(&self, store: &dyn Store, dir: &Path, key: u64) -> Option<f64> {
        if let Some((_, v)) = self.mem().iter().find(|(k, _)| *k == key) {
            self.mem_hits.fetch_add(1, Relaxed);
            return Some(*v);
        }
        let Some(value) = self.read_entry(store, &self.path(dir, key)) else {
            self.misses.fetch_add(1, Relaxed);
            return None;
        };
        self.disk_hits.fetch_add(1, Relaxed);
        self.remember(key, value);
        Some(value)
    }

    /// Remember `value` under `key` and persist it: the framed value, then
    /// `note` verbatim (empty, or whole lines of its own).
    pub(crate) fn put(&self, store: &dyn Store, dir: &Path, key: u64, value: f64, note: &str) {
        self.remember(key, value);
        let path = self.path(dir, key);
        let body = format!("{}\n{note}", frame(TAG, &runner::f64_field(value)));
        let written = store
            .create_dir_all(dir)
            .and_then(|()| store.write_atomic(&path, body.as_bytes()));
        if let Err(e) = written {
            eprintln!("[cache] warning: could not persist {}: {e}", path.display());
        }
    }

    /// Empty the memory layer; files stay.
    pub(crate) fn clear(&self) {
        self.mem().clear();
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Relaxed),
            disk_hits: self.disk_hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            corrupt: self.corrupt.load(Relaxed),
        }
    }

    /// The memory layer, locked. A job that panics while it holds the guard
    /// (the pool catches it and moves on) poisons the mutex; every step
    /// leaves the queue valid, so the guard is recovered.
    fn mem(&self) -> MutexGuard<'_, VecDeque<(u64, f64)>> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn remember(&self, key: u64, value: f64) {
        let mut mem = self.mem();
        if let Some(slot) = mem.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
            return;
        }
        if mem.len() == MEM_CAP {
            mem.pop_front();
        }
        mem.push_back((key, value));
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

    #[test]
    fn memory_layer_is_a_bounded_fifo() {
        let cache = Cache::new();
        for k in 0..(MEM_CAP as u64 + 50) {
            cache.remember(k, k as f64);
        }
        let keys: Vec<u64> = cache.mem().iter().map(|&(k, _)| k).collect();
        // FIFO: the oldest keys were evicted, the newest survive in order.
        assert_eq!(keys, (50..MEM_CAP as u64 + 50).collect::<Vec<_>>());
        // Re-remembering a key replaces its value in place.
        cache.remember(MEM_CAP as u64 + 49, 1.0);
        assert_eq!(cache.mem().len(), MEM_CAP);
        assert_eq!(cache.mem().back(), Some(&(MEM_CAP as u64 + 49, 1.0)));
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
            cache.clear();
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

    /// The disk layer under injected write faults: `ENOSPC` is non-fatal
    /// (memory keeps the value) and leaves no entry; a crash before the
    /// rename leaves a stray temp file that the next read ignores. Both
    /// cost a recomputation in the next process, never the value.
    #[test]
    fn write_faults_keep_the_value_and_leave_a_miss_never_a_torn_entry() {
        let dir = tmp_dir("write-faults");
        let cache = Cache::new();
        // Ops per put: create_dir_all, write_atomic (`exists` is not drawn).
        let store = ChaosStore::scripted(vec![(1, Fault::Enospc), (3, Fault::CrashBeforeRename)]);
        for fault in ["enospc", "crash-before-rename"] {
            cache.put(&store, &dir, 0xFA17, 0.314159, "# demo\n");
            assert_eq!(cache.get(&store, &dir, 0xFA17), Some(0.314159), "{fault}");
            cache.clear();
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
        cache.clear();
        let bits = cache.get(&store, &dir, 0xFA17).map(f64::to_bits);
        assert_eq!(bits, Some(0.314159f64.to_bits()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A job that panics while it holds the memory layer (the pool catches
    /// it and moves on) must not take every later lookup down with it.
    #[test]
    fn lookups_survive_a_poisoned_memory_layer() {
        let dir = tmp_dir("poisoned");
        let cache = Cache::new();
        cache.put(&StdStore, &dir, 3, 0.4375, "");
        cache.clear();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = cache.mem();
                panic!("poisoning the memory layer on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert_eq!(cache.get(&StdStore, &dir, 3), Some(0.4375));
        assert_eq!(cache.get(&StdStore, &dir, 3), Some(0.4375));
        let s = cache.stats();
        assert_eq!((s.mem_hits, s.disk_hits, s.misses), (1, 1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
