//! Injectable storage backend for the durability layer.
//!
//! Everything the experiments crate persists — `repro serve`'s job journal
//! and the saturation-load `Cache` — goes
//! through the [`Store`] trait instead of `std::fs`, framed by the one
//! codec here ([`frame`] / [`unframe`]).
//! Production code uses [`StdStore`]; tests and the `repro chaos` battery
//! inject a [`ChaosStore`] that deterministically turns individual
//! operations into the failures real disks produce: `EIO`, `ENOSPC`, torn
//! appends (a prefix of the bytes lands, then the write "fails"), and a
//! crash between writing a temp file and renaming it into place. Every IO
//! failure path in the service is therefore drivable from a test, with a
//! seed instead of a flaky loopback device.
//!
//! Two contracts matter to callers:
//!
//! - [`Store::append_durable`] opens, appends, and **fsyncs** before
//!   returning `Ok` — a journal row is only considered durable once the
//!   sync succeeded. An error may still have written a
//!   prefix (that is exactly the torn-tail case resume tolerates).
//! - [`Store::write_atomic`] goes through a temp file, **fsync**, then
//!   rename, so readers never observe a half-written or zero-length file —
//!   only the old contents, the new contents, or (after a crash between the
//!   steps) a stray `.tmp.*` file that readers ignore. The directory entry
//!   is not synced: a crash may undo the rename, for a cache just a miss.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One framed line: `tag \t crc32(payload) as 8 hex digits \t payload`. The
/// single on-disk frame of the WAL (`rair-wal-v1`) and the saturation cache
/// (`rair-sat-v3`).
pub fn frame(tag: &str, payload: &str) -> String {
    format!("{tag}\t{:08x}\t{payload}", crc32(payload.as_bytes()))
}

/// Recover the payload of a [`frame`]d line; `None` if the tag, framing or
/// CRC does not hold. Only the first two tabs are structural, so payloads
/// may carry tabs of their own.
pub fn unframe<'a>(tag: &str, line: &'a str) -> Option<&'a str> {
    let mut parts = line.splitn(3, '\t');
    if parts.next()? != tag {
        return None;
    }
    let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    (crc32(payload.as_bytes()) == crc).then_some(payload)
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `bytes`. Bitwise
/// rather than table-driven — the rows it guards are tens of bytes, and a
/// pinned, dependency-free implementation is worth more than throughput.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The filesystem operations the durability layer needs. Object-safe so
/// the service can hold `&dyn Store` / `Arc<dyn Store>`.
pub trait Store: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Write a whole file atomically (temp file + fsync + rename).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append bytes and fsync; `Ok` means the bytes are on stable storage.
    fn append_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Rename a file (the commit step of out-of-band atomic protocols).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Does the path exist?
    fn exists(&self, path: &Path) -> bool;
}

/// Monotonic discriminator for temp-file names, so two concurrent atomic
/// writes to the same target in one process can never collide.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Name of the temp file `write_atomic` stages `path` through.
fn tmp_sibling(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map_or_else(|| "unnamed".into(), |s| s.to_string_lossy().into_owned());
    path.with_file_name(format!("{name}.tmp.{}.{n}", std::process::id()))
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct StdStore;

/// Process-wide [`StdStore`] instance for the production call sites of
/// `&dyn Store` seams (the saturation cache and `repro serve`).
pub fn std_store() -> &'static StdStore {
    static STORE: StdStore = StdStore;
    &STORE
}

impl Store for StdStore {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_sibling(path);
        // Sync before the rename: otherwise a crash shortly after it can
        // leave a zero-length file under the final name.
        let mut f = std::fs::File::create(&tmp)?;
        let committed = f
            .write_all(bytes)
            .and_then(|()| f.sync_all())
            .and_then(|()| std::fs::rename(&tmp, path));
        if committed.is_err() {
            // Don't leave the stray temp file behind on a failed commit;
            // the commit error is what the caller must see.
            if let Err(e) = std::fs::remove_file(&tmp) {
                eprintln!(
                    "[store] warning: could not clean temp file {}: {e}",
                    tmp.display()
                );
            }
        }
        committed
    }

    fn append_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// A fault class the chaos store can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `EIO` — the device-level read/write error.
    Eio,
    /// `ENOSPC` — the disk filled up mid-operation.
    Enospc,
    /// A torn append/write: a random prefix of the bytes lands before the
    /// operation "fails" (what a crash mid-`write(2)` leaves behind).
    Torn,
    /// For `write_atomic`: the temp file is written but the process
    /// "crashes" before the rename — the target keeps its old contents and
    /// a stray `.tmp.*` file survives.
    CrashBeforeRename,
}

impl Fault {
    fn error(self) -> io::Error {
        match self {
            // Raw OS errno so `ErrorKind` classification matches what a
            // real device would produce on this (Linux) container.
            Fault::Eio | Fault::Torn => io::Error::from_raw_os_error(5),
            Fault::Enospc => io::Error::from_raw_os_error(28),
            Fault::CrashBeforeRename => io::Error::other("simulated crash before rename"),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Fault::Eio => "EIO",
            Fault::Enospc => "ENOSPC",
            Fault::Torn => "torn-write",
            Fault::CrashBeforeRename => "crash-before-rename",
        }
    }
}

/// Per-mille injection rates of the seeded chaos mode, in draw order: an
/// aggressive mix in which roughly one in four mutations faults, so even
/// short sweeps exercise every failure class. A rate applies per *eligible
/// operation* (torn only on appends/writes, crash-before-rename only on
/// atomic writes); reads never draw a seeded fault.
const CHAOS_RATES: [(Fault, u16); 4] = [
    (Fault::Eio, 80),
    (Fault::Enospc, 80),
    (Fault::Torn, 80),
    (Fault::CrashBeforeRename, 120),
];

/// One injected fault, for assertions and the chaos report.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Global operation index at which the fault fired.
    pub op: u64,
    pub fault: Fault,
    pub path: String,
}

struct ChaosState {
    rng: u64,
    ops: u64,
    injected: Vec<Injection>,
}

/// A [`Store`] wrapping [`StdStore`] that deterministically injects
/// faults. Two modes, combinable:
///
/// - **Seeded** ([`ChaosStore::new`]): every eligible operation draws from
///   a seeded xorshift RNG against the `CHAOS_RATES` per-mille rates. The
///   same seed over the same operation sequence injects the same faults.
/// - **Scripted** ([`ChaosStore::scripted`]): given faults at given global
///   operation indices and nothing else — the precision tool for "the k-th
///   append fails" tests.
pub struct ChaosStore {
    inner: StdStore,
    seeded: bool,
    script: Vec<(u64, Fault)>,
    state: Mutex<ChaosState>,
}

impl ChaosStore {
    /// A store injecting seeded faults at the `CHAOS_RATES` mix.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: StdStore,
            seeded: true,
            script: Vec::new(),
            state: Mutex::new(ChaosState {
                // xorshift must not start at 0; fold in a non-zero pad.
                rng: seed | 0x9E37_79B9_7F4A_7C15,
                ops: 0,
                injected: Vec::new(),
            }),
        }
    }

    /// A store that injects no seeded faults, only scripted ones. Its RNG
    /// still runs on the seed-0 stream, which sets the torn-prefix cuts.
    pub fn scripted(script: Vec<(u64, Fault)>) -> Self {
        Self {
            seeded: false,
            script,
            ..Self::new(0)
        }
    }

    /// Faults injected so far (battery coverage assertions).
    pub fn injected(&self) -> Vec<Injection> {
        self.state.lock().unwrap().injected.clone()
    }

    /// Total operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Advance the op counter and decide whether this operation faults.
    /// `torn_ok`/`crash_ok` gate the classes that only make sense for some
    /// operations. Returns the fault plus the draw used for torn prefixes.
    fn draw(
        &self,
        path: &Path,
        torn_ok: bool,
        crash_ok: bool,
        is_read: bool,
    ) -> Option<(Fault, u64)> {
        let mut st = self.state.lock().unwrap();
        let op = st.ops;
        st.ops += 1;
        // xorshift64
        let mut x = st.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        st.rng = x;
        let scripted = self.script.iter().find(|(o, _)| *o == op).map(|(_, f)| *f);
        let fault = scripted.or_else(|| {
            if is_read || !self.seeded {
                return None;
            }
            let roll = (x % 1000) as u16;
            let mut lo = 0u16;
            for (f, rate) in CHAOS_RATES {
                let eligible = match f {
                    Fault::Torn => torn_ok,
                    Fault::CrashBeforeRename => crash_ok,
                    Fault::Eio | Fault::Enospc => true,
                };
                if !eligible {
                    continue;
                }
                if roll >= lo && roll < lo + rate {
                    return Some(f);
                }
                lo += rate;
            }
            None
        })?;
        st.injected.push(Injection {
            op,
            fault,
            path: path.display().to_string(),
        });
        Some((fault, x >> 10))
    }
}

impl Store for ChaosStore {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some((f, _)) = self.draw(path, false, false, true) {
            return Err(f.error());
        }
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.draw(path, true, true, false) {
            Some((Fault::CrashBeforeRename, _)) => {
                // The temp file lands; the rename never happens.
                let tmp = tmp_sibling(path);
                let write = std::fs::write(&tmp, bytes);
                debug_assert!(write.is_ok() || bytes.is_empty());
                Err(Fault::CrashBeforeRename.error())
            }
            Some((Fault::Torn, draw)) => {
                // A prefix of the *temp* file lands and the commit fails —
                // the target is untouched (that is what atomic means).
                let cut = (draw as usize) % bytes.len().max(1);
                let tmp = tmp_sibling(path);
                let write = std::fs::write(&tmp, &bytes[..cut]);
                debug_assert!(write.is_ok() || cut == 0);
                Err(Fault::Torn.error())
            }
            Some((f, _)) => Err(f.error()),
            None => self.inner.write_atomic(path, bytes),
        }
    }

    fn append_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.draw(path, true, false, false) {
            Some((Fault::Torn, draw)) => {
                // A strict prefix lands before the failure — the exact torn
                // tail the journal's longest-valid-prefix replay tolerates.
                let cut = (draw as usize) % bytes.len().max(1);
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                f.write_all(&bytes[..cut])?;
                Err(Fault::Torn.error())
            }
            Some((f, _)) => Err(f.error()),
            None => self.inner.append_durable(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some((f, _)) = self.draw(from, false, false, false) {
            return Err(f.error());
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if let Some((f, _)) = self.draw(path, false, false, false) {
            return Err(f.error());
        }
        self.inner.remove(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if let Some((f, _)) = self.draw(path, false, false, false) {
            return Err(f.error());
        }
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rair-store-{}-{tag}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn frame_roundtrip_and_crc_rejects_bitflips() {
        let payload = "done\t0123456789abcdef\trair-ckpt-v1\tlabel\t42";
        let line = frame("rair-wal-v1", payload);
        assert_eq!(unframe("rair-wal-v1", &line), Some(payload));
        // Any single-character corruption of the payload fails the CRC.
        let mut bad = line.clone();
        let flip = bad.pop().unwrap();
        bad.push(if flip == 'x' { 'y' } else { 'x' });
        assert_eq!(unframe("rair-wal-v1", &bad), None);
        // Wrong tag, truncated frame, garbage: all rejected.
        assert_eq!(unframe("rair-sat-v3", &line), None);
        assert_eq!(unframe("rair-wal-v1", "rair-wal-v0\t00000000\tx"), None);
        assert_eq!(unframe("rair-wal-v1", "rair-wal-v1\tzz\tx"), None);
        assert_eq!(unframe("rair-wal-v1", "rair-wal-v1\t00000000"), None);
        assert_eq!(unframe("rair-wal-v1", ""), None);
    }

    #[test]
    fn std_store_roundtrip_append_and_atomic_write() {
        let dir = tmp_dir("std");
        let s = StdStore;
        let p = dir.join("file.txt");
        s.append_durable(&p, b"one\n").unwrap();
        s.append_durable(&p, b"two\n").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"one\ntwo\n");
        s.write_atomic(&p, b"replaced\n").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"replaced\n");
        // No temp files survive a completed atomic write.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        s.remove(&p).unwrap();
        assert!(!s.exists(&p));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_store_is_deterministic_per_seed() {
        let dir = tmp_dir("det");
        let run = |seed: u64| {
            let s = ChaosStore::new(seed);
            let mut outcomes = Vec::new();
            for i in 0..40 {
                let p = dir.join(format!("d{seed}-{i}.txt"));
                outcomes.push(s.append_durable(&p, b"row\n").is_ok());
            }
            (
                outcomes,
                s.injected()
                    .iter()
                    .map(|i| (i.op, i.fault))
                    .collect::<Vec<_>>(),
            )
        };
        let (o1, i1) = run(7);
        let (o2, i2) = run(7);
        assert_eq!(o1, o2, "same seed must fault the same ops");
        assert_eq!(i1, i2);
        assert!(
            !i1.is_empty(),
            "battery rates must inject something in 40 ops"
        );
        let (o3, _) = run(8);
        assert_ne!(o1, o3, "different seeds should differ (40 draws)");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scripted_torn_append_leaves_a_strict_prefix() {
        let dir = tmp_dir("torn");
        let p = dir.join("wal.txt");
        let s = ChaosStore::scripted(vec![(1, Fault::Torn)]);
        s.append_durable(&p, b"first-line-intact\n").unwrap();
        let err = s.append_durable(&p, b"second-line-torn\n").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5), "torn write surfaces as EIO");
        let bytes = std::fs::read(&p).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("first-line-intact\n"));
        assert!(
            text.len() < "first-line-intact\nsecond-line-torn\n".len(),
            "the torn append must not have landed fully: {text:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scripted_crash_before_rename_preserves_old_contents() {
        let dir = tmp_dir("crash");
        let p = dir.join("report.json");
        let s = ChaosStore::scripted(vec![(1, Fault::CrashBeforeRename)]);
        s.write_atomic(&p, b"old").unwrap();
        let err = s.write_atomic(&p, b"new").unwrap_err();
        assert!(err.to_string().contains("crash before rename"));
        assert_eq!(std::fs::read(&p).unwrap(), b"old", "target must be intact");
        // The stray temp file a real crash would leave behind exists.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert_eq!(strays.len(), 1, "expected the orphaned temp file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scripted_enospc_and_eio_error_kinds() {
        let dir = tmp_dir("errno");
        let s = ChaosStore::scripted(vec![(0, Fault::Enospc), (1, Fault::Eio)]);
        let p = dir.join("x");
        assert_eq!(
            s.append_durable(&p, b"a").unwrap_err().raw_os_error(),
            Some(28)
        );
        assert_eq!(
            s.append_durable(&p, b"a").unwrap_err().raw_os_error(),
            Some(5)
        );
        // Past the script, operations succeed.
        s.append_durable(&p, b"a").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
