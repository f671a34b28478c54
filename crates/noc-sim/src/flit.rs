//! Flits and packet descriptors.

use crate::ids::{AppId, MsgClass, NodeId};
use serde::{Deserialize, Serialize};
use std::num::NonZeroU32;
use std::sync::{Mutex, PoisonError};

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit of a multi-flit packet (carries routing info).
    Head,
    /// Middle flit.
    Body,
    /// Last flit of a multi-flit packet (releases the VC).
    Tail,
    /// Single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// True for `Head` and `Single` (flits that trigger route computation).
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// True for `Tail` and `Single` (flits that release the VC).
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// If the packet is a request, what reply its delivery triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplySpec {
    /// Cycles the destination "services" the request before replying
    /// (L2 bank or memory latency from Table 1).
    pub service_latency: u64,
    /// Reply packet size in flits.
    pub size: u32,
    /// Reply message class.
    pub class: MsgClass,
}

/// Routing- and accounting-relevant packet metadata: the packet's
/// descriptor.
///
/// In hardware only the head flit carries this. The simulator stores it
/// once per packet per network, in the [`PacketTable`], from the cycle its
/// head enters the injection VC until its tail is consumed at the
/// destination NI; the VCs it holds, its flits on links and in the
/// ejection register name it by a 4-byte [`PacketRef`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketInfo {
    /// Globally unique packet id (monotonic per run).
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Application this packet belongs to; compared against the router's
    /// region tag to classify the packet as native or foreign traffic.
    pub app: AppId,
    /// Message class (virtual network).
    pub class: MsgClass,
    /// Packet length in flits.
    pub size: u32,
    /// Cycle the packet was generated (entered the source queue).
    pub birth: u64,
    /// Cycle the head flit entered the injection VC (set by the NI).
    pub inject: u64,
    /// Reply to generate on delivery, if this is a request.
    pub reply: Option<ReplySpec>,
}

/// A single flow-control unit, whole: its own fields plus a copy of its
/// packet's descriptor. The kernel moves the 8-byte [`RingFlit`] record
/// instead; a `Flit` is built from the record, the descriptor its handle
/// names and the hop count of the VC or link holding it only for an
/// attached oracle checker or a test's view of a VC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    pub kind: FlitKind,
    /// Index of this flit within the packet (0-based).
    pub seq: u32,
    /// Links traversed so far (incremented on every router-to-router hop).
    pub hops: u32,
    /// Stand-in data word, [`payload_of`] the packet id and `seq`;
    /// link-level error control protects it with [`crc16`].
    pub payload: u64,
    /// CRC-16/CCITT over `payload`, checked by the oracle's CRC checker.
    pub crc: u16,
    pub info: PacketInfo,
}

/// What the kernel keeps of a flit in a VC's ring, on a link and in the
/// ejection register: the handle of its packet's descriptor in the
/// [`PacketTable`] and the fields that differ between the flits of one
/// packet — 8 bytes a flit instead of an 88-byte [`Flit`]. Each flit keeps
/// its own handle, so the one-packet-per-VC check compares stored values
/// rather than copies of the VC's. The payload is not stored: it is
/// [`payload_of`] the packet id and `seq`, and is derived when a `Flit` is
/// built. The CRC is stored, so a corrupted flit is one whose stored CRC no
/// longer matches that payload. The hop count is not stored either: every
/// flit of a packet at one VC has travelled the same path, so the VC keeps
/// one count for its packet, and a link or ejection record carries it
/// beside the flit. The sequence number is a byte: a packet fits its VC
/// (the source contract), whose depth config validation caps at 255.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFlit {
    pub(crate) packet: PacketRef,
    pub(crate) crc: u16,
    pub(crate) seq: u8,
    pub(crate) kind: FlitKind,
}

impl RingFlit {
    /// Ring storage before a flit is written; a slot is only ever read
    /// below its VC's `len`.
    pub(crate) const EMPTY: Self = Self {
        packet: PacketRef(NonZeroU32::MIN),
        crc: 0,
        seq: 0,
        kind: FlitKind::Single,
    };

    /// The record of `flit`, a flit of the packet stored under `packet`.
    #[inline]
    pub fn of(flit: &Flit, packet: PacketRef) -> Self {
        debug_assert!(
            flit.seq <= u32::from(u8::MAX),
            "seq {} does not pack",
            flit.seq
        );
        Self {
            packet,
            crc: flit.crc,
            seq: flit.seq as u8,
            kind: flit.kind,
        }
    }

    /// Flit `seq` of the packet `info` describes, stored under `packet`, as
    /// the NI writes it into the injection VC.
    #[inline]
    pub(crate) fn nth(packet: PacketRef, info: &PacketInfo, seq: u32) -> Self {
        Self::of(&Flit::nth(*info, seq), packet)
    }

    /// The whole flit again: its packet fields from the descriptor its
    /// handle names in `packets`, its payload derived, its hop count
    /// `hops` (the holding VC's or link record's).
    #[inline]
    pub(crate) fn with(self, packets: &PacketTable, hops: u32) -> Flit {
        let info = *packets.get(self.packet);
        let seq = u32::from(self.seq);
        Flit {
            kind: self.kind,
            seq,
            hops,
            payload: payload_of(info.id, seq),
            crc: self.crc,
            info,
        }
    }
}

/// A packet's slot in the [`PacketTable`]. Four bytes, and `Option<PacketRef>`
/// too (slot `i` is stored as `i + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PacketRef(NonZeroU32);

impl PacketRef {
    #[inline]
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// The network's packet descriptors, one per live packet: a slab whose
/// freed slots are reused last in, first out, so a steady state keeps
/// touching the same few. The NI inserts a packet's descriptor when its
/// head enters the injection VC; the destination NI frees it when it
/// consumes the tail, and a fault path that takes a packet out of the
/// network frees it there.
#[derive(Debug, Default)]
pub struct PacketTable {
    slots: Vec<PacketInfo>,
    free: Vec<u32>,
}

/// The emptied buffers of dropped tables, for the next
/// [`PacketTable::with_capacity`] to reuse.
///
/// A table reserves the fault-free bound but touches only its high-water
/// mark, which is what makes it cheap. That holds for a fresh reservation,
/// which glibc maps on pages of its own. Freeing one raises glibc's mmap
/// threshold past its size, though, so later reservations of that size
/// come out of the brk heap, and the layout they leave there costs later
/// networks fresh pages: remaking the reservation for each of the
/// benchmark's four `mesh16_mid` networks cost most of the saving
/// (EXPERIMENTS.md). Reusing it keeps one mapping per concurrently live
/// network.
static SPARE: Mutex<Vec<(Vec<PacketInfo>, Vec<u32>)>> = Mutex::new(Vec::new());

/// At most this many spare buffer pairs are kept (a sweep runs one network
/// per worker thread); more are freed.
const MAX_SPARE: usize = 16;

impl PacketTable {
    /// An empty table that holds `n` live packets without reallocating.
    /// Only the slots actually used are ever written, so reserved pages
    /// stay untouched; the buffers are a dropped table's when one is spare.
    pub(crate) fn with_capacity(n: usize) -> Self {
        // Every update of the list is one push or pop, so a poisoned list
        // is still a valid one.
        let spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let (mut slots, mut free) = spare.unwrap_or_default();
        slots.reserve(n);
        free.reserve(n);
        Self { slots, free }
    }

    /// Store `info`, returning its handle.
    #[inline]
    pub fn insert(&mut self, info: PacketInfo) -> PacketRef {
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = info;
                i
            }
            None => {
                self.slots.push(info);
                (self.slots.len() - 1) as u32
            }
        };
        PacketRef(NonZeroU32::MIN.saturating_add(index))
    }

    /// Release `packet`'s slot; its handle must not be used again.
    #[inline]
    pub(crate) fn free(&mut self, packet: PacketRef) {
        self.free.push(packet.index() as u32);
    }

    /// The descriptor `packet` names.
    #[inline]
    pub(crate) fn get(&self, packet: PacketRef) -> &PacketInfo {
        &self.slots[packet.index()]
    }

    /// Descriptors currently stored.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Reconcile the table with `held`, every handle the network holds (a
    /// packet held by several VCs or with several flits buffered or on
    /// links is listed once per place): each must name a live slot, and
    /// the live slots must be exactly those. `Err` describes the first
    /// disagreement. Sorts and dedups `held`.
    pub(crate) fn audit(&self, held: &mut Vec<PacketRef>) -> Result<(), String> {
        held.sort_unstable();
        held.dedup();
        let mut is_free = vec![false; self.slots.len()];
        for &i in &self.free {
            match is_free.get_mut(i as usize) {
                Some(f) if !*f => *f = true,
                Some(_) => return Err(format!("packet slot {i} was freed twice")),
                None => return Err(format!("free list names slot {i} of {}", self.slots.len())),
            }
        }
        if let Some(p) = held.iter().find(|p| is_free.get(p.index()) != Some(&false)) {
            return Err(format!("packet slot {} is held but not live", p.index()));
        }
        if held.len() != self.live() {
            return Err(format!(
                "{} live packet descriptors, {} held by VCs, links and the ejection register",
                self.live(),
                held.len()
            ));
        }
        Ok(())
    }
}

impl Drop for PacketTable {
    /// Hand the emptied buffers to [`SPARE`].
    fn drop(&mut self) {
        if self.slots.capacity() == 0 {
            return;
        }
        let (mut slots, mut free) = (
            std::mem::take(&mut self.slots),
            std::mem::take(&mut self.free),
        );
        slots.clear();
        free.clear();
        let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
        if spare.len() < MAX_SPARE {
            spare.push((slots, free));
        }
    }
}

/// One step of CRC-16/CCITT (poly 0x1021) per possible top byte, built at
/// compile time.
const CRC16_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over the payload's eight
/// little-endian bytes — the link-level error-detection code. One table
/// look-up per byte.
#[inline]
pub fn crc16(payload: u64) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for byte in payload.to_le_bytes() {
        crc = (crc << 8) ^ CRC16_TABLE[usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

/// Deterministic stand-in payload for flit `seq` of packet `id` (splitmix-style
/// mix so corruptions flip a random-looking word, not a constant).
#[inline]
pub fn payload_of(id: u64, seq: u32) -> u64 {
    let mut z = id ^ (u64::from(seq) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Flit {
    /// Flit `seq` of the packet `info` describes, as the NI writes it into
    /// the injection VC (zero hops, payload sealed with its CRC).
    #[inline]
    pub fn nth(info: PacketInfo, seq: u32) -> Flit {
        debug_assert!(seq < info.size);
        let payload = payload_of(info.id, seq);
        Flit {
            kind: match (seq, info.size) {
                (_, 1) => FlitKind::Single,
                (0, _) => FlitKind::Head,
                (s, n) if s + 1 == n => FlitKind::Tail,
                _ => FlitKind::Body,
            },
            seq,
            hops: 0,
            payload,
            crc: crc16(payload),
            info,
        }
    }

    /// Break a packet descriptor into its flit sequence.
    pub fn flits_of(info: PacketInfo) -> impl Iterator<Item = Flit> {
        (0..info.size).map(move |seq| Flit::nth(info, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(size: u32) -> PacketInfo {
        PacketInfo {
            id: 1,
            src: 0,
            dst: 5,
            app: 0,
            class: 0,
            size,
            birth: 10,
            inject: 0,
            reply: None,
        }
    }

    #[test]
    fn single_flit_packet() {
        let f: Vec<Flit> = Flit::flits_of(info(1)).collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FlitKind::Single);
        assert!(f[0].kind.is_head() && f[0].kind.is_tail());
    }

    #[test]
    fn five_flit_packet() {
        let f: Vec<Flit> = Flit::flits_of(info(5)).collect();
        assert_eq!(f.len(), 5);
        assert_eq!(f[0].kind, FlitKind::Head);
        assert_eq!(f[1].kind, FlitKind::Body);
        assert_eq!(f[3].kind, FlitKind::Body);
        assert_eq!(f[4].kind, FlitKind::Tail);
        assert!(f.iter().enumerate().all(|(i, fl)| fl.seq == i as u32));
        assert_eq!(f.iter().filter(|fl| fl.kind.is_head()).count(), 1);
        assert_eq!(f.iter().filter(|fl| fl.kind.is_tail()).count(), 1);
    }

    #[test]
    fn two_flit_packet_head_then_tail() {
        let f: Vec<Flit> = Flit::flits_of(info(2)).collect();
        assert_eq!(f[0].kind, FlitKind::Head);
        assert_eq!(f[1].kind, FlitKind::Tail);
    }

    /// The bit-serial definition the table caches.
    fn crc16_bitwise(payload: u64) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for byte in payload.to_le_bytes() {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    #[test]
    fn crc16_table_equals_the_bit_loop_on_every_byte_at_every_position() {
        assert_eq!(crc16(0), crc16_bitwise(0));
        for pos in 0..8 {
            for byte in 0..=255u64 {
                let payload = byte << (8 * pos);
                assert_eq!(crc16(payload), crc16_bitwise(payload), "{payload:#x}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]
        #[test]
        fn crc16_table_equals_the_bit_loop(payload in 0u64..=u64::MAX) {
            proptest::prop_assert_eq!(crc16(payload), crc16_bitwise(payload));
        }
    }

    #[test]
    fn crc16_detects_single_bit_flips() {
        // Any single-bit payload flip must change the CRC (CRC-16 has
        // Hamming distance >= 4 at this length).
        for base in [0u64, 0xDEAD_BEEF_CAFE_F00D] {
            for bit in 0..64 {
                assert_ne!(crc16(base), crc16(base ^ (1u64 << bit)), "bit {bit}");
            }
        }
    }

    /// Freed slots are reused last in, first out, and the audit names a
    /// leaked descriptor, a held handle to a freed slot and a double free.
    #[test]
    fn packet_table_reuses_slots_lifo_and_audits_what_is_held() {
        assert_eq!(std::mem::size_of::<Option<PacketRef>>(), 4);
        let mut t = PacketTable::default();
        let (a, b, c) = (t.insert(info(1)), t.insert(info(2)), t.insert(info(3)));
        assert_eq!(t.get(b).size, 2);
        t.free(a);
        t.free(c);
        assert_eq!(t.live(), 1);
        assert_eq!(t.insert(info(4)), c);
        assert_eq!((t.get(c).size, t.live()), (4, 2));
        assert_eq!(t.audit(&mut vec![b, c, b]), Ok(()));
        let leaked = t.audit(&mut vec![b]).unwrap_err();
        assert!(
            leaked.contains("2 live packet descriptors, 1 held"),
            "{leaked}"
        );
        let stale = t.audit(&mut vec![a, b, c]).unwrap_err();
        assert!(stale.contains("held but not live"), "{stale}");
        t.free(b);
        t.free(b);
        let twice = t.audit(&mut vec![c]).unwrap_err();
        assert!(twice.contains("freed twice"), "{twice}");
    }

    #[test]
    fn flits_are_sealed() {
        for f in Flit::flits_of(info(5)) {
            assert_eq!(f.crc, crc16(f.payload));
            assert_eq!(f.payload, payload_of(f.info.id, f.seq));
        }
    }
}
