//! Flits and packet descriptors.

use crate::ids::{AppId, MsgClass, NodeId};
use serde::{Deserialize, Serialize};

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

/// Routing- and accounting-relevant packet metadata, carried by every flit.
///
/// In hardware only the head flit carries this; duplicating it per flit is a
/// standard simulator convenience (GARNET does the same) and keeps the flit
/// a small `Copy` value.
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

/// A single flow-control unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    pub kind: FlitKind,
    /// Index of this flit within the packet (0-based).
    pub seq: u32,
    /// Links traversed so far (incremented on every router-to-router hop).
    pub hops: u32,
    /// Stand-in data word; link-level error control protects it with [`crc16`].
    pub payload: u64,
    /// CRC-16/CCITT over `payload`, checked by the oracle's CRC checker.
    pub crc: u16,
    pub info: PacketInfo,
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

    #[test]
    fn flits_are_sealed() {
        for f in Flit::flits_of(info(5)) {
            assert_eq!(f.crc, crc16(f.payload));
            assert_eq!(f.payload, payload_of(f.info.id, f.seq));
        }
    }
}
