//! Virtual-channel state: classification tags and the per-input-VC state
//! machine driven by the router pipeline.

use crate::flit::{Flit, FlitKind, PacketInfo};
use crate::ids::{AppId, Port};
use serde::{Deserialize, Serialize};

/// The 1-bit regional/global tag of §IV.A (VC regionalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcTag {
    /// Regional VC: native-vs-foreign priority decided dynamically by DPA.
    Regional,
    /// Global VC: foreign traffic always has priority over native traffic.
    Global,
}

/// Functional class of a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcClass {
    /// Escape VC of one message class; restricted to dimension-order routing
    /// so the escape sub-network is deadlock-free (Duato's theory).
    Escape { class: crate::ids::MsgClass },
    /// Fully-adaptive VC carrying the regional/global tag.
    Adaptive { tag: VcTag },
}

impl VcClass {
    /// The regional/global tag if this is an adaptive VC.
    pub fn tag(&self) -> Option<VcTag> {
        match self {
            VcClass::Adaptive { tag } => Some(*tag),
            VcClass::Escape { .. } => None,
        }
    }
}

/// Pipeline state of an input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet allocated to this VC.
    Idle,
    /// Head flit arrived; route computation done, waiting for VC allocation.
    /// Holds the candidate adaptive output ports (up to two minimal
    /// productive directions), the escape (dimension-order) port, and the
    /// escape lane the packet must ride here (always 0 on non-wrapping
    /// topologies; the dateline lane on torus/ring).
    Routed {
        adaptive: [Option<Port>; 2],
        escape: Port,
        escape_lane: u8,
    },
    /// Output VC allocated; flits compete in switch allocation.
    Active { out_port: Port, out_vc: usize },
}

/// [`VcState`] as an [`InputVc`] stores it. Ports and VC indices fit a byte
/// (config validation caps a router at 64 VC slots), so the 48-byte enum
/// packs into 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackedState {
    Idle,
    /// An absent adaptive candidate is [`NO_PORT`].
    Routed {
        adaptive: [u8; 2],
        escape: u8,
        escape_lane: u8,
    },
    Active {
        out_port: u8,
        out_vc: u8,
    },
}

/// The packed "no adaptive candidate".
const NO_PORT: u8 = u8::MAX;

/// A port, VC or slot index as a byte.
#[inline]
pub(crate) fn byte(x: usize) -> u8 {
    debug_assert!(x < usize::from(NO_PORT), "index {x} does not pack");
    x as u8
}

impl From<VcState> for PackedState {
    #[inline]
    fn from(s: VcState) -> Self {
        match s {
            VcState::Idle => Self::Idle,
            VcState::Routed {
                adaptive,
                escape,
                escape_lane,
            } => Self::Routed {
                adaptive: adaptive.map(|p| p.map_or(NO_PORT, byte)),
                escape: byte(escape),
                escape_lane,
            },
            VcState::Active { out_port, out_vc } => Self::Active {
                out_port: byte(out_port),
                out_vc: byte(out_vc),
            },
        }
    }
}

impl From<PackedState> for VcState {
    #[inline]
    fn from(s: PackedState) -> Self {
        match s {
            PackedState::Idle => Self::Idle,
            PackedState::Routed {
                adaptive,
                escape,
                escape_lane,
            } => Self::Routed {
                adaptive: adaptive.map(|p| (p != NO_PORT).then_some(Port::from(p))),
                escape: Port::from(escape),
                escape_lane,
            },
            PackedState::Active { out_port, out_vc } => Self::Active {
                out_port: Port::from(out_port),
                out_vc: usize::from(out_vc),
            },
        }
    }
}

/// What a ring slot keeps of a buffered flit: the fields that differ
/// between the flits of one packet, plus the packet id, so that the
/// one-packet-per-VC check compares stored values rather than copies of one
/// descriptor. Everything else comes from the VC's [`InputVc::packet`]
/// descriptor when the flit is read back — 24 bytes a slot instead of an
/// 88-byte [`Flit`]. The sequence number is a byte: a packet fits its VC
/// (the source contract), whose depth config validation caps at 255.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RingFlit {
    id: u64,
    pub(crate) payload: u64,
    hops: u32,
    crc: u16,
    seq: u8,
    kind: FlitKind,
}

impl RingFlit {
    /// Ring storage before a flit is written; a slot is only ever read
    /// below its VC's `len`.
    pub(crate) const EMPTY: Self = Self {
        id: 0,
        payload: 0,
        seq: 0,
        hops: 0,
        crc: 0,
        kind: FlitKind::Single,
    };

    #[inline]
    fn of(f: &Flit) -> Self {
        debug_assert!(f.seq <= u32::from(u8::MAX), "seq {} does not pack", f.seq);
        Self {
            id: f.info.id,
            payload: f.payload,
            hops: f.hops,
            crc: f.crc,
            seq: f.seq as u8,
            kind: f.kind,
        }
    }

    /// The whole flit again, its packet fields (bar the id) from `packet`.
    #[inline]
    fn with(self, packet: &PacketInfo) -> Flit {
        Flit {
            kind: self.kind,
            seq: u32::from(self.seq),
            hops: self.hops,
            payload: self.payload,
            crc: self.crc,
            info: PacketInfo {
                id: self.id,
                ..*packet
            },
        }
    }
}

/// One input virtual channel: the descriptor of the packet holding it, its
/// pipeline state and the cursor of its flit FIFO. The FIFO is a
/// fixed-depth ring whose storage is the VC's `vc_depth`-long stripe of the
/// owning router's slab, so the ring operations take that stripe as an
/// argument; only the [`Router`](crate::router::Router) writes either.
#[derive(Debug, Clone)]
pub struct InputVc {
    /// The packet currently holding this VC. Written when its head is
    /// written into the (empty, idle) VC and cleared when the tail departs
    /// — so it stays valid while the VC is occupied even after every
    /// buffered flit has moved downstream. Atomic VCs hold one packet at a
    /// time, so its buffered flits share this one copy.
    pub(crate) packet: Option<PacketInfo>,
    /// Ring index of the front flit (`< depth`).
    head: u32,
    /// Buffered flits (`<= depth`).
    len: u32,
    state: PackedState,
}

impl InputVc {
    pub(crate) fn new() -> Self {
        Self {
            packet: None,
            head: 0,
            len: 0,
            state: PackedState::Idle,
        }
    }

    #[inline]
    pub(crate) fn state(&self) -> VcState {
        self.state.into()
    }

    #[inline]
    pub(crate) fn set_state(&mut self, state: VcState) {
        self.state = state.into();
    }

    /// Occupied = holds at least one flit or is allocated to an in-flight
    /// packet (its flits may all have moved on while the tail hasn't been
    /// received yet).
    #[inline]
    pub fn occupied(&self) -> bool {
        self.len != 0 || self.state != PackedState::Idle
    }

    /// Ring slot of the `i`-th buffered flit (compare-subtract wrap).
    #[inline]
    fn at(&self, depth: usize, i: usize) -> usize {
        let k = self.head as usize + i;
        if k >= depth {
            k - depth
        } else {
            k
        }
    }

    /// Append `flit` at the back of the FIFO stored in `ring`.
    #[inline]
    pub(crate) fn push(&mut self, ring: &mut [RingFlit], flit: &Flit) {
        debug_assert!((self.len as usize) < ring.len(), "input buffer overflow");
        ring[self.at(ring.len(), self.len as usize)] = RingFlit::of(flit);
        self.len += 1;
    }

    /// Remove and return the front flit of the FIFO stored in `ring`
    /// (`None` when empty, or when no packet holds the VC to complete it).
    #[inline]
    pub(crate) fn pop(&mut self, ring: &[RingFlit]) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = ring[self.head as usize].with(self.packet.as_ref()?);
        self.head = self.at(ring.len(), 1) as u32;
        self.len -= 1;
        Some(flit)
    }

    /// The front flit's ring record, mutably.
    pub(crate) fn front_mut<'a>(&self, ring: &'a mut [RingFlit]) -> Option<&'a mut RingFlit> {
        (self.len != 0).then(|| &mut ring[self.head as usize])
    }

    /// Back to the freshly constructed state: idle, unheld, empty ring.
    #[inline]
    pub(crate) fn reset(&mut self) {
        *self = Self::new();
    }

    /// Do the ring cursors index inside a `depth`-long stripe?
    pub(crate) fn cursor_in_bounds(&self, depth: usize) -> bool {
        (self.head as usize) < depth && self.len as usize <= depth
    }
}

/// Read-only view of one input VC together with its flit FIFO — what
/// [`Router::ivc`](crate::router::Router::ivc) hands to the phases, the
/// oracle checkers, policies and tests. The packet descriptor is lent by
/// reference; a whole [`Flit`] is rebuilt by value, from its ring record
/// and the descriptor, only where one is asked for.
#[derive(Debug, Clone, Copy)]
pub struct VcView<'a> {
    pub(crate) vc: &'a InputVc,
    pub(crate) ring: &'a [RingFlit],
}

impl<'a> VcView<'a> {
    #[inline]
    pub fn state(&self) -> VcState {
        self.vc.state()
    }

    /// The packet currently holding this VC, if any.
    #[inline]
    pub fn packet(&self) -> Option<&'a PacketInfo> {
        self.vc.packet.as_ref()
    }

    /// Application of the packet currently holding this VC, if any.
    #[inline]
    pub fn holder(&self) -> Option<AppId> {
        self.packet().map(|p| p.app)
    }

    /// See [`InputVc::occupied`].
    #[inline]
    pub fn occupied(&self) -> bool {
        self.vc.occupied()
    }

    /// Buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.vc.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vc.len == 0
    }

    /// The `i`-th buffered flit, front first.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Flit> {
        if i >= self.len() {
            return None;
        }
        let slot = self.ring[self.vc.at(self.ring.len(), i)];
        self.packet().map(|p| slot.with(p))
    }

    #[inline]
    pub fn front(&self) -> Option<Flit> {
        self.get(0)
    }

    pub fn back(&self) -> Option<Flit> {
        self.get(self.len().wrapping_sub(1))
    }

    /// Buffered flits, front to back.
    pub fn flits(self) -> impl Iterator<Item = Flit> + 'a {
        (0..self.len()).filter_map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    fn info(id: u64, size: u32) -> PacketInfo {
        PacketInfo {
            id,
            src: 0,
            dst: 1,
            app: 3,
            class: 0,
            size,
            birth: 7,
            inject: 9,
            reply: None,
        }
    }

    fn view<'a>(vc: &'a InputVc, ring: &'a [RingFlit]) -> VcView<'a> {
        VcView { vc, ring }
    }

    #[test]
    fn fresh_vc_is_idle_and_unoccupied() {
        let vc = InputVc::new();
        assert_eq!(vc.state(), VcState::Idle);
        assert!(!vc.occupied());
        assert!(vc.packet.is_none());
    }

    #[test]
    fn buffered_flit_marks_occupied() {
        let mut vc = InputVc::new();
        let mut ring = [RingFlit::EMPTY; 5];
        vc.packet = Some(info(0, 1));
        vc.push(&mut ring, &Flit::nth(info(0, 1), 0));
        assert!(vc.occupied());
        assert_eq!(view(&vc, &ring).holder(), Some(3));
    }

    #[test]
    fn active_empty_vc_still_occupied() {
        let mut vc = InputVc::new();
        vc.set_state(VcState::Active {
            out_port: 1,
            out_vc: 0,
        });
        assert!(vc.occupied());
    }

    /// Every state survives packing, at the largest port and VC index a
    /// valid config can name.
    #[test]
    fn states_pack_losslessly() {
        for state in [
            VcState::Idle,
            VcState::Routed {
                adaptive: [Some(4), None],
                escape: 0,
                escape_lane: 1,
            },
            VcState::Routed {
                adaptive: [None, Some(0)],
                escape: 4,
                escape_lane: 0,
            },
            VcState::Active {
                out_port: 4,
                out_vc: 63,
            },
        ] {
            let mut vc = InputVc::new();
            vc.set_state(state);
            assert_eq!(vc.state(), state);
        }
    }

    /// Regression: a VC whose buffered flits have all moved downstream while
    /// the packet still owns it (tail not yet through) must keep reporting
    /// its holder — reading the front flit here returned `None` and made
    /// occupancy counting misclassify exactly the VCs that matter for DPA.
    #[test]
    fn holder_survives_buffer_drain() {
        let mut vc = InputVc::new();
        let mut ring = [RingFlit::EMPTY; 5];
        vc.packet = Some(info(0, 2));
        vc.push(&mut ring, &Flit::nth(info(0, 2), 0));
        vc.set_state(VcState::Active {
            out_port: 2,
            out_vc: 1,
        });
        vc.pop(&ring); // flit forwarded; tail still upstream
        assert!(view(&vc, &ring).is_empty());
        assert!(vc.occupied());
        assert_eq!(
            view(&vc, &ring).holder(),
            Some(3),
            "holder lost after drain"
        );
    }

    /// Every read of the ring, against the model.
    fn reads_agree(vc: &InputVc, ring: &[RingFlit], model: &VecDeque<Flit>) {
        let v = view(vc, ring);
        assert!(vc.cursor_in_bounds(ring.len()));
        assert_eq!(v.len(), model.len());
        for (i, want) in model.iter().enumerate() {
            assert_eq!(v.get(i).as_ref(), Some(want), "get({i})");
        }
        assert_eq!(v.get(model.len()), None);
        assert_eq!(v.front().as_ref(), model.front());
        assert_eq!(v.back().as_ref(), model.back());
        assert!(v.flits().eq(model.iter().copied()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The ring against a `VecDeque<Flit>`: packets of every size from
        /// 1 to the depth stream through one VC, popped at random points,
        /// the cursor left where the last packet ended (so it laps the
        /// stripe) or reset as a freed VC is. A duplicated body flit (the
        /// `DuplicateFlit` shape, one flit over the packet size) and a
        /// payload flipped past its CRC are read back as written. Each
        /// flit read through `get` / `front` / `back` / `flits` / `pop`
        /// equals the model's field for field, per-flit id and hops
        /// included.
        #[test]
        fn ring_fifo_matches_a_deque_model(depth in 1..=7u32, seed in 0..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut vc = InputVc::new();
            let mut ring = vec![RingFlit::EMPTY; depth as usize];
            let mut model = VecDeque::new();
            for id in 0..rng.random_range(1..12u64) {
                let pkt = info(100 + id, rng.random_range(1..=depth));
                if rng.random_bool(0.5) {
                    vc.reset();
                }
                vc.packet = Some(pkt);
                let mut flits: Vec<Flit> = Flit::flits_of(pkt).collect();
                if rng.random_bool(0.3) {
                    let s = rng.random_range(0..pkt.size) as usize;
                    flits[s].payload ^= 1;
                }
                let body = flits.iter().rposition(|f| f.kind == FlitKind::Body);
                if let Some(b) = body.filter(|_| rng.random_bool(0.5)) {
                    flits.insert(b + 1, flits[b]);
                }
                for mut f in flits {
                    f.hops = rng.random_range(0..40u32);
                    // The duplicate pays a real credit: it lands only once
                    // a flit has left a full buffer.
                    if model.len() == depth as usize {
                        let want = model.pop_front();
                        prop_assert_eq!(vc.pop(&ring), want);
                    }
                    vc.push(&mut ring, &f);
                    model.push_back(f);
                    reads_agree(&vc, &ring, &model);
                    for _ in 0..rng.random_range(0..3u32) {
                        let want = model.pop_front();
                        prop_assert_eq!(vc.pop(&ring), want);
                    }
                    reads_agree(&vc, &ring, &model);
                }
                while let Some(want) = model.pop_front() {
                    prop_assert_eq!(vc.pop(&ring), Some(want));
                }
                prop_assert_eq!(vc.pop(&ring), None);
                reads_agree(&vc, &ring, &model);
            }
            vc.reset();
            prop_assert!(!vc.occupied() && vc.cursor_in_bounds(depth as usize));
        }
    }

    /// The byte-wide sequence number at its limit: a 255-flit packet fills
    /// a 255-deep VC (the deepest config validation accepts) and reads back
    /// whole, its last flit at `seq = 254`, with the cursor wrapping past
    /// the end of the stripe on the way.
    #[test]
    fn deepest_vc_round_trips_the_last_sequence_number() {
        let depth = crate::config::MAX_VC_DEPTH;
        let mut vc = InputVc::new();
        let mut ring = vec![RingFlit::EMPTY; depth];
        // Start mid-stripe so the packet wraps.
        vc.packet = Some(info(1, 3));
        for f in Flit::flits_of(info(1, 3)) {
            vc.push(&mut ring, &f);
            vc.pop(&ring);
        }
        let pkt = info(2, depth as u32);
        vc.packet = Some(pkt);
        for f in Flit::flits_of(pkt) {
            vc.push(&mut ring, &f);
        }
        let v = view(&vc, &ring);
        assert_eq!(v.len(), depth);
        let last = v.back().unwrap();
        assert_eq!((last.seq, last.kind), (254, FlitKind::Tail));
        assert_eq!(last, Flit::nth(pkt, 254));
        assert!(v.flits().eq(Flit::flits_of(pkt)));
        for want in Flit::flits_of(pkt) {
            assert_eq!(vc.pop(&ring), Some(want));
        }
        assert!(vc.cursor_in_bounds(depth));
    }

    /// A ring read back without a packet to complete it yields nothing.
    #[test]
    fn flits_need_their_packet() {
        let mut vc = InputVc::new();
        let mut ring = [RingFlit::EMPTY; 2];
        vc.push(&mut ring, &Flit::nth(info(0, 1), 0));
        assert_eq!(view(&vc, &ring).front(), None);
        assert_eq!(vc.pop(&ring), None);
        assert_eq!(view(&vc, &ring).len(), 1);
    }

    #[test]
    fn tag_accessor() {
        assert_eq!(
            VcClass::Adaptive {
                tag: VcTag::Regional
            }
            .tag(),
            Some(VcTag::Regional)
        );
        assert_eq!(VcClass::Escape { class: 0 }.tag(), None);
    }
}
