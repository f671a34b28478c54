//! Virtual-channel state: classification tags and the per-input-VC state
//! machine driven by the router pipeline.

use crate::flit::{Flit, PacketInfo, PacketRef, PacketTable, RingFlit};
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

/// Pipeline state of an input VC, stored as the phases read it: ports,
/// slots and lanes are bytes (config validation caps a router at 64 VC
/// slots), so a state is 5 bytes.
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
        adaptive: Adaptive,
        escape: u8,
        escape_lane: u8,
    },
    /// Output VC `out_slot` (a router slot) allocated; flits compete in
    /// switch allocation. Its port is kept too: SA_out and the link table
    /// read it.
    Active { out_port: u8, out_slot: u8 },
}

impl VcState {
    /// `Routed` toward the candidates `adaptive`, escape port `escape` on
    /// lane `escape_lane`.
    #[inline]
    pub fn routed(adaptive: [Option<Port>; 2], escape: Port, escape_lane: u8) -> Self {
        Self::Routed {
            adaptive: Adaptive(adaptive.map(|p| p.map_or(NO_PORT, byte))),
            escape: byte(escape),
            escape_lane,
        }
    }

    /// `Active` on output VC `out_slot` of port `out_port`.
    #[inline]
    pub fn active(out_port: Port, out_slot: usize) -> Self {
        Self::Active {
            out_port: byte(out_port),
            out_slot: byte(out_slot),
        }
    }
}

/// A routed head's adaptive candidate ports, an absent one stored as
/// [`NO_PORT`]; read them with [`Adaptive::ports`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adaptive([u8; 2]);

impl Adaptive {
    /// The candidate ports, in routing order.
    #[inline]
    pub fn ports(self) -> impl Iterator<Item = Port> {
        self.0.into_iter().filter(|&p| p != NO_PORT).map(Port::from)
    }
}

/// The stored "no adaptive candidate".
const NO_PORT: u8 = u8::MAX;

/// A port, VC or slot index as a byte.
#[inline]
pub(crate) fn byte(x: usize) -> u8 {
    debug_assert!(x < usize::from(NO_PORT), "index {x} does not fit a byte");
    x as u8
}

/// One input virtual channel: the handle of the packet holding it, that
/// packet's application and hop count, its pipeline state and the cursor
/// of its flit FIFO — 16 bytes. The FIFO is a fixed-depth ring whose
/// storage is the VC's `vc_depth`-long stripe of the owning router's slab, so the ring
/// operations take that stripe as an argument; the cursors are bytes
/// (config validation caps `vc_depth` at 255). Only the
/// [`Router`](crate::router::Router) writes either.
#[derive(Debug, Clone)]
pub struct InputVc {
    /// The packet currently holding this VC. Written when its head is
    /// written into the (empty, idle) VC and cleared when the tail departs
    /// — so it stays valid while the VC is occupied even after every
    /// buffered flit has moved downstream. Atomic VCs hold one packet at a
    /// time, so its buffered flits share this one handle.
    pub(crate) packet: Option<PacketRef>,
    /// Links the holding packet traversed to reach this VC (meaningless
    /// while `packet` is `None`): set from the head's link record, or 0 at
    /// injection. Its flits all came the same way, so this is every
    /// buffered flit's hop count; one leaving over a link carries it + 1.
    hops: u32,
    /// The holding packet's application (meaningless while `packet` is
    /// `None`): what the router's native/foreign split and the policies
    /// read without going to the packet table.
    app: AppId,
    /// Ring index of the front flit (`< depth`).
    head: u8,
    /// Buffered flits (`<= depth`).
    len: u8,
    state: VcState,
}

impl InputVc {
    pub(crate) fn new() -> Self {
        Self {
            packet: None,
            hops: 0,
            app: 0,
            head: 0,
            len: 0,
            state: VcState::Idle,
        }
    }

    #[inline]
    pub(crate) fn state(&self) -> VcState {
        self.state
    }

    #[inline]
    pub(crate) fn set_state(&mut self, state: VcState) {
        self.state = state;
    }

    /// Hand the VC to `packet` of application `app`, which has traversed
    /// `hops` links to reach it.
    #[inline]
    pub(crate) fn hold(&mut self, packet: PacketRef, app: AppId, hops: u32) {
        self.packet = Some(packet);
        self.app = app;
        self.hops = hops;
    }

    /// Hop count of the packet holding this VC, if any (see the field).
    #[inline]
    pub(crate) fn hops(&self) -> Option<u32> {
        self.packet.map(|_| self.hops)
    }

    /// Application of the packet holding this VC, if any.
    #[inline]
    pub(crate) fn holder(&self) -> Option<AppId> {
        self.packet.map(|_| self.app)
    }

    /// Occupied = holds at least one flit or is allocated to an in-flight
    /// packet (its flits may all have moved on while the tail hasn't been
    /// received yet).
    #[inline]
    pub fn occupied(&self) -> bool {
        self.len != 0 || self.state != VcState::Idle
    }

    /// Ring slot of the `i`-th buffered flit (compare-subtract wrap).
    #[inline]
    fn at(&self, depth: usize, i: usize) -> usize {
        let k = usize::from(self.head) + i;
        if k >= depth {
            k - depth
        } else {
            k
        }
    }

    /// Append `flit` at the back of the FIFO stored in `ring`.
    #[inline]
    pub(crate) fn push(&mut self, ring: &mut [RingFlit], flit: RingFlit) {
        debug_assert!(usize::from(self.len) < ring.len(), "input buffer overflow");
        ring[self.at(ring.len(), usize::from(self.len))] = flit;
        self.len += 1;
    }

    /// Remove and return the front flit record of the FIFO stored in
    /// `ring` (`None` when empty).
    #[inline]
    pub(crate) fn pop(&mut self, ring: &[RingFlit]) -> Option<RingFlit> {
        if self.len == 0 {
            return None;
        }
        let flit = ring[usize::from(self.head)];
        self.head = self.at(ring.len(), 1) as u8;
        self.len -= 1;
        Some(flit)
    }

    /// Back to the freshly constructed state: idle, unheld, empty ring.
    #[inline]
    pub(crate) fn reset(&mut self) {
        *self = Self::new();
    }

    /// Do the ring cursors index inside a `depth`-long stripe?
    pub(crate) fn cursor_in_bounds(&self, depth: usize) -> bool {
        usize::from(self.head) < depth && usize::from(self.len) <= depth
    }
}

/// Read-only view of one input VC together with its flit FIFO — what
/// [`Router::ivc`](crate::router::Router::ivc) hands to the phases, the
/// oracle checkers, policies and tests. State, occupancy, the holder's
/// application and hop count are the VC's own; packet descriptors live in
/// the network's [`PacketTable`], so the reads that need one take the
/// table, and a whole [`Flit`] is rebuilt by value, from its ring record,
/// the descriptor the record names and the VC's hop count, only where one
/// is asked for.
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

    /// Handle of the packet currently holding this VC, if any.
    #[inline]
    pub(crate) fn packet_ref(&self) -> Option<PacketRef> {
        self.vc.packet
    }

    /// The packet currently holding this VC, if any, from `packets`.
    #[inline]
    pub fn packet<'t>(&self, packets: &'t PacketTable) -> Option<&'t PacketInfo> {
        self.vc.packet.map(|p| packets.get(p))
    }

    /// Application of the packet currently holding this VC, if any.
    #[inline]
    pub fn holder(&self) -> Option<AppId> {
        self.vc.holder()
    }

    /// Hop count of the packet holding this VC, if any.
    #[inline]
    pub(crate) fn hops(&self) -> Option<u32> {
        self.vc.hops()
    }

    /// See [`InputVc::occupied`].
    #[inline]
    pub fn occupied(&self) -> bool {
        self.vc.occupied()
    }

    /// Buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.vc.len)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vc.len == 0
    }

    /// The `i`-th buffered flit, front first, completed from `packets`
    /// (`None` past the back or while the VC is unheld).
    #[inline]
    pub fn get(&self, i: usize, packets: &PacketTable) -> Option<Flit> {
        let hops = self.hops()?;
        self.record(i).map(|r| r.with(packets, hops))
    }

    /// The `i`-th buffered flit's ring record, front first.
    #[inline]
    pub(crate) fn record(&self, i: usize) -> Option<RingFlit> {
        (i < self.len()).then(|| self.ring[self.vc.at(self.ring.len(), i)])
    }

    /// Buffered flits' ring records, front to back.
    pub(crate) fn records(self) -> impl Iterator<Item = RingFlit> + use<'a> {
        (0..self.len()).filter_map(move |i| self.record(i))
    }

    #[inline]
    pub fn front(&self, packets: &PacketTable) -> Option<Flit> {
        self.get(0, packets)
    }

    pub fn back(&self, packets: &PacketTable) -> Option<Flit> {
        self.get(self.len().wrapping_sub(1), packets)
    }

    /// Buffered flits, front to back.
    pub fn flits<'t>(self, packets: &'t PacketTable) -> impl Iterator<Item = Flit> + use<'a, 't> {
        (0..self.len()).filter_map(move |i| self.get(i, packets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
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

    /// `vc` handed to `pkt`, stored in `packets`, after `hops` links;
    /// returns the packet's handle.
    fn hold(vc: &mut InputVc, packets: &mut PacketTable, pkt: PacketInfo, hops: u32) -> PacketRef {
        let packet = packets.insert(pkt);
        vc.hold(packet, pkt.app, hops);
        packet
    }

    #[test]
    fn fresh_vc_is_idle_and_unoccupied() {
        let vc = InputVc::new();
        assert_eq!(vc.state(), VcState::Idle);
        assert!(!vc.occupied());
        assert!(vc.packet.is_none() && vc.holder().is_none());
    }

    #[test]
    fn buffered_flit_marks_occupied() {
        let mut vc = InputVc::new();
        let mut ring = [RingFlit::EMPTY; 5];
        let packet = hold(&mut vc, &mut PacketTable::default(), info(0, 1), 0);
        vc.push(&mut ring, RingFlit::nth(packet, &info(0, 1), 0));
        assert!(vc.occupied());
        assert_eq!(view(&vc, &ring).holder(), Some(3));
    }

    #[test]
    fn active_empty_vc_still_occupied() {
        let mut vc = InputVc::new();
        vc.set_state(VcState::active(1, 0));
        assert!(vc.occupied());
    }

    /// Every state reads back what it was built from, at the largest port
    /// and slot a valid config can name; an absent candidate is skipped.
    #[test]
    fn states_read_back_what_they_were_built_from() {
        for (adaptive, escape, lane) in [([Some(4), None], 0, 1), ([None, Some(0)], 4, 0)] {
            let mut vc = InputVc::new();
            vc.set_state(VcState::routed(adaptive, escape, lane));
            let VcState::Routed {
                adaptive: stored,
                escape: e,
                escape_lane: l,
            } = vc.state()
            else {
                panic!("routed state lost");
            };
            assert!(stored.ports().eq(adaptive.into_iter().flatten()));
            assert_eq!((usize::from(e), l), (escape, lane));
        }
        let mut vc = InputVc::new();
        vc.set_state(VcState::active(4, 63));
        assert_eq!(
            vc.state(),
            VcState::Active {
                out_port: 4,
                out_slot: 63
            }
        );
    }

    /// Regression: a VC whose buffered flits have all moved downstream while
    /// the packet still owns it (tail not yet through) must keep reporting
    /// its holder — reading the front flit here returned `None` and made
    /// occupancy counting misclassify exactly the VCs that matter for DPA.
    #[test]
    fn holder_survives_buffer_drain() {
        let mut vc = InputVc::new();
        let mut ring = [RingFlit::EMPTY; 5];
        let packet = hold(&mut vc, &mut PacketTable::default(), info(0, 2), 0);
        vc.push(&mut ring, RingFlit::nth(packet, &info(0, 2), 0));
        vc.set_state(VcState::active(2, 1));
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
    fn reads_agree(vc: &InputVc, ring: &[RingFlit], packets: &PacketTable, model: &VecDeque<Flit>) {
        let v = view(vc, ring);
        assert!(vc.cursor_in_bounds(ring.len()));
        assert_eq!(v.len(), model.len());
        for (i, want) in model.iter().enumerate() {
            assert_eq!(v.get(i, packets).as_ref(), Some(want), "get({i})");
        }
        assert_eq!(v.get(model.len(), packets), None);
        assert_eq!(v.front(packets).as_ref(), model.front());
        assert_eq!(v.back(packets).as_ref(), model.back());
        assert!(v.flits(packets).eq(model.iter().copied()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The ring against a `VecDeque<Flit>`: packets of every size from
        /// 1 to the depth stream through one VC, each after its own random
        /// number of hops, popped at random points, the cursor left where
        /// the last packet ended (so it laps the stripe) or reset as a
        /// freed VC is. A duplicated body flit (the `DuplicateFlit` shape,
        /// one flit over the packet size) is read back as written. Each flit
        /// read through `get` / `front` / `back` / `flits`, completed from
        /// the packet table and the VC's hop count, equals the model's field
        /// for field, hops included, and each `pop` returns the record of
        /// the model's flit.
        #[test]
        fn ring_fifo_matches_a_deque_model(depth in 1..=7u32, seed in 0..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut vc = InputVc::new();
            let mut ring = vec![RingFlit::EMPTY; depth as usize];
            let mut packets = PacketTable::default();
            let mut model = VecDeque::new();
            for id in 0..rng.random_range(1..12u64) {
                let pkt = info(100 + id, rng.random_range(1..=depth));
                if rng.random_bool(0.5) {
                    vc.reset();
                }
                let hops = rng.random_range(0..40u32);
                let packet = hold(&mut vc, &mut packets, pkt, hops);
                let record = |f: Flit| RingFlit::of(&f, packet);
                let mut flits: Vec<Flit> = Flit::flits_of(pkt).map(|f| Flit { hops, ..f }).collect();
                let body = flits.iter().rposition(|f| f.kind == FlitKind::Body);
                if let Some(b) = body.filter(|_| rng.random_bool(0.5)) {
                    flits.insert(b + 1, flits[b]);
                }
                for f in flits {
                    // The duplicate pays a real credit: it lands only once
                    // a flit has left a full buffer.
                    if model.len() == depth as usize {
                        let want = model.pop_front().map(record);
                        prop_assert_eq!(vc.pop(&ring), want);
                    }
                    vc.push(&mut ring, record(f));
                    model.push_back(f);
                    reads_agree(&vc, &ring, &packets, &model);
                    for _ in 0..rng.random_range(0..3u32) {
                        let want = model.pop_front().map(record);
                        prop_assert_eq!(vc.pop(&ring), want);
                    }
                    reads_agree(&vc, &ring, &packets, &model);
                }
                while let Some(want) = model.pop_front() {
                    prop_assert_eq!(vc.pop(&ring), Some(record(want)));
                }
                prop_assert_eq!(vc.pop(&ring), None);
                reads_agree(&vc, &ring, &packets, &model);
            }
            vc.reset();
            prop_assert!(!vc.occupied() && vc.cursor_in_bounds(depth as usize));
        }
    }

    /// The byte-wide sequence number and cursors at their limit: a
    /// 255-flit packet fills a 255-deep VC (the deepest config validation
    /// accepts) and reads back whole, its last flit at `seq = 254`, with
    /// the cursor wrapping past the end of the stripe on the way.
    #[test]
    fn deepest_vc_round_trips_the_last_sequence_number() {
        let depth = crate::config::MAX_VC_DEPTH;
        let mut vc = InputVc::new();
        let mut ring = vec![RingFlit::EMPTY; depth];
        let mut packets = PacketTable::default();
        // Start mid-stripe so the packet wraps.
        let first = hold(&mut vc, &mut packets, info(1, 3), 0);
        for f in Flit::flits_of(info(1, 3)) {
            vc.push(&mut ring, RingFlit::of(&f, first));
            vc.pop(&ring);
        }
        let pkt = info(2, depth as u32);
        let packet = hold(&mut vc, &mut packets, pkt, 0);
        for f in Flit::flits_of(pkt) {
            vc.push(&mut ring, RingFlit::of(&f, packet));
        }
        let v = view(&vc, &ring);
        assert_eq!(v.len(), depth);
        let last = v.back(&packets).unwrap();
        assert_eq!((last.seq, last.kind), (254, FlitKind::Tail));
        assert_eq!(last, Flit::nth(pkt, 254));
        assert!(v.flits(&packets).eq(Flit::flits_of(pkt)));
        for want in Flit::flits_of(pkt) {
            assert_eq!(vc.pop(&ring).map(|r| r.with(&packets, 0)), Some(want));
        }
        assert!(vc.cursor_in_bounds(depth));
    }

    /// A ring read back through the view of a VC no packet holds yields
    /// nothing; the record itself still pops.
    #[test]
    fn flits_need_their_packet() {
        let mut vc = InputVc::new();
        let mut ring = [RingFlit::EMPTY; 2];
        let mut packets = PacketTable::default();
        let flit = RingFlit::nth(packets.insert(info(0, 1)), &info(0, 1), 0);
        vc.push(&mut ring, flit);
        assert_eq!(view(&vc, &ring).front(&packets), None);
        assert_eq!(view(&vc, &ring).len(), 1);
        assert_eq!(vc.pop(&ring), Some(flit));
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
