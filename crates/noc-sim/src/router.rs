//! The pipelined virtual-channel router.
//!
//! State only — the pipeline stages themselves are driven by
//! [`crate::network::Network`], which owns all routers and moves flits
//! between them. Each router holds, flat and indexed by VC slot
//! (`slot = port * vcs + vc`, the bit position in every bitmap and the
//! kernel's one name for a VC — every VC method here takes one):
//!
//! * the input VCs' pipeline state, the handle (and application and hop
//!   count) of the packet holding each, and their flit FIFOs (fixed-depth
//!   rings of 8-byte per-flit records in one slab; a buffered flit is its
//!   record, the descriptor the record's handle names in the network's
//!   packet table and its VC's hop count),
//! * output-VC allocation table and credit counters toward downstream,
//! * rotating-arbiter pointers for VA_out, SA_in and SA_out,
//! * the DPA occupancy registers (`OVC_n`, `OVC_f`) and the hysteresis
//!   priority bit of §IV.C — maintained generically, consumed by the RAIR
//!   policy,
//! * seven bitmaps summarising the above for the phases.
//!
//! Readers go through the accessors ([`Router::ivc`], [`Router::credits`],
//! [`Router::out_alloc`]); every write goes through a method that keeps the
//! bitmaps coherent, and [`Router::bookkeeping_drift`] is the slow recount
//! they must always agree with.

use crate::bits::low_bits;
use crate::config::SimConfig;
use crate::flit::{PacketRef, RingFlit};
use crate::ids::{AppId, Coord, NodeId, Port, APP_NONE, NUM_PORTS};
use crate::vc::{byte, InputVc, VcState, VcTag, VcView};

/// Names of the seven bitmaps, in the order [`Router::bitsets`] and
/// [`Router::recount_bitsets`] return them.
pub const BITSET_NAMES: [&str; 7] = [
    "occ_bits",
    "out_free",
    "credits_full",
    "credits_avail",
    "native_bits",
    "routed_bits",
    "active_bits",
];

/// `out_alloc`'s "no packet holds this output VC".
const OUT_FREE: u8 = u8::MAX;

/// A single mesh router.
#[derive(Debug)]
pub struct Router {
    /// Node id this router serves.
    pub id: NodeId,
    /// Mesh coordinate.
    pub coord: Coord,
    /// Region tag: the application assigned to this tile (`APP_NONE` if
    /// unassigned). Packets whose app matches are native traffic here.
    pub app: AppId,

    /// Input VCs by slot, each with the handle of the packet holding it.
    inputs: Box<[InputVc]>,
    /// Every input VC's flit ring: slot `s` owns
    /// `slab[s * vc_depth..][..vc_depth]`.
    slab: Box<[RingFlit]>,
    /// Output-VC allocation by slot: the slot of the input VC holding the
    /// output VC, or [`OUT_FREE`]. A slot fits a byte (config validation
    /// caps a router at 64).
    out_alloc: Box<[u8]>,
    /// Credits toward the downstream input VC, by slot (at most `vc_depth`,
    /// which config validation caps at 255). The local (ejection) port has
    /// effectively infinite credit.
    credits: Box<[u8]>,

    /// VA_out rotating pointer, one per output-VC slot, rotating over
    /// input-VC slots.
    pub(crate) va_ptr: Box<[u8]>,
    /// SA_in rotating pointer per input port (over VC indices).
    pub(crate) sa_in_ptr: [u8; NUM_PORTS],
    /// SA_out rotating pointer per output port (over input-port indices).
    pub(crate) sa_out_ptr: [u8; NUM_PORTS],

    /// DPA register: occupied VCs holding native traffic (previous cycle).
    pub ovc_native: u32,
    /// DPA register: occupied VCs holding foreign traffic (previous cycle).
    pub ovc_foreign: u32,
    /// DPA hysteresis output: `true` = native traffic currently has the
    /// high priority. Defaults to `false` — foreign-high is the DPA default
    /// (§IV.C case 3).
    pub dpa_native_high: bool,

    /// VCs per port (cached from config; the slot stride). A byte, like
    /// every index into the slots.
    vcs: u8,
    /// Downstream buffer depth (cached from config; full-credit threshold
    /// and ring length). A byte: config validation caps it at 255.
    vc_depth: u8,
    /// Slots of the adaptive VCs of every port (cached from config).
    adaptive_mask: u64,

    // --- Bitmaps, one bit per VC slot (config validation guarantees the
    // slots fit in a u64).
    /// Bit set ⇔ the input VC is occupied. Written by
    /// [`note_vc_occupied`](Self::note_vc_occupied) /
    /// [`note_vc_freed`](Self::note_vc_freed).
    pub occ_bits: u64,
    /// Bit set ⇔ the output VC has no holder. Written by
    /// [`alloc_out_vc`](Self::alloc_out_vc) /
    /// [`release_out_vc`](Self::release_out_vc).
    pub out_free: u64,
    /// Bit set ⇔ all credits returned (`credits == vc_depth`) — the atomic
    /// reallocation gate. Local-port bits are always set (infinite credit).
    /// Written, like `credits_avail`, by [`take_credit`](Self::take_credit)
    /// / [`return_credit`](Self::return_credit).
    pub credits_full: u64,
    /// Bit set ⇔ at least one credit available (`credits > 0`). Local-port
    /// bits are always set.
    pub credits_avail: u64,
    /// Bit set ⇔ the input VC's holder is native traffic here. Written at
    /// the holder set/clear points (`note_vc_occupied` / `note_vc_freed`).
    pub(crate) native_bits: u64,
    /// Bit set ⇔ the input VC is `Routed` (VA serves it). Written, like
    /// `active_bits`, only by [`set_vc_state`](Self::set_vc_state).
    pub(crate) routed_bits: u64,
    /// Bit set ⇔ the input VC is `Active` (SA serves it).
    pub(crate) active_bits: u64,
}

impl Router {
    /// Create an idle router with full credits.
    pub fn new(cfg: &SimConfig, id: NodeId, coord: Coord, app: AppId) -> Self {
        let v = cfg.vcs_per_port();
        // `validate()` caps NUM_PORTS * vcs_per_port() at 64, so the checked
        // helper is exact.
        let slots = NUM_PORTS * v;
        let valid = low_bits(slots);
        let depth = u8::try_from(cfg.vc_depth).expect("validated vc_depth");
        let mut r = Self {
            id,
            coord,
            app,
            inputs: vec![InputVc::new(); slots].into(),
            slab: vec![RingFlit::EMPTY; slots * cfg.vc_depth].into(),
            out_alloc: vec![OUT_FREE; slots].into(),
            credits: vec![depth; slots].into(),
            va_ptr: vec![0; slots].into(),
            sa_in_ptr: [0; NUM_PORTS],
            sa_out_ptr: [0; NUM_PORTS],
            ovc_native: 0,
            ovc_foreign: 0,
            dpa_native_high: false,
            vcs: byte(v),
            vc_depth: depth,
            adaptive_mask: 0,
            occ_bits: 0,
            out_free: valid,
            credits_full: valid,
            credits_avail: valid,
            native_bits: 0,
            routed_bits: 0,
            active_bits: 0,
        };
        r.adaptive_mask = r.every_port(low_bits(cfg.adaptive_vcs) << cfg.num_escape_vcs());
        r
    }

    /// Bytes of this router's state: the struct and every boxed slice it
    /// owns. Peak RSS on a large mesh is mostly this times the router
    /// count.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        size_of::<Self>()
            + size_of_val(&*self.inputs)
            + size_of_val(&*self.slab)
            + size_of_val(&*self.out_alloc)
            + size_of_val(&*self.credits)
            + size_of_val(&*self.va_ptr)
    }

    /// VCs per port.
    #[inline]
    pub(crate) fn vcs(&self) -> usize {
        usize::from(self.vcs)
    }

    /// Flits an input VC buffers (the config's `vc_depth`).
    #[inline]
    pub(crate) fn vc_depth(&self) -> usize {
        usize::from(self.vc_depth)
    }

    /// Input VC `slot`'s stripe of the slab.
    #[inline]
    fn stripe(&self, slot: usize) -> std::ops::Range<usize> {
        let depth = self.vc_depth();
        slot * depth..(slot + 1) * depth
    }

    /// Replicate a per-port VC mask over all ports.
    fn every_port(&self, vc_mask: u64) -> u64 {
        (0..NUM_PORTS).fold(0, |m, p| m | vc_mask << (p * self.vcs()))
    }

    /// The [`slot`](crate::ids::slot) of VC `(port, vc)`. This and
    /// [`port_vc`](Self::port_vc) convert where `(port, vc)` is the
    /// interface (checker hooks, routing, the oracle's mutations, tests).
    #[inline]
    pub fn slot(&self, port: Port, vc: usize) -> usize {
        debug_assert!(port < NUM_PORTS && vc < self.vcs());
        crate::ids::slot(self.vcs(), port, vc)
    }

    /// The `(port, vc)` of `slot`. Ports are few: subtract, don't divide.
    #[inline]
    pub fn port_vc(&self, mut slot: usize) -> (Port, usize) {
        let (mut port, vcs) = (0, self.vcs());
        while slot >= vcs {
            slot -= vcs;
            port += 1;
        }
        (port, slot)
    }

    /// Input VC `slot`: state, holding packet and buffered flits.
    #[inline]
    pub fn ivc(&self, slot: usize) -> VcView<'_> {
        VcView {
            vc: &self.inputs[slot],
            ring: &self.slab[self.stripe(slot)],
        }
    }

    /// The input VCs of `port`, ascending VC index.
    pub fn ivcs(&self, port: Port) -> impl Iterator<Item = VcView<'_>> {
        (0..self.vcs()).map(move |vc| self.ivc(self.slot(port, vc)))
    }

    /// Credits toward the downstream input VC behind output VC `slot`.
    #[inline]
    pub fn credits(&self, slot: usize) -> usize {
        usize::from(self.credits[slot])
    }

    /// The input VC slot holding output VC `slot`.
    #[inline]
    pub fn out_alloc(&self, slot: usize) -> Option<usize> {
        let holder = self.out_alloc[slot];
        (holder != OUT_FREE).then_some(usize::from(holder))
    }

    /// Write `flit` at the back of input VC `slot`'s FIFO. Its hop count is
    /// the VC's ([`note_vc_occupied`](Self::note_vc_occupied)).
    #[inline]
    pub fn push_flit(&mut self, slot: usize, flit: RingFlit) {
        let stripe = self.stripe(slot);
        let ring = &mut self.slab[stripe];
        self.inputs[slot].push(ring, flit);
    }

    /// Take the front flit record of input VC `slot`'s FIFO, with the hop
    /// count of the packet holding the VC (`None` when the VC is empty or
    /// unheld).
    #[inline]
    pub(crate) fn pop_flit(&mut self, slot: usize) -> Option<(RingFlit, u32)> {
        let ring = &self.slab[self.stripe(slot)];
        let ivc = &mut self.inputs[slot];
        let hops = ivc.hops()?;
        Some((ivc.pop(ring)?, hops))
    }

    /// Move input VC `slot` to pipeline state `state` — the only writer of
    /// `routed_bits` / `active_bits`.
    #[inline]
    pub fn set_vc_state(&mut self, slot: usize, state: VcState) {
        let bit = 1u64 << slot;
        self.inputs[slot].set_state(state);
        self.routed_bits &= !bit;
        self.active_bits &= !bit;
        match state {
            VcState::Idle => {}
            VcState::Routed { .. } => self.routed_bits |= bit,
            VcState::Active { .. } => self.active_bits |= bit,
        }
    }

    /// Record that input VC `slot` transitioned unoccupied → occupied by
    /// `packet` of application `app`, which has traversed `hops` links (its
    /// head is about to be written): the VC's handle and hop count.
    #[inline]
    pub fn note_vc_occupied(&mut self, slot: usize, packet: PacketRef, app: AppId, hops: u32) {
        let bit = 1u64 << slot;
        debug_assert_eq!(self.occ_bits & bit, 0);
        self.inputs[slot].hold(packet, app, hops);
        self.occ_bits |= bit;
        if self.is_native(app) {
            self.native_bits |= bit;
        }
    }

    /// Record that input VC `slot` transitioned occupied → unoccupied (its
    /// tail departed): back to idle, with no handle and an empty ring.
    #[inline]
    pub fn note_vc_freed(&mut self, slot: usize) {
        let bit = 1u64 << slot;
        debug_assert_ne!(self.occ_bits & bit, 0);
        self.inputs[slot].reset();
        self.occ_bits &= !bit;
        self.native_bits &= !bit;
        self.routed_bits &= !bit;
        self.active_bits &= !bit;
    }

    /// Consume one credit toward the downstream VC behind output VC `slot`,
    /// keeping the credit bitmaps coherent. The local port never consumes
    /// credits.
    #[inline]
    pub fn take_credit(&mut self, slot: usize) {
        let bit = 1u64 << slot;
        let c = &mut self.credits[slot];
        debug_assert!(*c > 0);
        *c -= 1;
        let empty = *c == 0;
        self.credits_full &= !bit;
        if empty {
            self.credits_avail &= !bit;
        }
    }

    /// Return one credit from the downstream VC behind output VC `slot`.
    #[inline]
    pub fn return_credit(&mut self, slot: usize) {
        let bit = 1u64 << slot;
        let c = &mut self.credits[slot];
        *c += 1;
        debug_assert!(*c <= self.vc_depth);
        let full = *c == self.vc_depth;
        self.credits_avail |= bit;
        if full {
            self.credits_full |= bit;
        }
    }

    /// Grant output VC `slot` to the input VC in slot `holder`.
    #[inline]
    pub fn alloc_out_vc(&mut self, slot: usize, holder: usize) {
        debug_assert_eq!(self.out_alloc[slot], OUT_FREE);
        self.out_alloc[slot] = byte(holder);
        self.out_free &= !(1u64 << slot);
    }

    /// Release output VC `slot` (tail departed through the crossbar).
    #[inline]
    pub fn release_out_vc(&mut self, slot: usize) {
        debug_assert_ne!(self.out_alloc[slot], OUT_FREE);
        self.out_alloc[slot] = OUT_FREE;
        self.out_free |= 1u64 << slot;
    }

    /// Mask of output VCs a new packet may be allocated: no holder AND the
    /// downstream buffer fully drained (atomic VCs, Table 1). Local-port
    /// bits are exact because local credits are never consumed.
    #[inline]
    pub fn allocatable_mask(&self) -> u64 {
        self.out_free & self.credits_full
    }

    /// The seven incremental bitmaps, in [`BITSET_NAMES`] order.
    pub fn bitsets(&self) -> [u64; 7] {
        [
            self.occ_bits,
            self.out_free,
            self.credits_full,
            self.credits_avail,
            self.native_bits,
            self.routed_bits,
            self.active_bits,
        ]
    }

    /// Recompute all seven bitmaps by exhaustive scan (the slow definition
    /// the incremental ones must always agree with), in [`BITSET_NAMES`]
    /// order.
    pub fn recount_bitsets(&self) -> [u64; 7] {
        let [mut occ, mut free, mut full, mut avail] = [0u64; 4];
        let [mut native, mut routed, mut active] = [0u64; 3];
        for slot in 0..self.inputs.len() {
            let bit = 1u64 << slot;
            let ivc = &self.inputs[slot];
            if ivc.occupied() {
                occ |= bit;
            }
            if ivc.holder().is_some_and(|app| self.is_native(app)) {
                native |= bit;
            }
            match ivc.state() {
                VcState::Idle => {}
                VcState::Routed { .. } => routed |= bit,
                VcState::Active { .. } => active |= bit,
            }
            if self.out_alloc[slot] == OUT_FREE {
                free |= bit;
            }
            if self.credits[slot] == self.vc_depth {
                full |= bit;
            }
            if self.credits[slot] > 0 {
                avail |= bit;
            }
        }
        [occ, free, full, avail, native, routed, active]
    }

    /// Compare every piece of incremental bookkeeping — the seven bitmaps,
    /// the ring cursors and the occupied ⇔ handle rule — against the
    /// slow scan; `Some(description)` of the first disagreement. Skipping a
    /// router or a VC on the strength of a bitmap is sound exactly while
    /// this returns `None` (checked every debug tick and by the oracle's
    /// wormhole checker).
    pub fn bookkeeping_drift(&self) -> Option<String> {
        let (have, want) = (self.bitsets(), self.recount_bitsets());
        if let Some(i) = (0..have.len()).find(|&i| have[i] != want[i]) {
            return Some(format!(
                "{} {:#x} drifted from recount {:#x}",
                BITSET_NAMES[i], have[i], want[i]
            ));
        }
        self.inputs.iter().enumerate().find_map(|(slot, ivc)| {
            let at = self.port_vc(slot);
            if !ivc.cursor_in_bounds(self.vc_depth()) {
                Some(format!("input {at:?}: ring cursor out of bounds ({ivc:?})"))
            } else if ivc.occupied() != ivc.packet.is_some() {
                Some(format!(
                    "input {at:?}: holder {:?} disagrees with occupancy {}",
                    ivc.holder(),
                    ivc.occupied()
                ))
            } else {
                None
            }
        })
    }

    /// Is `app` native traffic at this router? Unassigned routers treat all
    /// traffic as native (no discrimination).
    #[inline]
    pub fn is_native(&self, app: AppId) -> bool {
        self.app == APP_NONE || self.app == app
    }

    /// Is there a credit available to forward one flit on output VC
    /// `slot`? The local port's slots, the first `vcs` (`PORT_LOCAL` is 0),
    /// always have one.
    #[inline]
    pub fn has_credit(&self, slot: usize) -> bool {
        slot < self.vcs() || self.credits_avail >> slot & 1 != 0
    }

    /// Occupied input VCs, split into (native, foreign) with respect to
    /// this router's region tag. Feeds the DPA registers: the paper counts
    /// *all* VCs in the router, not just one port, to tolerate non-uniform
    /// per-port status (§IV.C).
    #[inline]
    pub fn count_occupancy(&self) -> (u32, u32) {
        let native = (self.occ_bits & self.native_bits).count_ones();
        (native, self.occ_bits.count_ones() - native)
    }

    /// Number of occupied *adaptive* input VCs — the congestion metric
    /// exported to congestion-aware routing (local and DBAR selection).
    #[inline]
    pub fn adaptive_occupancy(&self) -> u16 {
        (self.occ_bits & self.adaptive_mask).count_ones() as u16
    }

    /// Occupied adaptive input VCs split by regional/global tag.
    pub fn tag_occupancy(&self, cfg: &SimConfig) -> (u16, u16) {
        let (mut regional, mut global) = (0u64, 0u64);
        for vc in cfg.adaptive_vc_range() {
            match cfg.vc_class(vc).tag() {
                Some(VcTag::Regional) => regional |= 1 << vc,
                Some(VcTag::Global) => global |= 1 << vc,
                None => {}
            }
        }
        let count = |m: u64| (self.occ_bits & self.every_port(m)).count_ones() as u16;
        (count(regional), count(global))
    }

    /// Total flits buffered in this router's input VCs (conservation checks).
    pub fn buffered_flits(&self) -> usize {
        (0..self.inputs.len()).map(|s| self.ivc(s).len()).sum()
    }

    /// True when the router holds no packets at all.
    pub fn is_idle(&self) -> bool {
        self.inputs.iter().all(|vc| !vc.occupied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitKind, PacketInfo, PacketTable};
    use crate::ids::PORT_LOCAL;
    use crate::topology::TopologyKind;
    use std::mem::size_of_val;

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    fn mk() -> Router {
        let c = cfg();
        Router::new(&c, 9, c.coord_of(9), 1)
    }

    /// The bit of VC `(port, vc)` in `r`'s bitmaps.
    fn bit(r: &Router, port: Port, vc: usize) -> u64 {
        1 << r.slot(port, vc)
    }

    /// Mask of all valid VC slots of `r`.
    fn valid_vc_mask(r: &Router) -> u64 {
        low_bits(NUM_PORTS * r.vcs())
    }

    /// A single-flit packet of `app` in input VC `(port, vc)`. Router state
    /// names the packet by handle only, so the table it came from can go.
    fn put_flit(r: &mut Router, port: Port, vc: usize, app: AppId) {
        let info = PacketInfo {
            id: 0,
            src: 0,
            dst: 9,
            app,
            class: 0,
            size: 1,
            birth: 0,
            inject: 0,
            reply: None,
        };
        let packet = PacketTable::default().insert(info);
        r.note_vc_occupied(r.slot(port, vc), packet, app, 0);
        r.push_flit(r.slot(port, vc), RingFlit::of(&Flit::nth(info, 0), packet));
    }

    /// A Table-1 router's state (25 VC slots of depth 5), pinned so that a
    /// new or wider field cannot regrow it unnoticed; peak RSS on large
    /// meshes is mostly this times the router count.
    #[test]
    fn table1_router_state_is_pinned() {
        let r = mk();
        assert_eq!((r.inputs.len(), r.slab.len()), (25, 125));
        assert_eq!(size_of::<RingFlit>(), 8);
        assert_eq!(size_of::<InputVc>(), 16);
        // One byte a slot for each of `out_alloc`, `credits` and `va_ptr`.
        assert_eq!(size_of_val(&*r.out_alloc) + size_of_val(&*r.credits), 50);
        assert_eq!(r.heap_bytes(), 1_651);
    }

    /// A 2-class torus router (40 VC slots: two dateline lanes per class
    /// plus the four adaptive VCs on each port, depth 5) at its byte count.
    #[test]
    fn torus_router_state_is_pinned() {
        let c = SimConfig {
            topology: TopologyKind::Torus,
            num_classes: 2,
            ..cfg()
        };
        c.validate().expect("2-class torus validates");
        let r = Router::new(&c, 0, c.coord_of(0), 0);
        assert_eq!((r.inputs.len(), r.slab.len()), (40, 200));
        assert_eq!(r.heap_bytes(), 2_536);
    }

    /// The byte-wide tables read back through the accessors' wide types:
    /// every holder slot of the densest legal layout, and credit counts at
    /// the deepest legal VC.
    #[test]
    fn byte_tables_round_trip_through_the_accessors() {
        let c = SimConfig {
            topology: crate::topology::TopologyKind::Torus,
            num_classes: 4,
            vc_depth: crate::config::MAX_VC_DEPTH,
            long_flits: 5,
            ..SimConfig::table1()
        };
        c.validate().expect("densest, deepest layout validates");
        let mut r = Router::new(&c, 0, c.coord_of(0), 0);
        let slots = NUM_PORTS * c.vcs_per_port();
        for s in 0..slots {
            let (out, holder) = (s, slots - 1 - s);
            assert_eq!(r.out_alloc(out), None);
            r.alloc_out_vc(out, holder);
            assert_eq!(r.out_alloc(out), Some(holder));
        }
        assert_eq!(r.out_free, 0);
        assert_eq!(r.credits(r.slot(1, 0)), 255);
        for left in (0..255).rev() {
            r.take_credit(r.slot(1, 0));
            assert_eq!(r.credits(r.slot(1, 0)), left);
        }
        for _ in 0..255 {
            r.return_credit(r.slot(1, 0));
        }
        assert_eq!(r.credits(r.slot(1, 0)), 255);
        assert_eq!(r.bookkeeping_drift(), None);
    }

    #[test]
    fn max_radix_vc_bitmaps_stay_in_word_bounds() {
        // The densest legal VC layout: a 4-class torus (8 escape lanes per
        // port) plus 4 adaptive VCs → 12 VCs/port, 60 of the 64 u64 slots
        // used. Every bitset must come from `low_bits` (no `1 << 64`-class
        // overflow) and the top unused bits must stay clear.
        let c = SimConfig {
            topology: crate::topology::TopologyKind::Torus,
            num_classes: 4,
            adaptive_vcs: 4,
            regional_vcs: 2,
            ..SimConfig::table1()
        };
        c.validate().expect("densest layout must validate");
        assert_eq!(c.vcs_per_port(), 12);
        assert_eq!(NUM_PORTS * c.vcs_per_port(), 60);
        let r = Router::new(&c, 0, c.coord_of(0), 0);
        assert_eq!(r.out_free, valid_vc_mask(&r));
        assert_eq!(r.credits_full, valid_vc_mask(&r));
        assert_eq!(r.adaptive_mask & !valid_vc_mask(&r), 0);
        assert_eq!(r.adaptive_mask.count_ones(), 20);
        // The highest valid slot is bit 59; its single-bit mask is exact.
        assert_eq!(bit(&r, NUM_PORTS - 1, c.vcs_per_port() - 1), 1u64 << 59);

        // One more adaptive VC would need 65 slots — validate must reject
        // it rather than let a mask construction overflow at runtime.
        let over = SimConfig {
            adaptive_vcs: 5,
            ..c
        };
        assert!(over.validate().is_err());
    }

    #[test]
    fn fresh_router_full_credits_and_idle() {
        let r = mk();
        let c = cfg();
        assert!(r.is_idle());
        assert_eq!(r.allocatable_mask(), valid_vc_mask(&r));
        for p in 0..NUM_PORTS {
            for v in 0..c.vcs_per_port() {
                assert!(r.has_credit(r.slot(p, v)));
                assert_eq!(r.credits(r.slot(p, v)), c.vc_depth);
                assert!(r.out_alloc(r.slot(p, v)).is_none());
            }
        }
        assert_eq!(r.count_occupancy(), (0, 0));
        assert_eq!(r.adaptive_occupancy(), 0);
        assert_eq!(r.bookkeeping_drift(), None);
    }

    #[test]
    fn native_foreign_occupancy_split() {
        let mut r = mk();
        put_flit(&mut r, 1, 1, 1); // native (router app = 1)
        put_flit(&mut r, 2, 2, 0); // foreign
        put_flit(&mut r, 3, 3, 2); // foreign
        assert_eq!(r.count_occupancy(), (1, 2));
        assert!(!r.is_idle());
    }

    #[test]
    fn unassigned_router_counts_all_native() {
        let c = cfg();
        let mut r = Router::new(&c, 0, c.coord_of(0), APP_NONE);
        put_flit(&mut r, 1, 1, 0);
        put_flit(&mut r, 2, 2, 5);
        assert_eq!(r.count_occupancy(), (2, 0));
    }

    #[test]
    fn atomic_reallocation_gate() {
        let mut r = mk();
        // A partially drained downstream buffer blocks reallocation…
        r.take_credit(r.slot(1, 2));
        assert_eq!(r.allocatable_mask() & bit(&r, 1, 2), 0);
        r.return_credit(r.slot(1, 2));
        assert_ne!(r.allocatable_mask() & bit(&r, 1, 2), 0);
        // …and so does a holder.
        r.alloc_out_vc(r.slot(1, 2), r.slot(0, 0));
        assert_eq!(r.allocatable_mask() & bit(&r, 1, 2), 0);
    }

    #[test]
    fn local_port_always_has_credit() {
        let mut r = mk();
        let c = cfg();
        for _ in 0..c.vc_depth {
            r.take_credit(r.slot(PORT_LOCAL, 0));
            r.take_credit(r.slot(1, 0));
        }
        assert!(r.has_credit(r.slot(PORT_LOCAL, 0)));
        assert!(!r.has_credit(r.slot(1, 0)));
    }

    #[test]
    fn bitsets_track_transitions() {
        let mut r = mk();
        let c = cfg();
        assert_eq!(r.bookkeeping_drift(), None);
        assert_eq!(r.occ_bits, 0);
        assert_eq!(r.out_free, valid_vc_mask(&r));

        put_flit(&mut r, 1, 2, 0);
        put_flit(&mut r, 3, 0, 1);
        assert_eq!(r.occ_bits, bit(&r, 1, 2) | bit(&r, 3, 0));
        assert_eq!(r.native_bits, bit(&r, 3, 0));

        // Walk one VC through the pipeline states.
        r.set_vc_state(r.slot(1, 2), VcState::routed([Some(2), None], 2, 0));
        assert_eq!((r.routed_bits, r.active_bits), (bit(&r, 1, 2), 0));
        r.set_vc_state(r.slot(1, 2), VcState::active(2, r.slot(2, 3)));
        assert_eq!((r.routed_bits, r.active_bits), (0, bit(&r, 1, 2)));

        // Allocate an output VC and drain the downstream buffer by one.
        r.alloc_out_vc(r.slot(2, 3), r.slot(1, 2));
        r.take_credit(r.slot(2, 3));
        assert_eq!(r.allocatable_mask() & bit(&r, 2, 3), 0);
        assert_ne!(r.credits_avail & bit(&r, 2, 3), 0);
        assert_eq!(r.bookkeeping_drift(), None);

        // Drain to zero credits: availability bit clears too.
        for _ in 1..c.vc_depth {
            r.take_credit(r.slot(2, 3));
        }
        assert_eq!(r.credits_avail & bit(&r, 2, 3), 0);
        assert!(!r.has_credit(r.slot(2, 3)));

        // Return everything and release: slot becomes allocatable again.
        for _ in 0..c.vc_depth {
            r.return_credit(r.slot(2, 3));
        }
        r.release_out_vc(r.slot(2, 3));
        assert_ne!(r.allocatable_mask() & bit(&r, 2, 3), 0);
        assert_eq!(
            r.pop_flit(r.slot(1, 2)).map(|(f, _)| f.kind),
            Some(FlitKind::Single)
        );
        r.note_vc_freed(r.slot(1, 2));
        assert_eq!(r.occ_bits, bit(&r, 3, 0));
        assert_eq!(r.active_bits, 0);
        assert_eq!(r.ivc(r.slot(1, 2)).state(), VcState::Idle);
        assert_eq!(r.bookkeeping_drift(), None);
    }

    /// The slow recount really is independent of the incremental bitmaps:
    /// corrupting any one of them is reported by name.
    #[test]
    fn bookkeeping_drift_names_the_bitmap() {
        for (i, name) in BITSET_NAMES.iter().enumerate() {
            let mut r = mk();
            put_flit(&mut r, 1, 2, 1);
            let field = [
                &mut r.occ_bits,
                &mut r.out_free,
                &mut r.credits_full,
                &mut r.credits_avail,
                &mut r.native_bits,
                &mut r.routed_bits,
                &mut r.active_bits,
            ];
            *field.into_iter().nth(i).unwrap() ^= 1 << 7;
            let drift = r.bookkeeping_drift().expect("corruption goes unnoticed");
            assert!(drift.starts_with(name), "{drift}");
        }
    }

    #[test]
    fn holder_classifies_drained_active_vc() {
        // The DPA registers must keep counting a VC whose flits all moved
        // on (tail still upstream) — the case the buggy holder lookup lost.
        let mut r = mk(); // router app = 1
        put_flit(&mut r, 2, 1, 0); // foreign
        r.set_vc_state(r.slot(2, 1), VcState::active(1, r.slot(1, 0)));
        r.pop_flit(r.slot(2, 1)); // flits forwarded, VC still held
        assert_eq!(r.count_occupancy(), (0, 1));
    }

    #[test]
    fn adaptive_occupancy_ignores_escape_vcs() {
        let mut r = mk();
        let c = cfg();
        put_flit(&mut r, 1, c.escape_vc(0), 0); // escape VC
        assert_eq!(r.adaptive_occupancy(), 0);
        put_flit(&mut r, 1, c.adaptive_vc_range().start, 0);
        assert_eq!(r.adaptive_occupancy(), 1);
        assert_eq!(r.tag_occupancy(&c), (1, 0));
    }
}
