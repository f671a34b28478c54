//! The pipelined virtual-channel router.
//!
//! State only — the pipeline stages themselves are driven by
//! [`crate::network::Network`], which owns all routers and moves flits
//! between them. Each router holds:
//!
//! * per-input-port VC buffers and their pipeline state,
//! * output-VC allocation table and credit counters toward downstream,
//! * rotating-arbiter pointers for VA_out, SA_in and SA_out,
//! * the DPA occupancy registers (`OVC_n`, `OVC_f`) and the hysteresis
//!   priority bit of §IV.C — maintained generically, consumed by the RAIR
//!   policy.

use crate::bits::low_bits;
use crate::config::SimConfig;
use crate::ids::{AppId, Coord, NodeId, Port, APP_NONE, NUM_PORTS, PORT_LOCAL};
use crate::vc::{InputVc, VcState};

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

    /// Input VCs, `inputs[port][vc]`.
    pub inputs: Vec<Vec<InputVc>>,
    /// Output-VC allocation: `out_alloc[port][vc] = Some((in_port, in_vc))`
    /// while a packet holds the output VC.
    pub out_alloc: Vec<Vec<Option<(Port, usize)>>>,
    /// Credits toward the downstream input VC, `credits[port][vc]`.
    /// The local (ejection) port has effectively infinite credit.
    pub credits: Vec<Vec<usize>>,

    /// VA_out rotating pointer, one per output VC (flattened `port*V+vc`),
    /// rotating over input-VC keys (flattened `in_port*V+in_vc`).
    pub va_ptr: Vec<usize>,
    /// SA_in rotating pointer per input port (over VC indices).
    pub sa_in_ptr: Vec<usize>,
    /// SA_out rotating pointer per output port (over input-port indices).
    pub sa_out_ptr: Vec<usize>,

    /// Consecutive cycles each routed (Active) input VC has held a head
    /// flit without moving it through the crossbar — whether it lost
    /// arbitration or was credit-starved — flattened `port * vcs + vc`.
    /// Maintained by the SA phase only while the oracle observes the run
    /// (`PhaseOut::record_notes`) — the starvation observer's raw signal,
    /// never read by the kernel itself.
    pub arb_wait: Vec<u32>,

    /// DPA register: occupied VCs holding native traffic (previous cycle).
    pub ovc_native: u32,
    /// DPA register: occupied VCs holding foreign traffic (previous cycle).
    pub ovc_foreign: u32,
    /// DPA hysteresis output: `true` = native traffic currently has the
    /// high priority. Defaults to `false` — foreign-high is the DPA default
    /// (§IV.C case 3).
    pub dpa_native_high: bool,

    // --- Active-set occupancy summary (maintained incrementally by the
    // network at the only two occupancy transition points: head written
    // into an empty idle VC, tail departed through the crossbar).
    /// Occupied input VCs per input port.
    pub occ_port: [u16; NUM_PORTS],
    /// Total occupied input VCs (sum of `occ_port`). Zero ⇔ the router has
    /// no RC/VA/SA work and the per-cycle kernel may skip it entirely.
    pub occ_vcs: u16,
    /// Set whenever a VC changed occupancy since the last per-cycle state
    /// update; while clear, the DPA registers and the congestion export
    /// cannot change, so the update may be skipped.
    pub occ_dirty: bool,

    // --- Bitset hot-path state. One bit per VC slot, flattened
    // `port * vcs + vc` (config validation guarantees this fits in a u64).
    // Maintained at the same transition points as the summaries above, so
    // the oracle hooks double as coherence checkpoints.
    /// VCs per port (cached from config; the bit-flattening stride).
    pub(crate) vcs: usize,
    /// Downstream buffer depth (cached from config; full-credit threshold).
    pub(crate) vc_depth: usize,
    /// Bit set ⇔ the input VC is occupied. SA/VA/RC candidate enumeration
    /// iterates these bits instead of scanning `inputs`.
    pub occ_bits: u64,
    /// Bit set ⇔ the output VC has no holder (`out_alloc[..] == None`).
    pub out_free: u64,
    /// Bit set ⇔ all credits returned (`credits == vc_depth`) — the atomic
    /// reallocation gate. Local-port bits are always set (infinite credit).
    pub credits_full: u64,
    /// Bit set ⇔ at least one credit available (`credits > 0`). Local-port
    /// bits are always set.
    pub credits_avail: u64,
}

impl Router {
    /// Create an idle router with full credits.
    pub fn new(cfg: &SimConfig, id: NodeId, coord: Coord, app: AppId) -> Self {
        let v = cfg.vcs_per_port();
        // `validate()` caps NUM_PORTS * vcs_per_port() at 64, so the checked
        // helper is exact (the old `>= 64 ? !0` branch silently saturated).
        let valid = low_bits(NUM_PORTS * v);
        Self {
            id,
            coord,
            app,
            inputs: (0..NUM_PORTS)
                .map(|_| (0..v).map(|_| InputVc::new(cfg.vc_depth)).collect())
                .collect(),
            out_alloc: vec![vec![None; v]; NUM_PORTS],
            credits: vec![vec![cfg.vc_depth; v]; NUM_PORTS],
            va_ptr: vec![0; NUM_PORTS * v],
            sa_in_ptr: vec![0; NUM_PORTS],
            sa_out_ptr: vec![0; NUM_PORTS],
            arb_wait: vec![0; NUM_PORTS * v],
            ovc_native: 0,
            ovc_foreign: 0,
            dpa_native_high: false,
            occ_port: [0; NUM_PORTS],
            occ_vcs: 0,
            // Start dirty so the first state update always runs.
            occ_dirty: true,
            vcs: v,
            vc_depth: cfg.vc_depth,
            occ_bits: 0,
            out_free: valid,
            credits_full: valid,
            credits_avail: valid,
        }
    }

    /// The bit representing VC slot `(port, vc)` in the flattened bitsets.
    #[inline]
    pub fn vc_bit(&self, port: Port, vc: usize) -> u64 {
        debug_assert!(vc < self.vcs);
        1u64 << (port * self.vcs + vc)
    }

    /// Mask of all valid VC slots (low `NUM_PORTS * vcs` bits).
    #[inline]
    pub fn valid_vc_mask(&self) -> u64 {
        low_bits(NUM_PORTS * self.vcs)
    }

    /// Record that input VC `(port, vc)` transitioned unoccupied → occupied.
    #[inline]
    pub fn note_vc_occupied(&mut self, port: Port, vc: usize) {
        debug_assert_eq!(self.occ_bits & self.vc_bit(port, vc), 0);
        self.occ_port[port] += 1;
        self.occ_vcs += 1;
        self.occ_bits |= self.vc_bit(port, vc);
        self.occ_dirty = true;
    }

    /// Record that input VC `(port, vc)` transitioned occupied → unoccupied.
    #[inline]
    pub fn note_vc_freed(&mut self, port: Port, vc: usize) {
        debug_assert!(self.occ_port[port] > 0 && self.occ_vcs > 0);
        debug_assert_ne!(self.occ_bits & self.vc_bit(port, vc), 0);
        self.occ_port[port] -= 1;
        self.occ_vcs -= 1;
        self.occ_bits &= !self.vc_bit(port, vc);
        self.occ_dirty = true;
    }

    /// Consume one credit toward downstream `(port, vc)`, keeping the
    /// credit bitmaps coherent. The local port never consumes credits.
    #[inline]
    pub fn take_credit(&mut self, port: Port, vc: usize) {
        let bit = self.vc_bit(port, vc);
        let c = &mut self.credits[port][vc];
        debug_assert!(*c > 0);
        *c -= 1;
        let empty = *c == 0;
        self.credits_full &= !bit;
        if empty {
            self.credits_avail &= !bit;
        }
    }

    /// Return one credit from downstream `(port, vc)`.
    #[inline]
    pub fn return_credit(&mut self, port: Port, vc: usize) {
        let bit = self.vc_bit(port, vc);
        let c = &mut self.credits[port][vc];
        *c += 1;
        debug_assert!(*c <= self.vc_depth);
        let full = *c == self.vc_depth;
        self.credits_avail |= bit;
        if full {
            self.credits_full |= bit;
        }
    }

    /// Grant output VC `(port, vc)` to `holder = (in_port, in_vc)`.
    #[inline]
    pub fn alloc_out_vc(&mut self, port: Port, vc: usize, holder: (Port, usize)) {
        debug_assert!(self.out_alloc[port][vc].is_none());
        self.out_alloc[port][vc] = Some(holder);
        self.out_free &= !self.vc_bit(port, vc);
    }

    /// Release output VC `(port, vc)` (tail departed through the crossbar).
    #[inline]
    pub fn release_out_vc(&mut self, port: Port, vc: usize) {
        debug_assert!(self.out_alloc[port][vc].is_some());
        self.out_alloc[port][vc] = None;
        self.out_free |= self.vc_bit(port, vc);
    }

    /// Mask of output VCs a new packet may be allocated: no holder AND the
    /// downstream buffer fully drained (atomic VCs). Local-port bits are
    /// exact because local credits are never consumed.
    #[inline]
    pub fn allocatable_mask(&self) -> u64 {
        self.out_free & self.credits_full
    }

    /// Recompute all four bitsets by exhaustive scan (the slow definition
    /// the incremental bitmaps must always agree with). Returns
    /// `(occ_bits, out_free, credits_full, credits_avail)`.
    pub fn recount_bitsets(&self) -> (u64, u64, u64, u64) {
        let mut occ = 0u64;
        let mut free = 0u64;
        let mut full = 0u64;
        let mut avail = 0u64;
        for port in 0..NUM_PORTS {
            for vc in 0..self.vcs {
                let bit = 1u64 << (port * self.vcs + vc);
                if self.inputs[port][vc].occupied() {
                    occ |= bit;
                }
                if self.out_alloc[port][vc].is_none() {
                    free |= bit;
                }
                if self.credits[port][vc] == self.vc_depth {
                    full |= bit;
                }
                if self.credits[port][vc] > 0 {
                    avail |= bit;
                }
            }
        }
        (occ, free, full, avail)
    }

    /// Recompute the occupancy summary by exhaustive scan (the slow way the
    /// incremental counters must always agree with).
    pub fn recount_occupancy_summary(&self) -> ([u16; NUM_PORTS], u16) {
        let mut per_port = [0u16; NUM_PORTS];
        let mut total = 0u16;
        for (port, vcs) in self.inputs.iter().enumerate() {
            for ivc in vcs {
                if ivc.occupied() {
                    per_port[port] += 1;
                    total += 1;
                }
            }
        }
        (per_port, total)
    }

    /// Is `app` native traffic at this router? Unassigned routers treat all
    /// traffic as native (no discrimination).
    #[inline]
    pub fn is_native(&self, app: AppId) -> bool {
        self.app == APP_NONE || self.app == app
    }

    /// Can output VC `(port, vc)` be allocated to a new packet? Atomic VCs
    /// (Table 1) are only reallocated when the downstream buffer is fully
    /// drained (all credits returned) and the previous holder released it.
    #[inline]
    pub fn out_vc_allocatable(&self, cfg: &SimConfig, port: Port, vc: usize) -> bool {
        self.out_alloc[port][vc].is_none()
            && (port == PORT_LOCAL || self.credits[port][vc] == cfg.vc_depth)
    }

    /// Is there a credit available to forward one flit on `(port, vc)`?
    #[inline]
    pub fn has_credit(&self, port: Port, vc: usize) -> bool {
        port == PORT_LOCAL || self.credits[port][vc] > 0
    }

    /// Count occupied input VCs, split into (native, foreign) with respect
    /// to this router's region tag. Feeds the DPA registers: the paper
    /// counts *all* VCs in the router, not just one port, to tolerate
    /// non-uniform per-port status (§IV.C).
    pub fn count_occupancy(&self) -> (u32, u32) {
        let mut native = 0;
        let mut foreign = 0;
        for vcs in &self.inputs {
            for ivc in vcs {
                if !ivc.occupied() {
                    continue;
                }
                if let Some(a) = ivc.holder_app() {
                    if self.is_native(a) {
                        native += 1;
                    } else {
                        foreign += 1;
                    }
                }
            }
        }
        (native, foreign)
    }

    /// Number of occupied *adaptive* input VCs — the congestion metric
    /// exported to congestion-aware routing (local and DBAR selection).
    pub fn adaptive_occupancy(&self, cfg: &SimConfig) -> u16 {
        let mut n = 0;
        for vcs in &self.inputs {
            for vc in cfg.adaptive_vc_range() {
                if vcs[vc].occupied() {
                    n += 1;
                }
            }
        }
        n
    }

    /// Occupied adaptive input VCs split by regional/global tag.
    pub fn tag_occupancy(&self, cfg: &SimConfig) -> (u16, u16) {
        let mut regional = 0;
        let mut global = 0;
        for vcs in &self.inputs {
            for vc in cfg.adaptive_vc_range() {
                if vcs[vc].occupied() {
                    match cfg.vc_class(vc) {
                        crate::vc::VcClass::Adaptive {
                            tag: crate::vc::VcTag::Regional,
                        } => regional += 1,
                        crate::vc::VcClass::Adaptive {
                            tag: crate::vc::VcTag::Global,
                        } => global += 1,
                        crate::vc::VcClass::Escape { .. } => {}
                    }
                }
            }
        }
        (regional, global)
    }

    /// Total flits buffered in this router's input VCs (conservation checks).
    pub fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|vcs| vcs.iter())
            .map(|vc| vc.buf.len())
            .sum()
    }

    /// True when the router holds no packets at all.
    pub fn is_idle(&self) -> bool {
        self.inputs
            .iter()
            .flat_map(|vcs| vcs.iter())
            .all(|vc| !vc.occupied() && vc.state == VcState::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitKind, PacketInfo};

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    fn mk() -> Router {
        let c = cfg();
        Router::new(&c, 9, c.coord_of(9), 1)
    }

    fn put_flit(r: &mut Router, port: Port, vc: usize, app: AppId) {
        r.inputs[port][vc].buf.push_back(Flit {
            kind: FlitKind::Single,
            seq: 0,
            hops: 0,
            payload: 0,
            crc: crate::flit::crc16(0),
            info: PacketInfo {
                id: 0,
                src: 0,
                dst: 9,
                app,
                class: 0,
                size: 1,
                birth: 0,
                inject: 0,
                reply: None,
            },
        });
        r.inputs[port][vc].holder = Some(app);
        r.note_vc_occupied(port, vc);
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
        assert_eq!(r.valid_vc_mask(), crate::bits::low_bits(60));
        assert_eq!(r.valid_vc_mask().count_ones(), 60);
        assert_eq!(r.out_free, r.valid_vc_mask());
        assert_eq!(r.credits_full, r.valid_vc_mask());
        // The highest valid slot is bit 59; its single-bit mask is exact.
        assert_eq!(r.vc_bit(NUM_PORTS - 1, c.vcs_per_port() - 1), 1u64 << 59);

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
        for p in 0..NUM_PORTS {
            for v in 0..c.vcs_per_port() {
                assert!(r.out_vc_allocatable(&c, p, v));
                assert!(r.has_credit(p, v));
            }
        }
        assert_eq!(r.count_occupancy(), (0, 0));
        assert_eq!(r.adaptive_occupancy(&c), 0);
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
        let c = cfg();
        // Simulate a partially drained downstream buffer.
        r.credits[1][2] = c.vc_depth - 1;
        assert!(!r.out_vc_allocatable(&c, 1, 2));
        r.credits[1][2] = c.vc_depth;
        assert!(r.out_vc_allocatable(&c, 1, 2));
        r.out_alloc[1][2] = Some((0, 0));
        assert!(!r.out_vc_allocatable(&c, 1, 2));
    }

    #[test]
    fn local_port_always_has_credit() {
        let mut r = mk();
        r.credits[PORT_LOCAL][0] = 0;
        assert!(r.has_credit(PORT_LOCAL, 0));
        assert!(!{
            r.credits[1][0] = 0;
            r.has_credit(1, 0)
        });
    }

    #[test]
    fn occupancy_summary_tracks_transitions() {
        let mut r = mk();
        assert_eq!(r.recount_occupancy_summary(), (r.occ_port, r.occ_vcs));
        assert!(r.occ_dirty, "fresh router must start dirty");
        r.occ_dirty = false;
        put_flit(&mut r, 1, 0, 1);
        put_flit(&mut r, 1, 2, 0);
        put_flit(&mut r, 3, 1, 2);
        assert_eq!(r.occ_vcs, 3);
        assert_eq!(r.occ_port[1], 2);
        assert_eq!(r.occ_port[3], 1);
        assert!(r.occ_dirty);
        assert_eq!(r.recount_occupancy_summary(), (r.occ_port, r.occ_vcs));
        // Free one back down and re-check agreement with the slow scan.
        r.inputs[1][0].buf.clear();
        r.inputs[1][0].holder = None;
        r.note_vc_freed(1, 0);
        assert_eq!(r.occ_vcs, 2);
        assert_eq!(r.recount_occupancy_summary(), (r.occ_port, r.occ_vcs));
    }

    #[test]
    fn bitsets_track_transitions() {
        let mut r = mk();
        let c = cfg();
        assert_eq!(
            r.recount_bitsets(),
            (r.occ_bits, r.out_free, r.credits_full, r.credits_avail)
        );
        assert_eq!(r.occ_bits, 0);
        assert_eq!(r.out_free, r.valid_vc_mask());

        put_flit(&mut r, 1, 2, 0);
        put_flit(&mut r, 3, 0, 1);
        assert_eq!(r.occ_bits, r.vc_bit(1, 2) | r.vc_bit(3, 0));

        // Allocate an output VC and drain the downstream buffer by one.
        r.alloc_out_vc(2, 3, (1, 2));
        r.take_credit(2, 3);
        assert!(!r.out_vc_allocatable(&c, 2, 3));
        assert_eq!(r.allocatable_mask() & r.vc_bit(2, 3), 0);
        assert_ne!(r.credits_avail & r.vc_bit(2, 3), 0);
        assert_eq!(
            r.recount_bitsets(),
            (r.occ_bits, r.out_free, r.credits_full, r.credits_avail)
        );

        // Drain to zero credits: availability bit clears too.
        for _ in 1..c.vc_depth {
            r.take_credit(2, 3);
        }
        assert_eq!(r.credits_avail & r.vc_bit(2, 3), 0);
        assert!(!r.has_credit(2, 3));

        // Return everything and release: slot becomes allocatable again.
        for _ in 0..c.vc_depth {
            r.return_credit(2, 3);
        }
        r.release_out_vc(2, 3);
        assert_ne!(r.allocatable_mask() & r.vc_bit(2, 3), 0);
        r.inputs[1][2].buf.clear();
        r.inputs[1][2].holder = None;
        r.note_vc_freed(1, 2);
        assert_eq!(
            r.recount_bitsets(),
            (r.occ_bits, r.out_free, r.credits_full, r.credits_avail)
        );
    }

    #[test]
    fn holder_classifies_drained_active_vc() {
        // The DPA registers must keep counting a VC whose flits all moved
        // on (tail still upstream) — the case the buggy holder lookup lost.
        let mut r = mk(); // router app = 1
        put_flit(&mut r, 2, 1, 0); // foreign
        r.inputs[2][1].state = VcState::Active {
            out_port: 1,
            out_vc: 0,
        };
        r.inputs[2][1].buf.clear(); // flits forwarded, VC still held
        assert_eq!(r.count_occupancy(), (0, 1));
    }

    #[test]
    fn adaptive_occupancy_ignores_escape_vcs() {
        let mut r = mk();
        let c = cfg();
        put_flit(&mut r, 1, c.escape_vc(0), 0); // escape VC
        assert_eq!(r.adaptive_occupancy(&c), 0);
        put_flit(&mut r, 1, c.adaptive_vc_range().start, 0);
        assert_eq!(r.adaptive_occupancy(&c), 1);
    }
}
