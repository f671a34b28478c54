//! The network: owns all routers and NIs and drives the router pipeline.
//!
//! ## Cycle model
//!
//! Each [`Network::tick`] executes the pipeline phases in reverse-dataflow
//! order so that every stage has exactly one cycle of latency:
//!
//! 1. **LT/BW** — flits sent last cycle are written into downstream input
//!    buffers; credits sent last cycle are returned; ejected flits are
//!    consumed by the NIs (latency recording, reply scheduling).
//! 2. **SA (+ST)** — switch allocation: SA_in picks one VC per input port,
//!    SA_out one input port per output port; winners traverse the crossbar
//!    into the output link registers.
//! 3. **VA** — VC allocation: VA_in (routing selection, no contention) then
//!    VA_out (one winner per output VC).
//! 4. **RC** — route computation for head flits at the front of idle VCs.
//! 5. **Injection** — NIs release ready replies, ask the traffic source for
//!    new packets and stream one flit per node into the local input port.
//! 6. **State update** — DPA occupancy registers and hysteresis priority
//!    (consumed starting next cycle — the paper's one-cycle delay), and the
//!    congestion view exported to adaptive routing.
//!
//! A head flit arriving at cycle *t* thus departs at *t+3* when uncontended
//! (RC at *t*, VA at *t+1*, SA/ST at *t+2*, LT lands it downstream at *t+3*),
//! a 3-stage router plus single-cycle links.
//!
//! ## Active-set fast path
//!
//! Every RC/VA/SA candidate lives in an *occupied* input VC, and occupancy
//! changes at exactly two points: a head flit written into an empty idle VC
//! (arrival or injection) and a tail flit departing through the crossbar.
//! The network maintains, incrementally at those points, the routers'
//! occupancy bitmaps ([`Router::occ_bits`] and its siblings) and a
//! network-wide bitmask of non-empty routers; the SA, VA and RC phases then
//! walk the set bits of that mask (ascending, index order) and, inside a
//! router, the set bits of the bitmap naming the VCs in the state
//! the phase serves, and the end-of-cycle state update walks the set bits
//! of the dirty mask — routers whose inputs did not change are skipped
//! (unless the policy's update is not idempotent). A skipped router or VC
//! contributes no candidates and mutates no arbiter pointer, so the fast
//! path is bit-identical to a plain scan — enforced by
//! a debug-build self-check each cycle and by the tests' reference kernel
//! (the `reference` child module), which scans everything and reads none of
//! the masks ([`SimStats::router_cycles_skipped`] and
//! [`SimStats::state_updates_skipped`] count the elided work). The same
//! rule — pay only for what happens — holds off the router masks: the
//! injection phase visits only the nodes whose source promised an arrival
//! ([`TrafficSource::next_poll`]) and the NIs of the NI active set, and
//! SA/VA ask the policy for priorities only where two or more requests meet.
//!
//! A steady-state tick allocates nothing: arbitration request sets live on
//! the stack, the link, credit and ejection registers are drained in place,
//! all router state is preallocated and the packet table reserves its
//! bound (`tests/alloc_free_tick.rs`, and the
//! `alloc-in-hot-path` lint over the six phase bodies).
//!
//! [`TrafficSource::next_poll`]: crate::source::TrafficSource::next_poll

use crate::arbitration::{arbitrate_rr, arbitrate_rr_at, ArbReq, ArbStage, PriorityPolicy};
use crate::bits::{low_bits, set_bits};
use crate::config::SimConfig;
use crate::flit::{FlitKind, PacketInfo, PacketTable, RingFlit};
use crate::ids::{
    opposite, Coord, MsgClass, NodeId, Port, NUM_PORTS, PORT_EAST, PORT_LOCAL, PORT_NORTH,
    PORT_SOUTH, PORT_WEST,
};
use crate::node::Node;
use crate::oracle::{Checker, Fault, Oracle};
use crate::region::RegionMap;
use crate::router::Router;
use crate::routing::{RoutingAlgorithm, SelectCtx};
use crate::source::TrafficSource;
use crate::stats::SimStats;
use crate::topology::{has_link, minimal_hop, neighbor_router};
use crate::vc::{byte, Adaptive, VcClass, VcState, VcTag};
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod reference;

/// A flit in flight on a link, delivered into input VC `slot` of router
/// `dst_router` at the next cycle: its record and the links its packet will
/// have traversed on arrival, 16 bytes. A head's count becomes its VC's; a
/// later flit's must equal it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    pub(crate) flit: RingFlit,
    pub(crate) hops: u32,
    pub(crate) dst_router: NodeId,
    pub(crate) slot: u8,
}

impl InFlight {
    /// Router and input VC slot the flit lands in.
    #[inline]
    pub(crate) fn dst(&self) -> (usize, usize) {
        (usize::from(self.dst_router), usize::from(self.slot))
    }
}

/// The slot VC `slot` of port `from` has at port `to`, routers having `vcs`
/// VCs per port: a VC keeps its index across a link, so this maps an output
/// VC to the input VC it feeds downstream (and back, for credits).
#[inline]
pub(crate) fn across(slot: usize, from: Port, to: Port, vcs: usize) -> usize {
    slot - from * vcs + to * vcs
}

/// VC slots per router: `SimConfig::validate` caps `NUM_PORTS * vcs_per_port`
/// at the width of the `u64` bitmaps, which also bounds every on-stack
/// arbitration request set.
const MAX_SLOTS: usize = 64;
/// Hence the most VCs one port can have.
const MAX_VCS: usize = MAX_SLOTS / NUM_PORTS;

/// A VA_out request gathered during the shared (read-only) pass, as
/// bytes: the requested output VC slot and its port, the requesting input
/// VC slot.
#[derive(Debug, Clone, Copy, Default)]
struct VaReq {
    out: u8,
    out_port: u8,
    inp: u8,
}

/// Far end of a router's output port: the neighbour router and the input
/// port the link enters it by (`None`: no link — the local port, a mesh
/// edge, the unused dimension of a ring).
type LinkEnd = Option<(NodeId, u8)>;

/// The static link table: entry `[r][p]` is where output port `p` of router
/// `r` leads — [`neighbor_router`] and [`opposite`] evaluated once, so the
/// tick does no topology arithmetic per flit.
fn link_table(cfg: &SimConfig) -> Box<[[LinkEnd; NUM_PORTS]]> {
    (0..cfg.num_routers())
        .map(|r| {
            let at = cfg.router_coord(r);
            std::array::from_fn(|p| {
                has_link(cfg, at, p)
                    .then(|| (neighbor_router(cfg, r, p) as NodeId, opposite(p) as u8))
            })
        })
        .collect()
}

/// The `w`-th word of a mask with one bit set for each of `n` routers.
/// Goes through `low_bits` (not a raw shift) so word-boundary router counts
/// (64, 128, …) cannot overflow.
#[inline]
fn full_word(w: usize, n: usize) -> u64 {
    low_bits((n - w * 64).min(64))
}

/// Number of the `n` routers absent from `mask`.
#[inline]
fn unset(mask: &[u64], n: usize) -> u64 {
    (n - mask.iter().map(|w| w.count_ones() as usize).sum::<usize>()) as u64
}

/// The simulated network-on-chip.
pub struct Network {
    pub cfg: SimConfig,
    pub region: RegionMap,
    routing: Box<dyn RoutingAlgorithm>,
    policy: Box<dyn PriorityPolicy>,
    source: Box<dyn TrafficSource>,
    pub routers: Vec<Router>,
    pub nodes: Vec<Node>,
    cycle: u64,
    next_pkt_id: u64,
    /// One descriptor per live packet; VCs, link records and the ejection
    /// register name packets by handle into it.
    pub packets: PacketTable,
    pub(crate) in_flight: Vec<InFlight>,
    /// The ejection register: flits that won the local output port this
    /// cycle, with their packet's hop count, consumed by their destination
    /// NI at the next.
    pub(crate) eject_q: Vec<(RingFlit, u32)>,
    /// Credits returning next cycle: `(router, output VC slot)`.
    pub(crate) credit_q: Vec<(usize, usize)>,
    /// Previous-cycle adaptive occupancy per router (congestion view).
    congestion: Vec<u16>,
    /// Per-node traffic RNG streams, drawn from in node-id order by the
    /// injection phase.
    rngs: Vec<SmallRng>,
    pub stats: SimStats,
    /// Invariant oracle (`None` = disabled; the per-cycle cost of the
    /// disabled oracle is one null-check).
    oracle: Option<Box<Oracle>>,
    /// Fault injection (differential harness): routers whose switch
    /// allocator is frozen. `None` in any un-mutated network.
    fault_frozen: Option<Box<[bool]>>,
    /// Active-set bitmask: bit `i` set ⇔ router `i` has at least one
    /// occupied input VC. Maintained at the occupancy transition points
    /// (head arrival/injection, tail departure). SA, VA and RC walk its set
    /// bits; it also feeds the public queries.
    active_mask: Vec<u64>,
    /// Dirty bitmask: bit `i` set ⇔ router `i`'s occupancy changed since its
    /// last state update. Walked and zeroed by the state-update phase, so
    /// all-zero between ticks.
    dirty_mask: Vec<u64>,
    /// NI active set, the injection-side twin of `active_mask`: bit `i` set
    /// ⇐ node `i`'s NI holds work ([`Node::has_work`]). Set where work enters
    /// an NI (packet enqueued, reply scheduled), cleared by the injection
    /// phase — which walks it — once idle.
    ni_mask: Vec<u64>,
    /// The source's arrival promise ([`TrafficSource::next_poll`]): the
    /// injection phase asks for node `i`'s packet only at cycle
    /// `next_poll[i]`; `poll_min[w]` is the earliest promise of mask word `w`.
    next_poll: Box<[u64]>,
    poll_min: Box<[u64]>,
    /// Static link table ([`link_table`]).
    links: Box<[[LinkEnd; NUM_PORTS]]>,
    /// Router coordinate of every node ([`SimConfig::coord_of`] evaluated
    /// once — RC and VA_in look destinations up instead of dividing).
    node_coord: Box<[Coord]>,
    /// Cached `policy.update_is_idempotent()` (state-update skipping
    /// precondition: a non-idempotent policy mutates router state even on
    /// idle cycles).
    policy_idempotent: bool,
}

impl Network {
    /// Build a network. `region.num_apps()` may be smaller than
    /// `source.num_apps()` (e.g. adversarial traffic has no region).
    pub fn new(
        cfg: SimConfig,
        region: RegionMap,
        routing: Box<dyn RoutingAlgorithm>,
        policy: Box<dyn PriorityPolicy>,
        source: Box<dyn TrafficSource>,
        seed: u64,
    ) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert_eq!(
            region.len(),
            cfg.num_nodes(),
            "region map size must match topology"
        );
        assert!(
            region.num_apps() <= source.num_apps(),
            "source must define at least as many apps as the region map"
        );
        let n = cfg.num_routers();
        let routers = (0..n)
            .map(|i| {
                // A router's native app is its base node's (concentrated
                // nodes at one router share a coordinate, hence a region).
                let base_node = (i * cfg.concentration()) as NodeId;
                Router::new(
                    &cfg,
                    i as NodeId,
                    cfg.router_coord(i),
                    region.app_of(base_node),
                )
            })
            .collect();
        let nodes = (0..cfg.num_nodes())
            .map(|i| Node::new(&cfg, i as NodeId))
            .collect();
        // One deterministic traffic RNG stream per node, keyed by node id
        // (splitmix-style odd multiplier decorrelates the per-node seeds).
        let rngs = (0..cfg.num_nodes())
            .map(|i| {
                SmallRng::seed_from_u64(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1)))
            })
            .collect();
        let num_apps = source.num_apps();
        let checked = cfg.oracle.resolve_enabled();
        let oracle = checked.then(|| Box::new(Oracle::from_config(&cfg, num_apps)));
        // Static deadlock-freedom/legality verification, switched by the
        // oracle's config (debug-on / release-off / RAIR_ORACLE env): no
        // illegal configuration reaches a checked kernel. Results are
        // memoized process-wide, so construction-heavy tests verify each
        // distinct configuration once.
        let mut stats = SimStats::new(num_apps);
        if checked {
            let report = crate::verify::verify_network_cached(&cfg, routing.as_ref());
            if !report.ok() && cfg.oracle.resolve_panic() {
                panic!(
                    "static verifier: {} violation(s) for routing {}:\n{}",
                    report.violation_count,
                    routing.name(),
                    report
                        .violations
                        .iter()
                        .map(|v| format!("  {v}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
            stats.verify_violations = report.violations;
            stats.verify_violation_count = report.violation_count;
        }
        // Every router starts dirty so the first state update always runs.
        let dirty_mask = (0..n.div_ceil(64)).map(|w| full_word(w, n)).collect();
        let policy_idempotent = policy.update_is_idempotent();
        // Sized for a cycle's maximum (one flit per output port, one
        // credit per input port, one ejection per router) so draining them
        // in place never reallocates.
        let in_flight = Vec::with_capacity(n * (NUM_PORTS - 1));
        let eject_q = Vec::with_capacity(n);
        // A live packet holds an input VC or has a flit on a link or in
        // the ejection register, so the table never outgrows this; slots
        // past the high-water mark are reserved, never touched.
        let packets = PacketTable::with_capacity(
            n * NUM_PORTS * cfg.vcs_per_port() + in_flight.capacity() + eject_q.capacity(),
        );
        Self {
            region,
            routing,
            policy,
            source,
            routers,
            nodes,
            cycle: 0,
            next_pkt_id: 0,
            packets,
            in_flight,
            eject_q,
            credit_q: Vec::with_capacity(n * (NUM_PORTS - 1)),
            congestion: vec![0; n],
            rngs,
            stats,
            oracle,
            fault_frozen: None,
            active_mask: vec![0; n.div_ceil(64)],
            dirty_mask,
            ni_mask: vec![0; cfg.num_nodes().div_ceil(64)],
            // Every node is due at the first tick.
            next_poll: vec![0; cfg.num_nodes()].into(),
            poll_min: vec![0; cfg.num_nodes().div_ceil(64)].into(),
            links: link_table(&cfg),
            node_coord: (0..cfg.num_nodes())
                .map(|i| cfg.coord_of(i as NodeId))
                .collect(),
            policy_idempotent,
            cfg,
        }
    }

    /// Number of routers currently holding at least one occupied input VC —
    /// the size of the active set the per-cycle kernel iterates.
    pub fn active_routers(&self) -> usize {
        self.active_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    #[inline]
    fn mark_active(mask: &mut [u64], idx: usize) {
        mask[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn mark_inactive(mask: &mut [u64], idx: usize) {
        mask[idx >> 6] &= !(1 << (idx & 63));
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Where port `p` of router `idx` leads: `(neighbour router, the input
    /// port entered there)`, from the static link table.
    #[inline]
    fn link(links: &[[LinkEnd; NUM_PORTS]], idx: usize, p: Port) -> Option<(usize, Port)> {
        links[idx][p].map(|(r, q)| (usize::from(r), Port::from(q)))
    }

    /// Advance one cycle.
    pub fn tick(&mut self) {
        self.deliver_phase();
        #[cfg(debug_assertions)]
        self.debug_verify_active_set();
        self.sa_phase();
        self.va_phase();
        self.rc_phase();
        self.inject_phase();
        self.update_state_phase();
        if self.oracle.is_some() {
            self.flush_oracle(false);
        }
        self.cycle += 1;
    }

    /// Run the oracle's end-of-cycle checks (interval-gated unless
    /// `force`d), move any violations into `stats` and honor the
    /// panic-on-violation setting. Returns the number of new violations.
    pub(crate) fn flush_oracle(&mut self, force: bool) -> usize {
        let Some(mut oracle) = self.oracle.take() else {
            return 0;
        };
        oracle.run_end_of_cycle(self, force);
        let new = oracle.take_pending();
        let panic_on = oracle.panic_on_violation();
        let cap = oracle.max_recorded();
        self.oracle = Some(oracle);
        let n = new.len();
        if n > 0 {
            self.stats.oracle_violation_count += n as u64;
            for v in new {
                if self.stats.oracle_violations.len() < cap {
                    self.stats.oracle_violations.push(v);
                }
            }
            if panic_on {
                panic!(
                    "invariant oracle: {} violation(s) at cycle {}:\n{}",
                    self.stats.oracle_violation_count,
                    self.cycle,
                    self.stats
                        .oracle_violations
                        .iter()
                        .map(|v| format!("  {v}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
        n
    }

    /// Force every oracle checker to run right now (ignoring the check
    /// interval) and flush the results into `stats`. Returns the number of
    /// violations found; 0 when the oracle is disabled.
    pub fn check_oracle_now(&mut self) -> usize {
        self.flush_oracle(true)
    }

    /// Whether the invariant oracle is active for this network.
    pub fn oracle_enabled(&self) -> bool {
        self.oracle.is_some()
    }

    /// Attach an extra checker to the invariant oracle (e.g. the
    /// starvation observer with a statically proven wait bound, or an
    /// [`Analysis`](crate::analysis::Analysis)). Returns `false` — and
    /// attaches nothing — when the oracle is disabled for this network;
    /// enable it via `SimConfig::oracle` before construction.
    pub fn attach_checker(&mut self, checker: Box<dyn Checker>) -> bool {
        match self.oracle.as_deref_mut() {
            Some(o) => {
                o.add_checker(checker);
                true
            }
            None => false,
        }
    }

    /// The first attached checker of type `T` (`None` without the oracle).
    pub fn checker<T: Checker>(&self) -> Option<&T> {
        self.oracle.as_deref()?.checker()
    }

    /// Corrupt the simulation state for the differential test harness.
    ///
    /// Each fault is a *single, surgical* violation of exactly one protocol
    /// rule, so the harness can assert which checker catches it. Returns
    /// `false` when the fault is not applicable to the current state (e.g.
    /// no flit in the named VC) — callers retry elsewhere.
    pub fn inject_fault(&mut self, fault: Fault) -> bool {
        match fault {
            // Lose one credit: upstream believes the downstream buffer is
            // fuller than it is. Breaks credit conservation only.
            Fault::DropCredit { router, port, vc } => {
                let r = &mut self.routers[router];
                let slot = r.slot(port, vc);
                if port == PORT_LOCAL || !has_link(&self.cfg, r.coord, port) || r.credits(slot) == 0
                {
                    return false;
                }
                // take_credit keeps the bitmaps coherent with the (now
                // corrupted) counter — the checkers, not the bookkeeping
                // self-check, must catch this fault.
                r.take_credit(slot);
                true
            }
            // Spurious resend: the upstream link sends a copy of the
            // newest buffered body flit, *paying a real credit* for it.
            // Credit conservation therefore stays clean while the repeated
            // sequence number (wormhole contiguity) and the phantom flit
            // (flit conservation) must be caught. Restricted to body flits
            // with nothing in flight on the slot so the copy cannot land
            // behind a tail or masquerade as a head (which would trip the
            // kernel's atomic-VC debug assertions instead of a checker).
            Fault::DuplicateFlit { router, port, vc } => {
                let Some((up, out_port)) = Self::link(&self.links, router, port) else {
                    return false;
                };
                let slot = self.routers[router].slot(port, vc);
                let ivc = self.routers[router].ivc(slot);
                let (Some(flit), Some(hops)) = (ivc.record(ivc.len().wrapping_sub(1)), ivc.hops())
                else {
                    return false;
                };
                if flit.kind.is_head() || flit.kind.is_tail() {
                    return false;
                }
                if self.in_flight.iter().any(|a| a.dst() == (router, slot)) {
                    return false;
                }
                let up_slot = self.routers[up].slot(out_port, vc);
                if !self.routers[up].has_credit(up_slot) {
                    return false;
                }
                self.routers[up].take_credit(up_slot);
                self.in_flight.push(InFlight {
                    flit,
                    hops,
                    dst_router: router as NodeId,
                    slot: byte(slot),
                });
                true
            }
            // Teleport a single-flit packet one unproductive hop, keeping
            // every counter consistent (the upstream credit is spent, the
            // flit stays in flight): only routing legality is broken.
            Fault::MisrouteFlit { router, port, vc } => {
                let cur = self.routers[router].coord;
                let slot = self.routers[router].slot(port, vc);
                let ivc = self.routers[router].ivc(slot);
                let Some(front) = ivc.front(&self.packets) else {
                    return false;
                };
                if ivc.len() != 1
                    || front.kind != FlitKind::Single
                    || matches!(ivc.state(), VcState::Active { .. })
                {
                    return false;
                }
                let dst = self.cfg.coord_of(front.info.dst);
                let Some(out) = [PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST]
                    .into_iter()
                    .find(|&p| {
                        let r = &self.routers[router];
                        has_link(&self.cfg, cur, p)
                            && !minimal_hop(&self.cfg, cur, dst, p)
                            && r.allocatable_mask() >> r.slot(p, vc) & 1 != 0
                    })
                else {
                    return false;
                };
                let Some((nb, nb_port)) = Self::link(&self.links, router, out) else {
                    return false;
                };
                // Defensive: the credit precondition already implies the
                // downstream VC is idle and no arrival is in flight.
                let nb_slot = self.routers[nb].slot(nb_port, vc);
                if self.routers[nb].ivc(nb_slot).occupied() {
                    return false;
                }
                let r = &mut self.routers[router];
                let (flit, hops) = r.pop_flit(slot).expect("checked above");
                r.note_vc_freed(slot);
                Self::mark_active(&mut self.dirty_mask, router);
                if r.occ_bits == 0 {
                    Self::mark_inactive(&mut self.active_mask, router);
                }
                r.take_credit(r.slot(out, vc));
                self.in_flight.push(InFlight {
                    flit,
                    hops: hops + 1,
                    dst_router: nb as NodeId,
                    slot: byte(nb_slot),
                });
                if let Some(o) = self.oracle.as_deref_mut() {
                    o.occupancy(r, slot, false, self.cycle);
                }
                true
            }
            // Add one to the hop count of a body or tail flit on the link
            // into a VC its packet already holds, so that the flit
            // disagrees with the one count the VC keeps for the packet.
            // Caught by wormhole contiguity while the flit is on the link.
            Fault::MiscountHops { router, port, vc } => {
                let slot = self.routers[router].slot(port, vc);
                let held = self.routers[router].ivc(slot).packet_ref();
                let Some(a) = self.in_flight.iter_mut().find(|a| {
                    a.dst() == (router, slot)
                        && !a.flit.kind.is_head()
                        && Some(a.flit.packet) == held
                }) else {
                    return false;
                };
                a.hops += 1;
                true
            }
            // Freeze the router's switch allocator: flits queue behind it
            // forever. Caught by the deadlock/livelock watchdog.
            Fault::FreezeRouter { router } => {
                let n = self.routers.len();
                self.fault_frozen
                    .get_or_insert_with(|| vec![false; n].into_boxed_slice())[router] = true;
                true
            }
        }
    }

    /// Run `cycles` cycles: a loop of [`Network::tick`].
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Number of end-of-cycle oracle scans performed so far (0 when the
    /// oracle is disabled).
    pub fn oracle_scans(&self) -> u64 {
        self.oracle.as_ref().map_or(0, |o| o.scans())
    }

    /// Run `warmup` cycles, clear the measurement window, then run
    /// `measure` cycles.
    pub fn run_warmup_measure(&mut self, warmup: u64, measure: u64) {
        self.run(warmup);
        self.stats.reset_window(self.cycle);
        self.run(measure);
    }

    /// Self-check of the incremental bookkeeping against an exhaustive
    /// recount: every router's bitmaps, ring cursors and holder tags
    /// ([`Router::bookkeeping_drift`]) and the network's active bit must
    /// match what a slow scan finds, every NI holding work must be in the
    /// NI active set and no node's arrival promise may precede its word's
    /// `poll_min`, so skipping a router, a VC, an NI or a source poll can
    /// never change a candidate set.
    #[cfg(debug_assertions)]
    fn debug_verify_active_set(&self) {
        for (i, n) in self.nodes.iter().enumerate() {
            assert!(
                !n.has_work() || self.ni_is_active(i),
                "NI {i}: work but no active bit"
            );
            assert!(self.poll_min[i >> 6] <= self.next_poll[i], "node {i}");
        }
        for (i, r) in self.routers.iter().enumerate() {
            assert_eq!(r.bookkeeping_drift(), None, "router {i}");
            assert_eq!(
                r.occ_bits != 0,
                self.router_is_active(i),
                "router {i}: active bit disagrees with occupancy"
            );
        }
    }

    // ------------------------------------------------------- phase 1: LT/BW

    fn deliver_phase(&mut self) {
        let Network {
            cfg,
            routers,
            packets,
            in_flight,
            credit_q,
            oracle,
            active_mask,
            dirty_mask,
            cycle,
            ..
        } = self;
        let cycle = *cycle;
        // Credits first (they free space the SA stage may use this cycle).
        for &(r, slot) in credit_q.iter() {
            routers[r].return_credit(slot);
        }
        credit_q.clear();
        // Drain the link registers in place.
        for a in in_flight.iter() {
            let (r_idx, slot) = a.dst();
            let router = &mut routers[r_idx];
            let ivc = router.ivc(slot);
            // Atomic VCs: exactly the head starts a new occupancy interval.
            debug_assert_eq!(a.flit.kind.is_head(), !ivc.occupied());
            debug_assert!(ivc.len() < cfg.vc_depth, "input buffer overflow");
            let newly_occupied = !ivc.occupied();
            if newly_occupied {
                let app = packets.get(a.flit.packet).app;
                router.note_vc_occupied(slot, a.flit.packet, app, a.hops);
                Self::mark_active(active_mask, r_idx);
                Self::mark_active(dirty_mask, r_idx);
            }
            router.push_flit(slot, a.flit);
            if let Some(o) = oracle.as_deref_mut() {
                let flit = a.flit.with(packets, a.hops);
                o.arrival(cfg, router, slot, &flit, cycle);
                if newly_occupied {
                    o.occupancy(router, slot, true, cycle);
                }
            }
        }
        in_flight.clear();
        for i in 0..self.eject_q.len() {
            let (flit, hops) = self.eject_q[i];
            self.consume_ejected(flit, hops);
        }
        self.eject_q.clear();
    }

    /// Consume one flit of a packet that traversed `hops` links, ejected at
    /// its destination NI: eject accounting, the oracle's eject note and,
    /// at the tail, latency recording, closed-loop reply scheduling and the
    /// end of the packet's descriptor.
    fn consume_ejected(&mut self, flit: RingFlit, hops: u32) {
        self.stats.ejected_flits += 1;
        let now = self.cycle;
        if let Some(o) = self.oracle.as_deref_mut() {
            let flit = flit.with(&self.packets, hops);
            o.notify(|c, _| c.on_eject(flit.info.dst, &flit, now));
        }
        if !flit.kind.is_tail() {
            return;
        }
        let info = *self.packets.get(flit.packet);
        self.packets.free(flit.packet);
        // Keyed by destination *node* (== router index except under
        // concentration, where several NIs share a router).
        let node_idx = usize::from(info.dst);
        let network = now.saturating_sub(info.inject);
        let total = now.saturating_sub(info.birth);
        self.stats
            .recorder
            .record(info.app as usize, network, total, hops, info.size);
        self.stats.last_progress = now;
        if let Some(spec) = info.reply {
            let id = self.next_pkt_id;
            self.next_pkt_id += 1;
            self.stats.generated[info.app as usize] += 1;
            self.nodes[node_idx].schedule_reply(
                now + spec.service_latency,
                id,
                info.src,
                info.app,
                spec.class,
                spec.size,
            );
            Self::mark_active(&mut self.ni_mask, node_idx);
        }
        self.source.on_delivered(node_idx as NodeId, &info, now);
    }

    // --------------------------------------------------------- phase 2: SA

    /// SA (+ST): per input port, gather the candidates into an on-stack
    /// request set and arbitrate SA_in in the same pass; then SA_out over
    /// the requested output ports, moving the winners through the crossbar
    /// into the link, ejection and credit registers. The policy is asked
    /// for priorities only where two or more requests meet (a lone request
    /// wins [`arbitrate_rr`] whatever its priority).
    fn sa_phase(&mut self) {
        let Network {
            cfg,
            policy,
            routers,
            packets,
            links,
            in_flight,
            eject_q,
            credit_q,
            stats,
            cycle,
            oracle,
            fault_frozen,
            active_mask,
            dirty_mask,
            ..
        } = self;
        let cycle = *cycle;
        let v = cfg.vcs_per_port();
        let port_mask = low_bits(v);
        // Active-set fast path: an empty router contributes no SA candidate
        // and mutates no arbiter pointer. (A visit clears at most its own
        // router's bit, so reading each word as the walk reaches it sees
        // the mask as of the start of the phase.)
        stats.router_cycles_skipped += unset(active_mask, routers.len());
        // On-stack request sets, reused by every arbitration of the phase:
        // `(priority, key)` pairs, and per SA_in request the output port and
        // VC slot it asks for.
        let mut reqs = [(0u64, 0usize); MAX_VCS];
        let mut wants = [(0, 0); MAX_VCS];
        for w in 0..active_mask.len() {
            for b in set_bits(active_mask[w]) {
                let r_idx = w * 64 + b;
                // Fault injection: a frozen switch allocator grants nothing.
                if fault_frozen.as_deref().is_some_and(|f| f[r_idx]) {
                    continue;
                }
                let r = &mut routers[r_idx];
                // Every SA candidate is an Active VC.
                let served = r.active_bits;
                // SA_in: one winner `(in_slot, out_slot)` per input port;
                // bit `out_port * NUM_PORTS + in_port` of `out_reqs` says
                // what it asks. SA_in rotates over the port's VC indices,
                // the offsets of its slots from `base`.
                let mut sa_in_winners = [(0usize, 0usize); NUM_PORTS];
                let mut out_reqs: u64 = 0;
                #[allow(clippy::needless_range_loop)] // in_port also keys sa_in_ptr
                for in_port in 0..NUM_PORTS {
                    let base = in_port * v;
                    let mut k = 0;
                    for slot in set_bits(served & (port_mask << base)) {
                        let ivc = r.ivc(slot);
                        let VcState::Active { out_port, out_slot } = ivc.state() else {
                            continue;
                        };
                        let out_slot = usize::from(out_slot);
                        // Credit first: a blocked VC's flit is not even read.
                        if !r.has_credit(out_slot) || ivc.is_empty() {
                            continue;
                        }
                        reqs[k] = (0, slot - base);
                        wants[k] = (usize::from(out_port), out_slot);
                        k += 1;
                    }
                    if k == 0 {
                        continue;
                    }
                    if k > 1 {
                        for q in &mut reqs[..k] {
                            let slot = base + q.1;
                            q.0 = front_priority(&**policy, ArbStage::SaIn, r, packets, None, slot);
                        }
                    }
                    let Some(w) = arbitrate_rr(&reqs[..k], v, &mut r.sa_in_ptr[in_port]) else {
                        debug_assert!(false, "non-empty request set yields an SA_in winner");
                        continue;
                    };
                    let (out_port, out_slot) = wants[w];
                    sa_in_winners[in_port] = (base + reqs[w].1, out_slot);
                    out_reqs |= 1 << (out_port * NUM_PORTS + in_port);
                }
                if out_reqs == 0 {
                    continue;
                }
                // SA_out: one winner per requested output port among the
                // SA_in winners asking for it.
                for out_port in 0..NUM_PORTS {
                    let asking = (out_reqs >> (out_port * NUM_PORTS)) & low_bits(NUM_PORTS);
                    let mut k = 0;
                    for in_port in set_bits(asking) {
                        reqs[k] = (0, in_port);
                        k += 1;
                    }
                    if k == 0 {
                        continue;
                    }
                    if k > 1 {
                        for q in &mut reqs[..k] {
                            let slot = sa_in_winners[q.1].0;
                            q.0 =
                                front_priority(&**policy, ArbStage::SaOut, r, packets, None, slot);
                        }
                    }
                    let Some(w) = arbitrate_rr(&reqs[..k], NUM_PORTS, &mut r.sa_out_ptr[out_port])
                    else {
                        debug_assert!(false, "non-empty request set yields an SA_out winner");
                        continue;
                    };
                    let in_port = reqs[w].1;
                    let (in_slot, out_slot) = sa_in_winners[in_port];
                    // Static link facts: where the flit goes (nowhere = it
                    // ejects here) and where its credit returns.
                    let down = Self::link(links, r_idx, out_port);
                    debug_assert_eq!(down.is_none(), out_port == PORT_LOCAL, "linkless grant");
                    // ST: move the flit.
                    let Some((flit, hops)) = r.pop_flit(in_slot) else {
                        debug_assert!(false, "SA winner holds a buffered flit");
                        continue;
                    };
                    let is_tail = flit.kind.is_tail();
                    if let Some(o) = oracle.as_deref_mut() {
                        let flit = flit.with(packets, hops);
                        o.forward(r, in_slot, out_port, &flit, cycle);
                    }
                    if let Some((nb, nb_port)) = down {
                        r.take_credit(out_slot);
                        in_flight.push(InFlight {
                            flit,
                            hops: hops + 1,
                            dst_router: nb as NodeId,
                            slot: byte(across(out_slot, out_port, nb_port, v)),
                        });
                    } else {
                        eject_q.push((flit, hops));
                    }
                    if let Some((up, up_port)) = Self::link(links, r_idx, in_port) {
                        credit_q.push((up, across(in_slot, in_port, up_port, v)));
                    }
                    if is_tail {
                        debug_assert!(
                            r.ivc(in_slot).is_empty(),
                            "atomic VC violated: flits behind a tail"
                        );
                        r.release_out_vc(out_slot);
                        r.note_vc_freed(in_slot);
                        Self::mark_active(dirty_mask, r_idx);
                        if r.occ_bits == 0 {
                            Self::mark_inactive(active_mask, r_idx);
                        }
                        if let Some(o) = oracle.as_deref_mut() {
                            o.occupancy(r, in_slot, false, cycle);
                        }
                    }
                    stats.last_progress = cycle;
                }
            }
        }
    }

    // --------------------------------------------------------- phase 3: VA

    /// VA: VA_in (each routed input VC picks one request; `congestion` is
    /// the previous-cycle view adaptive routing reads) then VA_out (one
    /// winner per requested output VC; the policy is asked only where two
    /// or more inputs want the same one), sorted and grouped in a stack
    /// array. Router-local.
    fn va_phase(&mut self) {
        let Network {
            cfg,
            region,
            routing,
            policy,
            routers,
            packets,
            node_coord,
            congestion,
            stats,
            active_mask,
            ..
        } = self;
        let v = cfg.vcs_per_port();
        stats.router_cycles_skipped += unset(active_mask, routers.len());
        // On-stack request sets, reused by every router of the phase.
        let mut va = [VaReq::default(); MAX_SLOTS];
        let mut reqs = [(0u64, 0usize); MAX_SLOTS];
        for (w, &word) in active_mask.iter().enumerate() {
            for b in set_bits(word) {
                let r = &mut routers[w * 64 + b];
                // Shared pass: VA_in — each Routed input VC picks one
                // request.
                let mut k = 0;
                for slot in set_bits(r.routed_bits) {
                    let ivc = r.ivc(slot);
                    let VcState::Routed {
                        adaptive,
                        escape,
                        escape_lane,
                    } = ivc.state()
                    else {
                        continue;
                    };
                    let Some(packet) = ivc.packet(packets) else {
                        debug_assert!(false, "routed VC holds its head flit");
                        continue;
                    };
                    debug_assert!(ivc.front(packets).is_some_and(|f| f.kind.is_head()));
                    let request = Self::va_in_select(
                        cfg,
                        region,
                        &**routing,
                        &**policy,
                        congestion,
                        r,
                        node_coord[packet.dst as usize],
                        &arb_req(r, packet),
                        adaptive,
                        usize::from(escape),
                        escape_lane,
                    );
                    if let Some((out_port, out)) = request {
                        va[k] = VaReq {
                            out: byte(out),
                            out_port: byte(out_port),
                            inp: byte(slot),
                        };
                        k += 1;
                    }
                }
                // VA_out: arbitrate per requested output VC, in slot order.
                let va = &mut va[..k];
                va.sort_unstable_by_key(|q| (q.out, q.inp));
                for group in va.chunk_by(|a, b| a.out == b.out) {
                    let (out, out_port) =
                        (usize::from(group[0].out), usize::from(group[0].out_port));
                    let contested = group.len() > 1;
                    for (req, q) in reqs.iter_mut().zip(group) {
                        let inp = usize::from(q.inp);
                        let prio = if contested {
                            let class = Some(cfg.vc_class(out - out_port * v));
                            front_priority(&**policy, ArbStage::VaOut, r, packets, class, inp)
                        } else {
                            0
                        };
                        *req = (prio, inp);
                    }
                    let ptr = &mut r.va_ptr[out];
                    let at = usize::from(*ptr);
                    let Some((w, next)) = arbitrate_rr_at(&reqs[..group.len()], NUM_PORTS * v, at)
                    else {
                        debug_assert!(false, "non-empty request group yields a VA winner");
                        continue;
                    };
                    *ptr = byte(next);
                    let inp = usize::from(group[w].inp);
                    r.alloc_out_vc(out, inp);
                    r.set_vc_state(inp, VcState::active(out_port, out));
                }
            }
        }
    }

    /// VA_in: pick the (output port, output VC slot) a routed input VC
    /// requests this cycle. Adaptive candidates first (routing selection
    /// function + the policy's VC-tag preference); the escape VC of the
    /// packet's dateline lane as fallback; `None` when nothing is
    /// allocatable.
    #[allow(clippy::too_many_arguments)]
    fn va_in_select(
        cfg: &SimConfig,
        region: &RegionMap,
        routing: &dyn RoutingAlgorithm,
        policy: &dyn PriorityPolicy,
        congestion: &[u16],
        r: &Router,
        dst: Coord,
        req: &ArbReq,
        adaptive: Adaptive,
        escape: Port,
        escape_lane: u8,
    ) -> Option<(Port, usize)> {
        let v = cfg.vcs_per_port();
        // Ejection at the destination: any free local "output VC". The
        // local port occupies the low `v` slots (PORT_LOCAL == 0), in
        // ascending VC index.
        if escape == PORT_LOCAL {
            let free = r.out_free & low_bits(v);
            return (free != 0).then(|| (PORT_LOCAL, free.trailing_zeros() as usize));
        }
        // Allocatable = no holder AND downstream fully drained — one mask op
        // per candidate port, whose lowest set bit is the slot asked for.
        let alloc = r.allocatable_mask();
        let adaptive_mask = low_bits(cfg.adaptive_vcs) << cfg.num_escape_vcs();
        let mut cands: [Port; 2] = [0; 2];
        let mut n = 0;
        for p in adaptive.ports() {
            if alloc & (adaptive_mask << (p * v)) != 0 {
                cands[n] = p;
                n += 1;
            }
        }
        if n > 0 {
            let ctx = SelectCtx {
                cfg,
                router: r,
                dst,
                region,
                congestion,
            };
            let p = cands[routing.select(&ctx, &cands[..n])];
            let pa = alloc & (adaptive_mask << (p * v));
            debug_assert_ne!(pa, 0);
            if let Some(tag) = policy.vc_tag_preference(r, req) {
                // Regional adaptive VCs are the contiguous indices right
                // after the escape block, global the remainder (see
                // SimConfig::vc_class), so each tag is one contiguous mask.
                let tag_mask = match tag {
                    VcTag::Regional => low_bits(cfg.regional_vcs) << cfg.num_escape_vcs(),
                    VcTag::Global => {
                        low_bits(cfg.adaptive_vcs - cfg.regional_vcs)
                            << (cfg.num_escape_vcs() + cfg.regional_vcs)
                    }
                };
                let m = pa & (tag_mask << (p * v));
                if m != 0 {
                    return Some((p, m.trailing_zeros() as usize));
                }
            }
            return Some((p, pa.trailing_zeros() as usize));
        }
        // Escape fallback (guarantees forward progress per Duato); on
        // wrapping topologies the requestable escape VC is pinned to the
        // packet's dateline lane. The escape port comes from the routing
        // function, so its VC is converted to a slot here.
        let esc = r.slot(escape, cfg.escape_vc_lane(req.class, escape_lane));
        (alloc >> esc & 1 != 0).then_some((escape, esc))
    }

    // --------------------------------------------------------- phase 4: RC

    /// RC: route computation for head flits at the front of idle VCs.
    fn rc_phase(&mut self) {
        let Network {
            cfg,
            routing,
            routers,
            packets,
            node_coord,
            stats,
            active_mask,
            ..
        } = self;
        stats.router_cycles_skipped += unset(active_mask, routers.len());
        for (w, &word) in active_mask.iter().enumerate() {
            for b in set_bits(word) {
                let r_idx = w * 64 + b;
                let r = &mut routers[r_idx];
                let cur = r.coord;
                // A head awaiting RC sits in an occupied VC that is neither
                // Routed nor Active.
                let served = r.occ_bits & !(r.routed_bits | r.active_bits);
                for slot in set_bits(served) {
                    let ivc = r.ivc(slot);
                    if ivc.state() != VcState::Idle {
                        continue;
                    }
                    // Occupied and idle: the head is buffered.
                    let Some(packet) = ivc.packet(packets) else {
                        continue;
                    };
                    debug_assert!(
                        ivc.front(packets).is_some_and(|f| f.kind.is_head()),
                        "idle VC front flit must be a head (atomic VCs)"
                    );
                    let dst_node = packet.dst;
                    let dst = node_coord[dst_node as usize];
                    let routed = if dst == cur {
                        VcState::routed([Some(PORT_LOCAL), None], PORT_LOCAL, 0)
                    } else {
                        // The kernel legalizes exactly what the static
                        // verifier enumerated: the algorithm's next_hops.
                        let hops = routing.next_hops(cfg, cur, dst);
                        VcState::routed(hops.adaptive, hops.escape, hops.escape_lane)
                    };
                    r.set_vc_state(slot, routed);
                }
            }
        }
    }

    // -------------------------------------------------- phase 5: injection

    /// Injection, in ascending node-id order (packet-id assignment depends
    /// on it) over the nodes with something to do: a node whose arrival
    /// promise is due is asked for its packet and its next promise; an NI of
    /// the NI active set releases its ready replies and streams
    /// one flit into its router's local input port.
    fn inject_phase(&mut self) {
        let Network {
            cfg,
            routers,
            packets,
            nodes,
            source,
            stats,
            next_pkt_id,
            cycle,
            oracle,
            active_mask,
            dirty_mask,
            ni_mask,
            next_poll,
            poll_min,
            rngs,
            ..
        } = self;
        let cycle = *cycle;
        let c = cfg.concentration();
        debug_assert_eq!(nodes.len(), routers.len() * c);
        for (word, polls) in next_poll.chunks_mut(64).enumerate() {
            let mut due = 0u64;
            if poll_min[word] <= cycle {
                for (b, &at) in polls.iter().enumerate() {
                    due |= u64::from(at <= cycle) << b;
                }
            }
            for b in set_bits(due | ni_mask[word]) {
                let (i, bit) = (word * 64 + b, 1u64 << b);
                let (id, node, rng) = (i as NodeId, &mut nodes[i], &mut rngs[i]);
                if ni_mask[word] & bit != 0 {
                    node.release_replies(cycle);
                }
                let mut np = None;
                if due & bit != 0 {
                    np = source.generate(id, cycle, rng);
                    polls[b] = source.next_poll(id, cycle + 1, rng);
                }
                if let Some(np) = np {
                    // The source is external code whose contract violations
                    // must surface in release runs too — the one legitimate
                    // abort in a pipeline phase.
                    // lint: allow(panic-in-hot-path)
                    assert_ne!(np.dst, id, "source generated self-addressed packet");
                    // lint: allow(panic-in-hot-path)
                    assert!(
                        (np.app as usize) < stats.generated.len(),
                        "packet app {} out of range",
                        np.app
                    );
                    // Packets and their replies fit a VC (atomic VCs; a
                    // buffered flit's sequence number is a byte) and ride a
                    // class the NI has a queue for.
                    let fits = |size: u32, class: MsgClass| {
                        (1..=cfg.vc_depth).contains(&(size as usize))
                            && usize::from(class) < cfg.num_classes
                    };
                    // lint: allow(panic-in-hot-path)
                    assert!(
                        fits(np.size, np.class) && np.reply.is_none_or(|r| fits(r.size, r.class)),
                        "packet outside the config: {np:?}"
                    );
                    stats.generated[np.app as usize] += 1;
                    node.enqueue(PacketInfo {
                        id: *next_pkt_id,
                        src: id,
                        dst: np.dst,
                        app: np.app,
                        class: np.class,
                        size: np.size,
                        birth: cycle,
                        inject: 0,
                        reply: np.reply,
                    });
                    ni_mask[word] |= bit;
                    *next_pkt_id += 1;
                }
                if ni_mask[word] & bit == 0 {
                    continue;
                }
                let r_idx = i / c;
                let router = &mut routers[r_idx];
                if let Some(ev) = node.try_inject(cfg, router, packets, cycle) {
                    stats.injected_flits += 1;
                    if let Some(o) = oracle.as_deref_mut() {
                        o.notify(|c, _| c.on_inject(id, &ev, cycle));
                    }
                    if ev.head {
                        // try_inject marked the local VC occupied.
                        Self::mark_active(active_mask, r_idx);
                        Self::mark_active(dirty_mask, r_idx);
                        stats.injected_packets[ev.app as usize] += 1;
                        if let Some(o) = oracle.as_deref_mut() {
                            o.notify(|c, _| {
                                c.on_occupancy(router.id, PORT_LOCAL, ev.vc, true, cycle);
                            });
                        }
                    }
                }
                // The one clear point of the NI active set.
                if !node.has_work() {
                    ni_mask[word] &= !bit;
                }
            }
            if due != 0 {
                poll_min[word] = polls.iter().copied().min().unwrap_or(u64::MAX);
            }
        }
    }

    // ----------------------------------------------- phase 6: state update

    /// End-of-cycle state update. A router whose occupancy did not change
    /// this cycle would recompute the identical OVC registers and
    /// congestion export, and an idempotent policy update is a fixed point
    /// on unchanged registers — so the whole update is elided for clean
    /// routers.
    fn update_state_phase(&mut self) {
        let Network {
            policy,
            routers,
            congestion,
            cycle,
            stats,
            dirty_mask,
            policy_idempotent,
            ..
        } = self;
        let may_skip = *policy_idempotent;
        let n = routers.len();
        if may_skip {
            stats.state_updates_skipped += unset(dirty_mask, n);
        }
        for w in 0..dirty_mask.len() {
            let word = if may_skip {
                dirty_mask[w]
            } else {
                full_word(w, n)
            };
            dirty_mask[w] = 0;
            for b in set_bits(word) {
                let r = &mut routers[w * 64 + b];
                let (native, foreign) = r.count_occupancy();
                r.ovc_native = native;
                r.ovc_foreign = foreign;
                policy.update_router(r, *cycle);
                congestion[w * 64 + b] = r.adaptive_occupancy();
            }
        }
    }

    // ------------------------------------------------------------- queries

    /// Flits currently inside the network (buffers, links, ejection
    /// registers). `injected == ejected + in_network` always holds.
    pub fn flits_in_network(&self) -> u64 {
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        (buffered + self.in_flight.len() + self.eject_q.len()) as u64
    }

    /// Packets waiting in all source queues (open-loop backlog — grows
    /// without bound past saturation).
    pub fn total_backlog(&self) -> usize {
        self.nodes.iter().map(Node::backlog).sum()
    }

    /// Cycles since the last crossbar traversal or ejection (deadlock
    /// watchdog; meaningful only while traffic is offered).
    pub fn cycles_since_progress(&self) -> u64 {
        self.cycle.saturating_sub(self.stats.last_progress)
    }

    /// True when no flit is anywhere in the network or NIs.
    pub fn is_drained(&self) -> bool {
        self.flits_in_network() == 0 && !self.nodes.iter().any(Node::has_work)
    }

    /// Access the traffic source (e.g. to read scripted-source state).
    pub fn source(&self) -> &dyn TrafficSource {
        &*self.source
    }

    /// Per-router adaptive-VC occupancy snapshot (previous cycle) — the
    /// same congestion view adaptive routing reads; useful for heatmaps and
    /// congestion analysis.
    pub fn congestion_snapshot(&self) -> &[u16] {
        &self.congestion
    }

    /// Name of the active priority policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The active priority policy (the oracle's policy-invariant checker
    /// consults it).
    pub fn policy(&self) -> &dyn PriorityPolicy {
        &*self.policy
    }

    /// Is router `idx` in the active set (has ≥ 1 occupied input VC)?
    pub fn router_is_active(&self, idx: usize) -> bool {
        self.active_mask[idx >> 6] >> (idx & 63) & 1 == 1
    }

    /// Is node `idx`'s NI in the NI active set (every NI holding work is)?
    pub fn ni_is_active(&self, idx: usize) -> bool {
        self.ni_mask[idx >> 6] >> (idx & 63) & 1 == 1
    }

    /// Name of the active routing algorithm.
    pub fn routing_name(&self) -> &'static str {
        self.routing.name()
    }
}

/// The policy's priority for the flit at the front of input VC `slot` of
/// `r` — asked only for the members of a contested request set, each of
/// which buffers a flit of the VC's packet.
#[inline]
fn front_priority(
    policy: &dyn PriorityPolicy,
    stage: ArbStage,
    r: &Router,
    packets: &PacketTable,
    out_vc: Option<VcClass>,
    slot: usize,
) -> u64 {
    let ivc = r.ivc(slot);
    let Some(packet) = ivc.packet(packets).filter(|_| !ivc.is_empty()) else {
        debug_assert!(false, "an arbitration request has a buffered flit");
        return 0;
    };
    policy.priority(stage, r, out_vc, &arb_req(r, packet))
}

/// Build an arbitration request for a packet at a router.
#[inline]
fn arb_req(r: &Router, info: &PacketInfo) -> ArbReq {
    ArbReq {
        app: info.app,
        class: info.class,
        birth: info.birth,
        inject: info.inject,
        is_native: r.is_native(info.app),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::RoundRobin;
    use crate::flit::ReplySpec;
    use crate::routing::XyRouting;
    use crate::source::{NewPacket, NoTraffic, ScriptedSource};
    use crate::topology::TopologyKind;

    /// The source contract, on both kernels: a packet whose reply would not
    /// fit a VC, or that names a message class the NIs keep no queue for,
    /// stops the run by name at generation instead of being buffered with a
    /// truncated sequence number or parked in a queue nothing serves.
    #[test]
    fn packets_outside_the_config_are_refused_on_both_kernels() {
        let ok = NewPacket {
            dst: 5,
            app: 0,
            class: 0,
            size: 1,
            reply: None,
        };
        let reply = |size, class| {
            Some(ReplySpec {
                service_latency: 6,
                size,
                class,
            })
        };
        for (what, packet, refused) in [
            (
                "a fitting request and reply",
                NewPacket {
                    reply: reply(5, 0),
                    ..ok
                },
                false,
            ),
            (
                "a reply deeper than a VC",
                NewPacket {
                    reply: reply(6, 0),
                    ..ok
                },
                true,
            ),
            (
                "a class past num_classes",
                NewPacket { class: 1, ..ok },
                true,
            ),
            (
                "a reply class past num_classes",
                NewPacket {
                    reply: reply(5, 1),
                    ..ok
                },
                true,
            ),
        ] {
            for reference in [false, true] {
                let run = std::panic::catch_unwind(|| {
                    let cfg = SimConfig::table1();
                    let mut net = Network::new(
                        cfg.clone(),
                        RegionMap::single(&cfg),
                        Box::new(XyRouting),
                        Box::new(RoundRobin),
                        Box::new(ScriptedSource::new(1, vec![(0, 0, packet)])),
                        0,
                    );
                    if reference {
                        net.tick_reference();
                    } else {
                        net.tick();
                    }
                });
                let Err(panic) = run else {
                    assert!(!refused, "{what} accepted (reference {reference})");
                    continue;
                };
                let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    refused && msg.contains("packet outside the config"),
                    "{what} (reference {reference}): {msg}"
                );
            }
        }
    }

    /// A flit off the router buffers is its 8-byte record plus its
    /// packet's hop count: 16 bytes on a link, 12 in the ejection register.
    /// Pinned so that a wider field cannot regrow the registers, which are
    /// sized for a cycle's maximum at construction.
    #[test]
    fn link_and_ejection_records_are_pinned() {
        use crate::flit::PacketRef;
        use std::mem::size_of;
        assert_eq!(size_of::<RingFlit>(), 8);
        assert_eq!(size_of::<Option<PacketRef>>(), 4);
        assert_eq!(size_of::<InFlight>(), 16);
        assert_eq!(size_of::<(RingFlit, u32)>(), 12);
    }

    /// The static tables equal the functions they cache: every link-table
    /// entry is `neighbor_router` + `opposite` where `has_link` and "none"
    /// elsewhere (the local port included), and every node's coordinate is
    /// `coord_of` — on the word-boundary meshes, the wrapping kinds and a
    /// concentrated mesh.
    #[test]
    fn static_tables_equal_the_topology_functions() {
        let cmesh = TopologyKind::CMesh { concentration: 4 };
        for (topology, width, height) in [
            (TopologyKind::Mesh, 8, 8),
            (TopologyKind::Mesh, 9, 7),
            (TopologyKind::Mesh, 13, 5),
            (TopologyKind::Torus, 4, 4),
            (TopologyKind::Ring, 8, 1),
            (cmesh, 4, 4),
        ] {
            let cfg = SimConfig {
                topology,
                width,
                height,
                ..SimConfig::table1()
            };
            let net = Network::new(
                cfg.clone(),
                RegionMap::single(&cfg),
                Box::new(XyRouting),
                Box::new(RoundRobin),
                Box::new(NoTraffic),
                0,
            );
            assert_eq!(net.links.len(), cfg.num_routers());
            for r in 0..cfg.num_routers() {
                for p in 0..NUM_PORTS {
                    let want = has_link(&cfg, cfg.router_coord(r), p)
                        .then(|| (neighbor_router(&cfg, r, p), opposite(p)));
                    assert_eq!(
                        Network::link(&net.links, r, p),
                        want,
                        "{topology:?} ({r}, {p})"
                    );
                }
                assert_eq!(net.links[r][PORT_LOCAL], None);
            }
            assert_eq!(net.node_coord.len(), cfg.num_nodes());
            for (i, &c) in net.node_coord.iter().enumerate() {
                assert_eq!(c, cfg.coord_of(i as NodeId), "{topology:?} node {i}");
            }
        }
    }
}
