//! Fault model and runtime resilience machinery.
//!
//! Three layers live here:
//!
//! 1. **[`FaultTimeline`]** — the *configured* fault schedule carried in
//!    [`SimConfig`]: a seeded transient bit-error rate applied to every
//!    link traversal plus scheduled permanent [`FaultEvent`]s (link or
//!    router death). An empty timeline keeps the whole subsystem off-path:
//!    `Network` then allocates no [`FaultState`] and the cycle kernel is
//!    bit-identical to the fault-free build (golden digests unchanged).
//! 2. **[`FaultState`]** — the *runtime* state: which links/routers are
//!    dead, the link-level retransmission draw (CRC + ack/nack abstracted
//!    as a deterministic per-send attempt count), the drop ledger the
//!    conservation checkers reconcile against, and the source-retry
//!    bookkeeping (exponential backoff, capped attempts).
//! 3. **[`DegradedTable`]** — the reconfigured routing function computed
//!    after each permanent fault: escape routing detours around dead links
//!    (a lane-shifted XY function, deadlock-free by turn-model argument),
//!    adaptive ports filtered to alive productive links, and per-pair
//!    routability from a bounded escape-chain walk. Every rebuilt table is
//!    re-verified by the static CDG verifier ([`crate::verify`]) *before*
//!    the network resumes; if the detour function fails verification (turn
//!    unions of multiple faults can be cyclic) the table falls back to
//!    [`DegradedMode::Strict`] — plain XY over surviving links, a subgraph
//!    of the provably acyclic XY CDG — trading coverage for safety.
//!
//! The [`Fault`] enum (moved here from the oracle module) drives the
//! *differential* harness: seeded protocol mutations applied by
//! [`Network::inject_fault`](crate::network::Network::inject_fault), each
//! of which a named checker must catch.

use crate::config::SimConfig;
use crate::ids::{
    opposite, Coord, NodeId, Port, NUM_PORTS, PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH,
    PORT_WEST,
};
use crate::region::RegionMap;
use crate::routing::{NextHops, RoutingAlgorithm, SelectCtx};
use crate::topology::{escape_hop, has_link, step};
use crate::verify::{Verifier, VerifyReport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Cap on link-level send attempts per flit: after this many consecutive
/// CRC failures the send is forced through (the draw is deterministic, so
/// an unbounded retry at BER ~1 would never terminate).
pub const MAX_SEND_ATTEMPTS: u32 = 16;

/// Extra link latency per retransmission round trip (nack + replay).
pub const RETRANSMIT_LATENCY: u64 = 4;

/// Source-side retry attempts for a packet extracted as stranded before it
/// is dropped for good.
pub const MAX_SOURCE_RETRIES: u32 = 3;

/// Base backoff (cycles) before the first source-side retry; doubles per
/// attempt (exponential backoff).
pub const RETRY_BACKOFF_BASE: u64 = 64;

/// How often (cycles) the network sweeps for stranded packets after a
/// permanent fault.
pub const STRANDED_SCAN_INTERVAL: u64 = 64;

/// A seeded protocol fault for the differential harness. Applied between
/// cycles by [`Network::inject_fault`](crate::network::Network::inject_fault);
/// each variant must be caught by at least one checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Silently lose one credit of output `(port, vc)` at `router` —
    /// caught by `CreditConservation`.
    DropCredit {
        router: usize,
        port: Port,
        vc: usize,
    },
    /// Retransmit (duplicate) the newest buffered flit of input `(port,
    /// vc)` at `router` as if the upstream replay buffer fired spuriously.
    /// Credit accounting is coherent (the upstream output pays for the
    /// copy), so `CreditConservation` stays clean while
    /// `WormholeContiguity` (sequence break) and `FlitConservation`
    /// (phantom flit) must catch it.
    DuplicateFlit {
        router: usize,
        port: Port,
        vc: usize,
    },
    /// Teleport a single-flit packet one non-minimal hop out of input
    /// `(port, vc)` at `router` (with correct credit accounting, so only
    /// the route is wrong) — caught by `RoutingLegality`.
    MisrouteFlit {
        router: usize,
        port: Port,
        vc: usize,
    },
    /// Flip a bit of the stored CRC of the front flit of input `(port,
    /// vc)` at `router`, so its payload fails the check — caught by
    /// `CrcIntegrity`.
    CorruptFlit {
        router: usize,
        port: Port,
        vc: usize,
    },
    /// Add one to the hop count of a body or tail flit on the link into
    /// input `(port, vc)` at `router`, whose VC its packet already holds,
    /// so it disagrees with the count the VC keeps for the packet — caught
    /// by `WormholeContiguity`.
    MiscountHops {
        router: usize,
        port: Port,
        vc: usize,
    },
    /// Permanently freeze `router`'s switch allocator — caught by
    /// `DeadlockWatch` once a VC exceeds the stall horizon.
    FreezeRouter { router: usize },
}

/// A permanent topology fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Both directions of the link out of `router` through mesh port
    /// `port` die.
    LinkDown { router: NodeId, port: Port },
    /// The router and all its links die. Resident packets drain or are
    /// extracted; its NI stops generating.
    RouterDown { router: NodeId },
}

/// A permanent fault scheduled at an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    pub cycle: u64,
    pub event: FaultEvent,
}

/// The configured fault schedule, carried in [`SimConfig::fault`]. An
/// empty (default) timeline keeps every fault mechanism off-path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultTimeline {
    /// Per-link-traversal probability of a transient CRC-detected
    /// corruption (resolved by retransmission). `0.0` disables.
    pub transient_ber: f64,
    /// Seed for the corruption draw, independent of the traffic seed.
    pub seed: u64,
    /// Scheduled permanent faults (applied in cycle order).
    pub events: Vec<ScheduledFault>,
}

impl FaultTimeline {
    /// True when the timeline schedules nothing — the fault subsystem is
    /// then fully off-path and digests match the fault-free build.
    pub fn is_empty(&self) -> bool {
        self.transient_ber == 0.0 && self.events.is_empty()
    }

    /// Internal consistency, folded into [`SimConfig::validate`].
    pub fn validate(&self, cfg: &SimConfig) -> Result<(), String> {
        if !self.transient_ber.is_finite() || !(0.0..1.0).contains(&self.transient_ber) {
            return Err(format!(
                "fault.transient_ber must be in [0, 1), got {}",
                self.transient_ber
            ));
        }
        for ev in &self.events {
            match ev.event {
                FaultEvent::LinkDown { router, port } => {
                    if router as usize >= cfg.num_nodes() {
                        return Err(format!("fault event router {router} out of bounds"));
                    }
                    let c = cfg.coord_of(router);
                    if !(1..=4).contains(&port) || !has_link(cfg, c, port) {
                        return Err(format!(
                            "fault event link ({router}, {port}) is not an in-bounds mesh link"
                        ));
                    }
                }
                FaultEvent::RouterDown { router } => {
                    if router as usize >= cfg.num_nodes() {
                        return Err(format!("fault event router {router} out of bounds"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold the timeline into a digest (only called when non-empty, so
    /// empty-timeline configs keep their pre-fault digests).
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        d.write_u64(self.transient_ber.to_bits());
        d.write_u64(self.seed);
        d.write_u64(self.events.len() as u64);
        for ev in &self.events {
            d.write_u64(ev.cycle);
            match ev.event {
                FaultEvent::LinkDown { router, port } => {
                    d.write_u64(1);
                    d.write_u64(router as u64);
                    d.write_u64(port as u64);
                }
                FaultEvent::RouterDown { router } => {
                    d.write_u64(2);
                    d.write_u64(router as u64);
                }
            }
        }
    }
}

/// Which degraded routing function a [`DegradedTable`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Lane-shifted XY escape: detours around dead links, keeping almost
    /// every pair routable. Escape-only (adaptive channels disabled —
    /// minimal adaptive hops after a sidestep would close extended
    /// escape-CDG cycles). Used when no router is down and the detour CDG
    /// verifies acyclic.
    Detour,
    /// Plain XY over surviving links: any pair whose XY path crosses a
    /// dead element is unroutable, but the CDG is a subgraph of XY's and
    /// thus provably acyclic. The fallback when detours cannot be proven
    /// safe (router death, adverse multi-fault turn unions).
    Strict,
}

/// The reconfigured routing function after permanent faults: per-pair
/// escape port, filtered adaptive ports and routability. Built by
/// [`DegradedTable::rebuild`], which re-verifies the result with the CDG
/// verifier before it is ever used.
pub struct DegradedTable {
    n: usize,
    mode: DegradedMode,
    /// `esc[src * n + dst]` — the escape port, `None` if unroutable here.
    esc: Vec<Option<Port>>,
    /// `adap[src * n + dst]` — usable adaptive (minimal, alive) ports.
    adap: Vec<[Option<Port>; 2]>,
    /// `routable[src * n + dst]` — the escape chain reaches `dst`.
    routable: Vec<bool>,
}

impl DegradedTable {
    /// Build and statically verify the degraded routing for the given dead
    /// sets. Tries [`DegradedMode::Detour`] first (when no router is
    /// dead); on any verifier violation falls back to
    /// [`DegradedMode::Strict`]. Returns the table actually adopted plus
    /// the verification report of that table.
    pub fn rebuild(
        cfg: &SimConfig,
        region: &RegionMap,
        routing: &dyn RoutingAlgorithm,
        dead_links: &BTreeSet<(usize, Port)>,
        dead_routers: &BTreeSet<usize>,
    ) -> (Self, VerifyReport) {
        let modes: &[DegradedMode] = if dead_routers.is_empty() {
            &[DegradedMode::Detour, DegradedMode::Strict]
        } else {
            &[DegradedMode::Strict]
        };
        let mut last = None;
        for &mode in modes {
            let table = Self::compute(cfg, region, routing, dead_links, dead_routers, mode);
            let report = table.verify(cfg, dead_links);
            if report.ok() {
                return (table, report);
            }
            last = Some((table, report));
        }
        // Strict failed verification too — adopt it anyway (its violations
        // are surfaced through SimStats by the caller) rather than leaving
        // the network without any routing function.
        last.expect("at least one mode attempted")
    }

    /// Run the CDG verifier over this table (dead links filtered out,
    /// unroutable pairs exempt, escape minimality relaxed in detour mode).
    pub fn verify(&self, cfg: &SimConfig, dead_links: &BTreeSet<(usize, Port)>) -> VerifyReport {
        let adapter = DegradedRouting { cfg, table: self };
        let mut v = Verifier::new(cfg, &adapter)
            .with_link_filter(|r, p| !dead_links.contains(&(r as usize, p)))
            .with_pair_filter(|s, d| self.routable(s as usize, d as usize));
        if self.mode == DegradedMode::Detour {
            v = v.with_detour_escape();
        }
        v.run()
    }

    fn compute(
        cfg: &SimConfig,
        region: &RegionMap,
        routing: &dyn RoutingAlgorithm,
        dead_links: &BTreeSet<(usize, Port)>,
        dead_routers: &BTreeSet<usize>,
        mode: DegradedMode,
    ) -> Self {
        let n = cfg.num_nodes();
        let mut esc = vec![None; n * n];
        let mut routable = vec![false; n * n];
        let mut adap = vec![[None; 2]; n * n];
        for d in 0..n {
            let cd = cfg.coord_of(d as NodeId);
            let dead_pair = |s: usize| dead_routers.contains(&s) || dead_routers.contains(&d);
            for s in 0..n {
                if s == d || dead_pair(s) {
                    continue;
                }
                let cs = cfg.coord_of(s as NodeId);
                esc[s * n + d] = match mode {
                    DegradedMode::Strict => {
                        let (p, _lane) = escape_hop(cfg, cs, cd);
                        link_alive(cfg, dead_links, cs, p).then_some(p)
                    }
                    DegradedMode::Detour => detour_escape(cfg, region, dead_links, cs, cd),
                };
            }
            // Routability: walk the escape chain with a generous bound
            // (detours add at most a few laps of the mesh perimeter).
            let bound = 4 * (cfg.width as usize + cfg.height as usize);
            for s in 0..n {
                if s == d {
                    routable[s * n + d] = !dead_routers.contains(&s);
                    continue;
                }
                if dead_pair(s) {
                    continue;
                }
                let mut c = cfg.coord_of(s as NodeId);
                for _ in 0..=bound {
                    let r = cfg.node_at(c) as usize;
                    if r == d {
                        routable[s * n + d] = true;
                        break;
                    }
                    let Some(p) = esc[r * n + d] else { break };
                    c = step(cfg, c, p);
                }
            }
            // Adaptive ports. Strict mode keeps the base routing's minimal
            // productive ports (alive link, neighbor still routable): its
            // extended escape CDG is a subgraph of the pristine verified
            // one, so adaptivity stays safe. Detour mode is *escape-only*:
            // the sidestep sends escape packets sideways with the X offset
            // unresolved, and minimal adaptive hops taken after such a
            // sidestep re-enter escape channels against the dimension
            // order — Duato's extended (escape → adaptive* → escape)
            // dependencies then close real cycles (the CDG verifier finds
            // them). Dropping the adaptive channels removes every extended
            // dependency, and the direct detour CDG is acyclic by the
            // turn-model argument on `detour_escape`.
            if mode == DegradedMode::Strict {
                for s in 0..n {
                    if s == d || !routable[s * n + d] {
                        continue;
                    }
                    let cs = cfg.coord_of(s as NodeId);
                    let mut k = 0;
                    let adaptive = routing.next_hops(cfg, cs, cd).adaptive;
                    for p in adaptive.into_iter().flatten() {
                        if !link_alive(cfg, dead_links, cs, p) {
                            continue;
                        }
                        let nbr = cfg.node_at(step(cfg, cs, p)) as usize;
                        if routable[nbr * n + d] {
                            adap[s * n + d][k] = Some(p);
                            k += 1;
                        }
                    }
                }
            }
        }
        Self {
            n,
            mode,
            esc,
            adap,
            routable,
        }
    }

    /// The mode actually adopted.
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// Escape port from `src` toward `dst` (`None` = unroutable here).
    #[inline]
    pub fn esc_at(&self, src: usize, dst: usize) -> Option<Port> {
        self.esc[src * self.n + dst]
    }

    /// Usable adaptive ports from `src` toward `dst`.
    #[inline]
    pub fn adap_at(&self, src: usize, dst: usize) -> [Option<Port>; 2] {
        self.adap[src * self.n + dst]
    }

    /// Can a packet at `src` still reach `dst`?
    #[inline]
    pub fn routable(&self, src: usize, dst: usize) -> bool {
        self.routable[src * self.n + dst]
    }
}

/// Adapter presenting a [`DegradedTable`] to the static verifier as a
/// [`RoutingAlgorithm`] (only `next_hops` matters; selection is never
/// exercised symbolically).
struct DegradedRouting<'a> {
    cfg: &'a SimConfig,
    table: &'a DegradedTable,
}

impl RoutingAlgorithm for DegradedRouting<'_> {
    fn name(&self) -> &'static str {
        "degraded"
    }

    fn select(&self, _ctx: &SelectCtx<'_>, _cands: &[Port]) -> usize {
        0
    }

    fn next_hops(&self, _cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        let (s, d) = (
            self.cfg.node_at(cur) as usize,
            self.cfg.node_at(dst) as usize,
        );
        NextHops {
            adaptive: self.table.adap_at(s, d),
            // Only called for pair-filtered (routable) pairs, where the
            // escape chain exists; PORT_LOCAL would be flagged as a bad
            // hop by the verifier if this invariant were ever broken.
            escape: self.table.esc_at(s, d).unwrap_or(PORT_LOCAL),
            // Fault timelines are mesh-only (validated), so no datelines.
            escape_lane: 0,
        }
    }
}

/// Is the directed link out of `cur` through mesh port `p` in bounds and
/// not in the dead set?
#[inline]
fn link_alive(cfg: &SimConfig, dead: &BTreeSet<(usize, Port)>, cur: Coord, p: Port) -> bool {
    has_link(cfg, cur, p) && !dead.contains(&(cfg.node_at(cur) as usize, p))
}

/// Is some vertical link in column `x` between rows `y0` and `y1` dead
/// (walking from `y0` toward `y1`)?
fn col_blocked(cfg: &SimConfig, dead: &BTreeSet<(usize, Port)>, x: u8, y0: u8, y1: u8) -> bool {
    let (lo, hi, port) = if y1 > y0 {
        (y0, y1, PORT_SOUTH)
    } else {
        (y1, y0, PORT_NORTH)
    };
    (lo..hi).any(|y| {
        let c = Coord {
            x,
            y: if port == PORT_SOUTH { y } else { y + 1 },
        };
        !link_alive(cfg, dead, c, port)
    })
}

/// The sidestep column used to bypass dead vertical links in column `x`:
/// prefer the neighbor column that stays in the dead link's region (RAIR
/// confinement, best-effort), then east. Deterministic per column so every
/// router on the detour agrees.
fn lat_col(cfg: &SimConfig, region: &RegionMap, dead: &BTreeSet<(usize, Port)>, x: u8) -> u8 {
    let east = (x as usize + 1) < cfg.width as usize;
    let west = x > 0;
    if !east {
        return x - 1;
    }
    if !west {
        return x + 1;
    }
    // Region preference anchored at the northernmost dead vertical link.
    let anchor = (0..cfg.height)
        .find(|&y| !link_alive(cfg, dead, Coord { x, y }, PORT_SOUTH))
        .unwrap_or(0);
    let app = region.app_of(cfg.node_at(Coord { x, y: anchor }));
    let app_e = region.app_of(cfg.node_at(Coord {
        x: x + 1,
        y: anchor,
    }));
    let app_w = region.app_of(cfg.node_at(Coord {
        x: x - 1,
        y: anchor,
    }));
    if app_e != app && app_w == app {
        x - 1
    } else {
        x + 1
    }
}

/// Vertical sidestep direction for a dead horizontal link at `cur`:
/// prefer the row that stays in `cur`'s region, then south.
fn sidestep_v(
    cfg: &SimConfig,
    region: &RegionMap,
    dead: &BTreeSet<(usize, Port)>,
    cur: Coord,
) -> Option<Port> {
    let s_ok = link_alive(cfg, dead, cur, PORT_SOUTH);
    let n_ok = link_alive(cfg, dead, cur, PORT_NORTH);
    if s_ok && n_ok {
        let app = region.app_of(cfg.node_at(cur));
        let app_s = region.app_of(cfg.node_at(step(cfg, cur, PORT_SOUTH)));
        let app_n = region.app_of(cfg.node_at(step(cfg, cur, PORT_NORTH)));
        if app_s != app && app_n == app {
            Some(PORT_NORTH)
        } else {
            Some(PORT_SOUTH)
        }
    } else if s_ok {
        Some(PORT_SOUTH)
    } else if n_ok {
        Some(PORT_NORTH)
    } else {
        None
    }
}

/// The lane-shifted XY escape function used in [`DegradedMode::Detour`].
///
/// Deadlock-freedom argument (single dead link; the CDG verifier is the
/// net for multi-fault unions): a dead *horizontal* link adds only the
/// sidestep turns `{S→E, S→W}` (or `{N→E, N→W}`), which cannot complete a
/// turn cycle with XY's base turns; a dead *vertical* link in column `x`
/// diverts the whole column walk to the sidestep column, adding only the
/// rejoin turns `{S→W, N→W}` (sidestep east) or `{S→E, N→E}` (sidestep
/// west). The potentially dangerous divert turn (e.g. `S→E` *at* the dead
/// column) never enters the per-destination CDG: any packet bound past the
/// dead link diverts at its first column router, so no channel both enters
/// the column southbound and exits it eastbound for the same destination.
fn detour_escape(
    cfg: &SimConfig,
    region: &RegionMap,
    dead: &BTreeSet<(usize, Port)>,
    cur: Coord,
    dst: Coord,
) -> Option<Port> {
    if cur == dst {
        return Some(PORT_LOCAL);
    }
    // Deferred-X rule: on the sidestep column right next to the
    // destination's blocked column, finish Y first and rejoin where the
    // column clears.
    if cur.x.abs_diff(dst.x) == 1
        && cur.y != dst.y
        && col_blocked(cfg, dead, dst.x, cur.y, dst.y)
        && lat_col(cfg, region, dead, dst.x) == cur.x
    {
        let p = if dst.y > cur.y {
            PORT_SOUTH
        } else {
            PORT_NORTH
        };
        return link_alive(cfg, dead, cur, p).then_some(p);
    }
    let (p, _lane) = escape_hop(cfg, cur, dst);
    if p == PORT_EAST || p == PORT_WEST {
        // X phase: sidestep one row when the next horizontal link is dead.
        return if link_alive(cfg, dead, cur, p) {
            Some(p)
        } else {
            sidestep_v(cfg, region, dead, cur)
        };
    }
    // Y phase in the destination column: divert laterally if the column
    // walk ahead crosses a dead link.
    if col_blocked(cfg, dead, cur.x, cur.y, dst.y) {
        let lat = lat_col(cfg, region, dead, cur.x);
        let q = if lat > cur.x { PORT_EAST } else { PORT_WEST };
        return link_alive(cfg, dead, cur, q).then_some(q);
    }
    Some(p)
}

/// Runtime fault state, allocated by `Network::new` only when the
/// configured timeline is non-empty.
pub(crate) struct FaultState {
    /// Scheduled events sorted by cycle; `next_event` is the cursor.
    events: Vec<ScheduledFault>,
    next_event: usize,
    seed: u64,
    /// `transient_ber` scaled to a `u64` comparison threshold.
    corrupt_threshold: u64,
    pub(crate) dead_links: BTreeSet<(usize, Port)>,
    pub(crate) dead_routers: BTreeSet<usize>,
    /// The verified degraded routing, present after the first permanent
    /// fault.
    pub(crate) table: Option<DegradedTable>,
    /// Last scheduled arrival cycle per `(router, in_port, vc)` slot, so
    /// retransmitted flits never overtake within a link slot.
    pub(crate) last_arrival: Vec<u64>,
    /// Flits dropped per app — the ledger the conservation checkers add
    /// back into their balance.
    pub(crate) dropped_flits: Vec<u64>,
    pub(crate) dropped_flits_total: u64,
    /// Source-retry attempts per packet id.
    retry_counts: BTreeMap<u64, u32>,
}

impl FaultState {
    pub(crate) fn new(cfg: &SimConfig, num_apps: usize) -> Self {
        let mut events = cfg.fault.events.clone();
        events.sort_by_key(|e| e.cycle);
        let slots = cfg.num_nodes() * NUM_PORTS * cfg.vcs_per_port();
        Self {
            events,
            next_event: 0,
            seed: cfg.fault.seed,
            corrupt_threshold: (cfg.fault.transient_ber * 18_446_744_073_709_551_616.0) as u64,
            dead_links: BTreeSet::new(),
            dead_routers: BTreeSet::new(),
            table: None,
            last_arrival: vec![0; slots],
            dropped_flits: vec![0; num_apps],
            dropped_flits_total: 0,
            retry_counts: BTreeMap::new(),
        }
    }

    /// Pop every event due at or before `cycle` (events are pre-sorted).
    pub(crate) fn take_due_events(&mut self, cycle: u64) -> Vec<FaultEvent> {
        let mut due = Vec::new();
        while let Some(ev) = self.events.get(self.next_event) {
            if ev.cycle > cycle {
                break;
            }
            due.push(ev.event);
            self.next_event += 1;
        }
        due
    }

    /// Mark an event's links/routers dead (both link directions; a dead
    /// router takes all its links with it).
    pub(crate) fn apply_event(&mut self, cfg: &SimConfig, ev: FaultEvent) {
        let mut kill_link = |r: usize, p: Port| {
            let c = cfg.coord_of(r as NodeId);
            if !has_link(cfg, c, p) {
                return;
            }
            self.dead_links.insert((r, p));
            let nbr = cfg.node_at(step(cfg, c, p)) as usize;
            self.dead_links.insert((nbr, opposite(p)));
        };
        match ev {
            FaultEvent::LinkDown { router, port } => kill_link(router as usize, port),
            FaultEvent::RouterDown { router } => {
                for p in 1..NUM_PORTS {
                    kill_link(router as usize, p);
                }
                self.dead_routers.insert(router as usize);
            }
        }
    }

    /// Any permanent damage applied so far?
    pub(crate) fn has_dead(&self) -> bool {
        !self.dead_links.is_empty() || !self.dead_routers.is_empty()
    }

    /// Transient corruption active?
    pub(crate) fn corrupts(&self) -> bool {
        self.corrupt_threshold != 0
    }

    /// Deterministic link-level send: how many attempts until the CRC
    /// check passes (1 = clean first try). Capped at
    /// [`MAX_SEND_ATTEMPTS`]; the draw mixes the flit identity and link so
    /// it is independent of simulation order.
    pub(crate) fn send_attempts(&self, pkt: u64, seq: u32, router: usize, port: Port) -> u32 {
        if self.corrupt_threshold == 0 {
            return 1;
        }
        for attempt in 1..MAX_SEND_ATTEMPTS {
            let mut z = self
                .seed
                .wrapping_add(pkt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ (u64::from(seq) << 40)
                ^ (u64::from(attempt) << 24)
                ^ ((router as u64) << 8)
                ^ port as u64;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z >= self.corrupt_threshold {
                return attempt;
            }
        }
        MAX_SEND_ATTEMPTS
    }

    /// Flat index of an input-VC slot (for [`Self::last_arrival`]).
    #[inline]
    pub(crate) fn slot(cfg: &SimConfig, router: usize, port: Port, vc: usize) -> usize {
        (router * NUM_PORTS + port) * cfg.vcs_per_port() + vc
    }

    /// Record `flits` flits of `app` dropped (extraction or terminal drop).
    pub(crate) fn note_dropped_flits(&mut self, app: usize, flits: u64) {
        if app < self.dropped_flits.len() {
            self.dropped_flits[app] += flits;
        }
        self.dropped_flits_total += flits;
    }

    /// Bump and return the retry attempt count for packet `pkt`.
    pub(crate) fn bump_retry(&mut self, pkt: u64) -> u32 {
        let c = self.retry_counts.entry(pkt).or_insert(0);
        *c += 1;
        *c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::DuatoLocalAdaptive;

    fn dead_set(links: &[(usize, Port)]) -> BTreeSet<(usize, Port)> {
        let cfg = SimConfig::table1();
        let mut s = BTreeSet::new();
        for &(r, p) in links {
            s.insert((r, p));
            let nbr = cfg.node_at(step(&cfg, cfg.coord_of(r as NodeId), p)) as usize;
            s.insert((nbr, opposite(p)));
        }
        s
    }

    #[test]
    fn empty_timeline_is_empty() {
        let t = FaultTimeline::default();
        assert!(t.is_empty());
        assert!(t.validate(&SimConfig::table1()).is_ok());
    }

    #[test]
    fn timeline_validation_rejects_bad_events() {
        let cfg = SimConfig::table1();
        let t = FaultTimeline {
            transient_ber: 1.5,
            ..Default::default()
        };
        assert!(t.validate(&cfg).is_err());
        let t = FaultTimeline {
            events: vec![ScheduledFault {
                cycle: 0,
                event: FaultEvent::LinkDown {
                    router: 0,
                    port: PORT_NORTH, // out of bounds at the top edge
                },
            }],
            ..Default::default()
        };
        assert!(t.validate(&cfg).is_err());
        let t = FaultTimeline {
            events: vec![ScheduledFault {
                cycle: 0,
                event: FaultEvent::RouterDown { router: 999 },
            }],
            ..Default::default()
        };
        assert!(t.validate(&cfg).is_err());
    }

    #[test]
    fn detour_single_horizontal_link_verifies_and_routes_all_pairs() {
        let cfg = SimConfig::table1();
        let region = RegionMap::quadrants(&cfg);
        // Kill the east link out of router 27 (3,3) — mid-mesh.
        let dead = dead_set(&[(27, PORT_EAST)]);
        let (t, report) =
            DegradedTable::rebuild(&cfg, &region, &DuatoLocalAdaptive, &dead, &BTreeSet::new());
        assert_eq!(t.mode(), DegradedMode::Detour);
        assert!(report.ok(), "{:?}", report.violations.first());
        let n = cfg.num_nodes();
        for s in 0..n {
            for d in 0..n {
                assert!(t.routable(s, d), "pair {s}->{d} lost");
            }
        }
    }

    #[test]
    fn detour_single_vertical_link_verifies_and_routes_all_pairs() {
        let cfg = SimConfig::table1();
        let region = RegionMap::quadrants(&cfg);
        // Kill the south link out of router 20 (4,2).
        let dead = dead_set(&[(20, PORT_SOUTH)]);
        let (t, report) =
            DegradedTable::rebuild(&cfg, &region, &DuatoLocalAdaptive, &dead, &BTreeSet::new());
        assert_eq!(t.mode(), DegradedMode::Detour);
        assert!(report.ok(), "{:?}", report.violations.first());
        let n = cfg.num_nodes();
        for s in 0..n {
            for d in 0..n {
                assert!(t.routable(s, d), "pair {s}->{d} lost");
            }
        }
    }

    #[test]
    fn router_down_falls_back_to_strict_and_verifies() {
        let cfg = SimConfig::table1();
        let region = RegionMap::quadrants(&cfg);
        let mut st = FaultState::new(&cfg, region.num_apps());
        st.apply_event(&cfg, FaultEvent::RouterDown { router: 27 });
        let (t, report) = DegradedTable::rebuild(
            &cfg,
            &region,
            &DuatoLocalAdaptive,
            &st.dead_links,
            &st.dead_routers,
        );
        assert_eq!(t.mode(), DegradedMode::Strict);
        assert!(report.ok(), "{:?}", report.violations.first());
        // The dead router is unroutable from and to everywhere else.
        for r in 0..cfg.num_nodes() {
            if r != 27 {
                assert!(!t.routable(r, 27));
                assert!(!t.routable(27, r));
            }
        }
        // Pairs whose XY path avoids the dead router survive.
        assert!(t.routable(0, 7));
    }

    #[test]
    fn edge_row_sidestep_goes_north() {
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        // Bottom-row horizontal link (56 is (0,7)): sidestep must go north.
        let dead = dead_set(&[(56, PORT_EAST)]);
        let (t, report) =
            DegradedTable::rebuild(&cfg, &region, &DuatoLocalAdaptive, &dead, &BTreeSet::new());
        assert!(report.ok(), "{:?}", report.violations.first());
        assert_eq!(t.esc_at(56, 63), Some(PORT_NORTH));
        for d in 0..cfg.num_nodes() {
            assert!(t.routable(56, d));
        }
    }

    #[test]
    fn send_attempts_deterministic_and_bounded() {
        let mut cfg = SimConfig::table1();
        cfg.fault.transient_ber = 0.5;
        cfg.fault.seed = 7;
        let st = FaultState::new(&cfg, 1);
        for pkt in 0..200u64 {
            let a = st.send_attempts(pkt, 0, 3, PORT_EAST);
            assert_eq!(a, st.send_attempts(pkt, 0, 3, PORT_EAST));
            assert!((1..=MAX_SEND_ATTEMPTS).contains(&a));
        }
        // At BER 0.5 both single and multi-attempt sends must occur.
        let attempts: Vec<u32> = (0..200u64)
            .map(|p| st.send_attempts(p, 0, 3, PORT_EAST))
            .collect();
        assert!(attempts.contains(&1));
        assert!(attempts.iter().any(|&a| a > 1));
    }

    #[test]
    fn zero_ber_never_retransmits() {
        let cfg = SimConfig::table1();
        let st = FaultState::new(&cfg, 1);
        assert!(!st.corrupts());
        assert_eq!(st.send_attempts(42, 3, 5, PORT_WEST), 1);
    }

    #[test]
    fn timeline_digest_is_sensitive() {
        let t1 = FaultTimeline {
            transient_ber: 1e-3,
            seed: 1,
            events: vec![],
        };
        let mut t2 = t1.clone();
        t2.seed = 2;
        let digest = |t: &FaultTimeline| {
            let mut d = metrics::Digest::new();
            t.digest_into(&mut d);
            d.finish()
        };
        assert_ne!(digest(&t1), digest(&t2));
    }
}
