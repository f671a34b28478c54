//! Static deadlock-freedom and legality verification (Duato's criterion).
//!
//! The runtime watchdog of [`crate::oracle`] detects a deadlock *after* the
//! network has wedged. This module proves, **before a single cycle is
//! simulated**, that a `(SimConfig, RegionMap, RoutingAlgorithm)` triple
//! cannot deadlock and cannot strand a packet:
//!
//! 1. **Escape-CDG acyclicity** — the channel dependency graph over
//!    `(router, port, VC-class)` nodes is built by symbolically enumerating
//!    the routing function via [`RoutingAlgorithm::next_hops`] for every
//!    destination, the *extended* dependencies between escape channels
//!    (escape → adaptive* → escape, Duato's indirect dependencies) are
//!    added, and Tarjan SCC proves the escape subgraph acyclic. A cycle is
//!    reported as a concrete [`Witness::Cycle`] of channels.
//! 2. **Escape connectedness** — every router that can hold a packet for a
//!    destination has a usable escape channel toward it (the escape
//!    subfunction is connected, the second half of Duato's criterion).
//! 3. **Region legality** — every src→dst pair retains a minimal legal
//!    path under any link restriction in force (LBDR connectivity bits,
//!    severed region maps), reported as [`Witness::UnreachablePair`].
//!
//! Message classes never change in flight and all classes share one escape
//! function, so the per-class escape graphs are edge-for-edge isomorphic;
//! the verifier checks the class-0 graph once and the verdict holds for
//! every class (witnesses render with class 0). Adaptive VCs within a port
//! are interchangeable for dependency purposes and collapse to one
//! `Adaptive` channel node per port.
//!
//! `Network::new` runs the verifier whenever the invariant oracle is on
//! ([`crate::oracle::OracleConfig`]: debug-on / release-off / `RAIR_ORACLE`)
//! and panics on a violation when the oracle would; results are cached
//! process-wide so repeated constructions of the same configuration (e.g.
//! proptest loops) verify once.

mod cdg;
mod legality;

use crate::config::SimConfig;
use crate::ids::{MsgClass, NodeId, Port, PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use crate::region::RegionMap;
use crate::routing::RoutingAlgorithm;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// At most this many violations are carried in a report / `SimStats`
/// (the count is unbounded) — a severed mesh yields thousands of
/// unreachable pairs and the first few witnesses tell the whole story.
pub const MAX_RECORDED_VIOLATIONS: usize = 32;

/// The dependency class of a channel node in the CDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChannelClass {
    /// The dimension-order escape VC of one message class.
    Escape(MsgClass),
    /// Any adaptive VC of the port (interchangeable for dependencies).
    Adaptive,
}

/// One channel node of the dependency graph: an output port's VC class at
/// a router — `(router, port, VC-class, dateline lane)`. The lane is
/// always 0 on non-wrapping topologies; on torus/ring each escape class
/// splits into the two dateline lanes (see [`crate::topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId {
    pub router: NodeId,
    pub port: Port,
    pub class: ChannelClass,
    pub lane: u8,
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = match self.port {
            PORT_NORTH => "N",
            PORT_SOUTH => "S",
            PORT_EAST => "E",
            PORT_WEST => "W",
            _ => "?",
        };
        match self.class {
            ChannelClass::Escape(c) if self.lane > 0 => {
                write!(f, "r{}:{p}:esc{c}@{}", self.router, self.lane)
            }
            ChannelClass::Escape(c) => write!(f, "r{}:{p}:esc{c}", self.router),
            ChannelClass::Adaptive => write!(f, "r{}:{p}:adp", self.router),
        }
    }
}

/// The concrete evidence attached to a violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Witness {
    /// A dependency cycle among channels — a deadlock configuration.
    Cycle(Vec<ChannelId>),
    /// A source that cannot reach a destination over any legal path.
    UnreachablePair { src: NodeId, dst: NodeId },
    /// A router holding a packet for `dst` with no usable escape channel
    /// (the escape subfunction is disconnected there).
    NoEscape { router: NodeId, dst: NodeId },
    /// A router with no usable output channel at all toward `dst`.
    NoRoute { router: NodeId, dst: NodeId },
    /// The routing function emitted an out-of-mesh or non-minimal hop.
    BadHop {
        router: NodeId,
        dst: NodeId,
        port: Port,
    },
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Cycle(chs) => {
                write!(f, "cycle ")?;
                for (i, c) in chs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{c}")?;
                }
                if let Some(first) = chs.first() {
                    write!(f, " -> {first}")?;
                }
                Ok(())
            }
            Witness::UnreachablePair { src, dst } => {
                write!(f, "unreachable pair src r{src} -> dst r{dst}")
            }
            Witness::NoEscape { router, dst } => {
                write!(f, "no escape channel at r{router} toward r{dst}")
            }
            Witness::NoRoute { router, dst } => {
                write!(f, "no usable output at r{router} toward r{dst}")
            }
            Witness::BadHop { router, dst, port } => {
                write!(f, "illegal hop port {port} at r{router} toward r{dst}")
            }
        }
    }
}

/// One static-verification failure: which check tripped plus the witness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyViolation {
    /// Name of the check: `escape-cdg-acyclic`, `escape-connected`,
    /// `region-legality` or `routing-function`.
    pub check: &'static str,
    /// The concrete evidence.
    pub witness: Witness,
}

impl fmt::Display for VerifyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check, self.witness)
    }
}

/// Machine-readable outcome of one verification run.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Routing algorithm name.
    pub routing: &'static str,
    /// Escape channel nodes in the checked dependency graph.
    pub channels: usize,
    /// Extended escape dependency edges (after dedup across destinations).
    pub dep_edges: usize,
    /// src→dst legality pairs checked.
    pub pairs_checked: usize,
    /// Violations, capped at [`MAX_RECORDED_VIOLATIONS`].
    pub violations: Vec<VerifyViolation>,
    /// Uncapped violation count.
    pub violation_count: u64,
}

impl VerifyReport {
    /// Did every check pass?
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }
}

/// A configured verification run.
///
/// By default the full criterion is checked: escape-CDG acyclicity,
/// escape connectedness and all-pairs minimal-path legality. The builders
/// model restricted or broken configurations:
///
/// * [`with_link_filter`](Self::with_link_filter) removes physical links
///   (LBDR connectivity bits, severed region maps) — legality and
///   connectedness are then checked over the surviving links;
/// * [`without_escape`](Self::without_escape) disables the escape VCs, so
///   deadlock freedom must come from the adaptive channels alone and the
///   *full* adaptive CDG is required acyclic (the negative battery uses
///   this to force real witness cycles out of fully-adaptive routing).
pub struct Verifier<'a> {
    cfg: &'a SimConfig,
    routing: &'a dyn RoutingAlgorithm,
    link_ok: Option<Box<dyn Fn(NodeId, Port) -> bool + 'a>>,
    pair_ok: Option<Box<dyn Fn(NodeId, NodeId) -> bool + 'a>>,
    use_escape: bool,
    detour_escape: bool,
}

impl<'a> Verifier<'a> {
    pub fn new(cfg: &'a SimConfig, routing: &'a dyn RoutingAlgorithm) -> Self {
        Self {
            cfg,
            routing,
            link_ok: None,
            pair_ok: None,
            use_escape: true,
            detour_escape: false,
        }
    }

    /// Restrict the physical links: `f(router, out_port)` returns whether
    /// the link out of `router` through `out_port` is usable.
    pub fn with_link_filter(mut self, f: impl Fn(NodeId, Port) -> bool + 'a) -> Self {
        self.link_ok = Some(Box::new(f));
        self
    }

    /// Restrict which `(holder, dst)` pairs carry traffic: `f(r, dst)`
    /// returns whether a packet destined to `dst` can ever occupy a VC at
    /// router `r`. Escape-connectedness and legality are only required for
    /// admitted pairs, and only their channels enter the dependency graph.
    ///
    /// The filter must be closed under minimal-path intermediates (every
    /// router a legal packet can traverse is itself admitted) — true for
    /// LBDR-confined regions, where the link filter keeps packets inside
    /// the region and every region node is a legal holder.
    pub fn with_pair_filter(mut self, f: impl Fn(NodeId, NodeId) -> bool + 'a) -> Self {
        self.pair_ok = Some(Box::new(f));
        self
    }

    /// Disable the escape VCs (negative testing): the adaptive CDG itself
    /// must then be acyclic.
    pub fn without_escape(mut self) -> Self {
        self.use_escape = false;
        self
    }

    /// Allow a *non-minimal* escape function (fault-detour routing): the
    /// escape port may point away from the destination, so escape
    /// reachability is established by walking the escape chain (bounded)
    /// instead of the minimal-hop dynamic program. Adaptive hops must stay
    /// minimal — the extended-dependency closure relies on it.
    pub fn with_detour_escape(mut self) -> Self {
        self.detour_escape = true;
        self
    }

    fn link_usable(&self, router: NodeId, port: Port) -> bool {
        self.link_ok.as_ref().is_none_or(|f| f(router, port))
    }

    fn pair_usable(&self, holder: NodeId, dst: NodeId) -> bool {
        self.pair_ok.as_ref().is_none_or(|f| f(holder, dst))
    }

    /// Run every check and collect the report.
    pub fn run(&self) -> VerifyReport {
        cdg::run(self)
    }
}

/// The key both process-wide verifier memos file a network under: config
/// digest, routing name, region map, and `extra` (admission adds the scheme
/// label).
pub(crate) fn network_key(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
    extra: &str,
) -> u64 {
    let mut d = metrics::Digest::new();
    cfg.digest_into(&mut d);
    d.write_str(routing.name());
    d.write_str(extra);
    for n in 0..region.len() {
        d.write_u64(u64::from(region.app_of(n as NodeId)));
    }
    d.finish()
}

/// Look `key` up in a digest-keyed memo, computing (outside the lock) and
/// remembering the value on a miss. A poisoned lock recomputes instead of
/// panicking.
pub(crate) fn memoized<V: Clone>(
    cache: &Mutex<BTreeMap<u64, V>>,
    key: u64,
    compute: impl FnOnce() -> V,
) -> V {
    if let Some(hit) = cache.lock().ok().and_then(|c| c.get(&key).cloned()) {
        return hit;
    }
    let value = compute();
    if let Ok(mut c) = cache.lock() {
        c.insert(key, value.clone());
    }
    value
}

/// Verify `(cfg, region, routing)` as `Network::new` does, memoizing the
/// result process-wide (see [`network_key`]) so construction-heavy tests pay
/// the analysis once.
///
/// Returns the capped violation list plus the uncapped count.
pub fn verify_network_cached(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
) -> (Vec<VerifyViolation>, u64) {
    static CACHE: Mutex<BTreeMap<u64, (Vec<VerifyViolation>, u64)>> = Mutex::new(BTreeMap::new());
    memoized(&CACHE, network_key(cfg, region, routing, ""), || {
        let report = Verifier::new(cfg, routing).run();
        (report.violations, report.violation_count)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{DbarAdaptive, DuatoLocalAdaptive, XyRouting};

    #[test]
    fn shipped_routings_verify_clean() {
        let cfg = SimConfig::table1();
        for routing in [
            &XyRouting as &dyn RoutingAlgorithm,
            &DuatoLocalAdaptive,
            &DbarAdaptive,
        ] {
            let r = Verifier::new(&cfg, routing).run();
            assert!(
                r.ok(),
                "{} failed: {:?}",
                routing.name(),
                r.violations.first()
            );
            assert!(r.channels > 0 && r.dep_edges > 0);
            assert_eq!(r.pairs_checked, 64 * 63);
        }
    }

    #[test]
    fn rectangular_and_multiclass_meshes_verify_clean() {
        let mut cfg = SimConfig::table1_req_reply();
        cfg.width = 8;
        cfg.height = 4;
        let r = Verifier::new(&cfg, &DuatoLocalAdaptive).run();
        assert!(r.ok(), "{:?}", r.violations.first());
    }

    #[test]
    fn escape_disabled_fully_adaptive_is_cyclic() {
        let cfg = SimConfig::table1();
        let r = Verifier::new(&cfg, &DuatoLocalAdaptive)
            .without_escape()
            .run();
        assert!(!r.ok());
        let cyc = r
            .violations
            .iter()
            .find(|v| matches!(v.witness, Witness::Cycle(_)))
            .expect("expected a witness cycle");
        if let Witness::Cycle(chs) = &cyc.witness {
            assert!(chs.len() >= 2);
            // Each consecutive pair must be one hop apart.
            for w in chs.windows(2) {
                let a = cfg.coord_of(w[0].router);
                let b = cfg.coord_of(w[1].router);
                let hops = crate::topology::distance(&cfg, a, b);
                assert_eq!(hops, 1, "witness not a channel chain");
            }
        }
    }

    #[test]
    fn escape_disabled_xy_stays_acyclic() {
        // XY's "adaptive" port is the dimension-order port, an acyclic CDG
        // on its own — escape VCs are not needed for deadlock freedom.
        let cfg = SimConfig::table1();
        let r = Verifier::new(&cfg, &XyRouting).without_escape().run();
        assert!(r.ok(), "{:?}", r.violations.first());
    }

    #[test]
    fn severed_column_yields_unreachable_pairs() {
        // Kill every east-west link crossing between x=3 and x=4.
        let cfg = SimConfig::table1();
        let r = Verifier::new(&cfg, &DuatoLocalAdaptive)
            .with_link_filter(|router, port| {
                let c = cfg.coord_of(router);
                !((c.x == 3 && port == PORT_EAST) || (c.x == 4 && port == PORT_WEST))
            })
            .run();
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| matches!(
            v.witness,
            Witness::UnreachablePair { .. } | Witness::NoEscape { .. }
        )));
        // 32 sources on each side of the cut can't reach the 32 dsts on
        // the other: the uncapped count sees them all, the report is capped.
        assert!(r.violation_count as usize > MAX_RECORDED_VIOLATIONS);
        assert_eq!(r.violations.len(), MAX_RECORDED_VIOLATIONS);
    }

    #[test]
    fn cached_network_entrypoint_is_clean_for_table1() {
        let cfg = SimConfig::table1();
        let region = RegionMap::quadrants(&cfg);
        let (v, count) = verify_network_cached(&cfg, &region, &DbarAdaptive);
        assert!(v.is_empty() && count == 0);
        // Second lookup hits the cache (same result either way).
        let (v2, c2) = verify_network_cached(&cfg, &region, &DbarAdaptive);
        assert!(v2.is_empty() && c2 == 0);
    }
}
