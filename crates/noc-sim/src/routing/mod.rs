//! Routing algorithms.
//!
//! All algorithms are *minimal* and deadlock-free per Duato's theory:
//! packets may adaptively use any productive direction on the adaptive
//! VCs, and can always fall back to the escape VCs that run
//! dimension-order routing — an acyclic sub-network on every supported
//! topology (with dateline escape lanes on torus/ring; see
//! [`crate::topology`]).
//!
//! The pieces:
//! * [`RoutingAlgorithm::next_hops`] — the routing function: the ports a
//!   packet may take on the adaptive VCs and the escape port and lane
//!   ([`NextHops::minimal`] for the fully-adaptive algorithms, built on
//!   [`crate::topology::productive_ports`] and
//!   [`crate::topology::escape_hop`]). Route computation, the static
//!   verifier, the admission walk and the fault tables all read it.
//! * [`RoutingAlgorithm::select`] — the selection function choosing among
//!   candidate ports; this is where local-adaptive and DBAR differ, and
//!   where DBAR's region-aware truncation of congestion information lives.

mod dbar;
mod duato;
mod xy;

pub use dbar::DbarAdaptive;
pub use duato::DuatoLocalAdaptive;
pub use xy::XyRouting;

use crate::config::SimConfig;
use crate::ids::{Coord, Port};
use crate::region::RegionMap;
use crate::router::Router;

/// Context handed to the selection function each time a head flit picks an
/// output port.
pub struct SelectCtx<'a> {
    pub cfg: &'a SimConfig,
    /// The router doing the selection (local credit/occupancy info).
    pub router: &'a Router,
    /// Packet destination.
    pub dst: Coord,
    /// Region layout (DBAR truncates congestion info at region boundaries).
    pub region: &'a RegionMap,
    /// Previous-cycle adaptive-VC occupancy of every router, indexed by
    /// router index — the idealized stand-in for DBAR's dedicated
    /// congestion wiring (one-cycle-old global view).
    pub congestion: &'a [u16],
}

/// A minimal routing algorithm.
pub trait RoutingAlgorithm: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Pure, state-independent enumeration of the routing function at
    /// `(cur, dst)`: every output port a packet may legally occupy a VC on,
    /// split by VC class. Route computation (in both kernels) legalizes
    /// exactly these; the static verifier ([`crate::verify`]) builds the
    /// channel dependency graph from them. Every adaptive port must be
    /// minimal under the topology's distance
    /// ([`crate::topology::minimal_hop`]). `cur != dst` is guaranteed by
    /// the caller.
    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops;

    /// Choose among `cands` (a non-empty subset of the adaptive ports, each
    /// known to have an allocatable adaptive VC). Returns an index into
    /// `cands`.
    fn select(&self, ctx: &SelectCtx<'_>, cands: &[Port]) -> usize;
}

/// The statically-enumerated legal hops at one `(cur, dst)` point — see
/// [`RoutingAlgorithm::next_hops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHops {
    /// Ports usable on adaptive VCs (up to one per dimension).
    pub adaptive: [Option<Port>; 2],
    /// The port usable on the per-class escape VCs.
    pub escape: Port,
    /// The escape lane a packet entering an escape VC here must ride
    /// (always 0 on non-wrapping topologies).
    pub escape_lane: u8,
}

impl NextHops {
    /// Minimal fully-adaptive routing: the topology's productive ports on
    /// the adaptive VCs, its dimension-order escape hop on the escape VCs.
    #[inline]
    pub fn minimal(cfg: &SimConfig, cur: Coord, dst: Coord) -> Self {
        let (escape, escape_lane) = crate::topology::escape_hop(cfg, cur, dst);
        Self {
            adaptive: crate::topology::productive_ports(cfg, cur, dst),
            escape,
            escape_lane,
        }
    }
}

/// Sum of free credits over the adaptive VCs of output port `p` — the
/// canonical local congestion estimate ("# of free VCs" \[3\]).
pub fn free_adaptive_credits(cfg: &SimConfig, router: &Router, p: Port) -> usize {
    cfg.adaptive_vc_range()
        .map(|vc| {
            if router.out_alloc(p, vc).is_none() {
                router.credits(p, vc)
            } else {
                0
            }
        })
        .sum()
}
