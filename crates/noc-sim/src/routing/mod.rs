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
//! * [`RoutingAlgorithm::adaptive_ports`] — the productive output ports a
//!   packet may take adaptively (route computation, RC stage), from
//!   [`crate::topology::productive_ports`].
//! * [`crate::topology::escape_hop`] — the dimension-order escape port
//!   and lane (shared by all algorithms; it is the escape path).
//!   [`escape_port`] remains as the mesh-specific XY function the fault
//!   subsystem's detour logic builds on.
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
use crate::ids::{Coord, Port, PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH, PORT_WEST};
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

    /// Productive output ports usable on adaptive VCs, up to one per
    /// dimension. Must be minimal under the topology's distance (every
    /// returned port reduces [`crate::topology::distance`]).
    /// `cur != dst` is guaranteed by the caller.
    fn adaptive_ports(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> [Option<Port>; 2];

    /// Choose among `cands` (a non-empty subset of the adaptive ports, each
    /// known to have an allocatable adaptive VC). Returns an index into
    /// `cands`.
    fn select(&self, ctx: &SelectCtx<'_>, cands: &[Port]) -> usize;

    /// Pure, state-independent enumeration of the routing function at
    /// `(cur, dst)`: every output port a packet may legally occupy a VC on,
    /// split by VC class. The static verifier ([`crate::verify`]) builds
    /// the channel dependency graph from this; it must describe exactly
    /// the port/VC-class pairs the RC/VA stages legalize at runtime. The
    /// default mirrors the kernel: the algorithm's adaptive ports on
    /// adaptive VCs plus the topology's dimension-order escape hop (port
    /// and lane) on the escape VCs.
    /// `cur != dst` is guaranteed by the caller.
    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        let (escape, escape_lane) = crate::topology::escape_hop(cfg, cur, dst);
        NextHops {
            adaptive: self.adaptive_ports(cfg, cur, dst),
            escape,
            escape_lane,
        }
    }
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

/// Dimension-order (XY) port toward `dst` on a *non-wrapping* (mesh)
/// topology: exhaust X offset first, then Y. This is the mesh escape
/// path (the fault subsystem's detour functions are built on it);
/// topology-generic callers use [`crate::topology::escape_hop`].
/// Returns `PORT_LOCAL` when `cur == dst`.
#[inline]
pub fn escape_port(cur: Coord, dst: Coord) -> Port {
    if dst.x > cur.x {
        PORT_EAST
    } else if dst.x < cur.x {
        PORT_WEST
    } else if dst.y > cur.y {
        PORT_SOUTH
    } else if dst.y < cur.y {
        PORT_NORTH
    } else {
        PORT_LOCAL
    }
}

/// The (up to two) minimal productive directions from `cur` to `dst` on
/// a *non-wrapping* (mesh) topology; topology-generic callers use
/// [`crate::topology::productive_ports`].
#[inline]
pub fn productive_ports(cur: Coord, dst: Coord) -> [Option<Port>; 2] {
    let xp = if dst.x > cur.x {
        Some(PORT_EAST)
    } else if dst.x < cur.x {
        Some(PORT_WEST)
    } else {
        None
    };
    let yp = if dst.y > cur.y {
        Some(PORT_SOUTH)
    } else if dst.y < cur.y {
        Some(PORT_NORTH)
    } else {
        None
    };
    [xp, yp]
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

/// Step one hop from `c` through output port `p` on a *non-wrapping*
/// mesh (must be in-bounds; callers guarantee productivity).
/// Topology-generic callers use [`crate::topology::step`], which wraps.
#[inline]
pub fn step(c: Coord, p: Port) -> Coord {
    match p {
        PORT_NORTH => Coord { x: c.x, y: c.y - 1 },
        PORT_SOUTH => Coord { x: c.x, y: c.y + 1 },
        PORT_EAST => Coord { x: c.x + 1, y: c.y },
        PORT_WEST => Coord { x: c.x - 1, y: c.y },
        _ => panic!("step() through non-mesh port"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    #[test]
    fn escape_is_x_first() {
        assert_eq!(escape_port(c(0, 0), c(3, 3)), PORT_EAST);
        assert_eq!(escape_port(c(3, 0), c(3, 3)), PORT_SOUTH);
        assert_eq!(escape_port(c(3, 3), c(0, 3)), PORT_WEST);
        assert_eq!(escape_port(c(3, 3), c(3, 0)), PORT_NORTH);
        assert_eq!(escape_port(c(2, 2), c(2, 2)), PORT_LOCAL);
    }

    #[test]
    fn productive_ports_cover_quadrants() {
        assert_eq!(
            productive_ports(c(2, 2), c(5, 7)),
            [Some(PORT_EAST), Some(PORT_SOUTH)]
        );
        assert_eq!(
            productive_ports(c(2, 2), c(0, 0)),
            [Some(PORT_WEST), Some(PORT_NORTH)]
        );
        assert_eq!(productive_ports(c(2, 2), c(2, 7)), [None, Some(PORT_SOUTH)]);
        assert_eq!(productive_ports(c(2, 2), c(7, 2)), [Some(PORT_EAST), None]);
    }

    #[test]
    fn every_productive_port_reduces_distance() {
        for sx in 0..8 {
            for sy in 0..8 {
                for dx in 0..8 {
                    for dy in 0..8 {
                        let (s, d) = (c(sx, sy), c(dx, dy));
                        if s == d {
                            continue;
                        }
                        for p in productive_ports(s, d).into_iter().flatten() {
                            assert_eq!(step(s, p).hops_to(d) + 1, s.hops_to(d));
                        }
                        let e = escape_port(s, d);
                        assert_eq!(step(s, e).hops_to(d) + 1, s.hops_to(d));
                    }
                }
            }
        }
    }
}
