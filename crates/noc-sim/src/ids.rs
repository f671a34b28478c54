//! Small identifier types shared across the simulator.

use serde::{Deserialize, Serialize};

/// Node/router identifier (row-major index into the mesh).
pub type NodeId = u16;

/// Application identifier. Each concurrently running application gets one;
/// routers are tagged with the application assigned to their region.
pub type AppId = u8;

/// Routers not assigned to any application (e.g. dedicated memory-controller
/// tiles) carry this tag; all traffic is treated as native there.
pub const APP_NONE: AppId = AppId::MAX;

/// Message class (virtual network). Synthetic runs use one class; closed-loop
/// request/reply workloads use two.
pub type MsgClass = u8;

/// Router port index. `PORT_LOCAL` is the NI port; the rest are the four
/// directional links (a ring uses only east and west).
pub type Port = usize;

pub const PORT_LOCAL: Port = 0;
pub const PORT_NORTH: Port = 1;
pub const PORT_EAST: Port = 2;
pub const PORT_SOUTH: Port = 3;
pub const PORT_WEST: Port = 4;
/// Ports per router on every topology (local + 4 directions).
pub const NUM_PORTS: usize = 5;

/// The slot of VC `vc` of `port` in a router with `vcs` VCs per port:
/// `port · vcs + vc`, the VC's bit in the router's bitmaps and its index in
/// every per-VC table. The kernel names a VC by its slot; `(port, vc)`
/// remains only at interfaces (checker hooks, routing, faults, tests).
#[inline]
pub fn slot(vcs: usize, port: Port, vc: usize) -> usize {
    port * vcs + vc
}

/// Network-wide index of VC `slot` of router `router`, every router having
/// `slots` VC slots: `router · slots + slot`. The one flattening of a
/// network's VCs — per-VC tables outside the routers index by it.
#[inline]
pub fn vc_index(router: usize, slots: usize, slot: usize) -> usize {
    router * slots + slot
}

/// Opposite direction of a (non-local) port: flits leaving output port `p`
/// arrive at the neighbor's input port `opposite(p)`.
#[inline]
pub fn opposite(p: Port) -> Port {
    match p {
        PORT_NORTH => PORT_SOUTH,
        PORT_SOUTH => PORT_NORTH,
        PORT_EAST => PORT_WEST,
        PORT_WEST => PORT_EAST,
        _ => panic!("opposite() of non-mesh port {p}"),
    }
}

/// Human-readable port name (debug output).
pub fn port_name(p: Port) -> &'static str {
    match p {
        PORT_LOCAL => "L",
        PORT_NORTH => "N",
        PORT_EAST => "E",
        PORT_SOUTH => "S",
        PORT_WEST => "W",
        _ => "?",
    }
}

/// Router coordinate on any of the four topologies (mesh, torus, ring,
/// concentrated mesh). `x` grows eastward, `y` grows southward (row-major:
/// router `id = y * width + x`; a ring is the single row `y = 0`). Hop
/// distances live in [`crate::topology`], which knows about wraparound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    pub x: u8,
    pub y: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involution() {
        for p in [PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST] {
            assert_eq!(opposite(opposite(p)), p);
        }
    }

    /// The shared index is the `(router · NUM_PORTS + port) · vcs + vc`
    /// the per-VC tables used before it, and it round-trips through
    /// `(router, port, vc)`, on every canonical topology and at router
    /// counts 63, 64 and 65.
    #[test]
    fn vc_index_is_the_router_major_flattening() {
        use crate::config::SimConfig;
        use crate::router::Router;
        use crate::topology::TopologyKind;
        let shapes = TopologyKind::CANONICAL
            .map(|topology| (topology, None))
            .into_iter()
            .chain([
                (TopologyKind::Mesh, Some((9, 7))),
                (TopologyKind::Mesh, Some((8, 8))),
                (TopologyKind::Mesh, Some((13, 5))),
                (TopologyKind::Ring, Some((63, 1))),
                (TopologyKind::Ring, Some((64, 1))),
                (TopologyKind::Ring, Some((65, 1))),
            ]);
        for (topology, shape) in shapes {
            let mut cfg = SimConfig::table1_topology(topology);
            if let Some((width, height)) = shape {
                (cfg.width, cfg.height) = (width, height);
            }
            cfg.validate().expect("the shape validates");
            let (vcs, routers) = (cfg.vcs_per_port(), cfg.num_routers());
            let slots = NUM_PORTS * vcs;
            let r = Router::new(&cfg, 0, cfg.coord_of(0), 0);
            let mut next = 0;
            for router in 0..routers {
                for port in 0..NUM_PORTS {
                    for vc in 0..vcs {
                        let slot = r.slot(port, vc);
                        let index = vc_index(router, slots, slot);
                        assert_eq!(index, (router * NUM_PORTS + port) * vcs + vc);
                        assert_eq!(index, next, "{topology:?} {shape:?}: dense and ascending");
                        next += 1;
                        let back = (index / slots, r.port_vc(index % slots));
                        assert_eq!(back, (router, (port, vc)), "{topology:?} {shape:?}");
                    }
                }
            }
            assert_eq!(next, routers * slots);
        }
    }

    #[test]
    #[should_panic]
    fn opposite_of_local_panics() {
        opposite(PORT_LOCAL);
    }
}
