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

    #[test]
    #[should_panic]
    fn opposite_of_local_panics() {
        opposite(PORT_LOCAL);
    }
}
