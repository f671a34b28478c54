//! Topology abstraction: mesh, torus, ring and concentrated mesh.
//!
//! The simulator kernel is topology-parameterized through free functions
//! ([`distance`], [`step`], [`has_link`], [`minimal_hop`],
//! [`productive_ports`], [`escape_hop`], …) taking `&SimConfig` and
//! dispatching on [`SimConfig::topology`]. They are the only hop
//! functions: the cycle kernel, the routing algorithms, the invariant
//! oracle, the static verifier, the admission walk and the fault tables
//! all route their geometry through them, and a mesh is just the kind
//! whose links do not wrap.
//!
//! ## Escape routing per topology
//!
//! Every topology ships a deadlock-free escape function (Duato's theory:
//! the escape VCs must form an acyclic channel dependency graph, and the
//! extended escape → adaptive* → escape dependencies must not close
//! cycles either — the static verifier in [`crate::verify`] proves both
//! for every constructed network):
//!
//! * **Mesh / concentrated mesh** — dimension-order XY on one escape
//!   lane per class. Acyclic by the classic turn-model argument.
//! * **Torus / ring** (a ring is a 1-D torus) — dimension-order over the
//!   *chosen minimal direction* per dimension (ties at exactly half the
//!   ring go east/south, deterministically), with **two escape lanes per
//!   class** playing the role of dateline VCs: a packet travels on
//!   lane 1 while the remainder of its path in the chosen direction
//!   still crosses that direction's wraparound link, and on lane 0 after
//!   (or if it never does). Within one direction the lane-1 channel
//!   chain feeds the wrap link which feeds the lane-0 chain — a total
//!   order, hence acyclic; X channels strictly precede Y channels; and
//!   because the adaptive productive ports on a torus are restricted to
//!   the *same* chosen minimal directions, adaptive detours can only
//!   move a packet further along that order, so the extended
//!   dependencies stay acyclic too (the verifier checks this
//!   computationally rather than trusting the argument). `repro
//!   verify-config` proves every [`TopologyKind::CANONICAL`] config in one
//!   run, and must reject the torus and the ring with the lane switch
//!   removed, each with its lane-0 wrap cycle as the witness.
//!
//! ## Concentration
//!
//! A concentrated mesh keeps `NUM_PORTS` and the router microarchitecture
//! unchanged: `concentration` nodes share each router's single local
//! port, injecting into distinct local input VCs (one flit per cycle per
//! node, as before). Node `n` maps to router `n / concentration`; all
//! nodes of a router share the router's coordinate and region
//! application. Ejection demultiplexes on the packet's destination node.
//!
//! ## What stays mesh-only
//!
//! The fault/resilience subsystem ([`crate::fault`]) — its detour escape
//! function is a turn-model argument specific to the mesh, so
//! [`SimConfig::validate`] rejects non-empty fault timelines on other
//! topologies rather than shipping an unproven degraded-routing
//! function.

use crate::config::SimConfig;
use crate::ids::{Coord, Port, PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use serde::{Deserialize, Serialize};

/// Which topology a [`SimConfig`] describes. Carried in the config (and
/// folded into behavioral digests only when not the default mesh, so all
/// pre-existing mesh digests and cache keys are unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TopologyKind {
    /// 2-D mesh, `width × height` (the paper's topology).
    #[default]
    Mesh,
    /// 2-D torus: mesh plus per-row and per-column wraparound links.
    Torus,
    /// 1-D bidirectional ring of `width` routers (`height` must be 1).
    Ring,
    /// Concentrated mesh: a `width × height` router grid with
    /// `concentration` nodes sharing each router's local port.
    CMesh {
        /// Nodes per router (≥ 2; 4 is the conventional choice).
        concentration: u8,
    },
}

impl TopologyKind {
    /// One of each kind, in report order (a 4-NI concentrated mesh): with
    /// [`SimConfig::table1_topology`], the matrix every static self-check
    /// (`repro verify-config`, `repro admit`) runs in one invocation.
    pub const CANONICAL: [TopologyKind; 4] = [
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::Ring,
        TopologyKind::CMesh { concentration: 4 },
    ];

    /// Short lowercase label (the `topology` column of the reports).
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
            TopologyKind::CMesh { .. } => "cmesh",
        }
    }

    /// Escape lanes per message class: torus and ring need a second
    /// (dateline) lane; mesh variants need one.
    #[inline]
    pub fn escape_lanes(self) -> usize {
        match self {
            TopologyKind::Torus | TopologyKind::Ring => 2,
            TopologyKind::Mesh | TopologyKind::CMesh { .. } => 1,
        }
    }

    /// Nodes per router.
    #[inline]
    pub fn concentration(self) -> usize {
        match self {
            TopologyKind::CMesh { concentration } => concentration as usize,
            _ => 1,
        }
    }

    /// Do links wrap around in X (and, unless a ring, in Y)?
    #[inline]
    pub fn wraps(self) -> bool {
        matches!(self, TopologyKind::Torus | TopologyKind::Ring)
    }

    /// Fold into a digest. Only called for non-mesh kinds (the mesh is
    /// digest-transparent so pre-existing goldens and cache keys hold).
    pub fn digest_into(self, d: &mut metrics::Digest) {
        match self {
            TopologyKind::Mesh => d.write_u64(0),
            TopologyKind::Torus => d.write_u64(1),
            TopologyKind::Ring => d.write_u64(2),
            TopologyKind::CMesh { concentration } => {
                d.write_u64(3);
                d.write_u64(concentration as u64);
            }
        }
    }
}

/// Per-dimension distance: wrapped minimum on a torus/ring dimension,
/// plain offset otherwise.
#[inline]
fn dim_dist(wrap: bool, a: u8, b: u8, size: u8) -> u32 {
    let d = u32::from(a.abs_diff(b));
    if wrap {
        d.min(u32::from(size) - d)
    } else {
        d
    }
}

/// Minimal hop distance between two router coordinates (a ring's single
/// row contributes no Y offset).
#[inline]
pub fn distance(cfg: &SimConfig, a: Coord, b: Coord) -> u32 {
    let wrap = cfg.topology.wraps();
    dim_dist(wrap, a.x, b.x, cfg.width) + dim_dist(wrap, a.y, b.y, cfg.height)
}

/// Does the directed link out of `c` through port `p` exist?
#[inline]
pub fn has_link(cfg: &SimConfig, c: Coord, p: Port) -> bool {
    match cfg.topology {
        TopologyKind::Mesh | TopologyKind::CMesh { .. } => match p {
            PORT_NORTH => c.y > 0,
            PORT_SOUTH => c.y + 1 < cfg.height,
            PORT_EAST => c.x + 1 < cfg.width,
            PORT_WEST => c.x > 0,
            _ => false,
        },
        TopologyKind::Torus => (1..=4).contains(&p),
        TopologyKind::Ring => p == PORT_EAST || p == PORT_WEST,
    }
}

/// Step one hop from `c` through port `p`, wrapping on torus/ring
/// dimensions. The link must exist ([`has_link`]).
#[inline]
pub fn step(cfg: &SimConfig, c: Coord, p: Port) -> Coord {
    debug_assert!(has_link(cfg, c, p), "step() through missing link {p}");
    let (w, h) = (cfg.width, cfg.height);
    match p {
        PORT_NORTH => Coord {
            x: c.x,
            y: if c.y == 0 { h - 1 } else { c.y - 1 },
        },
        PORT_SOUTH => Coord {
            x: c.x,
            y: if c.y + 1 == h { 0 } else { c.y + 1 },
        },
        PORT_EAST => Coord {
            x: if c.x + 1 == w { 0 } else { c.x + 1 },
            y: c.y,
        },
        PORT_WEST => Coord {
            x: if c.x == 0 { w - 1 } else { c.x - 1 },
            y: c.y,
        },
        _ => panic!("step() through non-link port {p}"),
    }
}

/// Is `p` a minimal hop from `cur` toward `d`: a non-local port with a
/// physical link whose step reduces the topology's distance by one?
#[inline]
pub fn minimal_hop(cfg: &SimConfig, cur: Coord, d: Coord, p: Port) -> bool {
    (1..=4).contains(&p)
        && has_link(cfg, cur, p)
        && distance(cfg, step(cfg, cur, p), d) + 1 == distance(cfg, cur, d)
}

/// The chosen minimal X-direction port toward `dst` (`None` when the X
/// offset is resolved). On wrapping topologies ties at exactly half the
/// ring go east, deterministically, so every router along a minimal path
/// agrees on the direction.
#[inline]
fn x_dir(cfg: &SimConfig, cur: Coord, dst: Coord) -> Option<Port> {
    if cfg.topology.wraps() {
        let w = u32::from(cfg.width);
        let east = (u32::from(dst.x) + w - u32::from(cur.x)) % w;
        if east == 0 {
            None
        } else if east <= w - east {
            Some(PORT_EAST)
        } else {
            Some(PORT_WEST)
        }
    } else if dst.x > cur.x {
        Some(PORT_EAST)
    } else if dst.x < cur.x {
        Some(PORT_WEST)
    } else {
        None
    }
}

/// The chosen minimal Y-direction port toward `dst` (ties go south on a
/// torus). Always `None` on a ring.
#[inline]
fn y_dir(cfg: &SimConfig, cur: Coord, dst: Coord) -> Option<Port> {
    if cfg.topology == TopologyKind::Ring {
        return None;
    }
    if cfg.topology.wraps() {
        let h = u32::from(cfg.height);
        let south = (u32::from(dst.y) + h - u32::from(cur.y)) % h;
        if south == 0 {
            None
        } else if south <= h - south {
            Some(PORT_SOUTH)
        } else {
            Some(PORT_NORTH)
        }
    } else if dst.y > cur.y {
        Some(PORT_SOUTH)
    } else if dst.y < cur.y {
        Some(PORT_NORTH)
    } else {
        None
    }
}

/// The (up to two) productive output ports from `cur` toward `dst` —
/// one per dimension. On wrapping topologies only the *chosen* minimal
/// direction per dimension is productive (both directions may be
/// minimal at exactly half the ring, but offering both would let
/// adaptive hops run against the dateline order; see the module docs).
#[inline]
pub fn productive_ports(cfg: &SimConfig, cur: Coord, dst: Coord) -> [Option<Port>; 2] {
    [x_dir(cfg, cur, dst), y_dir(cfg, cur, dst)]
}

/// The escape hop from `cur` toward `dst`: the dimension-order port over
/// the chosen minimal directions, plus the escape *lane* a packet
/// entering an escape VC here must use. Lane 1 while the remaining path
/// in the chosen direction still crosses that direction's wraparound
/// link, lane 0 after — the dateline scheme; on mesh variants the chosen
/// direction never points past the destination, so the lane is always 0
/// (plain XY). Returns `(PORT_LOCAL, 0)` at the destination.
#[inline]
pub fn escape_hop(cfg: &SimConfig, cur: Coord, dst: Coord) -> (Port, u8) {
    if let Some(p) = x_dir(cfg, cur, dst) {
        // Going east the wrap link is crossed iff the destination column
        // is behind us (dst.x < cur.x); symmetrically for west.
        let lane = match p {
            PORT_EAST => dst.x < cur.x,
            _ => dst.x > cur.x,
        };
        (p, u8::from(lane))
    } else if let Some(p) = y_dir(cfg, cur, dst) {
        let lane = match p {
            PORT_SOUTH => dst.y < cur.y,
            _ => dst.y > cur.y,
        };
        (p, u8::from(lane))
    } else {
        (PORT_LOCAL, 0)
    }
}

/// Router index reached from router `r` through port `p`.
#[inline]
pub fn neighbor_router(cfg: &SimConfig, r: usize, p: Port) -> usize {
    cfg.router_at(step(cfg, cfg.router_coord(r), p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn c(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    fn cfg_kind(kind: TopologyKind, width: u8, height: u8) -> SimConfig {
        let mut cfg = SimConfig::table1();
        cfg.topology = kind;
        cfg.width = width;
        cfg.height = height;
        cfg
    }

    fn all_pairs(cfg: &SimConfig) -> Vec<(Coord, Coord)> {
        let mut v = Vec::new();
        for a in 0..cfg.num_routers() {
            for b in 0..cfg.num_routers() {
                v.push((cfg.router_coord(a), cfg.router_coord(b)));
            }
        }
        v
    }

    #[test]
    fn mesh_escape_is_x_first() {
        let cfg = cfg_kind(TopologyKind::Mesh, 8, 8);
        let esc = |a, b| escape_hop(&cfg, a, b);
        assert_eq!(esc(c(0, 0), c(3, 3)), (PORT_EAST, 0));
        assert_eq!(esc(c(3, 0), c(3, 3)), (PORT_SOUTH, 0));
        assert_eq!(esc(c(3, 3), c(0, 3)), (PORT_WEST, 0));
        assert_eq!(esc(c(3, 3), c(3, 0)), (PORT_NORTH, 0));
        assert_eq!(esc(c(2, 2), c(2, 2)), (PORT_LOCAL, 0));
    }

    #[test]
    fn mesh_productive_ports_cover_quadrants() {
        let cfg = cfg_kind(TopologyKind::Mesh, 8, 8);
        let prod = |a, b| productive_ports(&cfg, a, b);
        assert_eq!(prod(c(2, 2), c(5, 7)), [Some(PORT_EAST), Some(PORT_SOUTH)]);
        assert_eq!(prod(c(2, 2), c(0, 0)), [Some(PORT_WEST), Some(PORT_NORTH)]);
        assert_eq!(prod(c(2, 2), c(2, 7)), [None, Some(PORT_SOUTH)]);
        assert_eq!(prod(c(2, 2), c(7, 2)), [Some(PORT_EAST), None]);
        assert_eq!(distance(&cfg, c(1, 2), c(4, 0)), 5);
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let cfg = cfg_kind(TopologyKind::Torus, 8, 8);
        assert_eq!(distance(&cfg, c(0, 0), c(7, 0)), 1);
        assert_eq!(distance(&cfg, c(0, 0), c(4, 4)), 8);
        assert_eq!(distance(&cfg, c(1, 1), c(6, 7)), 3 + 2);
        for (a, b) in all_pairs(&cfg) {
            assert_eq!(distance(&cfg, a, b), distance(&cfg, b, a));
        }
    }

    #[test]
    fn ring_distance_is_circular() {
        let cfg = cfg_kind(TopologyKind::Ring, 10, 1);
        assert_eq!(distance(&cfg, c(0, 0), c(9, 0)), 1);
        assert_eq!(distance(&cfg, c(0, 0), c(5, 0)), 5);
        assert_eq!(distance(&cfg, c(2, 0), c(8, 0)), 4);
    }

    #[test]
    fn step_is_inverse_of_opposite_step() {
        use crate::ids::opposite;
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::CMesh { concentration: 4 },
        ] {
            let cfg = cfg_kind(kind, 5, 4);
            for r in 0..cfg.num_routers() {
                let a = cfg.router_coord(r);
                for p in 1..crate::ids::NUM_PORTS {
                    if !has_link(&cfg, a, p) {
                        continue;
                    }
                    let b = step(&cfg, a, p);
                    assert!(has_link(&cfg, b, opposite(p)), "{kind:?} {a:?} {p}");
                    assert_eq!(step(&cfg, b, opposite(p)), a, "{kind:?} {a:?} {p}");
                }
            }
        }
    }

    #[test]
    fn ring_has_no_vertical_links() {
        let cfg = cfg_kind(TopologyKind::Ring, 8, 1);
        for x in 0..8 {
            assert!(has_link(&cfg, c(x, 0), PORT_EAST));
            assert!(has_link(&cfg, c(x, 0), PORT_WEST));
            assert!(!has_link(&cfg, c(x, 0), PORT_NORTH));
            assert!(!has_link(&cfg, c(x, 0), PORT_SOUTH));
        }
    }

    #[test]
    fn productive_ports_reduce_topology_distance() {
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::Ring,
            TopologyKind::CMesh { concentration: 2 },
        ] {
            let (w, h) = if kind == TopologyKind::Ring {
                (9, 1)
            } else {
                (5, 4)
            };
            let cfg = cfg_kind(kind, w, h);
            for (a, b) in all_pairs(&cfg) {
                if a == b {
                    continue;
                }
                let ports = productive_ports(&cfg, a, b);
                assert!(ports.iter().flatten().count() > 0, "{kind:?} {a:?}->{b:?}");
                for p in ports.into_iter().flatten() {
                    assert!(has_link(&cfg, a, p));
                    assert_eq!(
                        distance(&cfg, step(&cfg, a, p), b) + 1,
                        distance(&cfg, a, b),
                        "{kind:?} {a:?}->{b:?} via {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn escape_walk_terminates_and_is_minimal() {
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::Ring,
            TopologyKind::CMesh { concentration: 4 },
        ] {
            let (w, h) = if kind == TopologyKind::Ring {
                (8, 1)
            } else {
                (4, 4)
            };
            let cfg = cfg_kind(kind, w, h);
            for (a, b) in all_pairs(&cfg) {
                let mut cur = a;
                let mut hops = 0;
                loop {
                    let (p, _lane) = escape_hop(&cfg, cur, b);
                    if p == PORT_LOCAL {
                        break;
                    }
                    assert_eq!(
                        distance(&cfg, step(&cfg, cur, p), b) + 1,
                        distance(&cfg, cur, b),
                        "{kind:?} escape not minimal at {cur:?} toward {b:?}"
                    );
                    cur = step(&cfg, cur, p);
                    hops += 1;
                    assert!(hops <= distance(&cfg, a, b), "{kind:?} escape loops");
                }
                assert_eq!(cur, b);
                assert_eq!(hops, distance(&cfg, a, b));
            }
        }
    }

    /// The dateline invariant: along any escape walk on a wrapping
    /// topology, within one dimension the lane sequence is a (possibly
    /// empty) run of 1s followed by a run of 0s — it never goes back up,
    /// and the 1→0 transition happens exactly at the wrap link.
    #[test]
    fn torus_escape_lanes_cross_dateline_once() {
        for (kind, w, h) in [
            (TopologyKind::Torus, 5, 5),
            (TopologyKind::Torus, 4, 6),
            (TopologyKind::Ring, 9, 1),
        ] {
            let cfg = cfg_kind(kind, w, h);
            for (a, b) in all_pairs(&cfg) {
                let mut cur = a;
                let mut last: Option<(Port, u8)> = None;
                loop {
                    let (p, lane) = escape_hop(&cfg, cur, b);
                    if p == PORT_LOCAL {
                        break;
                    }
                    if let Some((lp, ll)) = last {
                        if lp == p {
                            assert!(lane <= ll, "lane rose {a:?}->{b:?} at {cur:?}");
                        }
                    }
                    let nxt = step(&cfg, cur, p);
                    let wrapped = match p {
                        PORT_EAST => nxt.x < cur.x,
                        PORT_WEST => nxt.x > cur.x,
                        PORT_SOUTH => nxt.y < cur.y,
                        _ => nxt.y > cur.y,
                    };
                    if wrapped {
                        assert_eq!(lane, 1, "wrap hop must ride lane 1 ({a:?}->{b:?})");
                    }
                    last = Some((p, lane));
                    cur = nxt;
                }
            }
        }
    }

    #[test]
    fn cmesh_node_router_mapping() {
        let cfg = cfg_kind(TopologyKind::CMesh { concentration: 4 }, 4, 4);
        assert_eq!(cfg.num_routers(), 16);
        assert_eq!(cfg.num_nodes(), 64);
        for n in 0..cfg.num_nodes() as NodeId {
            let r = cfg.router_of(n);
            assert_eq!(r, n as usize / 4);
            assert_eq!(cfg.router_at(cfg.coord_of(n)), r);
        }
        // node_at returns the base node of the router at that coordinate.
        assert_eq!(cfg.node_at(c(1, 0)), 4);
        assert_eq!(cfg.coord_of(5), c(1, 0));
    }
}
