//! Simulator configuration, including the paper's Table 1 parameters.

use crate::fault::FaultTimeline;
use crate::ids::{Coord, MsgClass, NodeId, NUM_PORTS};
use crate::oracle::OracleConfig;
use crate::topology::TopologyKind;
use crate::vc::{VcClass, VcTag};
use crate::verify::VerifyConfig;
use serde::{Deserialize, Serialize};

/// The most message classes a config may name.
pub const MAX_CLASSES: usize = 4;

/// The deepest VC buffer a config may name: a router keeps its credit
/// counters, and a buffered flit its sequence number, in one byte.
pub const MAX_VC_DEPTH: usize = u8::MAX as usize;

/// Network and router-microarchitecture configuration.
///
/// Defaults follow Table 1 of the paper: 64 nodes (8×8 mesh), 128-bit links
/// (16-byte flits), atomic 5-flit virtual channels, 6-cycle L2 bank service,
/// 128-cycle memory service, 64-byte cache blocks. Packets are either 1-flit
/// short packets (16 B control) or 5-flit long packets (head + 64 B data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Network topology (mesh, torus, ring, concentrated mesh). The
    /// default mesh keeps every pre-topology digest and cache key
    /// unchanged (see [`SimConfig::digest_into`]).
    pub topology: TopologyKind,
    /// Router-grid width (columns).
    pub width: u8,
    /// Router-grid height (rows; must be 1 for a ring).
    pub height: u8,
    /// Number of message classes (virtual networks). Each class gets one
    /// escape VC per port (deadlock freedom per Duato's theory); all classes
    /// share the adaptive VCs, as prescribed in §IV.D of the paper.
    pub num_classes: usize,
    /// Adaptive (fully-routable) VCs per port, shared by all classes.
    pub adaptive_vcs: usize,
    /// How many of the adaptive VCs are tagged *regional*; the remainder are
    /// tagged *global*. §VI recommends a roughly equal split.
    pub regional_vcs: usize,
    /// Buffer depth of each VC, in flits.
    pub vc_depth: usize,
    /// Flits in a short packet (16-byte control message).
    pub short_flits: u32,
    /// Flits in a long packet (head flit + 64-byte data).
    pub long_flits: u32,
    /// L2 bank service latency in cycles (closed-loop request/reply mode).
    pub l2_latency: u64,
    /// Memory service latency in cycles.
    pub mem_latency: u64,
    /// Invariant-oracle toggle and tuning (see [`OracleConfig`]).
    pub oracle: OracleConfig,
    /// Static deadlock-freedom/legality verifier toggle (see
    /// [`VerifyConfig`]); resolved at `Network::new`.
    pub verify: VerifyConfig,
    /// Fault timeline (transient BER + scheduled permanent faults). The
    /// default (empty) timeline keeps the resilience machinery fully
    /// off-path and out of the behavioral digest.
    pub fault: FaultTimeline,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table1()
    }
}

impl SimConfig {
    /// The paper's Table 1 configuration (single message class, as used for
    /// the synthetic-traffic experiments).
    pub fn table1() -> Self {
        Self {
            topology: TopologyKind::Mesh,
            width: 8,
            height: 8,
            num_classes: 1,
            adaptive_vcs: 4,
            regional_vcs: 2,
            vc_depth: 5,
            short_flits: 1,
            long_flits: 5,
            l2_latency: 6,
            mem_latency: 128,
            oracle: OracleConfig::default(),
            verify: VerifyConfig::default(),
            fault: FaultTimeline::default(),
        }
    }

    /// Table 1 configuration with two message classes (request + reply) for
    /// the closed-loop PARSEC-style workloads.
    pub fn table1_req_reply() -> Self {
        Self {
            num_classes: 2,
            ..Self::table1()
        }
    }

    /// The canonical Table-1-scale configuration for each topology: the
    /// 8×8 mesh itself, an 8×8 torus, a 16-router ring and a 4×4
    /// concentrated mesh with 4 NIs per router (64 nodes, like the mesh).
    /// Used by the cross-topology golden digests and by the matrix of every
    /// static self-check ([`TopologyKind::CANONICAL`]).
    pub fn table1_topology(kind: TopologyKind) -> Self {
        let (width, height) = match kind {
            TopologyKind::Mesh | TopologyKind::Torus => (8, 8),
            TopologyKind::Ring => (16, 1),
            TopologyKind::CMesh { .. } => (4, 4),
        };
        Self {
            topology: kind,
            width,
            height,
            ..Self::table1()
        }
    }

    /// Number of routers in the network (`width × height`).
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Nodes (NIs) per router — 1 except on a concentrated mesh.
    #[inline]
    pub fn concentration(&self) -> usize {
        self.topology.concentration()
    }

    /// Number of nodes: `concentration ×` routers. Equals
    /// [`Self::num_routers`] on every topology but the concentrated mesh.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_routers() * self.concentration()
    }

    /// Escape lanes per message class (2 on wrapping topologies — the
    /// dateline VCs — 1 otherwise; see [`crate::topology`]).
    #[inline]
    pub fn escape_lanes(&self) -> usize {
        self.topology.escape_lanes()
    }

    /// Number of escape VCs per port (`num_classes × escape_lanes`).
    #[inline]
    pub fn num_escape_vcs(&self) -> usize {
        self.num_classes * self.escape_lanes()
    }

    /// Total VCs per port: the per-class escape VCs (one per escape
    /// lane) + adaptive VCs.
    #[inline]
    pub fn vcs_per_port(&self) -> usize {
        self.num_escape_vcs() + self.adaptive_vcs
    }

    /// Classify VC index `vc` within a port.
    ///
    /// Layout: indices `0..num_classes × escape_lanes` are the per-class
    /// escape VCs (lane-major within a class, running dimension-order
    /// routing); the remaining indices are adaptive VCs, the first
    /// `regional_vcs` of which carry the *regional* tag and the rest the
    /// *global* tag (the 1-bit field of §IV.A).
    #[inline]
    pub fn vc_class(&self, vc: usize) -> VcClass {
        let esc = self.num_escape_vcs();
        if vc < esc {
            VcClass::Escape {
                class: (vc / self.escape_lanes()) as MsgClass,
            }
        } else {
            let a = vc - esc;
            VcClass::Adaptive {
                tag: if a < self.regional_vcs {
                    VcTag::Regional
                } else {
                    VcTag::Global
                },
            }
        }
    }

    /// Index of the lane-0 escape VC for message class `class` (the only
    /// escape VC of the class on non-wrapping topologies).
    #[inline]
    pub fn escape_vc(&self, class: MsgClass) -> usize {
        self.escape_vc_lane(class, 0)
    }

    /// Index of the escape VC for message class `class`, lane `lane`.
    #[inline]
    pub fn escape_vc_lane(&self, class: MsgClass, lane: u8) -> usize {
        debug_assert!((class as usize) < self.num_classes);
        debug_assert!((lane as usize) < self.escape_lanes());
        class as usize * self.escape_lanes() + lane as usize
    }

    /// Iterator over the adaptive VC indices.
    pub fn adaptive_vc_range(&self) -> std::ops::Range<usize> {
        self.num_escape_vcs()..self.vcs_per_port()
    }

    /// Router index of the router at coordinate `c` (row-major).
    #[inline]
    pub fn router_at(&self, c: Coord) -> usize {
        c.y as usize * self.width as usize + c.x as usize
    }

    /// Coordinate of router `r` (row-major).
    #[inline]
    pub fn router_coord(&self, r: usize) -> Coord {
        Coord {
            x: (r % self.width as usize) as u8,
            y: (r / self.width as usize) as u8,
        }
    }

    /// Router index owning node `id` (`id / concentration`).
    #[inline]
    pub fn router_of(&self, id: NodeId) -> usize {
        id as usize / self.concentration()
    }

    /// The *base node* of the router at coordinate `c`: on a
    /// concentrated mesh the first of its `concentration` nodes,
    /// elsewhere simply the node co-located with the router.
    #[inline]
    pub fn node_at(&self, c: Coord) -> NodeId {
        (self.router_at(c) * self.concentration()) as NodeId
    }

    /// Coordinate of the router hosting node `id`.
    #[inline]
    pub fn coord_of(&self, id: NodeId) -> Coord {
        self.router_coord(self.router_of(id))
    }

    /// The four corner node ids (the memory-controller tiles of §V.E) —
    /// base nodes of the corner routers.
    pub fn corners(&self) -> [NodeId; 4] {
        let (w, h) = (self.width, self.height);
        [
            self.node_at(Coord { x: 0, y: 0 }),
            self.node_at(Coord { x: w - 1, y: 0 }),
            self.node_at(Coord { x: 0, y: h - 1 }),
            self.node_at(Coord { x: w - 1, y: h - 1 }),
        ]
    }

    /// Validate internal consistency; called by `Network::new`.
    pub fn validate(&self) -> Result<(), String> {
        match self.topology {
            TopologyKind::Mesh | TopologyKind::CMesh { .. } => {
                if self.width < 2 || self.height < 2 {
                    return Err("mesh must be at least 2x2".into());
                }
            }
            TopologyKind::Torus => {
                // A 2-wide torus dimension degenerates (wrap and direct
                // links coincide), which breaks the dateline argument.
                if self.width < 3 || self.height < 3 {
                    return Err("torus must be at least 3x3".into());
                }
            }
            TopologyKind::Ring => {
                if self.height != 1 {
                    return Err("ring topology requires height 1".into());
                }
                if self.width < 3 {
                    return Err("ring needs at least 3 routers".into());
                }
            }
        }
        if let TopologyKind::CMesh { concentration } = self.topology {
            if !(2..=8).contains(&concentration) {
                return Err("cmesh concentration must be 2..=8".into());
            }
        }
        if !self.fault.is_empty() && self.topology != TopologyKind::Mesh {
            return Err(format!(
                "fault timelines are mesh-only, not {}: the degraded routing's \
                 detour escape function is deadlock-free by a turn-model argument \
                 on the mesh alone (no wraparound links or dateline lanes, one \
                 node per router)",
                self.topology.label()
            ));
        }
        if !(1..=MAX_CLASSES).contains(&self.num_classes) {
            return Err(format!("num_classes must be 1..={MAX_CLASSES}"));
        }
        if self.adaptive_vcs == 0 {
            return Err("need at least one adaptive VC".into());
        }
        if self.regional_vcs > self.adaptive_vcs {
            return Err("regional_vcs exceeds adaptive_vcs".into());
        }
        if !(1..=MAX_VC_DEPTH).contains(&self.vc_depth) {
            return Err(format!(
                "vc_depth must be 1..={MAX_VC_DEPTH} (credits and flit sequence \
                 numbers are stored as bytes), got {}",
                self.vc_depth
            ));
        }
        if self.short_flits == 0 {
            return Err("short_flits must be nonzero".into());
        }
        if self.long_flits == 0 {
            return Err("long_flits must be nonzero".into());
        }
        if self.short_flits as usize > self.vc_depth {
            return Err(
                "short packets must fit in one VC (atomic VCs): short_flits > vc_depth".into(),
            );
        }
        if self.long_flits as usize > self.vc_depth {
            return Err(
                "long packets must fit in one VC (atomic VCs): long_flits > vc_depth".into(),
            );
        }
        if self.num_nodes() > NodeId::MAX as usize {
            return Err("too many nodes for NodeId".into());
        }
        if NUM_PORTS * self.vcs_per_port() > 64 {
            return Err(
                "NUM_PORTS * vcs_per_port() must fit in a u64 bitset (<= 64 VC slots per router)"
                    .into(),
            );
        }
        self.oracle.validate()?;
        self.fault.validate(self)?;
        Ok(())
    }

    /// Fold every simulation-relevant parameter into `d`. Used to build
    /// collision-proof cache keys; deliberately excludes `oracle`/`verify`
    /// (observability, not behaviour). The fault timeline is folded in only
    /// when non-empty, so pre-fault digests (golden files, cache keys) are
    /// unchanged.
    /// Likewise the topology is folded in only when it is not the
    /// default mesh, so mesh digests predating the topology field hold.
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        if self.topology != TopologyKind::Mesh {
            self.topology.digest_into(d);
        }
        d.write_u64(self.width as u64);
        d.write_u64(self.height as u64);
        d.write_u64(self.num_classes as u64);
        d.write_u64(self.adaptive_vcs as u64);
        d.write_u64(self.regional_vcs as u64);
        d.write_u64(self.vc_depth as u64);
        d.write_u64(self.short_flits as u64);
        d.write_u64(self.long_flits as u64);
        d.write_u64(self.l2_latency);
        d.write_u64(self.mem_latency);
        if !self.fault.is_empty() {
            self.fault.digest_into(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SimConfig::table1();
        assert_eq!(c.num_nodes(), 64); // 64 cores
        assert_eq!(c.vc_depth, 5); // 5-flit/VC
        assert_eq!(c.l2_latency, 6); // 6-cycle L2
        assert_eq!(c.mem_latency, 128); // 128-cycle memory
        assert_eq!(c.short_flits, 1); // 16B single-flit
        assert_eq!(c.long_flits, 5); // 64B + head flit
        assert!(c.validate().is_ok());
    }

    #[test]
    fn vc_layout() {
        let c = SimConfig::table1_req_reply();
        assert_eq!(c.num_classes, 2);
        assert_eq!(c.vcs_per_port(), 6);
        assert_eq!(c.vc_class(0), VcClass::Escape { class: 0 });
        assert_eq!(c.vc_class(1), VcClass::Escape { class: 1 });
        assert_eq!(
            c.vc_class(2),
            VcClass::Adaptive {
                tag: VcTag::Regional
            }
        );
        assert_eq!(
            c.vc_class(3),
            VcClass::Adaptive {
                tag: VcTag::Regional
            }
        );
        assert_eq!(c.vc_class(4), VcClass::Adaptive { tag: VcTag::Global });
        assert_eq!(c.vc_class(5), VcClass::Adaptive { tag: VcTag::Global });
        assert_eq!(c.escape_vc(1), 1);
        assert_eq!(c.adaptive_vc_range(), 2..6);
    }

    #[test]
    fn coord_roundtrip() {
        let c = SimConfig::table1();
        for id in 0..c.num_nodes() as NodeId {
            assert_eq!(c.node_at(c.coord_of(id)), id);
        }
        assert_eq!(c.coord_of(0), Coord { x: 0, y: 0 });
        assert_eq!(c.coord_of(63), Coord { x: 7, y: 7 });
    }

    #[test]
    fn corners_are_corners() {
        let c = SimConfig::table1();
        assert_eq!(c.corners(), [0, 7, 56, 63]);
    }

    #[test]
    fn empty_fault_timeline_keeps_digest_nonempty_changes_it() {
        let digest = |c: &SimConfig| {
            let mut d = metrics::Digest::new();
            c.digest_into(&mut d);
            d.finish()
        };
        let base = SimConfig::table1();
        let mut with_empty = SimConfig::table1();
        with_empty.fault = FaultTimeline::default();
        assert_eq!(digest(&base), digest(&with_empty));
        let mut with_ber = SimConfig::table1();
        with_ber.fault.transient_ber = 1e-3;
        assert_ne!(digest(&base), digest(&with_ber));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SimConfig::table1();
        c.long_flits = 9;
        assert!(c.validate().is_err());

        let mut c = SimConfig::table1();
        c.regional_vcs = 5;
        assert!(c.validate().is_err());

        let mut c = SimConfig::table1();
        c.adaptive_vcs = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::table1();
        c.width = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn topology_validation() {
        let mut c = SimConfig::table1();
        c.topology = TopologyKind::Ring;
        assert!(c.validate().is_err(), "ring needs height 1");
        c.height = 1;
        c.width = 16;
        assert!(c.validate().is_ok());
        c.width = 2;
        assert!(c.validate().is_err(), "2-router ring rejected");

        let mut c = SimConfig::table1();
        c.topology = TopologyKind::Torus;
        assert!(c.validate().is_ok());
        c.width = 2;
        assert!(c.validate().is_err(), "2-wide torus rejected");

        let mut c = SimConfig::table1();
        c.topology = TopologyKind::CMesh { concentration: 4 };
        assert!(c.validate().is_ok());
        c.topology = TopologyKind::CMesh { concentration: 1 };
        assert!(c.validate().is_err());

        // Fault timelines stay mesh-only.
        let mut c = SimConfig::table1();
        c.topology = TopologyKind::Torus;
        c.fault.transient_ber = 1e-3;
        assert!(c.validate().is_err());
    }

    /// The fault-timeline rejection names the topology it refuses and says
    /// why: the degraded routing's deadlock argument holds on the mesh only.
    #[test]
    fn non_mesh_fault_timeline_error_names_the_topology() {
        for topology in [
            TopologyKind::Torus,
            TopologyKind::Ring,
            TopologyKind::CMesh { concentration: 4 },
        ] {
            let mut c = SimConfig::table1_topology(topology);
            assert!(c.validate().is_ok());
            c.fault.transient_ber = 1e-3;
            let err = c.validate().unwrap_err();
            assert!(err.contains(&format!("not {}:", topology.label())), "{err}");
            assert!(err.contains("turn-model"), "{err}");
        }
        let mut mesh = SimConfig::table1();
        mesh.fault.transient_ber = 1e-3;
        assert!(mesh.validate().is_ok());
    }

    /// `c` rejected with an error that names `field`.
    fn rejected_naming(c: &SimConfig, field: &str) {
        let err = c.validate().unwrap_err();
        assert!(err.contains(field), "{err}");
    }

    #[test]
    fn validation_rejects_zero_short_flits() {
        let c = SimConfig {
            short_flits: 0,
            ..SimConfig::table1()
        };
        rejected_naming(&c, "short_flits must be nonzero");
    }

    #[test]
    fn validation_rejects_zero_long_flits() {
        let c = SimConfig {
            long_flits: 0,
            ..SimConfig::table1()
        };
        rejected_naming(&c, "long_flits must be nonzero");
    }

    #[test]
    fn validation_rejects_short_packets_deeper_than_a_vc() {
        let c = SimConfig {
            short_flits: 6,
            ..SimConfig::table1()
        };
        rejected_naming(&c, "short_flits > vc_depth");
        let fits = SimConfig {
            short_flits: 5,
            ..SimConfig::table1()
        };
        assert!(fits.validate().is_ok());
    }

    /// A credit counter and a buffered flit's sequence number are bytes, so
    /// 255 is the deepest legal VC; 0 and 256 are refused by name.
    #[test]
    fn validation_bounds_vc_depth_to_a_byte() {
        for depth in [0, MAX_VC_DEPTH + 1] {
            let c = SimConfig {
                vc_depth: depth,
                ..SimConfig::table1()
            };
            rejected_naming(&c, "vc_depth must be 1..=255");
        }
        let deepest = SimConfig {
            vc_depth: MAX_VC_DEPTH,
            long_flits: MAX_VC_DEPTH as u32,
            ..SimConfig::table1()
        };
        assert!(deepest.validate().is_ok());
    }

    #[test]
    fn torus_vc_layout_has_two_escape_lanes() {
        let mut c = SimConfig::table1_req_reply();
        c.topology = TopologyKind::Torus;
        assert_eq!(c.escape_lanes(), 2);
        assert_eq!(c.num_escape_vcs(), 4);
        assert_eq!(c.vcs_per_port(), 8);
        assert_eq!(c.vc_class(0), VcClass::Escape { class: 0 });
        assert_eq!(c.vc_class(1), VcClass::Escape { class: 0 });
        assert_eq!(c.vc_class(2), VcClass::Escape { class: 1 });
        assert_eq!(c.vc_class(3), VcClass::Escape { class: 1 });
        assert_eq!(
            c.vc_class(4),
            VcClass::Adaptive {
                tag: VcTag::Regional
            }
        );
        assert_eq!(c.escape_vc_lane(1, 1), 3);
        assert_eq!(c.escape_vc(1), 2);
        assert_eq!(c.adaptive_vc_range(), 4..8);
    }

    #[test]
    fn cmesh_node_router_split() {
        let mut c = SimConfig::table1();
        c.topology = TopologyKind::CMesh { concentration: 4 };
        c.width = 4;
        c.height = 4;
        assert!(c.validate().is_ok());
        assert_eq!(c.num_routers(), 16);
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.router_of(7), 1);
        assert_eq!(c.coord_of(7), Coord { x: 1, y: 0 });
        assert_eq!(c.corners(), [0, 12, 48, 60]);
    }

    #[test]
    fn only_non_mesh_topology_changes_digest() {
        let digest = |c: &SimConfig| {
            let mut d = metrics::Digest::new();
            c.digest_into(&mut d);
            d.finish()
        };
        let base = SimConfig::table1();
        let mut explicit = SimConfig::table1();
        explicit.topology = TopologyKind::Mesh;
        assert_eq!(digest(&base), digest(&explicit));
        let mut torus = SimConfig::table1();
        torus.topology = TopologyKind::Torus;
        assert_ne!(digest(&base), digest(&torus));
        let mut ring = SimConfig::table1();
        ring.topology = TopologyKind::Ring;
        ring.height = 1;
        assert_ne!(digest(&torus), digest(&ring));
    }
}
