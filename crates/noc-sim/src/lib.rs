//! # noc-sim — cycle-accurate NoC simulator
//!
//! A from-scratch, GARNET-equivalent simulator of a network-on-chip — a
//! 2-D mesh (the paper's topology), a 2-D torus, a ring or a concentrated
//! mesh ([`topology::TopologyKind`]) — with wormhole switching, virtual
//! channels, credit-based flow control and the canonical pipelined router
//! (RC → VA → SA → ST → LT) including all four arbitration steps (VA_in,
//! VA_out, SA_in, SA_out).
//!
//! This crate is the substrate for the reproduction of *"RAIR: Interference
//! Reduction in Regionalized Networks-on-Chip"* (IPDPS 2013). It provides:
//!
//! * flit-level simulation with the paper's Table 1 parameters as defaults,
//! * escape-VC deadlock-free adaptive routing (Duato), plus XY and DBAR,
//! * pluggable arbitration priority policies ([`arbitration::PriorityPolicy`])
//!   — the RAIR policy itself lives in the `rair` crate,
//! * region maps ([`region::RegionMap`]) turning a mesh into an RNoC,
//! * pluggable traffic sources ([`source::TrafficSource`]),
//! * deterministic seeded execution (identical seeds ⇒ identical flit
//!   schedules).
//!
//! ## Quick example
//!
//! ```
//! use noc_sim::prelude::*;
//!
//! let cfg = SimConfig::table1();
//! let region = RegionMap::single(&cfg);
//! let mut net = Network::new(
//!     cfg,
//!     region,
//!     Box::new(DuatoLocalAdaptive),
//!     Box::new(RoundRobin),
//!     Box::new(NoTraffic),
//!     42,
//! );
//! net.run(100);
//! assert!(net.is_drained());
//! ```

#![forbid(unsafe_code)]

pub mod admit;
pub mod analysis;
pub mod arbitration;
pub mod bits;
pub mod config;
pub mod flit;
pub mod ids;
pub mod network;
pub mod node;
pub mod oracle;
pub mod region;
pub mod router;
pub mod routing;
pub mod source;
pub mod stats;
pub mod topology;
pub mod vc;
pub mod verify;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::admit::{
        admit_network, Admission, AdmitVerdict, AdmitWitness, PriorityAutomaton, PropertyReport,
    };
    pub use crate::arbitration::{AgeBased, ArbReq, ArbStage, PriorityPolicy, RoundRobin, StcRank};
    pub use crate::config::SimConfig;
    pub use crate::flit::{Flit, FlitKind, PacketInfo, ReplySpec, RingFlit};
    pub use crate::ids::{AppId, Coord, MsgClass, NodeId, Port, APP_NONE};
    pub use crate::network::Network;
    pub use crate::oracle::{Fault, OracleConfig, OracleViolation};
    pub use crate::region::RegionMap;
    pub use crate::routing::{
        DbarAdaptive, DuatoLocalAdaptive, NextHops, RoutingAlgorithm, XyRouting,
    };
    pub use crate::source::{NewPacket, NoTraffic, ScriptedSource, TrafficSource};
    pub use crate::stats::SimStats;
    pub use crate::topology::TopologyKind;
    pub use crate::vc::{VcClass, VcTag};
    pub use crate::verify::{Verifier, VerifyReport, VerifyViolation, Witness};
    pub use metrics::LatencyKind;
}
