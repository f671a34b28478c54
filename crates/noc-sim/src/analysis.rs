//! Run-time analysis observer: per-link flit counts, VC-occupancy breakdown
//! by native/foreign and regional/global class, and single-packet journey
//! tracing.
//!
//! [`Analysis`] is an oracle [`Checker`] that never reports a violation:
//! attach it with [`Network::attach_checker`] under an oracle that scans
//! every cycle ([`OracleConfig::forced`](crate::oracle::OracleConfig::forced))
//! and read it back with [`Network::checker`]. The kernel carries no
//! analysis code of its own, so observing changes neither the simulation
//! nor its fast paths. Used by the link-utilization example and the
//! congestion analyses in the experiment write-ups.

use crate::config::SimConfig;
use crate::flit::Flit;
use crate::ids::{NodeId, Port, NUM_PORTS, PORT_LOCAL};
use crate::network::Network;
use crate::node::InjectedFlit;
use crate::oracle::{every_cycle, Checker, OracleViolation};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// One event in a traced packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JourneyEvent {
    /// Head flit entered the network at this node.
    Injected { node: NodeId },
    /// A flit won switch allocation and left through `port`.
    Forwarded { router: NodeId, port: Port },
    /// Tail flit consumed at the destination.
    Delivered { node: NodeId },
}

/// Accumulated analysis state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Flits forwarded per router per output port (LOCAL = ejections).
    pub link_flits: Vec<[u64; NUM_PORTS]>,
    /// Cycles observed.
    pub cycles: u64,
    /// Occupied-VC cycle counts by traffic origin (native vs foreign),
    /// summed over all routers and cycles.
    pub occ_native: u64,
    pub occ_foreign: u64,
    /// Occupied-VC cycle counts by adaptive-VC tag.
    pub occ_regional: u64,
    pub occ_global: u64,
    /// Packet id being traced, if any.
    pub watch: Option<u64>,
    /// The traced packet's journey so far.
    pub journey: Vec<(u64, JourneyEvent)>,
}

/// `n / d`, and 0 for an empty denominator.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl Analysis {
    /// Zeroed counters for a network of `cfg`, tracing packet `watch`.
    /// `Err` unless `cfg`'s oracle scans every cycle.
    pub fn new(cfg: &SimConfig, watch: Option<u64>) -> Result<Self, String> {
        every_cycle(cfg, "analysis")?;
        Ok(Self {
            link_flits: vec![[0; NUM_PORTS]; cfg.num_routers()],
            cycles: 0,
            occ_native: 0,
            occ_foreign: 0,
            occ_regional: 0,
            occ_global: 0,
            watch,
            journey: Vec::new(),
        })
    }

    /// Mean utilization (flits/cycle) of output `port` at `router`.
    pub fn link_utilization(&self, router: NodeId, port: Port) -> f64 {
        ratio(self.link_flits[router as usize][port], self.cycles)
    }

    /// Total flits forwarded by each router onto mesh links (ejections
    /// excluded) — a per-node activity map for heatmaps.
    pub fn forwarding_activity(&self) -> Vec<f64> {
        self.link_flits
            .iter()
            .map(|ports| (ports.iter().sum::<u64>() - ports[PORT_LOCAL]) as f64)
            .collect()
    }

    /// The most heavily used (router, port) link and its utilization; the
    /// first in router, port order on a tie.
    pub fn hottest_link(&self) -> Option<(NodeId, Port, f64)> {
        let links = self.link_flits.iter().enumerate().flat_map(|(r, ports)| {
            let out = (0..NUM_PORTS).filter(|&p| p != PORT_LOCAL);
            out.map(move |p| (r as NodeId, p, ports[p]))
        });
        let (r, p, c) = links.min_by_key(|&(_, _, c)| Reverse(c))?;
        Some((r, p, ratio(c, self.cycles)))
    }

    /// Fraction of occupied-VC cycles held by foreign traffic.
    pub fn foreign_occupancy_share(&self) -> f64 {
        ratio(self.occ_foreign, self.occ_native + self.occ_foreign)
    }
}

impl Checker for Analysis {
    fn name(&self) -> &'static str {
        "analysis"
    }

    fn per_cycle(&self) -> bool {
        true
    }

    fn on_inject(&mut self, node: NodeId, flit: &InjectedFlit, cycle: u64) {
        if flit.head && self.watch == Some(flit.packet_id) {
            self.journey.push((cycle, JourneyEvent::Injected { node }));
        }
    }

    fn on_forward(
        &mut self,
        router: NodeId,
        _in_port: Port,
        _in_vc: usize,
        out_port: Port,
        flit: &Flit,
        cycle: u64,
    ) {
        self.link_flits[router as usize][out_port] += 1;
        if out_port != PORT_LOCAL && self.watch == Some(flit.info.id) {
            let event = JourneyEvent::Forwarded {
                router,
                port: out_port,
            };
            self.journey.push((cycle, event));
        }
    }

    fn on_eject(&mut self, node: NodeId, flit: &Flit, cycle: u64) {
        if flit.kind.is_tail() && self.watch == Some(flit.info.id) {
            self.journey.push((cycle, JourneyEvent::Delivered { node }));
        }
    }

    fn end_of_cycle(&mut self, net: &Network, _out: &mut Vec<OracleViolation>) {
        self.cycles += 1;
        for r in &net.routers {
            let (native, foreign) = r.count_occupancy();
            let (regional, global) = r.tag_occupancy(&net.cfg);
            self.occ_native += u64::from(native);
            self.occ_foreign += u64::from(foreign);
            self.occ_regional += u64::from(regional);
            self.occ_global += u64::from(global);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PORT_EAST, PORT_WEST};
    use crate::oracle::OracleConfig;

    fn analysis() -> Analysis {
        let cfg = SimConfig {
            oracle: OracleConfig::forced(),
            ..SimConfig::table1()
        };
        Analysis::new(&cfg, None).unwrap()
    }

    #[test]
    fn utilization_math() {
        let mut a = analysis();
        a.cycles = 100;
        a.link_flits[2][PORT_EAST] = 50;
        assert!((a.link_utilization(2, PORT_EAST) - 0.5).abs() < 1e-12);
        assert_eq!(a.link_utilization(1, PORT_EAST), 0.0);
        let (r, p, u) = a.hottest_link().unwrap();
        assert_eq!((r, p), (2, PORT_EAST));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forwarding_activity_excludes_ejections() {
        let mut a = analysis();
        a.link_flits[0][PORT_LOCAL] = 100;
        a.link_flits[0][PORT_EAST] = 7;
        let act = a.forwarding_activity();
        assert_eq!(act.len(), 64);
        assert_eq!(act[0], 7.0);
        assert_eq!(act[1], 0.0);
    }

    #[test]
    fn empty_state_is_quiet() {
        let a = analysis();
        assert_eq!(a.foreign_occupancy_share(), 0.0);
        assert_eq!(a.hottest_link().map(|(_, _, u)| u), Some(0.0));
        assert_eq!(a.link_utilization(0, PORT_WEST), 0.0);
    }

    #[test]
    fn occupancy_share() {
        let mut a = analysis();
        a.occ_native = 30;
        a.occ_foreign = 10;
        assert!((a.foreign_occupancy_share() - 0.25).abs() < 1e-12);
    }

    /// Counting per cycle under a sparser scan schedule would silently
    /// under-count: the constructor names the knob instead.
    #[test]
    fn a_sparse_scan_schedule_is_rejected() {
        let cfg = SimConfig {
            oracle: OracleConfig {
                check_interval: 16,
                ..OracleConfig::forced()
            },
            ..SimConfig::table1()
        };
        let err = Analysis::new(&cfg, None).unwrap_err();
        assert!(
            err.contains("oracle.check_interval must be 1, not 16"),
            "{err}"
        );
    }
}
