//! Flit conservation: injected = in-flight + ejected (+ dropped), per
//! application. Under an active fault timeline the network keeps a drop
//! ledger (stranded-packet extraction, terminal drops); ledgered flits left
//! the network legitimately and are added back into the balance. Packet
//! accounting rides along: the packet table's live descriptors are exactly
//! the packets the VCs, buffered flits, link records and ejection register
//! hold.

use super::{Checker, OracleViolation};
use crate::flit::{Flit, PacketRef};
use crate::ids::{AppId, NodeId, NUM_PORTS};
use crate::network::Network;
use crate::node::InjectedFlit;

/// Counts injections and ejections per application from the hooks and
/// reconciles them against an exhaustive scan of every flit still inside
/// the network (input buffers, link registers, ejection queue); the same
/// scan lists every packet handle held there — each VC's and each flit
/// record's — which must name exactly the packet table's live descriptors:
/// a descriptor the kernel forgot to free or freed twice, or a flit naming
/// a freed one, is caught here.
#[derive(Debug, Default)]
pub struct FlitConservation {
    injected: Vec<u64>,
    ejected: Vec<u64>,
    scratch: Vec<i64>,
    held: Vec<PacketRef>,
}

impl FlitConservation {
    pub fn new(num_apps: usize) -> Self {
        Self {
            injected: vec![0; num_apps],
            ejected: vec![0; num_apps],
            scratch: Vec::new(),
            held: Vec::new(),
        }
    }

    fn bump(counts: &mut Vec<u64>, app: AppId) {
        let i = app as usize;
        if counts.len() <= i {
            counts.resize(i + 1, 0);
        }
        counts[i] += 1;
    }
}

impl Checker for FlitConservation {
    fn name(&self) -> &'static str {
        "flit-conservation"
    }

    fn on_inject(&mut self, _node: NodeId, flit: &InjectedFlit, _cycle: u64) {
        Self::bump(&mut self.injected, flit.app);
    }

    fn on_eject(&mut self, _node: NodeId, flit: &Flit, _cycle: u64) {
        Self::bump(&mut self.ejected, flit.info.app);
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        let napps = self.injected.len().max(self.ejected.len());
        self.scratch.clear();
        self.scratch.resize(napps, 0);
        let mut count = |app: AppId| {
            let i = app as usize;
            if self.scratch.len() <= i {
                self.scratch.resize(i + 1, 0);
            }
            self.scratch[i] += 1;
        };
        let packets = &net.packets;
        self.held.clear();
        for r in &net.routers {
            for port in 0..NUM_PORTS {
                for ivc in r.ivcs(port) {
                    self.held.extend(ivc.packet_ref());
                    self.held.extend(ivc.records().map(|f| f.packet));
                    for f in ivc.flits(packets) {
                        count(f.info.app);
                    }
                }
            }
        }
        for a in &net.in_flight {
            self.held.push(a.flit.packet);
            count(packets.get(a.flit.packet).app);
        }
        for (f, _) in &net.eject_q {
            self.held.push(f.packet);
            count(packets.get(f.packet).app);
        }
        if let Err(detail) = packets.audit(&mut self.held) {
            out.push(OracleViolation {
                cycle: net.cycle(),
                checker: self.name(),
                router: None,
                detail,
            });
        }
        for (app, &in_net) in self.scratch.iter().enumerate() {
            let injected = self.injected.get(app).copied().unwrap_or(0) as i64;
            let ejected = self.ejected.get(app).copied().unwrap_or(0) as i64;
            let dropped = net.dropped_flits_of(app) as i64;
            if injected != ejected + in_net + dropped {
                out.push(OracleViolation {
                    cycle: net.cycle(),
                    checker: self.name(),
                    router: None,
                    detail: format!(
                        "app {app}: injected {injected} != ejected {ejected} \
                         + in-network {in_net} + dropped {dropped}"
                    ),
                });
            }
        }
        // Cross-check the kernel's own cumulative counters.
        let total_in_net: i64 = self.scratch.iter().sum();
        let total_dropped = net.dropped_flits_total() as i64;
        if net.stats.injected_flits as i64
            != net.stats.ejected_flits as i64 + total_in_net + total_dropped
        {
            out.push(OracleViolation {
                cycle: net.cycle(),
                checker: self.name(),
                router: None,
                detail: format!(
                    "global: injected {} != ejected {} + in-network {total_in_net} \
                     + dropped {total_dropped}",
                    net.stats.injected_flits, net.stats.ejected_flits
                ),
            });
        }
    }
}
