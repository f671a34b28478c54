//! Flit conservation: injected = in-flight + ejected (+ dropped), per
//! application. Under an active fault timeline the network keeps a drop
//! ledger (stranded-packet extraction, terminal drops); ledgered flits left
//! the network legitimately and are added back into the balance.

use super::{Checker, OracleViolation};
use crate::ids::{AppId, NUM_PORTS};
use crate::network::Network;
use crate::vc::VcView;

/// Counts injections and ejections per application from the hooks and
/// reconciles them against an exhaustive scan of every flit still inside
/// the network (input buffers, link registers, ejection queue).
#[derive(Debug, Default)]
pub struct FlitConservation {
    injected: Vec<u64>,
    ejected: Vec<u64>,
    scratch: Vec<i64>,
}

impl FlitConservation {
    pub fn new(num_apps: usize) -> Self {
        Self {
            injected: vec![0; num_apps],
            ejected: vec![0; num_apps],
            scratch: Vec::new(),
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

    fn on_inject(&mut self, app: AppId, _cycle: u64) {
        Self::bump(&mut self.injected, app);
    }

    fn on_eject(&mut self, app: AppId, _cycle: u64) {
        Self::bump(&mut self.ejected, app);
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
        for r in &net.routers {
            for port in 0..NUM_PORTS {
                for f in r.ivcs(port).flat_map(VcView::flits) {
                    count(f.info.app);
                }
            }
        }
        for a in &net.in_flight {
            count(a.flit.info.app);
        }
        for (_, f) in &net.eject_q {
            count(f.info.app);
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
