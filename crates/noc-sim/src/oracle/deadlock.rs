//! Deadlock/livelock detection: a global no-progress watchdog with a
//! wait-for-graph cycle search and per-VC residency ages for diagnosis.

use super::{Checker, OracleViolation};
use crate::config::SimConfig;
use crate::ids::{opposite, slot, vc_index, NodeId, Port, NUM_PORTS, PORT_LOCAL};
use crate::network::Network;
use crate::topology::neighbor_router;
use crate::vc::VcState;

const UNOCCUPIED: u64 = u64::MAX;

/// Flags the whole network making no crossbar/ejection progress for longer
/// than `stall_horizon` (`crate::oracle::OracleConfig::stall_horizon`)
/// while flits are present — the signature of both deadlock (cyclic waits)
/// and total livelock (allocators spinning without moving anything).
///
/// On a stall it walks the wait-for graph (switch-allocated VC → the
/// downstream input VC it feeds) looking for a cycle over VC holders; a
/// found cycle names the deadlocked resources, its absence points at an
/// allocation stall instead. The occupancy hooks additionally track how
/// long each input VC has been claimed, and the report names the oldest
/// one — a *diagnostic*, not a violation by itself: under strict-priority
/// schemes a starved VC can legitimately wait unboundedly (the very
/// interference the paper measures) while the network keeps progressing.
#[derive(Debug)]
pub struct DeadlockWatch {
    horizon: u64,
    vcs_per_port: usize,
    /// Cycle each input VC became occupied, by [`vc_index`];
    /// [`UNOCCUPIED`] when free. Diagnostic input to the stall report.
    since: Vec<u64>,
    /// `last_progress` value the global watchdog already reported for
    /// (re-arm: one report per distinct stall, not one per check).
    reported_progress: Option<u64>,
}

impl DeadlockWatch {
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            horizon: cfg.oracle.stall_horizon,
            vcs_per_port: cfg.vcs_per_port(),
            since: vec![UNOCCUPIED; cfg.num_routers() * NUM_PORTS * cfg.vcs_per_port()],
            reported_progress: None,
        }
    }

    /// VC slots per router.
    fn slots(&self) -> usize {
        NUM_PORTS * self.vcs_per_port
    }

    /// `(router, port, vc)` of network-wide VC index `at`.
    fn vc_at(&self, net: &Network, at: usize) -> (usize, Port, usize) {
        let router = at / self.slots();
        let (port, vc) = net.routers[router].port_vc(at % self.slots());
        (router, port, vc)
    }

    /// Search the wait-for graph for a cycle: each switch-allocated
    /// (`Active`) input VC waits on the downstream input VC its output
    /// leads to. Returns the cycle as `(router, port, vc)` triples.
    fn find_wait_cycle(&self, net: &Network) -> Option<Vec<(usize, Port, usize)>> {
        let slots = self.slots();
        let total = net.routers.len() * slots;
        // Functional graph: at most one successor per VC.
        let mut next = vec![usize::MAX; total];
        for (i, r) in net.routers.iter().enumerate() {
            for slot in 0..slots {
                let ivc = r.ivc(slot);
                let VcState::Active { out_port, out_slot } = ivc.state() else {
                    continue;
                };
                let out_port = usize::from(out_port);
                if out_port == PORT_LOCAL || !ivc.occupied() {
                    continue;
                }
                let d = neighbor_router(&net.cfg, i, out_port);
                let down = r.slot(opposite(out_port), r.port_vc(usize::from(out_slot)).1);
                next[vc_index(i, slots, slot)] = vc_index(d, slots, down);
            }
        }
        // Color-marking walk: 0 unvisited, 1 on current path, 2 done.
        let mut color = vec![0u8; total];
        for start in 0..total {
            if color[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            while cur != usize::MAX && color[cur] == 0 {
                color[cur] = 1;
                path.push(cur);
                cur = next[cur];
            }
            if cur != usize::MAX && color[cur] == 1 {
                let pos = path.iter().position(|&s| s == cur).unwrap();
                return Some(path[pos..].iter().map(|&s| self.vc_at(net, s)).collect());
            }
            for s in path {
                color[s] = 2;
            }
        }
        None
    }
}

impl Checker for DeadlockWatch {
    fn name(&self) -> &'static str {
        "deadlock-livelock"
    }

    fn on_occupancy(&mut self, router: NodeId, port: Port, vc: usize, occupied: bool, cycle: u64) {
        let slot = slot(self.vcs_per_port, port, vc);
        let at = vc_index(usize::from(router), self.slots(), slot);
        self.since[at] = if occupied { cycle } else { UNOCCUPIED };
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        let now = net.cycle();
        let stalled = now.saturating_sub(net.stats.last_progress) > self.horizon;
        if stalled
            && net.flits_in_network() > 0
            && self.reported_progress != Some(net.stats.last_progress)
        {
            self.reported_progress = Some(net.stats.last_progress);
            let diagnosis = match self.find_wait_cycle(net) {
                Some(cycle) => format!("wait-for cycle over VCs {cycle:?}"),
                None => "no wait-for cycle (allocation stall or livelock)".into(),
            };
            let oldest = self
                .since
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s != UNOCCUPIED)
                .min_by_key(|&(_, &s)| s)
                .map(|(at, &s)| {
                    let (router, port, vc) = self.vc_at(net, at);
                    format!(
                        "; oldest stuck VC: router {router} input ({port}, {vc}) since cycle {s}"
                    )
                })
                .unwrap_or_default();
            out.push(OracleViolation {
                cycle: now,
                checker: self.name(),
                router: None,
                detail: format!(
                    "no crossbar progress since cycle {} with {} flits in flight; \
                     {diagnosis}{oldest}",
                    net.stats.last_progress,
                    net.flits_in_network()
                ),
            });
        }
    }
}
