//! Starvation observer: the dynamic oracle counterpart of the static
//! progress proof (`crate::admit::check_progress`).

use super::{Checker, OracleViolation};
use crate::config::SimConfig;
use crate::ids::NUM_PORTS;
use crate::network::Network;
use crate::vc::VcState;

/// Flags any *native-class* head flit that has failed to traverse the
/// crossbar for more than `bound` consecutive cycles — the run-time
/// refutation of the admission pipeline's statically derived wait bound
/// ([`crate::admit::Admission::wait_bound`]).
///
/// The raw signal is `Router::arb_wait`, maintained by the SA phase while
/// the oracle observes the run: the counter advances each cycle a routed
/// (Active) VC holds a head flit that does not move — whether it lost
/// switch allocation or was credit-starved by a standing downstream
/// backlog — and resets when it moves. Foreign-class waits are deliberately ignored —
/// under strict-priority schemes a foreign VC can legitimately wait
/// unboundedly (the very interference the paper measures), and the
/// static bound is a native-class guarantee only.
///
/// Not part of the default checker set: the `RAIR_ForeignH` priority
/// inversion is a deliberately measured ablation in several experiments,
/// and this checker exists precisely to flag it. The differential suite
/// attaches it explicitly ([`Network::attach_checker`]) with the bound
/// the admission pipeline proved.
#[derive(Debug)]
pub struct StarvationWatch {
    bound: u64,
    vcs_per_port: usize,
    /// Slots already reported for the current excursion (re-arm on reset
    /// below the bound: one report per starvation episode, not one per
    /// scan).
    reported: Vec<bool>,
}

impl StarvationWatch {
    /// Observer with the oracle's default no-progress horizon as bound.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::with_bound(cfg, cfg.oracle.stall_horizon)
    }

    /// Observer enforcing an explicit wait bound (the differential suite
    /// passes the statically proven one).
    pub fn with_bound(cfg: &SimConfig, bound: u64) -> Self {
        Self {
            bound,
            vcs_per_port: cfg.vcs_per_port(),
            reported: vec![false; cfg.num_routers() * NUM_PORTS * cfg.vcs_per_port()],
        }
    }
}

impl Checker for StarvationWatch {
    fn name(&self) -> &'static str {
        "starvation-observer"
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        let v = self.vcs_per_port;
        for (i, r) in net.routers.iter().enumerate() {
            for port in 0..NUM_PORTS {
                for (vc, ivc) in r.ivcs(port).enumerate() {
                    let slot = port * v + vc;
                    let wait = u64::from(r.arb_wait[slot]);
                    let global = i * NUM_PORTS * v + slot;
                    if wait <= self.bound {
                        self.reported[global] = false;
                        continue;
                    }
                    if self.reported[global] {
                        continue;
                    }
                    let VcState::Active { out_port, out_vc } = ivc.state() else {
                        continue;
                    };
                    let Some(head) = ivc.front() else {
                        continue;
                    };
                    if !r.is_native(head.info.app) {
                        continue;
                    }
                    self.reported[global] = true;
                    out.push(OracleViolation {
                        cycle: net.cycle(),
                        checker: self.name(),
                        router: Some(r.id),
                        detail: format!(
                            "native head flit of app {} (packet {}) in input ({port}, {vc}) \
                             has failed to traverse toward ({out_port}, {out_vc}) for \
                             {wait} consecutive cycles (> bound {})",
                            head.info.app, head.info.id, self.bound
                        ),
                    });
                }
            }
        }
    }
}
