//! Starvation observer: the dynamic oracle counterpart of the static
//! progress proof (`crate::admit::check_progress`).

use super::{every_cycle, Checker, OracleViolation};
use crate::config::SimConfig;
use crate::flit::Flit;
use crate::ids::{slot, vc_index, NodeId, Port, NUM_PORTS};
use crate::network::Network;
use crate::vc::VcState;

/// Flags any *native-class* head flit that has failed to traverse the
/// crossbar for more than `bound` consecutive cycles — the run-time
/// refutation of the admission pipeline's statically derived wait bound
/// ([`crate::admit::Admission::wait_bound`]).
///
/// The raw signal is a per-VC wait counter the observer keeps itself: at
/// the end of each cycle, a routed (Active) input VC holding a buffered
/// flit that did not win the crossbar this cycle ([`Checker::on_forward`])
/// waited one more cycle — whether it lost switch allocation or was
/// credit-starved by a standing downstream backlog — and every other VC's
/// counter resets. Foreign-class waits are deliberately ignored — under
/// strict-priority schemes a foreign VC can legitimately wait unboundedly
/// (the very interference the paper measures), and the static bound is a
/// native-class guarantee only.
///
/// Not part of the default checker set: the `RAIR_ForeignH` priority
/// inversion is a deliberately measured ablation in several experiments,
/// and this checker exists precisely to flag it. The differential suite
/// attaches it explicitly ([`Network::attach_checker`]) with the bound
/// the admission pipeline proved.
#[derive(Debug, PartialEq)]
pub struct StarvationWatch {
    bound: u64,
    vcs_per_port: usize,
    /// Consecutive waiting cycles by network-wide VC index ([`vc_index`]).
    wait: Vec<u64>,
    /// Per router, the input-VC slots that won the crossbar this cycle.
    moved: Vec<u64>,
    /// Slots already reported for the current excursion (re-arm on reset
    /// below the bound: one report per starvation episode, not one per
    /// scan).
    reported: Vec<bool>,
}

impl StarvationWatch {
    /// Observer with the oracle's default no-progress horizon as bound.
    pub fn new(cfg: &SimConfig) -> Result<Self, String> {
        Self::with_bound(cfg, cfg.oracle.stall_horizon)
    }

    /// Observer enforcing an explicit wait bound (the differential suite
    /// passes the statically proven one). `Err` unless `cfg`'s oracle scans
    /// every cycle.
    pub fn with_bound(cfg: &SimConfig, bound: u64) -> Result<Self, String> {
        every_cycle(cfg, "starvation-observer")?;
        let slots = cfg.num_routers() * NUM_PORTS * cfg.vcs_per_port();
        Ok(Self {
            bound,
            vcs_per_port: cfg.vcs_per_port(),
            wait: vec![0; slots],
            moved: vec![0; cfg.num_routers()],
            reported: vec![false; slots],
        })
    }
}

impl Checker for StarvationWatch {
    fn name(&self) -> &'static str {
        "starvation-observer"
    }

    fn per_cycle(&self) -> bool {
        true
    }

    fn on_forward(
        &mut self,
        router: NodeId,
        in_port: Port,
        in_vc: usize,
        _out_port: Port,
        _flit: &Flit,
        _cycle: u64,
    ) {
        self.moved[router as usize] |= 1 << slot(self.vcs_per_port, in_port, in_vc);
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        let slots = NUM_PORTS * self.vcs_per_port;
        for (i, r) in net.routers.iter().enumerate() {
            let moved = std::mem::take(&mut self.moved[i]);
            for slot in 0..slots {
                let ivc = r.ivc(slot);
                let global = vc_index(i, slots, slot);
                let active = match ivc.state() {
                    VcState::Active { out_slot, .. } => Some(usize::from(out_slot)),
                    _ => None,
                };
                let waiting = active.is_some() && !ivc.is_empty() && moved & (1 << slot) == 0;
                let wait = &mut self.wait[global];
                *wait = if waiting { *wait + 1 } else { 0 };
                let wait = *wait;
                if wait <= self.bound {
                    self.reported[global] = false;
                    continue;
                }
                let (Some(out_slot), Some(packet)) = (active, ivc.packet(&net.packets)) else {
                    continue;
                };
                if self.reported[global] || !r.is_native(packet.app) {
                    continue;
                }
                self.reported[global] = true;
                let ((port, vc), (out_port, out_vc)) = (r.port_vc(slot), r.port_vc(out_slot));
                out.push(OracleViolation {
                    cycle: net.cycle(),
                    checker: self.name(),
                    router: Some(r.id),
                    detail: format!(
                        "native head flit of app {} (packet {}) in input ({port}, {vc}) \
                         has failed to traverse toward ({out_port}, {out_vc}) for \
                         {wait} consecutive cycles (> bound {})",
                        packet.app, packet.id, self.bound
                    ),
                });
            }
        }
    }
}
