//! Per-hop routing legality: every link traversal is minimal, and escape
//! VCs only ever carry dimension-order (Duato-legal) hops on the correct
//! dateline lane.

use super::{Checker, OracleViolation};
use crate::config::SimConfig;
use crate::flit::Flit;
use crate::ids::{opposite, NodeId, Port, PORT_LOCAL};
use crate::topology;

/// Checked at the arrival hook (the only place a hop's direction is still
/// known): the upstream router is `step(here, in_port)` (wrap-aware), and
/// the hop it sent the flit over is `opposite(in_port)`.
///
/// * **Minimality** (all VCs): the hop must reduce the topology's distance
///   to the destination by exactly one ([`topology::minimal_hop`], the
///   predicate the static verifier and the admission walk apply) — both
///   the adaptive routing functions and the escape path are minimal in
///   this design.
/// * **Duato legality** (escape VCs, index `< num_escape_vcs`): the hop
///   must be exactly the dimension-order (port, dateline-lane) pair the
///   escape sub-network prescribes at the upstream router, or the escape
///   network's deadlock-freedom argument collapses.
#[derive(Debug, Default)]
pub struct RoutingLegality;

impl Checker for RoutingLegality {
    fn name(&self) -> &'static str {
        "routing-legality"
    }

    fn on_arrival(
        &mut self,
        cfg: &SimConfig,
        router: NodeId,
        in_port: Port,
        vc: usize,
        flit: &Flit,
        cycle: u64,
        out: &mut Vec<OracleViolation>,
    ) {
        if in_port == PORT_LOCAL {
            return; // injections are not link traversals
        }
        let here = cfg.router_coord(router as usize);
        let upstream = topology::step(cfg, here, in_port);
        let dst = cfg.coord_of(flit.info.dst);
        if !topology::minimal_hop(cfg, upstream, dst, opposite(in_port)) {
            out.push(OracleViolation {
                cycle,
                checker: self.name(),
                router: Some(router),
                detail: format!(
                    "packet {} to {:?} took a non-minimal hop {:?} -> {:?}",
                    flit.info.id, dst, upstream, here
                ),
            });
        }
        if vc < cfg.num_escape_vcs() {
            let lane = (vc % cfg.escape_lanes()) as u8;
            if topology::escape_hop(cfg, upstream, dst) != (opposite(in_port), lane) {
                out.push(OracleViolation {
                    cycle,
                    checker: self.name(),
                    router: Some(router),
                    detail: format!(
                        "packet {} to {:?} entered escape VC {vc} over a non-DOR hop \
                         {:?} -> {:?} (expected lane {lane})",
                        flit.info.id, dst, upstream, here
                    ),
                });
            }
        }
    }
}
