//! Credit conservation: for every mesh link and VC, upstream credits plus
//! everything the credits are lent against must equal the buffer depth.

use super::{Checker, OracleViolation};
use crate::ids::{opposite, vc_index, NUM_PORTS, PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use crate::network::Network;
use crate::topology::{has_link, neighbor_router};

/// For the link `r --p--> d` (with `q = opposite(p)` the downstream input
/// port), the exact invariant between pipeline phases is
///
/// ```text
/// r.credits(slot(p, v)) + d.ivc(slot(q, v)).len()
///   + #{in-flight flits destined to (d, q, v)}
///   + #{queued credit returns for (r, p, v)}   == vc_depth
/// ```
///
/// Every kernel transition preserves the sum (SA forwards: credit−1,
/// in-flight+1; delivery: in-flight−1, buffer+1; downstream SA: buffer−1,
/// credit-queue+1; credit delivery: credit-queue−1, credit+1). A lost or
/// conjured credit — or a conjured flit — breaks it immediately.
#[derive(Debug, Default)]
pub struct CreditConservation {
    in_flight: Vec<u32>,
    queued_credits: Vec<u32>,
}

impl Checker for CreditConservation {
    fn name(&self) -> &'static str {
        "credit-conservation"
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        let cfg = &net.cfg;
        let v = cfg.vcs_per_port();
        let slots = NUM_PORTS * v;
        self.in_flight.clear();
        self.in_flight.resize(cfg.num_routers() * slots, 0);
        for a in &net.in_flight {
            let (router, slot) = a.dst();
            self.in_flight[vc_index(router, slots, slot)] += 1;
        }
        self.queued_credits.clear();
        self.queued_credits.resize(cfg.num_routers() * slots, 0);
        for &(router, slot) in &net.credit_q {
            self.queued_credits[vc_index(router, slots, slot)] += 1;
        }
        for (i, r) in net.routers.iter().enumerate() {
            for p in [PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST] {
                if !has_link(cfg, r.coord, p) {
                    continue;
                }
                let d = neighbor_router(cfg, i, p);
                let q = opposite(p);
                for vc in 0..v {
                    let (up, down) = (r.slot(p, vc), r.slot(q, vc));
                    let (at_up, at_down) = (vc_index(i, slots, up), vc_index(d, slots, down));
                    let sum = r.credits(up)
                        + net.routers[d].ivc(down).len()
                        + self.in_flight[at_down] as usize
                        + self.queued_credits[at_up] as usize;
                    if sum != cfg.vc_depth {
                        out.push(OracleViolation {
                            cycle: net.cycle(),
                            checker: self.name(),
                            router: Some(r.id),
                            detail: format!(
                                "link ({i} --{p}--> {d}) vc {vc}: credits {} + downstream buf {} \
                                 + in-flight {} + queued credits {} = {sum} != depth {}",
                                r.credits(up),
                                net.routers[d].ivc(down).len(),
                                self.in_flight[at_down],
                                self.queued_credits[at_up],
                                cfg.vc_depth
                            ),
                        });
                    }
                }
            }
        }
    }
}
