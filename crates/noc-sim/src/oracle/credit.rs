//! Credit conservation: for every mesh link and VC, upstream credits plus
//! everything the credits are lent against must equal the buffer depth.

use super::{Checker, OracleViolation};
use crate::ids::{opposite, Port, NUM_PORTS, PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use crate::network::Network;
use crate::topology::{has_link, neighbor_router};

/// For the link `r --p--> d` (with `q = opposite(p)` the downstream input
/// port), the exact invariant between pipeline phases is
///
/// ```text
/// r.credits(p, v) + d.ivc(q, v).len()
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
        let slots = cfg.num_routers() * NUM_PORTS * v;
        let idx = |router: usize, port: Port, vc: usize| (router * NUM_PORTS + port) * v + vc;
        self.in_flight.clear();
        self.in_flight.resize(slots, 0);
        for a in &net.in_flight {
            let (router, port, vc) = a.dst();
            self.in_flight[idx(router, port, vc)] += 1;
        }
        self.queued_credits.clear();
        self.queued_credits.resize(slots, 0);
        for &(router, port, vc) in &net.credit_q {
            self.queued_credits[idx(router, port, vc)] += 1;
        }
        for (i, r) in net.routers.iter().enumerate() {
            for p in [PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST] {
                if !has_link(cfg, r.coord, p) {
                    continue;
                }
                let d = neighbor_router(cfg, i, p);
                let q = opposite(p);
                for vc in 0..v {
                    let sum = r.credits(p, vc)
                        + net.routers[d].ivc(q, vc).len()
                        + self.in_flight[idx(d, q, vc)] as usize
                        + self.queued_credits[idx(i, p, vc)] as usize;
                    if sum != cfg.vc_depth {
                        out.push(OracleViolation {
                            cycle: net.cycle(),
                            checker: self.name(),
                            router: Some(r.id),
                            detail: format!(
                                "link ({i} --{p}--> {d}) vc {vc}: credits {} + downstream buf {} \
                                 + in-flight {} + queued credits {} = {sum} != depth {}",
                                r.credits(p, vc),
                                net.routers[d].ivc(q, vc).len(),
                                self.in_flight[idx(d, q, vc)],
                                self.queued_credits[idx(i, p, vc)],
                                cfg.vc_depth
                            ),
                        });
                    }
                }
            }
        }
    }
}
