//! Local-information adaptive routing (Duato escape + free-VC selection).

use super::{free_adaptive_credits, NextHops, RoutingAlgorithm, SelectCtx};
use crate::config::SimConfig;
use crate::ids::{Coord, Port};

/// The "typical adaptive routing algorithm that uses the information
/// available at the local router (e.g., # of free VCs)" of §V.C. Minimal
/// fully-adaptive over the adaptive VCs; selection picks the productive
/// port with the most free downstream adaptive credits.
#[derive(Debug, Clone, Copy, Default)]
pub struct DuatoLocalAdaptive;

impl RoutingAlgorithm for DuatoLocalAdaptive {
    fn name(&self) -> &'static str {
        "Local"
    }

    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        NextHops::minimal(cfg, cur, dst)
    }

    fn select(&self, ctx: &SelectCtx<'_>, cands: &[Port]) -> usize {
        debug_assert!(!cands.is_empty());
        let mut best = 0;
        let mut best_free = free_adaptive_credits(ctx.cfg, ctx.router, cands[0]);
        for (i, &p) in cands.iter().enumerate().skip(1) {
            let free = free_adaptive_credits(ctx.cfg, ctx.router, p);
            if free > best_free {
                best = i;
                best_free = free;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::ids::{PORT_EAST, PORT_SOUTH};
    use crate::region::RegionMap;
    use crate::router::Router;

    #[test]
    fn selects_port_with_more_free_credits() {
        let cfg = SimConfig::table1();
        let mut router = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        // Drain credits on EAST adaptive VCs.
        for vc in cfg.adaptive_vc_range() {
            for _ in 0..cfg.vc_depth {
                router.take_credit(router.slot(PORT_EAST, vc));
            }
        }
        let region = RegionMap::single(&cfg);
        let congestion = vec![0u16; cfg.num_nodes()];
        let ctx = SelectCtx {
            cfg: &cfg,
            router: &router,
            dst: cfg.coord_of(63),
            region: &region,
            congestion: &congestion,
        };
        let cands = [PORT_EAST, PORT_SOUTH];
        let r = DuatoLocalAdaptive;
        assert_eq!(cands[r.select(&ctx, &cands)], PORT_SOUTH);
    }

    #[test]
    fn allocated_vcs_do_not_count_as_free() {
        let cfg = SimConfig::table1();
        let mut router = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        // EAST has full credits but all VCs are held by other packets.
        for vc in cfg.adaptive_vc_range() {
            router.alloc_out_vc(router.slot(PORT_EAST, vc), router.slot(0, 0));
        }
        let region = RegionMap::single(&cfg);
        let congestion = vec![0u16; cfg.num_nodes()];
        let ctx = SelectCtx {
            cfg: &cfg,
            router: &router,
            dst: cfg.coord_of(63),
            region: &region,
            congestion: &congestion,
        };
        let cands = [PORT_EAST, PORT_SOUTH];
        assert_eq!(cands[DuatoLocalAdaptive.select(&ctx, &cands)], PORT_SOUTH);
    }
}
