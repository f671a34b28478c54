//! DBAR: destination-based adaptive routing with region-aware congestion
//! truncation [Ma, Jerger, Wang — ISCA'11], the least restrictive
//! region-aware baseline the paper compares against (`RA_DBAR`).
//!
//! DBAR's novelty (as characterized in §III.B of the paper) is that the
//! *selection function* discards congestion information generated by other
//! regions: when estimating the load in a candidate direction, the lookahead
//! stops at the boundary of the packet's current region (Fig. 4 — the
//! information along S→A and S→D is used, not along the full S→C / S→E
//! paths). That way a heavily loaded neighbor region does not perturb
//! routing decisions inside a lightly loaded region — but, as the paper
//! points out, a packet that *has entered* a foreign region gets no
//! protection (it is slowed by that region's native load regardless of the
//! direction chosen).
//!
//! The hardware propagates per-dimension congestion on dedicated wiring; we
//! idealize this as a one-cycle-old global occupancy view (`SelectCtx::
//! congestion`) and read only the truncated window from it, which gives
//! DBAR slightly fresher information than real hardware would have —
//! favourable to the baseline.

use super::{free_adaptive_credits, NextHops, RoutingAlgorithm, SelectCtx};
use crate::config::SimConfig;
use crate::ids::{Coord, Port};

/// DBAR adaptive routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbarAdaptive;

impl DbarAdaptive {
    /// Congestion along direction `p` from the router's coordinate,
    /// truncated at (a) the destination's coordinate in that dimension and
    /// (b) the current region's boundary — whichever comes first.
    fn lookahead(&self, ctx: &SelectCtx<'_>, p: Port) -> u32 {
        let cfg = ctx.cfg;
        let cur = ctx.router.coord;
        let my_region = ctx.region.app_of(cfg.node_at(cur));
        let mut c = cur;
        let mut sum = 0u32;
        loop {
            // Stop when the destination's coordinate in the traversed
            // dimension is reached (stepping a fixed direction reaches it
            // within one lap even on wrapping topologies).
            let at_dst_dim = match p {
                crate::ids::PORT_EAST | crate::ids::PORT_WEST => c.x == ctx.dst.x,
                _ => c.y == ctx.dst.y,
            };
            if at_dst_dim {
                break;
            }
            c = crate::topology::step(cfg, c, p);
            let router = cfg.router_at(c);
            // Region truncation: discard information generated by other
            // regions (count the boundary router itself, then stop).
            sum += ctx.congestion[router] as u32;
            if ctx.region.app_of(cfg.node_at(c)) != my_region {
                break;
            }
        }
        sum
    }
}

impl RoutingAlgorithm for DbarAdaptive {
    fn name(&self) -> &'static str {
        "DBAR"
    }

    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        NextHops::minimal(cfg, cur, dst)
    }

    fn select(&self, ctx: &SelectCtx<'_>, cands: &[Port]) -> usize {
        debug_assert!(!cands.is_empty());
        if cands.len() == 1 {
            return 0;
        }
        let mut best = 0;
        let mut best_key = (
            self.lookahead(ctx, cands[0]),
            usize::MAX - free_adaptive_credits(ctx.cfg, ctx.router, cands[0]),
        );
        for (i, &p) in cands.iter().enumerate().skip(1) {
            let key = (
                self.lookahead(ctx, p),
                usize::MAX - free_adaptive_credits(ctx.cfg, ctx.router, p),
            );
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::ids::{Coord, PORT_EAST, PORT_SOUTH};
    use crate::region::RegionMap;
    use crate::router::Router;

    fn ctx_fixture<'a>(
        cfg: &'a SimConfig,
        router: &'a Router,
        region: &'a RegionMap,
        congestion: &'a [u16],
        dst: Coord,
    ) -> SelectCtx<'a> {
        SelectCtx {
            cfg,
            router,
            dst,
            region,
            congestion,
        }
    }

    #[test]
    fn avoids_congested_dimension_within_region() {
        let cfg = SimConfig::table1();
        let router = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        let region = RegionMap::single(&cfg);
        // Heavy load along row 0 (east of origin), light along column 0.
        let mut congestion = vec![0u16; cfg.num_nodes()];
        for x in 1..8u8 {
            congestion[cfg.node_at(Coord { x, y: 0 }) as usize] = 10;
        }
        let ctx = ctx_fixture(&cfg, &router, &region, &congestion, Coord { x: 7, y: 7 });
        let cands = [PORT_EAST, PORT_SOUTH];
        assert_eq!(cands[DbarAdaptive.select(&ctx, &cands)], PORT_SOUTH);
    }

    #[test]
    fn congestion_beyond_region_boundary_is_ignored() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg); // boundary between x=3 and x=4
        let router = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        // Heavy load only in the *right* half of row 0 (the foreign region,
        // beyond the boundary router), light everywhere else; a small load
        // along column 0.
        let mut congestion = vec![0u16; cfg.num_nodes()];
        for x in 5..8u8 {
            congestion[cfg.node_at(Coord { x, y: 0 }) as usize] = 50;
        }
        congestion[cfg.node_at(Coord { x: 0, y: 1 }) as usize] = 1;
        let ctx = ctx_fixture(&cfg, &router, &region, &congestion, Coord { x: 7, y: 7 });
        let cands = [PORT_EAST, PORT_SOUTH];
        // DBAR truncates at the boundary: east lookahead sees x=1..=4 (all
        // zero except the boundary router, also zero), south sees load 1 →
        // east wins despite the massive far-side load.
        assert_eq!(cands[DbarAdaptive.select(&ctx, &cands)], PORT_EAST);

        // A region-oblivious full-path lookahead would have picked south;
        // verify via a single-region map (no truncation).
        let whole = RegionMap::single(&cfg);
        let ctx2 = ctx_fixture(&cfg, &router, &whole, &congestion, Coord { x: 7, y: 7 });
        assert_eq!(cands[DbarAdaptive.select(&ctx2, &cands)], PORT_SOUTH);
    }

    #[test]
    fn single_candidate_short_circuits() {
        let cfg = SimConfig::table1();
        let router = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        let region = RegionMap::single(&cfg);
        let congestion = vec![0u16; cfg.num_nodes()];
        let ctx = ctx_fixture(&cfg, &router, &region, &congestion, Coord { x: 7, y: 0 });
        assert_eq!(DbarAdaptive.select(&ctx, &[PORT_EAST]), 0);
    }

    #[test]
    fn lookahead_stops_at_destination_dimension() {
        let cfg = SimConfig::table1();
        let router = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        let region = RegionMap::single(&cfg);
        // Load sits beyond the destination column; must not be counted.
        let mut congestion = vec![0u16; cfg.num_nodes()];
        for x in 4..8u8 {
            congestion[cfg.node_at(Coord { x, y: 0 }) as usize] = 50;
        }
        congestion[cfg.node_at(Coord { x: 0, y: 1 }) as usize] = 1;
        let ctx = ctx_fixture(&cfg, &router, &region, &congestion, Coord { x: 3, y: 7 });
        let cands = [PORT_EAST, PORT_SOUTH];
        // East lookahead covers x=1..=3 only (all zero) → east wins.
        assert_eq!(cands[DbarAdaptive.select(&ctx, &cands)], PORT_EAST);
    }
}
