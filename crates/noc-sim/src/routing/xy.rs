//! Deterministic dimension-order (XY) routing.

use super::{NextHops, RoutingAlgorithm, SelectCtx};
use crate::config::SimConfig;
use crate::ids::{Coord, Port};

/// Pure dimension-order: the single escape-path port is offered on the
/// adaptive VCs as well, so all VCs are usable but no path diversity
/// exists. Inherently deadlock-free (on wrapping topologies via the
/// dateline escape lanes).
#[derive(Debug, Clone, Copy, Default)]
pub struct XyRouting;

impl RoutingAlgorithm for XyRouting {
    fn name(&self) -> &'static str {
        "XY"
    }

    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        let (escape, escape_lane) = crate::topology::escape_hop(cfg, cur, dst);
        NextHops {
            adaptive: [Some(escape), None],
            escape,
            escape_lane,
        }
    }

    fn select(&self, _ctx: &SelectCtx<'_>, _cands: &[Port]) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PORT_EAST, PORT_SOUTH, PORT_WEST};
    use crate::topology::TopologyKind;

    #[test]
    fn single_dor_candidate() {
        let cfg = SimConfig::table1();
        let r = XyRouting;
        let cur = Coord { x: 0, y: 0 };
        let dst = Coord { x: 3, y: 3 };
        assert_eq!(
            r.next_hops(&cfg, cur, dst).adaptive,
            [Some(PORT_EAST), None]
        );
        let cur2 = Coord { x: 3, y: 0 };
        assert_eq!(
            r.next_hops(&cfg, cur2, dst).adaptive,
            [Some(PORT_SOUTH), None]
        );
    }

    #[test]
    fn torus_takes_wraparound_shortcut() {
        let mut cfg = SimConfig::table1();
        cfg.topology = TopologyKind::Torus;
        let r = XyRouting;
        let cur = Coord { x: 0, y: 0 };
        let dst = Coord { x: 7, y: 0 };
        assert_eq!(
            r.next_hops(&cfg, cur, dst).adaptive,
            [Some(PORT_WEST), None]
        );
    }
}
