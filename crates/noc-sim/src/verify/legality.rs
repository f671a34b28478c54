//! Region / restriction legality: every source must retain a minimal legal
//! path to every destination under the link restrictions in force.

use super::cdg::Violations;
use super::{Verifier, Witness};
use crate::config::SimConfig;
use crate::ids::{NodeId, Port};
use crate::topology;

/// Check one destination. `adap`/`esc` hold the already-validated usable
/// hops per router (minimal, linked, link-filtered); `order` lists routers
/// in increasing topology distance from the destination, so a single
/// dynamic-programming pass settles reachability (every usable hop moves
/// strictly closer). Pair-filtered-out holders are exempt.
pub(super) fn check_dst(
    cfg: &SimConfig,
    v: &Verifier<'_>,
    dst_idx: usize,
    order: &[usize],
    adap: &[[Option<Port>; 2]],
    esc: &[Option<(Port, u8)>],
    vio: &mut Violations,
) {
    let mut reach = vec![false; cfg.num_routers()];
    reach[dst_idx] = true;
    for &r in order {
        if r == dst_idx || !v.pair_usable(r as NodeId, dst_idx as NodeId) {
            continue;
        }
        let cur = cfg.router_coord(r);
        let hop_ok = |p: Port| reach[cfg.router_at(topology::step(cfg, cur, p))];
        let via_escape = esc[r].is_some_and(|(p, _)| hop_ok(p));
        reach[r] = adap[r].into_iter().flatten().any(hop_ok) || via_escape;
        if !reach[r] {
            vio.record(
                "region-legality",
                Witness::UnreachablePair {
                    src: r as NodeId,
                    dst: dst_idx as NodeId,
                },
            );
        }
    }
}
