//! Wormhole contiguity: per-VC flit ordering, the single-holder rule of
//! atomic VCs, and the consistency of the incremental bookkeeping.

use super::{Checker, OracleViolation};
use crate::ids::{NodeId, NUM_PORTS};
use crate::network::Network;
use crate::vc::VcState;

/// Structural checks over every input VC:
///
/// * occupied ⇔ a holder application is recorded (atomic VCs: one packet
///   owns the VC from its head arriving to its tail departing),
/// * all buffered flits belong to the holder's packet (each flit's own
///   handle is the VC's), with strictly consecutive sequence numbers and
///   head/body/tail kinds matching their position in the packet,
/// * a body or tail flit on a link into a VC its packet holds carries the
///   hop count the VC keeps for the packet (the flits of a packet follow
///   one path, so a VC keeps one count for all of them) — checked on the
///   link, where every flit spends the end of the cycle it was sent in,
/// * a VC that has not yet been switch-allocated still holds its head flit
///   at the front (flits never overtake within a packet),
/// * buffer depth and credit counters stay within `vc_depth`,
/// * every router's incremental bookkeeping — the seven bitmaps, the ring
///   cursors, the holder tags ([`Router::bookkeeping_drift`]) — and the
///   network's active bitmask agree with an exhaustive recount, and the NI
///   active set holds exactly the NIs with work ([`Node::has_work`]) — the
///   soundness condition of the mask-driven fast path.
///
/// [`Node::has_work`]: crate::node::Node::has_work
/// [`Router::bookkeeping_drift`]: crate::router::Router::bookkeeping_drift
#[derive(Debug, Default)]
pub struct WormholeContiguity;

impl Checker for WormholeContiguity {
    fn name(&self) -> &'static str {
        "wormhole-contiguity"
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        let cfg = &net.cfg;
        let cycle = net.cycle();
        let mut flag = |router, detail: String| {
            out.push(OracleViolation {
                cycle,
                checker: "wormhole-contiguity",
                router: Some(router),
                detail,
            });
        };
        for (i, r) in net.routers.iter().enumerate() {
            for port in 0..NUM_PORTS {
                for (vc, ivc) in r.ivcs(port).enumerate() {
                    let at = |what: &str| format!("input ({port}, {vc}): {what}");
                    if r.credits(port, vc) > cfg.vc_depth {
                        flag(r.id, at(&format!("credit counter {}", r.credits(port, vc))));
                    }
                    // Each buffered flit keeps its own packet handle; they
                    // must all be the VC's.
                    let mut prev_seq = None;
                    for (rec, f) in ivc.records().zip(ivc.flits(&net.packets)) {
                        let foreign = Some(rec.packet) != ivc.packet_ref();
                        if foreign || Some(f.info.app) != ivc.holder() {
                            flag(
                                r.id,
                                at(&format!(
                                    "flit of packet {} (app {}) in a VC held by {:?}",
                                    f.info.id,
                                    f.info.app,
                                    ivc.holder()
                                )),
                            );
                        }
                        if let Some(p) = prev_seq {
                            if f.seq != p + 1 {
                                flag(r.id, at(&format!("seq {} follows seq {p}", f.seq)));
                            }
                        }
                        prev_seq = Some(f.seq);
                        let last = f.info.size - 1;
                        let kind_ok = (f.kind.is_head() == (f.seq == 0))
                            && (f.kind.is_tail() == (f.seq == last))
                            && f.seq <= last;
                        if !kind_ok {
                            flag(
                                r.id,
                                at(&format!(
                                    "{:?} flit at seq {}/{} of packet {}",
                                    f.kind, f.seq, f.info.size, f.info.id
                                )),
                            );
                        }
                    }
                    // Until switch allocation, the head must lead the buffer.
                    if !matches!(ivc.state(), VcState::Active { .. }) {
                        if let Some(front) = ivc.front(&net.packets) {
                            if !front.kind.is_head() {
                                flag(
                                    r.id,
                                    at(&format!(
                                        "front flit is {:?} (seq {}) before allocation",
                                        front.kind, front.seq
                                    )),
                                );
                            }
                        }
                    }
                }
            }
            if let Some(drift) = r.bookkeeping_drift() {
                flag(r.id, drift);
            }
            let total = r.recount_bitsets()[0].count_ones();
            if net.router_is_active(i) != (total > 0) {
                flag(
                    r.id,
                    format!(
                        "active bit {} disagrees with {} occupied VCs",
                        net.router_is_active(i),
                        total
                    ),
                );
            }
        }
        for a in &net.in_flight {
            let (router, port, vc) = a.dst();
            let ivc = net.routers[router].ivc(port, vc);
            let held = ivc.packet_ref() == Some(a.flit.packet);
            let Some(hops) = ivc.hops().filter(|_| held && !a.flit.kind.is_head()) else {
                continue;
            };
            if hops != a.hops {
                flag(
                    net.routers[router].id,
                    format!(
                        "input ({port}, {vc}): {:?} flit {} arrives with {} hops, \
                         its packet's VC keeps {hops}",
                        a.flit.kind, a.flit.seq, a.hops
                    ),
                );
            }
        }
        for (i, n) in net.nodes.iter().enumerate() {
            if net.ni_is_active(i) != n.has_work() {
                flag(
                    cfg.router_of(i as NodeId) as NodeId,
                    format!(
                        "NI {i}: active bit {} disagrees with pending work {}",
                        net.ni_is_active(i),
                        n.has_work()
                    ),
                );
            }
        }
    }
}
