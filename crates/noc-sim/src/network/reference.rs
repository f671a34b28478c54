//! The reference kernel: a plain-scan twin of [`Network::tick`] that the
//! tests and benches run against production, cell for cell.
//!
//! [`Network::tick_reference`] visits every router, port, VC and node in
//! index order, every cycle, and decides everything from first-hand state:
//! a VC's pipeline state, holder tag, FIFO and its packet's descriptor, the
//! credit counter, the
//! output-VC allocation table, and the topology functions for the far end
//! of a port. It asks the policy for the priority of *every* request (lone
//! ones too), offers every node a `generate` every cycle without ever
//! asking the source for a promise and updates every router every cycle.
//!
//! **Shared with production** — only what is not mask-driven: the
//! `Router`/`Node`/`FaultState` containers and their write methods (which
//! keep the routers' bitmaps coherent, so the oracle's bookkeeping recount
//! checks them on this side too), the packet table, the LT/BW phase, fault
//! events and the stranded sweep, the oracle hooks and flush, the NI's
//! release/inject methods, [`arbitrate_rr`] and [`arbitrate_rr_at`],
//! [`arb_req`] and the policy/routing traits.
//!
//! **Never read here** — the network's router, dirty and NI masks, the
//! sources' arrival promises and their per-word minimum, the static link
//! and coordinate tables, any of `Router`'s seven bitmaps or the methods
//! built on them. The network masks are *written*: recomputed from scratch
//! at the end of the tick, for the oracle's active-set checks.
//!
//! A network is driven by one kernel for its whole life; nothing outside
//! tests and benches names this module, so the linker drops it from the
//! production binaries (CI checks `nm`).

use super::{arb_req, InFlight, Network};
use crate::arbitration::{arbitrate_rr, arbitrate_rr_at, ArbReq, ArbStage, PriorityPolicy};
use crate::config::SimConfig;
use crate::fault::RETRANSMIT_LATENCY;
use crate::flit::{PacketInfo, PacketTable};
use crate::ids::{opposite, vc_index, Coord, MsgClass, NodeId, Port, NUM_PORTS, PORT_LOCAL};
use crate::region::RegionMap;
use crate::router::Router;
use crate::routing::{RoutingAlgorithm, SelectCtx};
use crate::topology::{has_link, neighbor_router};
use crate::vc::{byte, Adaptive, VcClass, VcState};

/// Far end of output port `p` of router `idx`, from the topology functions.
fn far_end(cfg: &SimConfig, idx: usize, p: Port) -> Option<(usize, Port)> {
    has_link(cfg, cfg.router_coord(idx), p).then(|| (neighbor_router(cfg, idx, p), opposite(p)))
}

/// May a new packet be allocated output VC `slot`: no holder and the
/// downstream buffer fully drained (local credits are never consumed).
fn allocatable(r: &Router, slot: usize) -> bool {
    r.out_alloc(slot).is_none() && r.credits(slot) == r.vc_depth()
}

/// The policy's priority for the flit at the front of input VC `slot`.
fn priority_of(
    policy: &dyn PriorityPolicy,
    stage: ArbStage,
    r: &Router,
    packets: &PacketTable,
    out_vc: Option<VcClass>,
    slot: usize,
) -> u64 {
    let front = r
        .ivc(slot)
        .front(packets)
        .expect("an arbitration request has a buffered flit");
    policy.priority(stage, r, out_vc, &arb_req(r, &front.info))
}

impl Network {
    /// Advance one cycle on the reference kernel (see the module docs).
    pub fn tick_reference(&mut self) {
        if self.fault.is_some() {
            self.process_fault_events();
        }
        self.deliver_phase();
        self.reference_sa();
        self.reference_va();
        self.reference_rc();
        self.reference_inject();
        self.reference_update();
        self.reference_rebuild_masks();
        if self.oracle.is_some() {
            self.flush_oracle(false);
        }
        self.cycle += 1;
    }

    /// Run `cycles` cycles on the reference kernel, one tick each.
    pub fn run_reference(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick_reference();
        }
    }

    /// SA (+ST): SA_in over every VC of every input port, SA_out over every
    /// output port, the winners through the crossbar.
    fn reference_sa(&mut self) {
        let Network {
            cfg,
            policy,
            routers,
            packets,
            in_flight,
            eject_q,
            credit_q,
            stats,
            cycle,
            oracle,
            fault_frozen,
            fault,
            ..
        } = self;
        let cycle = *cycle;
        let v = cfg.vcs_per_port();
        for (r_idx, r) in routers.iter_mut().enumerate() {
            if fault_frozen.as_deref().is_some_and(|f| f[r_idx]) {
                continue;
            }
            // SA_in: per input port, the winning `(in_slot, out_port,
            // out_slot)`, rotating over the port's VC indices.
            let mut sa_in = [None; NUM_PORTS];
            for (in_port, winner) in sa_in.iter_mut().enumerate() {
                let (mut reqs, mut wants) = (Vec::new(), Vec::new());
                for in_vc in 0..v {
                    let slot = r.slot(in_port, in_vc);
                    let ivc = r.ivc(slot);
                    let VcState::Active { out_port, out_slot } = ivc.state() else {
                        continue;
                    };
                    let (out_port, out_slot) = (usize::from(out_port), usize::from(out_slot));
                    let credit = out_port == PORT_LOCAL || r.credits(out_slot) > 0;
                    if !credit || ivc.is_empty() {
                        continue;
                    }
                    let prio = priority_of(&**policy, ArbStage::SaIn, r, packets, None, slot);
                    reqs.push((prio, in_vc));
                    wants.push((slot, out_port, out_slot));
                }
                if let Some(w) = arbitrate_rr(&reqs, v, &mut r.sa_in_ptr[in_port]) {
                    *winner = Some(wants[w]);
                }
            }
            // SA_out, then ST for each winner.
            for out_port in 0..NUM_PORTS {
                let reqs: Vec<(u64, usize)> = (0..NUM_PORTS)
                    .filter_map(|in_port| match sa_in[in_port] {
                        Some((slot, want, _)) if want == out_port => {
                            let prio =
                                priority_of(&**policy, ArbStage::SaOut, r, packets, None, slot);
                            Some((prio, in_port))
                        }
                        _ => None,
                    })
                    .collect();
                let Some(w) = arbitrate_rr(&reqs, NUM_PORTS, &mut r.sa_out_ptr[out_port]) else {
                    continue;
                };
                let in_port = reqs[w].1;
                let (in_slot, _, out_slot) = sa_in[in_port].expect("an SA_out request won SA_in");
                let (flit, hops) = r
                    .pop_flit(in_slot)
                    .expect("SA winner holds a buffered flit");
                if let Some(o) = oracle.as_deref_mut() {
                    let flit = flit.with(packets, hops);
                    o.forward(r, in_slot, out_port, &flit, cycle);
                }
                if let Some((nb, nb_port)) = far_end(cfg, r_idx, out_port) {
                    r.take_credit(out_slot);
                    // The downstream input VC: the same VC index, at the
                    // port the link enters.
                    let nb_slot = r.slot(nb_port, r.port_vc(out_slot).1);
                    let mut arrive = cycle + 1;
                    if let Some(fs) = fault.as_deref_mut().filter(|fs| fs.corrupts()) {
                        // Link-level ARQ, resolved at send time (see the
                        // production SA phase).
                        let id = packets.get(flit.packet).id;
                        let k = fs.send_attempts(id, u32::from(flit.seq), r_idx, out_port);
                        stats.flits_retransmitted += u64::from(k - 1);
                        arrive += u64::from(k - 1) * RETRANSMIT_LATENCY;
                        let at = vc_index(nb, NUM_PORTS * v, nb_slot);
                        arrive = arrive.max(fs.last_arrival[at] + 1);
                        fs.last_arrival[at] = arrive;
                    }
                    in_flight.push(InFlight {
                        flit,
                        arrive,
                        hops: hops + 1,
                        dst_router: nb as NodeId,
                        slot: byte(nb_slot),
                    });
                } else {
                    assert_eq!(out_port, PORT_LOCAL, "grant on a linkless port");
                    eject_q.push((flit, hops));
                }
                if let Some((up, up_port)) = far_end(cfg, r_idx, in_port) {
                    credit_q.push((up, r.slot(up_port, r.port_vc(in_slot).1)));
                }
                if flit.kind.is_tail() {
                    assert!(r.ivc(in_slot).is_empty(), "flits behind a tail");
                    r.release_out_vc(out_slot);
                    r.note_vc_freed(in_slot);
                    if let Some(o) = oracle.as_deref_mut() {
                        o.occupancy(r, in_slot, false, cycle);
                    }
                }
                stats.last_progress = cycle;
            }
        }
    }

    /// VA: every Routed VC picks one request (VA_in), then one winner per
    /// requested output VC (VA_out), output VCs in index order.
    fn reference_va(&mut self) {
        let Network {
            cfg,
            region,
            routing,
            policy,
            routers,
            packets,
            congestion,
            ..
        } = self;
        let v = cfg.vcs_per_port();
        for r in routers.iter_mut() {
            // `((output port, requested output VC), requesting input VC)`,
            // input-slot order.
            let mut requests = Vec::new();
            for slot in 0..NUM_PORTS * v {
                let ivc = r.ivc(slot);
                let VcState::Routed {
                    adaptive,
                    escape,
                    escape_lane,
                } = ivc.state()
                else {
                    continue;
                };
                let head = ivc.front(packets).expect("routed VC holds its head flit");
                let out = va_in_select(
                    cfg,
                    region,
                    &**routing,
                    &**policy,
                    congestion,
                    r,
                    cfg.coord_of(head.info.dst),
                    &arb_req(r, &head.info),
                    adaptive,
                    usize::from(escape),
                    escape_lane,
                );
                requests.extend(out.map(|out| (out, slot)));
            }
            for out in 0..NUM_PORTS * v {
                let (out_port, out_vc) = r.port_vc(out);
                let group: Vec<usize> = requests
                    .iter()
                    .filter(|&&(want, _)| want == (out_port, out))
                    .map(|&(_, inp)| inp)
                    .collect();
                let reqs: Vec<(u64, usize)> = group
                    .iter()
                    .map(|&inp| {
                        let class = Some(cfg.vc_class(out_vc));
                        let prio = priority_of(&**policy, ArbStage::VaOut, r, packets, class, inp);
                        (prio, inp)
                    })
                    .collect();
                let ptr = &mut r.va_ptr[out];
                let at = usize::from(*ptr);
                if let Some((w, next)) = arbitrate_rr_at(&reqs, NUM_PORTS * v, at) {
                    *ptr = next as u8;
                    r.alloc_out_vc(out, group[w]);
                    r.set_vc_state(group[w], VcState::active(out_port, out));
                }
            }
        }
    }

    /// RC: route computation for every head flit at the front of an idle VC.
    fn reference_rc(&mut self) {
        let Network {
            cfg,
            routing,
            routers,
            packets,
            fault,
            ..
        } = self;
        let degraded = fault.as_deref().and_then(|f| f.table.as_ref());
        let v = cfg.vcs_per_port();
        for (r_idx, r) in routers.iter_mut().enumerate() {
            for slot in 0..NUM_PORTS * v {
                let ivc = r.ivc(slot);
                let (VcState::Idle, Some(front)) = (ivc.state(), ivc.front(packets)) else {
                    continue;
                };
                assert!(front.kind.is_head(), "idle VC front flit must be a head");
                let (s, d) = (r_idx, front.info.dst as usize);
                let dst = cfg.coord_of(front.info.dst);
                // Heads with no surviving path stay Idle (parked) until the
                // stranded sweep extracts them.
                if degraded.is_some_and(|t| !t.routable(s, d)) {
                    continue;
                }
                let routed = if dst == r.coord {
                    VcState::routed([Some(PORT_LOCAL), None], PORT_LOCAL, 0)
                } else if let Some(t) = degraded {
                    let Some(escape) = t.esc_at(s, d) else {
                        continue;
                    };
                    VcState::routed(t.adap_at(s, d), escape, 0)
                } else {
                    let hops = routing.next_hops(cfg, r.coord, dst);
                    VcState::routed(hops.adaptive, hops.escape, hops.escape_lane)
                };
                r.set_vc_state(slot, routed);
            }
        }
    }

    /// Injection: every node, in node-id order, releases its ready replies
    /// and retries, is offered one `generate` — plain per-cycle polling, no
    /// promise asked — and streams one flit into its router.
    fn reference_inject(&mut self) {
        let Network {
            cfg,
            routers,
            packets,
            nodes,
            source,
            stats,
            next_pkt_id,
            cycle,
            oracle,
            fault,
            rngs,
            ..
        } = self;
        let cycle = *cycle;
        let degraded = fault.as_deref().and_then(|f| f.table.as_ref());
        let c = cfg.concentration();
        for (i, (node, rng)) in nodes.iter_mut().zip(rngs.iter_mut()).enumerate() {
            let id = i as NodeId;
            node.release_replies(cycle);
            node.release_retries(cycle);
            if let Some(np) = source.generate(id, cycle, rng) {
                assert_ne!(np.dst, id, "source generated self-addressed packet");
                let fits = |size: u32, class: MsgClass| {
                    (1..=cfg.vc_depth).contains(&(size as usize))
                        && usize::from(class) < cfg.num_classes
                };
                assert!(
                    fits(np.size, np.class) && np.reply.is_none_or(|r| fits(r.size, r.class)),
                    "packet outside the config: {np:?}"
                );
                stats.generated[np.app as usize] += 1;
                if degraded.is_some_and(|t| !t.routable(i, np.dst as usize)) {
                    // Unreachable on the degraded topology: generated, then
                    // dropped at the source.
                    stats.packets_dropped += 1;
                } else {
                    node.enqueue(PacketInfo {
                        id: *next_pkt_id,
                        src: id,
                        dst: np.dst,
                        app: np.app,
                        class: np.class,
                        size: np.size,
                        birth: cycle,
                        inject: 0,
                        reply: np.reply,
                    });
                    *next_pkt_id += 1;
                }
            }
            let router = &mut routers[i / c];
            let Some(ev) = node.try_inject(cfg, router, packets, cycle) else {
                continue;
            };
            stats.injected_flits += 1;
            if ev.head {
                stats.injected_packets[ev.app as usize] += 1;
            }
            if let Some(o) = oracle.as_deref_mut() {
                o.notify(|c, _| c.on_inject(id, &ev, cycle));
                if ev.head {
                    o.notify(|c, _| c.on_occupancy(router.id, PORT_LOCAL, ev.vc, true, cycle));
                }
            }
        }
    }

    /// State update: every router, every cycle — the DPA registers and the
    /// congestion export recounted from the VCs' occupancy and holder tags.
    fn reference_update(&mut self) {
        let Network {
            cfg,
            policy,
            routers,
            congestion,
            cycle,
            ..
        } = self;
        let adaptive = cfg.adaptive_vc_range();
        for (r, export) in routers.iter_mut().zip(congestion.iter_mut()) {
            let (mut native, mut foreign, mut adaptive_occ) = (0, 0, 0);
            for port in 0..NUM_PORTS {
                for (vc, ivc) in r.ivcs(port).enumerate() {
                    if !ivc.occupied() {
                        continue;
                    }
                    if ivc.holder().is_some_and(|app| r.is_native(app)) {
                        native += 1;
                    } else {
                        foreign += 1;
                    }
                    adaptive_occ += u16::from(adaptive.contains(&vc));
                }
            }
            r.ovc_native = native;
            r.ovc_foreign = foreign;
            policy.update_router(r, *cycle);
            *export = adaptive_occ;
        }
    }

    /// Recompute the network masks from scratch — written for the oracle's
    /// active-set checks, never read by this kernel: a router is active iff
    /// one of its VCs is occupied, every router was just updated (none is
    /// dirty), and an NI is in the NI set iff it has work.
    fn reference_rebuild_masks(&mut self) {
        self.active_mask.fill(0);
        self.dirty_mask.fill(0);
        self.ni_mask.fill(0);
        for (i, r) in self.routers.iter().enumerate() {
            if !r.is_idle() {
                Self::mark_active(&mut self.active_mask, i);
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.has_work() {
                Self::mark_active(&mut self.ni_mask, i);
            }
        }
    }
}

/// VA_in: the `(output port, output VC slot)` a routed input VC requests this
/// cycle — an allocatable adaptive VC of the port the routing function
/// selects (the policy's tag preference first), else the escape VC of the
/// packet's dateline lane, else nothing.
#[allow(clippy::too_many_arguments)]
fn va_in_select(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
    policy: &dyn PriorityPolicy,
    congestion: &[u16],
    r: &Router,
    dst: Coord,
    req: &ArbReq,
    adaptive: Adaptive,
    escape: Port,
    escape_lane: u8,
) -> Option<(Port, usize)> {
    // Ejection at the destination: any unheld local "output VC".
    if escape == PORT_LOCAL {
        return (0..cfg.vcs_per_port())
            .map(|vc| r.slot(PORT_LOCAL, vc))
            .find(|&slot| r.out_alloc(slot).is_none())
            .map(|slot| (PORT_LOCAL, slot));
    }
    let free = |p: Port| {
        cfg.adaptive_vc_range()
            .filter(move |&vc| allocatable(r, r.slot(p, vc)))
    };
    let cands: Vec<Port> = adaptive
        .ports()
        .filter(|&p| free(p).next().is_some())
        .collect();
    if !cands.is_empty() {
        let ctx = SelectCtx {
            cfg,
            router: r,
            dst,
            region,
            congestion,
        };
        let p = cands[routing.select(&ctx, &cands)];
        let tagged = policy
            .vc_tag_preference(r, req)
            .and_then(|tag| free(p).find(|&vc| cfg.vc_class(vc).tag() == Some(tag)));
        return tagged
            .or_else(|| free(p).next())
            .map(|vc| (p, r.slot(p, vc)));
    }
    let esc = r.slot(escape, cfg.escape_vc_lane(req.class, escape_lane));
    allocatable(r, esc).then_some((escape, esc))
}
