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
use crate::fault::{FaultState, RETRANSMIT_LATENCY};
use crate::flit::{PacketInfo, PacketTable};
use crate::ids::{opposite, Coord, MsgClass, NodeId, Port, NUM_PORTS, PORT_LOCAL};
use crate::region::RegionMap;
use crate::router::Router;
use crate::routing::{RoutingAlgorithm, SelectCtx};
use crate::topology::{has_link, neighbor_router};
use crate::vc::{byte, VcClass, VcState};

/// Far end of output port `p` of router `idx`, from the topology functions.
fn far_end(cfg: &SimConfig, idx: usize, p: Port) -> Option<(usize, Port)> {
    has_link(cfg, cfg.router_coord(idx), p).then(|| (neighbor_router(cfg, idx, p), opposite(p)))
}

/// May a new packet be allocated output VC `(p, vc)`: no holder and the
/// downstream buffer fully drained (local credits are never consumed).
fn allocatable(r: &Router, p: Port, vc: usize) -> bool {
    r.out_alloc(p, vc).is_none() && r.credits(p, vc) == r.vc_depth()
}

/// The policy's priority for the flit at the front of input VC `(port, vc)`.
fn priority_of(
    policy: &dyn PriorityPolicy,
    stage: ArbStage,
    r: &Router,
    packets: &PacketTable,
    out_vc: Option<VcClass>,
    (port, vc): (Port, usize),
) -> u64 {
    let front = r
        .ivc(port, vc)
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
            // SA_in: per input port, the winning `(in_vc, out_port, out_vc)`.
            let mut sa_in = [None; NUM_PORTS];
            for (in_port, winner) in sa_in.iter_mut().enumerate() {
                let (mut reqs, mut wants) = (Vec::new(), Vec::new());
                for in_vc in 0..v {
                    let ivc = r.ivc(in_port, in_vc);
                    let VcState::Active { out_port, out_vc } = ivc.state() else {
                        continue;
                    };
                    let credit = out_port == PORT_LOCAL || r.credits(out_port, out_vc) > 0;
                    if !credit || ivc.is_empty() {
                        continue;
                    }
                    let at = (in_port, in_vc);
                    let prio = priority_of(&**policy, ArbStage::SaIn, r, packets, None, at);
                    reqs.push((prio, in_vc));
                    wants.push((out_port, out_vc));
                }
                if let Some(w) = arbitrate_rr(&reqs, v, &mut r.sa_in_ptr[in_port]) {
                    *winner = Some((reqs[w].1, wants[w].0, wants[w].1));
                }
            }
            // SA_out, then ST for each winner.
            for out_port in 0..NUM_PORTS {
                let reqs: Vec<(u64, usize)> = (0..NUM_PORTS)
                    .filter_map(|in_port| match sa_in[in_port] {
                        Some((in_vc, want, _)) if want == out_port => {
                            let at = (in_port, in_vc);
                            let prio =
                                priority_of(&**policy, ArbStage::SaOut, r, packets, None, at);
                            Some((prio, in_port))
                        }
                        _ => None,
                    })
                    .collect();
                let Some(w) = arbitrate_rr(&reqs, NUM_PORTS, &mut r.sa_out_ptr[out_port]) else {
                    continue;
                };
                let in_port = reqs[w].1;
                let (in_vc, _, out_vc) = sa_in[in_port].expect("an SA_out request won SA_in");
                let (flit, hops) = r
                    .pop_flit(in_port, in_vc)
                    .expect("SA winner holds a buffered flit");
                if let Some(o) = oracle.as_deref_mut() {
                    let flit = flit.with(packets, hops);
                    o.notify(|c, _| c.on_forward(r.id, in_port, in_vc, out_port, &flit, cycle));
                }
                if let Some((nb, nb_port)) = far_end(cfg, r_idx, out_port) {
                    r.take_credit(out_port, out_vc);
                    let mut arrive = cycle + 1;
                    if let Some(fs) = fault.as_deref_mut().filter(|fs| fs.corrupts()) {
                        // Link-level ARQ, resolved at send time (see the
                        // production SA phase).
                        let id = packets.get(flit.packet).id;
                        let k = fs.send_attempts(id, u32::from(flit.seq), r_idx, out_port);
                        stats.flits_retransmitted += u64::from(k - 1);
                        arrive += u64::from(k - 1) * RETRANSMIT_LATENCY;
                        let slot = FaultState::slot(cfg, nb, nb_port, out_vc);
                        arrive = arrive.max(fs.last_arrival[slot] + 1);
                        fs.last_arrival[slot] = arrive;
                    }
                    in_flight.push(InFlight {
                        flit,
                        arrive,
                        hops: hops + 1,
                        dst_router: nb as NodeId,
                        in_port: byte(nb_port),
                        vc: byte(out_vc),
                    });
                } else {
                    assert_eq!(out_port, PORT_LOCAL, "grant on a linkless port");
                    eject_q.push((flit, hops));
                }
                if let Some((up, up_port)) = far_end(cfg, r_idx, in_port) {
                    credit_q.push((up, up_port, in_vc));
                }
                if flit.kind.is_tail() {
                    assert!(r.ivc(in_port, in_vc).is_empty(), "flits behind a tail");
                    r.release_out_vc(out_port, out_vc);
                    r.note_vc_freed(in_port, in_vc);
                    if let Some(o) = oracle.as_deref_mut() {
                        o.notify(|c, _| c.on_occupancy(r.id, in_port, in_vc, false, cycle));
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
            // `(requested output VC, requesting input VC)`, input-slot order.
            let mut requests = Vec::new();
            for slot in 0..NUM_PORTS * v {
                let inp = r.port_vc(slot);
                let ivc = r.ivc(inp.0, inp.1);
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
                    escape,
                    escape_lane,
                );
                requests.extend(out.map(|out| (out, inp)));
            }
            for out_port in 0..NUM_PORTS {
                for out_vc in 0..v {
                    let group: Vec<(Port, usize)> = requests
                        .iter()
                        .filter(|(out, _)| *out == (out_port, out_vc))
                        .map(|&(_, inp)| inp)
                        .collect();
                    let reqs: Vec<(u64, usize)> = group
                        .iter()
                        .map(|&inp| {
                            let class = Some(cfg.vc_class(out_vc));
                            let prio =
                                priority_of(&**policy, ArbStage::VaOut, r, packets, class, inp);
                            (prio, r.slot(inp.0, inp.1))
                        })
                        .collect();
                    let ptr = &mut r.va_ptr[out_port * v + out_vc];
                    let at = usize::from(*ptr);
                    if let Some((w, next)) = arbitrate_rr_at(&reqs, NUM_PORTS * v, at) {
                        *ptr = next as u8;
                        let (in_port, in_vc) = group[w];
                        r.alloc_out_vc(out_port, out_vc, (in_port, in_vc));
                        r.set_vc_state(in_port, in_vc, VcState::Active { out_port, out_vc });
                    }
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
                let (in_port, in_vc) = r.port_vc(slot);
                let ivc = r.ivc(in_port, in_vc);
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
                    VcState::Routed {
                        adaptive: [Some(PORT_LOCAL), None],
                        escape: PORT_LOCAL,
                        escape_lane: 0,
                    }
                } else if let Some(t) = degraded {
                    let Some(escape) = t.esc_at(s, d) else {
                        continue;
                    };
                    VcState::Routed {
                        adaptive: t.adap_at(s, d),
                        escape,
                        escape_lane: 0,
                    }
                } else {
                    let hops = routing.next_hops(cfg, r.coord, dst);
                    VcState::Routed {
                        adaptive: hops.adaptive,
                        escape: hops.escape,
                        escape_lane: hops.escape_lane,
                    }
                };
                r.set_vc_state(in_port, in_vc, routed);
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

/// VA_in: the `(output port, output VC)` a routed input VC requests this
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
    adaptive: [Option<Port>; 2],
    escape: Port,
    escape_lane: u8,
) -> Option<(Port, usize)> {
    // Ejection at the destination: any unheld local "output VC".
    if escape == PORT_LOCAL {
        return (0..cfg.vcs_per_port())
            .find(|&vc| r.out_alloc(PORT_LOCAL, vc).is_none())
            .map(|vc| (PORT_LOCAL, vc));
    }
    let free = |p: Port| {
        cfg.adaptive_vc_range()
            .filter(move |&vc| allocatable(r, p, vc))
    };
    let cands: Vec<Port> = adaptive
        .into_iter()
        .flatten()
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
        return tagged.or_else(|| free(p).next()).map(|vc| (p, vc));
    }
    let esc = cfg.escape_vc_lane(req.class, escape_lane);
    allocatable(r, escape, esc).then_some((escape, esc))
}
