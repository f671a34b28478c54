//! White-box tests of individual router pipeline behaviors, driven through
//! the public `Network` API with scripted single packets.

use noc_sim::analysis::Analysis;
use noc_sim::network::Network;
use noc_sim::prelude::*;
use noc_sim::vc::VcState;

fn net_on(
    cfg: SimConfig,
    events: Vec<(u64, NodeId, NewPacket)>,
    policy: Box<dyn noc_sim::arbitration::PriorityPolicy>,
) -> Network {
    Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        policy,
        Box::new(ScriptedSource::new(1, events)),
        1,
    )
}

fn net_with(
    events: Vec<(u64, NodeId, NewPacket)>,
    policy: Box<dyn noc_sim::arbitration::PriorityPolicy>,
) -> Network {
    net_on(SimConfig::table1(), events, policy)
}

/// A round-robin network with the analysis observer attached, tracing
/// packet `watch`, under an oracle that scans every cycle.
fn analysed(events: Vec<(u64, NodeId, NewPacket)>, watch: Option<u64>) -> Network {
    let cfg = SimConfig {
        oracle: OracleConfig::forced(),
        ..SimConfig::table1()
    };
    let analysis = Analysis::new(&cfg, watch).unwrap();
    let mut net = net_on(cfg, events, Box::new(RoundRobin));
    assert!(net.attach_checker(Box::new(analysis)));
    net
}

fn pkt(dst: NodeId, size: u32) -> NewPacket {
    NewPacket {
        dst,
        app: 0,
        class: 0,
        size,
        reply: None,
    }
}

#[test]
fn wormhole_flits_stay_in_one_vc_per_hop() {
    // A 5-flit packet from 0 to 2 (two hops east): at every router along
    // the way, all its flits traverse the same input VC (atomic VCs).
    let mut net = net_with(vec![(0, 0, pkt(2, 5))], Box::new(RoundRobin));
    let mut seen_multi_vc = false;
    for _ in 0..60 {
        net.tick();
        // Check router 1 (the intermediate hop): at most one occupied VC on
        // its west input port at any time.
        let r = &net.routers[1];
        let west_occupied = r
            .ivcs(noc_sim::ids::PORT_WEST)
            .filter(noc_sim::vc::VcView::occupied)
            .count();
        assert!(west_occupied <= 1, "wormhole split across VCs");
        seen_multi_vc |= west_occupied == 1;
    }
    assert!(
        seen_multi_vc,
        "packet never traversed the intermediate router"
    );
    assert!(net.is_drained());
}

#[test]
fn body_flits_follow_head_in_order() {
    let mut net = net_with(vec![(0, 0, pkt(63, 5))], Box::new(RoundRobin));
    net.run(300);
    assert!(net.is_drained());
    // Delivery implies in-order reassembly (the recorder only records on
    // the tail after all 5 flits ejected); conservation cross-check:
    assert_eq!(net.stats.injected_flits, 5);
    assert_eq!(net.stats.ejected_flits, 5);
    assert_eq!(net.stats.recorder.delivered(), 1);
}

#[test]
fn vc_states_progress_through_pipeline() {
    // Observe the local input VC of the source router stepping through
    // Idle → Routed → Active → Idle.
    let mut net = net_with(vec![(0, 0, pkt(1, 1))], Box::new(RoundRobin));
    let mut saw_routed = false;
    let mut saw_active = false;
    for _ in 0..30 {
        net.tick();
        for vc in net.routers[0].ivcs(noc_sim::ids::PORT_LOCAL) {
            match vc.state() {
                VcState::Routed { .. } => saw_routed = true,
                VcState::Active { .. } => saw_active = true,
                VcState::Idle => {}
            }
        }
    }
    assert!(saw_routed, "VC never reached Routed");
    assert!(saw_active, "VC never reached Active");
    assert!(net.is_drained());
    assert!(net.routers[0].is_idle());
}

#[test]
fn credits_return_after_drain() {
    // After the network drains, every credit counter is back at full depth.
    let events = (0..20)
        .map(|i| {
            (
                i as u64,
                (i % 8) as NodeId,
                pkt(((i * 7) % 64) as NodeId, 5),
            )
        })
        .filter(|(_, s, p)| *s != p.dst)
        .collect();
    let mut net = net_with(events, Box::new(RoundRobin));
    net.run(1_000);
    assert!(net.is_drained());
    let depth = net.cfg.vc_depth;
    for r in &net.routers {
        for port in 0..noc_sim::ids::NUM_PORTS {
            for vc in 0..net.cfg.vcs_per_port() {
                assert_eq!(
                    r.credits(port, vc),
                    depth,
                    "router {} port {port} vc {vc} leaked credits",
                    r.id
                );
                assert!(r.out_alloc(port, vc).is_none(), "output VC leaked");
            }
        }
    }
}

#[test]
fn two_packets_share_physical_link_via_different_vcs() {
    // Two long packets from the same source down the same path: both make
    // progress concurrently on different VCs (no head-of-line blocking of
    // the whole port).
    let mut net = net_with(
        vec![(0, 0, pkt(7, 5)), (1, 0, pkt(7, 5))],
        Box::new(RoundRobin),
    );
    net.run(500);
    assert!(net.is_drained());
    assert_eq!(net.stats.recorder.delivered(), 2);
    // Sanity: both took the minimal 7-hop route.
    assert_eq!(net.stats.recorder.app(0).hops.mean().unwrap(), 7.0);
}

#[test]
fn ejection_bandwidth_is_one_flit_per_cycle() {
    // Many single-flit packets converging on one node: the destination can
    // eject at most one flit per cycle, so N packets need ≥ N cycles after
    // the first arrival.
    let n = 16u64;
    let events: Vec<(u64, NodeId, NewPacket)> =
        (0..n).map(|i| (0, (i + 1) as NodeId, pkt(0, 1))).collect();
    let mut net = net_with(events, Box::new(RoundRobin));
    let mut first_delivery = None;
    let mut last_delivery = None;
    for _ in 0..600 {
        net.tick();
        let d = net.stats.recorder.delivered();
        if d > 0 && first_delivery.is_none() {
            first_delivery = Some(net.cycle());
        }
        if d == n && last_delivery.is_none() {
            last_delivery = Some(net.cycle());
        }
    }
    let (f, l) = (first_delivery.unwrap(), last_delivery.unwrap());
    assert!(
        l - f >= n - 1,
        "ejected {n} packets in {} cycles (> 1 flit/cycle/node)",
        l - f
    );
}

#[test]
fn age_policy_orders_competing_packets() {
    // Two nodes race long packets to the same destination through the same
    // column; with AgeBased the earlier-born packet must be delivered first.
    let early = (0u64, 8u16, pkt(56, 5)); // node (0,1) -> (0,7)
    let late = (3u64, 16u16, pkt(56, 5)); // node (0,2) -> (0,7)
    let mut net = net_with(vec![early, late], Box::new(AgeBased));
    net.run(400);
    assert!(net.is_drained());
    assert_eq!(net.stats.recorder.delivered(), 2);
    // Cannot observe per-packet order via the recorder directly, but the
    // later packet is closer to the destination — if the earlier one still
    // wins every arbitration it must not be starved. Check both finished
    // with bounded latency.
    assert!(net.stats.recorder.app(0).network.max().unwrap() < 200.0);
}

#[test]
fn local_port_injection_contends_with_through_traffic() {
    // A node under heavy through-traffic can still inject (no permanent
    // injection starvation) because ejection and injection use the local
    // port's separate input/output sides.
    let mut events = vec![(50u64, 9u16, pkt(10, 1))];
    // Flood the row 1 path around node 9.
    for i in 0..40u64 {
        events.push((i, 8, pkt(15, 5)));
    }
    let mut net = net_with(events, Box::new(RoundRobin));
    net.run(2_000);
    assert!(net.is_drained());
    assert_eq!(net.stats.recorder.delivered(), 41);
}

#[test]
fn analysis_records_links_and_journey() {
    // One packet 0 -> 2 (two hops east): analysis must record its journey
    // and the link counters along row 0.
    let mut net = analysed(vec![(0, 0, pkt(2, 1))], Some(0)); // first packet gets id 0
    net.run(60);
    assert!(net.is_drained());
    let a = net.checker::<Analysis>().unwrap();
    assert_eq!(a.cycles, 60);
    // Journey: injected at 0, forwarded east twice, delivered at 2.
    use noc_sim::analysis::JourneyEvent::*;
    let events: Vec<_> = a.journey.iter().map(|&(_, e)| e).collect();
    assert_eq!(
        events,
        vec![
            Injected { node: 0 },
            Forwarded {
                router: 0,
                port: noc_sim::ids::PORT_EAST
            },
            Forwarded {
                router: 1,
                port: noc_sim::ids::PORT_EAST
            },
            Delivered { node: 2 },
        ]
    );
    // Cycles are strictly increasing along the journey.
    assert!(a.journey.windows(2).all(|w| w[0].0 < w[1].0));
    // Link counters: one flit on 0->E and 1->E, one ejection at 2.
    assert_eq!(a.link_flits[0][noc_sim::ids::PORT_EAST], 1);
    assert_eq!(a.link_flits[1][noc_sim::ids::PORT_EAST], 1);
    assert_eq!(a.link_flits[2][noc_sim::ids::PORT_LOCAL], 1);
    assert_eq!(a.hottest_link().unwrap().2, 1.0 / 60.0);
}

#[test]
fn analysis_occupancy_breakdown_accumulates() {
    let events: Vec<(u64, NodeId, NewPacket)> = (0..10).map(|i| (i, 0u16, pkt(63, 5))).collect();
    let mut net = analysed(events.clone(), None);
    net.run(400);
    let a = net.checker::<Analysis>().unwrap();
    // Single-region map: everything is native.
    assert!(a.occ_native > 0);
    assert_eq!(a.occ_foreign, 0);
    assert_eq!(a.foreign_occupancy_share(), 0.0);
    // Packets used adaptive VCs of both tags at some point.
    assert!(a.occ_regional + a.occ_global > 0);
    // A scan forced between two ticks sees the state the last tick's scan
    // already counted: it counts nothing again.
    let mut forced = analysed(events, None);
    for _ in 0..400 {
        forced.tick();
        forced.check_oracle_now();
    }
    assert_eq!(forced.checker::<Analysis>(), Some(a));
}
