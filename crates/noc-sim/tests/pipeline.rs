//! End-to-end tests of the router pipeline and network invariants.

use noc_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Simple Bernoulli uniform-random load generator for tests.
struct UniformLoad {
    /// Packet-generation probability per node per cycle.
    rate: f64,
    size: u32,
    num_nodes: u16,
    /// Stop generating after this cycle (for drain tests).
    stop_at: u64,
}

impl TrafficSource for UniformLoad {
    fn num_apps(&self) -> usize {
        1
    }

    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if cycle >= self.stop_at || !rng.random_bool(self.rate) {
            return None;
        }
        let mut dst = rng.random_range(0..self.num_nodes);
        if dst == node {
            dst = (dst + 1) % self.num_nodes;
        }
        Some(NewPacket {
            dst,
            app: 0,
            class: 0,
            size: self.size,
            reply: None,
        })
    }
}

fn single_packet_net(src: NodeId, dst: NodeId, size: u32) -> Network {
    let cfg = SimConfig::table1();
    let region = RegionMap::single(&cfg);
    let pkt = NewPacket {
        dst,
        app: 0,
        class: 0,
        size,
        reply: None,
    };
    Network::new(
        cfg,
        region,
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(ScriptedSource::new(1, vec![(0, src, pkt)])),
        7,
    )
}

#[test]
fn single_flit_packet_delivered_with_expected_latency() {
    // One hop: node 0 -> node 1.
    let mut net = single_packet_net(0, 1, 1);
    net.run(60);
    assert!(net.is_drained());
    let rec = &net.stats.recorder;
    assert_eq!(rec.delivered(), 1);
    let lat = rec.app(0).mean(LatencyKind::Network).unwrap();
    // Pipeline: inject t0, RC t1, VA t2, SA t3 -> link, arrive t4;
    // RC t4, VA t5, SA(eject) t6, consumed t7 => 7 cycles network latency
    // for one hop with a 3-stage router + link + ejection.
    assert!(
        (6.0..=9.0).contains(&lat),
        "unexpected zero-load 1-hop latency {lat}"
    );
    assert!((net.stats.recorder.app(0).hops.mean().unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn latency_scales_with_distance() {
    let mut short = single_packet_net(0, 1, 1);
    short.run(100);
    // Corner to corner: 14 hops on an 8x8 mesh.
    let mut long = single_packet_net(0, 63, 1);
    long.run(200);
    let l_short = short
        .stats
        .recorder
        .app(0)
        .mean(LatencyKind::Network)
        .unwrap();
    let l_long = long
        .stats
        .recorder
        .app(0)
        .mean(LatencyKind::Network)
        .unwrap();
    assert_eq!(long.stats.recorder.app(0).hops.mean().unwrap(), 14.0);
    // Each extra hop costs ~3 cycles at zero load.
    let per_hop = (l_long - l_short) / 13.0;
    assert!(
        (2.5..=4.5).contains(&per_hop),
        "per-hop latency {per_hop} out of range ({l_short} -> {l_long})"
    );
}

#[test]
fn five_flit_packet_arrives_intact() {
    let mut net = single_packet_net(5, 60, 5);
    net.run(200);
    assert!(net.is_drained());
    assert_eq!(net.stats.recorder.delivered(), 1);
    assert_eq!(net.stats.injected_flits, 5);
    assert_eq!(net.stats.ejected_flits, 5);
}

#[test]
fn minimal_routing_invariant() {
    // Every delivered packet's hop count equals the Manhattan distance.
    let cfg = SimConfig::table1();
    let mut events = vec![];
    for (i, (s, d)) in [(0u16, 63u16), (7, 56), (12, 34), (33, 2), (63, 0)]
        .into_iter()
        .enumerate()
    {
        events.push((
            (i * 3) as u64,
            s,
            NewPacket {
                dst: d,
                app: 0,
                class: 0,
                size: 1,
                reply: None,
            },
        ));
    }
    let expected_hops: f64 = [(0u16, 63u16), (7, 56), (12, 34), (33, 2), (63, 0)]
        .iter()
        .map(|&(s, d)| noc_sim::topology::distance(&cfg, cfg.coord_of(s), cfg.coord_of(d)) as f64)
        .sum::<f64>()
        / 5.0;
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(ScriptedSource::new(1, events)),
        3,
    );
    net.run(300);
    assert_eq!(net.stats.recorder.delivered(), 5);
    let mean_hops = net.stats.recorder.app(0).hops.mean().unwrap();
    assert!(
        (mean_hops - expected_hops).abs() < 1e-9,
        "non-minimal route"
    );
}

#[test]
fn flit_conservation_under_load() {
    let cfg = SimConfig::table1();
    let n = cfg.num_nodes() as u16;
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(UniformLoad {
            rate: 0.05,
            size: 5,
            num_nodes: n,
            stop_at: u64::MAX,
        }),
        11,
    );
    for _ in 0..50 {
        net.run(100);
        assert_eq!(
            net.stats.injected_flits,
            net.stats.ejected_flits + net.flits_in_network(),
            "flit conservation violated at cycle {}",
            net.cycle()
        );
    }
    assert!(net.stats.recorder.delivered() > 1000);
}

#[test]
fn drains_after_traffic_stops() {
    let cfg = SimConfig::table1();
    let n = cfg.num_nodes() as u16;
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(UniformLoad {
            rate: 0.1,
            size: 5,
            num_nodes: n,
            stop_at: 2000,
        }),
        13,
    );
    net.run(2000);
    assert!(net.stats.recorder.delivered() > 0);
    net.run(3000);
    assert!(net.is_drained(), "network failed to drain");
    assert_eq!(net.stats.injected_flits, net.stats.ejected_flits);
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| {
        let cfg = SimConfig::table1();
        let n = cfg.num_nodes() as u16;
        let mut net = Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            Box::new(DuatoLocalAdaptive),
            Box::new(RoundRobin),
            Box::new(UniformLoad {
                rate: 0.08,
                size: 5,
                num_nodes: n,
                stop_at: u64::MAX,
            }),
            seed,
        );
        net.run(3000);
        (
            net.stats.recorder.delivered(),
            net.stats.injected_flits,
            net.stats
                .recorder
                .app(0)
                .mean(LatencyKind::Network)
                .unwrap(),
        )
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed must reproduce identical results");
    let c = run(100);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn no_deadlock_under_heavy_adversarial_load() {
    // Offer far beyond saturation for a long time with each routing
    // algorithm; progress must never stall (escape VCs guarantee it).
    for routing in [
        Box::new(XyRouting) as Box<dyn RoutingAlgorithm>,
        Box::new(DuatoLocalAdaptive),
        Box::new(DbarAdaptive),
    ] {
        let cfg = SimConfig::table1();
        let n = cfg.num_nodes() as u16;
        let mut net = Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            routing,
            Box::new(RoundRobin),
            Box::new(UniformLoad {
                rate: 0.9,
                size: 5,
                num_nodes: n,
                stop_at: u64::MAX,
            }),
            17,
        );
        net.run(5000);
        assert!(
            net.cycles_since_progress() < 100,
            "{}: no progress for {} cycles (deadlock?)",
            net.routing_name(),
            net.cycles_since_progress()
        );
        assert!(net.stats.recorder.delivered() > 500);
    }
}

#[test]
fn request_reply_closed_loop() {
    // A request with a reply spec generates a reply back to the requester.
    let cfg = SimConfig::table1_req_reply();
    let pkt = NewPacket {
        dst: 9,
        app: 0,
        class: 0,
        size: 1,
        reply: Some(ReplySpec {
            service_latency: 6,
            size: 5,
            class: 1,
        }),
    };
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1_req_reply()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(ScriptedSource::new(1, vec![(0, 0, pkt)])),
        5,
    );
    net.run(500);
    assert!(net.is_drained());
    // Two packets delivered: the request and the reply.
    assert_eq!(net.stats.recorder.delivered(), 2);
    assert_eq!(net.stats.injected_flits, 6); // 1 request + 5 reply flits
}

#[test]
fn warmup_reset_discards_warmup_packets() {
    let cfg = SimConfig::table1();
    let n = cfg.num_nodes() as u16;
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(UniformLoad {
            rate: 0.05,
            size: 1,
            num_nodes: n,
            stop_at: u64::MAX,
        }),
        21,
    );
    net.run_warmup_measure(1000, 1000);
    let measured = net.stats.recorder.delivered();
    // Roughly 64 nodes * 0.05 * 1000 = 3200 packets; warmup excluded.
    assert!(measured > 2000 && measured < 4000, "measured {measured}");
}

#[test]
fn throughput_tracks_offered_load_below_saturation() {
    let cfg = SimConfig::table1();
    let n = cfg.num_nodes() as u16;
    let rate = 0.04; // packets/node/cycle, size 1 => 0.04 flits/node/cycle
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(UniformLoad {
            rate,
            size: 1,
            num_nodes: n,
            stop_at: u64::MAX,
        }),
        23,
    );
    net.run_warmup_measure(2000, 5000);
    let thpt = net.stats.throughput(net.cycle(), 64);
    assert!(
        (thpt - rate).abs() < rate * 0.15,
        "throughput {thpt} vs offered {rate}"
    );
}

#[test]
fn backlog_grows_past_saturation() {
    let cfg = SimConfig::table1();
    let n = cfg.num_nodes() as u16;
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(UniformLoad {
            rate: 0.5,
            size: 5, // 2.5 flits/node/cycle offered — far past capacity
            num_nodes: n,
            stop_at: u64::MAX,
        }),
        29,
    );
    net.run(2000);
    let b1 = net.total_backlog();
    net.run(2000);
    let b2 = net.total_backlog();
    assert!(
        b2 > b1 + 1000,
        "backlog should grow unboundedly past saturation ({b1} -> {b2})"
    );
}
