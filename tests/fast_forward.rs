//! Bit-identity and boundary discipline of the idle fast-forward.
//!
//! The event-driven kernel jumps the clock over provably-idle spans (no
//! occupied VC, nothing in flight, source promises silence). These tests
//! pin its contract: runs are digest-identical to plain ticking (`run` is the
//! only place the clock jumps, so a `tick()` loop is the plain twin) and to
//! the reference kernel across the scheme × routing matrix and under
//! randomized scripted workloads, the jump never crosses a `run()` boundary
//! (so warmup/measurement windows are exact), and the invariant oracle
//! observes exactly the same end-of-cycle scans it would under plain ticking.

use noc_sim::analysis::Analysis;
use noc_sim::network::Network;
use noc_sim::oracle::{Checker, OracleConfig, StarvationWatch};
use noc_sim::prelude::*;
use proptest::prelude::*;
use rair::prelude::*;
use traffic::prelude::*;
use traffic::trace::{Trace, TraceReplay};

/// Build a network over a deterministic trace replay (RNG-free, so the
/// fast-forward can engage on idle gaps).
fn replay_net(trace: &Trace, region: &RegionMap, scheme: &Scheme, routing: Routing) -> Network {
    let cfg = SimConfig::table1();
    Network::new(
        cfg,
        region.clone(),
        routing.build(),
        scheme.build(),
        Box::new(TraceReplay::new(trace, 64)),
        42,
    )
}

/// `cycles` plain ticks: what `run` does when the clock never jumps.
fn tick_through(net: &mut Network, cycles: u64) {
    for _ in 0..cycles {
        net.tick();
    }
}

#[test]
fn fast_forward_is_digest_identical_across_matrix() {
    let cfg = SimConfig::table1();
    // Light and moderate loads; light traces leave real idle gaps for the
    // fast-forward to jump.
    for &(p, r0, r1) in &[(0.2, 0.01, 0.01), (0.5, 0.08, 0.1)] {
        let (region, scenario) = two_app(&cfg, p, r0, r1);
        let trace = Trace::capture(scenario, 64, 1_200, 7);
        for scheme in [
            Scheme::RoRr,
            Scheme::RoAge,
            Scheme::ro_rank(vec![0.1, 0.9]),
            Scheme::rair(),
        ] {
            for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
                let mut fast = replay_net(&trace, &region, &scheme, routing);
                fast.run(1_500);
                let mut plain = replay_net(&trace, &region, &scheme, routing);
                tick_through(&mut plain, 1_500);
                let mut reference = replay_net(&trace, &region, &scheme, routing);
                reference.run_reference(1_500);
                assert_eq!(fast.cycle(), plain.cycle());
                // The jump engages exactly where it did before sources made
                // per-node promises (counts of the commit before them).
                let skipped = match (r0, scheme.label().as_str(), routing) {
                    (0.01, ..) => 287,
                    (_, "RO_Age", Routing::Dbar) => 266,
                    _ => 268,
                };
                assert_eq!(fast.stats.idle_cycles_skipped, skipped);
                assert_eq!(fast.oracle_scans(), plain.oracle_scans());
                assert_eq!(fast.oracle_scans(), reference.oracle_scans());
                assert_eq!(
                    fast.stats.digest(),
                    plain.stats.digest(),
                    "fast-forward diverged from plain ticking: {} {:?} p={p} r0={r0} r1={r1}",
                    scheme.label(),
                    routing,
                );
                assert_eq!(
                    fast.stats.digest(),
                    reference.stats.digest(),
                    "fast-forward diverged from the reference: {} {:?} p={p} r0={r0} r1={r1}",
                    scheme.label(),
                    routing,
                );
            }
        }
    }
}

#[test]
fn fast_forward_engages_on_sparse_traffic() {
    let pkt = NewPacket {
        dst: 9,
        app: 0,
        class: 0,
        size: 1,
        reply: None,
    };
    let cfg = SimConfig::table1();
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(ScriptedSource::new(1, vec![(500, 0, pkt), (3_000, 5, pkt)])),
        1,
    );
    net.run(4_000);
    assert_eq!(net.cycle(), 4_000);
    assert_eq!(
        net.stats.idle_cycles_skipped, 3_968,
        "all but the 2 x 16 cycles the two packets are in the network"
    );
    assert_eq!(net.stats.recorder.delivered(), 2);
}

/// A Bernoulli scenario keeps drawing every cycle as far as the idle
/// fast-forward is concerned (its per-node arrival promise skips *calls*,
/// never cycles): even at a load that leaves the network empty most of the
/// time not one cycle is jumped, and plain ticking changes nothing.
#[test]
fn fast_forward_stays_off_for_bernoulli_sources() {
    let run = |fast: bool| {
        let cfg = SimConfig::table1();
        let (region, scenario) = two_app(&cfg, 0.3, 0.0005, 0.0005);
        let mut net = Network::new(
            cfg,
            region,
            Routing::Local.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            42,
        );
        if fast {
            net.run(20_000);
        } else {
            tick_through(&mut net, 20_000);
        }
        assert!(net.stats.recorder.delivered() > 0);
        (net.stats.idle_cycles_skipped, net.stats.digest())
    };
    let (skipped, digest) = run(true);
    assert_eq!(skipped, 0, "fast-forward engaged on a stochastic source");
    assert_eq!(digest, run(false).1);
}

#[test]
fn fast_forward_never_crosses_run_boundaries() {
    // The only injection sits at cycle 5000, beyond the 1000-cycle warmup:
    // the jump must stop at the warmup boundary so the measurement window
    // opens exactly at cycle 1000.
    let pkt = NewPacket {
        dst: 30,
        app: 0,
        class: 0,
        size: 5,
        reply: None,
    };
    let cfg = SimConfig::table1();
    let mut net = Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(ScriptedSource::new(1, vec![(5_000, 0, pkt)])),
        1,
    );
    net.run_warmup_measure(1_000, 10_000);
    assert_eq!(
        net.stats.measure_start, 1_000,
        "jumped past the warmup boundary"
    );
    assert_eq!(net.cycle(), 11_000);
    assert_eq!(net.stats.idle_cycles_skipped, 10_963);
    assert_eq!(net.stats.recorder.delivered(), 1);
    // The packet (injected after warmup) was measured, not lost to the jump.
    assert!(net
        .stats
        .recorder
        .app(0)
        .mean(LatencyKind::Network)
        .is_some());
}

#[test]
fn fast_forward_preserves_oracle_scan_schedule() {
    // A long idle gap under a forced oracle with the default 16-cycle scan
    // interval: the fast-forward must replay every scheduled scan it jumps
    // over, so both kernels report the identical scan count and verdict.
    let pkt = NewPacket {
        dst: 9,
        app: 0,
        class: 0,
        size: 1,
        reply: None,
    };
    let run = |fast: bool| -> Network {
        let mut cfg = SimConfig::table1();
        cfg.oracle = OracleConfig::forced();
        cfg.oracle.check_interval = 16;
        let mut net = Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            Box::new(DuatoLocalAdaptive),
            Box::new(RoundRobin),
            Box::new(ScriptedSource::new(1, vec![(100, 0, pkt), (1_900, 3, pkt)])),
            1,
        );
        if fast {
            net.run(2_048);
        } else {
            tick_through(&mut net, 2_048);
        }
        net
    };
    let fast = run(true);
    let plain = run(false);
    assert_eq!(fast.stats.idle_cycles_skipped, 2_022);
    assert_eq!(
        fast.oracle_scans(),
        plain.oracle_scans(),
        "fast-forward changed the oracle scan schedule"
    );
    assert!(fast.oracle_scans() >= 2_048 / 16);
    assert_eq!(fast.stats.oracle_violation_count, 0);
    assert_eq!(fast.stats.digest(), plain.stats.digest());
}

/// The observers ride the oracle's scan schedule, which the fast-forward
/// replays cycle by cycle: on sparse traffic with the analysis observer and
/// a starvation watch attached, `run` jumps most of the span and still
/// leaves both exactly as plain ticking does. Observing perturbs nothing:
/// the digest (which folds in the oracle's verdict) and all three skip
/// counters equal those of the same network with the oracle off.
#[test]
fn observers_see_the_same_run_through_the_fast_forward() {
    let pkt = |dst, size| NewPacket {
        dst,
        app: 0,
        class: 0,
        size,
        reply: None,
    };
    // Four long packets race down row 0 into node 7, then one stray.
    let mut script: Vec<_> = (0..4).map(|src| (200, src, pkt(7, 5))).collect();
    script.push((2_500, 5, pkt(9, 1)));
    let run = |oracle: OracleConfig, observed: bool, fast: bool| {
        let cfg = SimConfig {
            oracle,
            ..SimConfig::table1()
        };
        let observers: [Box<dyn Checker>; 2] = [
            Box::new(Analysis::new(&cfg, Some(1)).unwrap()),
            Box::new(StarvationWatch::new(&cfg).unwrap()),
        ];
        let mut net = Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            Box::new(DuatoLocalAdaptive),
            Box::new(RoundRobin),
            Box::new(ScriptedSource::new(1, script.clone())),
            1,
        );
        if observed {
            for o in observers {
                assert!(net.attach_checker(o));
            }
        }
        if fast {
            net.run(4_000);
        } else {
            tick_through(&mut net, 4_000);
        }
        net
    };
    let off = OracleConfig {
        enabled: Some(false),
        ..OracleConfig::forced()
    };
    let fast = run(OracleConfig::forced(), true, true);
    let plain = run(OracleConfig::forced(), true, false);
    let bare = run(off, false, true);
    assert!(fast.stats.idle_cycles_skipped > 3_000, "the jump engages");
    let analysis = fast.checker::<Analysis>().unwrap();
    assert_eq!(Some(analysis), plain.checker::<Analysis>());
    assert_eq!(analysis.cycles, 4_000);
    assert!(analysis.occ_native > 0 && analysis.journey.len() > 2);
    let watch = fast.checker::<StarvationWatch>();
    assert!(watch.is_some() && watch == plain.checker::<StarvationWatch>());
    let kernel = |net: &Network| {
        let s = &net.stats;
        let skips = (
            s.router_cycles_skipped,
            s.state_updates_skipped,
            s.idle_cycles_skipped,
        );
        (s.digest(), skips)
    };
    assert_eq!(kernel(&fast), kernel(&bare), "observing changed the run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scripted workloads: arbitrary event times (with long
    /// gaps), sources, sizes — the fast-forward run must be digest-identical
    /// to plain ticking, cycle for cycle.
    #[test]
    fn fast_forward_matches_plain_on_random_scripts(
        events in proptest::collection::vec(
            (0u64..4_000, 0u16..64, 0u16..64, prop_oneof![Just(1u32), Just(5u32)]),
            0..40,
        ),
        split in 1u64..4_500,
    ) {
        let script: Vec<(u64, NodeId, NewPacket)> = events
            .iter()
            .map(|&(cycle, node, dst, size)| {
                let dst = if dst == node { (dst + 1) % 64 } else { dst };
                (cycle, node, NewPacket { dst, app: 0, class: 0, size, reply: None })
            })
            .collect();
        let build = || {
            Network::new(
                SimConfig::table1(),
                RegionMap::single(&SimConfig::table1()),
                Box::new(DuatoLocalAdaptive),
                Box::new(RoundRobin),
                Box::new(ScriptedSource::new(1, script.clone())),
                9,
            )
        };
        // Split the span into two run() calls to also exercise boundary
        // clamping at an arbitrary point.
        let mut fast = build();
        fast.run(split);
        prop_assert_eq!(fast.cycle(), split);
        fast.run(4_500 - split);
        let mut plain = build();
        tick_through(&mut plain, 4_500);
        prop_assert_eq!(fast.cycle(), plain.cycle());
        prop_assert_eq!(fast.stats.digest(), plain.stats.digest());
    }
}
