//! Fault-resilience tests: link-level retransmission, fault-aware reroute
//! with static re-verification, and drop accounting.
//!
//! The conservation statement "injected = ejected + in-network + dropped"
//! (modulo the drop ledger) is enforced by the oracle's per-cycle
//! conservation checkers; every dynamic test here runs with the oracle
//! force-enabled at `check_interval: 1`, so "zero oracle violations" *is*
//! the conservation-modulo-ledger assertion.

use noc_sim::network::Network;
use noc_sim::prelude::*;
use proptest::prelude::*;
use rair::prelude::*;
use std::collections::BTreeSet;
use traffic::prelude::*;

/// Oracle force-enabled, recording (not panicking), checking every cycle.
fn oracle_cfg() -> SimConfig {
    let mut cfg = SimConfig::table1();
    cfg.oracle = OracleConfig {
        enabled: Some(true),
        panic_on_violation: Some(false),
        check_interval: 1,
        stall_horizon: 25_000,
        ..OracleConfig::default()
    };
    cfg
}

/// Mesh ports whose link exists at `router` on the Table 1 8x8 mesh.
fn in_bounds_ports(cfg: &SimConfig, router: NodeId) -> Vec<Port> {
    let c = cfg.coord_of(router);
    let mut ports = Vec::new();
    if c.y > 0 {
        ports.push(1); // north
    }
    if c.x + 1 < cfg.width {
        ports.push(2); // east
    }
    if c.y + 1 < cfg.height {
        ports.push(3); // south
    }
    if c.x > 0 {
        ports.push(4); // west
    }
    ports
}

/// Both directions of the link out of `router` through `port`, mirroring
/// how the kernel registers a `LinkDown` event.
fn link_pair(cfg: &SimConfig, router: NodeId, port: Port) -> BTreeSet<(usize, Port)> {
    let nbr = cfg.node_at(noc_sim::routing::step(cfg.coord_of(router), port));
    let opp = match port {
        1 => 3,
        2 => 4,
        3 => 1,
        _ => 2,
    };
    [(router as usize, port), (nbr as usize, opp)]
        .into_iter()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single permanent link failure, on any rectangular region grid,
    /// yields a reconfigured routing table that passes the static CDG /
    /// reachability verifier (ISSUE acceptance: re-verified deadlock-free
    /// before traffic resumes).
    #[test]
    fn single_link_failure_reverifies(
        router in 0u16..64,
        port_pick in 0usize..4,
        cols in prop_oneof![Just(1u8), Just(2), Just(4)],
        rows in prop_oneof![Just(1u8), Just(2), Just(4)],
    ) {
        let cfg = SimConfig::table1();
        let ports = in_bounds_ports(&cfg, router);
        let port = ports[port_pick % ports.len()];
        let region = RegionMap::grid(&cfg, cols, rows);
        let dead_links = link_pair(&cfg, router, port);
        let (table, report) = DegradedTable::rebuild(
            &cfg,
            &region,
            &DuatoLocalAdaptive,
            &dead_links,
            &BTreeSet::new(),
        );
        prop_assert!(
            report.ok(),
            "degraded table ({:?}) failed verification: {:?}",
            table.mode(),
            report.violations.first()
        );
        // A single dead link never disconnects a 2D mesh: every pair must
        // stay routable.
        for s in 0..cfg.num_nodes() {
            for d in 0..cfg.num_nodes() {
                prop_assert!(table.routable(s, d), "{s}->{d} unroutable");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A mid-run link kill under load: the run completes with zero oracle
    /// violations — flit/credit conservation hold modulo the drop ledger —
    /// and the reconfiguration is re-verified (no static violations
    /// recorded either).
    #[test]
    fn link_kill_mid_run_conserves(
        router in 0u16..64,
        port_pick in 0usize..4,
        p in prop_oneof![Just(0.5f64), Just(1.0)],
        seed in 0u64..50,
    ) {
        let mut cfg = oracle_cfg();
        let port = {
            let ports = in_bounds_ports(&cfg, router);
            ports[port_pick % ports.len()]
        };
        cfg.fault = FaultTimeline {
            transient_ber: 0.0,
            seed: seed ^ 0xFA11,
            events: vec![ScheduledFault {
                cycle: 400,
                event: FaultEvent::LinkDown { router, port },
            }],
        };
        let (region, scenario) = two_app(&cfg, p, 0.04, 0.15);
        let mut net = Network::new(
            cfg.clone(),
            region,
            Routing::Local.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            seed,
        );
        net.run(1_500);
        net.check_oracle_now();
        prop_assert_eq!(
            net.stats.oracle_violation_count, 0,
            "oracle violations: {:?}", net.stats.oracle_violations
        );
        prop_assert_eq!(net.stats.reconfigurations, 1);
        prop_assert_eq!(
            net.stats.verify_violation_count, 0,
            "degraded routing failed re-verification: {:?}",
            net.stats.verify_violations
        );
        prop_assert!(net.degraded_mode().is_some());
        prop_assert!(net.stats.ejected_flits > 0, "no traffic moved");
    }
}

/// Pure transient faults are latency, not loss: with a 1% per-traversal
/// corruption rate, every scripted packet is still delivered exactly once
/// and nothing is dropped — the link-level retransmission absorbs every
/// error.
#[test]
fn transient_errors_are_latency_not_loss() {
    let mut cfg = oracle_cfg();
    cfg.fault = FaultTimeline {
        transient_ber: 0.01,
        seed: 99,
        events: Vec::new(),
    };
    let mut events = Vec::new();
    let mut count = 0u64;
    for i in 0..40u64 {
        let src = (i * 7 + 3) % 64;
        let dst = (i * 13 + 31) % 64;
        if src == dst {
            continue;
        }
        events.push((
            i * 5,
            src as NodeId,
            NewPacket {
                dst: dst as NodeId,
                app: 0,
                class: 0,
                size: 4,
                reply: None,
            },
        ));
        count += 1;
    }
    let mut net = Network::new(
        cfg.clone(),
        RegionMap::single(&cfg),
        Routing::Local.build(),
        Scheme::RoRr.build(),
        Box::new(ScriptedSource::new(1, events)),
        5,
    );
    net.run(6_000);
    assert!(net.is_drained(), "{} flits stuck", net.flits_in_network());
    assert_eq!(net.stats.recorder.delivered(), count);
    assert_eq!(net.stats.packets_dropped, 0);
    assert_eq!(net.stats.reconfigurations, 0);
    assert!(
        net.stats.flits_retransmitted > 0,
        "1% BER over {} flits exercised no retransmissions",
        net.stats.injected_flits
    );
    net.check_oracle_now();
    assert_eq!(
        net.stats.oracle_violation_count, 0,
        "{:?}",
        net.stats.oracle_violations
    );
}

/// A router death mid-run: traffic to/from the dead router is dropped and
/// accounted, everything else keeps flowing, and conservation (modulo the
/// ledger) holds throughout. Router kills force Strict mode.
#[test]
fn router_kill_degrades_gracefully() {
    let mut cfg = oracle_cfg();
    cfg.fault = FaultTimeline {
        transient_ber: 0.0,
        seed: 0,
        events: vec![ScheduledFault {
            cycle: 500,
            event: FaultEvent::RouterDown { router: 27 },
        }],
    };
    let (region, scenario) = two_app(&cfg, 1.0, 0.04, 0.15);
    let mut net = Network::new(
        cfg.clone(),
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        11,
    );
    net.run(2_500);
    net.check_oracle_now();
    assert_eq!(
        net.stats.oracle_violation_count, 0,
        "{:?}",
        net.stats.oracle_violations
    );
    assert_eq!(net.stats.reconfigurations, 1);
    assert_eq!(net.degraded_mode(), Some(DegradedMode::Strict));
    assert_eq!(
        net.stats.verify_violation_count, 0,
        "{:?}",
        net.stats.verify_violations
    );
    // The dead router's NI stops injecting, and packets addressed to it
    // are dropped (at generation or by the stranded sweep) — the ledger
    // must show that traffic loss.
    assert!(net.stats.packets_dropped > 0, "no drops recorded");
    // The rest of the mesh keeps delivering after the kill.
    let delivered_at_kill = net.stats.recorder.delivered();
    net.run(500);
    assert!(net.stats.recorder.delivered() > delivered_at_kill);
}

/// The NI active set under faults: a router death drops its NI's backlog
/// (`kill_node` leaves a mid-injection NI in the set) and the stranded
/// sweep re-queues extracted packets at their sources (`schedule_retry`
/// puts the NI back in the set). Polling every NI (the reference kernel) and
/// polling the set must simulate the same run — digest, packet drop and
/// retry counts, and the flit ledger (injected − ejected − in network) —
/// with the oracle recounting the set against NI state every cycle.
#[test]
fn router_kill_with_retries_is_identical_to_the_reference() {
    let run = |reference: bool| {
        let mut cfg = oracle_cfg();
        cfg.fault = FaultTimeline {
            transient_ber: 1e-3,
            seed: 3,
            events: vec![ScheduledFault {
                cycle: 500,
                event: FaultEvent::RouterDown { router: 27 },
            }],
        };
        // Loaded enough that packets are mid-transfer into the dying router.
        let (region, scenario) = two_app(&cfg, 1.0, 0.15, 0.15);
        let mut net = Network::new(
            cfg.clone(),
            region,
            Routing::Local.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            11,
        );
        if reference {
            net.run_reference(2_500);
        } else {
            net.run(2_500);
        }
        net.check_oracle_now();
        assert_eq!(
            net.stats.oracle_violation_count, 0,
            "{:?}",
            net.stats.oracle_violations
        );
        (
            net.stats.digest(),
            net.stats.packets_dropped,
            net.stats.packets_retried,
            net.stats.flits_retransmitted,
            (
                net.stats.injected_flits,
                net.stats.ejected_flits,
                net.flits_in_network(),
            ),
        )
    };
    let (fast, slow) = (run(false), run(true));
    assert_eq!(fast, slow, "production/reference divergence under faults");
    assert!(fast.1 > 0, "control: the kill dropped packets");
    assert!(fast.2 > 0, "control: the sweep scheduled retries");
}

/// The ISSUE acceptance run: transient CRC errors at 1e-3/flit-traversal
/// plus one permanent link kill mid-run. The run completes with zero
/// oracle violations, the degraded topology re-verifies deadlock-free,
/// and the delivered fraction stays >= 0.99.
#[test]
fn acceptance_ber_plus_link_kill() {
    let mut cfg = oracle_cfg();
    cfg.fault = FaultTimeline {
        transient_ber: 1e-3,
        seed: 0xBEEF,
        events: vec![ScheduledFault {
            cycle: 1_000,
            event: FaultEvent::LinkDown {
                router: 27,
                port: 2,
            },
        }],
    };
    let (region, scenario) = two_app(&cfg, 1.0, 0.04, 0.15);
    let mut net = Network::new(
        cfg.clone(),
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        0xC0FFEE,
    );
    net.run(4_000);
    net.check_oracle_now();
    assert_eq!(
        net.stats.oracle_violation_count, 0,
        "{:?}",
        net.stats.oracle_violations
    );
    assert_eq!(net.stats.reconfigurations, 1);
    assert_eq!(
        net.stats.verify_violation_count, 0,
        "degraded topology failed re-verification: {:?}",
        net.stats.verify_violations
    );
    assert!(
        net.stats.flits_retransmitted > 0,
        "BER 1e-3 exercised no retransmissions"
    );
    let delivered = net.stats.recorder.delivered();
    let lost = net.stats.packets_dropped;
    let fraction = delivered as f64 / (delivered + lost) as f64;
    assert!(
        fraction >= 0.99,
        "delivered fraction {fraction:.4} ({delivered} delivered, {lost} dropped)"
    );
}

/// The fault subsystem is deterministic: the same timeline and seeds
/// reproduce the same end-state digest, including retransmission counts,
/// drops, and reconfigurations.
#[test]
fn faulty_runs_are_deterministic() {
    let run = || {
        let mut cfg = SimConfig::table1();
        cfg.fault = FaultTimeline {
            transient_ber: 1e-3,
            seed: 7,
            events: vec![ScheduledFault {
                cycle: 300,
                event: FaultEvent::LinkDown {
                    router: 35,
                    port: 1,
                },
            }],
        };
        let (region, scenario) = two_app(&cfg, 0.5, 0.04, 0.15);
        let mut net = Network::new(
            cfg.clone(),
            region,
            Routing::Local.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            42,
        );
        net.run(1_200);
        (
            net.stats.digest(),
            net.stats.flits_retransmitted,
            net.stats.packets_dropped,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "faulty run is not reproducible");
    assert!(a.1 > 0, "control: the timeline must actually fire");
}
