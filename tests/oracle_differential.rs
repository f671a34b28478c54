//! Differential tests of the invariant oracle: seeded fault-injection
//! mutators corrupt one protocol rule each, and the test asserts the
//! corresponding checker — and only a relevant checker — catches it. The
//! four `inject_fault` controls (drop-credit, duplicate, misroute,
//! miscount-hops) run on every canonical topology, since each reads the
//! topology's links and hop functions. The final test runs the *unmutated* kernel across the scheme × routing
//! × load matrix with per-cycle checking and asserts zero violations, so
//! the mutators prove detection power and the matrix proves a clean kernel.

use noc_sim::ids::NUM_PORTS;
use noc_sim::network::Network;
use noc_sim::prelude::*;
use rair::prelude::*;
use std::collections::HashSet;
use traffic::prelude::*;

/// Table 1 config of `kind` with the oracle force-enabled, recording (not
/// panicking) and checking every cycle.
fn oracle_cfg(kind: TopologyKind, stall_horizon: u64) -> SimConfig {
    let mut cfg = SimConfig::table1_topology(kind);
    cfg.oracle = OracleConfig {
        enabled: Some(true),
        panic_on_violation: Some(false),
        check_interval: 1,
        stall_horizon,
        ..OracleConfig::default()
    };
    cfg
}

/// A two-application network under moderate load (plenty of in-flight
/// state for the mutators to corrupt).
fn loaded_net(cfg: &SimConfig, seed: u64) -> Network {
    let (region, scenario) = two_app(cfg, 0.5, 0.05, 0.2);
    Network::new(
        cfg.clone(),
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        seed,
    )
}

/// Try `mk(router, port, vc)` over every slot until one applies.
fn inject_anywhere(net: &mut Network, mk: impl Fn(usize, Port, usize) -> Fault) -> bool {
    let v = net.cfg.vcs_per_port();
    for router in 0..net.cfg.num_routers() {
        for port in 0..NUM_PORTS {
            for vc in 0..v {
                if net.inject_fault(mk(router, port, vc)) {
                    return true;
                }
            }
        }
    }
    false
}

/// A loaded network of `kind`, ticked until `mk` applies to some slot (at
/// most `cycles` ticks).
fn mutated(
    kind: TopologyKind,
    seed: u64,
    cycles: u32,
    mk: impl Fn(usize, Port, usize) -> Fault,
) -> Network {
    let mut net = loaded_net(&oracle_cfg(kind, 25_000), seed);
    let injected = (0..cycles).any(|_| {
        net.tick();
        inject_anywhere(&mut net, &mk)
    });
    let fault = mk(0, 0, 0);
    assert!(
        injected,
        "{kind:?}: no slot for {fault:?} in {cycles} cycles"
    );
    net
}

/// Names of the checkers that recorded at least one violation.
fn checkers_hit(net: &Network) -> HashSet<&'static str> {
    net.stats
        .oracle_violations
        .iter()
        .map(|v| v.checker)
        .collect()
}

#[test]
fn dropped_credit_caught_by_credit_conservation() {
    for kind in TopologyKind::CANONICAL {
        let mut net = loaded_net(&oracle_cfg(kind, 25_000), 7);
        net.run(300);
        assert_eq!(
            net.stats.oracle_violation_count, 0,
            "{kind:?}: clean before fault"
        );
        assert!(
            inject_anywhere(&mut net, |router, port, vc| Fault::DropCredit {
                router,
                port,
                vc
            }),
            "{kind:?}: no slot with a credit to drop after 300 loaded cycles"
        );
        assert!(net.check_oracle_now() > 0, "{kind:?}");
        let hit = checkers_hit(&net);
        assert!(hit.contains("credit-conservation"), "{kind:?} hit: {hit:?}");
    }
}

#[test]
fn duplicated_flit_caught_by_wormhole_or_conservation() {
    for kind in TopologyKind::CANONICAL {
        let mut net = mutated(kind, 11, 500, |router, port, vc| Fault::DuplicateFlit {
            router,
            port,
            vc,
        });
        // Check without ticking: the phantom copy sits on the link
        // (in-flight), so the conservation scan already sees one more flit
        // than was injected.
        assert!(net.check_oracle_now() > 0, "{kind:?}");
        let hit = checkers_hit(&net);
        assert!(
            hit.contains("wormhole-contiguity") || hit.contains("flit-conservation"),
            "{kind:?} hit: {hit:?}"
        );
        // The replay pays a real upstream credit, so credit accounting
        // stays coherent — the duplicate must be caught as a protocol-level
        // phantom, not as a credit-bookkeeping discrepancy.
        assert!(
            !hit.contains("credit-conservation"),
            "{kind:?}: duplicate bypassed credit accounting: {hit:?}"
        );
    }
}

/// A body flit of another packet written behind a buffered, non-tail flit:
/// sequence number and kind continue the holder's packet, only the packet
/// (its id and its handle in the packet table) differs. Every buffered flit
/// keeps its own handle, so the one-packet-per-VC rule of atomic VCs
/// catches it.
#[test]
fn second_packet_in_a_vc_caught_by_wormhole_contiguity() {
    let mut net = loaded_net(&oracle_cfg(TopologyKind::Mesh, 25_000), 19);
    let depth = net.cfg.vc_depth;
    let mut injected = false;
    'run: for _ in 0..500 {
        net.tick();
        for r in &mut net.routers {
            for port in 0..NUM_PORTS {
                for vc in 0..net.cfg.vcs_per_port() {
                    let ivc = r.ivc(r.slot(port, vc));
                    let Some(back) = ivc.back(&net.packets).filter(|b| !b.kind.is_tail()) else {
                        continue;
                    };
                    if ivc.len() == depth {
                        continue;
                    }
                    let other = PacketInfo {
                        id: back.info.id + (1 << 40),
                        ..back.info
                    };
                    let packet = net.packets.insert(other);
                    let flit = Flit::nth(other, back.seq + 1);
                    r.push_flit(r.slot(port, vc), RingFlit::of(&flit, packet));
                    injected = true;
                    break 'run;
                }
            }
        }
    }
    assert!(injected, "no buffered non-tail flit with room behind it");
    assert!(net.check_oracle_now() > 0);
    let caught = net
        .stats
        .oracle_violations
        .iter()
        .any(|v| v.checker == "wormhole-contiguity" && v.detail.contains("in a VC held by"));
    assert!(caught, "hit: {:?}", net.stats.oracle_violations);
}

/// A body or tail flit on a link whose hop count disagrees with the one its
/// packet's VC downstream keeps. The count moved from each flit to the VC,
/// and wormhole contiguity guards the move; no counter changes.
#[test]
fn miscounted_hops_caught_by_wormhole_contiguity() {
    for kind in TopologyKind::CANONICAL {
        let mut net = mutated(kind, 23, 500, |router, port, vc| Fault::MiscountHops {
            router,
            port,
            vc,
        });
        // Check without ticking: the edited record is still on the link.
        assert!(net.check_oracle_now() > 0, "{kind:?}");
        let caught = net
            .stats
            .oracle_violations
            .iter()
            .any(|v| v.checker == "wormhole-contiguity" && v.detail.contains("hops"));
        assert!(caught, "{kind:?} hit: {:?}", net.stats.oracle_violations);
        let hit = checkers_hit(&net);
        assert!(
            !hit.contains("flit-conservation") && !hit.contains("credit-conservation"),
            "{kind:?}: a hop count perturbed accounting: {hit:?}"
        );
    }
}

#[test]
fn misrouted_flit_caught_by_routing_legality() {
    for kind in TopologyKind::CANONICAL {
        let mut net = mutated(kind, 13, 800, |router, port, vc| Fault::MisrouteFlit {
            router,
            port,
            vc,
        });
        let clean = net.stats.oracle_violation_count;
        assert_eq!(clean, 0, "{kind:?}: clean before arrival");
        // The misrouted flit lands next cycle; the arrival hook flags the
        // unproductive hop at end of that same tick.
        net.tick();
        let hit = checkers_hit(&net);
        assert!(hit.contains("routing-legality"), "{kind:?} hit: {hit:?}");
    }
}

#[test]
fn frozen_arbiter_caught_by_deadlock_watchdog() {
    // One scripted packet whose router is frozen before it can ever win
    // switch allocation: the network makes no progress while the flits sit
    // in the injection VC, so the global no-progress watchdog fires.
    let cfg = oracle_cfg(TopologyKind::Mesh, 400);
    let pkt = NewPacket {
        dst: 9,
        app: 0,
        class: 0,
        size: 4,
        reply: None,
    };
    let mut net = Network::new(
        cfg.clone(),
        RegionMap::single(&cfg),
        Routing::Local.build(),
        Scheme::RoRr.build(),
        Box::new(ScriptedSource::new(1, vec![(10, 0, pkt)])),
        3,
    );
    assert!(net.inject_fault(Fault::FreezeRouter { router: 0 }));
    net.run(1_500);
    assert!(net.flits_in_network() > 0, "flits should be stuck");
    assert!(
        checkers_hit(&net).contains("deadlock-livelock"),
        "hit: {:?}",
        checkers_hit(&net)
    );
}

#[test]
fn unmutated_kernel_is_violation_free_across_matrix() {
    let cfg = oracle_cfg(TopologyKind::Mesh, 25_000);
    let schemes = [
        Scheme::RoRr,
        Scheme::RoAge,
        Scheme::ro_rank(vec![0.1, 0.3]),
        Scheme::rair(),
    ];
    let loads = [(0.2, 0.02, 0.05), (1.0, 0.08, 0.3)];
    for scheme in &schemes {
        for routing in Routing::ALL {
            for (p, r0, r1) in loads {
                let (region, scenario) = two_app(&cfg, p, r0, r1);
                let mut net = Network::new(
                    cfg.clone(),
                    region,
                    routing.build(),
                    scheme.build(),
                    Box::new(scenario),
                    0xC0FFEE,
                );
                net.run(2_000);
                net.check_oracle_now();
                assert_eq!(
                    net.stats.oracle_violation_count,
                    0,
                    "{}/{} p={p}: {:?}",
                    scheme.label(),
                    routing.label(),
                    net.stats.oracle_violations
                );
                assert!(net.stats.ejected_flits > 0, "matrix cell moved no traffic");
            }
        }
    }
}
