//! End-to-end tests of the static deadlock-freedom verifier through the
//! public API: injected-fault configurations produce the expected concrete
//! witnesses, `Network::new` enforces the verdict, and — the theorem the
//! verifier exists to discharge — statically verified configurations never
//! trip the runtime deadlock watchdog, across randomized region maps,
//! schemes and loads. Every figure cell's admission verdict is pinned here
//! too: network construction does not consult admission.

use experiments::admit::{admit_cell, MixedDorEscape};
use experiments::figs::{ablation, curve, fig12, fig14, fig15, fig17, fig9, Cell};
use experiments::runner::ExpConfig;
use noc_sim::ids::{PORT_EAST, PORT_WEST};
use noc_sim::network::Network;
use noc_sim::prelude::*;
use proptest::prelude::*;
use rair::prelude::*;
use traffic::prelude::*;

#[test]
fn escape_vcs_disabled_yields_a_cycle_witness() {
    let cfg = SimConfig::table1();
    let report = Verifier::new(&cfg, &DuatoLocalAdaptive)
        .without_escape()
        .run();
    assert!(!report.ok());
    let cycle = report
        .violations
        .iter()
        .find_map(|v| match &v.witness {
            Witness::Cycle(c) => Some(c.clone()),
            _ => None,
        })
        .expect("expected a concrete cycle witness");
    // A genuine cycle: at least 4 distinct channels (the smallest turn
    // cycle in a mesh); the closing edge back to the first is implicit.
    assert!(cycle.len() >= 4, "cycle too short: {cycle:?}");
    let distinct: std::collections::BTreeSet<_> = cycle.iter().collect();
    assert_eq!(distinct.len(), cycle.len(), "repeated channel: {cycle:?}");
}

#[test]
fn torus_without_datelines_yields_a_wrap_cycle_witness() {
    // The torus control of `repro admit`: correct minimal
    // dimension-order escape, but every packet pinned to dateline lane 0 —
    // the wraparound link closes the lane-0 channel ring and the verifier
    // must extract that cycle.
    let case = experiments::admit::no_dateline_case(TopologyKind::Torus);
    assert!(case.caught, "no-dateline torus escape was not rejected");
    assert!(!case.witness.is_empty(), "no witness extracted");

    let cfg = SimConfig::table1_topology(TopologyKind::Torus);
    let report = Verifier::new(&cfg, &experiments::admit::NoDatelineEscape).run();
    assert!(!report.ok());
    let cycle = report
        .violations
        .iter()
        .find_map(|v| match &v.witness {
            Witness::Cycle(c) => Some(c.clone()),
            _ => None,
        })
        .expect("expected a concrete cycle witness");
    // The deadlock lives on the un-switched lane: every channel in the
    // witness is a lane-0 escape channel.
    assert!(cycle.len() >= 3, "cycle too short: {cycle:?}");
    assert!(
        cycle.iter().all(|ch| ch.lane == 0),
        "cycle must stay on lane 0: {cycle:?}"
    );
    // Sanity: the properly datelined escape on the same config is clean.
    let clean = Verifier::new(&cfg, &DuatoLocalAdaptive).run();
    assert!(clean.ok(), "{:?}", clean.violations.first());
}

#[test]
fn severed_dimension_yields_unreachable_pairs() {
    let cfg = SimConfig::table1();
    let report = Verifier::new(&cfg, &DuatoLocalAdaptive)
        .with_link_filter(|router, port| {
            let c = SimConfig::table1().coord_of(router);
            !((c.x == 3 && port == PORT_EAST) || (c.x == 4 && port == PORT_WEST))
        })
        .run();
    assert!(!report.ok());
    assert!(report.violations.iter().any(|v| matches!(
        v.witness,
        Witness::UnreachablePair { .. } | Witness::NoEscape { .. }
    )));
}

#[test]
fn inconsistent_lbdr_bits_are_rejected() {
    let cfg = SimConfig::table1();
    let mut bits = rair::lbdr::ConnectivityBits::from_region(&cfg, &RegionMap::quadrants(&cfg));
    assert!(
        bits.check_consistency(&cfg).is_empty(),
        "clean before fault"
    );
    // Sever an intra-region link (router 0 → router 1 inside quadrant 0):
    // region boundaries are already cleared symmetrically, so the fault
    // must hit an interior link to create an asymmetry.
    bits.sever(0, PORT_EAST);
    let errs = bits.check_consistency(&cfg);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(errs[0].contains("asymmetric"), "{}", errs[0]);
}

/// A config with the oracle, and with it the verifier, force-enabled and
/// recording (not panicking).
fn verified_cfg() -> SimConfig {
    let mut cfg = SimConfig::table1();
    cfg.oracle = OracleConfig::forced();
    cfg
}

#[test]
#[should_panic(expected = "static verifier")]
fn network_new_panics_on_a_cyclic_routing_function() {
    let mut cfg = SimConfig::table1();
    cfg.oracle = OracleConfig {
        enabled: Some(true),
        panic_on_violation: Some(true),
        ..OracleConfig::default()
    };
    let region = RegionMap::single(&cfg);
    let _net = Network::new(
        cfg.clone(),
        region,
        Box::new(MixedDorEscape),
        Scheme::RoRr.build(),
        Box::new(NoTraffic),
        1,
    );
}

#[test]
fn network_new_records_violations_when_panic_disabled() {
    let cfg = verified_cfg();
    let region = RegionMap::single(&cfg);
    let net = Network::new(
        cfg.clone(),
        region,
        Box::new(MixedDorEscape),
        Scheme::RoRr.build(),
        Box::new(NoTraffic),
        1,
    );
    assert!(net.stats.verify_violation_count > 0);
    assert!(net
        .stats
        .verify_violations
        .iter()
        .any(|v| matches!(v.witness, Witness::Cycle(_))));
}

#[test]
fn network_new_skips_the_verifier_when_the_oracle_is_off() {
    // In every build profile: an explicit `enabled: Some(false)` switches
    // the static verifier off with the oracle, so even a cyclic routing
    // function builds and nothing is recorded.
    let mut cfg = SimConfig::table1();
    cfg.oracle = OracleConfig {
        enabled: Some(false),
        ..OracleConfig::default()
    };
    let region = RegionMap::single(&cfg);
    let net = Network::new(
        cfg.clone(),
        region,
        Box::new(MixedDorEscape),
        Scheme::RoRr.build(),
        Box::new(NoTraffic),
        1,
    );
    assert!(!net.oracle_enabled());
    assert_eq!(net.stats.verify_violation_count, 0);
    assert!(net.stats.verify_violations.is_empty());
}

#[test]
fn shipped_routings_verify_clean_through_network_new() {
    let cfg = verified_cfg();
    for routing in Routing::ALL {
        let (region, scenario) = two_app(&cfg, 0.5, 0.02, 0.02);
        let net = Network::new(
            cfg.clone(),
            region,
            routing.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            1,
        );
        assert_eq!(
            net.stats.verify_violation_count,
            0,
            "{}: {:?}",
            routing.label(),
            net.stats.verify_violations
        );
    }
}

/// Every cell the figures simulate, at pinned rates, through the one
/// admission gate with no operating point (feasibility is vacuous): all are
/// admitted but the two named ablations, each by the property it is built
/// to violate. EXPERIMENTS.md names the same list.
#[test]
fn every_figure_cell_is_admitted_but_the_named_ablations() {
    const REJECTED: [(&str, &str); 2] = [
        // Fig. 12's frozen foreign-high DPA bit: a native request can lose
        // every future arbitration.
        ("RAIR_ForeignH", "progress"),
        // The ablation's zero-width hysteresis, outside (0, 1).
        ("RAIR d=0", "scheme-parameters"),
    ];
    let six = [0.072, 0.675, 0.253, 0.169, 0.18, 0.675];
    let mut cells: Vec<Cell> = fig9::cells(&fig9::p_values(&ExpConfig::full()), (0.035, 0.33));
    for variant in [fig12::Variant::A, fig12::Variant::B] {
        cells.extend(fig12::cells(variant, 0.033, 0.59));
    }
    for (_, global) in fig15::patterns() {
        cells.extend(fig14::cells(six, &global));
    }
    cells.extend(fig17::cells(fig17::ADVERSARIAL_RATE));
    cells.extend(ablation::cells(six));
    for pattern in [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::BitComplement,
    ] {
        cells.extend(curve::cells(&pattern, 0.6, 12));
    }
    assert_eq!(cells.len(), 55 + 8 + 16 + 8 + 13 + 36);
    let mut seen = Vec::new();
    for cell in &cells {
        let (cfg, region, _source) = (cell.build)();
        let adm = admit_cell(&cfg, &region, &cell.scheme, cell.routing, &[]);
        let want = REJECTED.iter().find(|(label, _)| *label == cell.label);
        let got = adm.rejection().map(|p| p.property);
        assert_eq!(got, want.map(|w| w.1), "{}: {adm}", cell.label);
        if let Some(p) = adm.rejection() {
            assert!(p.witness.is_some(), "{}: {p}", cell.label);
            seen.push(cell.label.as_str());
        }
    }
    assert_eq!(seen, ["RAIR_ForeignH", "RAIR_ForeignH", "RAIR d=0"]);
}

fn any_routing() -> impl Strategy<Value = Routing> {
    prop_oneof![Just(Routing::Xy), Just(Routing::Local), Just(Routing::Dbar)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any rectangular partition of the mesh (random vertical and
    /// horizontal cuts → four quadrant regions) verifies clean under LBDR
    /// confinement: rectangles are convex under minimal routing, so every
    /// in-region pair keeps a legal minimal path and the confined escape
    /// CDG stays acyclic.
    #[test]
    fn random_rectangular_region_maps_verify_under_lbdr(
        xcut in 1u8..8,
        ycut in 1u8..8,
        routing in any_routing(),
    ) {
        let cfg = SimConfig::table1();
        let region = RegionMap::from_fn(&cfg, 4, |c| {
            u8::from(c.x >= xcut) + 2 * u8::from(c.y >= ycut)
        });
        let report = rair::verify::verify_lbdr(&cfg, &region, routing.build().as_ref());
        prop_assert!(
            report.ok(),
            "cuts ({xcut},{ycut}) {}: {:?}",
            routing.label(),
            report.violations.first()
        );
        prop_assert!(report.pairs_checked > 0);
    }

    /// The verifier's soundness contract at runtime: a configuration the
    /// static pass proves clean never trips the oracle's deadlock-livelock
    /// watchdog in simulation.
    #[test]
    fn verified_configs_never_trip_the_deadlock_watchdog(
        routing in any_routing(),
        p in 0.0f64..=1.0,
        r0 in 0.01f64..0.12,
        r1 in 0.01f64..0.3,
        seed in 0u64..1000,
    ) {
        let mut cfg = verified_cfg();
        cfg.oracle = OracleConfig {
            enabled: Some(true),
            panic_on_violation: Some(false),
            check_interval: 1,
            stall_horizon: 2_000,
            ..OracleConfig::default()
        };
        let (region, scenario) = two_app(&cfg, p, r0, r1);
        let mut net = Network::new(
            cfg.clone(),
            region,
            routing.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            seed,
        );
        prop_assert_eq!(net.stats.verify_violation_count, 0);
        net.run(3_000);
        net.check_oracle_now();
        let deadlocks = net
            .stats
            .oracle_violations
            .iter()
            .filter(|v| v.checker == "deadlock-livelock")
            .count();
        prop_assert_eq!(deadlocks, 0, "watchdog fired on a verified config");
    }
}
