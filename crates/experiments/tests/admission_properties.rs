//! Property-based coverage of the admission pipeline's witnesses.
//!
//! Positive side: random rectangular region maps over all four topology
//! kinds are admitted under the full RAIR scheme, and a short
//! oracle-watched simulation of each sampled configuration finishes with
//! zero checker violations (watchdog-clean) — the admitted region-map
//! space is safe in the kernel, not just in the abstraction.
//!
//! Negative side: the two pinned defect families reject with their exact
//! property name and a replayable witness trace, regardless of the
//! sampled region geometry.

use experiments::admit::{admit_cell, MATRIX_RATE, PROP_LBDR_CONFINEMENT};
use noc_sim::admit::{AdmitWitness, PROP_FEASIBILITY, PROP_PROGRESS};
use noc_sim::config::SimConfig;
use noc_sim::network::Network;
use noc_sim::oracle::OracleConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use proptest::prelude::*;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::{AppSpec, Scenario};

fn any_kind() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Mesh),
        Just(TopologyKind::Torus),
        Just(TopologyKind::Ring),
        Just(TopologyKind::CMesh { concentration: 4 }),
    ]
}

fn any_routing() -> impl Strategy<Value = Routing> {
    prop_oneof![Just(Routing::Xy), Just(Routing::Local), Just(Routing::Dbar)]
}

/// A random rectangular partition of `cfg`'s grid: a vertical cut (and,
/// when the grid has height, a horizontal one) split the chip into 2 or 4
/// rectangular regions, every one non-empty. `fx`/`fy` in [0,1) pick the
/// cut positions.
fn rect_region(cfg: &SimConfig, fx: f64, fy: f64) -> RegionMap {
    let sx = 1 + (fx * (cfg.width - 1) as f64) as u8;
    if cfg.height == 1 {
        return RegionMap::from_fn(cfg, 2, |c| u8::from(c.x >= sx));
    }
    let sy = 1 + (fy * (cfg.height - 1) as f64) as u8;
    RegionMap::from_fn(cfg, 4, |c| u8::from(c.x >= sx) + 2 * u8::from(c.y >= sy))
}

fn low_specs(region: &RegionMap) -> Vec<Option<AppSpec>> {
    (0..region.num_apps())
        .map(|_| Some(AppSpec::intra_only(MATRIX_RATE)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every random rectangular region map on every topology kind is
    /// admitted under RAIR with a finite wait bound — except that on a
    /// wrapping topology LBDR confinement may reject it with a route
    /// witness, since a minimal path between two routers of a region wider
    /// than half the ring can wrap through a neighbor region — and a short
    /// oracle-watched run of exactly that configuration stays clean.
    #[test]
    fn random_rect_regions_admit_and_run_watchdog_clean(
        kind in any_kind(),
        routing in any_routing(),
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let mut cfg = SimConfig::table1_topology(kind);
        let region = rect_region(&cfg, fx, fy);
        let specs = low_specs(&region);
        let adm = admit_cell(&cfg, &region, &Scheme::rair(), routing, &specs);
        match adm.rejection() {
            Some(rej) if cfg.topology.wraps() => {
                prop_assert_eq!(rej.property, PROP_LBDR_CONFINEMENT, "{}", rej.detail);
                prop_assert!(matches!(rej.witness, Some(AdmitWitness::Route(_))));
            }
            rej => prop_assert!(
                rej.is_none(),
                "rejected: {:?}",
                rej.map(|p| (p.property, p.detail.clone()))
            ),
        }
        prop_assert!(adm.wait_bound().is_some(), "admitted without a bound");

        // Watchdog-clean: the full oracle checker set observes a short
        // run of the admitted configuration.
        cfg.oracle = OracleConfig::forced();
        let scenario = Scenario::new(&cfg, &region, specs);
        let mut net = Network::new(
            cfg.clone(),
            region,
            routing.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            seed,
        );
        net.run(256);
        prop_assert_eq!(
            net.stats.oracle_violation_count,
            0,
            "oracle violations: {:?}",
            net.stats.oracle_violations.first().map(|v| v.detail.clone())
        );
    }

    /// Pinned negative: the foreign-over-native priority inversion is
    /// rejected for *every* sampled rectangular region and topology, with
    /// the progress property named and a replayable lasso trace.
    #[test]
    fn priority_inversion_rejects_with_lasso_everywhere(
        kind in any_kind(),
        routing in any_routing(),
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let cfg = SimConfig::table1_topology(kind);
        let region = rect_region(&cfg, fx, fy);
        let adm = admit_cell(&cfg, &region, &Scheme::rair_foreign_high(), routing, &low_specs(&region));
        prop_assert!(!adm.is_admitted());
        let rej = adm.rejection().expect("a rejecting property");
        prop_assert_eq!(rej.property, PROP_PROGRESS);
        let Some(AdmitWitness::Lasso { stem, cycle, .. }) = &rej.witness else {
            panic!("expected lasso, got {:?}", rej.witness);
        };
        // Replayable: the stem leads into a non-empty repeating cycle in
        // which the native class always holds the lower priority.
        prop_assert!(!cycle.is_empty());
        for s in stem.iter().chain(cycle.iter()) {
            prop_assert!(s.native_prio < s.foreign_prio);
        }
    }

    /// Pinned negative: over-subscribing one region's offered load is
    /// rejected for every sampled rectangle, with the feasibility
    /// property named and the overloaded channel in the witness.
    #[test]
    fn over_subscription_rejects_with_overload_everywhere(
        kind in any_kind(),
        routing in any_routing(),
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
        hot in 0usize..4,
    ) {
        let cfg = SimConfig::table1_topology(kind);
        let region = rect_region(&cfg, fx, fy);
        let hot = hot % region.num_apps();
        let specs: Vec<Option<AppSpec>> = (0..region.num_apps())
            .map(|a| {
                let rate = if a == hot { 1.5 } else { MATRIX_RATE };
                Some(AppSpec::intra_only(rate))
            })
            .collect();
        let adm = admit_cell(&cfg, &region, &Scheme::rair(), routing, &specs);
        prop_assert!(!adm.is_admitted(), "over-subscription admitted");
        let rej = adm.rejection().expect("a rejecting property");
        prop_assert_eq!(rej.property, PROP_FEASIBILITY);
        let Some(AdmitWitness::Overload { link, offered }) = &rej.witness else {
            panic!("expected overload, got {:?}", rej.witness);
        };
        prop_assert!(!link.is_empty());
        prop_assert!(*offered > 1.0);
    }
}
