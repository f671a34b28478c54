//! Cross-validation of the analytical model against the simulator. CI runs
//! this in release under `RAIR_ORACLE=1` so every probe simulation executed
//! here is also oracle-checked.

use model::{predict_app_saturation, warm_hint, RoutingKind};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use rair::scheme::Routing;
use traffic::saturation::{app_saturation_traced, SaturationProbe};
use traffic::scenario::AppSpec;

fn kind_of(r: Routing) -> RoutingKind {
    match r {
        Routing::Xy => RoutingKind::DimensionOrder,
        _ => RoutingKind::Adaptive,
    }
}

/// A deliberately short probe for the identity matrix: bit-identity of the
/// warm-started search must hold for *any* probe, including one the model
/// was never calibrated against (short windows shift the measured loads,
/// exercising both the accepted and the rejected/fallback paths).
fn mini_probe() -> SaturationProbe {
    SaturationProbe {
        warmup: 300,
        measure: 1_200,
        iters: 4,
        ..SaturationProbe::default()
    }
}

/// The headline warm-start invariant on real networks: across routings and
/// topologies, the warm-started search returns the bit-identical load of
/// the cold one — golden digests cannot depend on the model.
#[test]
fn warm_and_cold_searches_are_bit_identical_across_routing_and_topology() {
    let probe = mini_probe();
    let mut cases: Vec<(SimConfig, Routing)> = [Routing::Local, Routing::Xy, Routing::Dbar]
        .into_iter()
        .map(|r| (SimConfig::table1(), r))
        .collect();
    for kind in [
        TopologyKind::Torus,
        TopologyKind::Ring,
        TopologyKind::CMesh { concentration: 4 },
    ] {
        cases.push((SimConfig::table1_topology(kind), Routing::Local));
    }
    for (cfg, routing) in cases {
        let region = RegionMap::halves(&cfg);
        let spec = AppSpec::intra_only(0.0);
        let hint = warm_hint(&cfg, &region, 0, &spec, kind_of(routing));
        assert!(
            hint.is_some(),
            "model declined a hint on {}/{routing:?}",
            cfg.topology.label()
        );
        let cold = app_saturation_traced(&probe, &cfg, &region, 0, &spec, None, || routing.build());
        let warm = app_saturation_traced(&probe, &cfg, &region, 0, &spec, hint, || routing.build());
        assert_eq!(
            warm.load.to_bits(),
            cold.load.to_bits(),
            "warm diverged on {}/{routing:?} ({:?}): {} vs {}",
            cfg.topology.label(),
            warm.warm,
            warm.load,
            cold.load
        );
    }
}

/// Pinned accuracy bound on the paper's Table-1 regionalizations. The
/// full-probe calibration error on these configs is well under 0.08
/// relative; the quick probe used here measures slightly higher loads, so
/// the pin is 0.15 — tight enough to catch a broken load map or a
/// miscalibrated efficiency, loose enough to survive probe-length shifts.
#[test]
fn predicted_saturation_tracks_the_simulator_on_table1_configs() {
    let probe = SaturationProbe::quick();
    let cfg = SimConfig::table1();
    let spec = AppSpec::intra_only(0.0);
    for (label, region, app) in [
        ("halves", RegionMap::halves(&cfg), 0u8),
        ("quadrants", RegionMap::quadrants(&cfg), 0u8),
    ] {
        let pred = predict_app_saturation(&cfg, &region, app, &spec, RoutingKind::Adaptive)
            .expect("model must predict Table-1 configs")
            .load;
        let measured = app_saturation_traced(&probe, &cfg, &region, app, &spec, None, || {
            Routing::Local.build()
        })
        .load;
        let rel = (pred - measured) / measured;
        assert!(
            rel.abs() < 0.15,
            "{label}: predicted {pred:.4} vs measured {measured:.4} (rel {rel:+.3})"
        );
    }
}
