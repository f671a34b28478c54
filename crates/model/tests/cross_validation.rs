//! Cross-validation on real networks: the saturation search against its
//! bisection twin, and the model's unit-capacity saturation bound against
//! the simulator. CI runs this in release under `RAIR_ORACLE=1` so every
//! probe simulation executed here is also oracle-checked.

use model::{predict_app_saturation, warm_hint, RoutingKind, SCREEN_MARGIN};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use rair::scheme::Routing;
use std::collections::BTreeMap;
use traffic::pattern::Pattern;
use traffic::saturation::{
    app_saturation, app_saturation_traced, app_stability, search_saturation, SaturationProbe,
};
use traffic::scenario::{AppSpec, InterDest};

/// The twin: a plain interval-halving search that keeps one bit of every
/// probe. Returns the load and the number of probes.
fn bisect_twin(iters: u32, max_rate: f64, mut stable: impl FnMut(f64) -> bool) -> (f64, u32) {
    if stable(max_rate) {
        return (max_rate, 1);
    }
    let (mut lo, mut hi) = (0.0_f64, max_rate);
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if stable(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, iters + 1)
}

/// A deliberately short probe for the identity matrix: landing on the
/// twin's cell must hold for *any* probe, including windows so short that
/// the backlog estimate is noisy.
fn mini_probe() -> SaturationProbe {
    SaturationProbe {
        warmup: 300,
        measure: 1_200,
        iters: 4,
    }
}

/// The model's routing class for a routing algorithm.
fn kind_of(routing: Routing) -> RoutingKind {
    match routing {
        Routing::Xy => RoutingKind::DimensionOrder,
        _ => RoutingKind::Adaptive,
    }
}

/// The headline invariant on real networks: across routings and
/// topologies the extrapolating search returns the bit-identical load of
/// the plain bisection, with and without the model's bound placing its
/// first probe — golden digests cannot depend on where the search chose to
/// probe.
#[test]
fn search_and_bisection_twin_are_bit_identical_across_routing_and_topology() {
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
        let mut oracle = app_stability(&probe, &cfg, &region, 0, &spec, || routing.build());
        let (twin, _) = bisect_twin(probe.iters, 1.0, |r| oracle(r).0);
        let bound = warm_hint(&cfg, &region, 0, &spec, kind_of(routing));
        assert!(bound.is_some(), "{}: no bound", cfg.topology.label());
        for hint in [None, bound] {
            let found =
                app_saturation_traced(&probe, &cfg, &region, 0, &spec, hint, || routing.build());
            assert_eq!(
                found.load.to_bits(),
                twin.to_bits(),
                "search diverged on {}/{routing:?} (bound {:?}): {} vs {}",
                cfg.topology.label(),
                hint.map(|h| h.predicted),
                found.load,
                twin
            );
            assert!(found.simulations <= 2 * probe.iters + 3);
        }
    }
}

/// The eight curves `repro --quick all` searches, with the loads its cache
/// holds and the most stability probes the bound-placed search may take:
/// Table 1's two regionalizations and the six applications of Fig. 14
/// under the 75/20/5 mix.
fn production_curves() -> Vec<(String, RegionMap, u8, AppSpec, f64, u32)> {
    let cfg = SimConfig::table1();
    let mix = AppSpec {
        rate_flits: 0.0,
        intra: 0.75,
        inter: 0.20,
        inter_dest: InterDest::OutsideUniform,
        mc: 0.05,
    };
    let intra = AppSpec::intra_only(0.0);
    let mut curves = vec![
        (
            "halves/intra".to_string(),
            RegionMap::halves(&cfg),
            0,
            intra.clone(),
            0.375,
            3,
        ),
        (
            "quadrants/intra".to_string(),
            RegionMap::quadrants(&cfg),
            0,
            intra,
            0.65625,
            3,
        ),
    ];
    let six = [
        (0.71875, 3),
        (0.75, 2),
        (0.84375, 2),
        (0.84375, 2),
        (0.71875, 3),
        (0.75, 2),
    ];
    for (app, (load, pin)) in six.into_iter().enumerate() {
        curves.push((
            format!("six/mix/app{app}"),
            RegionMap::six_regions(&cfg),
            app as u8,
            mix.clone(),
            load,
            pin,
        ));
    }
    curves
}

/// Release-mode audit of the premise and the economics of the search on
/// the production curves (8 × 33 quick-probe simulations; CI's `model` job
/// runs it with `--include-ignored`). Premise: each curve is monotone over
/// the whole 1/32 grid, so "`lo` stable, `lo + 1` unstable" names one cell.
/// Identity: the search, its first probe placed one cell under the model's
/// unit-capacity bound as `cached_saturation` places it, lands on the
/// twin's cell, which is the load the cache has always held. Economics,
/// pinned as counts: each curve takes at most its pin (together 20; the
/// max-rate-first search took 29), Fig. 14's six searches at most 14
/// stability probes (max-rate-first: 20, the twin: 36), and no curve costs
/// more than one probe over the twin.
#[test]
#[ignore = "release-mode audit: 8 curves x 33 quick-probe simulations"]
fn production_curves_are_monotone_and_searched_in_fewer_probes() {
    let probe = SaturationProbe::quick();
    let cfg = SimConfig::table1();
    let cells = 1u32 << probe.iters;
    let mut six_app_probes = 0;
    for (label, region, app, spec, cached, pin) in production_curves() {
        let mut oracle =
            app_stability(&probe, &cfg, &region, app, &spec, || Routing::Local.build());
        // Every grid point once; the twin and the search both read the map.
        let grid: BTreeMap<u64, (bool, f64)> = (1..=cells)
            .map(|k| f64::from(k) / f64::from(cells))
            .map(|rate| (rate.to_bits(), oracle(rate)))
            .collect();
        let stable: Vec<bool> = grid.values().map(|&(s, _)| s).collect();
        assert_eq!(
            stable.windows(2).filter(|w| w[0] != w[1]).count(),
            1,
            "{label}: stability is not monotone over the grid"
        );
        let (twin, twin_probes) = bisect_twin(probe.iters, 1.0, |r| grid[&r.to_bits()].0);
        let bound = warm_hint(&cfg, &region, app, &spec, RoutingKind::Adaptive)
            .expect("every production curve offers traffic")
            .predicted;
        let mut sequence = Vec::new();
        let (load, probes) = search_saturation(probe.iters, 1.0, Some(bound), |r| {
            sequence.push((r * f64::from(cells)) as u32);
            grid[&r.to_bits()]
        });
        println!(
            "{label}: bound at cell {:.2}, {sequence:?} ({probes} probes, twin {twin_probes})",
            bound * f64::from(cells)
        );
        assert_eq!(load.to_bits(), twin.to_bits(), "{label}: {sequence:?}");
        assert_eq!(load, cached, "{label}: not the load production caches");
        assert!(probes <= twin_probes + 1, "{label}: {sequence:?}");
        assert!(probes <= pin, "{label}: {sequence:?} over its pin {pin}");
        if label.starts_with("six/") {
            six_app_probes += probes;
        }
    }
    assert!(
        six_app_probes <= 14,
        "Fig. 14 searches: {six_app_probes} probes"
    );
}

/// The audit's thirteen configurations: three routings on Table 1's
/// halves, quadrants, two Fig. 14 apps, chip-wide
/// uniform/transpose/bit-complement/hotspot traffic, and halves on the
/// torus, the ring and the concentrated mesh.
fn audit_matrix() -> Vec<(String, SimConfig, RegionMap, u8, AppSpec, Routing)> {
    let mesh = SimConfig::table1();
    let intra = AppSpec::intra_only(0.0);
    let mix = AppSpec {
        rate_flits: 0.0,
        intra: 0.75,
        inter: 0.20,
        inter_dest: InterDest::OutsideUniform,
        mc: 0.05,
    };
    let pat = |p: Pattern| AppSpec::with_inter(0.0, 1.0, InterDest::Pattern(p));
    let hotspot = Pattern::Hotspot {
        spots: Pattern::center_hotspots(&mesh),
        bias: 0.3,
    };
    let mut cases = Vec::new();
    for routing in [Routing::Local, Routing::Xy, Routing::Dbar] {
        let label = format!("halves/intra/{}", routing.label());
        let region = RegionMap::halves(&mesh);
        cases.push((label, mesh.clone(), region, 0, intra.clone(), routing));
    }
    let (quads, six, single) = (
        RegionMap::quadrants(&mesh),
        RegionMap::six_regions(&mesh),
        RegionMap::single(&mesh),
    );
    let routed_locally = [
        ("quadrants/intra", quads, 0, intra.clone()),
        ("six/mix/app0", six.clone(), 0, mix.clone()),
        ("six/mix/app2", six, 2, mix),
        ("single/UR", single.clone(), 0, intra.clone()),
        ("single/TP", single.clone(), 0, pat(Pattern::Transpose)),
        ("single/BC", single.clone(), 0, pat(Pattern::BitComplement)),
        ("single/HS", single, 0, pat(hotspot)),
    ];
    for (label, region, app, spec) in routed_locally {
        let cfg = mesh.clone();
        cases.push((label.to_string(), cfg, region, app, spec, Routing::Local));
    }
    for kind in [
        TopologyKind::Torus,
        TopologyKind::Ring,
        TopologyKind::CMesh { concentration: 4 },
    ] {
        let cfg = SimConfig::table1_topology(kind);
        let region = RegionMap::halves(&cfg);
        let label = format!("{}/halves/intra", kind.label());
        cases.push((label, cfg, region, 0, intra.clone(), Routing::Local));
    }
    cases
}

/// Release-mode audit of the unit-capacity bound (13 quick-probe
/// saturation searches; CI's `model` job runs it with
/// `--include-ignored`). Prints measured saturation, the bound and their
/// ratio per configuration, and asserts the property `serve --screen`
/// relies on: no configuration saturates above `SCREEN_MARGIN` times its
/// bound.
#[test]
#[ignore = "release-mode audit: 13 quick-probe saturation searches"]
fn bound_holds_within_its_margin_on_the_audit_matrix() {
    let probe = SaturationProbe::quick();
    let cases = audit_matrix();
    assert_eq!(cases.len(), 13);
    let mut worst = (String::new(), 0.0_f64);
    println!(
        "{:<24} {:>9} {:>9} {:>7}",
        "config", "measured", "bound", "ratio"
    );
    for (label, cfg, region, app, spec, routing) in cases {
        let bound = predict_app_saturation(&cfg, &region, app, &spec, kind_of(routing))
            .expect("every audited config offers traffic")
            .load;
        let measured = app_saturation(&probe, &cfg, &region, app, &spec, || routing.build());
        let ratio = measured / bound;
        println!("{label:<24} {measured:>9.4} {bound:>9.4} {ratio:>7.3}");
        assert!(
            ratio <= SCREEN_MARGIN,
            "{label}: measured {measured:.4} > {SCREEN_MARGIN} x bound {bound:.4}"
        );
        if ratio > worst.1 {
            worst = (label, ratio);
        }
    }
    println!("worst measured/bound: {:.3} ({})", worst.1, worst.0);
}
