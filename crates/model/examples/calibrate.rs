//! Calibration sweep: measured vs predicted saturation across the
//! scheme/routing/pattern/topology matrix. Prints one row per config with
//! the implied efficiency (`measured × channel_load`) so the
//! `SATURATION_EFFICIENCY` constant of `model` can be re-fit after simulator
//! changes. Run with `cargo run -p model --release --example calibrate`
//! (add `quick` for the coarse probe).

use model::{predict_app_saturation, RoutingKind};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use rair::scheme::Routing;
use traffic::pattern::Pattern;
use traffic::saturation::{app_saturation, SaturationProbe};
use traffic::scenario::{AppSpec, InterDest};

fn spec_pattern(p: Pattern) -> AppSpec {
    AppSpec::with_inter(0.0, 1.0, InterDest::Pattern(p))
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let probe = if quick {
        SaturationProbe::quick()
    } else {
        SaturationProbe::default()
    };
    let mesh = SimConfig::table1();
    let mix = AppSpec {
        rate_flits: 0.0,
        intra: 0.75,
        inter: 0.20,
        inter_dest: InterDest::OutsideUniform,
        mc: 0.05,
    };
    let hs = Pattern::Hotspot {
        spots: Pattern::center_hotspots(&mesh),
        bias: 0.3,
    };
    let mut cases: Vec<(String, SimConfig, RegionMap, u8, AppSpec, Routing)> = vec![];
    let halves = RegionMap::halves(&mesh);
    for routing in [Routing::Local, Routing::Xy, Routing::Dbar] {
        cases.push((
            format!("halves/intra/{routing:?}"),
            mesh.clone(),
            halves.clone(),
            0,
            AppSpec::intra_only(0.0),
            routing,
        ));
    }
    let quads = RegionMap::quadrants(&mesh);
    cases.push((
        "quadrants/intra".into(),
        mesh.clone(),
        quads.clone(),
        0,
        AppSpec::intra_only(0.0),
        Routing::Local,
    ));
    let six = RegionMap::six_regions(&mesh);
    for app in [0u8, 2] {
        cases.push((
            format!("six/mix/app{app}"),
            mesh.clone(),
            six.clone(),
            app,
            mix.clone(),
            Routing::Local,
        ));
    }
    let single = RegionMap::single(&mesh);
    cases.push((
        "single/UR".into(),
        mesh.clone(),
        single.clone(),
        0,
        AppSpec::intra_only(0.0),
        Routing::Local,
    ));
    for p in [Pattern::Transpose, Pattern::BitComplement, hs] {
        cases.push((
            format!("single/{}", p.label()),
            mesh.clone(),
            single.clone(),
            0,
            spec_pattern(p),
            Routing::Local,
        ));
    }
    for kind in [
        TopologyKind::Torus,
        TopologyKind::Ring,
        TopologyKind::CMesh { concentration: 4 },
    ] {
        let cfg = SimConfig::table1_topology(kind);
        let region = RegionMap::halves(&cfg);
        cases.push((
            format!("{}/halves/intra", kind.label()),
            cfg,
            region,
            0,
            AppSpec::intra_only(0.0),
            Routing::Local,
        ));
    }

    println!(
        "{:<28} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "config", "measured", "predicted", "relerr", "chload", "impl_eff"
    );
    let mut errs = Vec::new();
    for (label, cfg, region, app, spec, routing) in cases {
        let kind = match routing {
            Routing::Xy => RoutingKind::DimensionOrder,
            _ => RoutingKind::Adaptive,
        };
        let measured = app_saturation(&probe, &cfg, &region, app, &spec, || routing.build());
        let pred = predict_app_saturation(&cfg, &region, app, &spec, kind);
        let (p_load, ch) = pred.map_or((f64::NAN, f64::NAN), |p| (p.load, p.channel_load));
        let rel = (p_load - measured) / measured;
        errs.push((label.clone(), rel, (p_load - measured).abs()));
        println!(
            "{label:<28} {measured:>9.4} {p_load:>9.4} {rel:>8.3} {ch:>8.3} {:>8.3}",
            measured * ch
        );
    }
    let mean = errs.iter().map(|e| e.1.abs()).sum::<f64>() / errs.len() as f64;
    let max = errs
        .iter()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .unwrap();
    println!(
        "mean |relerr| {mean:.3}  max |relerr| {:.3} ({})",
        max.1, max.0
    );
}
