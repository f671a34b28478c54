//! `repro bench-model` — cross-validation of the analytical surrogate
//! model against the simulator.
//!
//! Three measurements, written to `BENCH_model.json`:
//!
//! 1. **Saturation**: model-predicted vs simulator-measured saturation
//!    load across the scheme×routing×pattern matrix (plus the torus, ring
//!    and concentrated-mesh variants). Every row also runs the
//!    warm-started search against the cold one and asserts the loads are
//!    **bit-identical** — the bench doubles as an equality check — while
//!    recording the simulation counts and wall-clock of both, so the JSON
//!    captures the realized warm-start speedup on a cold cache.
//! 2. **Latency**: model-predicted vs simulated per-application latency on
//!    a halves configuration with cross-region interference, under
//!    round-robin and RAIR priority, at fractions of the measured
//!    saturation load.
//! 3. **Sweep pruning**: the UR load-latency curve with `--prune`
//!    semantics on vs off — wall-clock, pruned-point count, and the knee
//!    estimate of both (the knee must survive pruning).
//!
//! The Table-1 rows (halves and quadrants regionalizations, every routing)
//! are flagged; over that subset the bench asserts the warm-started
//! searches use at most half the stability probes of the cold ones, the
//! headline acceptance bar for the warm-start path.

use crate::admit::routing_kind;
use crate::figs::curve;
use crate::runner::{run_one, ExpConfig};
use crate::sweep::build_network;
use metrics::report::{Table, Value};
use model::{predict_app_saturation, predict_latencies, warm_hint, PriorityMode, RoutingKind};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use rair::scheme::{Routing, Scheme};
use std::time::Instant;
use traffic::pattern::Pattern;
use traffic::saturation::{app_saturation_traced, SaturationProbe, WarmOutcome};
use traffic::scenario::{AppSpec, InterDest, Scenario};

/// One saturation cross-validation row.
#[derive(Debug, Clone)]
pub struct SatRow {
    pub config: String,
    pub routing: &'static str,
    /// Model-predicted saturation load (`NaN` when the model declines).
    pub predicted: f64,
    /// Simulator-measured saturation load (cold search).
    pub measured: f64,
    /// `(predicted - measured) / measured`.
    pub rel_err: f64,
    /// How the warm-started search used the hint.
    pub warm_outcome: WarmOutcome,
    /// Full simulations of the warm-started search (incl. zero-load ref).
    pub warm_sims: u32,
    /// Full simulations of the cold search.
    pub cold_sims: u32,
    pub warm_secs: f64,
    pub cold_secs: f64,
    /// Whether the row belongs to the Table-1 matrix subset the ≤½-probe
    /// acceptance bar is measured over.
    pub table1: bool,
}

/// One latency cross-validation row.
#[derive(Debug, Clone)]
pub struct LatRow {
    pub mode: &'static str,
    /// Offered load as a fraction of the measured halves saturation.
    pub load_frac: f64,
    pub app: usize,
    pub predicted: f64,
    pub simulated: f64,
    pub rel_err: f64,
}

/// The full bench result.
#[derive(Debug, Clone)]
pub struct BenchModel {
    /// Whether the quick probe / short windows were used (smoke runs).
    pub quick: bool,
    pub sat: Vec<SatRow>,
    pub lat: Vec<LatRow>,
    pub sweep_full_secs: f64,
    pub sweep_pruned_secs: f64,
    pub sweep_pruned_points: usize,
    pub knee_full: Option<f64>,
    pub knee_pruned: Option<f64>,
}

impl BenchModel {
    /// Mean and max absolute relative saturation error, with the config
    /// name of the max.
    pub fn sat_error(&self) -> (f64, f64, &str) {
        let mut mean = 0.0;
        let mut max = (0.0, "");
        for r in &self.sat {
            let e = r.rel_err.abs();
            mean += e;
            if e > max.0 {
                max = (e, r.config.as_str());
            }
        }
        (mean / self.sat.len() as f64, max.0, max.1)
    }

    /// Total stability probes (simulations minus the shared zero-load
    /// reference) of the warm and cold searches over the Table-1 subset.
    pub fn table1_probes(&self) -> (u32, u32) {
        self.sat
            .iter()
            .filter(|r| r.table1)
            .fold((0, 0), |(w, c), r| {
                (
                    w + r.warm_sims.saturating_sub(1),
                    c + r.cold_sims.saturating_sub(1),
                )
            })
    }

    /// Aggregate wall-clock speedup of warm-started over cold searches on
    /// a cold cache, across the whole matrix.
    pub fn warm_speedup(&self) -> f64 {
        let warm: f64 = self.sat.iter().map(|r| r.warm_secs).sum();
        let cold: f64 = self.sat.iter().map(|r| r.cold_secs).sum();
        cold / warm.max(1e-9)
    }
}

/// The cross-validation matrix: `(label, cfg, region, app, spec, routing,
/// table1)`.
#[allow(clippy::type_complexity)]
fn matrix() -> Vec<(String, SimConfig, RegionMap, u8, AppSpec, Routing, bool)> {
    let mesh = SimConfig::table1();
    let mut cases = Vec::new();
    // Table-1 subset: the paper's halves and quadrants regionalizations,
    // every routing / every app — the searches the figure sweeps rely on.
    let halves = RegionMap::halves(&mesh);
    for routing in [Routing::Local, Routing::Xy, Routing::Dbar] {
        for app in [0u8, 1] {
            cases.push((
                format!("halves/intra/app{app}/{routing:?}"),
                mesh.clone(),
                halves.clone(),
                app,
                AppSpec::intra_only(0.0),
                routing,
                true,
            ));
        }
    }
    let quads = RegionMap::quadrants(&mesh);
    for app in 0..4u8 {
        cases.push((
            format!("quadrants/intra/app{app}"),
            mesh.clone(),
            quads.clone(),
            app,
            AppSpec::intra_only(0.0),
            Routing::Local,
            true,
        ));
    }
    // Broader matrix: six-region mix, chip-wide patterns, other topologies.
    let mix = AppSpec {
        rate_flits: 0.0,
        intra: 0.75,
        inter: 0.20,
        inter_dest: InterDest::OutsideUniform,
        mc: 0.05,
    };
    let six = RegionMap::six_regions(&mesh);
    for app in [0u8, 2] {
        cases.push((
            format!("six/mix/app{app}"),
            mesh.clone(),
            six.clone(),
            app,
            mix.clone(),
            Routing::Local,
            false,
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
        false,
    ));
    let hs = Pattern::Hotspot {
        spots: Pattern::center_hotspots(&mesh),
        bias: 0.3,
    };
    for p in [Pattern::Transpose, Pattern::BitComplement, hs] {
        cases.push((
            format!("single/{}", p.label()),
            mesh.clone(),
            single.clone(),
            0,
            AppSpec::with_inter(0.0, 1.0, InterDest::Pattern(p)),
            Routing::Local,
            false,
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
            false,
        ));
    }
    cases
}

/// Run the bench. Panics when a warm-started search returns a load that is
/// not bit-identical to the cold one, or when the Table-1 subset misses
/// the ≤½-probe bar — both are hard invariants, not tunables.
pub fn run(ec: &ExpConfig) -> BenchModel {
    let probe = if ec.quick {
        SaturationProbe::quick()
    } else {
        SaturationProbe::default()
    };
    let mut sat = Vec::new();
    for (config, cfg, region, app, spec, routing, table1) in matrix() {
        let hint = warm_hint(&cfg, &region, app, &spec, routing_kind(routing));
        let t0 = Instant::now();
        let cold =
            app_saturation_traced(&probe, &cfg, &region, app, &spec, None, || routing.build());
        let cold_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let warm =
            app_saturation_traced(&probe, &cfg, &region, app, &spec, hint, || routing.build());
        let warm_secs = t1.elapsed().as_secs_f64();
        assert_eq!(
            warm.load.to_bits(),
            cold.load.to_bits(),
            "warm search diverged from cold on {config}: {} vs {}",
            warm.load,
            cold.load
        );
        let predicted = predict_app_saturation(&cfg, &region, app, &spec, routing_kind(routing))
            .map_or(f64::NAN, |p| p.load);
        sat.push(SatRow {
            config,
            routing: routing.label(),
            predicted,
            measured: cold.load,
            rel_err: (predicted - cold.load) / cold.load,
            warm_outcome: warm.warm,
            warm_sims: warm.simulations,
            cold_sims: cold.simulations,
            warm_secs,
            cold_secs,
            table1,
        });
    }

    let bm = |sat: &[SatRow]| {
        sat.iter()
            .find(|r| r.config.starts_with("halves/intra/app0/Local"))
            .expect("halves row present")
            .measured
    };
    let halves_sat = bm(&sat);
    let lat = latency_rows(ec, halves_sat);

    // Sweep pruning: the UR curve, full-length vs pruned windows.
    let steps = if ec.quick { 6 } else { 12 };
    let t0 = Instant::now();
    let full = curve::run(
        &ExpConfig {
            prune: false,
            ..*ec
        },
        Pattern::UniformRandom,
        0.6,
        steps,
    );
    let sweep_full_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let pruned = curve::run(
        &ExpConfig { prune: true, ..*ec },
        Pattern::UniformRandom,
        0.6,
        steps,
    );
    let sweep_pruned_secs = t1.elapsed().as_secs_f64();

    let out = BenchModel {
        quick: ec.quick,
        sat,
        lat,
        sweep_full_secs,
        sweep_pruned_secs,
        sweep_pruned_points: pruned.pruned,
        knee_full: curve::knee(&full),
        knee_pruned: curve::knee(&pruned),
    };
    // The ≤½-probe bar is defined over the default probe the sweeps use —
    // the model is calibrated against it, and the Table-1 rows all accept
    // there. The quick probe's shorter windows measure slightly higher
    // saturation loads, which pushes a few halves rows past the margin
    // into the (correct, bit-identical) cold fallback; smoke runs report
    // the ratio in the JSON without gating on it.
    if !ec.quick {
        let (w, c) = out.table1_probes();
        assert!(
            w * 2 <= c,
            "warm searches used {w} probes vs {c} cold on the Table-1 matrix (> half)"
        );
    }
    out
}

/// Simulate the halves interference scenario (app 0 sends 40% of its
/// traffic into app 1's region) at fractions of the measured saturation,
/// under round-robin and RAIR, and compare against the model.
fn latency_rows(ec: &ExpConfig, halves_sat: f64) -> Vec<LatRow> {
    let cfg = SimConfig::table1();
    let region = RegionMap::halves(&cfg);
    let mut rows = Vec::new();
    for frac in [0.2, 0.5, 0.8] {
        let rate = frac * halves_sat;
        let specs = vec![
            Some(AppSpec::with_inter(rate, 0.4, InterDest::Region(1))),
            Some(AppSpec::intra_only(rate)),
        ];
        for (mode_label, scheme, mode) in [
            ("RO_RR", Scheme::RoRr, PriorityMode::None),
            ("RA_RAIR", Scheme::rair(), PriorityMode::NativeHigh),
        ] {
            let scenario = Scenario::new(&cfg, &region, specs.clone());
            let net = build_network(
                &cfg,
                &region,
                &scheme,
                Routing::Local,
                Box::new(scenario),
                ec.seed,
            );
            let r = run_one(format!("lat/{mode_label}/{frac}"), net, ec);
            let pred = predict_latencies(&cfg, &region, &specs, RoutingKind::Adaptive, mode);
            for (app, &pa) in pred.iter().enumerate() {
                let (Some(p), Some(s)) = (pa, r.apl[app]) else {
                    continue;
                };
                rows.push(LatRow {
                    mode: mode_label,
                    load_frac: frac,
                    app,
                    predicted: p,
                    simulated: s,
                    rel_err: (p - s) / s,
                });
            }
        }
    }
    rows
}

/// The saturation cross-validation as the one report: the text table and
/// the `saturation_rows` of `BENCH_model.json`.
pub fn sat_table(b: &BenchModel) -> Table {
    Table::of(
        "Model cross-validation — saturation (warm bit-identity checked)",
        &b.sat,
        &[
            ("config", "config", |r| r.config.clone().into()),
            ("routing", "routing", |r| r.routing.into()),
            ("predicted", "predicted", |r| Value::Float(r.predicted, 4)),
            ("measured", "measured", |r| Value::Float(r.measured, 4)),
            ("relerr", "", |r| format!("{:+.3}", r.rel_err).into()),
            ("", "rel_err", |r| Value::Float(r.rel_err, 0)),
            ("warm", "warm", |r| format!("{:?}", r.warm_outcome).into()),
            ("sims w/c", "", |r| {
                format!("{}/{}", r.warm_sims, r.cold_sims).into()
            }),
            ("", "warm_sims", |r| u64::from(r.warm_sims).into()),
            ("", "cold_sims", |r| u64::from(r.cold_sims).into()),
            ("", "warm_secs", |r| Value::Float(r.warm_secs, 0)),
            ("", "cold_secs", |r| Value::Float(r.cold_secs, 0)),
            ("", "table1", |r| r.table1.into()),
        ],
    )
}

/// The latency cross-validation as the one report: the text table and the
/// `latency_rows` of `BENCH_model.json`.
pub fn lat_table(b: &BenchModel) -> Table {
    Table::of(
        "Model cross-validation — latency (halves interference scenario)",
        &b.lat,
        &[
            ("mode", "mode", |r| r.mode.into()),
            ("load", "load_frac", |r| Value::Float(r.load_frac, 1)),
            ("app", "app", |r| r.app.into()),
            ("predicted", "predicted", |r| Value::Float(r.predicted, 1)),
            ("simulated", "simulated", |r| Value::Float(r.simulated, 1)),
            ("relerr", "", |r| format!("{:+.3}", r.rel_err).into()),
            ("", "rel_err", |r| Value::Float(r.rel_err, 0)),
        ],
    )
}

/// The `BENCH_model.json` document.
pub fn json(b: &BenchModel) -> Value {
    let f = |x: f64| Value::Float(x, 0);
    let (mean, max, max_cfg) = b.sat_error();
    let (warm, cold) = b.table1_probes();
    let efficiency = [
        ("mesh", f(model::SATURATION_EFFICIENCY)),
        ("torus", f(model::TORUS_EFFICIENCY)),
        ("ring", f(model::RING_EFFICIENCY)),
        ("io", f(model::IO_EFFICIENCY)),
    ];
    let saturation_error = [
        ("mean_abs_rel", f(mean)),
        ("max_abs_rel", f(max)),
        ("max_config", max_cfg.into()),
    ];
    let table1_matrix = [
        ("warm_probes", u64::from(warm).into()),
        ("cold_probes", u64::from(cold).into()),
        ("probe_ratio", f(f64::from(warm) / f64::from(cold).max(1.0))),
    ];
    let sweep = [
        ("full_secs", f(b.sweep_full_secs)),
        ("pruned_secs", f(b.sweep_pruned_secs)),
        (
            "speedup",
            f(b.sweep_full_secs / b.sweep_pruned_secs.max(1e-9)),
        ),
        ("pruned_points", b.sweep_pruned_points.into()),
        ("knee_full", b.knee_full.map(f).into()),
        ("knee_pruned", b.knee_pruned.map(f).into()),
    ];
    Value::obj([
        ("quick", b.quick.into()),
        ("efficiency", Value::obj(efficiency)),
        ("saturation_rows", sat_table(b).json_rows()),
        ("saturation_error", Value::obj(saturation_error)),
        ("table1_matrix", Value::obj(table1_matrix)),
        ("warm_wall_speedup", f(b.warm_speedup())),
        ("latency_rows", lat_table(b).json_rows()),
        ("sweep", Value::obj(sweep)),
    ])
}
