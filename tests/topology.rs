//! Cross-topology differential suite: the production kernel, the reference
//! kernel, the verifier and the oracle must agree on every supported
//! topology.
//!
//! For random rectangular region maps × {mesh, torus, ring, cmesh} ×
//! radices that include the u64 word-boundary router counts (63/64/65 —
//! the active-set bitmaps straddle a word exactly there), the suite
//! asserts:
//!
//! (a) the static deadlock-freedom verifier passes for every shipped
//!     routing (and under LBDR confinement on the non-wrapping kinds),
//! (b) all-pairs routability — the legality pass actually visited every
//!     ordered router pair,
//! (c) end-state digests are deterministic: bit-identical across repeated
//!     runs of one seed and between the production kernel and the
//!     reference kernel, and
//! (d) the full invariant oracle (credit conservation, routing legality,
//!     deadlock watchdog, …) stays clean at 5 % and 30 % offered load.

use noc_sim::network::Network;
use noc_sim::prelude::*;
use proptest::prelude::*;
use rair::prelude::*;
use traffic::scenario::{AppSpec, InterDest, Scenario};

/// Build a validated config of the given kind and router-grid radix.
fn cfg_kind(kind: TopologyKind, w: u8, h: u8) -> SimConfig {
    let cfg = SimConfig {
        topology: kind,
        width: w,
        height: h,
        ..SimConfig::table1()
    };
    cfg.validate().expect("test config must validate");
    cfg
}

/// The differential matrix: every topology kind, with radices chosen so
/// the router count lands on 63, 64 and 65 (word-boundary bitmap sizes)
/// plus the canonical per-kind shapes.
fn matrix() -> Vec<(TopologyKind, u8, u8)> {
    vec![
        (TopologyKind::Mesh, 8, 8),  // 64 routers — exactly one u64 word
        (TopologyKind::Mesh, 9, 7),  // 63
        (TopologyKind::Mesh, 13, 5), // 65
        (TopologyKind::Torus, 8, 8), // 64, wrap links + datelines
        (TopologyKind::Torus, 9, 7), // 63
        (TopologyKind::Ring, 63, 1), // word-boundary rings
        (TopologyKind::Ring, 64, 1),
        (TopologyKind::Ring, 65, 1),
        (TopologyKind::CMesh { concentration: 4 }, 4, 4), // 64 nodes
        (TopologyKind::CMesh { concentration: 2 }, 8, 4), // 32 routers, 64 nodes
    ]
}

/// A two-region map split at column `xcut` (1 ≤ xcut < width): region 0
/// west of the cut, region 1 east. Rectangular on every kind; on wrapping
/// kinds it only steers traffic (no LBDR confinement is applied there —
/// an arc wider than half the ring has intra-region minimal paths that
/// legitimately leave the arc).
fn split_region(cfg: &SimConfig, xcut: u8) -> RegionMap {
    RegionMap::from_fn(cfg, 2, |c| u8::from(c.x >= xcut))
}

fn two_app_scenario(cfg: &SimConfig, region: &RegionMap, p: f64, r0: f64, r1: f64) -> Scenario {
    Scenario::new(
        cfg,
        region,
        vec![
            Some(AppSpec::with_inter(r0, p, InterDest::Region(1))),
            Some(AppSpec::intra_only(r1)),
        ],
    )
}

/// Run one simulation to completion and return the end-state digest.
fn digest_of(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: Routing,
    reference: bool,
    oracle: bool,
    load: f64,
    seed: u64,
) -> (u64, u64) {
    let mut cfg = cfg.clone();
    cfg.oracle = if oracle {
        OracleConfig {
            enabled: Some(true),
            panic_on_violation: Some(false),
            check_interval: 4,
            ..OracleConfig::default()
        }
    } else {
        OracleConfig {
            enabled: Some(false),
            ..OracleConfig::default()
        }
    };
    let scenario = two_app_scenario(&cfg, region, 0.5, load, load);
    let mut net = Network::new(
        cfg,
        region.clone(),
        routing.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        seed,
    );
    if reference {
        net.run_reference(150);
        net.stats.reset_window(net.cycle());
        net.run_reference(350);
    } else {
        net.run_warmup_measure(150, 350);
    }
    net.check_oracle_now();
    (net.stats.digest(), net.stats.oracle_violation_count)
}

/// (a) + (b): the static verifier proves every matrix point deadlock-free
/// and legal for every shipped routing, and the legality pass visited
/// every ordered router pair.
#[test]
fn verifier_passes_on_every_topology_and_radix() {
    for (kind, w, h) in matrix() {
        let cfg = cfg_kind(kind, w, h);
        let n = cfg.num_routers();
        for routing in Routing::ALL {
            let alg = routing.build();
            let report = Verifier::new(&cfg, alg.as_ref()).run();
            assert!(
                report.ok(),
                "{} {w}x{h} {}: {:?}",
                kind.label(),
                routing.label(),
                report.violations.first()
            );
            assert_eq!(
                report.pairs_checked,
                n * (n - 1),
                "{} {w}x{h}: not all pairs checked",
                kind.label()
            );
        }
    }
}

/// The arbitrary-radix ceiling: 32×32 mesh and torus (1024 routers)
/// verify clean for every routing.
#[test]
fn verifier_passes_at_max_radix() {
    for kind in [TopologyKind::Mesh, TopologyKind::Torus] {
        let cfg = cfg_kind(kind, 32, 32);
        for routing in Routing::ALL {
            let alg = routing.build();
            let report = Verifier::new(&cfg, alg.as_ref()).run();
            assert!(
                report.ok(),
                "{} 32x32 {}: {:?}",
                kind.label(),
                routing.label(),
                report.violations.first()
            );
            assert_eq!(report.pairs_checked, 1024 * 1023);
        }
    }
}

/// Refresh tool for the per-topology table in EXPERIMENTS.md: verifier
/// wall time and kernel throughput at 16×16-equivalent node counts
/// (mesh/torus 16×16, ring 255 — the u8 width ceiling —, cmesh 8×8×4).
/// Ignored by default; run with
/// `cargo test --release --test topology -- --ignored bench_topology`.
#[test]
#[ignore]
fn bench_topology_table() {
    let cases = [
        (TopologyKind::Mesh, 16u8, 16u8),
        (TopologyKind::Torus, 16, 16),
        (TopologyKind::Ring, 255, 1),
        (TopologyKind::CMesh { concentration: 4 }, 8, 8),
    ];
    println!("| topology | routers | nodes | verifier ms | kernel Mrouter-cycles/s |");
    println!("|---|---|---|---|---|");
    for (kind, w, h) in cases {
        let cfg = cfg_kind(kind, w, h);
        let alg = Routing::Local.build();
        let t0 = std::time::Instant::now();
        let report = Verifier::new(&cfg, alg.as_ref()).run();
        let verifier_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            report.ok(),
            "{}: {:?}",
            kind.label(),
            report.violations.first()
        );

        let region = split_region(&cfg, w / 2);
        let (_, viol) = digest_of(&cfg, &region, Routing::Local, false, false, 0.10, 7);
        assert_eq!(viol, 0);
        let cycles = 4_000u64;
        let mut run_cfg = cfg.clone();
        run_cfg.oracle = OracleConfig {
            enabled: Some(false),
            ..OracleConfig::default()
        };
        let scenario = two_app_scenario(&run_cfg, &region, 0.5, 0.10, 0.10);
        let mut net = Network::new(
            run_cfg,
            region.clone(),
            Routing::Local.build(),
            Scheme::rair().build(),
            Box::new(scenario),
            7,
        );
        let t1 = std::time::Instant::now();
        net.run(cycles);
        let wall = t1.elapsed().as_secs_f64();
        let mrcs = (cycles as f64 * cfg.num_routers() as f64) / wall / 1e6;
        println!(
            "| {} | {} | {} | {verifier_ms:.1} | {mrcs:.1} |",
            kind.label(),
            cfg.num_routers(),
            cfg.num_nodes()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random rectangular region maps over random matrix points: verifier
    /// (+ LBDR on non-wrapping kinds), production-vs-reference digest identity,
    /// and a clean oracle at 5% and 30% load.
    #[test]
    fn differential_random_regions(
        case_idx in 0usize..10,
        xcut_raw in 1u32..1000,
        routing in prop_oneof![Just(Routing::Xy), Just(Routing::Local), Just(Routing::Dbar)],
        seed in 0u64..1_000,
    ) {
        let (kind, w, h) = matrix()[case_idx];
        let cfg = cfg_kind(kind, w, h);
        let xcut = 1 + (xcut_raw % (w as u32 - 1)) as u8;
        let region = split_region(&cfg, xcut);

        // (a) static verifier passes; LBDR-confined too where the region
        // rectangles are convex under minimal routing (non-wrapping kinds).
        let alg = routing.build();
        let report = Verifier::new(&cfg, alg.as_ref()).run();
        prop_assert!(report.ok(), "{} {w}x{h}: {:?}", kind.label(), report.violations.first());
        if !kind.wraps() {
            let confined = rair::verify::verify_lbdr(&cfg, &region, alg.as_ref());
            prop_assert!(
                confined.ok(),
                "{} {w}x{h} xcut {xcut} LBDR: {:?}",
                kind.label(),
                confined.violations.first()
            );
        }

        // (c) + (d): runs with the oracle at 5% and 30% load must be
        // violation-free and reproducible; the reference kernel (with and
        // without the oracle) must produce the identical digest.
        for load in [0.05, 0.30] {
            let (d1, v1) = digest_of(&cfg, &region, routing, false, true, load, seed);
            prop_assert_eq!(v1, 0, "{} {w}x{h} load {} oracle violations", kind.label(), load);
            let (d1b, _) = digest_of(&cfg, &region, routing, false, true, load, seed);
            prop_assert_eq!(d1, d1b, "same-seed rerun digest drift");
            for oracle in [true, false] {
                let (dx, vx) = digest_of(&cfg, &region, routing, true, oracle, load, seed);
                prop_assert_eq!(vx, 0, "{} {w}x{h} reference oracle violations", kind.label());
                prop_assert_eq!(
                    d1, dx,
                    "{} {w}x{h} reference (oracle {oracle}, {}) digest mismatch at load {load}",
                    kind.label(), routing.label()
                );
            }
        }
    }
}
