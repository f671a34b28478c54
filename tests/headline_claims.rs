//! Cross-crate integration tests asserting the *shape* of the paper's
//! headline results at reduced simulation windows: who wins, in which
//! direction, and by roughly what magnitude class. Exact percentages are
//! recorded by the full `repro` runs in EXPERIMENTS.md; these tests guard
//! the qualitative conclusions against regressions.

use experiments::runner::{run_one, ExpConfig};
use experiments::sweep::build_network;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::prelude::*;
use traffic::prelude::*;

fn ec() -> ExpConfig {
    ExpConfig {
        warmup: 2_000,
        measure: 12_000,
        seed: 0xFEED,
        quick: true,
        cycle_budget: None,
    }
}

/// Two-app scenario at fixed, pre-calibrated rates (≈10%/90% of the
/// measured half-mesh saturation) so tests do not re-run the saturation
/// search.
const RATE_LIGHT: f64 = 0.035;
const RATE_HEAVY: f64 = 0.33;

fn two_app_apl(scheme: &Scheme, routing: Routing, p: f64) -> [f64; 2] {
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, p, RATE_LIGHT, RATE_HEAVY);
    let net = build_network(
        &cfg,
        &region,
        scheme,
        routing,
        Box::new(scenario),
        ec().seed,
    );
    let r = run_one("t", net, &ec());
    [r.app_apl(0), r.app_apl(1)]
}

#[test]
fn fig9_shape_rair_accelerates_interregion_traffic() {
    let base = two_app_apl(&Scheme::RoRr, Routing::Local, 1.0);
    let va = two_app_apl(&Scheme::rair_va_only(), Routing::Local, 1.0);
    let full = two_app_apl(&Scheme::rair(), Routing::Local, 1.0);
    // RAIR_VA+SA must cut the light app's APL substantially (paper: -18.9%).
    let gain_full = 1.0 - full[0] / base[0];
    let gain_va = 1.0 - va[0] / base[0];
    assert!(gain_full > 0.10, "full RAIR gain {gain_full}");
    // Enforcing prioritization at more stages must help more (Fig. 9).
    assert!(
        gain_full > gain_va,
        "VA+SA {gain_full} <= VA-only {gain_va}"
    );
    assert!(gain_va > 0.0, "VA-only should still help ({gain_va})");
    // The heavy app pays a bounded price (paper: <3%; we allow <20%).
    assert!(full[1] / base[1] < 1.20, "heavy app penalty too large");
}

#[test]
fn fig9_no_interference_no_effect_at_p0() {
    // With no inter-region traffic the schemes coincide (no foreign flows
    // anywhere → all priorities compare equal-class requests).
    let base = two_app_apl(&Scheme::RoRr, Routing::Local, 0.0);
    let full = two_app_apl(&Scheme::rair(), Routing::Local, 0.0);
    let diff = (full[0] / base[0] - 1.0).abs();
    assert!(diff < 0.02, "p=0 divergence {diff}");
}

#[test]
fn fig10_shape_dbar_composes_with_rair() {
    let ro_local = two_app_apl(&Scheme::RoRr, Routing::Local, 1.0);
    let rair_local = two_app_apl(&Scheme::rair(), Routing::Local, 1.0);
    let ro_dbar = two_app_apl(&Scheme::RoRr, Routing::Dbar, 1.0);
    let rair_dbar = two_app_apl(&Scheme::rair(), Routing::Dbar, 1.0);
    // RAIR+DBAR is the best configuration for the light app (paper §V.C).
    assert!(rair_dbar[0] < ro_local[0]);
    assert!(rair_dbar[0] < ro_dbar[0]);
    assert!(rair_dbar[0] < rair_local[0] * 1.02);
    // And DBAR restores the heavy app's slowdown (paper: RAIR_DBAR App1
    // even beats RO_RR_Local).
    assert!(
        rair_dbar[1] < ro_local[1] * 1.05,
        "RAIR_DBAR heavy-app APL {} vs RO_RR_Local {}",
        rair_dbar[1],
        ro_local[1]
    );
}

fn dpa_scenario_reduction(scheme: &Scheme, variant: char) -> f64 {
    let cfg = SimConfig::table1();
    let (low, high) = (0.033, 0.59); // 5% / 90% of measured quadrant saturation
    let build = |s: &Scheme| {
        let (region, scenario) = if variant == 'a' {
            four_app_dpa_a(&cfg, low, high)
        } else {
            four_app_dpa_b(&cfg, low, high)
        };
        build_network(
            &cfg,
            &region,
            s,
            Routing::Local,
            Box::new(scenario),
            ec().seed,
        )
    };
    let base = run_one("base", build(&Scheme::RoRr), &ec());
    let r = run_one("s", build(scheme), &ec());
    (0..4)
        .map(|a| 1.0 - r.app_apl(a) / base.app_apl(a))
        .sum::<f64>()
        / 4.0
}

#[test]
fn fig12_shape_neither_fixed_policy_wins_both() {
    let native_a = dpa_scenario_reduction(&Scheme::rair_native_high(), 'a');
    let foreign_a = dpa_scenario_reduction(&Scheme::rair_foreign_high(), 'a');
    let dpa_a = dpa_scenario_reduction(&Scheme::rair(), 'a');
    // (a): foreign-high wins, DPA matches it.
    assert!(
        foreign_a > native_a,
        "(a) foreign {foreign_a} vs native {native_a}"
    );
    assert!(dpa_a > native_a);
    assert!(
        dpa_a > foreign_a - 0.03,
        "(a) DPA {dpa_a} far below ForeignH {foreign_a}"
    );
    assert!(dpa_a > 0.03, "(a) DPA should give a real gain, got {dpa_a}");

    let native_b = dpa_scenario_reduction(&Scheme::rair_native_high(), 'b');
    let foreign_b = dpa_scenario_reduction(&Scheme::rair_foreign_high(), 'b');
    let dpa_b = dpa_scenario_reduction(&Scheme::rair(), 'b');
    // (b): native-high wins, DPA tracks the better policy.
    assert!(
        native_b > foreign_b,
        "(b) native {native_b} vs foreign {foreign_b}"
    );
    assert!(dpa_b > foreign_b, "(b) DPA {dpa_b} vs ForeignH {foreign_b}");
}

#[test]
fn fig17_shape_rair_protects_against_adversary() {
    // Longer window than the other shape tests: the closed-loop PARSEC
    // workload plus a saturating adversary needs more samples to settle.
    let ec = ExpConfig {
        warmup: 3_000,
        measure: 30_000,
        seed: 0xFEED,
        quick: true,
        cycle_budget: None,
    };
    let cfg = SimConfig::table1_req_reply();
    let region = RegionMap::quadrants(&cfg);
    let models = AppModel::parsec_four();
    let intensities: Vec<f64> = models.iter().map(AppModel::mean_rate).collect();
    let slowdown = |scheme: &Scheme| -> f64 {
        let mk = |adv: bool| {
            let w = ParsecWorkload::new(&cfg, &region, models.clone());
            if adv {
                build_network(
                    &cfg,
                    &region,
                    scheme,
                    Routing::Local,
                    Box::new(Adversarial::new(w, 0.4, 64, cfg.long_flits)),
                    ec.seed,
                )
            } else {
                build_network(&cfg, &region, scheme, Routing::Local, Box::new(w), ec.seed)
            }
        };
        let base = run_one("b", mk(false), &ec);
        let adv = run_one("a", mk(true), &ec);
        (0..4)
            .map(|a| adv.app_apl(a) / base.app_apl(a))
            .sum::<f64>()
            / 4.0
    };
    let s_rr = slowdown(&Scheme::RoRr);
    let s_rank = slowdown(&Scheme::ro_rank(intensities));
    let s_rair = slowdown(&Scheme::rair());
    // Paper's ordering: RO_RR worst, RO_Rank better, RA_RAIR best (small
    // tolerance between the two prioritizing schemes for window noise).
    assert!(s_rair < s_rank * 1.05, "RAIR {s_rair} vs Rank {s_rank}");
    assert!(s_rank < s_rr, "Rank {s_rank} vs RR {s_rr}");
    assert!(
        s_rair < s_rr * 0.7,
        "RAIR should cut the slowdown substantially"
    );
    assert!(s_rair > 1.0, "an attack still costs something");
}

#[test]
fn lbdr_fraction_matches_papers_14_percent() {
    let f = rair::lbdr::exact_valid_fraction(4, 4);
    assert!((f - 0.14).abs() < 0.005, "paper says ~14%, got {f}");
}
