//! Cross-crate integration tests asserting the *shape* of the paper's
//! headline results at reduced simulation windows: who wins, in which
//! direction, and by roughly what magnitude class. Exact percentages are
//! recorded by the full `repro` runs in EXPERIMENTS.md; these tests guard
//! the qualitative conclusions against regressions.
//!
//! Every case runs the figure module's own cell list at pinned rates (no
//! saturation search) and reads reductions from the shared
//! [`AplTable`].

use experiments::figs::fig12::Variant;
use experiments::figs::fig9::{cell_label, Series};
use experiments::figs::{fig10, fig12, fig14, fig15, fig17, fig9, AplTable, Cell};
use experiments::runner::ExpConfig;
use traffic::scenario::InterDest;

fn ec() -> ExpConfig {
    ExpConfig {
        warmup: 2_000,
        measure: 12_000,
        seed: 0xFEED,
        quick: true,
    }
}

/// Two-app scenario at fixed, pre-calibrated rates (≈10%/90% of the
/// measured half-mesh saturation) so tests do not re-run the saturation
/// search.
const RATE_LIGHT: f64 = 0.035;
const RATE_HEAVY: f64 = 0.33;

/// The six-app loads `fig14::six_app_rates` measures at `--quick` (10, 90,
/// 30, 20, 25 and 90 % of 0.719, 0.75, 0.844, 0.844, 0.719, 0.75).
const SIX_APP_RATES: [f64; 6] = [0.072, 0.675, 0.253, 0.169, 0.18, 0.675];

/// Only the cells whose label is in `keep`: the shape claims need fewer
/// rows than the figure prints.
fn only(cells: Vec<Cell>, keep: &[&str]) -> Vec<Cell> {
    cells
        .into_iter()
        .filter(|c| keep.contains(&c.label.as_str()))
        .collect()
}

/// Figs. 9/10 cells of `series` at inter-region fraction `p`.
fn two_app(series: &[Series], p: f64) -> AplTable {
    AplTable::run(&ec(), fig9::cells(series, &[p], (RATE_LIGHT, RATE_HEAVY)))
}

#[test]
fn fig9_shape_rair_accelerates_interregion_traffic() {
    let t = two_app(&fig9::series(), 1.0);
    // RAIR_VA+SA must cut the light app's APL substantially (paper: -18.9%).
    let gain_full = t.reduction(&cell_label("RAIR_VA+SA", 1.0), 0);
    let gain_va = t.reduction(&cell_label("RAIR_VA", 1.0), 0);
    assert!(gain_full > 0.10, "full RAIR gain {gain_full}");
    // Enforcing prioritization at more stages must help more (Fig. 9).
    assert!(
        gain_full > gain_va,
        "VA+SA {gain_full} <= VA-only {gain_va}"
    );
    assert!(gain_va > 0.0, "VA-only should still help ({gain_va})");
    // The heavy app pays a bounded price (paper: <3%; we allow <20%).
    let [base, full] = ["RO_RR", "RAIR_VA+SA"].map(|s| t.apl(&cell_label(s, 1.0)));
    assert!(full[1] / base[1] < 1.20, "heavy app penalty too large");
}

#[test]
fn fig9_no_interference_no_effect_at_p0() {
    // With no inter-region traffic the schemes coincide (no foreign flows
    // anywhere → all priorities compare equal-class requests).
    let t = two_app(&fig9::series(), 0.0);
    let diff = t.reduction(&cell_label("RAIR_VA+SA", 0.0), 0).abs();
    assert!(diff < 0.02, "p=0 divergence {diff}");
}

#[test]
fn fig10_shape_dbar_composes_with_rair() {
    let t = two_app(&fig10::series(), 1.0);
    let [ro_local, rair_local, ro_dbar, rair_dbar] =
        ["RO_RR_Local", "RAIR_Local", "RO_RR_DBAR", "RAIR_DBAR"]
            .map(|s| t.apl(&cell_label(s, 1.0)));
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

#[test]
fn fig12_shape_neither_fixed_policy_wins_both() {
    // 5% / 90% of the measured quadrant saturation.
    let run = |variant| AplTable::run(&ec(), fig12::cells(variant, 0.033, 0.59));
    let reductions = |t: &AplTable| {
        ["RAIR_NativeH", "RAIR_ForeignH", "RAIR_DPA"].map(|s| t.avg_reduction(s, None))
    };
    let [native_a, foreign_a, dpa_a] = reductions(&run(Variant::A));
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

    let [native_b, foreign_b, dpa_b] = reductions(&run(Variant::B));
    // (b): native-high wins, DPA tracks the better policy.
    assert!(
        native_b > foreign_b,
        "(b) native {native_b} vs foreign {foreign_b}"
    );
    assert!(dpa_b > foreign_b, "(b) DPA {dpa_b} vs ForeignH {foreign_b}");
}

/// The Fig. 14 cells RO_RR and RA_RAIR at the pinned six-app loads, with
/// global traffic drawn by `global`.
fn six_app(global: &InterDest) -> AplTable {
    let cells = fig14::cells(SIX_APP_RATES, global);
    AplTable::run(&ec(), only(cells, &["RO_RR", "RA_RAIR"]))
}

#[test]
fn fig14_shape_rair_cuts_the_low_apps_apl() {
    let t = six_app(&InterDest::OutsideUniform);
    // The paper's narrative: RAIR's gains concentrate on the four
    // low/medium-load apps. Threshold: half the smallest of five seeds
    // (0.102 .. 0.120 at these windows; EXPERIMENTS.md).
    let low = t.avg_reduction("RA_RAIR", Some(&fig14::LOW_APPS));
    assert!(low > 0.05, "RA_RAIR low-app reduction {low}");
}

#[test]
fn fig15_shape_rair_improves_on_transpose() {
    let (_, transpose) = fig15::patterns()
        .into_iter()
        .find(|(label, _)| *label == "TP")
        .expect("Fig. 15 sweeps transpose");
    let t = six_app(&transpose);
    // RA_RAIR improves on every pattern, transpose included. Threshold:
    // half the smallest of five seeds (0.034 .. 0.059 at these windows;
    // EXPERIMENTS.md).
    let all = t.avg_reduction("RA_RAIR", None);
    assert!(all > 0.016, "RA_RAIR transpose reduction {all}");
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
    };
    let keep = [
        "RO_RR",
        "RO_RR+adv",
        "RO_Rank",
        "RO_Rank+adv",
        "RA_RAIR",
        "RA_RAIR+adv",
    ];
    let t = AplTable::run(&ec, only(fig17::cells(fig17::ADVERSARIAL_RATE), &keep));
    let [s_rr, s_rank, s_rair] =
        ["RO_RR", "RO_Rank", "RA_RAIR"].map(|s| fig17::avg_slowdown(&t, s));
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
