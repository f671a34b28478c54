//! Ablation studies for RAIR's design parameters (§IV.C and §VI of the
//! paper discuss the first two qualitatively; these studies quantify them
//! on the six-application scenario of Fig. 13/14).
//!
//! * **Hysteresis width Δ** — the paper observed Δ ∈ 0.1…0.3 works with
//!   the best case around 0.2.
//! * **Regional:global VC split** — §VI argues a roughly equal split
//!   supports generic traffic best.
//! * **Oracle vs online STC ranking**, and every region-oblivious
//!   **baseline** side by side — extensions beyond the paper.

use crate::figs::fig14::{six_app_cell, six_app_rates};
use crate::figs::{AplTable, Cell};
use crate::runner::ExpConfig;
use metrics::report::{f2, pct};
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::dpa::DpaMode;
use rair::msp::MspConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::InterDest;

/// One row of a study: the six-app UR scenario at `rates` under `cfg`.
fn cell(label: impl Into<String>, cfg: SimConfig, scheme: Scheme, rates: [f64; 6]) -> Cell {
    six_app_cell(
        label,
        cfg,
        scheme,
        Routing::Local,
        rates,
        InterDest::OutsideUniform,
    )
}

/// Run a study's cells at the six-app loads and render them under `title`.
fn report(ec: &ExpConfig, title: &str, cells: fn([f64; 6]) -> Vec<Cell>) -> Table {
    table(title, &AplTable::run(ec, cells(six_app_rates(ec))))
}

/// RO_RR, then RAIR across DPA hysteresis widths Δ.
pub fn delta_cells(rates: [f64; 6]) -> Vec<Cell> {
    let cfg = SimConfig::table1();
    let mut cells = vec![cell("RO_RR", cfg.clone(), Scheme::RoRr, rates)];
    for delta in [0.0, 0.1, 0.2, 0.3, 0.5] {
        let scheme = Scheme::Rair {
            msp: MspConfig::va_and_sa(),
            dpa: DpaMode::Dynamic { delta },
        };
        cells.push(cell(format!("RAIR d={delta}"), cfg.clone(), scheme, rates));
    }
    cells
}

/// Sweep the DPA hysteresis width Δ.
pub fn delta_sweep(ec: &ExpConfig) -> Table {
    let title = "Ablation — DPA hysteresis width (six-app UR scenario)";
    report(ec, title, delta_cells)
}

/// RO_RR, then RAIR across every regional:global adaptive-VC split.
pub fn vc_split_cells(rates: [f64; 6]) -> Vec<Cell> {
    let base = SimConfig::table1();
    let mut cells = vec![cell("RO_RR", base.clone(), Scheme::RoRr, rates)];
    for regional in 0..=base.adaptive_vcs {
        let mut cfg = base.clone();
        cfg.regional_vcs = regional;
        let label = format!("RAIR {}R:{}G", regional, base.adaptive_vcs - regional);
        cells.push(cell(label, cfg, Scheme::rair(), rates));
    }
    cells
}

/// Sweep the regional:global adaptive-VC split.
pub fn vc_split_sweep(ec: &ExpConfig) -> Table {
    let title = "Ablation — regional:global VC split (six-app UR scenario)";
    report(ec, title, vc_split_cells)
}

/// RO_RR, RO_Age, oracle and online STC, and RA_RAIR.
pub fn baselines_cells(rates: [f64; 6]) -> Vec<Cell> {
    let cfg = SimConfig::table1();
    [
        ("RO_RR", Scheme::RoRr),
        ("RO_Age", Scheme::RoAge),
        ("RO_Rank", Scheme::ro_rank(rates.to_vec())),
        ("RO_RankOnline", Scheme::ro_rank_online(6)),
        ("RA_RAIR", Scheme::rair()),
    ]
    .into_iter()
    .map(|(label, scheme)| cell(label, cfg.clone(), scheme, rates))
    .collect()
}

/// All region-oblivious baselines side by side (round-robin, oldest-first,
/// oracle and online STC) against RAIR on the six-app scenario — extends
/// the paper's comparison with the age-based arbiter it cites as an early
/// region-oblivious proposal \[1\].
pub fn baselines(ec: &ExpConfig) -> Table {
    let title = "Extension — all baselines vs RAIR (six-app UR scenario)";
    report(ec, title, baselines_cells)
}

/// RO_RR, oracle and online STC ranking, and RA_RAIR.
pub fn rank_cells(rates: [f64; 6]) -> Vec<Cell> {
    let cfg = SimConfig::table1();
    [
        ("RO_RR", Scheme::RoRr),
        ("RO_Rank (oracle)", Scheme::ro_rank(rates.to_vec())),
        ("RO_RankOnline", Scheme::ro_rank_online(6)),
        ("RA_RAIR", Scheme::rair()),
    ]
    .into_iter()
    .map(|(label, scheme)| cell(label, cfg.clone(), scheme, rates))
    .collect()
}

/// Oracle vs online STC ranking (extension beyond the paper, which grants
/// STC an optimal-ranking oracle): how much of RO_Rank's benefit survives
/// when intensities must be estimated at run time?
pub fn rank_estimation(ec: &ExpConfig) -> Table {
    let title = "Ablation — oracle vs online STC ranking (six-app UR scenario)";
    report(ec, title, rank_cells)
}

/// Render a study: mean APL per row and its reduction vs RO_RR.
pub fn table(title: &str, res: &AplTable) -> Table {
    let mut t = Table::new(title, &["config", "mean APL", "vs RO_RR"]);
    for (label, apl) in &res.schemes {
        let mean = apl.iter().sum::<f64>() / apl.len() as f64;
        t.row(vec![
            label.clone(),
            f2(mean),
            if label == "RO_RR" {
                "—".into()
            } else {
                pct(res.avg_reduction(label, None))
            },
        ]);
    }
    t
}
