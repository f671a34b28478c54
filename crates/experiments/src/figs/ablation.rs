//! Ablations of RAIR's design parameters and the region-oblivious baselines,
//! as one sweep on the six-application scenario of Fig. 13/14 (§IV.C and
//! §VI of the paper discuss the first two qualitatively; this quantifies
//! them).
//!
//! * **Baselines** — round-robin, oldest-first (the age-based arbiter the
//!   paper cites as an early region-oblivious proposal \[1\]), STC with
//!   oracle intensities (the paper's assumption) and STC estimating them
//!   online — extensions beyond the paper.
//! * **Hysteresis width Δ** — the paper observed Δ ∈ 0.1…0.3 works with
//!   the best case around 0.2.
//! * **Regional:global VC split** — §VI argues a roughly equal split
//!   supports generic traffic best.
//!
//! RA_RAIR is the Δ = 0.2, 2R:2G point of both sweeps, so it runs once.

use crate::figs::fig14::{six_app_cell, six_app_rates};
use crate::figs::{AplTable, Cell};
use crate::runner::ExpConfig;
use metrics::report::{f2, pct};
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::dpa::{DpaMode, DEFAULT_DELTA};
use rair::msp::MspConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::InterDest;

/// Every row, RO_RR first: the baselines, RA_RAIR, then RAIR at the other
/// hysteresis widths and at the other regional:global adaptive-VC splits.
pub fn cells(rates: [f64; 6]) -> Vec<Cell> {
    let base = SimConfig::table1();
    let (adaptive, regional) = (base.adaptive_vcs, base.regional_vcs);
    let split = |r: usize| format!("{r}R:{}G", adaptive - r);
    let rair = format!("RA_RAIR d={DEFAULT_DELTA} {}", split(regional));
    let mut rows: Vec<(String, usize, Scheme)> = vec![
        ("RO_RR".into(), regional, Scheme::RoRr),
        ("RO_Age".into(), regional, Scheme::RoAge),
        (
            "RO_Rank (oracle)".into(),
            regional,
            Scheme::ro_rank(rates.to_vec()),
        ),
        ("RO_RankOnline".into(), regional, Scheme::ro_rank_online(6)),
        (rair, regional, Scheme::rair()),
    ];
    for delta in [0.0, 0.1, 0.3, 0.5] {
        let dpa = DpaMode::Dynamic { delta };
        let scheme = Scheme::Rair {
            msp: MspConfig::va_and_sa(),
            dpa,
        };
        rows.push((format!("RAIR d={delta}"), regional, scheme));
    }
    for r in (0..=adaptive).filter(|&r| r != regional) {
        rows.push((format!("RAIR {}", split(r)), r, Scheme::rair()));
    }
    let global = InterDest::OutsideUniform;
    (rows.into_iter())
        .map(|(label, regional_vcs, scheme)| {
            let cfg = SimConfig {
                regional_vcs,
                ..base.clone()
            };
            six_app_cell(label, cfg, scheme, Routing::Local, rates, global.clone())
        })
        .collect()
}

/// Run every row at the six-app loads.
pub fn run(ec: &ExpConfig) -> Table {
    let title = "Ablations and baselines (six-app UR scenario)";
    table(title, &AplTable::run(ec, cells(six_app_rates(ec))))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Thirteen rows, each label once, RO_RR first and RA_RAIR labelled as
    /// the point both parameter sweeps share.
    #[test]
    fn thirteen_rows_with_unique_labels() {
        let labels: Vec<String> = cells([0.01; 6]).into_iter().map(|c| c.label).collect();
        assert_eq!(labels.len(), 13, "{labels:?}");
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "{l} twice");
        }
        assert_eq!(labels[0], "RO_RR");
        assert_eq!(labels[4], "RA_RAIR d=0.2 2R:2G");
    }
}
