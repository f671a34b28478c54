//! Figure 15 — reduction of average packet latency under different global
//! traffic patterns.
//!
//! The six-application scenario of Figure 14 with its 20 % inter-region
//! component drawn from uniform random, transpose, bit complement and
//! hotspot patterns. The paper reports RA_RAIR averaging a 13.4 % APL
//! reduction over RO_RR across the patterns — demonstrating that RAIR
//! places no implicit restrictions on the global traffic pattern.

use crate::figs::fig14::{cells, six_app_rates};
use crate::figs::AplTable;
use crate::runner::ExpConfig;
use metrics::report::pct;
use metrics::Table;
use noc_sim::config::SimConfig;
use traffic::pattern::Pattern;
use traffic::scenario::InterDest;

/// The swept global-traffic patterns.
pub fn patterns() -> Vec<(&'static str, InterDest)> {
    let cfg = SimConfig::table1();
    vec![
        ("UR", InterDest::OutsideUniform),
        ("TP", InterDest::Pattern(Pattern::Transpose)),
        ("BC", InterDest::Pattern(Pattern::BitComplement)),
        (
            "HS",
            InterDest::Pattern(Pattern::Hotspot {
                spots: Pattern::center_hotspots(&cfg),
                bias: 0.5,
            }),
        ),
    ]
}

/// Average reduction of `scheme` vs RO_RR across the per-pattern tables.
fn overall_reduction(per_pattern: &[AplTable], scheme: &str) -> f64 {
    let s: f64 = per_pattern
        .iter()
        .map(|r| r.avg_reduction(scheme, None))
        .sum();
    s / per_pattern.len() as f64
}

/// Render the figure's table from one [`AplTable`] per pattern of
/// [`patterns`]: average APL reduction vs RO_RR per pattern.
pub fn table(per_pattern: &[AplTable]) -> Table {
    let mut t = Table::new(
        "Fig.15 — average APL reduction vs RO_RR per global traffic pattern",
        &["scheme", "UR", "TP", "BC", "HS", "avg"],
    );
    for scheme in ["RA_DBAR", "RO_Rank", "RA_RAIR"] {
        let mut row = vec![scheme.to_string()];
        for r in per_pattern {
            row.push(pct(r.avg_reduction(scheme, None)));
        }
        row.push(pct(overall_reduction(per_pattern, scheme)));
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig15` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let rates = six_app_rates(ec);
    let per_pattern: Vec<AplTable> = patterns()
        .iter()
        .map(|(_, global)| AplTable::run(ec, cells(rates, global)))
        .collect();
    let avg = overall_reduction(&per_pattern, "RA_RAIR") * 100.0;
    let summary = format!("RA_RAIR average over patterns: {avg:+.1}%  (paper: 13.4%)");
    (vec![table(&per_pattern)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_reduction_averages_patterns() {
        let mk = |apl: f64| AplTable {
            schemes: vec![
                ("RO_RR".into(), vec![20.0; 6]),
                ("RA_RAIR".into(), vec![apl; 6]),
            ],
        };
        // Reductions 0.1 and 0.2 → 0.15 overall.
        let r = overall_reduction(&[mk(18.0), mk(16.0)], "RA_RAIR");
        assert!((r - 0.15).abs() < 1e-12);
    }

    #[test]
    fn pattern_list_matches_paper() {
        let labels: Vec<&str> = patterns().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["UR", "TP", "BC", "HS"]);
    }
}
