//! Figure 15 — reduction of average packet latency under different global
//! traffic patterns.
//!
//! The six-application scenario of Figure 14 with its 20 % inter-region
//! component drawn from uniform random, transpose, bit complement and
//! hotspot patterns. The paper reports RA_RAIR averaging a 13.4 % APL
//! reduction over RO_RR across the patterns — demonstrating that RAIR
//! places no implicit restrictions on the global traffic pattern.

use crate::figs::fig14::{run_with_global, SixAppResult};
use crate::runner::ExpConfig;
use metrics::report::pct;
use metrics::Table;
use noc_sim::config::SimConfig;
use traffic::pattern::Pattern;
use traffic::scenario::InterDest;

/// Results per global-traffic pattern.
#[derive(Debug, Clone)]
pub struct Fig15Result {
    pub per_pattern: Vec<SixAppResult>,
}

impl Fig15Result {
    /// Average reduction of `scheme` vs RO_RR across all patterns.
    pub fn overall_reduction(&self, scheme: &str) -> f64 {
        let s: f64 = self
            .per_pattern
            .iter()
            .map(|r| r.avg_reduction(scheme, None))
            .sum();
        s / self.per_pattern.len() as f64
    }
}

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

/// Run Figure 15.
pub fn run(ec: &ExpConfig) -> Fig15Result {
    let per_pattern = patterns()
        .into_iter()
        .map(|(label, global)| run_with_global(ec, label, global))
        .collect();
    Fig15Result { per_pattern }
}

/// Render the figure's table: average APL reduction vs RO_RR per pattern.
pub fn table(res: &Fig15Result) -> Table {
    let mut t = Table::new(
        "Fig.15 — average APL reduction vs RO_RR per global traffic pattern",
        &["scheme", "UR", "TP", "BC", "HS", "avg"],
    );
    for scheme in ["RA_DBAR", "RO_Rank", "RA_RAIR"] {
        let mut row = vec![scheme.to_string()];
        for r in &res.per_pattern {
            row.push(pct(r.avg_reduction(scheme, None)));
        }
        row.push(pct(res.overall_reduction(scheme)));
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig15` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let r = run(ec);
    let avg = r.overall_reduction("RA_RAIR") * 100.0;
    let summary = format!("RA_RAIR average over patterns: {avg:+.1}%  (paper: 13.4%)");
    (vec![table(&r)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs::fig14::SixAppResult;

    #[test]
    fn overall_reduction_averages_patterns() {
        let mk = |apl: f64| SixAppResult {
            pattern: "X".into(),
            schemes: vec![
                ("RO_RR".into(), vec![20.0; 6]),
                ("RA_RAIR".into(), vec![apl; 6]),
            ],
        };
        let r = Fig15Result {
            per_pattern: vec![mk(18.0), mk(16.0)],
        };
        // Reductions 0.1 and 0.2 → 0.15 overall.
        assert!((r.overall_reduction("RA_RAIR") - 0.15).abs() < 1e-12);
    }

    #[test]
    fn pattern_list_matches_paper() {
        let labels: Vec<&str> = patterns().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["UR", "TP", "BC", "HS"]);
    }
}
