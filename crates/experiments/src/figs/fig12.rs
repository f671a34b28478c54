//! Figure 12 — impact of dynamic priority adaptation.
//!
//! Two contrasting four-application scenarios (Fig. 11):
//!
//! * **(a)** apps 0–2 low load with 30 % of their traffic into app 3's
//!   region; app 3 high load, intra-region. Prioritizing *foreign* traffic
//!   should win (the low apps' global packets traverse region 3).
//! * **(b)** apps 0–2 low load, intra-region; app 3 high load with 30 %
//!   sprayed into the other regions. Prioritizing *native* traffic should
//!   win (the low apps defend against app 3's foreign flood).
//!
//! Neither fixed policy wins both; DPA adapts and matches the better one in
//! each — the paper reports 12.8 % (a) and 12.2 % (b) average APL
//! reduction for RAIR_DPA over RO_RR.

use crate::figs::quadrant_sat;
use crate::runner::{run_one, run_parallel, ExpConfig, Job, RunResult};
use crate::sweep::build_network;
use metrics::report::pct;
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::{four_app_dpa_a, four_app_dpa_b};

/// Which Fig. 11 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Low apps send into the hot region.
    A,
    /// The hot app sprays into the low regions.
    B,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::A => "a",
            Variant::B => "b",
        }
    }
}

/// Results for one scenario variant.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    pub variant: Variant,
    /// `(label, per-app APL)`, RO_RR first.
    pub schemes: Vec<(String, Vec<f64>)>,
}

impl Fig12Result {
    /// APL reduction of `label` vs RO_RR, averaged over applications
    /// (positive = improvement).
    pub fn avg_reduction(&self, label: &str) -> f64 {
        let base = &self.schemes[0].1;
        let (_, apl) = self
            .schemes
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no scheme {label}"));
        let per_app: Vec<f64> = apl.iter().zip(base).map(|(a, b)| 1.0 - a / b).collect();
        per_app.iter().sum::<f64>() / per_app.len() as f64
    }
}

fn schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("RO_RR", Scheme::RoRr),
        ("RAIR_NativeH", Scheme::rair_native_high()),
        ("RAIR_ForeignH", Scheme::rair_foreign_high()),
        ("RAIR_DPA", Scheme::rair()),
    ]
}

/// Run one variant.
pub fn run_variant(ec: &ExpConfig, variant: Variant) -> Fig12Result {
    // Low apps at 5 % and the hot app at 90 % of the quadrant's intra-region
    // saturation load. The paper gives no numeric loads for Fig. 11; these
    // keep region 3's total offered load (its own 90 % plus the three low
    // apps' 30 % inter-region shares in scenario (a)) just below saturation,
    // which reproduces the paper's reported DPA gains (see EXPERIMENTS.md).
    let sat = quadrant_sat(ec);
    let (low, high) = (0.05 * sat, 0.90 * sat);
    let jobs: Vec<Job> = schemes()
        .into_iter()
        .map(|(label, scheme)| {
            let ec = *ec;
            let label = label.to_string();

            Job::new(label.clone(), move || {
                let cfg = SimConfig::table1();
                let (region, scenario) = match variant {
                    Variant::A => four_app_dpa_a(&cfg, low, high),
                    Variant::B => four_app_dpa_b(&cfg, low, high),
                };
                let net = build_network(
                    &cfg,
                    &region,
                    &scheme,
                    Routing::Local,
                    Box::new(scenario),
                    ec.seed,
                );
                run_one(label.clone(), net, &ec)
            })
        })
        .collect();
    let results = run_parallel(jobs);
    Fig12Result {
        variant,
        schemes: results
            .into_iter()
            .map(|r: RunResult| {
                let apl = (0..4).map(|a| r.app_apl(a)).collect();
                (r.label, apl)
            })
            .collect(),
    }
}

/// Run both variants.
pub fn run(ec: &ExpConfig) -> (Fig12Result, Fig12Result) {
    (run_variant(ec, Variant::A), run_variant(ec, Variant::B))
}

/// Render one variant's table: APL reduction vs RO_RR per app + average.
pub fn table(res: &Fig12Result) -> Table {
    let mut t = Table::new(
        format!(
            "Fig.12({}) — APL reduction vs RO_RR (DPA scenarios)",
            res.variant.label()
        ),
        &["scheme", "App0", "App1", "App2", "App3", "avg"],
    );
    let base = res.schemes[0].1.clone();
    for (label, apl) in res.schemes.iter().skip(1) {
        let red: Vec<f64> = apl.iter().zip(&base).map(|(a, b)| 1.0 - a / b).collect();
        let avg = red.iter().sum::<f64>() / red.len() as f64;
        let mut row = vec![label.clone()];
        row.extend(red.iter().map(|&r| pct(r)));
        row.push(pct(avg));
        t.row(row);
    }
    t
}

/// Run and render: the two tables `repro fig12` prints, and the headline.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let (a, b) = run(ec);
    let summary = format!(
        "RAIR_DPA avg reduction: (a) {:+.1}%, (b) {:+.1}%  (paper: 12.8%, 12.2%)",
        a.avg_reduction("RAIR_DPA") * 100.0,
        b.avg_reduction("RAIR_DPA") * 100.0,
    );
    (vec![table(&a), table(&b)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Fig12Result {
        Fig12Result {
            variant: Variant::A,
            schemes: vec![
                ("RO_RR".into(), vec![20.0, 20.0, 20.0, 40.0]),
                ("RAIR_DPA".into(), vec![16.0, 18.0, 14.0, 44.0]),
            ],
        }
    }

    #[test]
    fn avg_reduction_arithmetic() {
        let r = synthetic();
        // Per-app reductions: 0.2, 0.1, 0.3, -0.1 → avg 0.125.
        assert!((r.avg_reduction("RAIR_DPA") - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no scheme")]
    fn unknown_scheme_panics() {
        synthetic().avg_reduction("NOPE");
    }

    #[test]
    fn table_skips_baseline_row() {
        let t = table(&synthetic());
        assert_eq!(t.num_rows(), 1);
        let s = t.render();
        assert!(s.contains("RAIR_DPA"));
        assert!(s.contains("+12.5%"));
        assert!(s.contains("(a)"));
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::A.label(), "a");
        assert_eq!(Variant::B.label(), "b");
    }
}
