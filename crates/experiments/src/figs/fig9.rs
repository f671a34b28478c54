//! Figure 9 — impact of multi-stage prioritization.
//!
//! Two applications on the mesh halves (Fig. 8): App 0 at 10 % of its
//! saturation load with a fraction `p` of inter-region traffic, App 1 at
//! 90 %, all intra-region. Sweeping `p` from 0 % to 100 % compares RO_RR
//! against RAIR with MSP at the VA stage only (`RAIR_VA`) and at both VA
//! and SA stages (`RAIR_VA+SA`). Paper claims at p = 100 %: RAIR_VA+SA
//! reduces App 0's APL by 18.9 % with < 3 % increase for App 1, and
//! RAIR_VA+SA > RAIR_VA across the whole range.

use crate::figs::two_app_rates;
use crate::runner::{run_one, run_parallel, ExpConfig, Job, RunResult};
use crate::sweep::build_network;
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::two_app;

/// One point of a two-application sweep.
#[derive(Debug, Clone)]
pub struct TwoAppPoint {
    /// Inter-region fraction of App 0's traffic.
    pub p: f64,
    /// APL of App 0 and App 1 (cycles).
    pub apl: [f64; 2],
}

/// A set of labelled series over the `p` sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub series: Vec<(String, Vec<TwoAppPoint>)>,
}

impl SweepResult {
    /// Point of `series_label` at inter-region fraction `p`.
    pub fn point(&self, series_label: &str, p: f64) -> &TwoAppPoint {
        self.series
            .iter()
            .find(|(l, _)| l == series_label)
            .unwrap_or_else(|| panic!("no series {series_label}"))
            .1
            .iter()
            .find(|pt| (pt.p - p).abs() < 1e-9)
            .unwrap_or_else(|| panic!("no point p={p}"))
    }
}

/// The swept inter-region fractions.
pub fn p_values(ec: &ExpConfig) -> Vec<f64> {
    if ec.quick {
        vec![0.0, 0.5, 1.0]
    } else {
        (0..=10).map(|i| i as f64 / 10.0).collect()
    }
}

/// Generic two-application sweep over (label, scheme, routing) series —
/// shared by Figures 9 and 10.
pub(crate) fn sweep(ec: &ExpConfig, series_defs: &[(&str, Scheme, Routing)]) -> SweepResult {
    let (rate0, rate1) = two_app_rates(ec);
    let ps = p_values(ec);
    let mut jobs: Vec<Job> = Vec::new();
    for (label, scheme, routing) in series_defs.iter().cloned() {
        for &p in &ps {
            let ec = *ec;
            let scheme = scheme.clone();
            let label = label.to_string();
            jobs.push(Job::new(format!("{label}/p={p}"), move || {
                let cfg = SimConfig::table1();
                let (region, scenario) = two_app(&cfg, p, rate0, rate1);
                let net =
                    build_network(&cfg, &region, &scheme, routing, Box::new(scenario), ec.seed);
                run_one(label.clone(), net, &ec)
            }));
        }
    }
    let results = run_parallel(jobs);
    let mut series = Vec::new();
    let mut it = results.into_iter();
    for (label, _, _) in series_defs {
        let pts: Vec<TwoAppPoint> = ps
            .iter()
            .map(|&p| {
                let r: RunResult = it.next().unwrap();
                TwoAppPoint {
                    p,
                    apl: [r.app_apl(0), r.app_apl(1)],
                }
            })
            .collect();
        series.push((label.to_string(), pts));
    }
    SweepResult { series }
}

/// Run the Figure 9 experiment.
pub fn run(ec: &ExpConfig) -> SweepResult {
    sweep(
        ec,
        &[
            ("RO_RR", Scheme::RoRr, Routing::Local),
            ("RAIR_VA", Scheme::rair_va_only(), Routing::Local),
            ("RAIR_VA+SA", Scheme::rair(), Routing::Local),
        ],
    )
}

/// Render the sweep as the figure's series table.
pub fn table(title: &str, res: &SweepResult) -> Table {
    let mut header: Vec<String> = vec!["p".into()];
    for (label, _) in &res.series {
        header.push(format!("{label}:App0"));
        header.push(format!("{label}:App1"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    let n = res.series[0].1.len();
    for i in 0..n {
        let mut row = vec![format!("{:.0}%", res.series[0].1[i].p * 100.0)];
        for (_, pts) in &res.series {
            row.push(f2(pts[i].apl[0]));
            row.push(f2(pts[i].apl[1]));
        }
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig9` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let r = run(ec);
    let (base, full) = (r.point("RO_RR", 1.0), r.point("RAIR_VA+SA", 1.0));
    let summary = format!(
        "at p=100%: RAIR_VA+SA vs RO_RR: App0 {:+.1}%, App1 {:+.1}%  (paper: -18.9%, <+3%)",
        (full.apl[0] / base.apl[0] - 1.0) * 100.0,
        (full.apl[1] / base.apl[1] - 1.0) * 100.0,
    );
    let title = "Fig.9 — APL vs inter-region fraction p (MSP stages)";
    (vec![table(title, &r)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> SweepResult {
        SweepResult {
            series: vec![
                (
                    "RO_RR".into(),
                    vec![
                        TwoAppPoint {
                            p: 0.0,
                            apl: [18.0, 25.0],
                        },
                        TwoAppPoint {
                            p: 1.0,
                            apl: [37.0, 32.0],
                        },
                    ],
                ),
                (
                    "RAIR_VA+SA".into(),
                    vec![
                        TwoAppPoint {
                            p: 0.0,
                            apl: [18.0, 25.0],
                        },
                        TwoAppPoint {
                            p: 1.0,
                            apl: [28.0, 33.0],
                        },
                    ],
                ),
            ],
        }
    }

    #[test]
    fn point_lookup() {
        let r = synthetic();
        assert_eq!(r.point("RO_RR", 1.0).apl[0], 37.0);
        assert_eq!(r.point("RAIR_VA+SA", 0.0).apl[1], 25.0);
    }

    #[test]
    #[should_panic(expected = "no series")]
    fn missing_series_panics() {
        synthetic().point("NOPE", 0.0);
    }

    #[test]
    #[should_panic(expected = "no point")]
    fn missing_point_panics() {
        synthetic().point("RO_RR", 0.37);
    }

    #[test]
    fn table_has_row_per_p_and_column_per_series_app() {
        let r = synthetic();
        let t = table("t", &r);
        assert_eq!(t.num_rows(), 2);
        let s = t.render();
        assert!(s.contains("RO_RR:App0"));
        assert!(s.contains("RAIR_VA+SA:App1"));
        assert!(s.contains("100%"));
    }

    #[test]
    fn p_values_quick_vs_full() {
        let quick = ExpConfig::quick();
        let full = ExpConfig::full();
        assert_eq!(p_values(&quick).len(), 3);
        assert_eq!(p_values(&full).len(), 11);
        assert_eq!(*p_values(&full).last().unwrap(), 1.0);
    }
}
