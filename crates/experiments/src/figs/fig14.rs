//! Figure 14 — the generic six-application RNoC under uniform-random
//! global traffic.
//!
//! Six regions (Fig. 13): apps 0, 2, 3, 4 at low-to-medium load (10–30 %
//! of their saturation loads), apps 1 and 5 at 90 %. Every application's
//! traffic is 75 % intra-region UR + 20 % inter-region global + 5 %
//! memory-controller corner round trips. Four schemes are compared; the
//! paper reports average APL reductions vs RO_RR of 3.4 % (RA_DBAR),
//! 5.8 % (RO_Rank) and 10.1 % (RA_RAIR).

use crate::runner::{run_one, run_parallel, ExpConfig, Job, RunResult};
use crate::sweep::{build_network, cached_saturation};
use metrics::report::{f2, pct};
use metrics::Table;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::{six_app, AppSpec, InterDest};

/// The load fractions of the six applications ("low to medium loads (10 %
/// to 30 %)" for apps 0, 2, 3, 4; 90 % for apps 1 and 5 — §V.E).
pub const LOAD_FRACTIONS: [f64; 6] = [0.10, 0.90, 0.30, 0.20, 0.25, 0.90];

/// The low/medium-load applications whose improvement the paper highlights.
pub const LOW_APPS: [usize; 4] = [0, 2, 3, 4];

/// The high-load applications.
pub const HIGH_APPS: [usize; 2] = [1, 5];

/// Per-application offered loads (flits/cycle/node): fraction × that
/// application's measured saturation load under the full 75/20/5 mix.
pub fn six_app_rates(ec: &ExpConfig) -> [f64; 6] {
    let cfg = SimConfig::table1();
    let region = RegionMap::six_regions(&cfg);
    let mix = AppSpec {
        rate_flits: 0.0,
        intra: 0.75,
        inter: 0.20,
        inter_dest: InterDest::OutsideUniform,
        mc: 0.05,
    };
    let mut rates = [0.0; 6];
    for (a, rate) in rates.iter_mut().enumerate() {
        let sat = cached_saturation(&format!("six/mix/app{a}"), ec, &cfg, &region, a as u8, &mix);
        *rate = LOAD_FRACTIONS[a] * sat;
    }
    rates
}

/// Result of one six-application comparison.
#[derive(Debug, Clone)]
pub struct SixAppResult {
    /// Global-traffic pattern label ("UR", "TP", …).
    pub pattern: String,
    /// `(scheme label, per-app APL)`, RO_RR first.
    pub schemes: Vec<(String, Vec<f64>)>,
}

impl SixAppResult {
    /// Average APL reduction of `label` vs RO_RR over the given apps (all
    /// six when `None`); positive = improvement.
    pub fn avg_reduction(&self, label: &str, apps: Option<&[usize]>) -> f64 {
        let base = &self.schemes[0].1;
        let (_, apl) = self
            .schemes
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no scheme {label}"));
        let idx: Vec<usize> = apps.map_or((0..6).collect(), <[usize]>::to_vec);
        let r: f64 = idx.iter().map(|&a| 1.0 - apl[a] / base[a]).sum();
        r / idx.len() as f64
    }
}

/// The four compared schemes, with their routing algorithms (all schemes
/// are augmented with Duato adaptive routing; RA_DBAR uses DBAR — §V.A/E).
fn schemes(rates: &[f64; 6]) -> Vec<(&'static str, Scheme, Routing)> {
    vec![
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RA_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RO_Rank", Scheme::ro_rank(rates.to_vec()), Routing::Local),
        ("RA_RAIR", Scheme::rair(), Routing::Local),
    ]
}

/// Run the six-application comparison for one global-traffic destination
/// rule. Shared by Figures 14 and 15.
pub fn run_with_global(ec: &ExpConfig, pattern_label: &str, global: InterDest) -> SixAppResult {
    let rates = six_app_rates(ec);
    let jobs: Vec<Job> = schemes(&rates)
        .into_iter()
        .map(|(label, scheme, routing)| {
            let ec = *ec;
            let label = label.to_string();
            let global = global.clone();

            Job::new(label.clone(), move || {
                let cfg = SimConfig::table1();
                let (region, scenario) = six_app(&cfg, rates, global.clone());
                let net =
                    build_network(&cfg, &region, &scheme, routing, Box::new(scenario), ec.seed);
                run_one(label.clone(), net, &ec)
            })
        })
        .collect();
    let results = run_parallel(jobs);
    SixAppResult {
        pattern: pattern_label.to_string(),
        schemes: results
            .into_iter()
            .map(|r: RunResult| {
                let apl = (0..6).map(|a| r.app_apl(a)).collect();
                (r.label, apl)
            })
            .collect(),
    }
}

/// Run Figure 14 (uniform-random global traffic).
pub fn run(ec: &ExpConfig) -> SixAppResult {
    run_with_global(ec, "UR", InterDest::OutsideUniform)
}

/// Render the figure's table: per-app APL plus average reduction vs RO_RR.
pub fn table(res: &SixAppResult) -> Table {
    let mut t = Table::new(
        format!(
            "Fig.14 — six-app RNoC, {} global traffic: APL per app (cycles)",
            res.pattern
        ),
        &[
            "scheme", "App0", "App1", "App2", "App3", "App4", "App5", "avg red.",
        ],
    );
    for (label, apl) in &res.schemes {
        let mut row = vec![label.clone()];
        row.extend(apl.iter().map(|&a| f2(a)));
        row.push(if label == "RO_RR" {
            "—".into()
        } else {
            pct(res.avg_reduction(label, None))
        });
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig14` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let r = run(ec);
    let summary = format!(
        "avg reduction vs RO_RR: RA_DBAR {:+.1}%, RO_Rank {:+.1}%, RA_RAIR {:+.1}%  (paper: 3.4%, 5.8%, 10.1%)",
        r.avg_reduction("RA_DBAR", None) * 100.0,
        r.avg_reduction("RO_Rank", None) * 100.0,
        r.avg_reduction("RA_RAIR", None) * 100.0,
    );
    (vec![table(&r)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> SixAppResult {
        SixAppResult {
            pattern: "UR".into(),
            schemes: vec![
                ("RO_RR".into(), vec![20.0; 6]),
                ("RA_RAIR".into(), vec![18.0, 22.0, 18.0, 18.0, 18.0, 22.0]),
            ],
        }
    }

    #[test]
    fn avg_reduction_all_and_subset() {
        let r = synthetic();
        // Low apps: 0.1 each; high apps: -0.1 each → overall (4*0.1-2*0.1)/6.
        let all = r.avg_reduction("RA_RAIR", None);
        assert!((all - 0.2 / 6.0).abs() < 1e-12);
        let low = r.avg_reduction("RA_RAIR", Some(&LOW_APPS));
        assert!((low - 0.1).abs() < 1e-12);
        let high = r.avg_reduction("RA_RAIR", Some(&HIGH_APPS));
        assert!((high + 0.1).abs() < 1e-12);
    }

    #[test]
    fn load_fractions_match_paper_text() {
        // Apps 1 and 5 are the 90% high-load ones; the rest are 10–30%.
        assert_eq!(LOAD_FRACTIONS[1], 0.90);
        assert_eq!(LOAD_FRACTIONS[5], 0.90);
        for a in LOW_APPS {
            assert!((0.10..=0.30).contains(&LOAD_FRACTIONS[a]));
        }
    }

    #[test]
    fn table_marks_baseline() {
        let t = table(&synthetic());
        assert_eq!(t.num_rows(), 2);
        assert!(t.render().contains("—"));
    }
}
