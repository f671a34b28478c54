//! Figure 17 — APL slowdown of PARSEC workloads under adversarial traffic.
//!
//! Four PARSEC applications run in the quadrants (Fig. 16) while a
//! malicious/buggy agent injects chip-wide uniform traffic at 0.4
//! flits/cycle/node. Each scheme's per-application APL slowdown is measured
//! relative to its own no-adversary baseline. The paper reports average
//! slowdowns of 1.92 (RO_RR), 1.75 (RA_DBAR), 1.47 (RO_Rank — even with an
//! oracle ranking the adversary lowest, batching still lets it through) and
//! 1.18 (RA_RAIR — DPA identifies the adversary as low-criticality foreign
//! traffic in every region and deprioritizes it).

use crate::runner::{run_one, run_parallel, ExpConfig, Job};
use crate::sweep::build_network;
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::{Routing, Scheme};
use traffic::adversarial::Adversarial;
use traffic::workload::{AppModel, ParsecWorkload};

/// Adversarial load used by the paper (flits/cycle/node).
pub const ADVERSARIAL_RATE: f64 = 0.4;

/// Result: per-scheme slowdowns.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// Application names in region order.
    pub apps: Vec<String>,
    /// `(scheme label, per-app slowdown, average slowdown)`.
    pub schemes: Vec<(String, Vec<f64>, f64)>,
}

impl Fig17Result {
    /// Average slowdown of `label`.
    pub fn avg_slowdown(&self, label: &str) -> f64 {
        self.schemes
            .iter()
            .find(|(l, _, _)| l == label)
            .unwrap_or_else(|| panic!("no scheme {label}"))
            .2
    }
}

fn schemes(models: &[AppModel]) -> Vec<(&'static str, Scheme, Routing)> {
    let intensities: Vec<f64> = models.iter().map(AppModel::mean_rate).collect();
    vec![
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RA_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RO_Rank", Scheme::ro_rank(intensities), Routing::Local),
        ("RA_RAIR", Scheme::rair(), Routing::Local),
    ]
}

/// Run Figure 17: for each scheme, one baseline run (no adversary) and one
/// adversarial run; slowdown = APL_adv / APL_base per application.
pub fn run(ec: &ExpConfig) -> Fig17Result {
    let models = AppModel::parsec_four();
    let mut jobs: Vec<Job> = Vec::new();
    for (label, scheme, routing) in schemes(&models) {
        for adversarial in [false, true] {
            let ec = *ec;
            let scheme = scheme.clone();
            let models = models.clone();
            let label = format!("{label}{}", if adversarial { "+adv" } else { "" });
            jobs.push(Job::new(label.clone(), move || {
                let cfg = SimConfig::table1_req_reply();
                let region = RegionMap::quadrants(&cfg);
                let workload = ParsecWorkload::new(&cfg, &region, models.clone());
                let net = if adversarial {
                    let adv = Adversarial::new(
                        workload,
                        ADVERSARIAL_RATE,
                        cfg.num_nodes() as u16,
                        cfg.long_flits,
                    );
                    build_network(&cfg, &region, &scheme, routing, Box::new(adv), ec.seed)
                } else {
                    build_network(&cfg, &region, &scheme, routing, Box::new(workload), ec.seed)
                };
                run_one(label.clone(), net, &ec)
            }));
        }
    }
    let results = run_parallel(jobs);
    let mut out = Vec::new();
    for pair in results.chunks(2) {
        let base = &pair[0];
        let adv = &pair[1];
        let slow: Vec<f64> = (0..4).map(|a| adv.app_apl(a) / base.app_apl(a)).collect();
        let avg = slow.iter().sum::<f64>() / slow.len() as f64;
        out.push((base.label.clone(), slow, avg));
    }
    Fig17Result {
        apps: AppModel::parsec_four()
            .into_iter()
            .map(|m| m.name)
            .collect(),
        schemes: out,
    }
}

/// Render the figure's table.
pub fn table(res: &Fig17Result) -> Table {
    let header: Vec<String> = std::iter::once("scheme".to_string())
        .chain(res.apps.iter().cloned())
        .chain(std::iter::once("avg".to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig.17 — APL slowdown under adversarial traffic (lower is better)",
        &header_refs,
    );
    for (label, slow, avg) in &res.schemes {
        let mut row = vec![label.clone()];
        row.extend(slow.iter().map(|&s| f2(s)));
        row.push(f2(*avg));
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig17` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let r = run(ec);
    let summary = format!(
        "avg slowdowns: RO_RR {:.2}, RA_DBAR {:.2}, RO_Rank {:.2}, RA_RAIR {:.2}  (paper: 1.92, 1.75, 1.47, 1.18)",
        r.avg_slowdown("RO_RR"),
        r.avg_slowdown("RA_DBAR"),
        r.avg_slowdown("RO_Rank"),
        r.avg_slowdown("RA_RAIR"),
    );
    (vec![table(&r)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_slowdown_lookup() {
        let r = Fig17Result {
            apps: vec!["a".into(), "b".into()],
            schemes: vec![("RO_RR".into(), vec![2.0, 4.0], 3.0)],
        };
        assert_eq!(r.avg_slowdown("RO_RR"), 3.0);
        let t = table(&r);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("3.00"));
    }

    #[test]
    #[should_panic(expected = "no scheme")]
    fn unknown_scheme_panics() {
        Fig17Result {
            apps: vec![],
            schemes: vec![],
        }
        .avg_slowdown("X");
    }

    #[test]
    fn adversarial_rate_matches_paper() {
        assert_eq!(ADVERSARIAL_RATE, 0.4);
    }
}
