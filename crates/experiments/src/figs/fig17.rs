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

use crate::figs::{AplTable, Cell};
use crate::runner::ExpConfig;
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::source::TrafficSource;
use rair::scheme::{Routing, Scheme};
use traffic::adversarial::Adversarial;
use traffic::workload::{AppModel, ParsecWorkload};

/// Adversarial load used by the paper (flits/cycle/node).
pub const ADVERSARIAL_RATE: f64 = 0.4;

/// Per scheme, a no-adversary cell (`RO_RR`) followed by the same scheme
/// under chip-wide uniform adversarial traffic at `adv_rate`
/// flits/cycle/node (`RO_RR+adv`).
pub fn cells(adv_rate: f64) -> Vec<Cell> {
    let models = AppModel::parsec_four();
    let intensities: Vec<f64> = models.iter().map(AppModel::mean_rate).collect();
    let schemes = [
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RA_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RO_Rank", Scheme::ro_rank(intensities), Routing::Local),
        ("RA_RAIR", Scheme::rair(), Routing::Local),
    ];
    let mut cells = Vec::new();
    for (label, scheme, routing) in schemes {
        for adversarial in [false, true] {
            let models = models.clone();
            let label = format!("{label}{}", if adversarial { "+adv" } else { "" });
            cells.push(Cell::new(label, scheme.clone(), routing, move || {
                let cfg = SimConfig::table1_req_reply();
                let region = RegionMap::quadrants(&cfg);
                let workload = ParsecWorkload::new(&cfg, &region, models.clone());
                let source: Box<dyn TrafficSource> = if adversarial {
                    let nodes = cfg.num_nodes() as u16;
                    Box::new(Adversarial::new(workload, adv_rate, nodes, cfg.long_flits))
                } else {
                    Box::new(workload)
                };
                (cfg, region, source)
            }));
        }
    }
    cells
}

/// Per-application APL slowdown of scheme `label`: APL with the adversary
/// over APL without, for each PARSEC application.
pub fn slowdowns(res: &AplTable, label: &str) -> Vec<f64> {
    let adv = res.apl(&format!("{label}+adv"));
    res.apl(label).iter().zip(adv).map(|(b, a)| a / b).collect()
}

/// Average of [`slowdowns`] over the applications.
pub fn avg_slowdown(res: &AplTable, label: &str) -> f64 {
    let slow = slowdowns(res, label);
    slow.iter().sum::<f64>() / slow.len() as f64
}

/// Render the figure's table: per-app and average slowdown per scheme.
pub fn table(res: &AplTable) -> Table {
    let header: Vec<String> = std::iter::once("scheme".to_string())
        .chain(AppModel::parsec_four().into_iter().map(|m| m.name))
        .chain(std::iter::once("avg".to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig.17 — APL slowdown under adversarial traffic (lower is better)",
        &header_refs,
    );
    for (label, _) in res.schemes.iter().filter(|(l, _)| !l.ends_with("+adv")) {
        let mut row = vec![label.clone()];
        row.extend(slowdowns(res, label).iter().map(|&s| f2(s)));
        row.push(f2(avg_slowdown(res, label)));
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig17` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let r = AplTable::run(ec, cells(ADVERSARIAL_RATE));
    let summary = format!(
        "avg slowdowns: RO_RR {:.2}, RA_DBAR {:.2}, RO_Rank {:.2}, RA_RAIR {:.2}  (paper: 1.92, 1.75, 1.47, 1.18)",
        avg_slowdown(&r, "RO_RR"),
        avg_slowdown(&r, "RA_DBAR"),
        avg_slowdown(&r, "RO_Rank"),
        avg_slowdown(&r, "RA_RAIR"),
    );
    (vec![table(&r)], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_pair_each_scheme_with_its_adversarial_run() {
        let res = AplTable {
            schemes: vec![
                ("RO_RR".into(), vec![10.0, 20.0, 10.0, 10.0]),
                // The adversary is a fifth application: its column is ignored.
                ("RO_RR+adv".into(), vec![20.0, 80.0, 20.0, 40.0, 99.0]),
            ],
        };
        assert_eq!(slowdowns(&res, "RO_RR"), vec![2.0, 4.0, 2.0, 4.0]);
        assert_eq!(avg_slowdown(&res, "RO_RR"), 3.0);
        let t = table(&res);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("3.00"));
    }

    #[test]
    fn adversarial_rate_matches_paper() {
        assert_eq!(ADVERSARIAL_RATE, 0.4);
    }
}
