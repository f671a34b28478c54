//! Figure 14 — the generic six-application RNoC under uniform-random
//! global traffic.
//!
//! Six regions (Fig. 13): apps 0, 2, 3, 4 at low-to-medium load (10–30 %
//! of their saturation loads), apps 1 and 5 at 90 %. Every application's
//! traffic is 75 % intra-region UR + 20 % inter-region global + 5 %
//! memory-controller corner round trips. Four schemes are compared; the
//! paper reports average APL reductions vs RO_RR of 3.4 % (RA_DBAR),
//! 5.8 % (RO_Rank) and 10.1 % (RA_RAIR).

use crate::figs::{AplTable, Cell};
use crate::runner::ExpConfig;
use crate::sweep::cached_saturation;
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

/// One cell on the six-application scenario of Fig. 13 under `cfg`, with
/// the applications at `rates` flits/cycle/node and global traffic drawn
/// by `global` — shared by Figure 15 and the ablations.
pub fn six_app_cell(
    label: impl Into<String>,
    cfg: SimConfig,
    scheme: Scheme,
    routing: Routing,
    rates: [f64; 6],
    global: InterDest,
) -> Cell {
    Cell::new(label, scheme, routing, move || {
        let (region, scenario) = six_app(&cfg, rates, global.clone());
        (cfg.clone(), region, Box::new(scenario))
    })
}

/// The four compared cells, RO_RR first (all schemes are augmented with
/// Duato adaptive routing; RA_DBAR uses DBAR — §V.A/E).
pub fn cells(rates: [f64; 6], global: &InterDest) -> Vec<Cell> {
    [
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RA_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RO_Rank", Scheme::ro_rank(rates.to_vec()), Routing::Local),
        ("RA_RAIR", Scheme::rair(), Routing::Local),
    ]
    .into_iter()
    .map(|(label, scheme, routing)| {
        let cfg = SimConfig::table1();
        six_app_cell(label, cfg, scheme, routing, rates, global.clone())
    })
    .collect()
}

/// Run Figure 14 (uniform-random global traffic).
pub fn run(ec: &ExpConfig) -> AplTable {
    AplTable::run(ec, cells(six_app_rates(ec), &InterDest::OutsideUniform))
}

/// Render the figure's table: per-app APL plus average reduction vs RO_RR.
pub fn table(res: &AplTable) -> Table {
    let mut t = Table::new(
        "Fig.14 — six-app RNoC, UR global traffic: APL per app (cycles)",
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
        let res = AplTable {
            schemes: vec![
                ("RO_RR".into(), vec![20.0; 6]),
                ("RA_RAIR".into(), vec![18.0, 22.0, 18.0, 18.0, 18.0, 22.0]),
            ],
        };
        let t = table(&res);
        assert_eq!(t.num_rows(), 2);
        assert!(t.render().contains("—"));
    }
}
