//! Figure 9 — impact of multi-stage prioritization.
//!
//! Two applications on the mesh halves (Fig. 8): App 0 at 10 % of its
//! saturation load with a fraction `p` of inter-region traffic, App 1 at
//! 90 %, all intra-region. Sweeping `p` from 0 % to 100 % compares RO_RR
//! against RAIR with MSP at the VA stage only (`RAIR_VA`) and at both VA
//! and SA stages (`RAIR_VA+SA`). Paper claims at p = 100 %: RAIR_VA+SA
//! reduces App 0's APL by 18.9 % with < 3 % increase for App 1, and
//! RAIR_VA+SA > RAIR_VA across the whole range.

use crate::figs::{two_app_rates, AplTable, Cell};
use crate::runner::ExpConfig;
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::two_app;

/// One series of a two-application sweep: `(label, scheme, routing)`.
pub type Series = (&'static str, Scheme, Routing);

/// The swept inter-region fractions.
pub fn p_values(ec: &ExpConfig) -> Vec<f64> {
    if ec.quick {
        vec![0.0, 0.5, 1.0]
    } else {
        (0..=10).map(|i| i as f64 / 10.0).collect()
    }
}

/// The compared series: RO_RR and RAIR with MSP at VA only and at VA+SA.
pub fn series() -> Vec<Series> {
    vec![
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RAIR_VA", Scheme::rair_va_only(), Routing::Local),
        ("RAIR_VA+SA", Scheme::rair(), Routing::Local),
    ]
}

/// Row label of `series` at inter-region fraction `p` (`RO_RR/p=1`).
pub fn cell_label(series: &str, p: f64) -> String {
    format!("{series}/p={p}")
}

/// One cell per (series, p), series-major, on the two-application scenario
/// with App 0 at `rate0` and App 1 at `rate1` flits/cycle/node — shared by
/// Figures 9 and 10.
pub fn cells(series: &[Series], ps: &[f64], (rate0, rate1): (f64, f64)) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, scheme, routing) in series {
        for &p in ps {
            cells.push(Cell::new(
                cell_label(label, p),
                scheme.clone(),
                *routing,
                move || {
                    let cfg = SimConfig::table1();
                    let (region, scenario) = two_app(&cfg, p, rate0, rate1);
                    (cfg, region, Box::new(scenario))
                },
            ));
        }
    }
    cells
}

/// Run `series` over the p sweep at the Fig. 8 reference loads and render
/// it under `title` — shared by Figures 9 and 10.
pub(crate) fn sweep(ec: &ExpConfig, title: &str, series: &[Series]) -> (Table, AplTable) {
    let ps = p_values(ec);
    let res = AplTable::run(ec, cells(series, &ps, two_app_rates(ec)));
    (table(title, series, &ps, &res), res)
}

/// The sweep as the figure's series table: one row per `p`, an App 0 and an
/// App 1 column per series.
pub fn table(title: &str, series: &[Series], ps: &[f64], res: &AplTable) -> Table {
    let mut header: Vec<String> = vec!["p".into()];
    for (label, ..) in series {
        header.push(format!("{label}:App0"));
        header.push(format!("{label}:App1"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    for &p in ps {
        let mut row = vec![format!("{:.0}%", p * 100.0)];
        for (label, ..) in series {
            let apl = res.apl(&cell_label(label, p));
            row.push(f2(apl[0]));
            row.push(f2(apl[1]));
        }
        t.row(row);
    }
    t
}

/// Run and render: the table `repro fig9` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let title = "Fig.9 — APL vs inter-region fraction p (MSP stages)";
    let (t, r) = sweep(ec, title, &series());
    let (base, full) = (cell_label("RO_RR", 1.0), cell_label("RAIR_VA+SA", 1.0));
    let summary = format!(
        "at p=100%: RAIR_VA+SA vs RO_RR: App0 {:+.1}%, App1 {:+.1}%  (paper: -18.9%, <+3%)",
        r.change(&full, &base, 0) * 100.0,
        r.change(&full, &base, 1) * 100.0,
    );
    (vec![t], summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_row_per_p_and_column_per_series_app() {
        let ps = [0.0, 1.0];
        let series = series();
        let schemes = series
            .iter()
            .flat_map(|(label, ..)| ps.map(|p| (cell_label(label, p), vec![18.0, 25.0])))
            .collect();
        let t = table("t", &series, &ps, &AplTable { schemes });
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
