//! Figures 9 and 10 — one two-application sweep, two comparisons.
//!
//! Two applications on the mesh halves (Fig. 8): App 0 at 10 % of its
//! saturation load with a fraction `p` (0 → 100 %) of inter-region traffic,
//! App 1 at 90 %, all intra-region. Fig. 9 compares the MSP stages (RO_RR,
//! RAIR_VA, RAIR_VA+SA on local adaptive routing), Fig. 10 {RO_RR, RAIR} ×
//! {local adaptive, DBAR}, whose local series are Fig. 9's RO_RR and
//! RAIR_VA+SA cells. The paper's claims at p = 100 % are the headlines'
//! `paper:` values (RAIR_VA+SA > RAIR_VA across the whole range, and most
//! of RAIR_DBAR's win is contention reduction, not route selection).

use crate::figs::{two_app_rates, AplTable, Cell};
use crate::runner::ExpConfig;
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::two_app;

/// A figure read from the sweep: its title and its columns, each a
/// `(header label, series label)` pair.
type Figure = (&'static str, &'static [(&'static str, &'static str)]);

const FIG9: Figure = (
    "Fig.9 — APL vs inter-region fraction p (MSP stages)",
    &[
        ("RO_RR", "RO_RR"),
        ("RAIR_VA", "RAIR_VA"),
        ("RAIR_VA+SA", "RAIR_VA+SA"),
    ],
);

const FIG10: Figure = (
    "Fig.10 — APL vs inter-region fraction p (routing algorithms)",
    &[
        ("RO_RR_Local", "RO_RR"),
        ("RAIR_Local", "RAIR_VA+SA"),
        ("RO_RR_DBAR", "RO_RR_DBAR"),
        ("RAIR_DBAR", "RAIR_DBAR"),
    ],
);

/// The swept inter-region fractions.
pub fn p_values(ec: &ExpConfig) -> Vec<f64> {
    if ec.quick {
        vec![0.0, 0.5, 1.0]
    } else {
        (0..=10).map(|i| i as f64 / 10.0).collect()
    }
}

/// The swept series `(label, scheme, routing)`.
fn series() -> [(&'static str, Scheme, Routing); 5] {
    [
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RAIR_VA", Scheme::rair_va_only(), Routing::Local),
        ("RAIR_VA+SA", Scheme::rair(), Routing::Local),
        ("RO_RR_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RAIR_DBAR", Scheme::rair(), Routing::Dbar),
    ]
}

/// Row label of `series` at inter-region fraction `p` (`RO_RR/p=1`).
pub fn cell_label(series: &str, p: f64) -> String {
    format!("{series}/p={p}")
}

/// One cell per (series, p), series-major, on the two-application scenario
/// with App 0 at `rate0` and App 1 at `rate1` flits/cycle/node.
pub fn cells(ps: &[f64], (rate0, rate1): (f64, f64)) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, scheme, routing) in series() {
        for &p in ps {
            cells.push(Cell::new(
                cell_label(label, p),
                scheme.clone(),
                routing,
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

/// A figure's table: one row per `p`, an App 0 and an App 1 column per
/// column, read from that column's series.
fn table((title, columns): Figure, ps: &[f64], res: &AplTable) -> Table {
    let mut header: Vec<String> = vec!["p".into()];
    for (head, _) in columns {
        header.push(format!("{head}:App0"));
        header.push(format!("{head}:App1"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    for &p in ps {
        let mut row = vec![format!("{:.0}%", p * 100.0)];
        for (_, series) in columns {
            let apl = res.apl(&cell_label(series, p));
            row.push(f2(apl[0]));
            row.push(f2(apl[1]));
        }
        t.row(row);
    }
    t
}

/// Run the sweep once at the Fig. 8 reference loads and render what `repro
/// fig9` prints: Fig. 9's table and headline, then Fig. 10's.
pub fn report(ec: &ExpConfig) -> [(Vec<Table>, String); 2] {
    let ps = p_values(ec);
    let r = AplTable::run(ec, cells(&ps, two_app_rates(ec)));
    let [base, full, bd, rd] =
        ["RO_RR", "RAIR_VA+SA", "RO_RR_DBAR", "RAIR_DBAR"].map(|s| cell_label(s, 1.0));
    let fig9 = format!(
        "at p=100%: RAIR_VA+SA vs RO_RR: App0 {:+.1}%, App1 {:+.1}%  (paper: -18.9%, <+3%)",
        r.change(&full, &base, 0) * 100.0,
        r.change(&full, &base, 1) * 100.0,
    );
    let fig10 = format!(
        "at p=100%: RAIR_DBAR vs RO_RR_Local: App0 {:+.1}%, App1 {:+.1}% (paper: -24.8%, -3.3%); vs RO_RR_DBAR: App0 {:+.1}%, App1 {:+.1}% (paper: -12.8%, +1.8%)",
        r.change(&rd, &base, 0) * 100.0,
        r.change(&rd, &base, 1) * 100.0,
        r.change(&rd, &bd, 0) * 100.0,
        r.change(&rd, &bd, 1) * 100.0,
    );
    [
        (vec![table(FIG9, &ps, &r)], fig9),
        (vec![table(FIG10, &ps, &r)], fig10),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both figures read one cell list: five series per p, no label and no
    /// (scheme, routing) pair twice at one p, and every column of either
    /// table found among the cells (`AplTable::apl` panics on a miss).
    #[test]
    fn one_cell_list_serves_both_figures() {
        let ps = [0.0, 1.0];
        let cells = cells(&ps, (0.01, 0.1));
        assert_eq!(cells.len(), 5 * ps.len());
        let key = |c: &Cell| {
            let p = c.label.rsplit_once('=').map(|(_, p)| p.to_owned());
            (p, c.scheme.clone(), c.routing)
        };
        for (i, c) in cells.iter().enumerate() {
            let twin = cells[..i]
                .iter()
                .find(|d| d.label == c.label || key(d) == key(c));
            assert!(twin.is_none(), "{} repeats a cell", c.label);
        }
        let schemes = cells.iter().map(|c| (c.label.clone(), vec![18.0, 25.0]));
        let res = AplTable {
            schemes: schemes.collect(),
        };
        for (figure, head) in [(FIG9, "RAIR_VA+SA:App1"), (FIG10, "RO_RR_Local:App0")] {
            let t = table(figure, &ps, &res);
            assert_eq!(t.num_rows(), 2);
            assert!(t.render().contains(head) && t.render().contains("100%"));
        }
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
