//! Per-figure experiment drivers. Each module regenerates one table or
//! figure of the paper's evaluation section (§V) and renders the same
//! rows/series the paper reports.
//!
//! Every simulated figure is the same operation: a list of [`Cell`]s —
//! (label, scheme, routing, traffic) — run on identical traffic by
//! [`run_cells`] and read back as an [`AplTable`], whose
//! [`AplTable::avg_reduction`] is the paper's "average APL reduction vs
//! RO_RR". Each driver exposes its cell list as a function of its loads, so
//! tests run the very same cells at pinned rates without a saturation
//! search, and seed replication has one place to go.

pub mod ablation;
pub mod curve;
pub mod fig10;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig9;
pub mod lbdr_analysis;
pub mod oracle_check;
pub mod resilience;
pub mod table1;
pub mod trace_demo;

use crate::runner::{run_one, ExpConfig, RunResult};
use crate::service::pool::{self, Task};
use crate::service::Journal;
use crate::sweep::{build_network, cached_saturation};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::source::TrafficSource;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::AppSpec;

/// What a cell builds inside its pooled task: the configuration, the region
/// map and the traffic source of one simulation.
pub type Build = dyn Fn() -> (SimConfig, RegionMap, Box<dyn TrafficSource>) + Send + Sync;

/// One row of a figure: a (scheme, routing) pair on traffic that `build`
/// constructs inside the pooled task (so retries rebuild it from scratch).
pub struct Cell {
    /// Row label; also the pool task's label and the result's.
    pub label: String,
    pub scheme: Scheme,
    pub routing: Routing,
    pub build: Box<Build>,
}

impl Cell {
    pub fn new(
        label: impl Into<String>,
        scheme: Scheme,
        routing: Routing,
        build: impl Fn() -> (SimConfig, RegionMap, Box<dyn TrafficSource>) + Send + Sync + 'static,
    ) -> Cell {
        Cell {
            label: label.into(),
            scheme,
            routing,
            build: Box::new(build),
        }
    }

    /// The pool task that builds this cell's network and runs it through
    /// `ec`'s windows, seeded with `ec.seed`.
    pub fn job(self, ec: &ExpConfig) -> Task {
        let ec = *ec;
        Task::new(self.label.clone(), move || {
            let (cfg, region, source) = (self.build)();
            let net = build_network(&cfg, &region, &self.scheme, self.routing, source, ec.seed);
            run_one(self.label.clone(), net, &ec)
        })
    }
}

/// Run `cells` on the supervised pool ([`crate::service::pool`]); results
/// come back in cell order. Panics — after every cell has finished — if any
/// failed, listing the failed labels: a figure needs all of its cells, just
/// not before the sweep completes.
///
/// With a `journal` the sweep resumes: cells whose `done` row survives from
/// an interrupted run are replayed instead of re-run (labels must then be
/// unique — a cell's journal key is its label digest), and the file is
/// removed once every cell has succeeded.
pub fn run_cells(ec: &ExpConfig, cells: Vec<Cell>, journal: Option<&Journal>) -> Vec<RunResult> {
    let tasks = cells.into_iter().map(|c| c.job(ec)).collect();
    let results = pool::run_sweep(tasks, journal);
    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.as_ref().err().map(ToString::to_string))
        .collect();
    assert!(
        failures.is_empty(),
        "{} sweep job(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    results.into_iter().flatten().collect()
}

/// Per-application APL of labelled rows run on identical traffic, row 0
/// the baseline every reduction is taken against (RO_RR in every figure).
#[derive(Debug, Clone)]
pub struct AplTable {
    /// `(row label, per-app APL)` in cell order; `NaN` marks an app that
    /// delivered nothing, so every ratio over it is `NaN` too.
    pub schemes: Vec<(String, Vec<f64>)>,
}

impl AplTable {
    /// Run `cells` and keep every application's APL per row.
    pub fn run(ec: &ExpConfig, cells: Vec<Cell>) -> AplTable {
        let schemes = run_cells(ec, cells, None)
            .into_iter()
            .map(|r| {
                let apl = (0..r.apl.len()).map(|a| r.app_apl(a)).collect();
                (r.label, apl)
            })
            .collect();
        AplTable { schemes }
    }

    /// Per-application APL of row `label`.
    pub fn apl(&self, label: &str) -> &[f64] {
        match self.schemes.iter().find(|(l, _)| l == label) {
            Some((_, apl)) => apl,
            None => panic!("no row {label} in the APL table"),
        }
    }

    /// APL reduction of `label` vs row 0 for application `app` (positive =
    /// improvement).
    pub fn reduction(&self, label: &str, app: usize) -> f64 {
        1.0 - self.apl(label)[app] / self.schemes[0].1[app]
    }

    /// [`AplTable::reduction`] averaged over `apps` (every application of
    /// the row when `None`), summed in the order given — the paper's
    /// "average APL reduction".
    pub fn avg_reduction(&self, label: &str, apps: Option<&[usize]>) -> f64 {
        let idx: Vec<usize> =
            apps.map_or_else(|| (0..self.apl(label).len()).collect(), <[usize]>::to_vec);
        idx.iter().map(|&a| self.reduction(label, a)).sum::<f64>() / idx.len() as f64
    }

    /// Relative APL change of `label` over row `base` for application `app`
    /// (negative = improvement).
    pub fn change(&self, label: &str, base: &str, app: usize) -> f64 {
        self.apl(label)[app] / self.apl(base)[app] - 1.0
    }
}

/// Reference loads for the two-application scenario of Figs. 8–10:
/// App 0 at 10 % and App 1 at 90 % of the half-mesh intra-region
/// uniform-random saturation load (flits/cycle/node).
///
/// The saturation search measures the *admission cliff*; the usable latency
/// knee of our 3-stage router sits ~10 % below it. The p sweep pours App
/// 0's entire inter-region load on top of App 1's region, so the reference
/// is derated to the knee — otherwise the p = 100 % point operates *past*
/// saturation and latencies grow with the window length instead of
/// reflecting steady-state interference (the paper's operating points are
/// clearly sub-saturation: its Fig. 9 latencies stay in the tens of
/// cycles).
pub(crate) fn two_app_rates(ec: &ExpConfig) -> (f64, f64) {
    let cfg = SimConfig::table1();
    let region = RegionMap::halves(&cfg);
    let sat = 0.9
        * cached_saturation(
            "halves/intra",
            ec,
            &cfg,
            &region,
            0,
            &AppSpec::intra_only(0.0),
        );
    (0.10 * sat, 0.90 * sat)
}

/// Quadrant-region intra-region saturation (Figs. 11–12 reference load).
pub(crate) fn quadrant_sat(ec: &ExpConfig) -> f64 {
    let cfg = SimConfig::table1();
    let region = RegionMap::quadrants(&cfg);
    cached_saturation(
        "quadrants/intra",
        ec,
        &cfg,
        &region,
        0,
        &AppSpec::intra_only(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::prelude::{NewPacket, ScriptedSource};

    fn synthetic() -> AplTable {
        AplTable {
            schemes: vec![
                ("RO_RR".into(), vec![20.0, 20.0, 20.0, 40.0]),
                ("RAIR".into(), vec![16.0, 18.0, 14.0, 44.0]),
                ("starved".into(), vec![16.0, f64::NAN, 14.0, 44.0]),
            ],
        }
    }

    /// The one lookup and the one reduction, table-driven: all apps, a
    /// subset, the baseline row against itself, the relative change, an
    /// app that delivered nothing propagating `NaN`, and a missing row
    /// panicking with its label.
    #[test]
    fn apl_table_lookups_and_reductions() {
        let t = synthetic();
        assert_eq!(t.apl("RAIR"), &[16.0, 18.0, 14.0, 44.0]);
        // Per-app reductions 0.2, 0.1, 0.3, -0.1.
        let close = |x: f64, want: f64| (x - want).abs() < 1e-12;
        for (label, apps, want) in [
            ("RAIR", None, 0.125),
            ("RAIR", Some(&[0usize, 2][..]), 0.25),
            ("RAIR", Some(&[3][..]), -0.1),
            ("RO_RR", None, 0.0),
            ("starved", Some(&[0, 2][..]), 0.25),
        ] {
            let got = t.avg_reduction(label, apps);
            assert!(close(got, want), "{label} {apps:?}: {got} != {want}");
        }
        assert!(close(t.reduction("RAIR", 1), 0.1));
        assert!(close(t.change("RAIR", "RO_RR", 3), 0.1));
        assert!(close(t.change("RO_RR", "RAIR", 0), 0.25));
        assert!(t.avg_reduction("starved", None).is_nan());
        assert!(t.reduction("starved", 1).is_nan());
        let missing = std::panic::catch_unwind(|| t.avg_reduction("NOPE", None));
        let payload = missing.expect_err("a missing row must panic");
        let msg = payload.downcast_ref::<String>().cloned();
        assert_eq!(msg.as_deref(), Some("no row NOPE in the APL table"));
    }

    fn ec() -> ExpConfig {
        ExpConfig {
            warmup: 1_000,
            measure: 2_500,
            seed: 0,
            quick: true,
        }
    }

    /// A one-packet cell whose packet is injected at cycle `1100 + i`, in
    /// the measurement window.
    fn tiny_cell(i: u64) -> Cell {
        Cell::new(format!("job{i}"), Scheme::RoRr, Routing::Local, move || {
            let cfg = SimConfig::table1();
            let pkt = NewPacket {
                dst: 9,
                app: 0,
                class: 0,
                size: 1,
                reply: None,
            };
            let source = ScriptedSource::new(1, vec![(1_100 + i, 0, pkt)]);
            let region = RegionMap::single(&cfg);
            (cfg, region, Box::new(source))
        })
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let serial: Vec<RunResult> = (0..6).map(|i| (tiny_cell(i).job(&ec()).run)()).collect();
        let parallel = run_cells(&ec(), (0..6).map(tiny_cell).collect(), None);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(p.label, format!("job{i}"));
            assert_eq!(s.label, p.label);
            assert_eq!(s.delivered, p.delivered);
            assert_eq!(s.apl, p.apl, "parallelism changed results");
        }
    }

    #[test]
    fn run_cells_reports_failed_labels() {
        let doomed = Cell::new("doomed", Scheme::RoRr, Routing::Local, || panic!("nope"));
        let run = std::panic::AssertUnwindSafe(|| run_cells(&ec(), vec![doomed], None));
        let caught = std::panic::catch_unwind(run);
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("doomed"), "missing label in: {msg}");
    }

    #[test]
    fn empty_cells_ok() {
        assert!(run_cells(&ec(), vec![], None).is_empty());
    }
}
