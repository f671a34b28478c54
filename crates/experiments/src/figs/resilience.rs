//! Resilience experiment: fault rate × scheme × routing sweep under
//! link-level retransmission and one permanent link kill mid-measurement.
//!
//! For every (scheme, routing) pair the sweep runs a fault-free baseline
//! plus one run per transient BER; every faulted run additionally kills
//! one central mesh link a quarter of the way into the measurement window
//! (so the reported numbers include reroute + re-verification cost).
//! Reported per cell: delivered fraction (delivered / (delivered +
//! dropped)), latency inflation vs the same pair's fault-free baseline,
//! retransmission overhead (retransmissions per injected flit), and the
//! reconfiguration count. The sweep goes through the checkpointed runner,
//! so an interrupted `repro resilience` resumes instead of restarting.

use crate::figs::Cell;
use crate::runner::{run_parallel_checkpointed, ExpConfig, RunResult};
use crate::service::{std_store, Journal};
use metrics::report::{Table, Value};
use noc_sim::config::SimConfig;
use noc_sim::prelude::{FaultEvent, FaultTimeline, ScheduledFault};
use rair::scheme::{Routing, Scheme};
use traffic::scenario::two_app;

/// Transient corruption rates swept (per link traversal). `0.0` is the
/// fault-free baseline each pair's inflation is measured against.
const BERS_FULL: &[f64] = &[0.0, 1e-4, 1e-3, 1e-2];
const BERS_SMOKE: &[f64] = &[0.0, 1e-3];

/// The link killed in every faulted run: a central vertical link, chosen
/// to sit inside both applications' traffic.
const KILL_ROUTER: u16 = 27;
const KILL_PORT: usize = 2; // east

/// One cell of the resilience matrix.
#[derive(Debug, Clone)]
pub struct ResilRow {
    pub scheme: String,
    pub routing: String,
    /// Transient BER of the cell; 0.0 = fault-free baseline (no link kill
    /// either).
    pub ber: f64,
    pub delivered: u64,
    pub dropped: u64,
    /// delivered / (delivered + dropped); 1.0 when nothing was dropped.
    pub delivered_fraction: f64,
    /// Mean APL over applications (NaN when nothing delivered).
    pub apl: f64,
    /// APL ratio vs the same (scheme, routing) fault-free baseline.
    pub latency_inflation: f64,
    pub flits_retransmitted: u64,
    /// Retransmissions per injected flit.
    pub retransmit_overhead: f64,
    pub packets_retried: u64,
    pub reconfigurations: u64,
    pub oracle_violations: u64,
}

/// The swept (scheme, routing) pairs.
fn pairs(smoke: bool) -> Vec<(Scheme, Routing)> {
    if smoke {
        vec![(Scheme::rair(), Routing::Local)]
    } else {
        vec![
            (Scheme::RoRr, Routing::Local),
            (Scheme::rair(), Routing::Local),
            (Scheme::rair(), Routing::Dbar),
        ]
    }
}

/// Cell label, also the checkpoint key: the windows and seed are folded
/// in so a checkpoint written by a differently-sized sweep (e.g. a smoke
/// run) can never satisfy a full one.
fn cell_label(ec: &ExpConfig, scheme: &Scheme, routing: Routing, ber: f64) -> String {
    format!(
        "{}/{}/ber={ber:.0e}/w{}m{}s{}",
        scheme.label(),
        routing.label(),
        ec.warmup,
        ec.measure,
        ec.seed
    )
}

/// The timeline for one cell: transient corruption at `ber` plus, for
/// faulted cells, one permanent link kill a quarter into measurement.
fn timeline(ec: &ExpConfig, ber: f64) -> FaultTimeline {
    if ber == 0.0 {
        return FaultTimeline::default();
    }
    FaultTimeline {
        transient_ber: ber,
        seed: ec.seed ^ 0xFA17,
        events: vec![ScheduledFault {
            cycle: ec.warmup + ec.measure / 4,
            event: FaultEvent::LinkDown {
                router: KILL_ROUTER,
                port: KILL_PORT,
            },
        }],
    }
}

/// Run the sweep. `smoke` shrinks the matrix to one pair and two rates
/// for CI. Results checkpoint under `results/` so an interrupted sweep
/// resumes.
pub fn run(ec: &ExpConfig, smoke: bool) -> Vec<ResilRow> {
    let bers: &[f64] = if smoke { BERS_SMOKE } else { BERS_FULL };
    let mut jobs = Vec::new();
    let mut cells = Vec::new();
    for (scheme, routing) in pairs(smoke) {
        for &ber in bers {
            let label = cell_label(ec, &scheme, routing, ber);
            cells.push((scheme.label().to_string(), routing, ber));
            let fault = timeline(ec, ber);
            let cell = Cell::new(label, scheme.clone(), routing, move || {
                let mut cfg = SimConfig::table1();
                cfg.fault = fault.clone();
                let (region, scenario) = two_app(&cfg, 1.0, 0.04, 0.15);
                (cfg, region, Box::new(scenario))
            });
            jobs.push(cell.job(ec));
        }
    }
    let checkpoint = Journal::new(
        std::path::Path::new("results").join("RESILIENCE.checkpoint"),
        std_store(),
    );
    let results: Vec<RunResult> = run_parallel_checkpointed(jobs, &checkpoint)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("resilience sweep failed: {e}"));

    // Per-pair fault-free APL baselines for the inflation column.
    let baseline_apl = |scheme: &str, routing: Routing| -> f64 {
        cells
            .iter()
            .zip(&results)
            .find(|((s, r, ber), _)| s == scheme && *r == routing && *ber == 0.0)
            .map_or(f64::NAN, |(_, res)| res.mean_apl(None))
    };
    cells
        .iter()
        .zip(&results)
        .map(|((scheme, routing, ber), r)| {
            let injected = r.delivered + r.packets_dropped;
            let delivered_fraction = if injected == 0 {
                1.0
            } else {
                r.delivered as f64 / injected as f64
            };
            let apl = r.mean_apl(None);
            ResilRow {
                scheme: scheme.clone(),
                routing: routing.label().to_string(),
                ber: *ber,
                delivered: r.delivered,
                dropped: r.packets_dropped,
                delivered_fraction,
                apl,
                latency_inflation: apl / baseline_apl(scheme, *routing),
                flits_retransmitted: r.flits_retransmitted,
                retransmit_overhead: if r.throughput > 0.0 {
                    r.flits_retransmitted as f64
                        / (r.throughput * r.cycles as f64 * r.routers as f64)
                } else {
                    0.0
                },
                packets_retried: r.packets_retried,
                reconfigurations: r.reconfigurations,
                oracle_violations: r.oracle_violations,
            }
        })
        .collect()
}

/// The matrix as the one report: the text table and the `rows` of
/// `RESILIENCE_report.json`. BER and inflation print as `1e-3` and `1.25x`
/// but are numbers in JSON, where a starved cell's NaN is `null`.
pub fn table(rows: &[ResilRow]) -> Table {
    Table::of(
        "Resilience — delivered fraction / latency inflation under faults",
        rows,
        &[
            ("scheme", "scheme", |r| r.scheme.clone().into()),
            ("routing", "routing", |r| r.routing.clone().into()),
            ("BER", "", |r| format!("{:.0e}", r.ber).into()),
            ("", "ber", |r| Value::Float(r.ber, 0)),
            ("delivered", "delivered", |r| r.delivered.into()),
            ("dropped", "dropped", |r| r.dropped.into()),
            ("frac", "delivered_fraction", |r| {
                Value::Float(r.delivered_fraction, 4)
            }),
            ("", "apl", |r| Value::Float(r.apl, 0)),
            ("inflation", "", |r| {
                format!("{:.2}x", r.latency_inflation).into()
            }),
            ("", "latency_inflation", |r| {
                Value::Float(r.latency_inflation, 0)
            }),
            ("retx", "flits_retransmitted", |r| {
                r.flits_retransmitted.into()
            }),
            ("retx/flit", "retransmit_overhead", |r| {
                Value::Float(r.retransmit_overhead, 4)
            }),
            ("retried", "packets_retried", |r| r.packets_retried.into()),
            ("reconfig", "reconfigurations", |r| {
                r.reconfigurations.into()
            }),
            ("", "oracle_violations", |r| r.oracle_violations.into()),
        ],
    )
}

/// The worst delivered fraction across faulted (BER > 0) cells — the
/// headline acceptance number.
pub fn worst_fraction(rows: &[ResilRow]) -> f64 {
    rows.iter()
        .filter(|r| r.ber > 0.0)
        .map(|r| r.delivered_fraction)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_meets_acceptance() {
        let ec = ExpConfig {
            warmup: 800,
            measure: 2_400,
            seed: 0xC0FFEE,
            quick: true,
            cycle_budget: None,
        };
        // The checkpoint key embeds the windows/seed, so this test can
        // never poison (or be poisoned by) a real `repro resilience` run.
        let rows = run(&ec, true);
        assert_eq!(rows.len(), 2);
        let base = &rows[0];
        let faulted = &rows[1];
        assert_eq!(base.ber, 0.0);
        assert_eq!(base.reconfigurations, 0);
        assert_eq!(base.dropped, 0, "fault-free baseline dropped packets");
        assert!((base.delivered_fraction - 1.0).abs() < 1e-12);
        assert!(faulted.ber > 0.0);
        assert_eq!(faulted.reconfigurations, 1, "link kill must reconfigure");
        assert!(faulted.flits_retransmitted > 0, "BER exercised no ARQ");
        assert!(
            faulted.delivered_fraction >= 0.99,
            "delivered fraction {:.4}",
            faulted.delivered_fraction
        );
        assert!(
            faulted.latency_inflation.is_finite() && faulted.latency_inflation > 0.8,
            "implausible inflation {}",
            faulted.latency_inflation
        );
        assert!(worst_fraction(&rows) >= 0.99);
        assert_eq!(table(&rows).num_rows(), 2);
    }
}
