//! Load-latency curves — the standard NoC characterization underlying the
//! paper's "% of saturation load" methodology (§V.A). Not a numbered
//! figure, but the curve makes the measured saturation loads (and the knee
//! behavior every scenario is positioned against) reproducible and
//! inspectable.

use crate::figs::{run_cells, Cell};
use crate::runner::{ExpConfig, RunResult};
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::{Routing, Scheme};
use traffic::pattern::Pattern;
use traffic::scenario::{AppSpec, InterDest, Scenario};

/// `steps` evenly spaced offered loads up to `max_rate` flits/cycle/node.
fn rates(max_rate: f64, steps: usize) -> impl Iterator<Item = f64> {
    (1..=steps).map(move |i| max_rate * i as f64 / steps as f64)
}

/// One cell per offered load of a chip-wide `pattern` under RO_RR + local
/// adaptive routing (the reference configuration used for saturation
/// search).
pub fn cells(pattern: &Pattern, max_rate: f64, steps: usize) -> Vec<Cell> {
    rates(max_rate, steps)
        .map(|rate| {
            let pattern = pattern.clone();
            let label = format!("curve/rate={rate:.3}");
            Cell::new(label, Scheme::RoRr, Routing::Local, move || {
                let cfg = SimConfig::table1();
                let region = RegionMap::single(&cfg);
                let spec = AppSpec {
                    rate_flits: rate,
                    intra: 0.0,
                    inter: 1.0,
                    inter_dest: InterDest::Pattern(pattern.clone()),
                    mc: 0.0,
                };
                let scenario = Scenario::new(&cfg, &region, vec![Some(spec)]);
                (cfg, region, Box::new(scenario))
            })
        })
        .collect()
}

/// Sweep offered load: `(offered flits/cycle/node, result)` per point.
pub fn run(
    ec: &ExpConfig,
    pattern: &Pattern,
    max_rate: f64,
    steps: usize,
) -> Vec<(f64, RunResult)> {
    let results = run_cells(ec, cells(pattern, max_rate, steps));
    rates(max_rate, steps).zip(results).collect()
}

/// Render the curve: mean network and total APL (`—` past saturation
/// collapse, when nothing was delivered) and delivered throughput.
pub fn table(pattern: &Pattern, points: &[(f64, RunResult)]) -> Table {
    let mut t = Table::new(
        format!(
            "Load-latency curve — {} (RO_RR, local adaptive)",
            pattern.label()
        ),
        &["offered", "APL(net)", "APL(total)", "throughput"],
    );
    for (rate, r) in points {
        t.row(vec![
            format!("{rate:.3}"),
            r.apl[0].map_or("—".into(), f2),
            r.total_latency[0].map_or("—".into(), f2),
            format!("{:.3}", r.throughput),
        ]);
    }
    t
}

/// The knee estimate: first offered load where total latency exceeds
/// 3× the first point's latency (or the last stable point).
pub fn knee(points: &[(f64, RunResult)]) -> Option<f64> {
    let base = points.first()?.1.total_latency[0]?;
    for (rate, r) in points {
        match r.total_latency[0] {
            Some(t) if t > 3.0 * base => return Some(*rate),
            None => return Some(*rate),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_enough_and_has_a_knee() {
        let ec = ExpConfig {
            warmup: 1_000,
            measure: 5_000,
            seed: 3,
            quick: true,
            cycle_budget: None,
        };
        let c = run(&ec, &Pattern::UniformRandom, 0.6, 6);
        assert_eq!(c.len(), 6);
        // Latency at the lightest load is near zero-load (~20 cycles).
        let first = c[0].1.apl[0].unwrap();
        assert!((10.0..40.0).contains(&first), "zero-load APL {first}");
        // Throughput rises with offered load up to saturation.
        assert!(c[2].1.throughput > c[0].1.throughput);
        // A knee exists below the 0.6 ceiling for UR on an 8x8 mesh.
        let k = knee(&c).expect("no knee found");
        assert!((0.1..=0.6).contains(&k), "knee {k}");
        // And the rendered table has one row per point.
        assert_eq!(table(&Pattern::UniformRandom, &c).num_rows(), 6);
    }
}
