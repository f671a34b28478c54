//! Load-latency curves — the standard NoC characterization underlying the
//! paper's "% of saturation load" methodology (§V.A). Not a numbered
//! figure, but the curve makes the measured saturation loads (and the knee
//! behavior every scenario is positioned against) reproducible and
//! inspectable.

use crate::runner::{run_one, run_parallel, ExpConfig, Job};
use crate::sweep::build_network;
use metrics::report::f2;
use metrics::Table;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::{Routing, Scheme};
use traffic::pattern::Pattern;
use traffic::scenario::{AppSpec, InterDest, Scenario};

/// One load-latency curve.
#[derive(Debug, Clone)]
pub struct Curve {
    pub pattern: String,
    /// `(offered flits/cycle/node, mean network APL, mean total APL,
    /// delivered throughput)` points; latency is `None` past saturation
    /// collapse (nothing delivered).
    pub points: Vec<(f64, Option<f64>, Option<f64>, f64)>,
}

/// Sweep offered load for a chip-wide pattern under RO_RR + local adaptive
/// routing (the reference configuration used for saturation search).
pub fn run(ec: &ExpConfig, pattern: Pattern, max_rate: f64, steps: usize) -> Curve {
    let jobs: Vec<Job> = (1..=steps)
        .map(|i| {
            let rate = max_rate * i as f64 / steps as f64;
            let ec = *ec;
            let pattern = pattern.clone();
            Job::new(format!("curve/rate={rate:.3}"), move || {
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
                let net = build_network(
                    &cfg,
                    &region,
                    &Scheme::RoRr,
                    Routing::Local,
                    Box::new(scenario),
                    ec.seed,
                );
                run_one(format!("{rate:.3}"), net, &ec)
            })
        })
        .collect();
    let results = run_parallel(jobs);
    Curve {
        pattern: pattern_label(&pattern),
        points: results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let rate = max_rate * (i + 1) as f64 / steps as f64;
                (rate, r.apl[0], r.total_latency[0], r.throughput)
            })
            .collect(),
    }
}

fn pattern_label(p: &Pattern) -> String {
    p.label().to_string()
}

/// Render the curve with a latency sparkline.
pub fn table(c: &Curve) -> Table {
    let mut t = Table::new(
        format!("Load-latency curve — {} (RO_RR, local adaptive)", c.pattern),
        &["offered", "APL(net)", "APL(total)", "throughput"],
    );
    for (rate, net, total, thpt) in &c.points {
        t.row(vec![
            format!("{rate:.3}"),
            net.map_or("—".into(), f2),
            total.map_or("—".into(), f2),
            format!("{thpt:.3}"),
        ]);
    }
    t
}

/// The knee estimate: first offered load where total latency exceeds
/// 3× the first point's latency (or the last stable point).
pub fn knee(c: &Curve) -> Option<f64> {
    let base = c.points.first()?.2?;
    for (rate, _, total, _) in &c.points {
        match total {
            Some(t) if *t > 3.0 * base => return Some(*rate),
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
        let c = run(&ec, Pattern::UniformRandom, 0.6, 6);
        assert_eq!(c.points.len(), 6);
        // Latency at the lightest load is near zero-load (~20 cycles).
        let first = c.points[0].1.unwrap();
        assert!((10.0..40.0).contains(&first), "zero-load APL {first}");
        // Throughput rises with offered load up to saturation.
        assert!(c.points[2].3 > c.points[0].3);
        // A knee exists below the 0.6 ceiling for UR on an 8x8 mesh.
        let k = knee(&c).expect("no knee found");
        assert!((0.1..=0.6).contains(&k), "knee {k}");
        // And the rendered table has one row per point.
        assert_eq!(table(&c).num_rows(), 6);
    }
}
