//! Saturation-load measurement.
//!
//! The paper expresses every injection rate as a percentage of an
//! application's *saturation load* (e.g. "App 1 at 90 % of its saturation
//! load"). The saturation load depends on the traffic pattern, the region
//! layout and the routing algorithm, so we measure it the way network
//! architects do: search the offered load for the knee where the network
//! stops admitting the offered traffic (source queues start growing without
//! bound). The result is a cell of the dyadic grid a bisection of
//! `[0, max_rate]` walks; [`search_saturation`] reaches it in fewer
//! simulations by reading the accepted throughput that every unstable
//! probe already measures.

use crate::scenario::{AppSpec, PacketMix, Scenario};
use noc_sim::arbitration::RoundRobin;
use noc_sim::config::SimConfig;
use noc_sim::ids::AppId;
use noc_sim::network::Network;
use noc_sim::region::RegionMap;
use noc_sim::routing::RoutingAlgorithm;

/// A trial is *stable* when the end-of-run source backlog is below this
/// fraction of the packets offered during the whole trial.
pub const BACKLOG_FRACTION: f64 = 0.03;

/// A trial is also *unstable* once mean total packet latency exceeds this
/// multiple of the zero-load latency: a loose guard, because the primary
/// criterion is admission (backlog), which matches the paper's near-knee
/// "90% of saturation" operating points.
pub const LATENCY_BLOWUP: f64 = 8.0;

/// Parameters for a saturation search.
#[derive(Debug, Clone, Copy)]
pub struct SaturationProbe {
    /// Warmup cycles per trial.
    pub warmup: u64,
    /// Measurement cycles per trial.
    pub measure: u64,
    /// Depth of the search grid: the load is resolved to one cell of
    /// `max_rate / 2^iters` (what that many interval halvings reach).
    pub iters: u32,
}

impl Default for SaturationProbe {
    fn default() -> Self {
        Self {
            warmup: 2_000,
            measure: 8_000,
            iters: 7,
        }
    }
}

impl SaturationProbe {
    /// RNG seed of every trial: one saturation load per configuration,
    /// whatever seed the simulations that run at it use.
    pub const SEED: u64 = 0xA11CE;

    /// A faster, coarser probe for tests and quick mode.
    pub fn quick() -> Self {
        Self {
            warmup: 500,
            measure: 3_000,
            iters: 5,
        }
    }

    /// Fold every parameter that affects the measured saturation value into
    /// `d` — part of the collision-proof persistent-cache key. The key
    /// names the whole stability criterion, so its two constants go in
    /// too, between the windows and the grid depth; the constant seed
    /// keeps its place after the depth, so existing keys still match.
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        d.write_u64(self.warmup);
        d.write_u64(self.measure);
        d.write_f64(BACKLOG_FRACTION);
        d.write_f64(LATENCY_BLOWUP);
        d.write_u64(self.iters as u64);
        d.write_u64(Self::SEED);
    }
}

/// A model-derived hint for a saturation search. **Ignored**: the search
/// extrapolates from its own probes ([`search_saturation`]) and never
/// consults a model. The type and the `hint` argument of
/// [`app_saturation_traced`] survive only as the call shape the frozen
/// benchmark harness (`rair-bench/src/layers.rs`) compiles against; both go
/// with ROADMAP item 4's `benchmark` PR.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart {
    /// Predicted saturation load (same units as the search domain).
    pub predicted: f64,
}

/// Result of a traced saturation search.
#[derive(Debug, Clone, Copy)]
pub struct SearchOutcome {
    /// The measured saturation load.
    pub load: f64,
    /// Full simulations executed, including the zero-load latency
    /// reference (a bisection would run `iters + 2`).
    pub simulations: u32,
}

/// Rate of point `k` (`0..=2^iters`) of the level-`iters` dyadic grid of
/// `[0, max_rate]`, produced by the arithmetic of an interval-halving
/// search whose up/down decisions are the bits of `k`. Every probe and the
/// returned load are therefore the exact `f64` a bisection computes, for
/// any `max_rate` (`max_rate * k / 2^iters` is an ulp off for e.g. 0.7).
fn grid_rate(iters: u32, max_rate: f64, k: u64) -> f64 {
    if k >> iters != 0 {
        return max_rate;
    }
    let (mut lo, mut hi) = (0.0_f64, max_rate);
    for bit in (0..iters).rev() {
        let mid = 0.5 * (lo + hi);
        if (k >> bit) & 1 == 1 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Probes a bisection of a `width`-cell bracket still needs: `⌈log2 width⌉`.
fn bisection_depth(width: u64) -> u32 {
    u64::BITS - (width - 1).leading_zeros()
}

/// The saturation search core: the highest stable point of the
/// level-`iters` dyadic grid of `[0, max_rate]`, and the number of `probe`
/// evaluations spent finding it.
///
/// `probe(rate)` must be a deterministic function of the rate returning
/// `(stable, knee_estimate)`. The estimate is read only from unstable
/// probes and is advisory: it places the next probe, it never decides a
/// cell. `max_rate` is probed first (stable there ⇒ it is returned). Then
/// the bracket `(lo, hi)` — `lo` stable (`0` by premise, never probed),
/// `hi` unstable — closes on one cell: each probe goes to the grid cell
/// under the estimate of the current `hi`, strictly inside the bracket;
/// while probes come back stable the next one steps up by 1, 2, 4 … cells,
/// and every new unstable probe brings a new estimate. The search ends with
/// `lo` verified stable and `lo + 1` verified unstable, which under the
/// monotone-stability premise any bracketing search rests on is *the* cell
/// a bisection converges to — same `f64`, bit for bit (`grid_rate`).
///
/// A guess may shrink the bracket by a single cell, so it is taken only
/// while bisecting what it could leave still fits `2 * iters + 2` probes in
/// total; otherwise the probe is the midpoint. Garbage estimates (NaN, ±∞,
/// negative, above `max_rate`) therefore cost at most `iters + 1` probes
/// over a bisection and never the result.
pub fn search_saturation(
    iters: u32,
    max_rate: f64,
    mut probe: impl FnMut(f64) -> (bool, f64),
) -> (f64, u32) {
    assert!(
        iters <= 52,
        "a {iters}-level grid is finer than f64 resolves"
    );
    let cells = 1u64 << iters;
    let (stable, mut knee) = probe(max_rate);
    if stable {
        return (max_rate, 1);
    }
    let mut probes = 1;
    let (mut lo, mut hi) = (0, cells);
    // Cells to step up from `lo`; 0 = aim under `knee` instead.
    let mut step = 0;
    while hi - lo > 1 {
        let width = hi - lo;
        let aim = if probes + 1 + bisection_depth(width - 1) > 2 * iters + 2 {
            lo + width / 2
        } else if step > 0 {
            lo + step
        } else {
            // Saturating cast: NaN and negatives land on 0, +∞ on the top.
            (knee / max_rate * cells as f64) as u64
        };
        let k = aim.clamp(lo + 1, hi - 1);
        probes += 1;
        match probe(grid_rate(iters, max_rate, k)) {
            (true, _) => {
                lo = k;
                step = (2 * step).max(1);
            }
            (false, estimate) => {
                hi = k;
                knee = estimate;
                step = 0;
            }
        }
    }
    (grid_rate(iters, max_rate, lo), probes)
}

/// The stability measurement a saturation search evaluates:
/// `build(rate)` constructs a fresh network offering `rate`
/// flits/cycle/node over `active_nodes` nodes. Runs the zero-load latency
/// reference once, then returns the probe [`search_saturation`] takes:
/// `rate -> (stable, knee_estimate)`. The estimate is a by-product of the
/// backlog criterion: a run that left `backlog` of its `offered` packets
/// in the source queues accepted `rate * (1 - backlog / offered)`, and at
/// the knee that fraction is exactly [`BACKLOG_FRACTION`].
fn stability_oracle<'a>(
    probe: &'a SaturationProbe,
    active_nodes: usize,
    max_rate: f64,
    mut build: impl FnMut(f64) -> Network + 'a,
) -> impl FnMut(f64) -> (bool, f64) + 'a {
    // Zero-load latency reference for the latency-knee criterion.
    let zero_load = {
        let mut net = build((0.02 * max_rate).max(1e-3));
        net.run_warmup_measure(probe.warmup, probe.measure);
        net.stats
            .recorder
            .overall_mean(metrics::LatencyKind::Total)
            .unwrap_or(20.0)
    };
    move |rate: f64| {
        let mut net = build(rate);
        net.run_warmup_measure(probe.warmup, probe.measure);
        let total_cycles = probe.warmup + probe.measure;
        let offered_packets =
            rate / PacketMix::of(&net.cfg).mean_flits() * active_nodes as f64 * total_cycles as f64;
        let backlog = net.total_backlog() as f64;
        let backlog_ok = backlog < BACKLOG_FRACTION * offered_packets;
        let latency_ok = net
            .stats
            .recorder
            .overall_mean(metrics::LatencyKind::Total)
            .is_some_and(|l| l <= LATENCY_BLOWUP * zero_load);
        let accepted = rate * (1.0 - backlog / offered_packets);
        (
            backlog_ok && latency_ok,
            accepted / (1.0 - BACKLOG_FRACTION),
        )
    }
}

/// `(active nodes, network builder)` of application `app` running *alone*
/// with its configured traffic mix (all other applications silent), under
/// round-robin arbitration and the given routing algorithm.
fn app_alone<'a>(
    cfg: &'a SimConfig,
    region: &'a RegionMap,
    app: AppId,
    spec: &'a AppSpec,
    routing: impl Fn() -> Box<dyn RoutingAlgorithm> + 'a,
) -> (usize, impl FnMut(f64) -> Network + 'a) {
    let active = region.nodes_of(app).len();
    assert!(active > 0, "app {app} has no nodes");
    (active, move |rate| {
        let mut specs: Vec<Option<AppSpec>> = vec![None; region.num_apps()];
        specs[app as usize] = Some(AppSpec {
            rate_flits: rate,
            ..spec.clone()
        });
        let scenario = Scenario::new(cfg, region, specs);
        Network::new(
            cfg.clone(),
            region.clone(),
            routing(),
            Box::new(RoundRobin),
            Box::new(scenario),
            SaturationProbe::SEED,
        )
    })
}

/// Saturation load of one application running *alone* with its configured
/// traffic mix (all other applications silent), under round-robin
/// arbitration and the given routing algorithm — the per-application
/// reference the paper's "% of saturation load" figures are based on.
pub fn app_saturation(
    probe: &SaturationProbe,
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    routing: impl Fn() -> Box<dyn RoutingAlgorithm>,
) -> f64 {
    app_saturation_traced(probe, cfg, region, app, spec, None, routing).load
}

/// [`app_saturation`] with probe accounting. `_hint` is ignored (see
/// [`WarmStart`]).
pub fn app_saturation_traced(
    probe: &SaturationProbe,
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    _hint: Option<WarmStart>,
    routing: impl Fn() -> Box<dyn RoutingAlgorithm>,
) -> SearchOutcome {
    let (active, build) = app_alone(cfg, region, app, spec, routing);
    let oracle = stability_oracle(probe, active, 1.0, build);
    let (load, probes) = search_saturation(probe.iters, 1.0, oracle);
    SearchOutcome {
        load,
        simulations: probes + 1,
    }
}

/// The `rate -> (stable, knee_estimate)` probe [`app_saturation`] searches
/// with, for callers that evaluate the curve themselves (the search's
/// bisection twin and the grid audit in `model/tests/cross_validation.rs`).
pub fn app_stability<'a>(
    probe: &'a SaturationProbe,
    cfg: &'a SimConfig,
    region: &'a RegionMap,
    app: AppId,
    spec: &'a AppSpec,
    routing: impl Fn() -> Box<dyn RoutingAlgorithm> + 'a,
) -> impl FnMut(f64) -> (bool, f64) + 'a {
    let (active, build) = app_alone(cfg, region, app, spec, routing);
    stability_oracle(probe, active, 1.0, build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::routing::DuatoLocalAdaptive;

    #[test]
    fn intra_region_saturation_in_plausible_range() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let probe = SaturationProbe::quick();
        let sat = app_saturation(&probe, &cfg, &region, 0, &AppSpec::intra_only(0.0), || {
            Box::new(DuatoLocalAdaptive)
        });
        // Intra-half UR on a 4x8 region: saturation well inside (0.1, 1.0).
        assert!(
            (0.1..0.95).contains(&sat),
            "implausible saturation load {sat}"
        );
    }

    /// The twin: a plain interval-halving search that keeps one bit per
    /// probe. `search_saturation` must land on its cell, bit for bit.
    fn bisect_twin(iters: u32, max_rate: f64, mut stable: impl FnMut(f64) -> bool) -> (f64, u32) {
        if stable(max_rate) {
            return (max_rate, 1);
        }
        let (mut lo, mut hi) = (0.0_f64, max_rate);
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            if stable(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, iters + 1)
    }

    /// A threshold curve with the backlog an overloaded network shows:
    /// stable strictly below `t`, accepted throughput flat at `plateau`
    /// above it. Records every probed rate.
    fn plateau_oracle(
        t: f64,
        plateau: f64,
        probed: &std::cell::RefCell<Vec<f64>>,
    ) -> impl FnMut(f64) -> (bool, f64) + '_ {
        move |r: f64| {
            probed.borrow_mut().push(r);
            (r < t, plateau)
        }
    }

    #[test]
    fn grid_points_are_the_bisections_own_floats() {
        // Every point of the grid, reached by steering the twin to it.
        for max_rate in [1.0, 0.7, 2.0, 0.3] {
            for iters in 0..=6u32 {
                for k in 0..(1u64 << iters) {
                    let want = grid_rate(iters, max_rate, k);
                    let (lo, _) = bisect_twin(iters, max_rate, |r| r <= want && r < max_rate);
                    assert_eq!(lo.to_bits(), want.to_bits(), "{max_rate}/{iters}/{k}");
                }
                assert_eq!(grid_rate(iters, max_rate, 1 << iters), max_rate);
            }
        }
    }

    #[test]
    fn search_lands_on_the_twins_cell_for_good_and_bad_estimates() {
        for t in [0.0005, 0.0773, 0.31, 0.375, 0.5, 0.74, 0.991, 1.2] {
            for iters in [5u32, 7] {
                let (cold, cold_n) = bisect_twin(iters, 1.0, |r| r < t);
                // An estimate on the knee, a few cells off either way, and
                // nowhere near it.
                for plateau in [t, t - 0.09, t + 0.06, 0.02, 5.0] {
                    let probed = std::cell::RefCell::new(Vec::new());
                    let (load, n) =
                        search_saturation(iters, 1.0, plateau_oracle(t, plateau, &probed));
                    assert_eq!(load.to_bits(), cold.to_bits(), "t={t} plateau={plateau}");
                    assert_eq!(n as usize, probed.borrow().len());
                    assert!(n <= 2 * iters + 2, "t={t} plateau={plateau}: {n} probes");
                    if plateau == t && t < 1.0 {
                        // max_rate, the cell under the knee, the one above.
                        assert!(n <= 3 && n < cold_n, "t={t}: {n} vs {cold_n}");
                    }
                    let mut bits: Vec<u64> = probed.borrow().iter().map(|r| r.to_bits()).collect();
                    bits.sort_unstable();
                    bits.dedup();
                    assert_eq!(bits.len(), n as usize, "rate probed twice for t={t}");
                }
            }
        }
    }

    #[test]
    fn stable_at_max_rate_returns_max_after_one_probe() {
        let probed = std::cell::RefCell::new(Vec::new());
        let (load, n) = search_saturation(5, 0.7, plateau_oracle(9.0, f64::NAN, &probed));
        assert_eq!((load, n), (0.7, 1));
        assert_eq!(*probed.borrow(), [0.7]);
    }

    #[test]
    fn unstable_at_the_first_cell_collapses_to_zero() {
        // Nothing is stable: the load is 0.0 (a `SaturationError` one
        // layer up), as the twin's, and rate 0 itself is never simulated.
        for plateau in [0.0, 0.4, f64::NEG_INFINITY] {
            let probed = std::cell::RefCell::new(Vec::new());
            let (load, n) = search_saturation(5, 1.0, plateau_oracle(0.0, plateau, &probed));
            assert_eq!(load.to_bits(), 0.0f64.to_bits());
            assert!(n <= 12);
            assert!(probed.borrow().iter().all(|&r| r > 0.0));
            assert!(probed.borrow().contains(&(1.0 / 32.0)));
        }
    }

    #[test]
    fn zero_iterations_probe_max_rate_only() {
        assert_eq!(search_saturation(0, 1.0, |r| (r < 0.5, 0.5)), (0.0, 1));
        assert_eq!(search_saturation(0, 1.0, |_| (true, 0.5)), (1.0, 1));
        assert_eq!(bisect_twin(0, 1.0, |r| r < 0.5), (0.0, 1));
    }

    #[test]
    fn garbage_estimates_stay_within_the_probe_ceiling() {
        // The estimate that wastes the most: always the cell just under
        // `hi`, always unstable. Guesses stop when the budget says so.
        for iters in 1..=8u32 {
            let mut n_probes = 0;
            let (load, n) = search_saturation(iters, 1.0, |r| {
                n_probes += 1;
                (r < 1e-9, r)
            });
            assert_eq!(load, 0.0);
            assert_eq!(n, n_probes);
            assert!(n <= 2 * iters + 2, "iters={iters}: {n}");
        }
    }

    #[test]
    fn monotone_binary_search_respects_bounds() {
        // A fake criterion via a real network that is always stable at tiny
        // rates: the search must return a rate within (0, max].
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        let probe = SaturationProbe {
            warmup: 200,
            measure: 500,
            iters: 3,
        };
        let sat = app_saturation(&probe, &cfg, &region, 0, &AppSpec::intra_only(0.0), || {
            Box::new(DuatoLocalAdaptive)
        });
        assert!(sat > 0.0 && sat <= 1.0);
    }
}
