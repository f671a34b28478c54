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
//! simulations by starting one cell under the caller's channel-load bound
//! ([`WarmStart`]) and reading the accepted throughput that every unstable
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

/// How steeply a probe past [`LATENCY_BLOWUP`] pulls the knee estimate
/// under its rate: by `(LATENCY_BLOWUP / ratio)^(1 / 2^LATENCY_KNEE_ROOTS)`,
/// the 32nd root. Near the knee the production curves' latency ratio grows
/// like `rate^11` (exponent ≈ 0.09); 1/32 is deliberately flatter, so an
/// estimate lands at or just under the knee: an undershoot costs one
/// stable probe, an overshoot one unstable probe per cell. Square roots
/// keep `libm` out of the binary (`powf` links it, which costs every
/// `repro` process ≈ 0.5 MB of peak RSS). It places probes only, never the
/// load.
const LATENCY_KNEE_ROOTS: u32 = 5;

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

/// A model-derived bound for a saturation search: the unit-capacity load
/// at which the busiest channel's utilization reaches 1 (`model::warm_hint`).
/// [`search_saturation`] spends its first probe one cell under it instead of
/// at `max_rate`. It places probes only, so a wrong bound costs probes,
/// never the load.
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
/// cell. `bound` places the first probe the same way: it goes to the
/// highest grid point at least one cell under the bound (the cell under
/// `max_rate` for no bound, NaN or +∞; the first cell for a bound at or
/// below one cell). Then the bracket `(lo, hi)` — `lo` stable
/// (`0` by premise, never probed), `hi` unstable (`max_rate` presumed so)
/// — closes on one cell: each probe goes to the grid cell under the
/// estimate of the current `hi`, strictly inside the bracket; while probes
/// come back stable the next one steps up by 1, 2, 4 … cells, and every
/// new unstable probe brings a new estimate. `max_rate` itself is probed
/// only if the search climbs to the cell under it (stable there ⇒
/// `max_rate` is returned). The search ends with `lo` verified stable and
/// `lo + 1` verified unstable, which under the monotone-stability premise
/// any bracketing search rests on is *the* cell a bisection converges to —
/// same `f64`, bit for bit (`grid_rate`).
///
/// A guess may shrink the bracket by a single cell, so it is taken only
/// while bisecting what it could leave, plus the held-back `max_rate`
/// probe, still fits `2 * iters + 2` probes in total; otherwise the probe
/// is the midpoint. Garbage bounds and estimates (NaN, ±∞, negative, above
/// `max_rate`) therefore cost at most `iters + 1` probes over a bisection
/// and never the result.
pub fn search_saturation(
    iters: u32,
    max_rate: f64,
    bound: Option<f64>,
    mut probe: impl FnMut(f64) -> (bool, f64),
) -> (f64, u32) {
    assert!(
        iters <= 52,
        "a {iters}-level grid is finer than f64 resolves"
    );
    let cells = 1u64 << iters;
    let at_cell = |rate: f64| rate / max_rate * cells as f64;
    // Where the next guess aims, in cells: one under the bound at first.
    let mut knee = at_cell(bound.filter(|b| !b.is_nan()).unwrap_or(f64::INFINITY)) - 1.0;
    let mut probes = 0;
    let (mut lo, mut hi) = (0, cells);
    // Cells to step up from `lo`; 0 = aim under `knee` instead.
    let mut step = 0;
    while hi - lo > 1 {
        let width = hi - lo;
        let top_held_back = u32::from(hi == cells);
        let aim = if probes + 1 + bisection_depth(width - 1) + top_held_back > 2 * iters + 2 {
            lo + width / 2
        } else if step > 0 {
            lo + step
        } else {
            // Saturating cast: NaN and negatives land on 0, +∞ on the top.
            knee as u64
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
                knee = at_cell(estimate);
                step = 0;
            }
        }
    }
    if hi == cells {
        probes += 1;
        if probe(max_rate).0 {
            return (max_rate, probes);
        }
    }
    (grid_rate(iters, max_rate, lo), probes)
}

/// The stability measurement a saturation search evaluates:
/// `build(rate)` constructs a fresh network offering `rate`
/// flits/cycle/node over `active_nodes` nodes. Runs the zero-load latency
/// reference once, then returns the probe [`search_saturation`] takes:
/// `rate -> (stable, knee_estimate)`, the estimate from [`knee_estimate`].
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
        let latency = (net.stats.recorder).overall_mean(metrics::LatencyKind::Total);
        let latency_ok = latency.is_some_and(|l| l <= LATENCY_BLOWUP * zero_load);
        let blowup = latency.filter(|_| !latency_ok).map(|l| l / zero_load);
        (
            backlog_ok && latency_ok,
            knee_estimate(rate, backlog / offered_packets, blowup),
        )
    }
}

/// Where a probe at `rate` places the knee, read from both stability
/// criteria. A run that left `backlog_fraction` of its offered packets in
/// the source queues accepted `rate * (1 - backlog_fraction)`, and at the
/// knee that fraction is exactly [`BACKLOG_FRACTION`]. A run whose mean
/// latency is `blowup` × zero-load, past [`LATENCY_BLOWUP`], also says the
/// knee is under `rate` ([`LATENCY_KNEE_ROOTS`]) even when its backlog is
/// not; the lower of the two estimates is taken.
fn knee_estimate(rate: f64, backlog_fraction: f64, blowup: Option<f64>) -> f64 {
    let accepted = rate * (1.0 - backlog_fraction);
    let by_backlog = accepted / (1.0 - BACKLOG_FRACTION);
    blowup.map_or(by_backlog, |ratio| {
        let pull = (0..LATENCY_KNEE_ROOTS).fold(LATENCY_BLOWUP / ratio, |f, _| f.sqrt());
        by_backlog.min(rate * pull)
    })
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

/// [`app_saturation`] with probe accounting, its first probe placed one
/// grid cell under `hint`'s bound (see [`search_saturation`]; `None` starts
/// one cell under the top of the range). The load does not depend on the
/// hint.
pub fn app_saturation_traced(
    probe: &SaturationProbe,
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    hint: Option<WarmStart>,
    routing: impl Fn() -> Box<dyn RoutingAlgorithm>,
) -> SearchOutcome {
    let (active, build) = app_alone(cfg, region, app, spec, routing);
    let oracle = stability_oracle(probe, active, 1.0, build);
    let bound = hint.map(|h| h.predicted);
    let (load, probes) = search_saturation(probe.iters, 1.0, bound, oracle);
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

    /// Within the latency guard the estimate is the backlog one, bit for
    /// bit; past it, the estimate falls under the probed rate even with the
    /// backlog under its limit (a probe on Fig. 14's app 0 curve: 2.29 %
    /// backlog, 8.56× zero-load latency, one cell over the knee), and
    /// lower the further past the guard.
    #[test]
    fn knee_estimate_reads_the_latency_blowup() {
        let rate = 96.0 / 128.0;
        let by_backlog = |b: f64| rate * (1.0 - b) / (1.0 - BACKLOG_FRACTION);
        for b in [0.0, 0.0229, 0.0578, 0.4] {
            assert_eq!(
                knee_estimate(rate, b, None).to_bits(),
                by_backlog(b).to_bits()
            );
        }
        assert!(by_backlog(0.0229) > rate, "the backlog alone overshoots");
        let knee = knee_estimate(rate, 0.0229, Some(8.56));
        assert!(knee < rate && knee > 95.0 / 128.0, "{}", knee * 128.0);
        let mut last = rate;
        for ratio in [8.01, 9.0, 12.0, 18.8, 80.0] {
            let knee = knee_estimate(rate, 0.0, Some(ratio));
            assert!(knee < last, "{ratio}: {knee}");
            last = knee;
        }
        // A deep backlog still wins when it places the knee lower.
        assert_eq!(knee_estimate(rate, 0.4, Some(9.0)), by_backlog(0.4));
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

    /// Every bound a caller could pass — on the knee, a few cells either
    /// side, above `max_rate`, at or below one cell, NaN, ±∞, none — and
    /// estimates on the knee, a few cells off either way, and nowhere near
    /// it. The bound places the first probe and the estimates the later
    /// ones; the cell stays the twin's, the probes stay under the ceiling,
    /// and `max_rate` is probed only when every lower point is stable.
    #[test]
    fn search_lands_on_the_twins_cell_for_good_and_bad_estimates() {
        for t in [0.0005, 0.0773, 0.31, 0.375, 0.5, 0.74, 0.991, 1.2] {
            for iters in [5u32, 7] {
                let cells = 1u64 << iters;
                let cell = 1.0 / cells as f64;
                let (cold, cold_n) = bisect_twin(iters, 1.0, |r| r < t);
                let top_stable = grid_rate(iters, 1.0, cells - 1) < t;
                let bounds = [
                    Some(t),
                    Some(t - 3.0 * cell),
                    Some(t + 3.0 * cell),
                    Some(1.0 + 2.0 * cell),
                    Some(7.0),
                    Some(cell),
                    Some(0.5 * cell),
                    Some(0.0),
                    Some(f64::NAN),
                    Some(f64::INFINITY),
                    Some(f64::NEG_INFINITY),
                    None,
                ];
                for (bound, plateau) in bounds
                    .into_iter()
                    .flat_map(|b| [t, t - 0.09, t + 0.06, 0.02, 5.0, f64::NAN].map(|p| (b, p)))
                {
                    let what = format!("t={t} iters={iters} bound={bound:?} plateau={plateau}");
                    let probed = std::cell::RefCell::new(Vec::new());
                    let (load, n) =
                        search_saturation(iters, 1.0, bound, plateau_oracle(t, plateau, &probed));
                    let probed = probed.into_inner();
                    assert_eq!(load.to_bits(), cold.to_bits(), "{what}");
                    assert_eq!(n as usize, probed.len(), "{what}");
                    assert!(n <= 2 * iters + 2, "{what}: {n} probes");
                    assert!(top_stable || !probed.contains(&1.0), "{what}");
                    // The first probe: the highest point at least one cell
                    // under the bound, inside (0, max_rate).
                    let b = bound.filter(|b| !b.is_nan()).unwrap_or(f64::INFINITY);
                    let first = ((b - cell) / cell).floor().clamp(1.0, (cells - 1) as f64);
                    assert_eq!(probed[0], first * cell, "{what}");
                    if plateau == t && bound.is_none() && t < 1.0 {
                        // The cell under max_rate, the cell under the knee,
                        // the one above.
                        assert!(n <= 3 && n < cold_n, "{what}: {n} vs {cold_n}");
                    }
                    if plateau == t && bound == Some(t + 3.0 * cell) && t < 0.9 {
                        // Over the knee, under it, the cell above it.
                        assert!(n <= 3, "{what}: {probed:?}");
                    }
                    let mut bits: Vec<u64> = probed.iter().map(|r| r.to_bits()).collect();
                    bits.sort_unstable();
                    bits.dedup();
                    assert_eq!(bits.len(), n as usize, "rate probed twice: {what}");
                }
            }
        }
    }

    #[test]
    fn stable_everywhere_climbs_to_max_rate_last() {
        for bound in [None, Some(0.35), Some(0.01), Some(3.0)] {
            let probed = std::cell::RefCell::new(Vec::new());
            let (load, n) =
                search_saturation(5, 0.7, bound, plateau_oracle(9.0, f64::NAN, &probed));
            let probed = probed.into_inner();
            assert_eq!(load, 0.7, "bound {bound:?}");
            assert_eq!(n as usize, probed.len());
            assert!(n <= 12, "bound {bound:?}: {probed:?}");
            // The cell under max_rate, then max_rate itself, once.
            assert_eq!(probed[probed.len() - 2..], [0.7 * 31.0 / 32.0, 0.7]);
        }
    }

    #[test]
    fn unstable_at_the_first_cell_collapses_to_zero() {
        // Nothing is stable: the load is 0.0 (a `SaturationError` one
        // layer up), as the twin's, and rate 0 itself is never simulated.
        for plateau in [0.0, 0.4, f64::NEG_INFINITY] {
            let probed = std::cell::RefCell::new(Vec::new());
            let (load, n) = search_saturation(5, 1.0, None, plateau_oracle(0.0, plateau, &probed));
            assert_eq!(load.to_bits(), 0.0f64.to_bits());
            assert!(n <= 12);
            assert!(probed.borrow().iter().all(|&r| r > 0.0));
            assert!(probed.borrow().contains(&(1.0 / 32.0)));
        }
    }

    #[test]
    fn zero_iterations_probe_max_rate_only() {
        for bound in [None, Some(0.25), Some(4.0)] {
            assert_eq!(
                search_saturation(0, 1.0, bound, |r| (r < 0.5, 0.5)),
                (0.0, 1)
            );
            assert_eq!(search_saturation(0, 1.0, bound, |_| (true, 0.5)), (1.0, 1));
        }
        assert_eq!(bisect_twin(0, 1.0, |r| r < 0.5), (0.0, 1));
    }

    #[test]
    fn garbage_estimates_stay_within_the_probe_ceiling() {
        // The estimate that wastes the most: always the cell just under
        // `hi`, always unstable. Guesses stop when the budget says so.
        for iters in 1..=8u32 {
            let mut n_probes = 0;
            let (load, n) = search_saturation(iters, 1.0, None, |r| {
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
