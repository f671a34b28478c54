//! Property-based tests of the traffic substrate.

use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::source::{NewPacket, TrafficSource};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use traffic::pattern::Pattern;
use traffic::saturation::search_saturation;
use traffic::scenario::{six_app, two_app, AppSpec, InterDest, Scenario, LOOKAHEAD_HORIZON};
use traffic::trace::Trace;
use traffic::workload::{AppModel, ParsecWorkload};

fn any_pattern() -> impl Strategy<Value = Pattern> {
    let cfg = SimConfig::table1();
    let spots = Pattern::center_hotspots(&cfg);
    prop_oneof![
        Just(Pattern::UniformRandom),
        Just(Pattern::Transpose),
        Just(Pattern::BitComplement),
        Just(Pattern::UniformWithin((0..16).collect())),
        Just(Pattern::UniformOutside((0..32).collect())),
        Just(Pattern::Hotspot { spots, bias: 0.5 }),
    ]
}

/// Node `node`'s `(cycle, packet)` arrivals over `cycles` cycles on its own
/// RNG stream: polled every cycle, or along the source's arrival promise
/// (`generate` only where `next_poll` said). The second list holds the
/// promised cycles the look-ahead reached with nothing kept: horizon polls.
fn arrivals(
    mut s: Scenario,
    node: u16,
    cycles: u64,
    seed: u64,
    promise: bool,
) -> (Vec<(u64, NewPacket)>, Vec<u64>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(node) + 1).wrapping_mul(0x9E37));
    let (mut out, mut horizons, mut cycle) = (Vec::new(), Vec::new(), 0);
    while cycle < cycles {
        out.extend(s.generate(node, cycle, &mut rng).map(|p| (cycle, p)));
        let next = if promise {
            s.next_poll(node, cycle + 1, &mut rng)
        } else {
            cycle + 1
        };
        if next == cycle + 1 + LOOKAHEAD_HORIZON && next < cycles {
            horizons.push(next);
        }
        cycle = next;
    }
    (out, horizons)
}

/// Region maps by the names the `repro serve` jobs use.
fn region_named(cfg: &SimConfig, name: &str) -> RegionMap {
    match name {
        "single" => RegionMap::single(cfg),
        "halves" => RegionMap::halves(cfg),
        "quadrants" => RegionMap::quadrants(cfg),
        _ => RegionMap::six_regions(cfg),
    }
}

/// One application of a random mix, from plain numbers (the vendored
/// proptest has no `prop_map`): `kind` picks the rate class, `dest` the
/// inter-region rule, `mix` the fractions.
fn app_spec(kind: usize, rate: f64, dest: usize, mix: (usize, f64, f64)) -> Option<AppSpec> {
    let rate_flits = match kind {
        0 => return None, // a silent application
        1 => 0.0,
        2 => 3e-6, // pkt_prob 10⁻⁶: most look-aheads end at the horizon
        3 => 3.0,  // pkt_prob 1: an arrival every cycle
        _ => rate,
    };
    let inter_dest = match dest {
        0 => InterDest::OutsideUniform,
        1 => InterDest::Region(0),
        2 => InterDest::Pattern(Pattern::Transpose),
        _ => InterDest::Pattern(Pattern::BitComplement),
    };
    let (intra, inter) = match mix {
        (0, ..) => (1.0, 0.0),
        (1, ..) => (0.0, 1.0),
        (2, ..) => (0.0, 0.0),
        (_, a, b) => (a * b, a * (1.0 - b)),
    };
    Some(AppSpec {
        rate_flits,
        intra,
        inter,
        inter_dest,
        mc: 1.0 - intra - inter,
    })
}

/// The serve-shaped corner: one region, all traffic transposed, an arrival
/// drawn every cycle. A diagonal node discards every one of them — it never
/// produces and every one of its look-aheads runs to the horizon — and must
/// still leave its stream exactly where per-cycle polling does (the
/// off-diagonal nodes share nothing with it, so they only show the cell is
/// live).
#[test]
fn a_node_that_never_produces_keeps_its_promise() {
    let cfg = SimConfig::table1();
    let spec = AppSpec::with_inter(3.0, 1.0, InterDest::Pattern(Pattern::Transpose));
    let s = Scenario::new(&cfg, &RegionMap::single(&cfg), vec![Some(spec)]);
    let cycles = 3 * LOOKAHEAD_HORIZON + 100;
    for node in [0u16, 9, 63] {
        let (walked, horizons) = arrivals(s.clone(), node, cycles, 5, true);
        assert_eq!(walked, Vec::new(), "diagonal node {node} produced");
        assert_eq!(horizons.len(), 3, "node {node} is polled once per horizon");
    }
    let (walked, horizons) = arrivals(s.clone(), 1, cycles, 5, true);
    assert_eq!(walked.len() as u64, cycles);
    assert_eq!(walked, arrivals(s, 1, cycles, 5, false).0);
    assert_eq!(horizons, Vec::<u64>::new());
}

/// An arrival landing exactly on a horizon boundary — the look-ahead ran
/// `LOOKAHEAD_HORIZON` failed draws, kept nothing, and the per-cycle draw
/// at the promised cycle itself succeeds — is the same arrival per-cycle
/// polling sees. At one arrival per horizon on average some node of some
/// seed gets one quickly.
#[test]
fn an_arrival_on_the_horizon_boundary_is_kept() {
    let cfg = SimConfig::table1();
    let rate = 3.0 / LOOKAHEAD_HORIZON as f64;
    let (_region, s) = two_app(&cfg, 0.3, rate, rate);
    let cycles = 4 * LOOKAHEAD_HORIZON;
    let mut on_boundary = 0;
    for seed in 0..256 {
        for node in 0..64 {
            let (walked, horizons) = arrivals(s.clone(), node, cycles, seed, true);
            let hits = walked.iter().filter(|(c, _)| horizons.contains(c)).count();
            if hits > 0 {
                on_boundary += hits;
                assert_eq!(walked, arrivals(s.clone(), node, cycles, seed, false).0);
            }
        }
        if on_boundary >= 2 {
            return;
        }
    }
    panic!("only {on_boundary} boundary arrivals in 256 seeds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The arrival promise is per-cycle polling, packet for packet: for any
    /// application mix on any region map, every node's `(cycle, packet)`
    /// list is the same whether it is polled every cycle or only where
    /// `next_poll` said, over more than three look-ahead horizons.
    #[test]
    fn the_arrival_promise_equals_per_cycle_polling(
        map in prop_oneof![Just("single"), Just("halves"), Just("quadrants"), Just("six_regions")],
        apps in proptest::collection::vec((0usize..8, 0.001f64..0.9, 0usize..4), 6..7),
        mixes in proptest::collection::vec((0usize..6, 0.0f64..=1.0, 0.0f64..=1.0), 6..7),
        seed in 0u64..1_000_000,
    ) {
        let cfg = SimConfig::table1();
        let region = region_named(&cfg, map);
        let specs = apps.iter().zip(&mixes).take(region.num_apps());
        let specs = specs.map(|(&(kind, rate, dest), &mix)| app_spec(kind, rate, dest, mix));
        let s = Scenario::new(&cfg, &region, specs.collect());
        let cycles = 3 * LOOKAHEAD_HORIZON + 500;
        for node in 0..cfg.num_nodes() as u16 {
            let polled = arrivals(s.clone(), node, cycles, seed, false).0;
            let (walked, _) = arrivals(s.clone(), node, cycles, seed, true);
            prop_assert_eq!(walked, polled, "node {} of {}", node, map);
        }
    }

    /// Every pattern destination is in-bounds and never the source.
    #[test]
    fn pattern_destinations_valid(pattern in any_pattern(), src in 0u16..64, seed in 0u64..1000) {
        let cfg = SimConfig::table1();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            if let Some(d) = pattern.dest(&cfg, src, &mut rng) {
                prop_assert!(d != src);
                prop_assert!((d as usize) < cfg.num_nodes());
            }
        }
    }

    /// Scenario generators never emit self-addressed or oversized packets
    /// and tag packets with the generating node's own application.
    #[test]
    fn scenario_packets_well_formed(p in 0.0f64..=1.0, seed in 0u64..500) {
        let cfg = SimConfig::table1();
        let (region, mut s) = two_app(&cfg, p, 0.3, 0.3);
        let mut rng = SmallRng::seed_from_u64(seed);
        for cycle in 0..300 {
            for node in 0..64u16 {
                if let Some(pkt) = s.generate(node, cycle, &mut rng) {
                    prop_assert!(pkt.dst != node);
                    prop_assert!((pkt.dst as usize) < cfg.num_nodes());
                    prop_assert_eq!(pkt.app, region.app_of(node));
                    prop_assert!(pkt.size == 1 || pkt.size == cfg.long_flits);
                    prop_assert!((pkt.class as usize) < cfg.num_classes);
                }
            }
        }
    }

    /// Six-app scenarios respect the 75/20/5 mix within tolerance, for any
    /// inter-destination rule.
    #[test]
    fn six_app_mix_fractions(seed in 0u64..200) {
        let cfg = SimConfig::table1();
        let (region, mut s) = six_app(&cfg, [0.3; 6], InterDest::OutsideUniform);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut intra, mut inter, mut mc) = (0u32, 0u32, 0u32);
        let corners = cfg.corners();
        for cycle in 0..4000 {
            for node in 0..64u16 {
                if let Some(pkt) = s.generate(node, cycle, &mut rng) {
                    if pkt.reply.is_some() {
                        mc += 1;
                        prop_assert!(corners.contains(&pkt.dst));
                    } else if region.app_of(pkt.dst) == pkt.app {
                        intra += 1;
                    } else {
                        inter += 1;
                    }
                }
            }
        }
        let total = (intra + inter + mc) as f64;
        prop_assume!(total > 5000.0);
        // MC-fraction draws can land inside the own region when a corner is
        // native; intra count absorbs none of those (they carry replies).
        prop_assert!(((mc as f64 / total) - 0.05).abs() < 0.02);
        // The inter count excludes inter-region MC requests, so compare
        // intra against its nominal share.
        prop_assert!(((intra as f64 / total) - 0.75).abs() < 0.05);
    }

    /// Workload generation is a pure function of the RNG stream: the same
    /// seed gives the same packets, a different seed diverges.
    #[test]
    fn workload_deterministic(seed in 0u64..500) {
        let cfg = SimConfig::table1_req_reply();
        let region = RegionMap::quadrants(&cfg);
        let collect = |seed: u64| {
            let mut w = ParsecWorkload::new(&cfg, &region, AppModel::parsec_four());
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut v = Vec::new();
            for cycle in 0..3000 {
                for node in 0..64u16 {
                    if let Some(p) = w.generate(node, cycle, &mut rng) {
                        v.push((cycle, node, p.dst, p.app));
                    }
                }
            }
            v
        };
        prop_assert_eq!(collect(seed), collect(seed));
    }

    /// Trace serialization is injective on distinct event streams.
    #[test]
    fn trace_bytes_roundtrip(p in 0.0f64..=1.0, seed in 0u64..300) {
        let cfg = SimConfig::table1();
        let (_r, s) = two_app(&cfg, p, 0.2, 0.1);
        let t = Trace::capture(s, 64, 400, seed);
        let back = Trace::from_bytes(t.to_bytes().unwrap()).unwrap();
        prop_assert_eq!(t, back);
    }
}

/// The twin of `search_saturation`: a plain interval-halving search that
/// keeps one bit of every probe.
fn bisect_twin(iters: u32, max_rate: f64, stable: impl Fn(f64) -> bool) -> f64 {
    if stable(max_rate) {
        return max_rate;
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
    lo
}

proptest! {
    // Pure arithmetic, no simulation: many cases are cheap.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The extrapolating search returns the bit-identical load of the plain
    /// bisection for *every* monotone stability threshold, grid depth and
    /// `max_rate`, whatever the bound and the knee estimates say — honest,
    /// a cell off, arbitrary, NaN, ±∞, negative, above `max_rate`, absent,
    /// or chosen to waste the most probes. Bounds and estimates place
    /// probes; they never decide a cell. This is the invariant that keeps
    /// cache contents and golden digests independent of the probe order.
    /// It also never simulates a rate twice, never spends more than
    /// `2 * iters + 2` probes, and probes `max_rate` only when every lower
    /// grid point is stable.
    #[test]
    fn search_is_bit_identical_to_bisection_under_adversarial_estimates(
        threshold in 0.0f64..1.2,
        iters in 1u32..9,
        max_rate in prop_oneof![Just(1.0f64), Just(0.7), Just(2.0)],
        bound in (0u8..8, -4.0f64..4.0),
        estimates in proptest::collection::vec((0u8..9, -4.0f64..4.0), 18..19),
    ) {
        let t = threshold * max_rate;
        let stable = |rate: f64| rate <= t;
        let twin = bisect_twin(iters, max_rate, stable);
        let bound = match bound {
            (0, _) => None,
            (1, _) => Some(f64::NAN),
            (2, _) => Some(f64::INFINITY),
            (3, _) => Some(f64::NEG_INFINITY),
            (4, x) => Some(-x.abs() * max_rate),
            (5, x) => Some(max_rate * (1.0 + x.abs())),
            (6, x) => Some(x.abs() / 4.0 * max_rate),
            // The unit-capacity bound of a real network: a little over the
            // knee.
            (_, x) => Some(t * (1.0 + 0.05 * x.abs())),
        };
        let mut probed: Vec<f64> = Vec::new();
        let (load, probes) = search_saturation(iters, max_rate, bound, |rate| {
            let (kind, x) = estimates[probed.len() % estimates.len()];
            probed.push(rate);
            let estimate = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -x.abs(),
                4 => max_rate * (1.0 + x.abs()),
                5 => x * 1e300,
                6 => x * max_rate,
                // The accepted throughput of a real overloaded network:
                // the knee, a little off.
                7 => t * (1.0 + 0.02 * x),
                // The most wasteful answer: just under the probe itself.
                _ => rate * (1.0 - f64::EPSILON),
            };
            (stable(rate), estimate)
        });
        prop_assert_eq!(
            load.to_bits(), twin.to_bits(),
            "search {} != twin {} (t={}, iters={}, max={}, probed {:?})",
            load, twin, t, iters, max_rate, probed
        );
        prop_assert_eq!(probes as usize, probed.len());
        prop_assert!(probes <= 2 * iters + 2, "{} probes: {:?}", probes, probed);
        // The grid point under max_rate, as the halvings compute it.
        let under_top = (0..iters).fold(0.0, |lo, _| 0.5 * (lo + max_rate));
        prop_assert!(
            stable(under_top) || !probed.contains(&max_rate),
            "max_rate probed above an unstable point: {:?}", probed
        );
        let mut bits: Vec<u64> = probed.iter().map(|r| r.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        prop_assert_eq!(bits.len(), probed.len(), "a rate was probed twice: {:?}", probed);
    }
}
