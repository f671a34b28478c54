//! Regionalized synthetic-traffic scenarios.
//!
//! A [`Scenario`] drives every node of a regionalized NoC with its
//! application's configured load and traffic mix (RB-1…RB-4): a fraction of
//! intra-region uniform-random traffic, a fraction of inter-region (global)
//! traffic with a configurable destination rule, and a fraction of
//! memory-controller round-trips to the chip corners. The concrete layouts
//! of the paper's Figures 8, 11, 13 and 16 are provided as constructors.

use crate::pattern::Pattern;
use noc_sim::config::SimConfig;
use noc_sim::flit::ReplySpec;
use noc_sim::ids::{AppId, NodeId};
use noc_sim::region::RegionMap;
use noc_sim::source::{NewPacket, TrafficSource};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// How far [`Scenario::next_poll`] runs a node's Bernoulli draws ahead before
/// it returns with nothing kept. A node may never produce (rate 10⁻⁹, or a
/// transpose-diagonal node of a single-region map, whose every success is
/// discarded), so the look-ahead must be bounded; the bound only sets how
/// often such a node is polled.
pub const LOOKAHEAD_HORIZON: u64 = 1024;

/// The paper's one fixed traffic decision (Table 1, §V.A): a packet is short
/// (`cfg.short_flits`) or long (`cfg.long_flits`) with equal probability.
/// Every source, model and search that turns a flit rate into a packet rate
/// reads the sizes here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMix {
    pub short: u32,
    pub long: u32,
}

impl PacketMix {
    /// The mix `cfg`'s packet sizes give.
    pub fn of(cfg: &SimConfig) -> Self {
        Self {
            short: cfg.short_flits,
            long: cfg.long_flits,
        }
    }

    /// Mean packet size in flits: `(short + long) / 2`, exactly 3.0 at
    /// Table 1's 1-flit and 5-flit packets.
    pub fn mean_flits(self) -> f64 {
        (f64::from(self.short) + f64::from(self.long)) / 2.0
    }

    /// Draw one packet size, 50/50 short/long (one `random_bool` draw).
    pub fn draw(self, rng: &mut impl Rng) -> u32 {
        if rng.random_bool(0.5) {
            self.short
        } else {
            self.long
        }
    }
}

/// How an application's inter-region (global) traffic picks destinations.
#[derive(Debug, Clone, PartialEq)]
pub enum InterDest {
    /// Uniform over all nodes outside the application's own region.
    OutsideUniform,
    /// Uniform within another application's region (Fig. 11(a): the low
    /// apps all target the hot region).
    Region(AppId),
    /// A chip-wide synthetic pattern (Fig. 15). Sources whose pattern
    /// destination is undefined or falls back on themselves use
    /// [`InterDest::OutsideUniform`] instead, preserving the offered load.
    Pattern(Pattern),
}

/// Per-application traffic specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Offered load in flits/cycle/node over the application's nodes.
    pub rate_flits: f64,
    /// Fraction of packets that are intra-region uniform random.
    pub intra: f64,
    /// Fraction of packets that are inter-region (global) traffic.
    pub inter: f64,
    /// Destination rule for the inter-region fraction.
    pub inter_dest: InterDest,
    /// Fraction of packets that are memory-controller requests to a random
    /// corner tile ("to and from the 4 corner nodes", §V.E): the request
    /// carries a reply spec so the corner answers with a long packet after
    /// the memory latency.
    pub mc: f64,
}

impl AppSpec {
    /// Purely intra-region uniform-random traffic at `rate_flits`.
    pub fn intra_only(rate_flits: f64) -> Self {
        Self {
            rate_flits,
            intra: 1.0,
            inter: 0.0,
            inter_dest: InterDest::OutsideUniform,
            mc: 0.0,
        }
    }

    /// Intra + inter mix without MC traffic.
    pub fn with_inter(rate_flits: f64, inter: f64, inter_dest: InterDest) -> Self {
        assert!((0.0..=1.0).contains(&inter));
        Self {
            rate_flits,
            intra: 1.0 - inter,
            inter,
            inter_dest,
            mc: 0.0,
        }
    }

    fn validate(&self) {
        assert!(self.rate_flits >= 0.0);
        let total = self.intra + self.inter + self.mc;
        assert!(
            (total - 1.0).abs() < 1e-9 || self.rate_flits == 0.0,
            "traffic mix fractions must sum to 1 (got {total})"
        );
    }

    /// Fold every load-determining parameter into `d` (collision-proof
    /// saturation-cache keys).
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        d.write_f64(self.rate_flits);
        d.write_f64(self.intra);
        d.write_f64(self.inter);
        self.inter_dest.digest_into(d);
        d.write_f64(self.mc);
    }
}

impl InterDest {
    /// Variant discriminant plus payload, order-sensitive.
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        match self {
            InterDest::OutsideUniform => d.write_u64(0),
            InterDest::Region(a) => {
                d.write_u64(1);
                d.write_u64(*a as u64);
            }
            InterDest::Pattern(p) => {
                d.write_u64(2);
                p.digest_into(d);
            }
        }
    }
}

/// Per-app precomputed state.
#[derive(Debug, Clone)]
struct AppState {
    spec: AppSpec,
    /// Packet-generation probability per node per cycle, as the threshold of
    /// [`arrival_threshold`].
    arrival: u64,
    own: Pattern,
    outside: Pattern,
    /// Uniform within the target region, for [`InterDest::Region`].
    target: Option<Pattern>,
}

/// `rng.random_bool(p)` as one integer compare: the draw is `k · 2⁻⁵³` for
/// the integer `k = next_u64() >> 11`, and scaling `p ≤ 1` by 2⁵³ is exact, so
/// `k · 2⁻⁵³ < p` ⇔ `k < ⌈p · 2⁵³⌉`. Returns that threshold.
fn arrival_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// What [`Scenario::next_poll`] has drawn ahead for one node.
#[derive(Debug, Clone, Copy, Default)]
struct Ahead {
    /// The node's draws for every cycle below this one are made.
    until: u64,
    /// The packet those draws produced, for `generate(node, until, ..)`.
    kept: Option<NewPacket>,
}

/// A multi-application synthetic workload over a regionalized mesh.
#[derive(Debug, Clone)]
pub struct Scenario {
    cfg: SimConfig,
    region: RegionMap,
    apps: Vec<Option<AppState>>,
    /// Per-node look-ahead state, sized at construction.
    ahead: Vec<Ahead>,
    corners: [NodeId; 4],
    /// `corner_after[k]`: the corner a source sitting on `corners[k]` sends
    /// to instead (the one after its first occurrence).
    corner_after: [NodeId; 4],
    mem_latency: u64,
    mix: PacketMix,
    reply_class: u8,
}

impl Scenario {
    /// Build a scenario; `specs[app]` may be `None` for silent applications.
    pub fn new(cfg: &SimConfig, region: &RegionMap, specs: Vec<Option<AppSpec>>) -> Self {
        assert_eq!(specs.len(), region.num_apps());
        let mix = PacketMix::of(cfg);
        let apps = specs
            .into_iter()
            .enumerate()
            .map(|(a, spec)| {
                spec.map(|s| {
                    s.validate();
                    let own_nodes = region.nodes_of(a as AppId);
                    assert!(!own_nodes.is_empty(), "app {a} has no region");
                    AppState {
                        arrival: arrival_threshold((s.rate_flits / mix.mean_flits()).min(1.0)),
                        own: Pattern::UniformWithin(own_nodes.clone()),
                        outside: Pattern::UniformOutside(own_nodes),
                        target: match s.inter_dest {
                            InterDest::Region(t) => {
                                Some(Pattern::UniformWithin(region.nodes_of(t)))
                            }
                            _ => None,
                        },
                        spec: s,
                    }
                })
            })
            .collect();
        let corners = cfg.corners();
        Self {
            ahead: vec![Ahead::default(); cfg.num_nodes()],
            corner_after: corners.map(|c| {
                let first = corners.iter().position(|&x| x == c).unwrap_or(0);
                corners[(first + 1) % 4]
            }),
            corners,
            mem_latency: cfg.mem_latency,
            mix,
            reply_class: (cfg.num_classes - 1) as u8,
            cfg: cfg.clone(),
            region: region.clone(),
            apps,
        }
    }

    /// The configured offered load per application (flits/cycle/node),
    /// 0 for silent apps — the oracle intensity vector handed to RO_Rank.
    pub fn intensities(&self) -> Vec<f64> {
        self.apps
            .iter()
            .map(|a| a.as_ref().map_or(0.0, |s| s.spec.rate_flits))
            .collect()
    }

    fn draw_dest(
        &self,
        state: &AppState,
        src: NodeId,
        rng: &mut SmallRng,
    ) -> Option<(NodeId, bool)> {
        let u: f64 = rng.random();
        let s = &state.spec;
        if u < s.intra {
            state.own.dest(&self.cfg, src, rng).map(|d| (d, false))
        } else if u < s.intra + s.inter {
            let d = match &s.inter_dest {
                InterDest::OutsideUniform => state.outside.dest(&self.cfg, src, rng),
                InterDest::Region(_) => state.target.as_ref()?.dest(&self.cfg, src, rng),
                InterDest::Pattern(p) => p
                    .dest(&self.cfg, src, rng)
                    .or_else(|| state.outside.dest(&self.cfg, src, rng)),
            };
            d.map(|d| (d, false))
        } else {
            // Memory-controller round trip to a random corner.
            let k = rng.random_range(0..4);
            let c = self.corners[k];
            Some((if c == src { self.corner_after[k] } else { c }, true))
        }
    }

    /// The state of `node`'s application; `None` for a node that never draws
    /// (outside every region — `APP_NONE` indexes no application —, a silent
    /// application, rate 0).
    fn app_state(&self, node: NodeId) -> Option<&AppState> {
        let app = self.region.app_of(node);
        let state = self.apps.get(app as usize)?.as_ref()?;
        (state.arrival != 0).then_some(state)
    }

    /// The draws behind a successful arrival draw, in stream order:
    /// destination (a source with nowhere to send discards the arrival
    /// here), then size.
    fn draw_packet(&self, state: &AppState, node: NodeId, rng: &mut SmallRng) -> Option<NewPacket> {
        let (dst, is_mc) = self.draw_dest(state, node, rng)?;
        debug_assert_ne!(dst, node);
        let size = self.mix.draw(rng);
        Some(NewPacket {
            dst,
            app: self.region.app_of(node),
            class: 0,
            size,
            reply: is_mc.then_some(ReplySpec {
                service_latency: self.mem_latency,
                size: self.mix.long,
                class: self.reply_class,
            }),
        })
    }
}

impl TrafficSource for Scenario {
    fn num_apps(&self) -> usize {
        self.apps.len()
    }

    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let ahead = &mut self.ahead[node as usize];
        debug_assert!(
            cycle >= ahead.until,
            "node {node} polled before its promise"
        );
        if let Some(kept) = ahead.kept.take() {
            debug_assert_eq!(cycle, ahead.until, "node {node} polled past its promise");
            return Some(kept);
        }
        // Plain per-cycle polling: a driver that never asks for the promise,
        // and the horizon cycle of one that does.
        let state = self.app_state(node)?;
        if (rng.next_u64() >> 11) >= state.arrival {
            return None;
        }
        self.draw_packet(state, node, rng)
    }

    fn next_poll(&mut self, node: NodeId, after: u64, rng: &mut SmallRng) -> u64 {
        debug_assert!(self.ahead[node as usize].kept.is_none());
        debug_assert!(self.ahead[node as usize].until <= after);
        let Some(state) = self.app_state(node) else {
            return u64::MAX;
        };
        let horizon = after.saturating_add(LOOKAHEAD_HORIZON);
        let mut kept = None;
        let mut until = after;
        while until < horizon {
            if (rng.next_u64() >> 11) < state.arrival {
                kept = self.draw_packet(state, node, rng);
                if kept.is_some() {
                    break;
                }
            }
            until += 1;
        }
        self.ahead[node as usize] = Ahead { until, kept };
        until
    }
}

// ------------------------------------------------------------------------
// Paper scenario layouts
// ------------------------------------------------------------------------

/// Fig. 8: two applications on the mesh halves. App 0 (left) runs at
/// `rate0` flits/cycle/node with fraction `p` of its traffic inter-region
/// (uniform into the right half); App 1 (right) runs purely intra-region at
/// `rate1`.
pub fn two_app(cfg: &SimConfig, p: f64, rate0: f64, rate1: f64) -> (RegionMap, Scenario) {
    let region = RegionMap::halves(cfg);
    let scenario = Scenario::new(
        cfg,
        &region,
        vec![
            Some(AppSpec::with_inter(rate0, p, InterDest::Region(1))),
            Some(AppSpec::intra_only(rate1)),
        ],
    );
    (region, scenario)
}

/// Fig. 11(a): four quadrant regions; apps 0–2 low load with 30 % of their
/// traffic into app 3's region; app 3 high load, all intra-region.
pub fn four_app_dpa_a(cfg: &SimConfig, low: f64, high: f64) -> (RegionMap, Scenario) {
    let region = RegionMap::quadrants(cfg);
    let spec_low = AppSpec::with_inter(low, 0.3, InterDest::Region(3));
    let scenario = Scenario::new(
        cfg,
        &region,
        vec![
            Some(spec_low.clone()),
            Some(spec_low.clone()),
            Some(spec_low),
            Some(AppSpec::intra_only(high)),
        ],
    );
    (region, scenario)
}

/// Fig. 11(b): four quadrant regions; apps 0–2 low load, all intra-region;
/// app 3 high load with 30 % of its traffic uniformly into other regions.
pub fn four_app_dpa_b(cfg: &SimConfig, low: f64, high: f64) -> (RegionMap, Scenario) {
    let region = RegionMap::quadrants(cfg);
    let scenario = Scenario::new(
        cfg,
        &region,
        vec![
            Some(AppSpec::intra_only(low)),
            Some(AppSpec::intra_only(low)),
            Some(AppSpec::intra_only(low)),
            Some(AppSpec::with_inter(high, 0.3, InterDest::OutsideUniform)),
        ],
    );
    (region, scenario)
}

/// Fig. 13: six regions; every application generates 75 % intra-region UR,
/// 20 % inter-region traffic with `global` pattern and 5 % corner-MC
/// round trips. `rates[app]` gives each application's offered load.
pub fn six_app(cfg: &SimConfig, rates: [f64; 6], global: InterDest) -> (RegionMap, Scenario) {
    let region = RegionMap::six_regions(cfg);
    let specs = rates
        .iter()
        .map(|&r| {
            Some(AppSpec {
                rate_flits: r,
                intra: 0.75,
                inter: 0.20,
                inter_dest: global.clone(),
                mc: 0.05,
            })
        })
        .collect();
    let scenario = Scenario::new(cfg, &region, specs);
    (region, scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    #[test]
    fn two_app_respects_regions() {
        let c = cfg();
        let (region, mut s) = two_app(&c, 0.0, 0.3, 0.3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut generated = 0;
        for cyc in 0..2000 {
            for node in 0..64u16 {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    generated += 1;
                    assert_eq!(p.app, region.app_of(node));
                    // p = 0: all traffic intra-region.
                    assert_eq!(region.app_of(p.dst), p.app, "intra-only leaked");
                    assert_ne!(p.dst, node);
                }
            }
        }
        assert!(generated > 1000);
    }

    #[test]
    fn two_app_inter_fraction_matches_p() {
        let c = cfg();
        let (region, mut s) = two_app(&c, 0.4, 0.3, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let (mut intra, mut inter) = (0u32, 0u32);
        for cyc in 0..4000 {
            for node in region.nodes_of(0) {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    if region.app_of(p.dst) == 0 {
                        intra += 1;
                    } else {
                        inter += 1;
                    }
                }
            }
        }
        let frac = inter as f64 / (intra + inter) as f64;
        assert!((frac - 0.4).abs() < 0.03, "inter fraction {frac}");
    }

    #[test]
    fn offered_load_matches_rate() {
        let c = cfg();
        let (region, mut s) = two_app(&c, 0.0, 0.3, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut flits = 0u64;
        let cycles = 20_000;
        for cyc in 0..cycles {
            for node in region.nodes_of(0) {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    flits += p.size as u64;
                }
            }
        }
        let rate = flits as f64 / cycles as f64 / 32.0;
        assert!((rate - 0.3).abs() < 0.02, "offered {rate} vs 0.3");
    }

    /// The mix follows the config's packet sizes: with 4-flit long packets
    /// the mean packet is 2.5 flits, and the offered flit rate still
    /// matches `rate_flits` (a fixed 3-flit mean would offer 2.5/3 of it).
    #[test]
    fn offered_load_follows_the_configured_packet_sizes() {
        let c = SimConfig {
            long_flits: 4,
            ..cfg()
        };
        c.validate().unwrap();
        assert_eq!(PacketMix::of(&c).mean_flits(), 2.5);
        let region = RegionMap::halves(&c);
        let mut s = Scenario::new(&c, &region, vec![Some(AppSpec::intra_only(0.3)), None]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut flits = 0u64;
        let cycles = 20_000;
        for cyc in 0..cycles {
            for node in region.nodes_of(0) {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    assert!(p.size == 1 || p.size == 4, "size {}", p.size);
                    flits += p.size as u64;
                }
            }
        }
        let rate = flits as f64 / cycles as f64 / 32.0;
        assert!((rate / 0.3 - 1.0).abs() < 0.02, "offered {rate} vs 0.3");
    }

    #[test]
    fn silent_app_generates_nothing() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        let mut s = Scenario::new(&c, &region, vec![None, Some(AppSpec::intra_only(0.5))]);
        let mut rng = SmallRng::seed_from_u64(4);
        for cyc in 0..500 {
            for node in region.nodes_of(0) {
                assert!(s.generate(node, cyc, &mut rng).is_none());
            }
        }
    }

    #[test]
    fn six_app_mc_packets_carry_reply() {
        let c = cfg();
        let (_region, mut s) = six_app(&c, [0.2; 6], InterDest::OutsideUniform);
        let mut rng = SmallRng::seed_from_u64(5);
        let corners = c.corners();
        let mut mc = 0u32;
        let mut total = 0u32;
        for cyc in 0..3000 {
            for node in 0..64u16 {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    total += 1;
                    if let Some(r) = p.reply {
                        mc += 1;
                        assert!(corners.contains(&p.dst));
                        assert_eq!(r.service_latency, c.mem_latency);
                    }
                }
            }
        }
        let frac = mc as f64 / total as f64;
        assert!((frac - 0.05).abs() < 0.01, "MC fraction {frac}");
    }

    #[test]
    fn intensities_match_specs() {
        let c = cfg();
        let (_r, s) = six_app(
            &c,
            [0.1, 0.9, 0.2, 0.3, 0.15, 0.9],
            InterDest::OutsideUniform,
        );
        assert_eq!(s.intensities(), vec![0.1, 0.9, 0.2, 0.3, 0.15, 0.9]);
    }

    #[test]
    fn dpa_scenarios_shape() {
        let c = cfg();
        let (region, mut s) = four_app_dpa_a(&c, 0.1, 0.8);
        let mut rng = SmallRng::seed_from_u64(6);
        // App 0's inter-region traffic must land in region 3.
        let mut saw_inter = false;
        for cyc in 0..5000 {
            for node in region.nodes_of(0) {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    let dapp = region.app_of(p.dst);
                    assert!(dapp == 0 || dapp == 3);
                    saw_inter |= dapp == 3;
                }
            }
        }
        assert!(saw_inter);

        let (region, mut s) = four_app_dpa_b(&c, 0.1, 0.8);
        // Apps 0-2 are intra-only; app 3 sprays everywhere.
        let mut app3_inter = false;
        for cyc in 0..3000 {
            for node in region.nodes_of(3) {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    app3_inter |= region.app_of(p.dst) != 3;
                }
            }
            for node in region.nodes_of(1) {
                if let Some(p) = s.generate(node, cyc, &mut rng) {
                    assert_eq!(region.app_of(p.dst), 1);
                }
            }
        }
        assert!(app3_inter);
    }

    /// `arrival_threshold` is `random_bool` exactly: for probabilities on
    /// and around representable boundaries, every draw value next to the
    /// threshold (and the two ends of the range) decides the same way.
    #[test]
    fn arrival_threshold_is_random_bool_at_the_boundaries() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let mut probs = vec![0.0, 1.0, 0.5, 0.005, 0.08, 1e-9, 1e-300, f64::MIN_POSITIVE];
        for k in [1u64, 2, 3, 1 << 20, (1 << 53) - 1] {
            let p = k as f64 * unit;
            probs.extend([p, p.next_down(), p.next_up().min(1.0)]);
        }
        probs.extend([1.0f64.next_down(), 0.3 / 3.0, 0.015 / 3.0]);
        for p in probs {
            let t = arrival_threshold(p);
            assert_eq!(t == 0, p == 0.0, "only p = 0 never draws: {p:e}");
            let near = [t.saturating_sub(2), t.saturating_sub(1), t, t + 1];
            for k in near.into_iter().chain([0, (1 << 53) - 1]) {
                if k < 1 << 53 {
                    assert_eq!(k < t, (k as f64 * unit) < p, "p = {p:e}, k = {k}");
                }
            }
        }
        // And through the generator itself, draw for draw.
        let (mut a, mut b) = (SmallRng::seed_from_u64(11), SmallRng::seed_from_u64(11));
        let t = arrival_threshold(0.3 / 3.0);
        for _ in 0..10_000 {
            assert_eq!((a.next_u64() >> 11) < t, b.random_bool(0.3 / 3.0));
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_rejected() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        Scenario::new(
            &c,
            &region,
            vec![
                Some(AppSpec {
                    rate_flits: 0.1,
                    intra: 0.5,
                    inter: 0.1,
                    inter_dest: InterDest::OutsideUniform,
                    mc: 0.0,
                }),
                None,
            ],
        );
    }
}
