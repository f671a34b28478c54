//! Closed-form link-load model for regionalized NoCs.
//!
//! The offered-traffic and channel-load stages of the priority-class
//! approach of Mandal et al. ("Analytical Performance Models for NoCs with
//! Multiple Priority Traffic Classes"), specialized to this repository's
//! simulator: RAIR's native/foreign split is the model's two traffic
//! classes at every shared channel.
//!
//! The model works in two analytic stages, no simulation anywhere:
//!
//! 1. **Flow enumeration** — every `(src, dst)` pair an [`AppSpec`]'s
//!    traffic mix can generate, with its exact packet rate and mean packet
//!    size (the scenario's 50/50 short/long request mix; long-packet MC
//!    replies on the reverse path). Distributions are enumerated from the
//!    same rules [`traffic::scenario::Scenario::new`] draws from, so the
//!    offered matrix matches the simulator in expectation.
//! 2. **Link loads** — each flow is spread over its minimal-route lattice
//!    (wrap-aware chosen minimal directions via
//!    [`noc_sim::topology::productive_ports`], so torus/ring/cmesh are
//!    handled uniformly): dimension-order takes the single X-then-Y walk,
//!    adaptive routing is approximated as a uniform draw over all minimal
//!    paths with closed-form binomial crossing probabilities per channel.
//!    Per directed channel the model accumulates the utilization
//!    `ρ = λ·E[S]`, separately for traffic that is *native* vs *foreign* at
//!    that channel's upstream router.
//!
//! Every channel carries at most one flit per cycle, so the saturation
//! bound is the offered load at which the busiest channel's utilization
//! reaches 1. Nothing is fitted to the simulator. Flow control, turn
//! restrictions and finite VC depth keep real channels below utilization 1,
//! so measured saturation usually sits under the bound. The adaptive
//! estimate (the pointwise minimum of two oblivious route maps) is not a
//! strict bound, which is what [`SCREEN_MARGIN`] allows for.
//!
//! Three consumers: [`link_load_map`] is the admission pipeline's
//! bandwidth-feasibility input, [`predict_app_saturation`] screens
//! `repro serve --screen` jobs, and [`warm_hint`] places the first probe of
//! every saturation search one grid cell under the bound
//! ([`traffic::saturation::search_saturation`]). The bound sits above all
//! eight production knees, so that probe replaces the search's `max_rate`
//! probe with one nearer the knee; it places probes only, never the load.
//! (A fitted prediction sat 1–6 cells *under* the Fig. 14 knees and made
//! the searches slower; EXPERIMENTS.md, "Measured and not taken".)

use noc_sim::config::SimConfig;
use noc_sim::ids::{AppId, NodeId};
use noc_sim::region::RegionMap;
use noc_sim::topology::{productive_ports, step};
use traffic::pattern::Pattern;
use traffic::saturation::WarmStart;
use traffic::scenario::{AppSpec, InterDest, PacketMix};

use std::collections::BTreeMap;
use std::fmt;

/// How the model routes flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Deterministic dimension-order (XY; wrap-aware minimal directions on
    /// torus/ring).
    DimensionOrder,
    /// Minimal adaptive, approximated as a uniform draw over all minimal
    /// paths (binomial crossing probabilities on the route lattice).
    Adaptive,
}

/// A directed contention point in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Link {
    /// The injection channel of one node's network interface.
    Inject(NodeId),
    /// The directed router-to-router channel `from → to` (router indices).
    Hop(u32, u32),
    /// A router's ejection channel (shared by all `concentration` nodes).
    Eject(u32),
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Link::Inject(n) => write!(f, "inject(n{n})"),
            Link::Hop(a, b) => write!(f, "r{a}->r{b}"),
            Link::Eject(r) => write!(f, "eject(r{r})"),
        }
    }
}

/// One `(src, dst)` traffic component with its packet rate (packets per
/// cycle) and mean packet size (flits; 1 flit/cycle channels make service
/// cycles equal packet flits).
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    pkt_rate: f64,
    mean: f64,
    app: AppId,
}

/// Per-channel load accumulator, split by the native/foreign class of the
/// traffic at this channel (`[0] = native, [1] = foreign`).
#[derive(Debug, Clone, Copy, Default)]
struct LinkLoad {
    /// Utilization `Σ λ·E[S]` (flits/cycle).
    rho: [f64; 2],
}

// ------------------------------------------------------------------------
// Stage 1: flow enumeration
// ------------------------------------------------------------------------

/// Destination probabilities of one pattern from `src`, mirroring
/// [`Pattern::dest`]. The returned weights sum to ≤ 1; missing mass is the
/// probability that `dest` returns `None` (transpose diagonal, singleton
/// sets).
fn pattern_distribution(cfg: &SimConfig, p: &Pattern, src: NodeId) -> Vec<(NodeId, f64)> {
    let n = cfg.num_nodes() as NodeId;
    let uniform_excluding = |set: &[NodeId]| -> Vec<(NodeId, f64)> {
        let targets: Vec<NodeId> = set.iter().copied().filter(|&d| d != src).collect();
        let q = 1.0 / targets.len() as f64;
        targets.into_iter().map(|d| (d, q)).collect()
    };
    match p {
        Pattern::UniformRandom => uniform_excluding(&(0..n).collect::<Vec<_>>()),
        Pattern::UniformWithin(set) => uniform_excluding(set),
        Pattern::UniformOutside(set) => {
            let outside: Vec<NodeId> = (0..n).filter(|d| !set.contains(d)).collect();
            uniform_excluding(&outside)
        }
        Pattern::Transpose => {
            let c = cfg.coord_of(src);
            if c.x == c.y || cfg.width != cfg.height {
                return Vec::new();
            }
            vec![(cfg.node_at(noc_sim::ids::Coord { x: c.y, y: c.x }), 1.0)]
        }
        Pattern::BitComplement => {
            let d = n - 1 - src;
            if d == src {
                Vec::new()
            } else {
                vec![(d, 1.0)]
            }
        }
        Pattern::Hotspot { spots, bias } => {
            let mut acc: BTreeMap<NodeId, f64> = BTreeMap::new();
            for (d, q) in uniform_excluding(spots) {
                *acc.entry(d).or_default() += bias * q;
            }
            for (d, q) in pattern_distribution(cfg, &Pattern::UniformRandom, src) {
                *acc.entry(d).or_default() += (1.0 - bias) * q;
            }
            acc.into_iter().collect()
        }
    }
}

/// Destination distribution of one application's packets from `src`:
/// `(dst, probability, is_mc_request)` triples summing to ≤ 1 (mass lost to
/// undefined destinations is dropped, exactly as the scenario drops those
/// draws).
fn dest_distribution(
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    src: NodeId,
) -> Vec<(NodeId, f64, bool)> {
    let mut acc: BTreeMap<(NodeId, bool), f64> = BTreeMap::new();
    let own = region.nodes_of(app);
    let mut add = |dst: NodeId, q: f64, mc: bool| {
        if q > 0.0 {
            *acc.entry((dst, mc)).or_default() += q;
        }
    };
    if spec.intra > 0.0 {
        for (d, q) in pattern_distribution(cfg, &Pattern::UniformWithin(own.clone()), src) {
            add(d, spec.intra * q, false);
        }
    }
    if spec.inter > 0.0 {
        let outside = Pattern::UniformOutside(own.clone());
        let dist = match &spec.inter_dest {
            InterDest::OutsideUniform => pattern_distribution(cfg, &outside, src),
            InterDest::Region(target) => {
                pattern_distribution(cfg, &Pattern::UniformWithin(region.nodes_of(*target)), src)
            }
            InterDest::Pattern(p) => {
                let d = pattern_distribution(cfg, p, src);
                // The scenario redirects draws whose pattern destination is
                // undefined to outside-uniform; mirror that for the
                // missing mass.
                let covered: f64 = d.iter().map(|(_, q)| q).sum();
                let mut d = d;
                if covered < 1.0 - 1e-12 {
                    for (dst, q) in pattern_distribution(cfg, &outside, src) {
                        d.push((dst, (1.0 - covered) * q));
                    }
                }
                d
            }
        };
        for (d, q) in dist {
            add(d, spec.inter * q, false);
        }
    }
    if spec.mc > 0.0 {
        // Uniform over the four corners; a draw of the source itself is
        // remapped to the next corner in array order (scenario rule).
        let corners = cfg.corners();
        for (i, &c) in corners.iter().enumerate() {
            let dst = if c == src { corners[(i + 1) % 4] } else { c };
            add(dst, spec.mc * 0.25, true);
        }
    }
    acc.into_iter().map(|((d, mc), q)| (d, q, mc)).collect()
}

/// Enumerate every flow application `app` offers under `spec` (requests
/// plus MC reply packets on the reverse path).
fn app_flows(cfg: &SimConfig, region: &RegionMap, app: AppId, spec: &AppSpec, out: &mut Vec<Flow>) {
    if spec.rate_flits <= 0.0 {
        return;
    }
    let mix = PacketMix::of(cfg);
    let req_mean = mix.mean_flits();
    let pkt_rate = spec.rate_flits / req_mean;
    let long = f64::from(mix.long);
    for src in region.nodes_of(app) {
        for (dst, q, is_mc) in dest_distribution(cfg, region, app, spec, src) {
            out.push(Flow {
                src,
                dst,
                pkt_rate: pkt_rate * q,
                mean: req_mean,
                app,
            });
            if is_mc {
                // The corner answers every MC request with one long packet.
                out.push(Flow {
                    src: dst,
                    dst: src,
                    pkt_rate: pkt_rate * q,
                    mean: long,
                    app,
                });
            }
        }
    }
}

// ------------------------------------------------------------------------
// Stage 2: routes and link loads
// ------------------------------------------------------------------------

/// Binomial coefficient as f64 (path counts on the minimal-path lattice;
/// radix-bounded, so well inside exact-f64 territory).
fn binom(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - k + 1 + i) as f64 / (i + 1) as f64;
    }
    r
}

/// The coordinate sequence of the chosen minimal direction along one
/// dimension (`dim` 0 = X, 1 = Y), from `from` toward `to` — wrap-aware
/// through [`productive_ports`], so torus/ring dateline direction choices
/// match the simulator's.
fn axis_seq(
    cfg: &SimConfig,
    from: noc_sim::ids::Coord,
    to: noc_sim::ids::Coord,
    dim: usize,
) -> Vec<u8> {
    let mut cur = from;
    let target = if dim == 0 {
        noc_sim::ids::Coord { x: to.x, y: from.y }
    } else {
        noc_sim::ids::Coord { x: from.x, y: to.y }
    };
    let mut seq = vec![if dim == 0 { cur.x } else { cur.y }];
    while let Some(p) = productive_ports(cfg, cur, target)[dim] {
        cur = step(cfg, cur, p);
        seq.push(if dim == 0 { cur.x } else { cur.y });
    }
    seq
}

/// How one flow's load is spread over its minimal-route lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteStyle {
    /// The single X-then-Y dimension-order walk.
    Dor,
    /// Uniform draw over all minimal paths (binomial crossing weights).
    Spread,
    /// 50/50 over the X-first and Y-first walks (the two lattice
    /// boundaries) — the concentrated extreme of minimal adaptivity.
    Mix,
}

impl RoutingKind {
    /// The route style used for expected link loads.
    fn style(self) -> RouteStyle {
        match self {
            RoutingKind::DimensionOrder => RouteStyle::Dor,
            RoutingKind::Adaptive => RouteStyle::Spread,
        }
    }
}

/// The channels a `src → dst` packet crosses, with their crossing
/// probabilities (summing to 1 per lattice stage).
///
/// Minimal routes form an `a × b` lattice over the chosen minimal
/// directions (`a` X-steps, `b` Y-steps). Under `Spread` the fraction of
/// the `C(a+b, a)` minimal paths crossing the X-channel leaving lattice
/// point `(i, j)` is `C(i+j, i) · C(a-1-i + b-j, a-1-i) / C(a+b, a)`,
/// and symmetrically for Y-channels.
fn route_distribution(
    cfg: &SimConfig,
    src: NodeId,
    dst: NodeId,
    style: RouteStyle,
    out: &mut Vec<(Link, f64)>,
) {
    out.push((Link::Inject(src), 1.0));
    let (rs, rd) = (cfg.router_of(src), cfg.router_of(dst));
    let (sc, dc) = (cfg.router_coord(rs), cfg.router_coord(rd));
    let xs = axis_seq(cfg, sc, dc, 0);
    let ys = axis_seq(cfg, sc, dc, 1);
    let (a, b) = (xs.len() - 1, ys.len() - 1);
    let r_at = |x: u8, y: u8| cfg.router_at(noc_sim::ids::Coord { x, y }) as u32;
    match style {
        RouteStyle::Dor => {
            for i in 0..a {
                out.push((Link::Hop(r_at(xs[i], ys[0]), r_at(xs[i + 1], ys[0])), 1.0));
            }
            for j in 0..b {
                out.push((Link::Hop(r_at(xs[a], ys[j]), r_at(xs[a], ys[j + 1])), 1.0));
            }
        }
        RouteStyle::Mix => {
            // X-first boundary walk…
            for i in 0..a {
                out.push((Link::Hop(r_at(xs[i], ys[0]), r_at(xs[i + 1], ys[0])), 0.5));
            }
            for j in 0..b {
                out.push((Link::Hop(r_at(xs[a], ys[j]), r_at(xs[a], ys[j + 1])), 0.5));
            }
            // …and the Y-first one.
            for j in 0..b {
                out.push((Link::Hop(r_at(xs[0], ys[j]), r_at(xs[0], ys[j + 1])), 0.5));
            }
            for i in 0..a {
                out.push((Link::Hop(r_at(xs[i], ys[b]), r_at(xs[i + 1], ys[b])), 0.5));
            }
        }
        RouteStyle::Spread => {
            let total = binom(a + b, a);
            for i in 0..a {
                for (j, &yj) in ys.iter().enumerate() {
                    let w = binom(i + j, i) * binom(a - 1 - i + b - j, a - 1 - i) / total;
                    out.push((Link::Hop(r_at(xs[i], yj), r_at(xs[i + 1], yj)), w));
                }
            }
            for j in 0..b {
                for (i, &xi) in xs.iter().enumerate() {
                    let w = binom(i + j, j) * binom(a - i + b - 1 - j, b - 1 - j) / total;
                    out.push((Link::Hop(r_at(xi, ys[j]), r_at(xi, ys[j + 1])), w));
                }
            }
        }
    }
    out.push((Link::Eject(rd as u32), 1.0));
}

/// Is `flow` native traffic at `link` (the upstream router's region tag
/// matches the flow's application)?
fn native_at(cfg: &SimConfig, region: &RegionMap, link: Link, app: AppId) -> bool {
    let tag_node = match link {
        Link::Inject(n) => n,
        Link::Hop(from, _) => (from as usize * cfg.concentration()) as NodeId,
        Link::Eject(r) => (r as usize * cfg.concentration()) as NodeId,
    };
    region.is_native(tag_node, app)
}

/// Accumulate every flow's load onto its channels.
fn link_loads(
    cfg: &SimConfig,
    region: &RegionMap,
    flows: &[Flow],
    style: RouteStyle,
) -> BTreeMap<Link, LinkLoad> {
    let mut loads: BTreeMap<Link, LinkLoad> = BTreeMap::new();
    let mut route = Vec::new();
    for f in flows {
        route.clear();
        route_distribution(cfg, f.src, f.dst, style, &mut route);
        for &(link, w) in &route {
            let cls = usize::from(!native_at(cfg, region, link, f.app));
            loads.entry(link).or_default().rho[cls] += w * f.pkt_rate * f.mean;
        }
    }
    loads
}

// ------------------------------------------------------------------------
// Public predictions
// ------------------------------------------------------------------------

/// A saturation bound with its bottleneck diagnosis.
#[derive(Debug, Clone, Copy)]
pub struct SaturationPrediction {
    /// Saturation bound (flits/cycle/node over the app's nodes).
    pub load: f64,
    /// Flit rate of the bottleneck channel at unit offered load; `load`
    /// is `1 / channel_load`.
    pub channel_load: f64,
    /// The channel that saturates first.
    pub bottleneck: Link,
}

/// How far measured saturation may sit above [`predict_app_saturation`]'s
/// bound. The adaptive estimate is not strict: the audit in
/// `tests/cross_validation.rs` measures up to 1.031× the bound, and
/// `repro serve --screen` skips only jobs offered past this multiple.
pub const SCREEN_MARGIN: f64 = 1.5;

/// Predict the saturation load of `app` running alone with mix `spec`
/// (the operating point [`traffic::saturation::app_saturation`] measures):
/// the offered load at which the busiest channel's utilization reaches 1
/// flit/cycle. `None` when the spec generates no traffic.
pub fn predict_app_saturation(
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    routing: RoutingKind,
) -> Option<SaturationPrediction> {
    let unit = AppSpec {
        rate_flits: 1.0,
        ..spec.clone()
    };
    let mut flows = Vec::new();
    app_flows(cfg, region, app, &unit, &mut flows);
    if flows.is_empty() {
        return None;
    }
    let loads = link_loads(cfg, region, &flows, routing.style());
    // Adaptive routing steers by local congestion between two oblivious
    // extremes: uniform path sampling (which bulges load into the lattice
    // center) and the deterministic XY/YX boundary pair (which piles load
    // onto corners). Congestion avoidance relieves whichever is locally
    // worse, so estimate each channel's achievable load as the pointwise
    // minimum of the two maps. Dimension-order is exact.
    let mix = (routing == RoutingKind::Adaptive)
        .then(|| link_loads(cfg, region, &flows, RouteStyle::Mix));
    let est = |l: &Link, load: &LinkLoad| -> f64 {
        let spread = load.rho[0] + load.rho[1];
        match &mix {
            Some(m) => m.get(l).map_or(0.0, |ml| ml.rho[0] + ml.rho[1]).min(spread),
            None => spread,
        }
    };
    let (bottleneck, channel_load) = loads
        .iter()
        .map(|(l, load)| (*l, est(l, load)))
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    if channel_load <= 0.0 {
        return None;
    }
    Some(SaturationPrediction {
        load: 1.0 / channel_load,
        channel_load,
        bottleneck,
    })
}

/// [`predict_app_saturation`] wrapped as the bound
/// [`traffic::saturation::app_saturation_traced`] starts its search under.
/// `experiments::sweep::cached_saturation` computes it on every cache miss.
pub fn warm_hint(
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    routing: RoutingKind,
) -> Option<WarmStart> {
    let predicted = predict_app_saturation(cfg, region, app, spec, routing)?.load;
    Some(WarmStart { predicted })
}

/// One channel of the public load map: its predicted utilization at the
/// given operating point, split by the native/foreign class of the
/// traffic crossing it.
#[derive(Debug, Clone, Copy)]
pub struct ChannelLoad {
    /// The contention point.
    pub link: Link,
    /// Native-class utilization `Σ λ·E[S]` (flits/cycle).
    pub rho_native: f64,
    /// Foreign-class utilization (flits/cycle).
    pub rho_foreign: f64,
}

impl ChannelLoad {
    /// Total predicted utilization of the channel.
    pub fn rho_total(&self) -> f64 {
        self.rho_native + self.rho_foreign
    }
}

/// The per-flow link-load map of the multi-application operating point
/// `specs` — the public API the static admission pipeline's bandwidth
/// feasibility check is built on. Every contended channel appears with
/// its class-split utilization, in deterministic [`Link`] order. A channel
/// with `rho_total() > 1` is physically over-subscribed (the
/// over-subscribed-region rejection).
pub fn link_load_map(
    cfg: &SimConfig,
    region: &RegionMap,
    specs: &[Option<AppSpec>],
    routing: RoutingKind,
) -> Vec<ChannelLoad> {
    assert_eq!(specs.len(), region.num_apps());
    let mut flows = Vec::new();
    for (a, spec) in specs.iter().enumerate() {
        if let Some(s) = spec {
            app_flows(cfg, region, a as AppId, s, &mut flows);
        }
    }
    link_loads(cfg, region, &flows, routing.style())
        .into_iter()
        .map(|(link, load)| ChannelLoad {
            link,
            rho_native: load.rho[0],
            rho_foreign: load.rho[1],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    #[test]
    fn pattern_distributions_sum_to_one_or_less() {
        let c = cfg();
        let n = c.num_nodes() as NodeId;
        for p in [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::BitComplement,
            Pattern::UniformWithin((0..32).collect()),
            Pattern::UniformOutside((0..32).collect()),
            Pattern::Hotspot {
                spots: Pattern::center_hotspots(&c),
                bias: 0.7,
            },
        ] {
            for src in 0..n {
                let d = pattern_distribution(&c, &p, src);
                let total: f64 = d.iter().map(|(_, q)| q).sum();
                assert!(total <= 1.0 + 1e-9, "{p:?} from {src}: {total}");
                assert!(d.iter().all(|&(dst, q)| dst != src && q > 0.0));
                // Only the transpose diagonal loses mass.
                if !matches!(p, Pattern::Transpose) {
                    assert!((total - 1.0).abs() < 1e-9, "{p:?} from {src}: {total}");
                }
            }
        }
    }

    #[test]
    fn dest_distribution_mirrors_scenario_mix() {
        let c = cfg();
        let region = RegionMap::six_regions(&c);
        let spec = AppSpec {
            rate_flits: 0.3,
            intra: 0.75,
            inter: 0.20,
            inter_dest: InterDest::OutsideUniform,
            mc: 0.05,
        };
        let d = dest_distribution(&c, &region, 0, &spec, 0);
        let total: f64 = d.iter().map(|(_, q, _)| q).sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        let mc: f64 = d.iter().filter(|(_, _, m)| *m).map(|(_, q, _)| q).sum();
        assert!((mc - 0.05).abs() < 1e-9, "mc mass {mc}");
        // Node 0 is a corner: its own-corner MC draw remaps elsewhere.
        assert!(d.iter().all(|&(dst, _, _)| dst != 0));
    }

    #[test]
    fn flows_conserve_offered_packets() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        let spec = AppSpec::intra_only(0.3);
        let mut flows = Vec::new();
        app_flows(&c, &region, 0, &spec, &mut flows);
        let pkts: f64 = flows.iter().map(|f| f.pkt_rate).sum();
        let expect = 32.0 * 0.3 / PacketMix::of(&c).mean_flits();
        assert!((pkts - expect).abs() < 1e-9, "{pkts} vs {expect}");
        assert!(flows
            .iter()
            .all(|f| region.app_of(f.src) == 0 && region.app_of(f.dst) == 0));
    }

    #[test]
    fn route_distributions_are_minimal_and_conserve_flow() {
        let c = cfg();
        for (src, dst) in [(0u16, 63u16), (7, 56), (10, 10), (3, 4)] {
            let d = noc_sim::topology::distance(&c, c.coord_of(src), c.coord_of(dst));
            for style in [RouteStyle::Dor, RouteStyle::Spread, RouteStyle::Mix] {
                let mut route = Vec::new();
                route_distribution(&c, src, dst, style, &mut route);
                assert_eq!(route[0], (Link::Inject(src), 1.0));
                assert_eq!(
                    *route.last().unwrap(),
                    (Link::Eject(c.router_of(dst) as u32), 1.0)
                );
                // The expected hop count equals the topological distance:
                // crossing probabilities over each lattice stage sum to 1,
                // so hop weights total exactly `d`.
                let hops: f64 = route
                    .iter()
                    .filter(|(l, _)| matches!(l, Link::Hop(_, _)))
                    .map(|&(_, w)| w)
                    .sum();
                assert!((hops - f64::from(d)).abs() < 1e-9, "{src}->{dst} {style:?}");
                assert!(route.iter().all(|&(_, w)| w > 0.0 && w <= 1.0 + 1e-12));
            }
        }
        // Dimension-order is a single walk: every weight is exactly 1.
        let mut route = Vec::new();
        route_distribution(&c, 0, 63, RouteStyle::Dor, &mut route);
        assert!(route.iter().all(|&(_, w)| w == 1.0));
    }

    #[test]
    fn saturation_prediction_plausible_on_halves() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        let p = predict_app_saturation(
            &c,
            &region,
            0,
            &AppSpec::intra_only(0.0),
            RoutingKind::Adaptive,
        )
        .unwrap();
        assert!(
            p.load > 0.15 && p.load < 0.9,
            "implausible prediction {p:?}"
        );
        // The bottleneck of intra-half UR is a router-to-router channel,
        // not an injection port.
        assert!(matches!(p.bottleneck, Link::Hop(_, _)), "{p:?}");
    }

    #[test]
    fn adaptive_never_loads_bottleneck_more_than_dor() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        let spec = AppSpec::intra_only(0.0);
        let dor = predict_app_saturation(&c, &region, 0, &spec, RoutingKind::DimensionOrder)
            .unwrap()
            .channel_load;
        let ada = predict_app_saturation(&c, &region, 0, &spec, RoutingKind::Adaptive)
            .unwrap()
            .channel_load;
        assert!(ada <= dor + 1e-9, "adaptive {ada} vs dor {dor}");
    }

    #[test]
    fn link_load_map_is_conservative_and_class_split() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        // App 0 sends 40% of its flits into app 1's half: those flows are
        // foreign on channels inside app 1's region.
        let specs = vec![
            Some(AppSpec::with_inter(0.2, 0.4, InterDest::Region(1))),
            Some(AppSpec::intra_only(0.1)),
        ];
        let map = link_load_map(&c, &region, &specs, RoutingKind::Adaptive);
        assert!(!map.is_empty());
        assert!(map
            .iter()
            .all(|cl| cl.rho_native >= 0.0 && cl.rho_foreign >= 0.0));
        assert!(
            map.iter().any(|cl| cl.rho_foreign > 0.0),
            "inter-region traffic must show up as foreign load"
        );
        // Labels are stable and link-shaped.
        let labels: Vec<String> = map.iter().take(2).map(|cl| cl.link.to_string()).collect();
        assert!(labels[0].starts_with("inject(n"), "{labels:?}");
        // At a tiny offered load nothing is over-subscribed.
        assert!(map.iter().all(|cl| cl.rho_total() < 1.0));
    }
}
