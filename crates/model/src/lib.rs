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
//! 2. **Link loads** — each flow is placed on its minimal-route lattice
//!    (wrap-aware chosen minimal directions via
//!    [`noc_sim::topology::productive_ports`], so torus/ring/cmesh are
//!    handled uniformly). Per directed channel the model accumulates the
//!    utilization `ρ = λ·E[S]`, separately for traffic that is *native* vs
//!    *foreign* at that channel's upstream router. Dimension-order takes
//!    the single X-then-Y walk. Adaptive routing takes, per channel, the
//!    smaller of two oblivious extremes: a uniform draw over all minimal
//!    paths (closed-form binomial crossing probabilities) and the 50/50
//!    blend of the X-first and Y-first walks.
//!
//! That estimate is the one answer to "how loaded is each channel per unit
//! of offered load", and it has two readers. [`link_load_map`] is the
//! admission pipeline's bandwidth-feasibility input (a channel past 1
//! flit/cycle is over-subscribed). [`warm_hint`] is the saturation bound,
//! the offered load at which the busiest channel of the same map reaches 1
//! flit/cycle, and places the first probe of every saturation search one
//! grid cell under it ([`traffic::saturation::search_saturation`]). So for
//! one application, feasibility admits exactly the loads at or under the
//! bound. Nothing is fitted to the simulator. Flow control, turn
//! restrictions and finite VC depth keep real channels below utilization
//! 1, so measured saturation usually sits under the bound; the adaptive
//! estimate is not strict, though (the audit in `tests/cross_validation.rs`
//! measures up to 1.031× the bound). The bound sits above all eight
//! production knees, so the first probe replaces the search's `max_rate`
//! probe with one nearer the knee; it places probes only, never the load.
//! (A fitted prediction sat 1–6 cells *under* the Fig. 14 knees and made
//! the searches slower; EXPERIMENTS.md, "Measured and not taken".)

use noc_sim::config::SimConfig;
use noc_sim::ids::{
    AppId, Coord, NodeId, Port, NUM_PORTS, PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH, PORT_WEST,
};
use noc_sim::region::RegionMap;
use noc_sim::topology::{has_link, neighbor_router, productive_ports, step};
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

impl LinkLoad {
    fn total(&self) -> f64 {
        self.rho[0] + self.rho[1]
    }
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
                let mut d = pattern_distribution(cfg, p, src);
                // The scenario redirects draws whose pattern destination is
                // undefined to outside-uniform; mirror that for the
                // missing mass.
                let covered: f64 = d.iter().map(|(_, q)| q).sum();
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

/// Hand `out` every flow application `app` offers under `spec` (requests
/// plus MC reply packets on the reverse path).
fn app_flows(
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    out: &mut impl FnMut(Flow),
) {
    if spec.rate_flits <= 0.0 {
        return;
    }
    let mix = PacketMix::of(cfg);
    let req_mean = mix.mean_flits();
    let pkt_rate = spec.rate_flits / req_mean;
    let long = f64::from(mix.long);
    for src in region.nodes_of(app) {
        for (dst, q, is_mc) in dest_distribution(cfg, region, app, spec, src) {
            out(Flow {
                src,
                dst,
                pkt_rate: pkt_rate * q,
                mean: req_mean,
                app,
            });
            if is_mc {
                // The corner answers every MC request with one long packet.
                out(Flow {
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

/// `C(n, k)` for every `k ≤ n ≤` a configuration's longest minimal route,
/// each entry filled by [`binom`] itself, so a coefficient read here is
/// bit-identical to the call it stands for.
struct Binomials {
    stride: usize,
    c: Vec<f64>,
}

impl Binomials {
    fn new(cfg: &SimConfig) -> Self {
        // A minimal route takes at most `width - 1 + height - 1` hops.
        let stride = usize::from(cfg.width) + usize::from(cfg.height);
        let c = (0..stride * stride)
            .map(|i| (i / stride, i % stride))
            .map(|(n, k)| if k <= n { binom(n, k) } else { 0.0 })
            .collect();
        Binomials { stride, c }
    }

    fn get(&self, n: usize, k: usize) -> f64 {
        self.c[n * self.stride + k]
    }
}

/// The coordinate sequence of the chosen minimal direction along one
/// dimension (`dim` 0 = X, 1 = Y), from `from` toward `to` — wrap-aware
/// through [`productive_ports`], so torus/ring dateline direction choices
/// match the simulator's — and the port it steps by (`PORT_LOCAL` when it
/// takes no step). A walk keeps its direction: after the first step the
/// chosen one is strictly shorter.
fn axis_seq(cfg: &SimConfig, from: Coord, to: Coord, dim: usize) -> (Vec<u8>, Port) {
    let mut cur = from;
    let target = if dim == 0 {
        Coord { x: to.x, y: from.y }
    } else {
        Coord { x: from.x, y: to.y }
    };
    let mut seq = vec![if dim == 0 { cur.x } else { cur.y }];
    let mut port = PORT_LOCAL;
    while let Some(p) = productive_ports(cfg, cur, target)[dim] {
        debug_assert!(port == PORT_LOCAL || port == p, "a minimal walk turns back");
        port = p;
        cur = step(cfg, cur, p);
        seq.push(if dim == 0 { cur.x } else { cur.y });
    }
    (seq, port)
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

/// One flow's minimal-route lattice: its destination router, the coordinates its
/// chosen minimal directions visit along X and along Y, and the ports of
/// those two walks. A flow builds it once and routes every style from it.
struct Lattice {
    rd: usize,
    xs: Vec<u8>,
    ys: Vec<u8>,
    ports: [Port; 2],
}

/// A channel resolved to its load-table slot and the class of the flow's
/// traffic on it (`0` native, `1` foreign: the upstream router's region
/// tag against the flow's application).
type Chan = (usize, usize);

impl Lattice {
    fn new(cfg: &SimConfig, src: NodeId, dst: NodeId) -> Self {
        let rd = cfg.router_of(dst);
        let (sc, dc) = (cfg.router_coord(cfg.router_of(src)), cfg.router_coord(rd));
        let ((xs, px), (ys, py)) = (axis_seq(cfg, sc, dc, 0), axis_seq(cfg, sc, dc, 1));
        Lattice {
            rd,
            xs,
            ys,
            ports: [px, py],
        }
    }

    /// Hand `out` the channels a packet of the flow crosses under `style`
    /// with their crossing probabilities (summing to 1 per lattice stage):
    /// the injection channel `ends[0]`, the hops — `x(i, j)` is the X hop
    /// leaving lattice point `(i, j)`, `y(i, j)` the Y hop —, the ejection
    /// channel `ends[1]`.
    ///
    /// Minimal routes form an `a × b` lattice over the chosen minimal
    /// directions (`a` X-steps, `b` Y-steps). Under `Spread` the fraction
    /// of the `C(a+b, a)` minimal paths crossing the X-channel leaving
    /// lattice point `(i, j)` is `C(i+j, i) · C(a-1-i + b-j, a-1-i) /
    /// C(a+b, a)`, and symmetrically for Y-channels.
    fn route(
        &self,
        binom: &Binomials,
        style: RouteStyle,
        ends: [Chan; 2],
        (x, y): (impl Fn(usize, usize) -> Chan, impl Fn(usize, usize) -> Chan),
        out: &mut impl FnMut(Chan, f64),
    ) {
        out(ends[0], 1.0);
        let (a, b) = (self.xs.len() - 1, self.ys.len() - 1);
        // The X hops along lattice row `j` and the Y hops along column `i`.
        let mut x_run = |j, w| (0..a).for_each(|i| out(x(i, j), w));
        match style {
            RouteStyle::Dor => {
                x_run(0, 1.0);
                (0..b).for_each(|j| out(y(a, j), 1.0));
            }
            RouteStyle::Mix => {
                // The X-first boundary walk, then the Y-first one.
                x_run(0, 0.5);
                (0..b).for_each(|j| out(y(a, j), 0.5));
                (0..b).for_each(|j| out(y(0, j), 0.5));
                (0..a).for_each(|i| out(x(i, b), 0.5));
            }
            RouteStyle::Spread => {
                let c = |n, k| binom.get(n, k);
                let total = c(a + b, a);
                for i in 0..a {
                    for j in 0..=b {
                        out(
                            x(i, j),
                            c(i + j, i) * c(a - 1 - i + b - j, a - 1 - i) / total,
                        );
                    }
                }
                for j in 0..b {
                    for i in 0..=a {
                        out(
                            y(i, j),
                            c(i + j, j) * c(a - i + b - 1 - j, b - 1 - j) / total,
                        );
                    }
                }
            }
        }
        out(ends[1], 1.0);
    }
}

/// Per-channel loads, one slot per channel of [`Slots`], in [`Link`]
/// order. `None` marks a channel no flow's routes cross. (A dense table,
/// not a map: the matrix of `repro admit` builds two of these per adaptive
/// cell, and `serve` one or two per job.)
type LoadTable = Vec<Option<LinkLoad>>;

/// The channels of a configuration, one table slot each, in [`Link`]
/// order: injection, each router's links to its neighbours in ascending
/// order (`u32::MAX` pads a router with fewer than four), ejection.
struct Slots {
    nodes: usize,
    nbrs: Vec<[u32; 4]>,
    /// Per router and port, the slot of the hop leaving by it
    /// (`usize::MAX`: no link), built once.
    hops: Vec<[usize; NUM_PORTS]>,
}

impl Slots {
    fn new(cfg: &SimConfig) -> Self {
        let nbr = |r, p| match has_link(cfg, cfg.router_coord(r), p) {
            true => neighbor_router(cfg, r, p) as u32,
            false => u32::MAX,
        };
        let nodes = cfg.num_nodes();
        let (mut nbrs, mut hops) = (Vec::new(), Vec::new());
        for r in 0..cfg.num_routers() {
            let mut n = [PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST].map(|p| nbr(r, p));
            n.sort_unstable();
            // A port's hop takes the first slot naming its neighbour (two
            // ports may reach the same router on a 2-wide ring or torus).
            hops.push(std::array::from_fn(|p| match nbr(r, p) {
                u32::MAX => usize::MAX,
                to => nodes + 4 * r + n.iter().position(|&m| m == to).unwrap_or(0),
            }));
            nbrs.push(n);
        }
        Slots { nodes, nbrs, hops }
    }

    fn len(&self) -> usize {
        self.nodes + 5 * self.nbrs.len()
    }

    /// The slot of node `n`'s injection channel.
    fn inject(&self, n: NodeId) -> usize {
        usize::from(n)
    }

    /// The slot of the hop leaving router `r` by port `p`.
    fn hop(&self, r: usize, p: Port) -> usize {
        self.hops[r][p]
    }

    /// The slot of router `r`'s ejection channel.
    fn eject(&self, r: usize) -> usize {
        self.nodes + 4 * self.nbrs.len() + r
    }

    /// Every slot's channel, in slot order (padding slots name router
    /// `u32::MAX`; no load reaches them).
    fn links(&self) -> impl Iterator<Item = Link> + '_ {
        let hop = |(from, n): (usize, &[u32; 4])| n.map(|to| Link::Hop(from as u32, to));
        let hops = self.nbrs.iter().enumerate().flat_map(hop);
        let injects = (0..self.nodes).map(|n| Link::Inject(n as NodeId));
        let ejects = (0..self.nbrs.len()).map(|r| Link::Eject(r as u32));
        injects.chain(hops).chain(ejects)
    }
}

/// The model's one per-channel estimate of the operating point `specs`
/// under `routing`.
///
/// Dimension-order is exact: the X-then-Y walk. Adaptive routing steers by
/// local congestion between two oblivious extremes: uniform path sampling
/// (which bulges load into the lattice center) and the deterministic XY/YX
/// boundary pair (which piles load onto corners). Congestion avoidance
/// relieves whichever is locally worse, so each channel carries the
/// smaller of the two maps' loads, with that map's native/foreign split.
///
/// Flows are routed as they are enumerated, into every style's table at
/// once, so no flow list is held; each channel still sums its flows in
/// enumeration order. Each channel a flow may cross is resolved to its
/// slot and class once: spread crosses every channel of the lattice, mix a
/// subset.
fn channel_loads(
    cfg: &SimConfig,
    region: &RegionMap,
    slots: &Slots,
    specs: &[Option<AppSpec>],
    routing: RoutingKind,
) -> LoadTable {
    let adaptive = routing == RoutingKind::Adaptive;
    let mut tables: Vec<LoadTable> = vec![vec![None; slots.len()]; 1 + usize::from(adaptive)];
    let binom = Binomials::new(cfg);
    let conc = cfg.concentration();
    // The X hops of the lattice, row-major by `(i, j)`, then the Y hops.
    let mut grid: Vec<Chan> = Vec::new();
    let mut add = |f: Flow| {
        let lattice = Lattice::new(cfg, f.src, f.dst);
        let (xs, ys, [px, py]) = (&lattice.xs, &lattice.ys, lattice.ports);
        let (a, b) = (xs.len() - 1, ys.len() - 1);
        let class = |node: usize| usize::from(!region.is_native(node as NodeId, f.app));
        let hop = |i: usize, j: usize, p: Port| {
            let r = cfg.router_at(Coord { x: xs[i], y: ys[j] });
            (slots.hop(r, p), class(r * conc))
        };
        let ends = [
            (slots.inject(f.src), class(usize::from(f.src))),
            (slots.eject(lattice.rd), class(lattice.rd * conc)),
        ];
        let add_to = |loads: &mut LoadTable, (slot, cls): Chan, w: f64| {
            let load = loads[slot].get_or_insert_with(LinkLoad::default);
            load.rho[cls] += w * f.pkt_rate * f.mean;
        };
        if !adaptive {
            let walk = (|i, j| hop(i, j, px), |i, j| hop(i, j, py));
            let out = &mut |c, w| add_to(&mut tables[0], c, w);
            lattice.route(&binom, RouteStyle::Dor, ends, walk, out);
            return;
        }
        grid.clear();
        grid.extend((0..a).flat_map(|i| (0..=b).map(move |j| hop(i, j, px))));
        grid.extend((0..b).flat_map(|j| (0..=a).map(move |i| hop(i, j, py))));
        let lattice_hops = (
            |i, j| grid[i * (b + 1) + j],
            |i, j| grid[a * (b + 1) + j * (a + 1) + i],
        );
        for (loads, style) in tables.iter_mut().zip([RouteStyle::Spread, RouteStyle::Mix]) {
            let out = &mut |c, w| add_to(loads, c, w);
            lattice.route(&binom, style, ends, lattice_hops, out);
        }
    };
    for (a, spec) in specs.iter().enumerate() {
        if let Some(s) = spec {
            app_flows(cfg, region, a as AppId, s, &mut add);
        }
    }
    let mut tables = tables.into_iter();
    let mut loads = tables.next().unwrap_or_default();
    // Dimension-order has one table and no mix to zip with.
    for (load, m) in loads.iter_mut().zip(tables.next().unwrap_or_default()) {
        // Spread crosses every channel of a flow's lattice, mix its
        // boundary only: a channel mix never crosses carries 0.
        if let Some(load) = load {
            let m = m.unwrap_or_default();
            if m.total() < load.total() {
                *load = m;
            }
        }
    }
    loads
}

// ------------------------------------------------------------------------
// Public predictions
// ------------------------------------------------------------------------

/// The saturation bound of `app` running alone with mix `spec` (the
/// operating point [`traffic::saturation::app_saturation`] measures): the
/// offered load at which the busiest channel of [`link_load_map`] reaches
/// 1 flit/cycle, as the bound
/// [`traffic::saturation::app_saturation_traced`] starts its search under.
/// `experiments::sweep::cached_saturation` computes it on every cache miss.
/// `None` when the spec generates no traffic.
pub fn warm_hint(
    cfg: &SimConfig,
    region: &RegionMap,
    app: AppId,
    spec: &AppSpec,
    routing: RoutingKind,
) -> Option<WarmStart> {
    let mut specs = vec![None; region.num_apps()];
    specs[usize::from(app)] = Some(AppSpec {
        rate_flits: 1.0,
        ..spec.clone()
    });
    let peak = link_load_map(cfg, region, &specs, routing)
        .iter()
        .map(ChannelLoad::rho_total)
        .fold(0.0, f64::max);
    (peak > 0.0).then(|| WarmStart {
        predicted: 1.0 / peak,
    })
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

/// The link-load map of the multi-application operating point `specs` —
/// the input of the static admission pipeline's bandwidth feasibility
/// check and of [`warm_hint`]'s bound. Every channel a flow's minimal
/// routes may cross appears with its class-split utilization, in
/// deterministic [`Link`] order. A channel with `rho_total() > 1` is
/// physically over-subscribed (the over-subscribed-region rejection).
pub fn link_load_map(
    cfg: &SimConfig,
    region: &RegionMap,
    specs: &[Option<AppSpec>],
    routing: RoutingKind,
) -> Vec<ChannelLoad> {
    assert_eq!(specs.len(), region.num_apps());
    let slots = Slots::new(cfg);
    let loads = channel_loads(cfg, region, &slots, specs, routing);
    (slots.links().zip(loads))
        .filter_map(|(link, load)| {
            load.map(|load| ChannelLoad {
                link,
                rho_native: load.rho[0],
                rho_foreign: load.rho[1],
            })
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
        app_flows(&c, &region, 0, &spec, &mut |f| flows.push(f));
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
                let route = route_links(&c, src, dst, style);
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
        let route = route_links(&c, 0, 63, RouteStyle::Dor);
        assert!(route.iter().all(|&(_, w)| w == 1.0));
    }

    /// The route of `src → dst` under `style`, its channels named by the
    /// [`Link`]s of the slots they resolve to.
    fn route_links(c: &SimConfig, src: NodeId, dst: NodeId, style: RouteStyle) -> Vec<(Link, f64)> {
        let slots = Slots::new(c);
        let links: Vec<Link> = slots.links().collect();
        let lattice = Lattice::new(c, src, dst);
        let (xs, ys, [px, py]) = (&lattice.xs, &lattice.ys, lattice.ports);
        let hop =
            |i: usize, j: usize, p| (slots.hop(c.router_at(Coord { x: xs[i], y: ys[j] }), p), 0);
        let ends = [(slots.inject(src), 0), (slots.eject(lattice.rd), 0)];
        let walk = (|i, j| hop(i, j, px), |i, j| hop(i, j, py));
        let mut route = Vec::new();
        let out = &mut |(slot, _), w| route.push((links[slot], w));
        lattice.route(&Binomials::new(c), style, ends, walk, out);
        route
    }

    /// The load map of `app` alone at `rate` under `spec`'s mix.
    fn alone(
        c: &SimConfig,
        region: &RegionMap,
        spec: &AppSpec,
        rate: f64,
        routing: RoutingKind,
    ) -> Vec<ChannelLoad> {
        let mut specs = vec![None; region.num_apps()];
        specs[0] = Some(AppSpec {
            rate_flits: rate,
            ..spec.clone()
        });
        link_load_map(c, region, &specs, routing)
    }

    fn peak(map: &[ChannelLoad]) -> f64 {
        map.iter().map(ChannelLoad::rho_total).fold(0.0, f64::max)
    }

    #[test]
    fn saturation_bound_plausible_on_halves() {
        let c = cfg();
        let region = RegionMap::halves(&c);
        let spec = AppSpec::intra_only(0.0);
        let bound = warm_hint(&c, &region, 0, &spec, RoutingKind::Adaptive)
            .unwrap()
            .predicted;
        assert!(bound > 0.15 && bound < 0.9, "implausible bound {bound}");
        // The bottleneck of intra-half UR is a router-to-router channel,
        // not an injection port.
        let map = alone(&c, &region, &spec, 1.0, RoutingKind::Adaptive);
        let top = map
            .iter()
            .max_by(|a, b| a.rho_total().total_cmp(&b.rho_total()))
            .unwrap();
        assert!(matches!(top.link, Link::Hop(_, _)), "{top:?}");
    }

    /// Halves/intra and chip-wide UR, transpose and bit-complement, the
    /// four canonical topologies, both routing kinds.
    fn bound_cases() -> Vec<(String, SimConfig, RegionMap, AppSpec)> {
        let pat = |p: Pattern| AppSpec::with_inter(0.0, 1.0, InterDest::Pattern(p));
        let mut cases = Vec::new();
        for kind in noc_sim::topology::TopologyKind::CANONICAL {
            let c = SimConfig::table1_topology(kind);
            let (halves, single) = (RegionMap::halves(&c), RegionMap::single(&c));
            for (label, region, spec) in [
                ("halves/intra", halves, AppSpec::intra_only(0.0)),
                ("single/UR", single.clone(), AppSpec::intra_only(0.0)),
                ("single/TP", single.clone(), pat(Pattern::Transpose)),
                ("single/BC", single, pat(Pattern::BitComplement)),
            ] {
                cases.push((format!("{}/{label}", kind.label()), c.clone(), region, spec));
            }
        }
        cases
    }

    /// One estimate, two readers: the load map of an application alone at
    /// its saturation bound peaks at exactly one flit/cycle.
    #[test]
    fn load_map_peaks_at_unit_load_at_the_bound() {
        for (label, c, region, spec) in bound_cases() {
            for routing in [RoutingKind::DimensionOrder, RoutingKind::Adaptive] {
                let Some(hint) = warm_hint(&c, &region, 0, &spec, routing) else {
                    // Transpose is undefined off the square grids.
                    assert_eq!(peak(&alone(&c, &region, &spec, 1.0, routing)), 0.0);
                    assert!(label.ends_with("/TP") && c.width != c.height, "{label}");
                    continue;
                };
                let top = peak(&alone(&c, &region, &spec, hint.predicted, routing));
                assert!((top - 1.0).abs() <= 1e-12, "{label} {routing:?}: {top}");
            }
        }
    }

    /// On these cases adaptive routing's feasibility limit is never below
    /// XY's (the uniform path spread alone put chip-wide bit-complement's
    /// at 0.105 against XY's 0.25, a rejection of loads the simulator runs
    /// stably).
    #[test]
    fn adaptive_feasibility_limit_is_at_least_the_dor_one() {
        for (label, c, region, spec) in bound_cases() {
            let limit = |k| 1.0 / peak(&alone(&c, &region, &spec, 1.0, k));
            let (dor, ada) = (
                limit(RoutingKind::DimensionOrder),
                limit(RoutingKind::Adaptive),
            );
            assert!(ada >= dor * (1.0 - 1e-12), "{label}: {ada} < {dor}");
        }
    }

    /// The dense table's slots enumerate the channels in [`Link`] order,
    /// so the public map comes out sorted.
    #[test]
    fn load_table_slots_round_trip_in_link_order() {
        for kind in noc_sim::topology::TopologyKind::CANONICAL {
            let c = SimConfig::table1_topology(kind);
            let slots = Slots::new(&c);
            let links: Vec<(usize, Link)> = (slots.links().enumerate())
                .filter(|(_, l)| !matches!(l, Link::Hop(_, u32::MAX)))
                .collect();
            let label = kind.label();
            assert_eq!(slots.links().count(), slots.len(), "{label}");
            assert!(links.windows(2).all(|w| w[0].1 < w[1].1), "{label}");
            let resolves = |i, l| match l {
                Link::Inject(n) => slots.inject(n) == i,
                Link::Eject(r) => slots.eject(r as usize) == i,
                Link::Hop(from, to) => (1..NUM_PORTS).any(|p| {
                    let from = from as usize;
                    has_link(&c, c.router_coord(from), p)
                        && neighbor_router(&c, from, p) as u32 == to
                        && slots.hop(from, p) == i
                }),
            };
            assert!(links.iter().all(|&(i, l)| resolves(i, l)), "{label}");
            // One hop slot per directed link of the topology.
            let hops = links.iter().filter(|(_, l)| matches!(l, Link::Hop(..)));
            let directed: usize = (0..c.num_routers())
                .map(|r| {
                    let at = c.router_coord(r);
                    (1..=4).filter(|&p| has_link(&c, at, p)).count()
                })
                .sum();
            assert_eq!(hops.count(), directed, "{label}");
        }
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

    /// A chip-wide center-hotspot pattern has a bound on every canonical
    /// topology under both routing kinds, the one-row ring included, where
    /// no 2×2 block of routers fits.
    #[test]
    fn center_hotspot_traffic_has_a_bound_on_every_topology() {
        for kind in noc_sim::topology::TopologyKind::CANONICAL {
            let c = SimConfig::table1_topology(kind);
            let region = RegionMap::single(&c);
            let hotspot = Pattern::Hotspot {
                spots: Pattern::center_hotspots(&c),
                bias: 0.5,
            };
            let spec = AppSpec::with_inter(0.0, 1.0, InterDest::Pattern(hotspot));
            for routing in [RoutingKind::DimensionOrder, RoutingKind::Adaptive] {
                let bound = warm_hint(&c, &region, 0, &spec, routing).map(|w| w.predicted);
                assert!(
                    bound.is_some_and(|b| b > 0.0 && b.is_finite()),
                    "{kind:?}/{routing:?}: {bound:?}"
                );
            }
        }
    }
}
