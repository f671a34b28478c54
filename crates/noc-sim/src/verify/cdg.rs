//! Channel-dependency-graph construction and Tarjan SCC cycle detection.
//!
//! Channel nodes are `(router, port, dateline-lane)` triples — 4 ports per
//! router, [`SimConfig::escape_lanes`] lanes per port (1 on the non-wrapping
//! grids, 2 on torus/ring) — with the message-class dimension collapsed as
//! documented in the module root. For every destination the routing
//! function is enumerated symbolically through
//! [`RoutingAlgorithm::next_hops`](crate::routing::RoutingAlgorithm::next_hops),
//! yielding per-router usable adaptive ports and the escape (port, lane).
//! Two graphs can be requested:
//!
//! * **extended escape graph** (the default, Duato's criterion): an edge
//!   `e1 → e2` between escape channels whenever a packet holding `e1` can
//!   reach, through zero or more adaptive channels, a router where it
//!   requests `e2`. Because all usable hops are minimal under the
//!   topology's distance, the adaptive reachability closure is computed by
//!   dynamic programming in increasing distance order (the adaptive
//!   subgraph per destination is a DAG), directly as bitsets of the escape
//!   channels reached, which join the graph's dense per-channel rows by
//!   word ORs.
//! * **full adaptive graph** (`without_escape`): direct dependencies
//!   between consecutive adaptive channels — this is what must be acyclic
//!   when no escape path exists. Lanes are irrelevant here (only lane 0 is
//!   populated).

use super::legality;
use super::{
    ChannelClass, ChannelId, Verifier, VerifyReport, VerifyViolation, Witness,
    MAX_RECORDED_VIOLATIONS,
};
use crate::config::SimConfig;
use crate::ids::{Coord, NodeId, Port};
use crate::topology;
use std::collections::{BTreeSet, VecDeque};

/// The dependency graph: one dense bitset row per channel. Every
/// destination re-derives most edges, and a duplicate costs one OR. Rows
/// are walked in ascending target order, which fixes the order Tarjan and
/// the cycle extraction visit edges in, and so every witness cycle.
struct DepRows {
    words: usize,
    bits: Vec<u64>,
}

impl DepRows {
    fn new(channels: usize) -> Self {
        let words = channels.div_ceil(64);
        Self {
            words,
            bits: vec![0; channels * words],
        }
    }

    fn channels(&self) -> usize {
        self.bits.len() / self.words
    }

    fn row_mut(&mut self, from: usize) -> &mut [u64] {
        &mut self.bits[from * self.words..(from + 1) * self.words]
    }

    fn insert(&mut self, from: usize, to: usize) {
        self.bits[from * self.words + (to >> 6)] |= 1 << (to & 63);
    }

    fn contains(&self, from: usize, to: usize) -> bool {
        self.bits[from * self.words + (to >> 6)] >> (to & 63) & 1 == 1
    }

    /// The first dependency target of `from` at or after `at`.
    fn next(&self, from: usize, at: usize) -> Option<usize> {
        let row = &self.bits[from * self.words..(from + 1) * self.words];
        let mut w = at >> 6;
        let mut bits = row.get(w)? & (!0 << (at & 63));
        while bits == 0 {
            w += 1;
            bits = *row.get(w)?;
        }
        Some((w << 6) + bits.trailing_zeros() as usize)
    }

    /// Every dependency target of `from`, ascending.
    fn targets(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next(from, 0), move |&t| self.next(from, t + 1))
    }

    fn edges(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Capped violation recorder (the count is uncapped).
pub(super) struct Violations {
    pub list: Vec<VerifyViolation>,
    pub count: u64,
}

impl Violations {
    fn new() -> Self {
        Self {
            list: Vec::new(),
            count: 0,
        }
    }

    pub(super) fn record(&mut self, check: &'static str, witness: Witness) {
        self.count += 1;
        if self.list.len() < MAX_RECORDED_VIOLATIONS {
            self.list.push(VerifyViolation { check, witness });
        }
    }

    /// Record at the *front* of the report so a witness cycle survives the
    /// cap even when thousands of legality violations precede it.
    fn record_front(&mut self, check: &'static str, witness: Witness) {
        self.count += 1;
        self.list.insert(0, VerifyViolation { check, witness });
        self.list.truncate(MAX_RECORDED_VIOLATIONS);
    }
}

/// Channel node index of `(router, port, lane)` — ports 1..=4 map to
/// 0..=3, `lanes` is the per-port lane count.
#[inline]
fn chan(lanes: usize, router: usize, port: Port, lane: usize) -> usize {
    (router * 4 + (port - 1)) * lanes + lane
}

fn chan_id(lanes: usize, idx: usize, escape: bool) -> ChannelId {
    let router = (idx / (4 * lanes)) as NodeId;
    let rem = idx % (4 * lanes);
    ChannelId {
        router,
        port: rem / lanes + 1,
        class: if escape {
            ChannelClass::Escape(0)
        } else {
            ChannelClass::Adaptive
        },
        lane: (rem % lanes) as u8,
    }
}

/// Detour-escape relaxation: any port with a physical link is a legal
/// *escape* hop (fault detours are deliberately non-minimal); reachability
/// is then proven by the escape-chain walk instead of the distance DP.
fn valid_detour_hop(cfg: &SimConfig, cur: Coord, p: Port) -> bool {
    (1..=4).contains(&p) && topology::has_link(cfg, cur, p)
}

pub(super) fn run(v: &Verifier<'_>) -> VerifyReport {
    let cfg = v.cfg;
    let n = cfg.num_routers();
    let lanes = cfg.escape_lanes();
    let mut vio = Violations::new();
    let mut adj = DepRows::new(n * 4 * lanes);
    let mut reach = Reach {
        bits: vec![0; if v.use_escape { adj.words * n } else { 0 }],
        span: vec![(0, 0); n],
    };
    let mut bad_hops: BTreeSet<(usize, Port)> = BTreeSet::new();
    let mut pairs = 0usize;

    // Routers in increasing distance from the destination; recomputed per
    // destination. All usable hops are minimal, so every hop moves to an
    // earlier router in this order — both the adaptive closure and the
    // legality DP walk it.
    let mut order: Vec<usize> = (0..n).collect();

    for dst_idx in 0..n {
        let d = cfg.router_coord(dst_idx);
        let mut adap: Vec<[Option<Port>; 2]> = vec![[None; 2]; n];
        let mut esc: Vec<Option<(Port, u8)>> = vec![None; n];
        for (r, (ad, es)) in adap.iter_mut().zip(esc.iter_mut()).enumerate() {
            if r == dst_idx || !v.pair_usable(r as NodeId, dst_idx as NodeId) {
                continue;
            }
            pairs += 1;
            let cur = cfg.router_coord(r);
            let hops = v.routing.next_hops(cfg, cur, d);
            let mut k = 0;
            for p in hops.adaptive.into_iter().flatten() {
                if !topology::minimal_hop(cfg, cur, d, p) {
                    if bad_hops.insert((r, p)) {
                        vio.record(
                            "routing-function",
                            Witness::BadHop {
                                router: r as NodeId,
                                dst: dst_idx as NodeId,
                                port: p,
                            },
                        );
                    }
                    continue;
                }
                if v.link_usable(r as NodeId, p) {
                    ad[k] = Some(p);
                    k += 1;
                }
            }
            if v.use_escape {
                let e = hops.escape;
                let e_ok = if v.detour_escape {
                    valid_detour_hop(cfg, cur, e)
                } else {
                    topology::minimal_hop(cfg, cur, d, e)
                };
                if !e_ok || hops.escape_lane as usize >= lanes {
                    if bad_hops.insert((r, e)) {
                        vio.record(
                            "routing-function",
                            Witness::BadHop {
                                router: r as NodeId,
                                dst: dst_idx as NodeId,
                                port: e,
                            },
                        );
                    }
                } else if v.link_usable(r as NodeId, e) {
                    *es = Some((e, hops.escape_lane));
                }
                if es.is_none() {
                    vio.record(
                        "escape-connected",
                        Witness::NoEscape {
                            router: r as NodeId,
                            dst: dst_idx as NodeId,
                        },
                    );
                }
            } else if ad[0].is_none() {
                vio.record(
                    "escape-connected",
                    Witness::NoRoute {
                        router: r as NodeId,
                        dst: dst_idx as NodeId,
                    },
                );
            }
        }

        order.sort_by_cached_key(|&r| topology::distance(cfg, cfg.router_coord(r), d));

        if v.use_escape {
            extend_escape_edges(
                cfg, dst_idx, &order, &adap, &esc, lanes, &mut adj, &mut reach,
            );
        } else {
            direct_adaptive_edges(cfg, dst_idx, &adap, lanes, &mut adj);
        }

        legality::check_dst(cfg, v, dst_idx, &order, &adap, &esc, &mut vio);
    }

    let dep_edges = adj.edges();
    if let Some(comp) = first_nontrivial_scc(&adj) {
        let cycle = extract_cycle(&adj, &comp);
        vio.record_front(
            "escape-cdg-acyclic",
            Witness::Cycle(
                cycle
                    .into_iter()
                    .map(|i| chan_id(lanes, i, v.use_escape))
                    .collect(),
            ),
        );
    }

    // One channel per physical link and lane (class-0 view; classes are
    // isomorphic).
    let channels = (0..n)
        .map(|r| {
            let c = cfg.router_coord(r);
            (1..=4).filter(|&p| topology::has_link(cfg, c, p)).count() * lanes
        })
        .sum();

    VerifyReport {
        routing: v.routing.name(),
        channels,
        dep_edges,
        pairs_checked: pairs,
        violations: vio.list,
        violation_count: vio.count,
    }
}

/// Add the extended escape dependencies for one destination: for each
/// escape channel `(r, p, lane)`, every escape channel reachable from
/// `step(r, p)` through zero or more adaptive channels is a dependency
/// target.
#[allow(clippy::too_many_arguments)]
fn extend_escape_edges(
    cfg: &SimConfig,
    dst_idx: usize,
    order: &[usize],
    adap: &[[Option<Port>; 2]],
    esc: &[Option<(Port, u8)>],
    lanes: usize,
    adj: &mut DepRows,
    reach: &mut Reach,
) {
    // reach[r] = the escape channels requested at the routers reachable
    // from r via adaptive channels (including r itself), never entering the
    // destination: a channel bitset, so a whole target set joins a row in
    // one pass of word ORs over the words it spans. Processed in increasing
    // distance order so successors are already final.
    let words = adj.words;
    let next = |r: usize, p: Port| cfg.router_at(topology::step(cfg, cfg.router_coord(r), p));
    for &r in order {
        if r == dst_idx {
            continue;
        }
        let own = esc[r].map(|(p, lane)| chan(lanes, r, p, lane as usize));
        let succ = adap[r].map(|p| p.map(|p| next(r, p)).filter(|&r2| r2 != dst_idx));
        let spans = own.map(|c| (c >> 6, (c >> 6) + 1));
        let spans = spans
            .into_iter()
            .chain(succ.iter().flatten().map(|&r2| reach.span[r2]));
        let (lo, hi) = (spans.filter(|(lo, hi)| lo < hi))
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
            .unwrap_or((0, 0));
        reach.span[r] = (lo, hi);
        reach.bits[r * words + lo..r * words + hi].fill(0);
        if let Some(c) = own {
            reach.bits[r * words + (c >> 6)] |= 1 << (c & 63);
        }
        for &r2 in succ.iter().flatten() {
            let (lo, hi) = reach.span[r2];
            let (row, from) = row_pair(&mut reach.bits, words, r, r2);
            or_into(&mut row[lo..hi], &from[lo..hi]);
        }
    }
    for (r, &e) in esc.iter().enumerate() {
        let Some((p, lane)) = e else { continue };
        let r2 = next(r, p);
        if r2 != dst_idx {
            let (lo, hi) = reach.span[r2];
            let src = chan(lanes, r, p, lane as usize);
            let from = &reach.bits[r2 * words..(r2 + 1) * words];
            or_into(&mut adj.row_mut(src)[lo..hi], &from[lo..hi]);
        }
    }
}

/// Scratch of [`extend_escape_edges`]: one channel bitset per router, and
/// the word range `(lo, hi)` outside which it is empty.
struct Reach {
    bits: Vec<u64>,
    span: Vec<(usize, usize)>,
}

fn or_into(row: &mut [u64], from: &[u64]) {
    row.iter_mut().zip(from).for_each(|(w, b)| *w |= b);
}

/// Row `a` (mutable) and row `b` (`a != b`) of a matrix of `words`-wide
/// rows.
fn row_pair(m: &mut [u64], words: usize, a: usize, b: usize) -> (&mut [u64], &[u64]) {
    if a < b {
        let (lo, hi) = m.split_at_mut(b * words);
        (&mut lo[a * words..(a + 1) * words], &hi[..words])
    } else {
        let (lo, hi) = m.split_at_mut(a * words);
        (&mut hi[..words], &lo[b * words..(b + 1) * words])
    }
}

/// Add the direct adaptive-to-adaptive dependencies for one destination
/// (escape-disabled analysis; lane dimension unused — lane 0 throughout).
fn direct_adaptive_edges(
    cfg: &SimConfig,
    dst_idx: usize,
    adap: &[[Option<Port>; 2]],
    lanes: usize,
    adj: &mut DepRows,
) {
    for (r, ports) in adap.iter().enumerate() {
        for p in ports.iter().flatten() {
            let r2 = cfg.router_at(topology::step(cfg, cfg.router_coord(r), *p));
            if r2 == dst_idx {
                continue;
            }
            for p2 in adap[r2].into_iter().flatten() {
                adj.insert(chan(lanes, r, *p, 0), chan(lanes, r2, p2, 0));
            }
        }
    }
}

/// Iterative Tarjan SCC; returns the members of the first strongly
/// connected component that contains a cycle (size > 1, or a self-loop).
fn first_nontrivial_scc(adj: &DepRows) -> Option<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let n = adj.channels();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        // A frame is a channel and the first target bit it has not tried.
        while let Some(&(v, ci)) = frames.last() {
            if ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(w) = adj.next(v, ci) {
                frames.last_mut().unwrap().1 = w + 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 || adj.contains(v, v) {
                        return Some(comp);
                    }
                } else if let Some(&(u, _)) = frames.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    None
}

/// Extract one concrete cycle from a strongly connected component: BFS
/// within the component from an arbitrary member until an edge closes back
/// on it.
fn extract_cycle(adj: &DepRows, comp: &[usize]) -> Vec<usize> {
    let in_comp: BTreeSet<usize> = comp.iter().copied().collect();
    let s = comp[0];
    let mut parent = vec![usize::MAX; adj.channels()];
    let mut seen: BTreeSet<usize> = BTreeSet::from([s]);
    let mut q = VecDeque::from([s]);
    while let Some(u) = q.pop_front() {
        for w in adj.targets(u) {
            if w == s {
                let mut path = vec![u];
                let mut x = u;
                while x != s {
                    x = parent[x];
                    path.push(x);
                }
                path.reverse();
                return path;
            }
            if in_comp.contains(&w) && seen.insert(w) {
                parent[w] = u;
                q.push_back(w);
            }
        }
    }
    // Unreachable for a true SCC; fall back to listing the members.
    comp.to_vec()
}
