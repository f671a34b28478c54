//! Bit-identity of the active-set fast path.
//!
//! The exhaustive-scan tick visits every router in every phase; the fast
//! path visits only routers with occupied input VCs and elides unchanged
//! state updates. These must produce *identical* simulations — same
//! injections, same arbitration outcomes, same latencies — across the full
//! scheme × routing matrix at several operating points.

use noc_sim::network::Network;
use noc_sim::prelude::*;
use noc_sim::router::Router;
use rair::prelude::*;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traffic::prelude::*;

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::RoRr,
        // Per-packet priorities (age): the contested branch of contest-only
        // arbitration sees more than two priority values.
        Scheme::RoAge,
        Scheme::ro_rank(vec![0.1, 0.9]),
        // The one scheme that opts out of update skipping; its ranks sit
        // behind a mutex and change under a non-idempotent update.
        Scheme::ro_rank_online(2),
        Scheme::rair(),
        Scheme::rair_native_high(),
        Scheme::rair_foreign_high(),
        Scheme::rair_va_only(),
    ]
}

/// Everything a run observes, minus the skip counters themselves (those
/// legitimately differ between the two modes).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    injected_packets: Vec<u64>,
    injected_flits: u64,
    ejected_flits: u64,
    delivered: u64,
    apl: Vec<Option<f64>>,
    overall_network: Option<f64>,
    overall_total: Option<f64>,
    congestion: Vec<u16>,
    last_progress: u64,
}

fn run(scheme: &Scheme, routing: Routing, p: f64, r1: f64, exhaustive: bool) -> Fingerprint {
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, p, 0.05, r1);
    let mut net = Network::new(
        cfg,
        region,
        routing.build(),
        scheme.build(),
        Box::new(scenario),
        42,
    );
    net.set_force_exhaustive(exhaustive);
    net.run(1_200);
    Fingerprint {
        injected_packets: net.stats.injected_packets.clone(),
        injected_flits: net.stats.injected_flits,
        ejected_flits: net.stats.ejected_flits,
        delivered: net.stats.recorder.delivered(),
        apl: (0..2)
            .map(|a| net.stats.recorder.app(a).mean(LatencyKind::Network))
            .collect(),
        overall_network: net.stats.recorder.overall_mean(LatencyKind::Network),
        overall_total: net.stats.recorder.overall_mean(LatencyKind::Total),
        congestion: net.congestion_snapshot().to_vec(),
        last_progress: net.stats.last_progress,
    }
}

#[test]
fn fast_path_is_bit_identical_across_matrix() {
    // Light, moderate and near-saturating loads for the heavy app.
    let loads = [(0.2, 0.02), (0.8, 0.15), (1.0, 0.35)];
    for scheme in all_schemes() {
        for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
            for &(p, r1) in &loads {
                let fast = run(&scheme, routing, p, r1, false);
                let slow = run(&scheme, routing, p, r1, true);
                assert_eq!(
                    fast,
                    slow,
                    "fast/exhaustive divergence: {} {:?} p={} r1={}",
                    scheme.label(),
                    routing,
                    p,
                    r1
                );
            }
        }
    }
    // One replayed-trace cell per routing, built the way every experiment
    // driver builds its networks: identical offered traffic into both modes.
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, 0.3, 0.09, 0.09);
    let trace = Trace::capture(scenario, cfg.num_nodes() as NodeId, 1_200, 42);
    for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
        let digest = |exhaustive: bool| {
            let replay = Box::new(TraceReplay::new(&trace, cfg.num_nodes() as NodeId));
            let scheme = Scheme::ro_rank_online(2);
            let mut net =
                experiments::sweep::build_network(&cfg, &region, &scheme, routing, replay, 42);
            net.set_force_exhaustive(exhaustive);
            net.run_warmup_measure(240, 960);
            net.stats.digest()
        };
        assert_eq!(
            digest(false),
            digest(true),
            "fast/exhaustive divergence on a replayed trace: {routing:?}"
        );
    }
    // The shape of a `repro serve` job: one region, all traffic transposed,
    // 0.02 flits/cycle/node, XY. The eight diagonal nodes have no transpose
    // destination and never produce — their arrival promise is the
    // look-ahead horizon, every time. A Bernoulli source never lets the idle
    // fast-forward engage, and the fast path's skip counters are the parent
    // commit's to the unit.
    let serve_shaped = |exhaustive: bool| {
        let region = RegionMap::single(&cfg);
        let spec = AppSpec::with_inter(0.02, 1.0, InterDest::Pattern(Pattern::Transpose));
        let scenario = Box::new(Scenario::new(&cfg, &region, vec![Some(spec)]));
        let mut net = experiments::sweep::build_network(
            &cfg,
            &region,
            &Scheme::rair(),
            Routing::Xy,
            scenario,
            42,
        );
        net.set_force_exhaustive(exhaustive);
        net.run_warmup_measure(1_000, 5_000);
        net.stats
    };
    let (fast, slow) = (serve_shaped(false), serve_shaped(true));
    assert_eq!(
        fast.digest(),
        slow.digest(),
        "fast/exhaustive divergence: serve-shaped"
    );
    assert!(fast.recorder.delivered() > 100, "the cell carries traffic");
    assert_eq!(
        (
            fast.router_cycles_skipped,
            fast.state_updates_skipped,
            fast.idle_cycles_skipped
        ),
        SERVE_SHAPED_SKIPS,
    );
}

/// `(router_cycles_skipped, state_updates_skipped, idle_cycles_skipped)` of
/// the serve-shaped cell, measured at the commit before the arrival promise.
const SERVE_SHAPED_SKIPS: (u64, u64, u64) = (961_225, 353_093, 0);

/// The operating point the mask-driven kernel is built for: `RA_RAIR` +
/// `DBAR` with both halves at 80 % of the nominal saturation load, the
/// oracle scanning every cycle — so every router bitmap and ring cursor is
/// recounted against the slow scan on both sides — then the sources go
/// quiet and the network drains. Exhaustive mode widens every mask to all
/// routers and all VC slots and reads each predicate from the VC itself;
/// the two must agree on the digest, the drain state, the oracle's scan
/// count and the congestion view, with no violation on either side.
#[test]
fn fast_path_is_bit_identical_at_80_percent_load_under_the_oracle() {
    let run = |exhaustive: bool| {
        let cfg = SimConfig {
            oracle: OracleConfig::forced(),
            ..SimConfig::table1()
        };
        let (region, scenario) = two_app(&cfg, 0.3, 0.24, 0.24);
        let live = Trace::capture(scenario, cfg.num_nodes() as NodeId, 2_500, 42);
        let source = TraceReplay::new(&live, cfg.num_nodes() as NodeId);
        let mut net = Network::new(
            cfg,
            region,
            Routing::Dbar.build(),
            Scheme::rair().build(),
            Box::new(source),
            42,
        );
        net.set_force_exhaustive(exhaustive);
        net.run(2_500);
        let loaded = net.congestion_snapshot().to_vec();
        net.run(1_500);
        assert_eq!(net.stats.oracle_violation_count, 0);
        (
            net.stats.digest(),
            net.is_drained(),
            net.oracle_scans(),
            loaded,
            net.congestion_snapshot().to_vec(),
        )
    };
    let (fast, slow) = (run(false), run(true));
    assert_eq!(fast, slow, "fast/exhaustive divergence at 80 % load");
    assert!(fast.1, "failed to drain");
    assert_eq!(fast.2, 4_000, "the oracle scans every cycle");
    assert!(fast.3.iter().any(|&c| c > 0), "the network was loaded");
}

/// Scripted inputs run to drain: the end-state digest, the drain state and
/// the oracle's scan count (the exhaustive mode also ticks through every
/// idle cycle the fast path jumps over, so equal counts pin the
/// fast-forward's scan replay).
fn run_scripted(
    cfg: &SimConfig,
    events: &[(u64, NodeId, NewPacket)],
    routing: Routing,
    cycles: u64,
    exhaustive: bool,
) -> (u64, bool, u64) {
    let cfg = SimConfig {
        oracle: OracleConfig {
            enabled: Some(true),
            ..OracleConfig::default()
        },
        ..cfg.clone()
    };
    let region = RegionMap::single(&cfg);
    let mut net = Network::new(
        cfg,
        region,
        routing.build(),
        Scheme::RoRr.build(),
        Box::new(ScriptedSource::new(1, events.to_vec())),
        7,
    );
    net.set_force_exhaustive(exhaustive);
    net.run(cycles);
    (net.stats.digest(), net.is_drained(), net.oracle_scans())
}

fn assert_scripted_identical(
    what: &str,
    cfg: &SimConfig,
    events: &[(u64, NodeId, NewPacket)],
    cycles: u64,
) {
    for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
        let fast = run_scripted(cfg, events, routing, cycles, false);
        let slow = run_scripted(cfg, events, routing, cycles, true);
        assert_eq!(fast, slow, "fast/exhaustive divergence: {what} {routing:?}");
        assert!(fast.1, "{what} {routing:?} failed to drain");
        assert!(fast.2 > 0, "{what} {routing:?}: oracle never scanned");
    }
}

/// Closed-loop request/reply traffic (the L2/memory service model): every
/// delivered request schedules a long reply on the second message class.
#[test]
fn fast_path_is_bit_identical_on_closed_loop_replies() {
    let cfg = SimConfig::table1_req_reply();
    let n = cfg.num_nodes();
    let events: Vec<_> = (0..n)
        .map(|i| {
            let request = NewPacket {
                dst: ((i * 7 + 13) % n) as NodeId,
                app: 0,
                class: 0,
                size: cfg.short_flits,
                reply: Some(ReplySpec {
                    service_latency: cfg.l2_latency,
                    size: cfg.long_flits,
                    class: 1,
                }),
            };
            ((i as u64 % 5) * 3, i as NodeId, request)
        })
        .filter(|&(_, src, p)| p.dst != src)
        .collect();
    assert_scripted_identical("closed loop", &cfg, &events, 4_000);
}

/// Word-boundary router counts for the `u64` activity bitmasks: 63 (9×7),
/// 64 (8×8, exactly one full word) and 65 (13×5, one bit into the second
/// word). Every node sends one long and one short packet to stride-offset
/// peers, staggered over the first cycles.
#[test]
fn fast_path_is_bit_identical_at_mask_word_boundaries() {
    for (w, h) in [(9u8, 7u8), (8, 8), (13, 5)] {
        let cfg = SimConfig {
            width: w,
            height: h,
            ..SimConfig::table1()
        };
        let n = cfg.num_nodes();
        let stride = w as usize + 1;
        let packet = |dst: usize, size| NewPacket {
            dst: (dst % n) as NodeId,
            app: 0,
            class: 0,
            size,
            reply: None,
        };
        let events: Vec<_> = (0..n)
            .flat_map(|i| {
                [
                    (i as u64 % 7, packet(i + stride, cfg.long_flits)),
                    (
                        3 + i as u64 % 11,
                        packet(i + 2 * stride + 1, cfg.short_flits),
                    ),
                ]
                .map(|(at, p)| (at, i as NodeId, p))
            })
            .collect();
        assert_scripted_identical(&format!("{w}x{h}"), &cfg, &events, 3_000);
    }
}

/// Concentrated meshes: four NIs share each router's local port, so node
/// and router indices differ (`i / c`) and a router's NIs enter and leave
/// the NI active set independently. 4×4 routers = 64 nodes fills the node
/// mask's first word exactly; 5×4 = 80 nodes reaches into the second. Every
/// node sends one request whose delivery schedules a long reply (so NIs sit
/// in the set with empty queues, awaiting service) and one plain long packet.
#[test]
fn fast_path_is_bit_identical_on_concentrated_meshes() {
    for (w, h) in [(4u8, 4u8), (5, 4)] {
        let cfg = SimConfig {
            topology: TopologyKind::CMesh { concentration: 4 },
            width: w,
            height: h,
            ..SimConfig::table1_req_reply()
        };
        let n = cfg.num_nodes();
        assert_eq!(n, 4 * w as usize * h as usize);
        let packet = |dst: usize, size, reply| NewPacket {
            dst: (dst % n) as NodeId,
            app: 0,
            class: 0,
            size,
            reply,
        };
        let reply = Some(ReplySpec {
            service_latency: cfg.l2_latency,
            size: cfg.long_flits,
            class: 1,
        });
        let events: Vec<_> = (0..n)
            .flat_map(|i| {
                [
                    (i as u64 % 5, packet(i * 7 + 13, cfg.short_flits, reply)),
                    (2 + i as u64 % 9, packet(i + 5, cfg.long_flits, None)),
                ]
                .map(|(at, p)| (at, i as NodeId, p))
            })
            .filter(|&(_, src, p)| p.dst != src)
            .collect();
        assert_scripted_identical(&format!("cmesh {w}x{h}x4"), &cfg, &events, 4_000);
    }
}

/// `RairPolicy::full()` with a call counter around `priority`. Counting is
/// a side effect the simulation cannot observe, so the wrapper honours the
/// policy contract.
struct CountingRair {
    inner: RairPolicy,
    calls: Arc<AtomicU64>,
}

impl PriorityPolicy for CountingRair {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn priority(&self, stage: ArbStage, r: &Router, out_vc: Option<VcClass>, req: &ArbReq) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.priority(stage, r, out_vc, req)
    }
    fn update_router(&self, r: &mut Router, cycle: u64) {
        self.inner.update_router(r, cycle);
    }
    fn update_is_idempotent(&self) -> bool {
        self.inner.update_is_idempotent()
    }
    fn vc_tag_preference(&self, r: &Router, req: &ArbReq) -> Option<VcTag> {
        self.inner.vc_tag_preference(r, req)
    }
    fn check_invariant(&self, r: &Router) -> Option<String> {
        self.inner.check_invariant(r)
    }
}

/// Contest-only arbitration: at 80 % of saturation the fast path asks the
/// policy for fewer than half the priorities the exhaustive mode (which
/// asks about every request) does — most SA and VA requests have no rival —
/// and the two still simulate identically.
#[test]
fn fast_path_asks_the_policy_only_for_contests() {
    let run = |exhaustive: bool| {
        let cfg = SimConfig::table1();
        let (region, scenario) = two_app(&cfg, 0.3, 0.24, 0.24);
        let calls = Arc::new(AtomicU64::new(0));
        let policy = CountingRair {
            inner: RairPolicy::full(),
            calls: Arc::clone(&calls),
        };
        let mut net = Network::new(
            cfg,
            region,
            Routing::Dbar.build(),
            Box::new(policy),
            Box::new(scenario),
            42,
        );
        net.set_force_exhaustive(exhaustive);
        net.run(3_000);
        (net.stats.digest(), calls.load(Ordering::Relaxed))
    };
    let ((fast_digest, fast_calls), (slow_digest, slow_calls)) = (run(false), run(true));
    assert_eq!(fast_digest, slow_digest, "fast/exhaustive divergence");
    assert!(fast_calls > 0, "80 % load has contests");
    assert!(
        2 * fast_calls < slow_calls,
        "fast path made {fast_calls} priority calls, exhaustive {slow_calls}"
    );
}

/// A source with a call counter around `generate`, forwarding the arrival
/// promise as well (a wrapper that forwarded `generate` alone would be
/// polled every cycle, correctly).
struct CountingSource<S> {
    inner: S,
    generates: Arc<AtomicU64>,
}

impl<S: TrafficSource> TrafficSource for CountingSource<S> {
    fn num_apps(&self) -> usize {
        self.inner.num_apps()
    }
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        self.generates.fetch_add(1, Ordering::Relaxed);
        self.inner.generate(node, cycle, rng)
    }
    fn next_poll(&mut self, node: NodeId, after: u64, rng: &mut SmallRng) -> u64 {
        self.inner.next_poll(node, after, rng)
    }
    fn next_injection_cycle(&self, now: u64) -> Option<u64> {
        self.inner.next_injection_cycle(now)
    }
}

/// The arrival promise: at 5 % load the fast path asks the source only at
/// the cycles it promised — fewer than a quarter of the calls of the
/// exhaustive mode, which asks every node every cycle (and asserts that a
/// node not yet due answers `None`) — and the two simulate identically.
#[test]
fn fast_path_polls_the_source_only_where_it_promised() {
    let run = |exhaustive: bool| {
        let cfg = SimConfig::table1();
        let (region, scenario) = two_app(&cfg, 0.3, 0.015, 0.015);
        let generates = Arc::new(AtomicU64::new(0));
        let source = CountingSource {
            inner: scenario,
            generates: Arc::clone(&generates),
        };
        let mut net = Network::new(
            cfg,
            region,
            Routing::Dbar.build(),
            Scheme::rair().build(),
            Box::new(source),
            42,
        );
        net.set_force_exhaustive(exhaustive);
        net.run(3_000);
        (net.stats.digest(), generates.load(Ordering::Relaxed))
    };
    let ((fast_digest, fast_calls), (slow_digest, slow_calls)) = (run(false), run(true));
    assert_eq!(fast_digest, slow_digest, "fast/exhaustive divergence");
    assert_eq!(slow_calls, 64 * 3_000, "exhaustive mode asks every node");
    assert!(
        4 * fast_calls < slow_calls,
        "fast path made {fast_calls} generate calls, exhaustive {slow_calls}"
    );
}

#[test]
fn fast_path_actually_skips_work() {
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, 0.2, 0.01, 0.02);
    let mut net = Network::new(
        cfg,
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        42,
    );
    net.run(1_200);
    assert!(
        net.stats.router_cycles_skipped > 0,
        "light load must elide router visits"
    );
    assert!(net.stats.state_updates_skipped > 0);

    // And the exhaustive mode really is exhaustive.
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, 0.2, 0.01, 0.02);
    let mut net = Network::new(
        cfg,
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        42,
    );
    net.set_force_exhaustive(true);
    net.run(1_200);
    assert_eq!(net.stats.router_cycles_skipped, 0);
    assert_eq!(net.stats.state_updates_skipped, 0);
}
