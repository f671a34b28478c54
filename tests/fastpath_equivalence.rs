//! Bit-identity of the production kernel and the reference kernel.
//!
//! The production tick visits only what its masks, bitmaps, arrival promises
//! and static tables say can matter; the reference tick
//! (`Network::tick_reference`) scans every router, port, VC and node every
//! cycle and reads none of them. The two must produce *identical*
//! simulations — same injections, same arbitration outcomes, same
//! latencies — across the full scheme × routing matrix at several operating
//! points. The negative controls at the end show the comparison has teeth:
//! a source, an update and a priority function that each break the contract
//! one production shortcut rests on make the two kernels diverge.

use noc_sim::analysis::Analysis;
use noc_sim::network::Network;
use noc_sim::oracle::{Checker, StarvationWatch};
use noc_sim::prelude::*;
use noc_sim::router::Router;
use proptest::prelude::*;
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

/// Which kernel drives a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    Production,
    Reference,
}
use Kernel::{Production, Reference};

impl Kernel {
    fn run(self, net: &mut Network, cycles: u64) {
        match self {
            Production => net.run(cycles),
            Reference => net.run_reference(cycles),
        }
    }

    fn run_warmup_measure(self, net: &mut Network, warmup: u64, measure: u64) {
        self.run(net, warmup);
        net.stats.reset_window(net.cycle());
        self.run(net, measure);
    }
}

/// Everything a run observes, minus the skip counters themselves (those
/// legitimately differ between the two kernels).
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

fn run(scheme: &Scheme, routing: Routing, p: f64, r1: f64, kernel: Kernel) -> Fingerprint {
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
    kernel.run(&mut net, 1_200);
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
                let fast = run(&scheme, routing, p, r1, Production);
                let slow = run(&scheme, routing, p, r1, Reference);
                assert_eq!(
                    fast,
                    slow,
                    "production/reference divergence: {} {:?} p={} r1={}",
                    scheme.label(),
                    routing,
                    p,
                    r1
                );
            }
        }
    }
    // One replayed-trace cell per routing, built the way every experiment
    // driver builds its networks: identical offered traffic into both
    // kernels, including the trace's idle tail.
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, 0.3, 0.09, 0.09);
    let trace = Trace::capture(scenario, cfg.num_nodes() as NodeId, 1_200, 42);
    for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
        let digest = |kernel: Kernel| {
            let replay = Box::new(TraceReplay::new(&trace, cfg.num_nodes() as NodeId));
            let scheme = Scheme::ro_rank_online(2);
            let mut net =
                experiments::sweep::build_network(&cfg, &region, &scheme, routing, replay, 42);
            kernel.run_warmup_measure(&mut net, 240, 960);
            net.stats.digest()
        };
        assert_eq!(
            digest(Production),
            digest(Reference),
            "production/reference divergence on a replayed trace: {routing:?}"
        );
    }
    // The shape of a `repro serve` job: one region, all traffic transposed,
    // 0.02 flits/cycle/node, XY. The eight diagonal nodes have no transpose
    // destination and never produce — their arrival promise is the
    // look-ahead horizon, every time. Production's skip counters are pinned
    // to the unit.
    let serve_shaped = |kernel: Kernel| {
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
        kernel.run_warmup_measure(&mut net, 1_000, 5_000);
        net.stats
    };
    let (fast, slow) = (serve_shaped(Production), serve_shaped(Reference));
    assert_eq!(
        fast.digest(),
        slow.digest(),
        "production/reference divergence: serve-shaped"
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
/// the serve-shaped cell, measured at the commit before the arrival promise
/// (the last counter is always 0: the clock never jumps).
const SERVE_SHAPED_SKIPS: (u64, u64, u64) = (961_225, 353_093, 0);

/// The operating point the mask-driven kernel is built for: `RA_RAIR` +
/// `DBAR` with both halves at 80 % of the nominal saturation load, the
/// oracle scanning every cycle — so every router bitmap and ring cursor is
/// recounted against the slow scan on both sides — then the sources go
/// quiet and the network drains. The reference scans every router and VC
/// slot and reads each predicate from the VC, credit counter and allocation
/// table themselves; the two must agree on the digest, the drain state, the
/// oracle's scan count and the congestion view, with no protocol violation
/// on either side. Both kernels feed the same observers through the oracle's
/// hooks: the analysis observer's link counts, occupancy sums and traced
/// journey, and a starvation watch whose bound is low enough to fire, must
/// come out identical too.
#[test]
fn fast_path_is_bit_identical_at_80_percent_load_under_the_oracle() {
    let run = |kernel: Kernel| {
        // Every violation recorded, so all of them can be checked below.
        let oracle = OracleConfig {
            max_recorded: usize::MAX,
            ..OracleConfig::forced()
        };
        let cfg = SimConfig {
            oracle,
            ..SimConfig::table1()
        };
        let (region, scenario) = two_app(&cfg, 0.3, 0.24, 0.24);
        let live = Trace::capture(scenario, cfg.num_nodes() as NodeId, 2_500, 42);
        let source = TraceReplay::new(&live, cfg.num_nodes() as NodeId);
        let analysis = Analysis::new(&cfg, Some(WATCHED)).unwrap();
        let starvation = StarvationWatch::with_bound(&cfg, STARVATION_BOUND).unwrap();
        let mut net = Network::new(
            cfg,
            region,
            Routing::Dbar.build(),
            Scheme::rair().build(),
            Box::new(source),
            42,
        );
        assert!(net.attach_checker(Box::new(analysis)));
        assert!(net.attach_checker(Box::new(starvation)));
        kernel.run(&mut net, 2_500);
        let loaded = net.congestion_snapshot().to_vec();
        kernel.run(&mut net, 1_500);
        let violations = &net.stats.oracle_violations;
        assert_eq!(violations.len() as u64, net.stats.oracle_violation_count);
        assert!(violations
            .iter()
            .all(|v| v.checker == "starvation-observer"));
        (
            (
                net.stats.digest(),
                net.is_drained(),
                net.oracle_scans(),
                loaded,
                net.congestion_snapshot().to_vec(),
            ),
            net.checker::<Analysis>().unwrap().clone(),
            violations.clone(),
        )
    };
    let (fast, slow) = (run(Production), run(Reference));
    assert_eq!(
        fast.0, slow.0,
        "production/reference divergence at 80 % load"
    );
    assert_eq!(fast.1, slow.1, "the analysis observers disagree");
    assert_eq!(fast.2, slow.2, "the starvation watches disagree");
    let (kernel, analysis, starved) = fast;
    assert!(kernel.1, "failed to drain");
    assert_eq!(kernel.2, 4_000, "the oracle scans every cycle");
    assert!(kernel.3.iter().any(|&c| c > 0), "the network was loaded");
    assert_eq!(analysis.cycles, 4_000);
    assert!(analysis.occ_foreign > 0 && analysis.occ_regional + analysis.occ_global > 0);
    assert!(analysis.journey.len() > 2, "{:?}", analysis.journey);
    assert!(!starved.is_empty(), "the low bound fires");
}

/// The packet the oracle cell traces, and a native wait bound low enough
/// for its starvation watch to fire at 80 % load.
const WATCHED: u64 = 1_000;
const STARVATION_BOUND: u64 = 10;

/// Scripted inputs run to drain: the end-state digest, the drain state and
/// the oracle's scan count.
fn run_scripted(
    cfg: &SimConfig,
    events: &[(u64, NodeId, NewPacket)],
    routing: Routing,
    cycles: u64,
    kernel: Kernel,
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
    kernel.run(&mut net, cycles);
    assert_eq!(net.stats.oracle_violation_count, 0);
    (net.stats.digest(), net.is_drained(), net.oracle_scans())
}

fn assert_scripted_identical(
    what: &str,
    cfg: &SimConfig,
    events: &[(u64, NodeId, NewPacket)],
    cycles: u64,
) {
    for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
        let fast = run_scripted(cfg, events, routing, cycles, Production);
        let slow = run_scripted(cfg, events, routing, cycles, Reference);
        assert_eq!(
            fast, slow,
            "production/reference divergence: {what} {routing:?}"
        );
        assert!(fast.1, "{what} {routing:?} failed to drain");
        assert!(fast.2 > 0, "{what} {routing:?}: oracle never scanned");
    }
}

/// Light replayed traces: at 1 % and 8 % load the mesh sits empty for
/// stretches, the trace replay promises each node's next event and both
/// kernels tick through the gaps — across the four fixed and adaptive
/// schemes and the three routings, with identical digests and oracle scans.
#[test]
fn fast_path_is_bit_identical_on_light_replayed_traces() {
    let cfg = SimConfig::table1();
    for &(p, r0, r1) in &[(0.2, 0.01, 0.01), (0.5, 0.08, 0.1)] {
        let (region, scenario) = two_app(&cfg, p, r0, r1);
        let trace = Trace::capture(scenario, 64, 1_200, 7);
        for scheme in [
            Scheme::RoRr,
            Scheme::RoAge,
            Scheme::ro_rank(vec![0.1, 0.9]),
            Scheme::rair(),
        ] {
            for routing in [Routing::Xy, Routing::Local, Routing::Dbar] {
                let run = |kernel: Kernel| {
                    let mut net = Network::new(
                        cfg.clone(),
                        region.clone(),
                        routing.build(),
                        scheme.build(),
                        Box::new(TraceReplay::new(&trace, 64)),
                        42,
                    );
                    kernel.run(&mut net, 1_500);
                    (net.stats.digest(), net.oracle_scans())
                };
                assert_eq!(
                    run(Production),
                    run(Reference),
                    "production/reference divergence: {} {routing:?} p={p} r0={r0} r1={r1}",
                    scheme.label(),
                );
            }
        }
    }
}

/// The analysis observer and a starvation watch riding the oracle's hooks
/// over a sparse script (four long packets racing down row 0 into node 7,
/// then one stray): both kernels leave them identical. Observing perturbs
/// nothing: the digest (which folds in the oracle's verdict) and the skip
/// counters equal those of the same network with the oracle off.
#[test]
fn observers_see_the_same_sparse_run_on_both_kernels() {
    let pkt = |dst, size| NewPacket {
        dst,
        app: 0,
        class: 0,
        size,
        reply: None,
    };
    let mut script: Vec<_> = (0..4).map(|src| (200, src, pkt(7, 5))).collect();
    script.push((2_500, 5, pkt(9, 1)));
    let run = |oracle: OracleConfig, observed: bool, kernel: Kernel| {
        let cfg = SimConfig {
            oracle,
            ..SimConfig::table1()
        };
        let observers: [Box<dyn Checker>; 2] = [
            Box::new(Analysis::new(&cfg, Some(1)).unwrap()),
            Box::new(StarvationWatch::new(&cfg).unwrap()),
        ];
        let mut net = Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            Box::new(DuatoLocalAdaptive),
            Box::new(RoundRobin),
            Box::new(ScriptedSource::new(1, script.clone())),
            1,
        );
        if observed {
            for o in observers {
                assert!(net.attach_checker(o));
            }
        }
        kernel.run(&mut net, 4_000);
        net
    };
    let off = OracleConfig {
        enabled: Some(false),
        ..OracleConfig::forced()
    };
    let fast = run(OracleConfig::forced(), true, Production);
    let slow = run(OracleConfig::forced(), true, Reference);
    let bare = run(off, false, Production);
    let analysis = fast.checker::<Analysis>().unwrap();
    assert_eq!(Some(analysis), slow.checker::<Analysis>());
    assert_eq!(analysis.cycles, 4_000);
    assert!(analysis.occ_native > 0 && analysis.journey.len() > 2);
    let watch = fast.checker::<StarvationWatch>();
    assert!(watch.is_some() && watch == slow.checker::<StarvationWatch>());
    let kernel = |net: &Network| {
        let s = &net.stats;
        (s.digest(), s.router_cycles_skipped, s.state_updates_skipped)
    };
    assert_eq!(kernel(&fast), kernel(&bare), "observing changed the run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scripted workloads: arbitrary event times (with long
    /// gaps), sources and sizes, production split into two `run` calls at
    /// an arbitrary cycle — digest-identical to the reference, cycle for
    /// cycle.
    #[test]
    fn fast_path_matches_reference_on_random_scripts(
        events in proptest::collection::vec(
            (0u64..4_000, 0u16..64, 0u16..64, prop_oneof![Just(1u32), Just(5u32)]),
            0..40,
        ),
        split in 1u64..4_500,
    ) {
        let script: Vec<(u64, NodeId, NewPacket)> = events
            .iter()
            .map(|&(cycle, node, dst, size)| {
                let dst = if dst == node { (dst + 1) % 64 } else { dst };
                (cycle, node, NewPacket { dst, app: 0, class: 0, size, reply: None })
            })
            .collect();
        let build = || {
            Network::new(
                SimConfig::table1(),
                RegionMap::single(&SimConfig::table1()),
                Box::new(DuatoLocalAdaptive),
                Box::new(RoundRobin),
                Box::new(ScriptedSource::new(1, script.clone())),
                9,
            )
        };
        let mut fast = build();
        fast.run(split);
        prop_assert_eq!(fast.cycle(), split);
        fast.run(4_500 - split);
        let mut slow = build();
        slow.run_reference(4_500);
        prop_assert_eq!(fast.cycle(), slow.cycle());
        prop_assert_eq!(fast.stats.digest(), slow.stats.digest());
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
    // Fig. 17's sources: ON/OFF chains with MLP feedback through
    // `on_delivered` under an adversary whose draws interleave with theirs.
    // Neither can promise an arrival, so production polls them every cycle.
    let run = |kernel: Kernel| {
        let region = RegionMap::quadrants(&cfg);
        let workload = ParsecWorkload::new(&cfg, &region, AppModel::parsec_four());
        let source = Adversarial::new(workload, 0.2, &cfg);
        let mut net = Network::new(
            cfg.clone(),
            region,
            Routing::Local.build(),
            Scheme::rair().build(),
            Box::new(source),
            42,
        );
        kernel.run(&mut net, 2_000);
        assert!(
            net.stats.recorder.delivered() > 100,
            "the cell carries traffic"
        );
        net.stats.digest()
    };
    assert_eq!(
        run(Production),
        run(Reference),
        "production/reference divergence: parsec + adversary"
    );
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

/// Contest-only arbitration: at 80 % of saturation production asks the
/// policy for fewer than half the priorities the reference (which asks about
/// every request, lone ones too) does — most SA and VA requests have no
/// rival — and the two still simulate identically.
#[test]
fn fast_path_asks_the_policy_only_for_contests() {
    let run = |kernel: Kernel| {
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
        kernel.run(&mut net, 3_000);
        (net.stats.digest(), calls.load(Ordering::Relaxed))
    };
    let ((fast_digest, fast_calls), (slow_digest, slow_calls)) = (run(Production), run(Reference));
    assert_eq!(fast_digest, slow_digest, "production/reference divergence");
    assert!(fast_calls > 0, "80 % load has contests");
    assert!(
        2 * fast_calls < slow_calls,
        "production made {fast_calls} priority calls, the reference {slow_calls}"
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
}

/// The arrival promise: at 5 % load production asks the source only at the
/// cycles it promised — fewer than a quarter of the calls of the reference,
/// which asks every node every cycle and never for a promise — and the two
/// simulate identically.
#[test]
fn fast_path_polls_the_source_only_where_it_promised() {
    let run = |kernel: Kernel| {
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
        kernel.run(&mut net, 3_000);
        (net.stats.digest(), generates.load(Ordering::Relaxed))
    };
    let ((fast_digest, fast_calls), (slow_digest, slow_calls)) = (run(Production), run(Reference));
    assert_eq!(fast_digest, slow_digest, "production/reference divergence");
    assert_eq!(slow_calls, 64 * 3_000, "the reference asks every node");
    assert!(
        4 * fast_calls < slow_calls,
        "production made {fast_calls} generate calls, the reference {slow_calls}"
    );
}

/// Digest and injected-packet counts of a two-app 80 %-load run — the
/// negative controls' fingerprint.
fn loaded_run(
    policy: Box<dyn PriorityPolicy>,
    source: Option<Box<dyn TrafficSource>>,
    kernel: Kernel,
) -> (u64, Vec<u64>) {
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, 0.3, 0.24, 0.24);
    let source = source.unwrap_or_else(|| Box::new(scenario));
    let mut net = Network::new(cfg, region, Routing::Dbar.build(), policy, source, 42);
    kernel.run(&mut net, 1_500);
    (net.stats.digest(), net.stats.injected_packets.clone())
}

/// Negative control for the arrival promise: node 0 has a packet at cycles
/// 99 and 100, yet promises "nothing before 100". Production trusts the
/// promise and never sees the first one; the reference polls every cycle.
struct EarlySource;

impl TrafficSource for EarlySource {
    fn num_apps(&self) -> usize {
        2
    }
    fn generate(&mut self, node: NodeId, cycle: u64, _: &mut SmallRng) -> Option<NewPacket> {
        (node == 0 && (99..=100).contains(&cycle)).then_some(NewPacket {
            dst: 9,
            app: 0,
            class: 0,
            size: 1,
            reply: None,
        })
    }
    fn next_poll(&mut self, node: NodeId, after: u64, _: &mut SmallRng) -> u64 {
        if node == 0 && after <= 100 {
            100
        } else {
            u64::MAX
        }
    }
}

#[test]
fn a_source_that_breaks_its_promise_diverges() {
    let run = |kernel| loaded_run(Box::new(RoundRobin), Some(Box::new(EarlySource)), kernel);
    let ((_, fast), (_, slow)) = (run(Production), run(Reference));
    assert_eq!((fast[0], slow[0]), (1, 2), "injected packets of app 0");
}

/// Negative control for state-update skipping: the update flips the DPA bit
/// on every call — not a fixed point on unchanged registers — while claiming
/// to be idempotent. Production calls it on dirty routers only.
struct FlippingRair(RairPolicy);

impl PriorityPolicy for FlippingRair {
    fn name(&self) -> &'static str {
        "flipping"
    }
    fn priority(&self, stage: ArbStage, r: &Router, out_vc: Option<VcClass>, req: &ArbReq) -> u64 {
        self.0.priority(stage, r, out_vc, req)
    }
    fn update_router(&self, r: &mut Router, _cycle: u64) {
        r.dpa_native_high = !r.dpa_native_high;
    }
    fn update_is_idempotent(&self) -> bool {
        true
    }
}

#[test]
fn an_update_that_lies_about_idempotence_diverges() {
    let run = |kernel| loaded_run(Box::new(FlippingRair(RairPolicy::full())), None, kernel);
    assert_ne!(run(Production).0, run(Reference).0);
}

/// Negative control for contest-only arbitration: a priority that depends
/// on how often the policy was asked. Production asks about contests only.
struct ImpurePriority(AtomicU64);

impl PriorityPolicy for ImpurePriority {
    fn name(&self) -> &'static str {
        "impure"
    }
    fn priority(&self, _: ArbStage, _: &Router, _: Option<VcClass>, _: &ArbReq) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) % 3
    }
}

#[test]
fn an_impure_priority_diverges() {
    let run = |kernel| loaded_run(Box::new(ImpurePriority(AtomicU64::new(0))), None, kernel);
    assert_ne!(run(Production).0, run(Reference).0);
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

    // And the reference skips nothing.
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
    net.run_reference(1_200);
    assert_eq!(net.stats.router_cycles_skipped, 0);
    assert_eq!(net.stats.state_updates_skipped, 0);
}
