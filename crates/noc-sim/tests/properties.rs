//! Property-based tests of the simulator substrate.

use noc_sim::arbitration::{arbitrate_rr, arbitrate_rr_at};
use noc_sim::network::Network;
use noc_sim::prelude::*;
use proptest::prelude::*;

fn scripted_net(events: Vec<(u64, NodeId, NewPacket)>, routing: Routing, seed: u64) -> Network {
    let cfg = SimConfig::table1();
    let r: Box<dyn RoutingAlgorithm> = match routing {
        Routing::Xy => Box::new(XyRouting),
        Routing::Local => Box::new(DuatoLocalAdaptive),
        Routing::Dbar => Box::new(DbarAdaptive),
    };
    Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        r,
        Box::new(RoundRobin),
        Box::new(ScriptedSource::new(1, events)),
        seed,
    )
}

#[derive(Debug, Clone, Copy)]
enum Routing {
    Xy,
    Local,
    Dbar,
}

fn any_routing() -> impl Strategy<Value = Routing> {
    prop_oneof![Just(Routing::Xy), Just(Routing::Local), Just(Routing::Dbar)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scripted packet is delivered, exactly once, over a route of
    /// exactly Manhattan length, under every routing algorithm.
    #[test]
    fn all_packets_delivered_minimally(
        routing in any_routing(),
        pairs in proptest::collection::vec((0u16..64, 0u16..64, 1u32..=5u32), 1..40),
        seed in 0u64..100,
    ) {
        let cfg = SimConfig::table1();
        let mut events = Vec::new();
        let mut total_hops = 0u64;
        let mut count = 0u64;
        for (i, &(src, dst, size)) in pairs.iter().enumerate() {
            if src == dst {
                continue;
            }
            events.push((
                (i as u64) * 2,
                src,
                NewPacket { dst, app: 0, class: 0, size, reply: None },
            ));
            total_hops += cfg.coord_of(src).hops_to(cfg.coord_of(dst)) as u64;
            count += 1;
        }
        prop_assume!(count > 0);
        let mut net = scripted_net(events, routing, seed);
        net.run(4_000);
        prop_assert!(net.is_drained(), "{} flits stuck", net.flits_in_network());
        prop_assert_eq!(net.stats.recorder.delivered(), count);
        let measured: f64 = net.stats.recorder.app(0).hops.sum();
        prop_assert_eq!(measured as u64, total_hops, "non-minimal routes taken");
    }

    /// The rotating arbiter is work-conserving and fair: with equal
    /// priorities, over `k * n` arbitrations each of `n` persistent
    /// requestors wins exactly `k` times.
    #[test]
    fn arbiter_exact_fairness(n in 1usize..8, k in 1usize..10) {
        let reqs: Vec<(u64, usize)> = (0..n).map(|i| (1, i)).collect();
        let mut wins = vec![0usize; n];
        let mut ptr = 0;
        for _ in 0..n * k {
            let w = arbitrate_rr(&reqs, n, &mut ptr).unwrap();
            wins[reqs[w].1] += 1;
        }
        prop_assert!(wins.iter().all(|&w| w == k), "unfair wins {wins:?}");
    }

    /// Strict priority: the arbiter never picks a lower-priority request.
    #[test]
    fn arbiter_never_inverts_priority(
        reqs in proptest::collection::vec((0u64..5, 0usize..10), 1..10),
        ptr0 in 0usize..10,
    ) {
        // De-duplicate slot keys (hardware has one request per slot).
        let mut seen = std::collections::BTreeSet::new();
        let reqs: Vec<(u64, usize)> =
            reqs.into_iter().filter(|&(_, k)| seen.insert(k)).collect();
        prop_assume!(!reqs.is_empty());
        let max = reqs.iter().map(|r| r.0).max().unwrap();
        let mut ptr = ptr0;
        let w = arbitrate_rr(&reqs, 10, &mut ptr).unwrap();
        prop_assert_eq!(reqs[w].0, max);
    }

    /// The one-pass compare-subtract arbiter decides exactly what the
    /// two-pass `%` formula it replaced decided — same winner index, same
    /// next pointer — for every in-range pointer, with tied priorities and
    /// repeated slot keys.
    #[test]
    fn arbiter_matches_the_modulo_formula(
        num_slots in 1usize..=64,
        raw in proptest::collection::vec((0u64..4, 0usize..64), 0..24),
        ptr_seed in 0usize..64,
    ) {
        let reqs: Vec<(u64, usize)> = raw.into_iter().map(|(p, k)| (p, k % num_slots)).collect();
        let ptr = ptr_seed % num_slots;
        let reference = reqs.iter().map(|r| r.0).max().map(|max_prio| {
            let mut best: Option<(usize, usize)> = None; // (rotated distance, req index)
            for (i, &(p, key)) in reqs.iter().enumerate() {
                let dist = (key + num_slots - ptr) % num_slots;
                if p == max_prio && best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, i));
                }
            }
            let widx = best.unwrap().1;
            (widx, (reqs[widx].1 + 1) % num_slots)
        });
        prop_assert_eq!(arbitrate_rr_at(&reqs, num_slots, ptr), reference);
    }

    /// Region grids partition the mesh: every node belongs to exactly one
    /// region, regions are contiguous rectangles, and `is_native` agrees
    /// with `app_of`.
    #[test]
    fn region_grid_partitions(cols in 1u8..=4, rows in 1u8..=4) {
        prop_assume!(8 % cols == 0 && 8 % rows == 0);
        let cfg = SimConfig::table1();
        let m = RegionMap::grid(&cfg, cols, rows);
        let napps = (cols * rows) as usize;
        prop_assert_eq!(m.num_apps(), napps);
        let total: usize = (0..napps).map(|a| m.nodes_of(a as u8).len()).sum();
        prop_assert_eq!(total, 64);
        for node in 0..64u16 {
            let app = m.app_of(node);
            prop_assert!((app as usize) < napps);
            prop_assert!(m.is_native(node, app));
            prop_assert!(napps == 1 || !m.is_native(node, (app + 1) % napps as u8));
        }
        // Every region has the same size (uniform grid).
        let expect = 64 / napps;
        for a in 0..napps {
            prop_assert_eq!(m.nodes_of(a as u8).len(), expect);
        }
    }

    /// The VC layout partitions each port: every VC is either the escape VC
    /// of exactly one class or an adaptive VC with exactly one tag, and the
    /// regional/global split matches the config.
    #[test]
    fn vc_layout_partition(classes in 1usize..=4, adaptive in 1usize..=6, regional in 0usize..=6) {
        prop_assume!(regional <= adaptive);
        let mut cfg = SimConfig::table1();
        cfg.num_classes = classes;
        cfg.adaptive_vcs = adaptive;
        cfg.regional_vcs = regional;
        prop_assert!(cfg.validate().is_ok());
        let mut escapes = 0;
        let mut reg = 0;
        let mut glob = 0;
        for vc in 0..cfg.vcs_per_port() {
            match cfg.vc_class(vc) {
                VcClass::Escape { class } => {
                    prop_assert_eq!(cfg.escape_vc(class), vc);
                    escapes += 1;
                }
                VcClass::Adaptive { tag: VcTag::Regional } => reg += 1,
                VcClass::Adaptive { tag: VcTag::Global } => glob += 1,
            }
        }
        prop_assert_eq!(escapes, classes);
        prop_assert_eq!(reg, regional);
        prop_assert_eq!(glob, adaptive - regional);
    }

    /// Request/reply closed loops complete: every scripted request results
    /// in exactly two deliveries and the network drains.
    #[test]
    fn replies_always_complete(
        pairs in proptest::collection::vec((0u16..64, 0u16..64), 1..15),
        service in 1u64..200,
        seed in 0u64..100,
    ) {
        let mut events = Vec::new();
        let mut count = 0u64;
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            if src == dst {
                continue;
            }
            events.push((
                (i as u64) * 3,
                src,
                NewPacket {
                    dst,
                    app: 0,
                    class: 0,
                    size: 1,
                    reply: Some(ReplySpec { service_latency: service, size: 5, class: 0 }),
                },
            ));
            count += 1;
        }
        prop_assume!(count > 0);
        let mut net = scripted_net(events, Routing::Local, seed);
        net.run(6_000);
        prop_assert!(net.is_drained());
        prop_assert_eq!(net.stats.recorder.delivered(), count * 2);
    }
}

/// Nodes inside DBAR's truncated lookahead window along direction `p` from
/// `src`: every router stepped over until the destination's coordinate in
/// the traversed dimension, stopping at (and including) the first router of
/// a foreign region. Mirrors `DbarAdaptive::lookahead`'s read set.
fn dbar_window(
    cfg: &noc_sim::config::SimConfig,
    region: &RegionMap,
    src: Coord,
    dst: Coord,
    p: Port,
) -> Vec<NodeId> {
    use noc_sim::routing::step;
    let my_region = region.app_of(cfg.node_at(src));
    let mut c = src;
    let mut window = Vec::new();
    loop {
        let at_dst_dim = match p {
            noc_sim::ids::PORT_EAST | noc_sim::ids::PORT_WEST => c.x == dst.x,
            _ => c.y == dst.y,
        };
        if at_dst_dim {
            break;
        }
        c = step(c, p);
        let node = cfg.node_at(c);
        window.push(node);
        if region.app_of(node) != my_region {
            break;
        }
    }
    window
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DBAR's defining property (paper §III.B): congestion generated
    /// *outside* the truncated lookahead windows — in particular anywhere
    /// beyond the packet's region boundary — never influences the selection
    /// between candidate directions. Perturbing any set of out-of-window
    /// nodes arbitrarily must leave the choice unchanged.
    #[test]
    fn dbar_truncation_ignores_outside_region_congestion(
        sx in 0u8..8, sy in 0u8..8,
        dx in 0u8..8, dy in 0u8..8,
        cols in prop_oneof![Just(1u8), Just(2), Just(4)],
        rows in prop_oneof![Just(1u8), Just(2), Just(4)],
        base in proptest::collection::vec(0u16..12, 64..65),
        noise in proptest::collection::vec(0u16..500, 64..65),
    ) {
        // Two productive directions — otherwise there is no selection.
        prop_assume!(sx != dx && sy != dy);
        let cfg = SimConfig::table1();
        let region = RegionMap::grid(&cfg, cols, rows);
        let src = Coord { x: sx, y: sy };
        let dst = Coord { x: dx, y: dy };
        let router = noc_sim::router::Router::new(
            &cfg,
            cfg.node_at(src),
            src,
            region.app_of(cfg.node_at(src)),
        );
        let dbar = DbarAdaptive;
        let [a, b] = noc_sim::routing::productive_ports(src, dst);
        let cands = [a.unwrap(), b.unwrap()];

        let pick = |congestion: &[u16]| {
            let ctx = noc_sim::routing::SelectCtx {
                cfg: &cfg,
                router: &router,
                dst,
                region: &region,
                congestion,
            };
            noc_sim::routing::RoutingAlgorithm::select(&dbar, &ctx, &cands)
        };
        let baseline = pick(&base);

        // Perturb every node *outside* both lookahead windows.
        let mut in_window = [false; 64];
        for &p in &cands {
            for n in dbar_window(&cfg, &region, src, dst, p) {
                in_window[n as usize] = true;
            }
        }
        let mut perturbed = base.clone();
        for n in 0..64 {
            if !in_window[n] {
                perturbed[n] = noise[n];
            }
        }
        prop_assert_eq!(
            pick(&perturbed), baseline,
            "outside-window congestion changed DBAR's selection \
             (src {:?} dst {:?} grid {}x{})",
            src, dst, cols, rows
        );

        // Control: the windows themselves are live — zeroing one window and
        // inflating the other must steer the choice to the zeroed side
        // whenever both windows are non-empty.
        let wa = dbar_window(&cfg, &region, src, dst, cands[0]);
        let wb = dbar_window(&cfg, &region, src, dst, cands[1]);
        if !wa.is_empty() && !wb.is_empty() {
            let mut steered = base.clone();
            for &n in &wa { steered[n as usize] = 0; }
            for &n in &wb { steered[n as usize] = 400; }
            prop_assert_eq!(pick(&steered), 0, "in-window congestion ignored");
        }
    }
}
