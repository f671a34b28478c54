//! A steady-state tick allocates nothing.
//!
//! The tick kernel keeps its arbitration request sets on the stack, drains
//! the link, credit and ejection registers in place and preallocates every
//! router's state, the traffic sources build their destination sets once,
//! and the NIs materialise flits on demand — so once a network is warm,
//! `Network::run` never reaches the allocator below saturation. The NIs
//! reserve nothing at construction: their queues grow to their high-water
//! mark in warm-up. Past saturation an NI's source queue grows without
//! bound (that backlog is the saturation signal), so there the claim
//! narrows to "nothing but an NI queue reaching a new high allocates" —
//! Fig. 14's load puts its memory-controller corners there. This binary
//! counts the calling thread's allocations with a `#[global_allocator]` of its own
//! (which is why it is a test binary of its own, and why the counter is
//! thread-local: the harness's other threads must not be charged to a
//! cell). The claim is about the production kernel, so the invariant
//! oracle — an observer that formats and scans at will — is switched off
//! explicitly, whatever `RAIR_ORACLE` says.

use noc_sim::network::Network;
use noc_sim::node::Node;
use noc_sim::prelude::*;
use rair::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traffic::prelude::*;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 10_000;
const MEASURED: u64 = 2_000;

/// Allocations `net` makes over `MEASURED` ticks after `WARMUP` ticks.
fn steady_state_allocs(mut net: Network) -> u64 {
    net.run(WARMUP);
    let before = ALLOCS.with(Cell::get);
    net.run(MEASURED);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(
        net.stats.ejected_flits > 0,
        "the cell must carry traffic to mean anything"
    );
    allocs
}

/// `cfg` with the oracle off regardless of environment and features.
fn unobserved(cfg: SimConfig) -> SimConfig {
    SimConfig {
        oracle: OracleConfig {
            enabled: Some(false),
            ..OracleConfig::default()
        },
        ..cfg
    }
}

/// The benchmark's open-loop scenario: `two_app(p = 0.3)` halves at `rate`
/// flits/cycle/node on a `side`×`side` mesh.
fn open_loop(side: u8, rate: f64, scheme: Scheme, routing: Routing) -> Network {
    let cfg = unobserved(SimConfig {
        width: side,
        height: side,
        ..SimConfig::table1()
    });
    let (region, scenario) = two_app(&cfg, 0.3, rate, rate);
    Network::new(
        cfg,
        region,
        routing.build(),
        scheme.build(),
        Box::new(scenario),
        0xC0FFEE,
    )
}

/// Fig. 14's `RA_RAIR` cell: six applications at the loads
/// `fig14::six_app_rates` measures at `--quick` (apps 1 and 5 at 90 % of
/// their saturation load, measured alone), 5 % of every app's traffic
/// memory-controller round trips with replies.
fn six_app_fig14() -> Network {
    const RATES: [f64; 6] = [0.072, 0.675, 0.253, 0.169, 0.18, 0.675];
    let cfg = unobserved(SimConfig::table1());
    let (region, scenario) = six_app(&cfg, RATES, InterDest::OutsideUniform);
    Network::new(
        cfg,
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        0xC0FFEE,
    )
}

/// The closed-loop PARSEC-like request/reply workload of Fig. 17.
fn closed_loop() -> Network {
    let cfg = unobserved(SimConfig::table1_req_reply());
    let region = RegionMap::quadrants(&cfg);
    let workload = ParsecWorkload::new(&cfg, &region, AppModel::parsec_four());
    Network::new(
        cfg,
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(workload),
        0xC0FFEE,
    )
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let cells = [
        (
            "8x8 RA_RAIR+DBAR @ 0.24",
            open_loop(8, 0.24, Scheme::rair(), Routing::Dbar),
        ),
        (
            "16x16 RA_RAIR+DBAR @ 0.09",
            open_loop(16, 0.09, Scheme::rair(), Routing::Dbar),
        ),
        (
            "8x8 RO_RR+XY @ 0.24",
            open_loop(8, 0.24, Scheme::RoRr, Routing::Xy),
        ),
        ("8x8 closed-loop ParsecWorkload", closed_loop()),
    ];
    for (what, net) in cells {
        let allocs = steady_state_allocs(net);
        assert_eq!(
            allocs,
            0,
            "{what}: {allocs} allocations in {MEASURED} steady-state ticks \
             ({:.1} per tick)",
            allocs as f64 / MEASURED as f64
        );
    }
}

/// The deepest NI queues: Fig. 14's six applications run together. Each
/// load is 10–90 % of that application's saturation load measured alone,
/// but the corner NIs of apps 1 and 5 also inject the replies of the
/// memory controllers they host, so their source queues (and those of
/// their neighbours) grow without bound, and the 90 % queues keep setting rare new highs long
/// after warm-up. So the cell pins the narrower claim, tick by tick: a
/// tick allocates only if some NI's queues grew — the routers, links,
/// phases and the source never do.
#[test]
fn under_fig14_load_only_ni_queue_growth_allocates() {
    let mut net = six_app_fig14();
    net.run(WARMUP);
    let ni_heap = |net: &Network| net.nodes.iter().map(Node::heap_bytes).sum::<usize>();
    for _ in 0..MEASURED {
        let (before, heap) = (ALLOCS.with(Cell::get), ni_heap(&net));
        net.run(1);
        let tick = ALLOCS.with(Cell::get) - before;
        assert!(
            tick == 0 || ni_heap(&net) > heap,
            "cycle {}: {tick} allocations and no NI queue grew",
            net.cycle() - 1
        );
    }
    assert!(net.stats.ejected_flits > 0);
}
