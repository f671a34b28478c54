//! A steady-state tick allocates nothing.
//!
//! The tick kernel keeps its arbitration request sets on the stack, drains
//! the link, credit and ejection registers in place and preallocates every
//! router's state, the traffic sources build their destination sets once,
//! and the NIs materialise flits on demand — so once a network is warm,
//! `Network::run` never reaches the allocator. This binary counts the
//! calling thread's allocations with a `#[global_allocator]` of its own
//! (which is why it is a test binary of its own, and why the counter is
//! thread-local: the harness's other threads must not be charged to a
//! cell). The claim is about the production kernel, so the invariant
//! oracle — an observer that formats and scans at will — is switched off
//! explicitly, whatever `RAIR_ORACLE` says.

use noc_sim::network::Network;
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
