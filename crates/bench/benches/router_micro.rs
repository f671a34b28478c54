//! Microbenchmarks of the simulator substrate itself: per-cycle cost of an
//! idle mesh, a saturated mesh, and the Table 1 configuration check.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::figs::table1;
use noc_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

struct Flood {
    rate: f64,
}

impl TrafficSource for Flood {
    fn num_apps(&self) -> usize {
        1
    }
    fn generate(&mut self, node: NodeId, _cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if !rng.random_bool(self.rate) {
            return None;
        }
        let mut dst = rng.random_range(0..63u16);
        if dst >= node {
            dst += 1;
        }
        Some(NewPacket {
            dst,
            app: 0,
            class: 0,
            size: 5,
            reply: None,
        })
    }
}

/// A fresh single-region mesh driven by `Flood { rate }` (or idle when
/// `rate == 0.0`).
/// `oracle`: `None` = build-default resolution, `Some(false)` = explicitly
/// disabled (the zero-cost early-out), `Some(true)` = forced per-cycle
/// checking.
fn flood_net_oracle(rate: f64, oracle: Option<bool>) -> Network {
    let mut cfg = SimConfig::table1();
    match oracle {
        Some(true) => cfg.oracle = OracleConfig::forced(),
        Some(false) => cfg.oracle.enabled = Some(false),
        None => {}
    }
    let source: Box<dyn TrafficSource> = if rate > 0.0 {
        Box::new(Flood { rate })
    } else {
        Box::new(NoTraffic)
    };
    Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        source,
        1,
    )
}

fn flood_net(rate: f64) -> Network {
    flood_net_oracle(rate, None)
}

/// The flood mesh with the transient-fault machinery live at `ber` (no
/// permanent events), against the default build's empty timeline.
fn flood_net_fault(rate: f64, ber: f64) -> Network {
    let mut cfg = SimConfig::table1();
    cfg.fault = FaultTimeline {
        transient_ber: ber,
        seed: 7,
        events: Vec::new(),
    };
    Network::new(
        cfg,
        RegionMap::single(&SimConfig::table1()),
        Box::new(DuatoLocalAdaptive),
        Box::new(RoundRobin),
        Box::new(Flood { rate }),
        1,
    )
}

/// Print what the kernel fast paths elide at this load.
fn report_skip(label: &str, rate: f64) {
    let mut net = flood_net(rate);
    net.run(1_000);
    let visits = net.cycle() * net.cfg.num_nodes() as u64;
    eprintln!(
        "[{label}] {}",
        metrics::report::kernel_summary(
            visits * 3,
            net.stats.router_cycles_skipped,
            visits,
            net.stats.state_updates_skipped,
            net.cycle(),
            net.stats.idle_cycles_skipped,
        )
    );
}

/// ~5% and ~80% of this mesh's saturation load, in packets/node/cycle.
/// Saturation for 5-flit uniform-random traffic on the Table 1 mesh sits
/// near 0.06 packets/node/cycle.
const LOW_RATE: f64 = 0.003;
const HIGH_RATE: f64 = 0.048;

fn micro(c: &mut Criterion) {
    eprintln!("{}", table1::table().render());
    report_skip("low_load", LOW_RATE);
    report_skip("high_load", HIGH_RATE);

    let mut g = c.benchmark_group("router_micro");
    g.sample_size(20);
    g.bench_function("idle_1k_cycles", |b| {
        b.iter(|| {
            let cfg = SimConfig::table1();
            let mut net = Network::new(
                cfg,
                RegionMap::single(&SimConfig::table1()),
                Box::new(DuatoLocalAdaptive),
                Box::new(RoundRobin),
                Box::new(NoTraffic),
                1,
            );
            net.run(1_000);
            net.cycle()
        });
    });
    // The same idle mesh ticked cycle by cycle (only `run` jumps the clock):
    // measures what the event-driven jump saves over plain (active-set)
    // ticking.
    g.bench_function("idle_1k_cycles_no_ff", |b| {
        b.iter(|| {
            let mut net = flood_net(0.0);
            for _ in 0..1_000 {
                net.tick();
            }
            net.cycle()
        });
    });
    g.bench_function("saturated_1k_cycles", |b| {
        b.iter(|| {
            let cfg = SimConfig::table1();
            let mut net = Network::new(
                cfg,
                RegionMap::single(&SimConfig::table1()),
                Box::new(DuatoLocalAdaptive),
                Box::new(RoundRobin),
                Box::new(Flood { rate: 0.3 }),
                1,
            );
            net.run(1_000);
            net.stats.recorder.delivered()
        });
    });
    // The tick at ~5% and ~80% of saturation.
    for (label, rate) in [("low_load", LOW_RATE), ("high_load", HIGH_RATE)] {
        g.bench_function(&format!("tick_1k_{label}_fast"), |b| {
            b.iter(|| {
                let mut net = flood_net(rate);
                net.run(1_000);
                net.stats.recorder.delivered()
            });
        });
        // The oracle cost model: explicitly disabled must be within noise
        // of the build default (one null-check per tick); forced per-cycle
        // checking shows the full instrumentation cost.
        for (mode, oracle) in [("oracle_off", Some(false)), ("oracle_forced", Some(true))] {
            g.bench_function(&format!("tick_1k_{label}_{mode}"), |b| {
                b.iter(|| {
                    let mut net = flood_net_oracle(rate, oracle);
                    net.run(1_000);
                    net.stats.recorder.delivered()
                });
            });
        }
        // The fault-machinery cost model: an empty timeline is proven
        // off-path by the golden digests, so the interesting number is
        // the live ARQ draw — per-traversal corruption at BER 1e-3 —
        // against the `tick_1k_{label}_fast` baseline above.
        g.bench_function(&format!("tick_1k_{label}_fault_ber1e3"), |b| {
            b.iter(|| {
                let mut net = flood_net_fault(rate, 1e-3);
                net.run(1_000);
                net.stats.recorder.delivered()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
