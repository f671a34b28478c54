//! The three kernel workloads: one network ticked in-process, in chunks.
//!
//! All three run the paper's two-application halves scenario (`two_app`,
//! p = 0.3) under `RA_RAIR` + `DBAR` on the Table-1 router; they differ in
//! mesh size and offered load, which is what decides whether the skip
//! paths or the arbitration pipeline do the work (README, "Workloads").

use crate::estimate::{fastest_decile, median, quantile};
use crate::gen::{derive, Stream};
use crate::host::{own_peak_rss_mb, Calibration};
use crate::outcome::{Expected, Outcome};
use crate::spans::{secs_of, total_secs, Tracer};
use experiments::sweep::build_network;
use metrics::{LatencyKind, LatencyRecorder};
use noc_sim::config::SimConfig;
use noc_sim::network::Network;
use noc_sim::oracle::OracleConfig;
use noc_sim::source::TrafficSource;
use rair::scheme::{Routing, Scheme};
use std::hint::black_box;
use std::time::Instant;
use traffic::scenario::two_app;
use traffic::trace::{Trace, TraceReplay};

/// Size of one kernel workload. A *chunk* is the timed unit.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    pub name: &'static str,
    /// Mesh side (8 → 64 routers, 16 → 256).
    pub side: u8,
    /// Offered load of both applications, flits/cycle/node.
    pub rate: f64,
    /// Cycles simulated before the measurement window opens.
    pub warmup: u64,
    /// Cycles per timed chunk.
    pub chunk: u64,
    /// Whether the traced pass also times what arbitration, routing and
    /// latency recording cost: where nearly every router is busy.
    pub busy: bool,
}

pub fn spec(name: &str) -> Option<KernelSpec> {
    let (name, side, rate, warmup, chunk, busy) = match name {
        // 5 %, 80 % and 30 % of the 0.30 nominal saturation load.
        "mesh8_low" => ("mesh8_low", 8, 0.015, 20_000, 50_000, false),
        "mesh8_high" => ("mesh8_high", 8, 0.24, 10_000, 5_000, true),
        "mesh16_mid" => ("mesh16_mid", 16, 0.09, 5_000, 2_000, false),
        _ => return None,
    };
    Some(KernelSpec {
        name,
        side,
        rate,
        warmup,
        chunk,
        busy,
    })
}

impl KernelSpec {
    /// The same workload at `1/div` of its cycles (the smoke test).
    #[cfg(test)]
    pub fn scaled(self, div: u64) -> Self {
        Self {
            warmup: self.warmup / div,
            chunk: self.chunk / div,
            ..self
        }
    }

    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::table1();
        cfg.width = self.side;
        cfg.height = self.side;
        cfg
    }

    fn routers(&self) -> u64 {
        u64::from(self.side) * u64::from(self.side)
    }
}

/// A run is cut into this many segments, each with its own freshly set-up
/// network, so set-up is sampled across the whole run and only one network
/// is alive at a time.
pub const SEGMENTS: usize = 4;
/// Simulated outputs are compared after this many chunks of a segment.
pub const CHECK_CHUNK: usize = 8;

/// One way of building the workload's network.
struct Variant {
    name: &'static str,
    scheme: Scheme,
    routing: Routing,
    /// Feed the captured trace instead of the live scenario.
    replay: bool,
    /// Per-cycle invariant oracle on.
    oracle: bool,
    /// Two spatial shards, requested the way a user would: `RAIR_SHARDS`.
    sharded: bool,
    /// Chunks this variant runs in the traced pass.
    chunks: usize,
}

impl Variant {
    /// What the main pass (and a user's default run) gets.
    fn production() -> Self {
        Self {
            name: "live",
            scheme: Scheme::rair(),
            routing: Routing::Dbar,
            replay: false,
            oracle: false,
            sharded: false,
            chunks: CHECK_CHUNK,
        }
    }
}

/// Build the network and run it to the start of the measurement window.
fn set_up(spec: &KernelSpec, seed: u64, v: &Variant, trace: Option<&Trace>) -> Network {
    let mut cfg = spec.config();
    if v.oracle {
        cfg.oracle = OracleConfig::forced();
    }
    let (region, scenario) = two_app(&cfg, 0.3, spec.rate, spec.rate);
    let source: Box<dyn TrafficSource> = match trace {
        Some(t) => Box::new(TraceReplay::new(t, cfg.num_nodes() as u16)),
        None => Box::new(scenario),
    };
    // Through the environment, not `SimConfig::shards`, so the probe keeps
    // compiling (and reads 1.0×) should the engine be deleted.
    if v.sharded {
        std::env::set_var("RAIR_SHARDS", "2");
    }
    let mut net = build_network(&cfg, &region, &v.scheme, v.routing, source, seed);
    std::env::remove_var("RAIR_SHARDS");
    net.run(spec.warmup);
    let now = net.cycle();
    net.stats.reset_window(now);
    net
}

fn timed_chunk(net: &mut Network, cycles: u64) -> f64 {
    let t = Instant::now();
    net.run(black_box(cycles));
    t.elapsed().as_secs_f64()
}

/// Raw samples of the main pass.
pub struct MainPass {
    pub chunk_secs: Vec<f64>,
    pub setup_secs: Vec<f64>,
    /// `SimStats::digest()` after [`CHECK_CHUNK`] chunks, one per segment.
    pub digests: Vec<u64>,
    /// Packet-weighted mean network latency at the first checkpoint.
    pub apl: f64,
}

/// Tick the production network for about `seconds`, in [`SEGMENTS`]
/// segments of at least [`CHECK_CHUNK`] chunks each.
pub fn main_pass(spec: &KernelSpec, bench_seed: u64, seconds: f64) -> MainPass {
    let seed = derive(bench_seed, Stream::Kernel);
    let mut pass = MainPass {
        chunk_secs: Vec::new(),
        setup_secs: Vec::new(),
        digests: Vec::new(),
        apl: 0.0,
    };
    let production = Variant::production();
    for segment in 0..SEGMENTS {
        let t = Instant::now();
        let mut net = set_up(spec, seed, &production, None);
        pass.setup_secs.push(t.elapsed().as_secs_f64());
        let started = Instant::now();
        let mut chunks = 0;
        while chunks < CHECK_CHUNK || started.elapsed().as_secs_f64() < seconds / SEGMENTS as f64 {
            pass.chunk_secs.push(timed_chunk(&mut net, spec.chunk));
            chunks += 1;
            if chunks == CHECK_CHUNK {
                pass.digests.push(net.stats.digest());
                if segment == 0 {
                    pass.apl = net
                        .stats
                        .recorder
                        .overall_mean(LatencyKind::Network)
                        .unwrap_or(f64::NAN);
                }
            }
        }
    }
    pass
}

/// `--trace 0`: the end-to-end metrics of a kernel workload.
pub fn measure(spec: &KernelSpec, bench_seed: u64, seconds: f64, expected: &Expected) -> Outcome {
    let mut o = Outcome::default();
    let pass = main_pass(spec, bench_seed, seconds);
    o.ops(pass.chunk_secs.len());
    o.check(pass.digests.iter().all(|d| *d == pass.digests[0]), || {
        format!(
            "{}: segments disagree on the digest: {:x?}",
            spec.name, pass.digests
        )
    });
    o.check_pinned(
        expected,
        bench_seed,
        &format!("{}.digest", spec.name),
        pass.digests[0],
    );
    o.set(
        "work_per_s",
        spec.chunk as f64 / fastest_decile(&pass.chunk_secs),
    );
    o.set("sim_apl_cycles", pass.apl);
    o.set("setup_s", median(&pass.setup_secs));
    // This process holds one network at a time and nothing else of size.
    o.set("peak_rss_mb", own_peak_rss_mb());
    o.info.push(format!(
        "{} chunk_ms p50 {:.3} p75 {:.3} max {:.3} (n = {}, {} cycles each); setup_s samples {:?}",
        spec.name,
        median(&pass.chunk_secs) * 1e3,
        quantile(&pass.chunk_secs, 0.75) * 1e3,
        quantile(&pass.chunk_secs, 1.0) * 1e3,
        pass.chunk_secs.len(),
        spec.chunk,
        pass.setup_secs,
    ));
    o
}

/// The digest `expected.json` pins for this workload.
pub fn pin(spec: &KernelSpec, bench_seed: u64) -> u64 {
    let seed = derive(bench_seed, Stream::Kernel);
    let mut net = set_up(spec, seed, &Variant::production(), None);
    net.run(spec.chunk * CHECK_CHUNK as u64);
    net.stats.digest()
}

/// Median over chunks of `num[i] / den[i]`: chunk `i` is the same simulated
/// interval in both variants and the two were timed back to back, so a
/// slow spell hits both sides of a pair.
fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    let r: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&r)
}

/// `--trace 1`: per-layer metrics of a kernel workload. Every variant of
/// the network (live, trace replay, two shards, oracle on, and on
/// `mesh8_high` the `RO_RR` and `Local` alternatives) is warmed up, then
/// the variants take turns chunk by chunk.
pub fn trace(
    spec: &KernelSpec,
    bench_seed: u64,
    tracer: &Tracer,
    root: usize,
    calib: &mut Calibration,
    o: &mut Outcome,
) {
    let here = Some(root);
    let seed = derive(bench_seed, Stream::Kernel);
    let production = Variant::production();

    // Construction alone, admission and verifier memos warm after the first.
    let new_ms = (0..5)
        .map(|_| {
            let cfg = spec.config();
            let (region, scenario) = two_app(&cfg, 0.3, spec.rate, spec.rate);
            let (net, secs) = tracer.time("network.new", here, |_| {
                build_network(
                    &cfg,
                    &region,
                    &production.scheme,
                    production.routing,
                    Box::new(scenario),
                    seed,
                )
            });
            drop(net);
            secs * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    o.set("network.new_ms", new_ms);
    calib.sample(tracer, root);

    let cfg = spec.config();
    let cycles = spec.warmup + spec.chunk * CHECK_CHUNK as u64;
    let (captured, capture_s) = tracer.time("traffic.capture", here, |_| {
        let (_, scenario) = two_app(&cfg, 0.3, spec.rate, spec.rate);
        Trace::capture(scenario, cfg.num_nodes() as u16, cycles, seed)
    });
    o.set("traffic.capture_s", capture_s);
    o.set("traffic.packets", captured.events.len() as f64);

    let replayed = |name, scheme, routing, sharded| Variant {
        name,
        scheme,
        routing,
        replay: true,
        sharded,
        ..Variant::production()
    };
    let prefix = |cycles: u64| ((cycles / spec.chunk) as usize).clamp(1, CHECK_CHUNK);
    let mut variants = vec![
        production,
        replayed("replay", Scheme::rair(), Routing::Dbar, false),
        // The sharded engine and the per-cycle oracle cost several times
        // a plain cycle, so they run a prefix of whole chunks: about 15 000
        // and 10 000 cycles.
        Variant {
            chunks: prefix(15_000),
            ..replayed("shard2", Scheme::rair(), Routing::Dbar, true)
        },
        Variant {
            name: "oracle",
            oracle: true,
            chunks: prefix(10_000),
            ..Variant::production()
        },
    ];
    if spec.busy {
        variants.push(replayed("ro_rr", Scheme::RoRr, Routing::Dbar, false));
        variants.push(replayed("local", Scheme::rair(), Routing::Local, false));
    }
    let mut nets: Vec<Network> = variants
        .iter()
        .map(|v| {
            let trace = v.replay.then_some(&captured);
            tracer
                .time(&format!("network.set_up[{}]", v.name), here, |_| {
                    set_up(spec, seed, v, trace)
                })
                .0
        })
        .collect();
    let before = (
        nets[0].stats.router_cycles_skipped,
        nets[0].stats.state_updates_skipped,
        nets[0].stats.idle_cycles_skipped,
    );
    // digests[variant][chunk]: what each variant had simulated by then.
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); variants.len()];
    for chunk in 0..CHECK_CHUNK {
        for ((v, net), seen) in variants.iter().zip(&mut nets).zip(&mut digests) {
            if chunk < v.chunks {
                tracer.time(&format!("network.run[{}]", v.name), here, |_| {
                    net.run(black_box(spec.chunk));
                });
                seen.push(net.stats.digest());
            }
        }
        calib.sample(tracer, root);
    }

    let spans = tracer.snapshot();
    let times = |name: &str| secs_of(&spans, &format!("network.run[{name}]"));
    let live = times("live");
    let replay = times("replay");
    o.ops(
        spans
            .iter()
            .filter(|s| s.name.starts_with("network.run["))
            .count(),
    );
    let cps = |t: &[f64]| spec.chunk as f64 / fastest_decile(t);
    o.set("network.live_cps", cps(&live));
    o.set("network.replay_cps", cps(&replay));
    o.set(
        "network.ns_per_router_cycle",
        1e9 / (cps(&live) * spec.routers() as f64),
    );
    o.set("network.chunks", live.len() as f64);
    o.set("network.chunk_ms_p50", median(&live) * 1e3);
    o.set("network.chunk_ms_p75", quantile(&live, 0.75) * 1e3);
    o.set("network.chunk_ms_max", quantile(&live, 1.0) * 1e3);
    o.set("traffic.gen_share", 1.0 - paired_ratio(&replay, &live));
    o.set("shard.speedup_x2", paired_ratio(&replay, &times("shard2")));
    o.set("oracle.overhead_x", paired_ratio(&times("oracle"), &live));
    if spec.busy {
        o.set(
            "rair.policy_cost_frac",
            1.0 - paired_ratio(&times("ro_rr"), &replay),
        );
        o.set(
            "routing.dbar_cost_frac",
            1.0 - paired_ratio(&times("local"), &replay),
        );
    }

    let stats = &nets[0].stats;
    let simulated = (spec.chunk * CHECK_CHUNK as u64 * spec.routers()) as f64;
    o.set(
        "network.visits_skipped_frac",
        (stats.router_cycles_skipped - before.0) as f64 / (3.0 * simulated),
    );
    o.set(
        "network.updates_skipped_frac",
        (stats.state_updates_skipped - before.1) as f64 / simulated,
    );
    o.set(
        "network.idle_cycles_skipped",
        (stats.idle_cycles_skipped - before.2) as f64,
    );
    let flits = stats.recorder.flits_delivered();
    o.set("network.flits_delivered", flits as f64);
    o.set(
        "network.packets_delivered",
        stats.recorder.delivered() as f64,
    );
    o.set(
        "network.ns_per_flit",
        total_secs(&spans, "network.run[live]") * 1e9 / flits.max(1) as f64,
    );

    // Any seed: the live source, its captured trace and the two-shard
    // engine must have simulated the same thing, chunk for chunk.
    let index = |name: &str| {
        variants
            .iter()
            .position(|v| v.name == name)
            .expect("variant exists")
    };
    let mut same_as_live = |name: &str| {
        let theirs = &digests[index(name)];
        let same = *theirs == digests[0][..theirs.len()];
        o.check(same, || {
            format!(
                "{}: {name} digests {theirs:x?} != live {:x?}",
                spec.name, digests[0]
            )
        });
        same
    };
    same_as_live("replay");
    let shard_match = same_as_live("shard2");
    o.set("shard.digest_match", f64::from(u8::from(shard_match)));
    let oracle = index("oracle");
    o.check(nets[oracle].oracle_enabled(), || {
        "oracle variant ran without the oracle".into()
    });
    let violations = nets[oracle].stats.oracle_violation_count;
    o.check(violations == 0, || {
        format!("{}: {violations} oracle violation(s)", spec.name)
    });
    o.set("oracle.violations", violations as f64);

    if spec.busy {
        let mut rec = LatencyRecorder::new(2);
        let n = 1_000_000u64;
        let (_, secs) = tracer.time("metrics.record", here, |_| {
            for i in 0..n {
                rec.record(
                    (i & 1) as usize,
                    black_box(20 + (i & 31)),
                    25 + (i & 63),
                    6,
                    5,
                );
            }
            black_box(rec.delivered())
        });
        o.set("metrics.record_ns", secs * 1e9 / n as f64);
    }
}
