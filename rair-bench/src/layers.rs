//! Traced passes of the three child workloads: the same work `repro` does,
//! called in-process through the crates' public functions with a span
//! around each layer boundary.

use crate::child::{check_serve_counts, FIG14_WINDOWS, SERVE_WINDOWS};
use crate::estimate::quantile;
use crate::gen::{self, derive, Stream};
use crate::host::Calibration;
use crate::outcome::Outcome;
use crate::spans::{secs_of, total_secs, Tracer};
use experiments::figs::fig14;
use experiments::runner::{run_one, ExpConfig, RunResult};
use experiments::service::{
    serve, sim_exec, std_store, JobExec, JobSpec, Journal, ServeConfig, Store,
};
use experiments::sweep::{build_network, clear_saturation_cache, saturation_cache_stats};
use noc_sim::admit::{admit_network, admit_network_cached};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::verify::Verifier;
use rair::scheme::{Routing, Scheme};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use traffic::saturation::{app_saturation_traced, SaturationProbe};
use traffic::scenario::{six_app, AppSpec, InterDest};

/// What the `fig14_*` children run with: `--quick --windows W,M --seed N`.
fn quick(bench_seed: u64) -> ExpConfig {
    ExpConfig {
        warmup: FIG14_WINDOWS.0,
        measure: FIG14_WINDOWS.1,
        seed: derive(bench_seed, Stream::Repro),
        ..ExpConfig::quick()
    }
}

/// Point the saturation cache's disk layer at a fresh private directory
/// and empty its memory layer: the state of a new process on a new cache.
fn fresh_cache(dir: PathBuf) -> Result<(), String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::env::set_var("RAIR_CACHE_DIR", &dir);
    clear_saturation_cache();
    Ok(())
}

/// `(mem hits, disk hits, warmed, cold)` since `since`.
fn cache_delta(since: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
    let now = saturation_cache_stats();
    (
        now.0 - since.0,
        now.1 - since.1,
        now.2 - since.2,
        now.3 - since.3,
    )
}

/// The six-application 75/20/5 mix whose saturation loads Fig. 14 needs.
fn six_app_mix() -> AppSpec {
    AppSpec {
        rate_flits: 0.0,
        intra: 0.75,
        inter: 0.20,
        inter_dest: InterDest::OutsideUniform,
        mc: 0.05,
    }
}

/// `fig14_cold`: where the six saturation searches go.
pub fn fig14_cold(
    dir: &Path,
    bench_seed: u64,
    tracer: &Tracer,
    root: usize,
    calib: &mut Calibration,
    o: &mut Outcome,
) -> Result<(), String> {
    let here = Some(root);
    let ec = quick(bench_seed);

    fresh_cache(dir.join("cache-search"))?;
    let before = saturation_cache_stats();
    let (warm_rates, search_s) = tracer.time("sweep.six_app_rates[empty cache]", here, |_| {
        fig14::six_app_rates(&ec)
    });
    let (mem, disk, warmed, cold) = cache_delta(before);
    o.ops(6);
    o.set("saturation.search_s", search_s);
    o.set("sweep.sat_warmed", warmed as f64);
    o.set("sweep.sat_cold", cold as f64);
    o.check(warmed + cold == 6 && mem + disk == 0, || {
        format!("empty cache: {warmed} warmed + {cold} cold searches, {mem} + {disk} hits; want 6 searches")
    });
    calib.sample(tracer, root);

    // The same six searches with the model's warm start switched off.
    fresh_cache(dir.join("cache-search-cold"))?;
    std::env::set_var("RAIR_COLD_SAT", "1");
    let (cold_rates, all_cold_s) = tracer.time(
        "sweep.six_app_rates[empty cache, RAIR_COLD_SAT]",
        here,
        |_| fig14::six_app_rates(&ec),
    );
    std::env::remove_var("RAIR_COLD_SAT");
    o.ops(6);
    o.set("model.search_speedup_x", all_cold_s / search_s);
    o.check(
        warm_rates
            .iter()
            .zip(&cold_rates)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        || format!("warm-started loads {warm_rates:?} differ from cold {cold_rates:?}"),
    );
    calib.sample(tracer, root);

    // One search on its own, below the cache: application 1 (a 90 % app).
    let cfg = SimConfig::table1();
    let region = RegionMap::six_regions(&cfg);
    let mix = six_app_mix();
    let probe = SaturationProbe::quick();
    let (cold_one, cold_s) = tracer.time("saturation.app_saturation[cold]", here, |_| {
        app_saturation_traced(&probe, &cfg, &region, 1, &mix, None, || {
            Routing::Local.build()
        })
    });
    let hint = model::warm_hint(&cfg, &region, 1, &mix, model::RoutingKind::Adaptive);
    let (warm_one, _) = tracer.time("saturation.app_saturation[warm]", here, |_| {
        app_saturation_traced(&probe, &cfg, &region, 1, &mix, hint, || {
            Routing::Local.build()
        })
    });
    o.ops(2);
    o.set("saturation.cold_search_s", cold_s);
    o.set("saturation.cold_sims", f64::from(cold_one.simulations));
    o.set("saturation.warm_sims", f64::from(warm_one.simulations));
    o.check(cold_one.load.to_bits() == warm_one.load.to_bits(), || {
        format!(
            "app 1: warm load {} != cold load {}",
            warm_one.load, cold_one.load
        )
    });
    Ok(())
}

/// The four scheme × routing jobs of Fig. 14, built the way
/// `fig14::run_with_global` builds them.
fn fig14_job(
    label: &str,
    scheme: &Scheme,
    routing: Routing,
    rates: [f64; 6],
    ec: &ExpConfig,
) -> RunResult {
    let cfg = SimConfig::table1();
    let (region, scenario) = six_app(&cfg, rates, InterDest::OutsideUniform);
    let net = build_network(&cfg, &region, scheme, routing, Box::new(scenario), ec.seed);
    run_one(label, net, ec)
}

/// `fig14_warm`: the cache read path, then the job pool against the same
/// four jobs run one after another.
pub fn fig14_warm(
    dir: &Path,
    bench_seed: u64,
    tracer: &Tracer,
    root: usize,
    calib: &mut Calibration,
    o: &mut Outcome,
) -> Result<(), String> {
    let here = Some(root);
    let ec = quick(bench_seed);

    fresh_cache(dir.join("cache-warm"))?;
    tracer.time("sweep.six_app_rates[empty cache]", here, |_| {
        fig14::six_app_rates(&ec)
    });
    calib.sample(tracer, root);

    // A new process on the filled cache: six disk reads, no search.
    clear_saturation_cache();
    let before = saturation_cache_stats();
    let (rates, hit_s) = tracer.time("sweep.six_app_rates[disk cache]", here, |_| {
        fig14::six_app_rates(&ec)
    });
    let (_, disk, warmed, cold) = cache_delta(before);
    o.ops(6);
    o.set("sweep.cache_hit_ms", hit_s * 1e3);
    o.set("sweep.sat_disk_hits", disk as f64);
    o.check(disk == 6 && warmed + cold == 0, || {
        format!(
            "filled cache: {disk} disk hits, {} searches; want 6 and 0",
            warmed + cold
        )
    });

    let before = saturation_cache_stats();
    let (pooled, pool_s) = tracer.time("runner.run_parallel[fig14]", here, |_| fig14::run(&ec));
    let (mem, ..) = cache_delta(before);
    o.ops(4);
    o.set("sweep.sat_mem_hits", mem as f64);
    o.set("runner.pool_wall_s", pool_s);
    let reduction = pooled.avg_reduction("RA_RAIR", None) * 100.0;
    o.set("fig14.paper_error_pp", (reduction - 10.1).abs());
    calib.sample(tracer, root);

    let schemes = [
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RA_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RO_Rank", Scheme::ro_rank(rates.to_vec()), Routing::Local),
        ("RA_RAIR", Scheme::rair(), Routing::Local),
    ];
    let (serial, _) = tracer.time("runner.serial[fig14]", here, |id| {
        schemes
            .iter()
            .map(|(label, scheme, routing)| {
                tracer
                    .time("runner.run_one", Some(id), |_| {
                        fig14_job(label, scheme, *routing, rates, &ec)
                    })
                    .0
            })
            .collect::<Vec<RunResult>>()
    });
    o.ops(4);
    let spans = tracer.snapshot();
    let serial_s = total_secs(&spans, "runner.run_one");
    o.set("runner.serial_s", serial_s);
    o.set("runner.pool_efficiency", serial_s / (2.0 * pool_s));
    for (r, (label, apl)) in serial.iter().zip(&pooled.schemes) {
        let same = r.label == *label && (0..6).all(|a| r.app_apl(a).to_bits() == apl[a].to_bits());
        o.check(same, || {
            format!("{label}: pooled and serial runs disagree on the APLs")
        });
    }
    Ok(())
}

/// A [`Store`] that records a span around every operation it forwards.
struct TimedStore {
    tracer: Arc<Tracer>,
    parent: usize,
}

impl TimedStore {
    fn timed<T>(&self, op: &str, f: impl FnOnce(&dyn Store) -> T) -> T {
        self.tracer
            .time(op, Some(self.parent), |_| f(std_store()))
            .0
    }
}

impl Store for TimedStore {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("store.read", |s| s.read(path))
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("store.write_atomic", |s| s.write_atomic(path, bytes))
    }
    fn append_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("store.append_durable", |s| s.append_durable(path, bytes))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed("store.rename", |s| s.rename(from, to))
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed("store.remove", |s| s.remove(path))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed("store.create_dir_all", |s| s.create_dir_all(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.timed("store.exists", |s| s.exists(path))
    }
}

/// `serve_batch`: the service with its store and executor wrapped, then a
/// resume of the finished directory, then the admission and verifier
/// layers every distinct configuration passes once.
pub fn serve_batch(
    dir: &Path,
    bench_seed: u64,
    tracer: &Arc<Tracer>,
    root: usize,
    calib: &mut Calibration,
    o: &mut Outcome,
) -> Result<(), String> {
    let here = Some(root);
    let specs = JobSpec::parse_jobs(&gen::jobs_file(bench_seed))?;
    let state = dir.join("serve-traced");
    let scfg = ServeConfig::new(
        &state,
        ExpConfig {
            warmup: SERVE_WINDOWS.0,
            measure: SERVE_WINDOWS.1,
            ..ExpConfig::full()
        },
    );

    let serve_span = tracer.enter("service.serve", here);
    let store = TimedStore {
        tracer: Arc::clone(tracer),
        parent: serve_span,
    };
    let inner = sim_exec();
    let exec: JobExec = {
        let tracer = Arc::clone(tracer);
        Arc::new(move |spec: &JobSpec, ec: &ExpConfig| {
            tracer
                .time("service.exec", Some(serve_span), |_| inner(spec, ec))
                .0
        })
    };
    let report = serve(&store, &specs, &scfg, &exec);
    let total_s = tracer.exit(serve_span);
    calib.sample(tracer, root);

    o.ops(specs.len());
    let rejected = report
        .outcomes
        .iter()
        .filter(|x| x.status.label() == "rejected")
        .count();
    check_serve_counts(
        o,
        "traced serve",
        report.executed,
        report.cache_hits,
        rejected,
        report.quarantined(),
    );
    o.set("serve.executed", report.executed as f64);
    o.set("serve.cache_hits", report.cache_hits as f64);
    o.set("serve.rejected", rejected as f64);
    o.set("serve.quarantined", report.quarantined() as f64);

    let spans = tracer.snapshot();
    let exec_s = secs_of(&spans, "service.exec");
    let exec_sum: f64 = exec_s.iter().sum();
    o.set("serve.total_s", total_s);
    o.set("serve.exec_s_sum", exec_sum);
    o.set("serve.exec_ms_p50", quantile(&exec_s, 0.5) * 1e3);
    o.set("serve.exec_ms_p90", quantile(&exec_s, 0.9) * 1e3);
    // Two workers: the share of their time not spent simulating.
    o.set("serve.overhead_frac", 1.0 - exec_sum / (2.0 * total_s));
    for (metric_n, metric_s, op) in [
        (
            "store.append_count",
            "store.append_s",
            "store.append_durable",
        ),
        (
            "store.write_atomic_count",
            "store.write_atomic_s",
            "store.write_atomic",
        ),
        ("store.read_count", "store.read_s", "store.read"),
    ] {
        let t = secs_of(&spans, op);
        o.set(metric_n, t.len() as f64);
        o.set(metric_s, t.iter().sum());
    }

    let wal = state.join("journal.wal");
    let (replay, replay_s) = tracer.time("journal.replay", here, |_| {
        Journal::new(&wal, std_store()).replay()
    });
    o.set("journal.rows", replay.rows.len() as f64);
    o.set("journal.replay_ms", replay_s * 1e3);
    o.check(!replay.torn_tail && replay.quarantined.is_empty(), || {
        "the finished WAL does not replay cleanly".into()
    });

    let (resumed, resume_s) = tracer.time("service.serve[resume]", here, |_| {
        serve(std_store(), &specs, &scfg, &sim_exec())
    });
    o.ops(specs.len());
    o.set("serve.resume_ms", resume_s * 1e3);
    o.check(
        resumed.sweep_digest == report.sweep_digest && resumed.executed == 0,
        || {
            format!(
                "resume: digest {:016x} vs {:016x}, {} re-executed",
                resumed.sweep_digest, report.sweep_digest, resumed.executed
            )
        },
    );
    calib.sample(tracer, root);

    // Admission and static verification of the six-region RA_RAIR network.
    let cfg = SimConfig::table1();
    let region = RegionMap::six_regions(&cfg);
    let alg = Routing::Local.build();
    let auto = Scheme::rair().automaton();
    // Fastest of `n` calls, and whether every call returned true.
    let fastest = |name: &str, n: usize, f: &dyn Fn() -> bool| {
        (0..n)
            .map(|_| tracer.time(name, here, |_| f()))
            .fold((f64::INFINITY, true), |(s, ok), (r, t)| (s.min(t), ok && r))
    };
    let (admit_s, admitted) = fastest("admit.admit_network", 5, &|| {
        admit_network(&cfg, &region, alg.as_ref(), &auto).is_admitted()
    });
    o.set("admit.check_ms", admit_s * 1e3);
    o.check(admitted, || "six-region RA_RAIR is not admitted".into());
    std::hint::black_box(admit_network_cached(&cfg, &region, alg.as_ref(), &auto));
    let cached_s = tracer
        .time("admit.admit_network_cached", here, |_| {
            let t = Instant::now();
            for _ in 0..100 {
                std::hint::black_box(admit_network_cached(&cfg, &region, alg.as_ref(), &auto));
            }
            t.elapsed().as_secs_f64() / 100.0
        })
        .0;
    o.set("admit.cached_us", cached_s * 1e6);
    let (verify_s, verified) = fastest("verify.Verifier::run", 3, &|| {
        Verifier::new(&cfg, alg.as_ref()).run().ok()
    });
    o.set("verify.check_ms", verify_s * 1e3);
    o.check(verified, || {
        "Table-1 local adaptive routing does not verify".into()
    });
    Ok(())
}
