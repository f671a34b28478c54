//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro [--quick] [--seed N] [--windows W,M] [--csv] [--oracle] <experiment>...
//! repro [--quick] [--windows W,M] serve <jobs-file> [--dir PATH]
//! repro [--smoke] [--seed N] chaos [--inject-wrong-result]
//! ```
//! where `<experiment>` is one of `table1`, `fig9`, `fig10`, `fig12`,
//! `fig14`, `fig15`, `fig17`, `lbdr`, `oracle`, `curve`, `trace-demo`,
//! `bench-kernel`, `bench-model`, `verify-config`, `admit`, `resilience`,
//! `ablation-delta`, `ablation-vcsplit`, `ablation-rank`, `baselines`, or
//! `all`; `repro --help` prints every flag.
//!
//! `--oracle` force-enables the invariant oracle for every simulation of
//! the invocation (equivalent to `RAIR_ORACLE=1`); the `oracle` experiment
//! additionally runs the dedicated scheme × routing verification matrix
//! with per-cycle checking.

use experiments::figs;
use experiments::runner::ExpConfig;
use metrics::Table;
use std::process::ExitCode;

const USAGE: &str = "usage: repro [--quick] [--smoke] [--seed N] [--windows W,M] [--csv] [--oracle] [--prune] [--inject-cyclic] [--inject-broken] \
[--topology mesh|torus|ring|cmesh[:N]] \
<table1|fig9|fig10|fig12|fig14|fig15|fig17|lbdr|oracle|curve|trace-demo|bench-kernel|bench-model|verify-config|admit|resilience|ablation-delta|ablation-vcsplit|ablation-rank|baselines|all> \
[--trace-file PATH]\n\
       repro [--quick] [--windows W,M] serve <jobs-file> [--dir PATH] [--retries N] [--timeout-ms N] [--screen]\n\
       repro [--smoke] [--seed N] chaos [--inject-wrong-result]";

fn main() -> ExitCode {
    let mut ec = ExpConfig::full();
    let mut csv = false;
    let mut smoke = false;
    let mut inject_cyclic = false;
    let mut inject_broken = false;
    let mut topology = noc_sim::topology::TopologyKind::Mesh;
    let mut trace_file = String::from("/tmp/rair_trace.bin");
    let mut serve_dir = String::from("results/serve");
    let mut retries: u32 = 3;
    let mut timeout_ms: Option<u64> = None;
    let mut screen = false;
    let mut inject_wrong_result = false;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                ec = ExpConfig {
                    seed: ec.seed,
                    prune: ec.prune,
                    ..ExpConfig::quick()
                };
            }
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => ec.seed = s,
                None => {
                    eprintln!("--seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => csv = true,
            // Opt-in: curve points the analytical model classifies as
            // deep-saturated or trivially stable get shortened
            // confirmation runs (default digests are untouched).
            "--prune" => ec.prune = true,
            // CI-sized: quick windows plus a reduced matrix for the
            // experiments that support it (currently `resilience`).
            "--smoke" => {
                smoke = true;
                ec = ExpConfig {
                    seed: ec.seed,
                    prune: ec.prune,
                    ..ExpConfig::quick()
                };
            }
            "--oracle" => {
                // Every Network built by this process resolves the toggle
                // through SimConfig::oracle / RAIR_ORACLE, so the env var
                // reaches all experiment drivers without threading a flag.
                std::env::set_var("RAIR_ORACLE", "1");
            }
            "--inject-cyclic" => inject_cyclic = true,
            "--inject-broken" => inject_broken = true,
            "--inject-wrong-result" => inject_wrong_result = true,
            // Explicit warmup,measure override (the chaos battery drives
            // child sweeps with tiny-but-real windows through this).
            "--windows" => {
                // A zero measurement window would make every APL 0/0.
                let parsed = args.next().and_then(|s| {
                    let (w, m) = s.split_once(',')?;
                    let m: u64 = m.trim().parse().ok()?;
                    (m > 0).then_some((w.trim().parse().ok()?, m))
                });
                match parsed {
                    Some((w, m)) => {
                        ec.warmup = w;
                        ec.measure = m;
                    }
                    None => {
                        eprintln!("--windows needs WARMUP,MEASURE cycles (MEASURE > 0)\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--dir" => match args.next() {
                Some(d) => serve_dir = d,
                None => {
                    eprintln!("--dir needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--retries" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => retries = n,
                None => {
                    eprintln!("--retries needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--timeout-ms" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => timeout_ms = Some(n),
                None => {
                    eprintln!("--timeout-ms needs milliseconds\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--screen" => screen = true,
            "--topology" => {
                match args
                    .next()
                    .and_then(|s| noc_sim::topology::TopologyKind::parse(&s))
                {
                    Some(k) => topology = k,
                    None => {
                        eprintln!("--topology needs mesh|torus|ring|cmesh[:N]\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace-file" => match args.next() {
                Some(p) => trace_file = p,
                None => {
                    eprintln!("--trace-file needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    // The service subcommands take over the whole invocation (serve also
    // consumes the following positional as its jobs file).
    if experiments[0] == "serve" {
        let Some(jobs_path) = experiments.get(1) else {
            eprintln!("serve needs a jobs file\n{USAGE}");
            return ExitCode::FAILURE;
        };
        return run_serve(jobs_path, &ec, &serve_dir, retries, timeout_ms, screen, csv);
    }
    if experiments[0] == "chaos" {
        return run_chaos_battery(smoke, ec.seed, inject_wrong_result, csv);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "table1",
            "lbdr",
            "fig9",
            "fig10",
            "fig12",
            "fig14",
            "fig15",
            "fig17",
            "ablation-delta",
            "ablation-vcsplit",
            "ablation-rank",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    }

    let emit = |t: &Table| {
        if csv {
            print!("{}", t.to_csv());
        } else {
            println!("{}", t.render());
        }
    };

    for exp in &experiments {
        eprintln!(
            "[repro] running {exp} ({} + {} cycles, seed {})…",
            ec.warmup, ec.measure, ec.seed
        );
        match exp.as_str() {
            "table1" => emit(&figs::table1::table()),
            "lbdr" => emit(&figs::lbdr_analysis::table(200_000, ec.seed)),
            "fig9" => {
                let r = figs::fig9::run(&ec);
                emit(&figs::fig9::table(
                    "Fig.9 — APL vs inter-region fraction p (MSP stages)",
                    &r,
                ));
                let base = r.point("RO_RR", 1.0);
                let full = r.point("RAIR_VA+SA", 1.0);
                println!(
                    "at p=100%: RAIR_VA+SA vs RO_RR: App0 {:+.1}%, App1 {:+.1}%  (paper: -18.9%, <+3%)\n",
                    (full.apl[0] / base.apl[0] - 1.0) * 100.0,
                    (full.apl[1] / base.apl[1] - 1.0) * 100.0,
                );
            }
            "fig10" => {
                let r = figs::fig10::run(&ec);
                emit(&figs::fig10::table(&r));
                let base = r.point("RO_RR_Local", 1.0);
                let rd = r.point("RAIR_DBAR", 1.0);
                let bd = r.point("RO_RR_DBAR", 1.0);
                println!(
                    "at p=100%: RAIR_DBAR vs RO_RR_Local: App0 {:+.1}%, App1 {:+.1}% (paper: -24.8%, -3.3%); vs RO_RR_DBAR: App0 {:+.1}%, App1 {:+.1}% (paper: -12.8%, +1.8%)\n",
                    (rd.apl[0] / base.apl[0] - 1.0) * 100.0,
                    (rd.apl[1] / base.apl[1] - 1.0) * 100.0,
                    (rd.apl[0] / bd.apl[0] - 1.0) * 100.0,
                    (rd.apl[1] / bd.apl[1] - 1.0) * 100.0,
                );
            }
            "fig12" => {
                let (a, b) = figs::fig12::run(&ec);
                emit(&figs::fig12::table(&a));
                emit(&figs::fig12::table(&b));
                println!(
                    "RAIR_DPA avg reduction: (a) {:+.1}%, (b) {:+.1}%  (paper: 12.8%, 12.2%)\n",
                    a.avg_reduction("RAIR_DPA") * 100.0,
                    b.avg_reduction("RAIR_DPA") * 100.0,
                );
            }
            "fig14" => {
                let r = figs::fig14::run(&ec);
                emit(&figs::fig14::table(&r));
                println!(
                    "avg reduction vs RO_RR: RA_DBAR {:+.1}%, RO_Rank {:+.1}%, RA_RAIR {:+.1}%  (paper: 3.4%, 5.8%, 10.1%)\n",
                    r.avg_reduction("RA_DBAR", None) * 100.0,
                    r.avg_reduction("RO_Rank", None) * 100.0,
                    r.avg_reduction("RA_RAIR", None) * 100.0,
                );
            }
            "fig15" => {
                let r = figs::fig15::run(&ec);
                emit(&figs::fig15::table(&r));
                println!(
                    "RA_RAIR average over patterns: {:+.1}%  (paper: 13.4%)\n",
                    r.overall_reduction("RA_RAIR") * 100.0
                );
            }
            "fig17" => {
                let r = figs::fig17::run(&ec);
                emit(&figs::fig17::table(&r));
                println!(
                    "avg slowdowns: RO_RR {:.2}, RA_DBAR {:.2}, RO_Rank {:.2}, RA_RAIR {:.2}  (paper: 1.92, 1.75, 1.47, 1.18)\n",
                    r.avg_slowdown("RO_RR"),
                    r.avg_slowdown("RA_DBAR"),
                    r.avg_slowdown("RO_Rank"),
                    r.avg_slowdown("RA_RAIR"),
                );
            }
            "oracle" => {
                let m = figs::oracle_check::run(&ec);
                emit(&figs::oracle_check::table(&m));
                println!(
                    "{}",
                    metrics::report::oracle_summary(true, m.total_violations())
                );
                println!(
                    "oracle overhead (per-cycle checking, wall time on/off): \
                     {:.2}x at low load, {:.2}x at high load\n",
                    m.overhead.0, m.overhead.1
                );
                if m.total_violations() > 0 {
                    eprintln!("[repro] ORACLE FOUND VIOLATIONS — kernel invariants broken");
                    return ExitCode::FAILURE;
                }
            }
            "resilience" => {
                let rows = figs::resilience::run(&ec, smoke);
                emit(&figs::resilience::table(&rows));
                let json = figs::resilience::to_json(&rows);
                std::fs::write("RESILIENCE_report.json", &json)
                    .expect("write RESILIENCE_report.json");
                eprintln!(
                    "[repro] wrote {} resilience rows to RESILIENCE_report.json",
                    rows.len()
                );
                let worst = figs::resilience::worst_fraction(&rows);
                println!(
                    "worst delivered fraction across faulted cells: {worst:.4} (target >= 0.99)\n"
                );
                let viol: u64 = rows.iter().map(|r| r.oracle_violations).sum();
                if viol > 0 {
                    eprintln!(
                        "[repro] RESILIENCE FAILED — {viol} oracle violation(s) under faults"
                    );
                    return ExitCode::FAILURE;
                }
                if worst < 0.99 {
                    eprintln!(
                        "[repro] RESILIENCE FAILED — delivered fraction {worst:.4} below 0.99"
                    );
                    return ExitCode::FAILURE;
                }
            }
            "trace-demo" => trace_demo(&ec, &trace_file, csv),
            "verify-config" => {
                if inject_cyclic {
                    return verify_config_negative(topology);
                }
                if let Some(code) = verify_config_positive(topology, &emit) {
                    return code;
                }
            }
            "admit" => {
                if inject_broken {
                    return admit_negative(topology);
                }
                if let Some(code) = admit_positive(topology, &emit) {
                    return code;
                }
            }
            "bench-kernel" => {
                let rows = experiments::bench_kernel::run(&ec);
                emit(&experiments::bench_kernel::table(&rows));
                let json = experiments::bench_kernel::to_json(&rows);
                std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
                eprintln!(
                    "[repro] wrote {} bench rows to BENCH_kernel.json",
                    rows.len()
                );
            }
            "bench-model" => {
                let b = experiments::bench_model::run(&ec);
                emit(&experiments::bench_model::sat_table(&b));
                emit(&experiments::bench_model::lat_table(&b));
                let (mean, max, max_cfg) = b.sat_error();
                let (wp, cp) = b.table1_probes();
                println!(
                    "model saturation error: mean |rel| {mean:.3}, max |rel| {max:.3} \
                     ({max_cfg}); Table-1 probes warm/cold {wp}/{cp}; \
                     sweep prune speedup {:.2}x ({} points shortened)\n",
                    b.sweep_full_secs / b.sweep_pruned_secs.max(1e-9),
                    b.sweep_pruned_points
                );
                let json = experiments::bench_model::to_json(&b);
                std::fs::write("BENCH_model.json", &json).expect("write BENCH_model.json");
                eprintln!(
                    "[repro] wrote {} saturation + {} latency rows to BENCH_model.json",
                    b.sat.len(),
                    b.lat.len()
                );
            }
            "curve" => {
                for pattern in [
                    traffic::pattern::Pattern::UniformRandom,
                    traffic::pattern::Pattern::Transpose,
                    traffic::pattern::Pattern::BitComplement,
                ] {
                    let c = figs::curve::run(&ec, pattern, 0.6, 12);
                    emit(&figs::curve::table(&c));
                    if let Some(k) = figs::curve::knee(&c) {
                        println!(
                            "{} knee (3x zero-load) at ~{k:.3} flits/cycle/node\n",
                            c.pattern
                        );
                    }
                }
            }
            "ablation-delta" => emit(&figs::ablation::table(&figs::ablation::delta_sweep(&ec))),
            "ablation-vcsplit" => {
                emit(&figs::ablation::table(&figs::ablation::vc_split_sweep(&ec)));
            }
            "ablation-rank" => emit(&figs::ablation::table(&figs::ablation::rank_estimation(
                &ec,
            ))),
            "baselines" => emit(&figs::ablation::table(&figs::ablation::baselines(&ec))),
            other => {
                eprintln!("unknown experiment {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Run the static verifier over the full shipped scheme×routing×region
/// matrix (plus LBDR-confined variants) on the canonical config of the
/// selected topology. Returns `Some(FAILURE)` when any configuration
/// fails, printing the witnesses; `None` on success.
fn verify_config_positive(
    topology: noc_sim::topology::TopologyKind,
    emit: &impl Fn(&Table),
) -> Option<ExitCode> {
    use experiments::verify_config as vc;
    let rows = vc::run_matrix_for(topology);
    emit(&vc::table(&rows));
    let json = vc::to_json(&rows);
    std::fs::write("VERIFY_report.json", &json).expect("write VERIFY_report.json");
    eprintln!(
        "[repro] wrote {} verification rows ({} topology) to VERIFY_report.json",
        rows.len(),
        topology.label()
    );
    let mut failed = false;
    for r in &rows {
        if r.violations > 0 {
            failed = true;
            eprintln!(
                "[repro] VERIFY FAILED {}/{} (lbdr {}): {}",
                r.region,
                r.routing,
                r.lbdr,
                r.first_witness.as_deref().unwrap_or("(no witness)")
            );
        }
    }
    for (label, errs) in vc::scheme_checks() {
        for e in &errs {
            failed = true;
            eprintln!("[repro] SCHEME CHECK FAILED {label}: {e}");
        }
    }
    if failed {
        eprintln!("[repro] static verification FAILED");
        return Some(ExitCode::FAILURE);
    }
    println!(
        "static verification: all {} configurations proved deadlock-free and legal\n",
        rows.len()
    );
    None
}

/// Run the injected-fault battery: every deliberately broken configuration
/// must be rejected with a concrete witness. Always exits nonzero (the
/// configurations are invalid); prints `NOT REJECTED` if the verifier
/// missed one, which the CLI tests treat as a verifier bug.
fn verify_config_negative(topology: noc_sim::topology::TopologyKind) -> ExitCode {
    let mut cases = experiments::verify_config::negative_battery();
    if topology.wraps() {
        // No dateline lane switch on a wrapping topology → the verifier
        // must extract the wrap cycle.
        cases.push(experiments::verify_config::torus_no_dateline_case());
    }
    for c in &cases {
        if c.rejected {
            println!("[{}] rejected with witness: {}", c.name, c.witness);
        } else {
            println!(
                "[{}] NOT REJECTED — verifier missed an injected fault",
                c.name
            );
        }
    }
    eprintln!(
        "[repro] {} injected cyclic/broken configs, {} rejected",
        cases.len(),
        cases.iter().filter(|c| c.rejected).count()
    );
    ExitCode::FAILURE
}

/// Run the static admission pipeline over the shipped scheme × routing ×
/// region matrix on the canonical config of the selected topology.
/// Returns `Some(FAILURE)` when any cell is rejected (the golden matrix
/// must be admitted without false rejections); `None` on success.
fn admit_positive(
    topology: noc_sim::topology::TopologyKind,
    emit: &impl Fn(&Table),
) -> Option<ExitCode> {
    use experiments::admit;
    let rows = admit::run_matrix_for(topology);
    emit(&admit::table(&rows));
    let json = admit::to_json(&rows);
    std::fs::write("ADMIT_report.json", &json).expect("write ADMIT_report.json");
    eprintln!(
        "[repro] wrote {} admission rows ({} topology) to ADMIT_report.json",
        rows.len(),
        topology.label()
    );
    let mut failed = false;
    for r in &rows {
        if r.verdict == "reject" {
            failed = true;
            eprintln!(
                "[repro] ADMIT FAILED {}/{}/{}: {}",
                r.region,
                r.routing,
                r.scheme,
                r.defect.as_deref().unwrap_or("(no defect detail)")
            );
        } else if r.verdict == "warn" {
            eprintln!(
                "[repro] admit warning {}/{}/{}: {}",
                r.region,
                r.routing,
                r.scheme,
                r.defect.as_deref().unwrap_or("(no defect detail)")
            );
        }
    }
    if failed {
        eprintln!("[repro] static admission FAILED — false rejection in the golden matrix");
        return Some(ExitCode::FAILURE);
    }
    let worst = rows.iter().map(|r| r.micros).max().unwrap_or(0);
    println!(
        "static admission: all {} configurations admitted \
         (slowest cell {worst} µs, target <= 10 ms)\n",
        rows.len()
    );
    None
}

/// Run the admission negative battery: every deliberately broken
/// configuration must be rejected with the named property and a concrete
/// witness. Always exits nonzero (the configurations are invalid);
/// prints `NOT REJECTED` if the pipeline missed one, which the CLI tests
/// treat as a pipeline bug.
fn admit_negative(topology: noc_sim::topology::TopologyKind) -> ExitCode {
    let cases = experiments::admit::negative_battery(topology);
    for c in &cases {
        if c.rejected {
            println!(
                "[{}] rejected ({}) with witness: {}",
                c.name, c.property, c.witness
            );
        } else {
            println!(
                "[{}] NOT REJECTED — admission pipeline missed an injected defect",
                c.name
            );
        }
    }
    eprintln!(
        "[repro] {} injected broken configs, {} rejected",
        cases.len(),
        cases.iter().filter(|c| c.rejected).count()
    );
    ExitCode::FAILURE
}

/// `repro serve <jobs>` — run a jobs file through the crash-safe service:
/// journaled transitions, result dedup, admission gate, supervised retries.
/// Quarantined (poison) jobs are labeled in the report, never abort the
/// sweep, and do not fail the invocation.
fn run_serve(
    jobs_path: &str,
    ec: &ExpConfig,
    dir: &str,
    retries: u32,
    timeout_ms: Option<u64>,
    screen: bool,
    csv: bool,
) -> ExitCode {
    use experiments::service::{serve, sim_exec, std_store, JobSpec, ServeConfig};
    let text = match std::fs::read_to_string(jobs_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[serve] cannot read jobs file {jobs_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = match JobSpec::parse_jobs(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[serve] invalid jobs file {jobs_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scfg = ServeConfig {
        max_attempts: retries.max(1),
        timeout_ms,
        screen,
        ..ServeConfig::new(dir, *ec)
    };
    let exec = sim_exec();
    let report = serve(std_store(), &specs, &scfg, &exec);
    let mut t = Table::new(
        "Experiment service — job outcomes",
        &["job", "status", "attempts", "source", "detail"],
    );
    for o in &report.outcomes {
        let detail = o.reason.clone().unwrap_or_else(|| {
            o.result.as_ref().map_or_else(String::new, |r| {
                format!("APL {}", metrics::report::f2(r.mean_apl(None)))
            })
        });
        t.row(vec![
            o.spec.label.clone(),
            o.status.label().to_string(),
            o.attempts.to_string(),
            if o.restored { "restored" } else { "executed" }.to_string(),
            detail,
        ]);
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
    println!(
        "sweep digest {:016x}  ({} resumed, {} cache hits, {} executed, {} quarantined)",
        report.sweep_digest,
        report.resumed,
        report.cache_hits,
        report.executed,
        report.quarantined(),
    );
    if report.quarantined() > 0 {
        eprintln!(
            "[serve] warning: {} poison job(s) quarantined — see the report for labels",
            report.quarantined()
        );
    }
    ExitCode::SUCCESS
}

/// `repro chaos` — run the fault-injection battery and fail the invocation
/// on any unrecovered fault. `--inject-wrong-result` runs the negative
/// control instead (always exits nonzero; prints whether the tampered
/// result was detected).
fn run_chaos_battery(smoke: bool, seed: u64, inject_wrong_result: bool, csv: bool) -> ExitCode {
    use experiments::service::{run_chaos, run_wrong_result};
    if inject_wrong_result {
        let (detected, detail) = run_wrong_result(seed);
        println!(
            "[inject-wrong-result] {}: {detail}",
            if detected { "DETECTED" } else { "NOT DETECTED" }
        );
        // The negative control always exits nonzero: the store is corrupt
        // by construction, whether or not the harness caught it — and CI
        // asserts the nonzero exit.
        return ExitCode::FAILURE;
    }
    let report = run_chaos(smoke, seed);
    if csv {
        print!("{}", report.table().to_csv());
    } else {
        println!("{}", report.table().render());
    }
    std::fs::write("CHAOS_report.json", report.to_json()).expect("write CHAOS_report.json");
    eprintln!(
        "[repro] wrote {} battery results to CHAOS_report.json",
        report.batteries.len()
    );
    if report.all_green() {
        println!(
            "chaos battery: all {} fault classes recovered with bit-identical digests\n",
            report.batteries.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("[repro] CHAOS FAILED — at least one fault class did not recover");
        ExitCode::FAILURE
    }
}

/// Capture a six-application trace to `path`, then replay the *identical*
/// offered traffic under RO_RR and RA_RAIR — the deterministic trace-driven
/// mode that sharpens scheme comparisons.
fn trace_demo(ec: &ExpConfig, path: &str, csv: bool) {
    use experiments::runner::run_one;
    use experiments::sweep::build_network;
    use noc_sim::config::SimConfig;
    use rair::scheme::{Routing, Scheme};
    use traffic::scenario::{six_app, InterDest};
    use traffic::trace::{Trace, TraceReplay};

    let cfg = SimConfig::table1();
    let rates = [0.03, 0.3, 0.1, 0.07, 0.08, 0.3];
    let cycles = ec.warmup + ec.measure;
    let (region, scenario) = six_app(&cfg, rates, InterDest::OutsideUniform);
    let trace = Trace::capture(scenario, cfg.num_nodes() as u16, cycles, ec.seed);
    std::fs::write(path, trace.to_bytes()).expect("write trace file");
    eprintln!(
        "[repro] captured {} events over {} cycles to {path}",
        trace.events.len(),
        cycles
    );
    let loaded = Trace::from_bytes(std::fs::read(path).expect("read trace file").into())
        .expect("parse trace file");
    assert_eq!(loaded, trace, "trace file round-trip mismatch");

    let mut t = metrics::Table::new(
        "Trace-driven comparison (identical offered traffic from file)",
        &["scheme", "App0", "App1", "App2", "App3", "App4", "App5"],
    );
    for scheme in [Scheme::RoRr, Scheme::rair()] {
        let replay = TraceReplay::new(&loaded, cfg.num_nodes() as u16);
        let net = build_network(
            &cfg,
            &region,
            &scheme,
            Routing::Local,
            Box::new(replay),
            ec.seed,
        );
        let r = run_one(scheme.label(), net, ec);
        eprintln!("[{}] {}", r.label, r.kernel_summary());
        let mut row = vec![r.label.clone()];
        row.extend((0..6).map(|a| metrics::report::f2(r.app_apl(a))));
        t.row(row);
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}
