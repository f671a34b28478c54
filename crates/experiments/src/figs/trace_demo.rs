//! Trace-driven demo: capture a six-application trace to a file, then
//! replay the *identical* offered traffic under RO_RR and RA_RAIR — the
//! deterministic mode that sharpens scheme comparisons.

use crate::runner::{run_one, ExpConfig};
use crate::sweep::build_network;
use metrics::Table;
use noc_sim::config::SimConfig;
use rair::scheme::{Routing, Scheme};
use traffic::scenario::{six_app, InterDest};
use traffic::trace::{Trace, TraceReplay};

/// Capture to `path`, read the file back, replay it under both schemes.
/// An unwritable, unreadable, corrupt or mismatched trace file is an `Err`
/// of the form `trace-demo: <path>: <error>`.
pub fn run(ec: &ExpConfig, path: &str) -> Result<Table, String> {
    let at_path = |e: String| format!("trace-demo: {path}: {e}");
    let cfg = SimConfig::table1();
    let rates = [0.03, 0.3, 0.1, 0.07, 0.08, 0.3];
    let cycles = ec.warmup + ec.measure;
    let (region, scenario) = six_app(&cfg, rates, InterDest::OutsideUniform);
    let trace = Trace::capture(scenario, cfg.num_nodes() as u16, cycles, ec.seed);
    let bytes = trace.to_bytes().map_err(at_path)?;
    std::fs::write(path, bytes).map_err(|e| at_path(e.to_string()))?;
    let events = trace.events.len();
    eprintln!("[repro] captured {events} events over {cycles} cycles to {path}");
    let bytes = std::fs::read(path).map_err(|e| at_path(e.to_string()))?;
    let loaded = Trace::from_bytes(bytes.into()).map_err(at_path)?;
    if loaded != trace {
        return Err(at_path(
            "read back a different trace than was written".into(),
        ));
    }

    let mut t = Table::new(
        "Trace-driven comparison (identical offered traffic from file)",
        &["scheme", "App0", "App1", "App2", "App3", "App4", "App5"],
    );
    for scheme in [Scheme::RoRr, Scheme::rair()] {
        // The trace came from a file: an event this network cannot carry is
        // an error here, not an abort mid-run.
        let replay = Box::new(TraceReplay::checked(&loaded, &cfg).map_err(at_path)?);
        let net = build_network(&cfg, &region, &scheme, Routing::Local, replay, ec.seed);
        let r = run_one(scheme.label(), net, ec);
        eprintln!("[{}] {}", r.label, r.kernel_summary());
        let mut row = vec![r.label.clone()];
        row.extend((0..6).map(|a| metrics::report::f2(r.app_apl(a))));
        t.row(row);
    }
    Ok(t)
}
