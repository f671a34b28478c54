//! Simulation runner: runs one configured network through its windows and
//! extracts per-application results, plus the one `RunResult` row codec.
//!
//! Sweeps of many runs are cell lists run by [`crate::figs::run_cells`] on
//! the crate's one supervised pool ([`crate::service::pool`]: panics caught
//! and retried, a poison job reported with its label after the whole sweep
//! has finished; only `repro serve` journals and resumes). Every run is
//! bounded by its windows, in the cycle domain (`Instant` is banned by the
//! determinism lint).

use metrics::LatencyKind;
use noc_sim::network::Network;
use serde::{Deserialize, Serialize};

/// Warmup/measurement window and seed for one experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExpConfig {
    pub warmup: u64,
    pub measure: u64,
    pub seed: u64,
    /// Quick mode trades statistical tightness for speed (`repro --quick`
    /// and the test suite).
    pub quick: bool,
}

impl ExpConfig {
    /// The paper's windows: 10K warmup + 100K measurement cycles (§V.A).
    pub fn full() -> Self {
        Self {
            warmup: 10_000,
            measure: 100_000,
            seed: 0xC0FFEE,
            quick: false,
        }
    }

    /// Reduced windows for `repro --quick` and tests.
    pub fn quick() -> Self {
        Self {
            warmup: 2_000,
            measure: 15_000,
            seed: 0xC0FFEE,
            quick: true,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Label identifying the run (scheme, parameters…).
    pub label: String,
    /// Mean network latency (injection→ejection) per application; `None`
    /// when the application delivered no packets in the window.
    pub apl: Vec<Option<f64>>,
    /// Mean total latency (generation→ejection) per application.
    pub total_latency: Vec<Option<f64>>,
    /// Packets delivered in the measurement window.
    pub delivered: u64,
    /// Flit throughput in flits/cycle/node.
    pub throughput: f64,
    /// Cycles simulated (warmup + measurement).
    pub cycles: u64,
    /// Routers in the mesh.
    pub routers: usize,
    /// Router×phase visits elided by the active-set fast path.
    pub router_cycles_skipped: u64,
    /// End-of-cycle router state updates elided.
    pub state_updates_skipped: u64,
    /// Always 0: the clock no longer jumps. Kept because the checkpoint row
    /// and the pinned sweep digests carry it; ROADMAP item 4 retires it.
    pub idle_cycles_skipped: u64,
    /// Whether the invariant oracle was active during the run.
    pub oracle_enabled: bool,
    /// Invariant violations the oracle recorded (0 when disabled).
    pub oracle_violations: u64,
    /// Always false: no run is clamped short of its windows any more. Kept
    /// because the checkpoint row and the pinned sweep digests carry it;
    /// ROADMAP item 4 retires it.
    pub truncated: bool,
}

impl RunResult {
    /// Unweighted mean of the per-application APLs (how the paper averages
    /// "over all applications"), restricted to `apps` if given. Applications
    /// that delivered nothing in the window — routine at saturation — are
    /// skipped; `NaN` is returned when none delivered, so a starved sweep
    /// point shows up in tables instead of tearing down the run.
    pub fn mean_apl(&self, apps: Option<&[usize]>) -> f64 {
        let vals: Vec<f64> = match apps {
            Some(idx) => idx.iter().filter_map(|&a| self.apl[a]).collect(),
            None => self.apl.iter().flatten().copied().collect(),
        };
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// APL of one application; `NaN` when it delivered nothing (so ratios
    /// and tables degrade visibly instead of panicking at saturation).
    pub fn app_apl(&self, app: usize) -> f64 {
        self.apl[app].unwrap_or(f64::NAN)
    }

    /// A plausible made-up result for the pool, journal and codec tests:
    /// every codec path is exercised (an absent latency, non-zero counters),
    /// and `seed` tells results apart.
    #[cfg(test)]
    pub(crate) fn fabricated(label: &str, seed: u64) -> RunResult {
        RunResult {
            label: label.into(),
            apl: vec![Some(10.0 + seed as f64), None],
            total_latency: vec![Some(12.5 + seed as f64), None],
            delivered: 42 + seed,
            throughput: 0.125,
            cycles: 5_000,
            routers: 64,
            router_cycles_skipped: 7,
            state_updates_skipped: 8,
            idle_cycles_skipped: 9,
            oracle_enabled: true,
            oracle_violations: 0,
            truncated: false,
        }
    }

    /// Fold every numeric field (everything but the label, which is
    /// presentation) into a digest. Floats go in by bit pattern and
    /// `None` latencies get a distinct marker, so the fold distinguishes
    /// every state the checkpoint format can round-trip. Four literal zeros
    /// stand where the retired fault counters were folded, so pinned sweep
    /// digests hold; ROADMAP item 4 drops them in its one re-pin.
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        for v in [&self.apl, &self.total_latency] {
            d.write_u64(v.len() as u64);
            for o in v {
                match o {
                    Some(x) => {
                        d.write_u64(1);
                        d.write_f64(*x);
                    }
                    None => d.write_u64(0),
                }
            }
        }
        d.write_u64(self.delivered);
        d.write_f64(self.throughput);
        d.write_u64(self.cycles);
        d.write_u64(self.routers as u64);
        d.write_u64(self.router_cycles_skipped);
        d.write_u64(self.state_updates_skipped);
        d.write_u64(self.idle_cycles_skipped);
        d.write_u64(u64::from(self.oracle_enabled));
        d.write_u64(self.oracle_violations);
        d.write_u64(u64::from(self.truncated));
        for _ in 0..4 {
            d.write_u64(0);
        }
    }

    /// One-line report of how much per-cycle kernel work the active-set
    /// fast path elided during this run.
    pub fn kernel_summary(&self) -> String {
        let visits = self.cycles * self.routers as u64;
        metrics::report::kernel_summary(
            visits * 3,
            self.router_cycles_skipped,
            visits,
            self.state_updates_skipped,
        )
    }
}

/// Run one already-built network through warmup + measurement and collect
/// the result.
pub fn run_one(label: impl Into<String>, mut net: Network, cfg: &ExpConfig) -> RunResult {
    net.run_warmup_measure(cfg.warmup, cfg.measure);
    let rec = &net.stats.recorder;
    let napps = rec.num_apps();
    RunResult {
        label: label.into(),
        apl: (0..napps)
            .map(|a| rec.app(a).mean(LatencyKind::Network))
            .collect(),
        total_latency: (0..napps)
            .map(|a| rec.app(a).mean(LatencyKind::Total))
            .collect(),
        delivered: rec.delivered(),
        throughput: net.stats.throughput(net.cycle(), net.cfg.num_nodes()),
        cycles: net.cycle(),
        routers: net.cfg.num_routers(),
        router_cycles_skipped: net.stats.router_cycles_skipped,
        state_updates_skipped: net.stats.state_updates_skipped,
        idle_cycles_skipped: net.stats.idle_cycles_skipped,
        oracle_enabled: net.oracle_enabled(),
        oracle_violations: net.stats.oracle_violation_count,
        truncated: false,
    }
}

/// Resolve the sweep worker count: a parseable `RAIR_THREADS` value wins
/// (clamped to at least 1), otherwise every available core is used; either
/// way no more workers than jobs are spawned. Parallelism never changes
/// results — runs are independent and deterministic — so the override is
/// purely about machine sharing.
pub(crate) fn worker_count_from(env_threads: Option<&str>, jobs: usize) -> usize {
    let (count, warning) = resolve_worker_count(env_threads, jobs);
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    count
}

/// Pure core of [`worker_count_from`]: returns the worker count plus the
/// stderr warning to emit when `RAIR_THREADS` is set but unparseable, so
/// the warning path is unit-testable without capturing stderr. A silent
/// fallback here cost a debugging session once — `RAIR_THREADS=all` ran a
/// 1000-job sweep on every core of a shared box.
fn resolve_worker_count(env_threads: Option<&str>, jobs: usize) -> (usize, Option<String>) {
    let fallback = || std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let (count, warning) = match env_threads {
        None => (fallback(), None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(t) => (t.max(1), None),
            Err(_) => {
                let f = fallback();
                (
                    f,
                    Some(format!(
                        "[sweep] warning: RAIR_THREADS={s:?} is not a thread count; \
                         falling back to {f} workers (available parallelism)"
                    )),
                )
            }
        },
    };
    (count.min(jobs), warning)
}

/// Version tag opening every [`RunResult`] row; bump when the row layout
/// changes so old journal rows are ignored, not misparsed.
const CHECKPOINT_TAG: &str = "rair-ckpt-v1";

pub(crate) fn esc_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

pub(crate) fn unesc_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(o) => {
                out.push('\\');
                out.push(o);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Exact (bit-level) float round-trip: decimal formatting would perturb
/// resumed results relative to a straight-through run.
pub(crate) fn f64_field(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

pub(crate) fn parse_f64_field(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// `Vec<Option<f64>>` as one field: `-` for the empty vector, else a
/// comma list with `_` marking `None` (so `[]` and `[None]` stay distinct).
fn latency_field(v: &[Option<f64>]) -> String {
    if v.is_empty() {
        return "-".into();
    }
    v.iter()
        .map(|o| o.map_or_else(|| "_".into(), f64_field))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_latency_field(s: &str) -> Option<Vec<Option<f64>>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|t| {
            if t == "_" {
                Some(None)
            } else {
                parse_f64_field(t).map(Some)
            }
        })
        .collect()
}

/// One completed result as a single row (tab-separated, version-tagged,
/// floats bit-exact): the payload of journal `done` rows. Columns 12–15,
/// where the retired fault counters were, are always `0`, so rows keep the
/// grammar older binaries write and read.
pub(crate) fn checkpoint_line(r: &RunResult) -> String {
    format!(
        "{CHECKPOINT_TAG}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t0\t0\t0\t0\t{}\t{}",
        esc_label(&r.label),
        r.delivered,
        f64_field(r.throughput),
        r.cycles,
        r.routers,
        r.router_cycles_skipped,
        r.state_updates_skipped,
        r.idle_cycles_skipped,
        u8::from(r.oracle_enabled),
        r.oracle_violations,
        u8::from(r.truncated),
        latency_field(&r.apl),
        latency_field(&r.total_latency),
    )
}

/// Parse one [`checkpoint_line`] row; `None` for anything malformed or
/// version-mismatched.
pub(crate) fn parse_checkpoint_line(line: &str) -> Option<RunResult> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 18 || f[0] != CHECKPOINT_TAG {
        return None;
    }
    // The four retired counter columns: still numbers, never read.
    if f[12..16].iter().any(|c| c.parse::<u64>().is_err()) {
        return None;
    }
    Some(RunResult {
        label: unesc_label(f[1]),
        delivered: f[2].parse().ok()?,
        throughput: parse_f64_field(f[3])?,
        cycles: f[4].parse().ok()?,
        routers: f[5].parse().ok()?,
        router_cycles_skipped: f[6].parse().ok()?,
        state_updates_skipped: f[7].parse().ok()?,
        idle_cycles_skipped: f[8].parse().ok()?,
        oracle_enabled: f[9] == "1",
        oracle_violations: f[10].parse().ok()?,
        truncated: f[11] == "1",
        apl: parse_latency_field(f[16])?,
        total_latency: parse_latency_field(f[17])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::prelude::*;

    fn tiny_net(seed: u64) -> Network {
        let cfg = SimConfig::table1();
        let pkt = NewPacket {
            dst: 9,
            app: 0,
            class: 0,
            size: 1,
            reply: None,
        };
        Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            Box::new(DuatoLocalAdaptive),
            Box::new(RoundRobin),
            Box::new(ScriptedSource::new(1, vec![(2100, 0, pkt)])),
            seed,
        )
    }

    #[test]
    fn run_one_collects_apl() {
        let cfg = ExpConfig {
            warmup: 2_000,
            measure: 3_000,
            seed: 0,
            quick: true,
        };
        let r = run_one("probe", tiny_net(1), &cfg);
        assert_eq!(r.delivered, 1);
        assert!(r.app_apl(0) > 0.0);
        assert!(r.mean_apl(None) > 0.0);
        // A single-packet run is almost entirely idle: every cycle is
        // ticked, and inside those ticks the active-set fast path elides all
        // but the few router visits and state updates the packet's path
        // needs.
        assert_eq!((r.cycles, r.routers, r.idle_cycles_skipped), (5_000, 64, 0));
        let visits = r.cycles * r.routers as u64;
        assert!(
            r.router_cycles_skipped > 3 * visits - 100,
            "the active set barely skipped: {}",
            r.router_cycles_skipped
        );
        assert!(r.state_updates_skipped > visits - 100);
        assert!(r.kernel_summary().starts_with("kernel:"));
    }

    #[test]
    fn starved_app_yields_nan_not_panic() {
        let r = RunResult {
            label: "starved".into(),
            apl: vec![None, Some(12.0)],
            total_latency: vec![None, Some(14.0)],
            delivered: 3,
            throughput: 0.01,
            cycles: 1_000,
            routers: 64,
            router_cycles_skipped: 0,
            state_updates_skipped: 0,
            idle_cycles_skipped: 0,
            oracle_enabled: false,
            oracle_violations: 0,
            truncated: false,
        };
        assert!(r.app_apl(0).is_nan());
        assert_eq!(r.app_apl(1), 12.0);
        // mean over delivered apps only; NaN when nothing delivered at all.
        assert_eq!(r.mean_apl(None), 12.0);
        assert!(r.mean_apl(Some(&[0])).is_nan());
    }

    #[test]
    fn checkpoint_line_round_trips_bit_exactly() {
        let mut r = RunResult::fabricated("weird\tlabel\\with\nescapes", 0);
        r.apl = vec![Some(f64::NAN), None, Some(-0.0)];
        r.total_latency = Vec::new();
        r.truncated = true;
        let p = parse_checkpoint_line(&checkpoint_line(&r)).expect("round trip");
        assert_eq!(p.label, r.label);
        assert_eq!(p.delivered, r.delivered);
        assert_eq!(p.throughput.to_bits(), r.throughput.to_bits());
        assert_eq!(p.cycles, r.cycles);
        assert_eq!(p.oracle_enabled, r.oracle_enabled);
        assert!(p.truncated);
        let bits = |v: &[Option<f64>]| v.iter().map(|o| o.map(f64::to_bits)).collect::<Vec<_>>();
        assert_eq!(bits(&p.apl), bits(&r.apl));
        assert!(p.total_latency.is_empty());
        // Garbage, partial writes, and stale versions are skipped.
        assert!(parse_checkpoint_line("").is_none());
        assert!(parse_checkpoint_line("rair-ckpt-v0\tx").is_none());
        let line = checkpoint_line(&r);
        assert!(parse_checkpoint_line(&line[..line.len() / 2]).is_none());
        // The retired counter columns are written as `0` and must still
        // parse as numbers.
        let mut f: Vec<&str> = line.split('\t').collect();
        assert_eq!((f.len(), &f[12..16]), (18, &["0"; 4][..]));
        f[14] = "x";
        assert!(parse_checkpoint_line(&f.join("\t")).is_none());
    }

    #[test]
    fn worker_count_honors_rair_threads() {
        // Explicit override wins, clamped to >= 1 and <= jobs.
        assert_eq!(worker_count_from(Some("3"), 10), 3);
        assert_eq!(worker_count_from(Some(" 2 "), 10), 2);
        assert_eq!(worker_count_from(Some("0"), 10), 1);
        assert_eq!(worker_count_from(Some("64"), 5), 5);
        // Garbage falls back to available parallelism (bounded by jobs).
        let fallback = worker_count_from(Some("not-a-number"), 1000);
        assert!(fallback >= 1);
        assert_eq!(worker_count_from(None, 1), 1);
    }

    #[test]
    fn unparseable_rair_threads_warns_with_value_and_fallback() {
        // Garbage values surface a warning naming both the bad value and
        // the worker count actually used...
        let (count, warning) = resolve_worker_count(Some("not-a-number"), 1000);
        let w = warning.expect("unparseable RAIR_THREADS must warn");
        assert!(
            w.contains("RAIR_THREADS"),
            "warning names the variable: {w}"
        );
        assert!(
            w.contains("not-a-number"),
            "warning names the bad value: {w}"
        );
        assert!(
            w.contains(&count.to_string()),
            "warning names the fallback: {w}"
        );
        // ...while the valid, absent, and clamped paths stay silent.
        assert_eq!(resolve_worker_count(Some("3"), 10), (3, None));
        assert_eq!(resolve_worker_count(Some("0"), 10), (1, None));
        assert!(resolve_worker_count(None, 8).1.is_none());
    }
}
