//! Run-level statistics.

use crate::oracle::OracleViolation;
use crate::verify::VerifyViolation;
use metrics::{Digest, LatencyKind, LatencyRecorder};

/// Statistics gathered during a simulation run.
///
/// The latency recorder is windowed: [`SimStats::reset_window`] clears it at
/// the warmup boundary. The flit counters are cumulative for the whole run
/// and back the flit-conservation invariant checks.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Per-application latency accumulators (measurement window).
    pub recorder: LatencyRecorder,
    /// Packets generated per application (cumulative).
    pub generated: Vec<u64>,
    /// Packets injected into the network per application (cumulative).
    pub injected_packets: Vec<u64>,
    /// Flits injected into the network (cumulative).
    pub injected_flits: u64,
    /// Flits ejected from the network (cumulative).
    pub ejected_flits: u64,
    /// Cycle the measurement window started.
    pub measure_start: u64,
    /// Last cycle any flit moved through a crossbar or was ejected —
    /// the deadlock-watchdog signal.
    pub last_progress: u64,
    /// Router×phase visits elided by the active-set fast path (cumulative;
    /// up to 3 per router per cycle — SA, VA and RC each skip routers with
    /// no occupied input VC).
    pub router_cycles_skipped: u64,
    /// Per-router end-of-cycle state updates elided because the router's
    /// occupancy was unchanged (cumulative).
    pub state_updates_skipped: u64,
    /// Always 0: the clock no longer jumps. Kept because the frozen
    /// benchmark harness reads it; ROADMAP item 4 retires it.
    pub idle_cycles_skipped: u64,
    /// Invariant violations recorded by the oracle, capped at
    /// `SimConfig::oracle.max_recorded` ([`Self::oracle_violation_count`]
    /// keeps the uncapped total). Empty when the oracle is disabled.
    pub oracle_violations: Vec<OracleViolation>,
    /// Total invariant violations detected (uncapped).
    pub oracle_violation_count: u64,
    /// Violations found by the static configuration verifier at
    /// construction time, capped at
    /// [`crate::verify::MAX_RECORDED_VIOLATIONS`]. Empty when the verifier
    /// is disabled or the configuration proved clean. Deliberately
    /// excluded from [`Self::digest`]: the verifier observes the
    /// configuration, it does not alter simulation outcome.
    pub verify_violations: Vec<VerifyViolation>,
    /// Total static-verifier violations (uncapped).
    pub verify_violation_count: u64,
}

impl SimStats {
    pub fn new(num_apps: usize) -> Self {
        Self {
            recorder: LatencyRecorder::new(num_apps),
            generated: vec![0; num_apps],
            injected_packets: vec![0; num_apps],
            injected_flits: 0,
            ejected_flits: 0,
            measure_start: 0,
            last_progress: 0,
            router_cycles_skipped: 0,
            state_updates_skipped: 0,
            idle_cycles_skipped: 0,
            oracle_violations: Vec::new(),
            oracle_violation_count: 0,
            verify_violations: Vec::new(),
            verify_violation_count: 0,
        }
    }

    /// Begin the measurement window at `cycle` (end of warmup).
    pub fn reset_window(&mut self, cycle: u64) {
        self.recorder.reset();
        self.measure_start = cycle;
    }

    /// Average packet latency of one application over the window.
    pub fn apl(&self, app: usize, kind: LatencyKind) -> Option<f64> {
        self.recorder.app(app).mean(kind)
    }

    /// Delivered-flit throughput in flits/cycle/node over the window.
    pub fn throughput(&self, now: u64, num_nodes: usize) -> f64 {
        let cycles = now.saturating_sub(self.measure_start).max(1);
        self.recorder.flits_delivered() as f64 / cycles as f64 / num_nodes as f64
    }

    /// Order-sensitive fingerprint of every simulation-visible statistic:
    /// counters, window boundaries, oracle verdict and the full latency
    /// recorder state. Identical runs (same config + seed) produce identical
    /// digests in debug and release builds and with the fast path on or off
    /// — the diagnostic skip counters are deliberately excluded, since they
    /// measure elided work, not simulation outcome.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.generated.len() as u64);
        for &g in &self.generated {
            d.write_u64(g);
        }
        for &p in &self.injected_packets {
            d.write_u64(p);
        }
        d.write_u64(self.injected_flits);
        d.write_u64(self.ejected_flits);
        d.write_u64(self.measure_start);
        d.write_u64(self.last_progress);
        d.write_u64(self.oracle_violation_count);
        self.recorder.digest_into(&mut d);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_reset_keeps_cumulative_counters() {
        let mut s = SimStats::new(2);
        s.generated[0] = 10;
        s.injected_flits = 50;
        s.router_cycles_skipped = 7;
        s.state_updates_skipped = 3;
        s.idle_cycles_skipped = 11;
        s.recorder.record(0, 10, 12, 3, 1);
        s.reset_window(1000);
        assert_eq!(s.generated[0], 10);
        assert_eq!(s.injected_flits, 50);
        assert_eq!(s.router_cycles_skipped, 7);
        assert_eq!(s.state_updates_skipped, 3);
        assert_eq!(s.idle_cycles_skipped, 11);
        assert_eq!(s.recorder.delivered(), 0);
        assert_eq!(s.measure_start, 1000);
    }

    #[test]
    fn throughput_accounts_window() {
        let mut s = SimStats::new(1);
        s.reset_window(100);
        for _ in 0..64 {
            s.recorder.record(0, 10, 10, 1, 5);
        }
        // 320 flits over 100 cycles on 64 nodes = 0.05 flits/cycle/node.
        let t = s.throughput(200, 64);
        assert!((t - 0.05).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let make = || {
            let mut s = SimStats::new(2);
            s.generated[0] = 10;
            s.injected_flits = 50;
            s.ejected_flits = 40;
            s.recorder.record(0, 10, 12, 3, 1);
            s.recorder.record(1, 7, 9, 2, 5);
            s
        };
        assert_eq!(make().digest(), make().digest());
        let mut other = make();
        other.ejected_flits += 1;
        assert_ne!(make().digest(), other.digest());
        let mut other = make();
        other.recorder.record(1, 7, 9, 2, 5);
        assert_ne!(make().digest(), other.digest());
        // The fast-path skip counters measure elided work, not outcome.
        let mut other = make();
        other.router_cycles_skipped = 123;
        other.state_updates_skipped = 45;
        other.idle_cycles_skipped = 678;
        assert_eq!(make().digest(), other.digest());
    }
}
