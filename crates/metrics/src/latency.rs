//! Per-application packet-latency bookkeeping.
//!
//! The paper reports *average packet latency* (APL) per application and
//! averaged over applications. Two latency definitions are tracked:
//!
//! * **Network latency** — from the head flit entering the injection VC to
//!   the tail flit being ejected (what GARNET calls network latency).
//! * **Total latency** — from packet generation (entering the source queue)
//!   to tail ejection; includes source queuing, which is where most
//!   contention shows up near saturation.

use crate::{Histogram, Streaming};
use serde::{Deserialize, Serialize};

/// Which latency definition to read out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatencyKind {
    /// Injection-to-ejection.
    Network,
    /// Generation-to-ejection (includes source queuing delay).
    Total,
}

/// Latency accumulators for a single application.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerAppLatency {
    pub network: Streaming,
    pub total: Streaming,
    pub network_hist: Histogram,
    /// Hops traversed, for sanity-checking routing minimality in tests.
    pub hops: Streaming,
}

impl PerAppLatency {
    fn record(&mut self, network: u64, total: u64, hops: u32) {
        self.network.push(network as f64);
        self.total.push(total as f64);
        self.network_hist.push(network);
        self.hops.push(hops as f64);
    }

    /// Mean latency of the requested kind, `None` if no packets delivered.
    pub fn mean(&self, kind: LatencyKind) -> Option<f64> {
        match kind {
            LatencyKind::Network => self.network.mean(),
            LatencyKind::Total => self.total.mean(),
        }
    }

    fn reset(&mut self) {
        self.network.reset();
        self.total.reset();
        self.network_hist.reset();
        self.hops.reset();
    }

    fn merge(&mut self, other: &Self) {
        self.network.merge(&other.network);
        self.total.merge(&other.total);
        self.network_hist.merge(&other.network_hist);
        self.hops.merge(&other.hops);
    }

    /// Fold every accumulator into `d` (determinism fingerprints).
    pub fn digest_into(&self, d: &mut crate::Digest) {
        self.network.digest_into(d);
        self.total.digest_into(d);
        self.network_hist.digest_into(d);
        self.hops.digest_into(d);
    }
}

/// Latency recorder for all applications in a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyRecorder {
    apps: Vec<PerAppLatency>,
    /// Packets delivered (all apps).
    delivered: u64,
    /// Flits delivered (all apps), for throughput accounting.
    flits_delivered: u64,
}

impl LatencyRecorder {
    /// Create a recorder for `num_apps` applications.
    pub fn new(num_apps: usize) -> Self {
        Self {
            apps: vec![PerAppLatency::default(); num_apps],
            delivered: 0,
            flits_delivered: 0,
        }
    }

    /// Record a delivered packet for application `app`.
    #[inline]
    pub fn record(&mut self, app: usize, network: u64, total: u64, hops: u32, flits: u32) {
        self.apps[app].record(network, total, hops);
        self.delivered += 1;
        self.flits_delivered += flits as u64;
    }

    /// Number of applications tracked.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Accumulators for application `app`.
    pub fn app(&self, app: usize) -> &PerAppLatency {
        &self.apps[app]
    }

    /// Total packets delivered during the measurement window.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total flits delivered during the measurement window.
    pub fn flits_delivered(&self) -> u64 {
        self.flits_delivered
    }

    /// Mean latency over *all* packets of all apps (packet-weighted).
    pub fn overall_mean(&self, kind: LatencyKind) -> Option<f64> {
        let mut s = Streaming::new();
        for a in &self.apps {
            s.merge(match kind {
                LatencyKind::Network => &a.network,
                LatencyKind::Total => &a.total,
            });
        }
        s.mean()
    }

    /// Clear all accumulators (warmup boundary).
    pub fn reset(&mut self) {
        self.apps.iter_mut().for_each(PerAppLatency::reset);
        self.delivered = 0;
        self.flits_delivered = 0;
    }

    /// Fold the whole recorder state into `d` (determinism fingerprints).
    pub fn digest_into(&self, d: &mut crate::Digest) {
        d.write_u64(self.apps.len() as u64);
        for a in &self.apps {
            a.digest_into(d);
        }
        d.write_u64(self.delivered);
        d.write_u64(self.flits_delivered);
    }

    /// Merge another recorder (must track the same number of apps).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.apps.len(), other.apps.len());
        for (a, b) in self.apps.iter_mut().zip(&other.apps) {
            a.merge(b);
        }
        self.delivered += other.delivered;
        self.flits_delivered += other.flits_delivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_app_separation() {
        let mut r = LatencyRecorder::new(2);
        r.record(0, 10, 12, 3, 1);
        r.record(0, 20, 25, 4, 5);
        r.record(1, 100, 150, 8, 5);
        assert_eq!(r.delivered(), 3);
        assert_eq!(r.flits_delivered(), 11);
        assert!((r.app(0).mean(LatencyKind::Network).unwrap() - 15.0).abs() < 1e-12);
        assert!((r.app(1).mean(LatencyKind::Network).unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn app_mean_vs_packet_mean() {
        let mut r = LatencyRecorder::new(2);
        // App 0: many cheap packets; app 1: one expensive packet.
        for _ in 0..9 {
            r.record(0, 10, 10, 1, 1);
        }
        r.record(1, 110, 110, 1, 1);
        // Packet-weighted mean = (9*10 + 110)/10 = 20.
        assert!((r.overall_mean(LatencyKind::Network).unwrap() - 20.0).abs() < 1e-12);
        // Per-application means weigh each app's packets only.
        assert_eq!(r.app(0).mean(LatencyKind::Network), Some(10.0));
        assert_eq!(r.app(1).mean(LatencyKind::Network), Some(110.0));
    }

    #[test]
    fn reset_clears() {
        let mut r = LatencyRecorder::new(1);
        r.record(0, 10, 10, 1, 1);
        r.reset();
        assert_eq!(r.delivered(), 0);
        assert!(r.overall_mean(LatencyKind::Network).is_none());
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyRecorder::new(1);
        let mut b = LatencyRecorder::new(1);
        a.record(0, 10, 10, 1, 1);
        b.record(0, 30, 30, 1, 1);
        a.merge(&b);
        assert_eq!(a.delivered(), 2);
        assert!((a.overall_mean(LatencyKind::Network).unwrap() - 20.0).abs() < 1e-12);
    }
}
