//! Adversarial traffic injection (§V.G of the paper).
//!
//! Models "an elaborated attack, or simply an OS bug": chip-wide uniform
//! random traffic at a fixed flit rate, injected from every node under an
//! application id that owns no region — so it is foreign traffic everywhere,
//! which is exactly how RAIR's DPA identifies and deprioritizes it.

use crate::scenario::AVG_PACKET_FLITS;
use noc_sim::flit::PacketInfo;
use noc_sim::ids::NodeId;
use noc_sim::source::{NewPacket, TrafficSource};
use rand::rngs::SmallRng;
use rand::Rng;

/// Wraps a workload and superimposes chip-wide adversarial traffic.
///
/// The inner workload generates first (its offered load is preserved — we
/// measure *its* slowdown); the adversary fills the remaining generation
/// slots, reaching marginally less than its nominal rate when the inner
/// workload collides on the same node-cycle. The adversarial application id
/// is `inner.num_apps()`.
pub struct Adversarial<S> {
    inner: S,
    /// Adversarial load in flits/cycle/node.
    pub rate_flits: f64,
    num_nodes: u16,
    long_flits: u32,
}

impl<S: TrafficSource> Adversarial<S> {
    /// Superimpose `rate_flits` flits/cycle/node of chip-wide uniform
    /// random traffic (the paper uses 0.4).
    pub fn new(inner: S, rate_flits: f64, num_nodes: u16, long_flits: u32) -> Self {
        Self {
            inner,
            rate_flits,
            num_nodes,
            long_flits,
        }
    }
}

impl<S: TrafficSource> TrafficSource for Adversarial<S> {
    fn num_apps(&self) -> usize {
        self.inner.num_apps() + 1
    }

    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if let Some(p) = self.inner.generate(node, cycle, rng) {
            return Some(p);
        }
        let prob = (self.rate_flits / AVG_PACKET_FLITS).min(1.0);
        if prob == 0.0 || !rng.random_bool(prob) {
            return None;
        }
        let mut dst = rng.random_range(0..self.num_nodes - 1);
        if dst >= node {
            dst += 1;
        }
        Some(NewPacket {
            dst,
            app: self.inner.num_apps() as u8,
            class: 0,
            size: if rng.random_bool(0.5) {
                1
            } else {
                self.long_flits
            },
            reply: None,
        })
    }

    fn on_delivered(&mut self, node: NodeId, info: &PacketInfo, cycle: u64) {
        if (info.app as usize) < self.inner.num_apps() {
            self.inner.on_delivered(node, info, cycle);
        }
    }

    fn next_injection_cycle(&self, now: u64) -> Option<u64> {
        // An active adversary is a Bernoulli process: it consults the RNG
        // every node-cycle, so elided calls would desynchronize the stream.
        if self.rate_flits > 0.0 {
            return None;
        }
        self.inner.next_injection_cycle(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::source::NoTraffic;
    use rand::SeedableRng;

    #[test]
    fn adversary_rate_and_app_id() {
        let mut adv = Adversarial::new(NoTraffic, 0.4, 64, 5);
        assert_eq!(adv.num_apps(), 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut flits = 0u64;
        let cycles = 30_000u64;
        for cyc in 0..cycles {
            if let Some(p) = adv.generate(7, cyc, &mut rng) {
                assert_eq!(p.app, 1);
                assert_ne!(p.dst, 7);
                flits += p.size as u64;
            }
        }
        let rate = flits as f64 / cycles as f64;
        assert!((rate - 0.4).abs() < 0.05, "adversarial rate {rate}");
    }

    #[test]
    fn inner_traffic_takes_precedence() {
        use noc_sim::source::ScriptedSource;
        let pkt = NewPacket {
            dst: 3,
            app: 0,
            class: 0,
            size: 1,
            reply: None,
        };
        let inner = ScriptedSource::new(1, vec![(5, 0, pkt)]);
        let mut adv = Adversarial::new(inner, 1.0, 64, 5);
        let mut rng = SmallRng::seed_from_u64(2);
        // At cycle 5 on node 0 the scripted packet must come through.
        let got = adv.generate(0, 5, &mut rng).unwrap();
        assert_eq!(got.app, 0);
        assert_eq!(got.dst, 3);
    }

    #[test]
    fn zero_rate_adversary_is_silent() {
        let mut adv = Adversarial::new(NoTraffic, 0.0, 64, 5);
        let mut rng = SmallRng::seed_from_u64(3);
        for cyc in 0..1000 {
            assert!(adv.generate(0, cyc, &mut rng).is_none());
        }
    }
}
