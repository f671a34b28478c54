//! Traffic-source abstraction.
//!
//! A [`TrafficSource`] is the workload driving a simulation: each cycle the
//! network offers every node the chance to generate one packet — or, for a
//! source that can promise a node's next arrival ([`TrafficSource::next_poll`]),
//! only the cycles it named. Closed-loop workloads (request/reply)
//! additionally get a delivery callback so they can track outstanding
//! requests.

use crate::flit::{PacketInfo, ReplySpec};
use crate::ids::{AppId, MsgClass, NodeId};
use rand::rngs::SmallRng;
use std::collections::VecDeque;

/// A packet a source wants to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewPacket {
    pub dst: NodeId,
    pub app: AppId,
    pub class: MsgClass,
    /// Size in flits.
    pub size: u32,
    /// If set, the destination generates a reply after servicing.
    pub reply: Option<ReplySpec>,
}

/// Workload generator for a whole network.
pub trait TrafficSource: Send {
    /// Number of applications this workload comprises (app ids are
    /// `0..num_apps`). Sizes the per-application statistics.
    fn num_apps(&self) -> usize;

    /// Offer node `node` the chance to generate one packet this cycle.
    /// Must never return `dst == node`.
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket>;

    /// The per-node arrival promise. The driver has just called
    /// `generate(node, after - 1, ..)`; return the earliest cycle
    /// `c >= after` at which `generate(node, c, ..)` may return a packet or
    /// have any side effect. The driver then leaves `node` alone until `c`.
    /// `u64::MAX` means never again.
    ///
    /// The precondition is one RNG stream per node, handed to both methods.
    /// An implementation may consume `rng` to find `c`, but only in the exact
    /// order per-cycle polling would have: a Bernoulli source runs its failed
    /// draws ahead to the next success, draws that packet right behind it and
    /// keeps it for `generate(node, c, ..)` to hand out. Because a node may
    /// never produce, the look-ahead must stop at a fixed horizon and return
    /// the horizon cycle with nothing kept.
    ///
    /// The default, `after`, means "poll me every cycle" — the only correct
    /// answer for closed-loop sources and for wrappers that forward only
    /// `generate`; [`NoTraffic`], [`ScriptedSource`] and, in the `traffic`
    /// crate, the trace replay and the synthetic `Scenario` implement the
    /// promise. A driver that never calls `next_poll` sees plain per-cycle
    /// behaviour from every source. The promise never moves the clock.
    fn next_poll(&mut self, _node: NodeId, after: u64, _rng: &mut SmallRng) -> u64 {
        after
    }

    /// A packet was delivered (tail ejected) at `node`. Closed-loop sources
    /// use this to retire outstanding requests.
    fn on_delivered(&mut self, _node: NodeId, _info: &PacketInfo, _cycle: u64) {}
}

/// The silent workload (useful for drain phases and unit tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTraffic;

impl TrafficSource for NoTraffic {
    fn num_apps(&self) -> usize {
        1
    }

    fn generate(&mut self, _: NodeId, _: u64, _: &mut SmallRng) -> Option<NewPacket> {
        None
    }

    fn next_poll(&mut self, _: NodeId, _: u64, _: &mut SmallRng) -> u64 {
        u64::MAX
    }
}

/// Per-node FIFOs of `(cycle, packet)` events, each sorted by cycle: the
/// storage of the two RNG-free sources, [`ScriptedSource`] and the trace
/// replay of the `traffic` crate. An event fires at its cycle or, if its node
/// is polled late, at the next poll.
#[derive(Debug, Clone)]
pub struct EventQueues {
    per_node: Vec<VecDeque<(u64, NewPacket)>>,
}

impl EventQueues {
    /// Queue `(cycle, node, packet)` events for `num_nodes` nodes. The sort
    /// by cycle is stable, so a node's same-cycle events keep their order.
    ///
    /// # Panics
    /// On an event whose node is `>= num_nodes`.
    pub fn new(num_nodes: usize, mut events: Vec<(u64, NodeId, NewPacket)>) -> Self {
        events.sort_by_key(|e| e.0);
        let mut per_node = vec![VecDeque::new(); num_nodes];
        for (cycle, node, packet) in events {
            per_node[node as usize].push_back((cycle, packet));
        }
        Self { per_node }
    }

    /// `node`'s front event, if it is due at `cycle`.
    pub fn pop_due(&mut self, node: NodeId, cycle: u64) -> Option<NewPacket> {
        let q = self.per_node.get_mut(node as usize)?;
        if q.front()?.0 > cycle {
            return None;
        }
        q.pop_front().map(|(_, packet)| packet)
    }

    /// Cycle of `node`'s front event; `u64::MAX` when it has none left.
    pub fn next_due(&self, node: NodeId) -> u64 {
        let front = self.per_node.get(node as usize).and_then(VecDeque::front);
        front.map_or(u64::MAX, |e| e.0)
    }

    /// Events not yet emitted.
    pub fn remaining(&self) -> usize {
        self.per_node.iter().map(VecDeque::len).sum()
    }
}

/// A scripted source replaying an explicit list of `(cycle, src, NewPacket)`
/// events — the backbone of the deterministic pipeline unit tests.
#[derive(Debug, Clone)]
pub struct ScriptedSource {
    num_apps: usize,
    queues: EventQueues,
}

impl ScriptedSource {
    pub fn new(num_apps: usize, events: Vec<(u64, NodeId, NewPacket)>) -> Self {
        let num_nodes = events.iter().map(|e| e.1 as usize + 1).max().unwrap_or(0);
        Self {
            num_apps,
            queues: EventQueues::new(num_nodes, events),
        }
    }

    /// Remaining (not yet emitted) events.
    pub fn remaining(&self) -> usize {
        self.queues.remaining()
    }
}

impl TrafficSource for ScriptedSource {
    fn num_apps(&self) -> usize {
        self.num_apps
    }

    fn generate(&mut self, node: NodeId, cycle: u64, _rng: &mut SmallRng) -> Option<NewPacket> {
        self.queues.pop_due(node, cycle)
    }

    fn next_poll(&mut self, node: NodeId, after: u64, _rng: &mut SmallRng) -> u64 {
        self.queues.next_due(node).max(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scripted_source_emits_in_order() {
        let pkt = NewPacket {
            dst: 5,
            app: 0,
            class: 0,
            size: 1,
            reply: None,
        };
        let mut s = ScriptedSource::new(1, vec![(10, 0, pkt), (5, 1, pkt)]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(s.generate(0, 4, &mut rng).is_none());
        assert!(s.generate(1, 5, &mut rng).is_some());
        assert!(s.generate(1, 6, &mut rng).is_none());
        assert!(s.generate(0, 10, &mut rng).is_some());
        assert_eq!(s.remaining(), 0);
    }

    /// The per-node queues emit what the linear scan over one cycle-sorted
    /// list did: per node in cycle order, ties in script order, a past-due
    /// event at the next poll — and the arrival promise names those cycles.
    #[test]
    fn scripted_source_queues_keep_the_scan_order() {
        let pkt = |size| NewPacket {
            dst: 5,
            app: 0,
            class: 0,
            size,
            reply: None,
        };
        let script = vec![
            (7, 2, pkt(1)),
            (3, 2, pkt(2)),
            (3, 2, pkt(3)),
            (3, 0, pkt(4)),
        ];
        let mut s = ScriptedSource::new(1, script);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(s.next_poll(0, 0, &mut rng), 3);
        assert_eq!(s.next_poll(2, 1, &mut rng), 3);
        assert_eq!(
            s.next_poll(1, 1, &mut rng),
            u64::MAX,
            "node 1 has no events"
        );
        assert_eq!(
            s.next_poll(9, 1, &mut rng),
            u64::MAX,
            "nor has a node past the script"
        );
        assert_eq!(s.generate(2, 2, &mut rng), None);
        assert_eq!(s.generate(2, 3, &mut rng), Some(pkt(2)));
        // The second cycle-3 event is past due: promised for, and emitted
        // at, the very next poll.
        assert_eq!(s.next_poll(2, 4, &mut rng), 4);
        assert_eq!(s.generate(2, 4, &mut rng), Some(pkt(3)));
        assert_eq!(s.next_poll(2, 5, &mut rng), 7);
        assert_eq!(s.generate(0, 6, &mut rng), Some(pkt(4)));
        assert_eq!(s.generate(2, 7, &mut rng), Some(pkt(1)));
        assert_eq!((s.remaining(), s.next_poll(2, 8, &mut rng)), (0, u64::MAX));
        assert_eq!(NoTraffic.next_poll(0, 1, &mut rng), u64::MAX);
    }

    #[test]
    fn no_traffic_is_silent() {
        let mut s = NoTraffic;
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(s.generate(0, 0, &mut rng).is_none());
    }
}
