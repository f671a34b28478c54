//! Network interface (NI): per-node source queues, flit injection into the
//! router's local input port, and reply scheduling for closed-loop
//! workloads.
//!
//! A fresh NI owns no heap memory: its class queues are an inline array of
//! empty deques, and they, the reply heap and the retry list grow to their
//! high-water mark during warm-up. Below saturation a warm NI therefore
//! never reaches the allocator (`tests/alloc_free_tick.rs`); past it the
//! source queues grow without bound, which is the saturation signal.

use crate::config::{SimConfig, MAX_CLASSES};
use crate::flit::{PacketInfo, PacketRef, PacketTable, RingFlit};
use crate::ids::{MsgClass, NodeId, PORT_LOCAL};
use crate::router::Router;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A reply waiting for its service latency to elapse.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingReply {
    ready: u64,
    /// Tie-break so the heap order is total and deterministic.
    id: u64,
    info: ReplyBlueprint,
}

/// The fields needed to build the reply packet once it becomes ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplyBlueprint {
    dst: NodeId,
    app: crate::ids::AppId,
    class: MsgClass,
    size: u32,
}

impl Ord for PendingReply {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready, self.id).cmp(&(other.ready, other.id))
    }
}

impl PartialOrd for PendingReply {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A packet mid-injection: the local VC its flits stream into, its
/// descriptor's handle and the next flit to materialise.
#[derive(Debug)]
struct InjectProgress {
    vc: usize,
    packet: PacketRef,
    next_seq: u32,
}

/// One node's network interface.
#[derive(Debug)]
pub struct Node {
    pub id: NodeId,
    /// Per-message-class source queues, indexed by class; those past the
    /// config's `num_classes` stay empty (unbounded; open-loop backlog
    /// shows up here and is the saturation signal).
    src_q: [VecDeque<PacketInfo>; MAX_CLASSES],
    inject: Option<InjectProgress>,
    class_rr: usize,
    vc_rr: usize,
    replies: BinaryHeap<Reverse<PendingReply>>,
    /// Packets extracted as stranded, waiting out their retry backoff as
    /// `(ready_cycle, packet)`. Kept unsorted (retries are rare); released
    /// in deterministic `(ready, id)` order.
    retries: Vec<(u64, PacketInfo)>,
}

impl Node {
    /// Create an empty NI, holding no heap memory. The per-node generation
    /// RNG lives in the [`Network`](crate::network::Network), not here — the
    /// NI itself is RNG-free.
    pub fn new(cfg: &SimConfig, id: NodeId) -> Self {
        debug_assert!(cfg.num_classes <= MAX_CLASSES, "validated class count");
        Self {
            id,
            src_q: Default::default(),
            inject: None,
            class_rr: 0,
            vc_rr: 0,
            replies: BinaryHeap::new(),
            retries: Vec::new(),
        }
    }

    /// Queue a freshly generated packet.
    pub fn enqueue(&mut self, info: PacketInfo) {
        self.src_q[info.class as usize].push_back(info);
    }

    /// Schedule a reply that becomes ready (enters the source queue) at
    /// `ready`.
    pub fn schedule_reply(
        &mut self,
        ready: u64,
        id: u64,
        dst: NodeId,
        app: crate::ids::AppId,
        class: MsgClass,
        size: u32,
    ) {
        self.replies.push(Reverse(PendingReply {
            ready,
            id,
            info: ReplyBlueprint {
                dst,
                app,
                class,
                size,
            },
        }));
    }

    /// Move service-complete replies into the source queues. Returns the
    /// number of replies released (they were counted as generated when
    /// scheduled).
    pub fn release_replies(&mut self, cycle: u64) -> usize {
        let mut n = 0;
        while let Some(Reverse(r)) = self.replies.peek() {
            if r.ready > cycle {
                break;
            }
            let Some(Reverse(r)) = self.replies.pop() else {
                debug_assert!(false, "a peeked reply pops");
                break;
            };
            let info = PacketInfo {
                id: r.id,
                src: self.id,
                dst: r.info.dst,
                app: r.info.app,
                class: r.info.class,
                size: r.info.size,
                birth: r.ready,
                inject: 0,
                reply: None,
            };
            self.src_q[info.class as usize].push_back(info);
            n += 1;
        }
        n
    }

    /// Schedule a source-side retry of an extracted stranded packet: the
    /// packet (same id, original birth) re-enters the source queue at
    /// `ready` and is injected afresh.
    pub fn schedule_retry(&mut self, ready: u64, info: PacketInfo) {
        self.retries.push((ready, info));
    }

    /// Move backoff-expired retries into the source queues. Returns the
    /// number released.
    pub fn release_retries(&mut self, cycle: u64) -> usize {
        if self.retries.is_empty() {
            return 0;
        }
        self.retries
            .sort_unstable_by_key(|(ready, p)| (*ready, p.id));
        let k = self.retries.partition_point(|(ready, _)| *ready <= cycle);
        for (_, info) in self.retries.drain(..k) {
            self.src_q[info.class as usize].push_back(info);
        }
        k
    }

    /// Drop every queued packet (source queues, pending replies, pending
    /// retries) — the NI's router died. Returns the number of packets
    /// dropped; all were already counted as generated, and none of their
    /// flits were injected, so only the packet drop counter moves. An
    /// in-progress injection is deliberately left to finish streaming (the
    /// stranded sweep extracts it with full accounting).
    pub fn drop_backlog(&mut self) -> usize {
        let mut n = 0;
        for q in &mut self.src_q {
            n += q.len();
            q.clear();
        }
        n += self.replies.len();
        self.replies.clear();
        n += self.retries.len();
        self.retries.clear();
        n
    }

    /// Packets waiting in the source queues (saturation/backlog signal).
    pub fn backlog(&self) -> usize {
        self.src_q
            .iter()
            .map(std::collections::VecDeque::len)
            .sum::<usize>()
            + usize::from(self.inject.is_some())
            + self.retries.len()
    }

    /// Heap bytes the NI's queues own (every other field is inline): 0 when
    /// fresh, then each queue's high-water capacity — the queues never
    /// shrink, so this grows exactly when one of them reallocates.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.src_q.iter().map(VecDeque::capacity).sum::<usize>() * size_of::<PacketInfo>()
            + self.replies.capacity() * size_of::<Reverse<PendingReply>>()
            + self.retries.capacity() * size_of::<(u64, PacketInfo)>()
    }

    /// Does the injection phase have anything to do here, now or later — a
    /// queued packet, a packet mid-injection, a reply in service or a retry
    /// backing off? Every such NI is in the network's NI active set.
    pub fn has_work(&self) -> bool {
        self.inject.is_some()
            || !self.replies.is_empty()
            || !self.retries.is_empty()
            || self.src_q.iter().any(|q| !q.is_empty())
    }

    /// Find an injectable local input VC for a packet of `class`: idle,
    /// empty, unheld. Adaptive VCs are preferred (rotating among them for
    /// fairness); the class's escape VC(s) are the fallback (any lane works
    /// at the injection port — the dateline lane only constrains the
    /// *output* VC a routed head may request).
    fn pick_vc(&mut self, cfg: &SimConfig, router: &Router, class: MsgClass) -> Option<usize> {
        let usable = |vc: usize| router.occ_bits & router.vc_bit(PORT_LOCAL, vc) == 0;
        let n_adaptive = cfg.adaptive_vcs;
        let base = cfg.num_escape_vcs();
        let mut i = self.vc_rr;
        for _ in 0..n_adaptive {
            let next = if i + 1 == n_adaptive { 0 } else { i + 1 };
            if usable(base + i) {
                self.vc_rr = next;
                return Some(base + i);
            }
            i = next;
        }
        (0..cfg.escape_lanes())
            .map(|lane| cfg.escape_vc_lane(class, lane as u8))
            .find(|&esc| usable(esc))
    }

    /// Inject up to one flit into the router's local input port. Starts a
    /// new packet (class queues served round-robin) when none is
    /// mid-injection, storing its descriptor in `packets` as its head goes
    /// in. Returns the injected flit's accounting info, if any.
    pub fn try_inject(
        &mut self,
        cfg: &SimConfig,
        router: &mut Router,
        packets: &mut PacketTable,
        cycle: u64,
    ) -> Option<InjectedFlit> {
        if self.inject.is_none() {
            let mut c = self.class_rr;
            for _ in 0..cfg.num_classes {
                let next = if c + 1 == cfg.num_classes { 0 } else { c + 1 };
                if !self.src_q[c].is_empty() {
                    if let Some(vc) = self.pick_vc(cfg, router, c as MsgClass) {
                        let Some(mut info) = self.src_q[c].pop_front() else {
                            debug_assert!(false, "a non-empty class queue pops");
                            break;
                        };
                        info.inject = cycle;
                        // The picked VC is empty: the head goes in below.
                        self.inject = Some(InjectProgress {
                            vc,
                            packet: packets.insert(info),
                            next_seq: 0,
                        });
                        self.class_rr = next;
                        break;
                    }
                }
                c = next;
            }
        }
        if let Some(p) = &mut self.inject {
            if router.ivc(PORT_LOCAL, p.vc).len() < cfg.vc_depth {
                let info = packets.get(p.packet);
                let flit = RingFlit::nth(p.packet, info, p.next_seq);
                let ev = InjectedFlit {
                    head: flit.kind.is_head(),
                    app: info.app,
                    packet_id: info.id,
                    vc: p.vc,
                };
                if ev.head {
                    router.note_vc_occupied(PORT_LOCAL, p.vc, p.packet, info.app, 0);
                }
                router.push_flit(PORT_LOCAL, p.vc, flit);
                p.next_seq += 1;
                if p.next_seq == info.size {
                    self.inject = None;
                }
                return Some(ev);
            }
        }
        None
    }
}

/// Accounting record for one injected flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFlit {
    /// True when this was a head flit (counts one injected packet).
    pub head: bool,
    pub app: crate::ids::AppId,
    /// Packet the flit belongs to (for journey tracing).
    pub packet_id: u64,
    /// Local input VC the flit was written into (for the oracle hooks).
    pub vc: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, ReplySpec};

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    fn pkt(id: u64, class: MsgClass, size: u32) -> PacketInfo {
        PacketInfo {
            id,
            src: 0,
            dst: 5,
            app: 0,
            class,
            size,
            birth: 0,
            inject: 0,
            reply: None,
        }
    }

    /// A fresh NI reserves nothing, for every legal class count: its queues
    /// grow to their high-water mark in warm-up instead.
    #[test]
    fn fresh_node_owns_no_heap_memory() {
        for num_classes in 1..=MAX_CLASSES {
            let c = SimConfig {
                num_classes,
                ..cfg()
            };
            let mut node = Node::new(&c, 0);
            assert_eq!(node.heap_bytes(), 0, "{num_classes} classes");
            // Queued work grows it, and draining keeps the capacity.
            node.enqueue(pkt(1, (num_classes - 1) as MsgClass, 1));
            node.schedule_reply(20, 100, 7, 0, 0, 1);
            node.schedule_retry(30, pkt(2, 0, 1));
            let grown = node.heap_bytes();
            assert!(grown > 0);
            assert_eq!(node.drop_backlog(), 3);
            assert_eq!(node.heap_bytes(), grown);
        }
    }

    #[test]
    fn injects_one_flit_per_cycle() {
        let c = cfg();
        let mut node = Node::new(&c, 0);
        let mut router = Router::new(&c, 0, c.coord_of(0), 0);
        let mut packets = PacketTable::default();
        node.enqueue(pkt(1, 0, 5));
        let mut injected = 0;
        for cycle in 0..5 {
            if let Some(ev) = node.try_inject(&c, &mut router, &mut packets, cycle) {
                injected += 1;
                assert_eq!(ev.head, cycle == 0);
            }
        }
        assert_eq!(injected, 5);
        assert_eq!(node.backlog(), 0);
        // All five flits went into a single VC (wormhole/atomic).
        let occupied: Vec<usize> = (0..c.vcs_per_port())
            .filter(|&v| !router.ivc(PORT_LOCAL, v).is_empty())
            .collect();
        assert_eq!(occupied.len(), 1);
        let vc = router.ivc(PORT_LOCAL, occupied[0]);
        assert_eq!(vc.len(), 5);
        // Rebuilt from their ring records and the descriptor the VC's
        // handle names, the flits are the ones `flits_of` lists: the
        // packet's, stamped with its injection cycle.
        let info = *vc.packet(&packets).unwrap();
        assert_eq!((info.id, info.inject, packets.live()), (1, 0, 1));
        assert!(vc.flits(&packets).eq(Flit::flits_of(info)));
    }

    #[test]
    fn injection_stalls_when_no_vc_free() {
        let c = cfg();
        let mut node = Node::new(&c, 0);
        let mut router = Router::new(&c, 0, c.coord_of(0), 0);
        let mut packets = PacketTable::default();
        // Occupy every local VC.
        for vc in 0..c.vcs_per_port() {
            router.note_vc_occupied(PORT_LOCAL, vc, packets.insert(pkt(9, 0, 1)), 0, 0);
        }
        node.enqueue(pkt(1, 0, 1));
        assert!(node.try_inject(&c, &mut router, &mut packets, 0).is_none());
        assert_eq!(node.backlog(), 1);
    }

    #[test]
    fn adaptive_vcs_preferred_over_escape() {
        let c = cfg();
        let mut node = Node::new(&c, 0);
        let mut router = Router::new(&c, 0, c.coord_of(0), 0);
        let mut packets = PacketTable::default();
        node.enqueue(pkt(1, 0, 1));
        assert!(node.try_inject(&c, &mut router, &mut packets, 0).is_some());
        let esc = c.escape_vc(0);
        assert!(router.ivc(PORT_LOCAL, esc).is_empty());
    }

    #[test]
    fn escape_used_as_fallback() {
        let c = cfg();
        let mut node = Node::new(&c, 0);
        let mut router = Router::new(&c, 0, c.coord_of(0), 0);
        let mut packets = PacketTable::default();
        for vc in c.adaptive_vc_range() {
            router.note_vc_occupied(PORT_LOCAL, vc, packets.insert(pkt(9, 0, 1)), 0, 0);
        }
        node.enqueue(pkt(1, 0, 1));
        assert!(node.try_inject(&c, &mut router, &mut packets, 0).is_some());
        assert_eq!(router.ivc(PORT_LOCAL, c.escape_vc(0)).len(), 1);
    }

    #[test]
    fn replies_release_in_ready_order() {
        let c = cfg();
        let mut node = Node::new(&c, 3);
        node.schedule_reply(20, 100, 7, 0, 0, 5);
        node.schedule_reply(10, 101, 8, 0, 0, 1);
        assert_eq!(node.release_replies(5), 0);
        assert_eq!(node.release_replies(10), 1);
        assert_eq!(node.replies.len(), 1);
        assert_eq!(node.release_replies(25), 1);
        // Released replies sit in the source queue with src = this node.
        assert_eq!(node.backlog(), 2);
        let first = node.src_q[0].front().unwrap();
        assert_eq!(first.src, 3);
        assert_eq!(first.dst, 8);
        assert_eq!(first.birth, 10);
    }

    /// `has_work` sees all four places an NI keeps work — the condition the
    /// network's NI active set is checked against.
    #[test]
    fn has_work_covers_queue_injection_replies_and_retries() {
        let c = cfg();
        let mut node = Node::new(&c, 0);
        let mut router = Router::new(&c, 0, c.coord_of(0), 0);
        let mut packets = PacketTable::default();
        assert!(!node.has_work());
        // Queued, then mid-injection, then done.
        node.enqueue(pkt(1, 0, 2));
        assert!(node.has_work());
        assert!(node.try_inject(&c, &mut router, &mut packets, 0).is_some());
        assert!(node.src_q[0].is_empty() && node.has_work(), "mid-injection");
        assert!(node.try_inject(&c, &mut router, &mut packets, 1).is_some());
        assert!(!node.has_work());
        // A reply in service, and a retry backing off, with empty queues.
        node.schedule_reply(20, 100, 7, 0, 0, 1);
        assert!(node.has_work() && node.backlog() == 0);
        node.schedule_retry(30, pkt(2, 0, 1));
        assert_eq!(node.drop_backlog(), 2);
        assert!(!node.has_work());
        // A dead router's NI keeps only the packet it is streaming.
        node.enqueue(pkt(3, 0, 2));
        node.enqueue(pkt(4, 0, 1));
        assert!(node.try_inject(&c, &mut router, &mut packets, 2).is_some());
        assert_eq!(node.drop_backlog(), 1);
        assert!(node.has_work(), "mid-injection survives drop_backlog");
    }

    #[test]
    fn class_queues_round_robin() {
        let c = SimConfig::table1_req_reply();
        let mut node = Node::new(&c, 0);
        let mut router = Router::new(&c, 0, c.coord_of(0), 0);
        let mut packets = PacketTable::default();
        node.enqueue(pkt(1, 0, 1));
        node.enqueue(pkt(2, 1, 1));
        node.enqueue(pkt(3, 0, 1));
        // Three single-flit packets, alternating classes 0,1,0.
        for cycle in 0..3 {
            assert!(node
                .try_inject(&c, &mut router, &mut packets, cycle)
                .is_some());
        }
        assert_eq!(node.backlog(), 0);
    }

    #[test]
    fn reply_spec_on_request_roundtrip() {
        // Just exercise the ReplySpec plumbing shape used by Network.
        let spec = ReplySpec {
            service_latency: 6,
            size: 5,
            class: 1,
        };
        let mut p = pkt(1, 0, 1);
        p.reply = Some(spec);
        assert_eq!(p.reply.unwrap().service_latency, 6);
    }
}
