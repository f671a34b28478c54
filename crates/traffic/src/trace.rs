//! Traffic-trace recording and replay.
//!
//! The paper's PARSEC experiments are trace-driven. Since the original
//! SIMICS/GEMS traces are unavailable, we record traces from our own
//! workload models into a compact binary format and replay them, giving the
//! experiments a deterministic trace-driven mode and making runs exactly
//! repeatable across schemes (every scheme sees the *identical* offered
//! traffic, which sharpens the comparisons).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use noc_sim::config::SimConfig;
use noc_sim::flit::ReplySpec;
use noc_sim::ids::NodeId;
use noc_sim::source::{EventQueues, NewPacket, TrafficSource};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const MAGIC: &[u8; 8] = b"RAIRTRC1";

/// One recorded generation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub cycle: u64,
    pub node: NodeId,
    pub packet: NewPacket,
}

/// An in-memory traffic trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    pub num_apps: usize,
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Capture a trace by running `source` standalone for `cycles` cycles
    /// over `num_nodes` nodes (open-loop capture: replies are re-issued by
    /// the replay network, so only *generated* packets are recorded; for
    /// closed-loop sources this linearizes the feedback at capture time).
    pub fn capture<S: TrafficSource>(
        mut source: S,
        num_nodes: u16,
        cycles: u64,
        seed: u64,
    ) -> Trace {
        // Node by node along the source's own arrival promise — `next_poll`
        // names the next cycle worth a `generate`, so a light source costs a
        // call per packet, not per cycle. Each node has its own RNG stream and
        // capture feeds nothing back, so a source that keeps its state per
        // node (all of ours) cannot observe the order; the stable sort
        // restores the (cycle, node) order of a per-cycle capture.
        let mut events = Vec::new();
        for node in 0..num_nodes {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ (u64::from(node) + 1).wrapping_mul(0x9E3779B97F4A7C15),
            );
            let mut cycle = 0;
            while cycle < cycles {
                if let Some(packet) = source.generate(node, cycle, &mut rng) {
                    events.push(TraceEvent {
                        cycle,
                        node,
                        packet,
                    });
                }
                cycle = source.next_poll(node, cycle + 1, &mut rng);
            }
        }
        events.sort_by_key(|e| e.cycle);
        Trace {
            num_apps: source.num_apps(),
            events,
        }
    }

    /// Serialize to the compact binary format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(24 + self.events.len() * 20);
        buf.put_slice(MAGIC);
        buf.put_u16(self.num_apps as u16);
        buf.put_u64(self.events.len() as u64);
        for e in &self.events {
            buf.put_u64(e.cycle);
            buf.put_u16(e.node);
            buf.put_u16(e.packet.dst);
            buf.put_u8(e.packet.app);
            buf.put_u8(e.packet.class);
            buf.put_u8(e.packet.size as u8);
            match e.packet.reply {
                None => buf.put_u8(0),
                Some(r) => {
                    buf.put_u8(1);
                    buf.put_u32(r.service_latency as u32);
                    buf.put_u8(r.size as u8);
                    buf.put_u8(r.class);
                }
            }
        }
        buf.freeze()
    }

    /// Parse the binary format.
    pub fn from_bytes(mut buf: Bytes) -> Result<Trace, String> {
        if buf.remaining() < 18 {
            return Err("trace too short".into());
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err("bad trace magic".into());
        }
        let num_apps = buf.get_u16() as usize;
        // An event is at least 15 bytes: a header promising more of them
        // than the bytes left can hold is corrupt (and must not size a Vec).
        let count = usize::try_from(buf.get_u64()).unwrap_or(usize::MAX);
        if count > buf.remaining() / 15 {
            return Err("truncated trace event".into());
        }
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            if buf.remaining() < 15 {
                return Err("truncated trace event".into());
            }
            let cycle = buf.get_u64();
            let node = buf.get_u16();
            let dst = buf.get_u16();
            let app = buf.get_u8();
            let class = buf.get_u8();
            let size = buf.get_u8() as u32;
            let reply = match buf.get_u8() {
                0 => None,
                1 => {
                    if buf.remaining() < 6 {
                        return Err("truncated reply spec".into());
                    }
                    Some(ReplySpec {
                        service_latency: buf.get_u32() as u64,
                        size: buf.get_u8() as u32,
                        class: buf.get_u8(),
                    })
                }
                x => return Err(format!("bad reply flag {x}")),
            };
            events.push(TraceEvent {
                cycle,
                node,
                packet: NewPacket {
                    dst,
                    app,
                    class,
                    size,
                    reply,
                },
            });
        }
        Ok(Trace { num_apps, events })
    }
}

/// Replays a [`Trace`] as a traffic source. Events fire at their recorded
/// cycle (or as soon after as the node is polled).
pub struct TraceReplay {
    num_apps: usize,
    queues: EventQueues,
}

impl TraceReplay {
    /// Replay a trace captured in this process on `num_nodes` nodes. A trace
    /// read from bytes goes through [`TraceReplay::checked`] instead.
    ///
    /// # Panics
    /// On an event whose node is `>= num_nodes`.
    pub fn new(trace: &Trace, num_nodes: u16) -> Self {
        let events = trace.events.iter().map(|e| (e.cycle, e.node, e.packet));
        Self {
            num_apps: trace.num_apps,
            queues: EventQueues::new(num_nodes as usize, events.collect()),
        }
    }

    /// [`TraceReplay::new`] for a trace of outside origin: every event is
    /// first held to what the network's injection phase asserts of a
    /// generated packet, so a hostile or mismatched file is an error here
    /// rather than a panic mid-run.
    pub fn checked(trace: &Trace, cfg: &SimConfig) -> Result<Self, String> {
        let nodes = cfg.num_nodes();
        let size_ok = |flits: u32| flits >= 1 && flits as usize <= cfg.vc_depth;
        let class_ok = |class: u8| (class as usize) < cfg.num_classes;
        for (i, e) in trace.events.iter().enumerate() {
            let p = &e.packet;
            let fault = if e.node as usize >= nodes {
                format!("node {} of a {nodes}-node network", e.node)
            } else if p.dst as usize >= nodes {
                format!("destination {} of a {nodes}-node network", p.dst)
            } else if p.dst == e.node {
                format!("node {} sends to itself", e.node)
            } else if !size_ok(p.size) || p.reply.is_some_and(|r| !size_ok(r.size)) {
                format!("a size outside 1..={} flits", cfg.vc_depth)
            } else if !class_ok(p.class) || p.reply.is_some_and(|r| !class_ok(r.class)) {
                format!("a message class outside 0..{}", cfg.num_classes)
            } else if p.app as usize >= trace.num_apps {
                format!("app {} of {}", p.app, trace.num_apps)
            } else {
                continue;
            };
            return Err(format!("trace event {i}: {fault}"));
        }
        Ok(Self::new(trace, nodes as u16))
    }

    /// Events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.queues.remaining()
    }
}

impl TrafficSource for TraceReplay {
    fn num_apps(&self) -> usize {
        self.num_apps
    }

    fn generate(&mut self, node: NodeId, cycle: u64, _rng: &mut SmallRng) -> Option<NewPacket> {
        self.queues.pop_due(node, cycle)
    }

    fn next_poll(&mut self, node: NodeId, after: u64, _rng: &mut SmallRng) -> u64 {
        self.queues.next_due(node).max(after)
    }

    fn next_injection_cycle(&self, now: u64) -> Option<u64> {
        // Events are consumed without RNG; a past-due front event (two of a
        // node's events share a cycle) clamps to now.
        Some(self.queues.earliest().max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{two_app, InterDest};
    use noc_sim::config::SimConfig;

    #[test]
    fn roundtrip_preserves_events() {
        let cfg = SimConfig::table1();
        let (_r, scenario) = two_app(&cfg, 0.3, 0.2, 0.4);
        let trace = Trace::capture(scenario, 64, 500, 77);
        assert!(!trace.events.is_empty());
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(bytes).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn replay_preserves_offered_traffic() {
        let cfg = SimConfig::table1();
        let (_r, scenario) = two_app(&cfg, 0.2, 0.25, 0.0);
        let trace = Trace::capture(scenario, 64, 2000, 42);
        let total = trace.events.len();
        let mut replay = TraceReplay::new(&trace, 64);
        assert_eq!(replay.remaining(), total);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut replayed = 0;
        for cycle in 0..2100 {
            for node in 0..64u16 {
                if replay.generate(node, cycle, &mut rng).is_some() {
                    replayed += 1;
                }
            }
        }
        assert_eq!(replayed, total);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn rejects_corrupt_bytes() {
        assert!(Trace::from_bytes(Bytes::from_static(b"notatrace")).is_err());
        let cfg = SimConfig::table1();
        let (_r, scenario) = two_app(&cfg, 0.0, 0.1, 0.0);
        let trace = Trace::capture(scenario, 64, 100, 1);
        let bytes = trace.to_bytes();
        let truncated = bytes.slice(0..bytes.len().saturating_sub(3));
        assert!(Trace::from_bytes(truncated).is_err());
    }

    /// The capture loop this module had before `next_poll`: every node
    /// polled every cycle, cycle-major.
    fn capture_per_cycle<S: TrafficSource>(
        mut source: S,
        nodes: u16,
        cycles: u64,
        seed: u64,
    ) -> Trace {
        let mut rngs: Vec<SmallRng> = (0..nodes)
            .map(|i| {
                SmallRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15))
            })
            .collect();
        let mut events = Vec::new();
        for cycle in 0..cycles {
            for node in 0..nodes {
                if let Some(packet) = source.generate(node, cycle, &mut rngs[node as usize]) {
                    events.push(TraceEvent {
                        cycle,
                        node,
                        packet,
                    });
                }
            }
        }
        Trace {
            num_apps: source.num_apps(),
            events,
        }
    }

    /// Walking the promise captures byte for byte what per-cycle polling
    /// did: `two_app` at the three `rair-bench` rates, `six_app` with MC
    /// replies, a closed-loop workload (default promise) and a scripted one.
    #[test]
    fn capture_along_the_promise_is_byte_identical_to_per_cycle_capture() {
        let cfg = SimConfig::table1();
        for rate in [0.015, 0.09, 0.24] {
            let (_r, s) = two_app(&cfg, 0.3, rate, rate);
            let walked = Trace::capture(s.clone(), 64, 6_000, 12648430);
            assert!(!walked.events.is_empty());
            assert_eq!(
                walked.to_bytes(),
                capture_per_cycle(s, 64, 6_000, 12648430).to_bytes(),
                "two_app at {rate}"
            );
        }
        let rates = [0.03, 0.3, 0.1, 0.07, 0.08, 0.3];
        let (_r, s) = crate::scenario::six_app(&cfg, rates, InterDest::OutsideUniform);
        let walked = Trace::capture(s.clone(), 64, 6_000, 7);
        assert!(walked.events.iter().any(|e| e.packet.reply.is_some()));
        assert_eq!(walked, capture_per_cycle(s, 64, 6_000, 7));

        let rr = SimConfig::table1_req_reply();
        let region = noc_sim::region::RegionMap::quadrants(&rr);
        let w = crate::workload::ParsecWorkload::new(
            &rr,
            &region,
            crate::workload::AppModel::parsec_four(),
        );
        assert_eq!(
            Trace::capture(w.clone(), 64, 2_000, 3),
            capture_per_cycle(w, 64, 2_000, 3)
        );

        // Replaying a trace is itself a source with a promise; two events of
        // one node in one cycle come out a cycle apart either way.
        let mut twice = Trace::capture(two_app(&cfg, 0.3, 0.09, 0.09).1, 64, 500, 5);
        let again = twice.events.clone();
        twice.events.extend(again);
        let replay = || TraceReplay::new(&twice, 64);
        assert_eq!(
            Trace::capture(replay(), 64, 600, 0),
            capture_per_cycle(replay(), 64, 600, 0)
        );
    }

    /// Each way a trace file can disagree with the network it is replayed
    /// on is an `Err` from this module, never a panic or an allocation abort.
    #[test]
    fn rejects_hostile_traces() {
        let cfg = SimConfig::table1();
        let event = |node, dst, size| TraceEvent {
            cycle: 3,
            node,
            packet: NewPacket {
                dst,
                app: 0,
                class: 0,
                size,
                reply: None,
            },
        };
        let one = |e: TraceEvent| Trace {
            num_apps: 1,
            events: vec![e],
        };
        assert!(TraceReplay::checked(&one(event(5, 9, 1)), &cfg).is_ok());
        let reply = |size, class| {
            let mut e = event(5, 9, 1);
            e.packet.reply = Some(ReplySpec {
                service_latency: 6,
                size,
                class,
            });
            e
        };
        let mut foreign_app = event(5, 9, 1);
        foreign_app.packet.app = 1;
        let mut bad_class = event(5, 9, 1);
        bad_class.packet.class = 1;
        for (what, e, says) in [
            ("node out of range", event(64, 9, 1), "node 64"),
            ("dst out of range", event(5, 64, 1), "destination 64"),
            ("dst == node", event(5, 5, 1), "sends to itself"),
            ("size 0", event(5, 9, 0), "size"),
            ("size > vc_depth", event(5, 9, 6), "size"),
            ("reply size 0", reply(0, 0), "size"),
            ("class out of range", bad_class, "message class"),
            ("reply class out of range", reply(5, 1), "message class"),
            ("app out of range", foreign_app, "app 1 of 1"),
        ] {
            // The bytes round-trip: only the replay constructor can object.
            let trace = Trace::from_bytes(one(e).to_bytes()).unwrap();
            let err = TraceReplay::checked(&trace, &cfg).err();
            assert!(
                err.as_deref()
                    .is_some_and(|m| m.contains("trace event 0") && m.contains(says)),
                "{what}: {err:?}"
            );
        }

        // A header promising 2^60 events over an empty body.
        let mut huge = BytesMut::new();
        huge.put_slice(MAGIC);
        huge.put_u16(1);
        huge.put_u64(1 << 60);
        assert_eq!(
            Trace::from_bytes(huge.freeze()),
            Err("truncated trace event".to_string())
        );
    }

    #[test]
    fn mc_reply_specs_survive_roundtrip() {
        let cfg = SimConfig::table1();
        let (_r, scenario) = crate::scenario::six_app(&cfg, [0.3; 6], InterDest::OutsideUniform);
        let trace = Trace::capture(scenario, 64, 2000, 9);
        assert!(trace.events.iter().any(|e| e.packet.reply.is_some()));
        let back = Trace::from_bytes(trace.to_bytes()).unwrap();
        assert_eq!(trace, back);
    }
}
