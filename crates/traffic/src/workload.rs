//! PARSEC-like statistical workload models.
//!
//! **Substitution note (see DESIGN.md §3).** The paper drives its PARSEC
//! experiments with traces captured from a SIMICS+GEMS full-system
//! simulation of the Table 1 machine. Neither the traces nor the simulators
//! are available, so we model each application as a closed-loop,
//! Markov-modulated request/reply process whose *relative* network
//! intensities follow the published PARSEC characterization (blackscholes ≲
//! swaptions ≪ raytrace < fluidanimate in traffic volume), with per-node
//! MLP limits (low-intensity apps have low memory-level parallelism — the
//! STC criticality argument), bursty on/off phases, and a destination mix
//! that is region-local for L2 bank accesses (the cooperative-cache
//! regionalization of §II) with a small remote and memory-controller
//! fraction. RAIR and the baselines react to intensity ordering, burstiness
//! and regional mix — all preserved — not to instruction-level behavior.
//!
//! Requests are short packets (a cache-line address), replies long packets
//! (head + 64 B data), serviced after the L2 or memory latency of Table 1.

use noc_sim::config::SimConfig;
use noc_sim::flit::{PacketInfo, ReplySpec};
use noc_sim::ids::{AppId, NodeId};
use noc_sim::region::RegionMap;
use noc_sim::source::{NewPacket, TrafficSource};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Statistical model of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppModel {
    pub name: String,
    /// Request probability per node per cycle while the node is in an ON
    /// phase.
    pub on_rate: f64,
    /// Probability of leaving the ON phase each cycle.
    pub p_on_to_off: f64,
    /// Probability of leaving the OFF phase each cycle.
    pub p_off_to_on: f64,
    /// Maximum outstanding requests per node (memory-level parallelism).
    pub max_outstanding: u32,
    /// Fraction of requests served by a region-local L2 bank.
    pub local_fraction: f64,
    /// Fraction of requests going to a memory controller (corner tile).
    pub mc_fraction: f64,
}

impl AppModel {
    /// blackscholes: tiny working set, very light network traffic.
    pub fn blackscholes() -> Self {
        Self {
            name: "blackscholes".into(),
            on_rate: 0.004,
            p_on_to_off: 0.002,
            p_off_to_on: 0.004,
            max_outstanding: 2,
            local_fraction: 0.92,
            mc_fraction: 0.04,
        }
    }

    /// swaptions: light traffic, slightly above blackscholes.
    pub fn swaptions() -> Self {
        Self {
            name: "swaptions".into(),
            on_rate: 0.007,
            p_on_to_off: 0.003,
            p_off_to_on: 0.005,
            max_outstanding: 2,
            local_fraction: 0.92,
            mc_fraction: 0.04,
        }
    }

    /// raytrace: moderate traffic with irregular sharing.
    pub fn raytrace() -> Self {
        Self {
            name: "raytrace".into(),
            on_rate: 0.018,
            p_on_to_off: 0.004,
            p_off_to_on: 0.006,
            max_outstanding: 4,
            local_fraction: 0.85,
            mc_fraction: 0.06,
        }
    }

    /// fluidanimate: the network-intensive one of the four, bursty.
    pub fn fluidanimate() -> Self {
        Self {
            name: "fluidanimate".into(),
            on_rate: 0.035,
            p_on_to_off: 0.008,
            p_off_to_on: 0.008,
            max_outstanding: 8,
            local_fraction: 0.82,
            mc_fraction: 0.06,
        }
    }

    /// The representative four-application subset evaluated in §V.G,
    /// "containing both low and high intensity traffic".
    pub fn parsec_four() -> Vec<AppModel> {
        vec![
            Self::blackscholes(),
            Self::swaptions(),
            Self::fluidanimate(),
            Self::raytrace(),
        ]
    }

    /// Mean request rate accounting for the ON/OFF duty cycle — the
    /// intensity oracle handed to RO_Rank.
    pub fn mean_rate(&self) -> f64 {
        let duty = self.p_off_to_on / (self.p_off_to_on + self.p_on_to_off);
        self.on_rate * duty
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    on: bool,
    outstanding: u32,
}

/// Closed-loop multi-application PARSEC-like workload.
#[derive(Debug, Clone)]
pub struct ParsecWorkload {
    cfg: SimConfig,
    region: RegionMap,
    models: Vec<AppModel>,
    /// Each application's nodes (its region-local L2 banks).
    members: Vec<Vec<NodeId>>,
    state: Vec<NodeState>,
    /// Request message class; replies use class 1 when the config has two
    /// classes, else everything shares class 0.
    reply_class: u8,
}

impl ParsecWorkload {
    /// One model per application of the region map.
    pub fn new(cfg: &SimConfig, region: &RegionMap, models: Vec<AppModel>) -> Self {
        assert_eq!(models.len(), region.num_apps());
        Self {
            state: vec![
                NodeState {
                    on: true,
                    outstanding: 0,
                };
                cfg.num_nodes()
            ],
            reply_class: (cfg.num_classes - 1) as u8,
            cfg: cfg.clone(),
            region: region.clone(),
            members: (0..models.len())
                .map(|a| region.nodes_of(a as AppId))
                .collect(),
            models,
        }
    }

    /// The intensity oracle for RO_Rank (mean request rate per app).
    pub fn intensities(&self) -> Vec<f64> {
        self.models.iter().map(AppModel::mean_rate).collect()
    }

    fn draw_dest(
        &self,
        model: &AppModel,
        app: AppId,
        src: NodeId,
        rng: &mut SmallRng,
    ) -> Option<(NodeId, u64)> {
        let u: f64 = rng.random();
        if u < model.local_fraction {
            // Region-local L2 bank.
            let d = pick_other(&self.members[app as usize], src, rng)?;
            Some((d, self.cfg.l2_latency))
        } else if u < model.local_fraction + model.mc_fraction {
            // Memory controller at a corner.
            let corners = self.cfg.corners();
            let mut d = corners[rng.random_range(0..4)];
            if d == src {
                d = corners[(corners.iter().position(|&x| x == src).unwrap() + 1) % 4];
            }
            Some((d, self.cfg.mem_latency))
        } else {
            // Remote L2 bank in another region (inter-VM/app sharing).
            let n = self.cfg.num_nodes() as NodeId;
            for _ in 0..16 {
                let d = rng.random_range(0..n);
                if d != src && self.region.app_of(d) != app {
                    return Some((d, self.cfg.l2_latency));
                }
            }
            None
        }
    }
}

impl TrafficSource for ParsecWorkload {
    fn num_apps(&self) -> usize {
        self.models.len()
    }

    fn generate(&mut self, node: NodeId, _cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let app = self.region.app_of(node);
        if app == noc_sim::ids::APP_NONE {
            return None;
        }
        let model = &self.models[app as usize];
        let st = &mut self.state[node as usize];
        // ON/OFF phase transition.
        if st.on {
            if rng.random_bool(model.p_on_to_off) {
                st.on = false;
            }
        } else if rng.random_bool(model.p_off_to_on) {
            st.on = true;
        }
        if !st.on || st.outstanding >= model.max_outstanding || !rng.random_bool(model.on_rate) {
            return None;
        }
        let (dst, service) = self.draw_dest(model, app, node, rng)?;
        self.state[node as usize].outstanding += 1;
        Some(NewPacket {
            dst,
            app,
            class: 0,
            size: self.cfg.short_flits,
            reply: Some(ReplySpec {
                service_latency: service,
                size: self.cfg.long_flits,
                class: self.reply_class,
            }),
        })
    }

    fn on_delivered(&mut self, node: NodeId, info: &PacketInfo, _cycle: u64) {
        // A reply delivered at `node` retires one outstanding request there.
        if info.class == self.reply_class && info.reply.is_none() && self.cfg.num_classes > 1 {
            let st = &mut self.state[node as usize];
            st.outstanding = st.outstanding.saturating_sub(1);
        }
    }
}

fn pick_other(set: &[NodeId], src: NodeId, rng: &mut SmallRng) -> Option<NodeId> {
    let has_src = set.contains(&src);
    let n = set.len() - usize::from(has_src);
    if n == 0 {
        return None;
    }
    let mut idx = rng.random_range(0..n);
    if has_src {
        let pos = set.iter().position(|&x| x == src).unwrap();
        if idx >= pos {
            idx += 1;
        }
    }
    Some(set[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn intensity_ordering_matches_characterization() {
        let b = AppModel::blackscholes().mean_rate();
        let s = AppModel::swaptions().mean_rate();
        let r = AppModel::raytrace().mean_rate();
        let f = AppModel::fluidanimate().mean_rate();
        assert!(b < s && s < r && r < f, "{b} {s} {r} {f}");
    }

    #[test]
    fn mlp_caps_outstanding() {
        let cfg = SimConfig::table1_req_reply();
        let region = RegionMap::quadrants(&cfg);
        let mut w = ParsecWorkload::new(&cfg, &region, AppModel::parsec_four());
        let mut rng = SmallRng::seed_from_u64(1);
        // Node 63 runs raytrace (quadrant 3), MLP 4; without replies it
        // must stop at 4 outstanding.
        let mlp = AppModel::raytrace().max_outstanding;
        let mut issued = 0;
        for cyc in 0..400_000 {
            if w.generate(63, cyc, &mut rng).is_some() {
                issued += 1;
            }
        }
        assert_eq!(issued, mlp, "MLP cap not enforced");
        // Retiring one via a reply delivery allows one more.
        let reply = PacketInfo {
            id: 0,
            src: 0,
            dst: 63,
            app: 3,
            class: 1,
            size: 5,
            birth: 0,
            inject: 0,
            reply: None,
        };
        w.on_delivered(63, &reply, 0);
        let mut extra = 0;
        for cyc in 0..200_000 {
            if w.generate(63, cyc, &mut rng).is_some() {
                extra += 1;
            }
        }
        assert_eq!(extra, 1);
    }

    #[test]
    fn requests_are_short_with_long_replies() {
        let cfg = SimConfig::table1_req_reply();
        let region = RegionMap::quadrants(&cfg);
        let mut w = ParsecWorkload::new(&cfg, &region, AppModel::parsec_four());
        let mut rng = SmallRng::seed_from_u64(2);
        let mut found = 0;
        for cyc in 0..100_000 {
            for node in 0..64u16 {
                if let Some(p) = w.generate(node, cyc, &mut rng) {
                    assert_eq!(p.size, 1);
                    let r = p.reply.unwrap();
                    assert_eq!(r.size, 5);
                    assert_eq!(r.class, 1);
                    assert!(
                        r.service_latency == cfg.l2_latency || r.service_latency == cfg.mem_latency
                    );
                    found += 1;
                    // Retire immediately so the MLP cap never throttles the
                    // sample collection.
                    w.state[node as usize].outstanding = 0;
                }
            }
            if found > 500 {
                break;
            }
        }
        assert!(found > 500);
    }

    #[test]
    fn destination_mix_is_mostly_local() {
        let cfg = SimConfig::table1_req_reply();
        let region = RegionMap::quadrants(&cfg);
        // All four quadrants run fluidanimate to get volume quickly.
        let mut w = ParsecWorkload::new(&cfg, &region, vec![AppModel::fluidanimate(); 4]);
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut local, mut total) = (0u32, 0u32);
        for cyc in 0..50_000 {
            for node in 0..64u16 {
                if let Some(p) = w.generate(node, cyc, &mut rng) {
                    total += 1;
                    if region.app_of(p.dst) == region.app_of(node)
                        && !cfg.corners().contains(&p.dst)
                    {
                        local += 1;
                    }
                    // Retire immediately so MLP does not throttle the test.
                    w.state[node as usize].outstanding = 0;
                }
            }
        }
        let frac = local as f64 / total as f64;
        // local_fraction 0.82, but corners that fall inside the own region
        // subtract a little.
        assert!((0.70..0.90).contains(&frac), "local fraction {frac}");
    }
}
