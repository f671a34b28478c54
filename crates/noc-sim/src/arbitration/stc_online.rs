//! RO_Rank with *online* intensity estimation — an extension beyond the
//! paper.
//!
//! The paper evaluates an oracle STC that always knows the optimal
//! application ranking. A real deployment must estimate intensity at run
//! time; STC samples per-application L1 misses per interval through central
//! logic. Our simulator-level equivalent observes each application's
//! injection activity (occupied local-port VCs, sampled per router per
//! cycle) and recomputes the ranking every `interval` cycles: the
//! application with the least observed injection activity gets the best
//! rank, exactly mirroring the oracle's least-intensive-first rule.
//!
//! Shared estimation state lives behind a mutex; the simulator is
//! single-threaded per network, so the lock is uncontended.

use super::{ArbReq, ArbStage, PriorityPolicy};
use crate::ids::PORT_LOCAL;
use crate::router::Router;
use crate::vc::VcClass;
use std::sync::Mutex;

/// Default re-ranking interval in cycles.
pub const DEFAULT_RANK_INTERVAL: u64 = 2_000;

#[derive(Debug)]
struct OnlineState {
    /// Injection-activity samples per application in the current interval.
    counts: Vec<u64>,
    /// Current ranking (0 = highest priority).
    ranks: Vec<u16>,
    /// Cycle of the last re-ranking.
    last_rerank: u64,
    /// Number of re-rankings performed (introspection for tests).
    reranks: u64,
}

/// Application-aware ranked arbitration with online intensity estimation.
#[derive(Debug)]
pub struct StcRankOnline {
    batch_window: u64,
    interval: u64,
    state: Mutex<OnlineState>,
}

impl StcRankOnline {
    /// Create for `num_apps` applications. All applications start at equal
    /// rank (pure round-robin) until the first interval completes.
    pub fn new(num_apps: usize, batch_window: u64, interval: u64) -> Self {
        assert!(batch_window > 0 && interval > 0);
        Self {
            batch_window,
            interval,
            state: Mutex::new(OnlineState {
                counts: vec![0; num_apps],
                ranks: vec![0; num_apps],
                last_rerank: 0,
                reranks: 0,
            }),
        }
    }

    /// Current ranking snapshot (testing/diagnostics).
    pub fn ranks(&self) -> Vec<u16> {
        self.state.lock().unwrap().ranks.clone()
    }

    /// Number of re-rankings performed so far.
    pub fn reranks(&self) -> u64 {
        self.state.lock().unwrap().reranks
    }
}

impl PriorityPolicy for StcRankOnline {
    fn name(&self) -> &'static str {
        "RO_RankOnline"
    }

    fn priority(
        &self,
        _stage: ArbStage,
        _router: &Router,
        _out_vc: Option<VcClass>,
        req: &ArbReq,
    ) -> u64 {
        let st = self.state.lock().unwrap();
        let rank = st.ranks.get(req.app as usize).copied().unwrap_or(u16::MAX);
        drop(st);
        let batch = req.birth / self.batch_window;
        let batch_prio = (1u64 << 40) - batch.min((1 << 40) - 1);
        (batch_prio << 16) | (u16::MAX - rank) as u64
    }

    fn update_router(&self, router: &mut Router, cycle: u64) {
        let mut st = self.state.lock().unwrap();
        // Sample injection activity: which application holds each occupied
        // local-port VC of this router.
        for ivc in router.ivcs(PORT_LOCAL) {
            if !ivc.occupied() {
                continue;
            }
            if let Some(app) = ivc.holder() {
                if let Some(c) = st.counts.get_mut(app as usize) {
                    *c += 1;
                }
            }
        }
        if cycle.saturating_sub(st.last_rerank) >= self.interval {
            // Least-intensive application → rank 0 (STC's rule).
            let mut order: Vec<usize> = (0..st.counts.len()).collect();
            order.sort_by_key(|&a| st.counts[a]);
            for (rank, &app) in order.iter().enumerate() {
                st.ranks[app] = rank as u16;
            }
            st.counts.iter_mut().for_each(|c| *c = 0);
            st.last_rerank = cycle;
            st.reranks += 1;
        }
    }

    /// Sampling accumulates one observation per router per cycle, so the
    /// update must run even on cycles where nothing changed.
    fn update_is_idempotent(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::flit::{Flit, PacketInfo, PacketTable, RingFlit};
    use crate::ids::AppId;

    fn router_with_local_holder(app: AppId) -> Router {
        let cfg = SimConfig::table1();
        let mut r = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        let info = PacketInfo {
            id: 0,
            src: 0,
            dst: 1,
            app,
            class: 0,
            size: 1,
            birth: 0,
            inject: 0,
            reply: None,
        };
        let packet = PacketTable::default().insert(info);
        r.note_vc_occupied(PORT_LOCAL, 1, packet, app, 0);
        r.push_flit(PORT_LOCAL, 1, RingFlit::of(&Flit::nth(info, 0), packet));
        r
    }

    #[test]
    fn starts_with_equal_ranks() {
        let p = StcRankOnline::new(3, 1000, 500);
        assert_eq!(p.ranks(), vec![0, 0, 0]);
        assert_eq!(p.reranks(), 0);
    }

    #[test]
    fn opts_out_of_update_skipping() {
        // Sampling is time-dependent: skipping update_router on quiet
        // cycles would bias the intensity estimate.
        assert!(!StcRankOnline::new(2, 1000, 500).update_is_idempotent());
    }

    #[test]
    fn learns_intensity_ordering() {
        let p = StcRankOnline::new(2, 1000, 100);
        let mut heavy = router_with_local_holder(1);
        let mut light = router_with_local_holder(0);
        // App 1 injects 5x as often as app 0.
        for cycle in 0..100u64 {
            p.update_router(&mut heavy, cycle);
            if cycle % 5 == 0 {
                p.update_router(&mut light, cycle);
            }
        }
        // Trigger the re-rank.
        let cfg = SimConfig::table1();
        let mut idle = Router::new(&cfg, 2, cfg.coord_of(2), 0);
        p.update_router(&mut idle, 100);
        assert_eq!(p.reranks(), 1);
        let ranks = p.ranks();
        assert!(
            ranks[0] < ranks[1],
            "light app must outrank heavy: {ranks:?}"
        );
    }

    #[test]
    fn rank_feeds_priority() {
        let p = StcRankOnline::new(2, 1000, 10);
        // Force ranks by feeding samples then re-ranking.
        let mut heavy = router_with_local_holder(1);
        for cycle in 0..=10u64 {
            p.update_router(&mut heavy, cycle);
        }
        assert_eq!(p.reranks(), 1);
        let cfg = SimConfig::table1();
        let r = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        let req = |app: AppId| ArbReq {
            app,
            class: 0,
            birth: 0,
            inject: 0,
            is_native: true,
        };
        let light_prio = p.priority(ArbStage::SaIn, &r, None, &req(0));
        let heavy_prio = p.priority(ArbStage::SaIn, &r, None, &req(1));
        assert!(light_prio > heavy_prio);
    }

    #[test]
    fn counts_reset_each_interval() {
        let p = StcRankOnline::new(2, 1000, 10);
        let mut r0 = router_with_local_holder(0);
        for cycle in 0..=10u64 {
            p.update_router(&mut r0, cycle);
        }
        // First interval: app 0 heavy → worst rank.
        assert_eq!(p.ranks()[0], 1);
        // Second interval: app 1 heavy → ranking flips.
        let mut r1 = router_with_local_holder(1);
        for cycle in 11..=21u64 {
            p.update_router(&mut r1, cycle);
        }
        assert_eq!(p.reranks(), 2);
        assert_eq!(p.ranks()[0], 0);
        assert_eq!(p.ranks()[1], 1);
    }

    #[test]
    fn unknown_app_gets_worst_priority() {
        let p = StcRankOnline::new(2, 1000, 10);
        let cfg = SimConfig::table1();
        let r = Router::new(&cfg, 0, cfg.coord_of(0), 0);
        let adversary = ArbReq {
            app: 200,
            class: 0,
            birth: 0,
            inject: 0,
            is_native: false,
        };
        let known = ArbReq {
            app: 0,
            ..adversary
        };
        assert!(
            p.priority(ArbStage::SaIn, &r, None, &known)
                > p.priority(ArbStage::SaIn, &r, None, &adversary)
        );
    }
}
