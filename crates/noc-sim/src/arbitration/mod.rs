//! Arbitration: the four arbitration steps of the canonical router
//! (VA_in, VA_out, SA_in, SA_out — §IV.B of the paper) and the pluggable
//! priority policies that decide their winners.
//!
//! * VA_in needs no arbitration policy: each input VC independently selects
//!   which output VC to request (the routing selection function), so traffic
//!   flows do not contend there — exactly the observation the paper uses to
//!   leave VA_in unchanged in MSP.
//! * VA_out, SA_in and SA_out arbitrate among *competing flows*; a
//!   [`PriorityPolicy`] assigns each request a numeric priority and ties are
//!   broken round-robin (so every policy degrades to fair round-robin among
//!   equal-priority requestors — the paper's rule for traffic within the
//!   foreign aggregate). A request with no rival needs no priority, and the
//!   kernel does not ask for one.

mod age;
mod round_robin;
mod stc;
mod stc_online;

pub use age::AgeBased;
pub use round_robin::RoundRobin;
pub use stc::{StcRank, DEFAULT_BATCH_WINDOW};
pub use stc_online::{StcRankOnline, DEFAULT_RANK_INTERVAL};

use crate::ids::{AppId, MsgClass};
use crate::router::Router;
use crate::vc::{VcClass, VcTag};

/// Which arbitration step a priority is being computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbStage {
    /// VC allocation, output side: one winner per output VC.
    VaOut,
    /// Switch allocation, input side: one winning VC per input port.
    SaIn,
    /// Switch allocation, output side: one winning input port per output port.
    SaOut,
}

/// A single arbitration request (one competing packet).
#[derive(Debug, Clone, Copy)]
pub struct ArbReq {
    /// Application the packet belongs to.
    pub app: AppId,
    /// Message class.
    pub class: MsgClass,
    /// Cycle the packet was generated (for age/batch policies).
    pub birth: u64,
    /// Cycle the packet entered the network.
    pub inject: u64,
    /// Native (`true`) or foreign (`false`) with respect to the router
    /// performing the arbitration.
    pub is_native: bool,
}

/// A priority policy: maps requests to numeric priorities (higher wins).
///
/// **Contract.** The kernel asks for priorities only where flows compete:
/// [`priority`](Self::priority) is called for the members of an SA_in,
/// SA_out or VA_out request set with two or more requests, and never for a
/// lone request (which wins whatever its priority —
/// `lone_request_wins_at_any_priority_and_pointer`); the tests' reference
/// kernel calls it for every request, and the two must simulate
/// identically. `priority` must therefore be a *pure function* of its
/// arguments and the policy's own state as of the last
/// [`update_router`](Self::update_router): no side effect the simulation
/// can observe, and of the router only what the state-update phase writes
/// (region tag, DPA registers and bit) — never the buffers, credits or
/// arbiter pointers the arbitration phases themselves are moving.
pub trait PriorityPolicy: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Priority of `req` at `stage`, asked only for contested request sets
    /// (see the trait-level contract). For `VaOut` the class of the
    /// contested output VC is supplied (this is where VC regionalization
    /// acts); `None` for the SA stages.
    fn priority(
        &self,
        stage: ArbStage,
        router: &Router,
        out_vc: Option<VcClass>,
        req: &ArbReq,
    ) -> u64;

    /// Per-router per-cycle state update (e.g. the DPA hysteresis
    /// transition). Runs after all pipeline stages of the cycle, so any
    /// state written here is consumed starting *next* cycle — the paper's
    /// one-cycle priority delay (§IV.E).
    fn update_router(&self, _router: &mut Router, _cycle: u64) {}

    /// `true` when [`update_router`](Self::update_router) is a pure function
    /// of the router's occupancy registers — re-applying it with unchanged
    /// inputs leaves all state unchanged. The network then elides the call
    /// on cycles where the router's occupancy did not change. Policies whose
    /// update accumulates per-cycle observations (time-dependent state) must
    /// return `false` or they will silently under-sample.
    ///
    /// The default `update_router` is a no-op, hence idempotent.
    fn update_is_idempotent(&self) -> bool {
        true
    }

    /// Preferred adaptive-VC tag when an input VC picks which free output VC
    /// to request (VA_in). `None` = no preference (lowest free index).
    fn vc_tag_preference(&self, _router: &Router, _req: &ArbReq) -> Option<VcTag> {
        None
    }

    /// Self-check of any policy-maintained router state, called by the
    /// invariant oracle after the state-update phase. Return a description
    /// of the inconsistency if the state violates the policy's own
    /// transition rule (e.g. a priority bit that is not a fixed point of
    /// its update on the current registers); `None` when consistent.
    fn check_invariant(&self, _router: &Router) -> Option<String> {
        None
    }
}

/// Round-robin arbitration among requests with priorities.
///
/// `reqs` holds `(priority, slot_key)` pairs where `slot_key < num_slots`
/// identifies the physical requestor (input VC index, input port index, …).
/// Among the maximum-priority requests, the one whose key comes first at or
/// after `*ptr` (cyclically) wins, and the pointer advances past it — a
/// standard rotating-priority arbiter.
///
/// Returns the index *into `reqs`* of the winner. The pointer is a byte, as
/// routers store it: a router's slots fit one (config validation caps them
/// at 64).
pub fn arbitrate_rr(reqs: &[(u64, usize)], num_slots: usize, ptr: &mut u8) -> Option<usize> {
    let (widx, next_ptr) = arbitrate_rr_at(reqs, num_slots, usize::from(*ptr))?;
    *ptr = crate::vc::byte(next_ptr);
    Some(widx)
}

/// Pure transition function of the rotating-priority arbiter: the same
/// decision as [`arbitrate_rr`] without mutating the pointer. Returns
/// `(winner index into reqs, next pointer)`. The static admission
/// pipeline ([`crate::admit`]) reasons about arbitration through this
/// function; the kernel wrapper above delegates here so the two can
/// never diverge.
pub fn arbitrate_rr_at(
    reqs: &[(u64, usize)],
    num_slots: usize,
    ptr: usize,
) -> Option<(usize, usize)> {
    debug_assert!(ptr < num_slots, "pointer {ptr} out of range {num_slots}");
    // One pass: highest priority first, then the smallest rotated distance
    // from the pointer; the earliest request wins a full tie.
    let mut best: Option<(u64, usize, usize)> = None; // (priority, distance, req index)
    for (i, &(p, key)) in reqs.iter().enumerate() {
        debug_assert!(key < num_slots, "slot key {key} out of range {num_slots}");
        let dist = if key >= ptr {
            key - ptr
        } else {
            key + num_slots - ptr
        };
        if best.is_none_or(|(bp, bd, _)| p > bp || (p == bp && dist < bd)) {
            best = Some((p, dist, i));
        }
    }
    let (_, _, widx) = best?;
    let next = reqs[widx].1 + 1;
    Some((widx, if next == num_slots { 0 } else { next }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_returns_none() {
        let mut ptr = 0;
        assert_eq!(arbitrate_rr(&[], 4, &mut ptr), None);
        assert_eq!(ptr, 0);
    }

    /// What contest-only arbitration rests on: a lone request wins whatever
    /// its priority and wherever the pointer stands, and the pointer moves
    /// just past it — so the kernel need not ask the policy about it.
    #[test]
    fn lone_request_wins_at_any_priority_and_pointer() {
        for num_slots in (1..=12).chain([30, 60]) {
            for key in 0..num_slots {
                for ptr in 0..num_slots {
                    for prio in [0, 1, u64::MAX] {
                        assert_eq!(
                            arbitrate_rr_at(&[(prio, key)], num_slots, ptr),
                            Some((0, (key + 1) % num_slots)),
                            "slots {num_slots} key {key} ptr {ptr} prio {prio}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn highest_priority_wins() {
        let mut ptr = 0;
        let reqs = [(1, 0), (5, 1), (3, 2)];
        let w = arbitrate_rr(&reqs, 4, &mut ptr).unwrap();
        assert_eq!(reqs[w].1, 1);
        assert_eq!(ptr, 2);
    }

    #[test]
    fn equal_priorities_rotate_fairly() {
        // Three requestors with equal priority should each win once in
        // three consecutive arbitrations.
        let mut ptr = 0;
        let reqs = [(7u64, 0usize), (7, 1), (7, 2)];
        let mut wins = vec![];
        for _ in 0..3 {
            let w = arbitrate_rr(&reqs, 3, &mut ptr).unwrap();
            wins.push(reqs[w].1);
        }
        wins.sort_unstable();
        assert_eq!(wins, vec![0, 1, 2]);
    }

    #[test]
    fn pointer_wraps() {
        let mut ptr = 3;
        let reqs = [(1u64, 0usize), (1, 3)];
        // ptr=3 → slot 3 is at distance 0, wins first.
        let w = arbitrate_rr(&reqs, 4, &mut ptr).unwrap();
        assert_eq!(reqs[w].1, 3);
        assert_eq!(ptr, 0);
        let w = arbitrate_rr(&reqs, 4, &mut ptr).unwrap();
        assert_eq!(reqs[w].1, 0);
    }

    #[test]
    fn starvation_free_under_contention() {
        // One high-priority and one low-priority requestor: low priority
        // never wins while high is present (strict priority)...
        let mut ptr = 0;
        for _ in 0..10 {
            let reqs = [(2u64, 0usize), (1, 1)];
            let w = arbitrate_rr(&reqs, 2, &mut ptr).unwrap();
            assert_eq!(reqs[w].1, 0);
        }
        // ...but wins as soon as the high-priority requestor leaves.
        let reqs = [(1u64, 1usize)];
        let w = arbitrate_rr(&reqs, 2, &mut ptr).unwrap();
        assert_eq!(reqs[w].1, 1);
    }
}
