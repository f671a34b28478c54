//! Pluggable invariant oracle: protocol checkers that watch the cycle
//! kernel and report violations the moment they happen.
//!
//! The oracle is a correctness layer over the wormhole/VC/credit model, in
//! the spirit of the assertion-based checkers NoC evaluation frameworks use
//! as their ground truth, and the kernel's only observation surface. It
//! observes the kernel at four kinds of points:
//!
//! * the **two occupancy-transition points** — a head flit written into an
//!   empty idle VC (arrival or injection) and a tail flit departing through
//!   the crossbar — via the cheap `on_*` hooks,
//! * every **injection, switch traversal, link arrival and ejection** of a
//!   flit,
//! * **end of cycle**, where the expensive whole-network scans run, gated
//!   by [`OracleConfig::check_interval`].
//!
//! Observers that count per cycle — [`Analysis`](crate::analysis::Analysis)
//! and [`StarvationWatch`] — are checkers too: attached with
//! [`Network::attach_checker`] and read back with [`Network::checker`].
//!
//! Violations are structured [`OracleViolation`] values carried in
//! [`SimStats`](crate::stats::SimStats) and rendered by `metrics::report`.
//! With the oracle disabled (`Network.oracle == None`) the per-cycle cost is
//! a single pointer null-check.
//!
//! The [`Fault`](crate::fault::Fault) enum drives the differential harness:
//! each variant is a seeded protocol mutation applied by
//! [`Network::inject_fault`](crate::network::Network::inject_fault) that at
//! least one checker must catch.

mod conservation;
mod crc;
mod credit;
mod deadlock;
mod policy;
mod routing_legal;
mod starvation;
mod wormhole;

pub use conservation::FlitConservation;
pub use crc::CrcIntegrity;
pub use credit::CreditConservation;
pub use deadlock::DeadlockWatch;
pub use policy::PolicyInvariant;
pub use routing_legal::RoutingLegality;
pub use starvation::StarvationWatch;
pub use wormhole::WormholeContiguity;

use crate::config::SimConfig;
use crate::flit::Flit;
use crate::ids::{NodeId, Port};
use crate::network::Network;
use crate::node::InjectedFlit;
use crate::router::Router;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Default no-progress horizon in cycles: comfortably above the longest
/// legitimate quiet period of any shipped configuration (the closed-loop
/// runs idle for at most `mem_latency` cycles between deliveries), yet small
/// enough to flag a genuine deadlock long before a run ends.
pub const DEFAULT_STALL_HORIZON: u64 = 25_000;

/// Default spacing of the expensive end-of-cycle scans. The cheap `on_*`
/// hook checks still run (and violations still flush) every cycle.
pub const DEFAULT_CHECK_INTERVAL: u64 = 16;

/// Default cap on violations kept in `SimStats` (the count is unbounded).
pub const DEFAULT_MAX_RECORDED: usize = 64;

/// Oracle toggle and tuning knobs, carried in [`SimConfig`].
///
/// `None` fields resolve at `Network::new` time: the oracle is **on in
/// debug builds**, off by default in release; the `RAIR_ORACLE`
/// environment variable overrides the
/// build-profile default (`"0"`/empty disables, anything else enables), and
/// an explicit `enabled` in the config beats both. The same two decisions
/// switch the static verifier ([`crate::verify`]) that `Network::new` runs
/// before the first cycle, and whether its violations panic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Explicit on/off; `None` = resolve from env/build profile.
    pub enabled: Option<bool>,
    /// Panic on the first violation (the oracle's or the static
    /// verifier's); `None` = panic in debug builds only (turning every
    /// debug test into an oracle-enforced one), record-only in release.
    pub panic_on_violation: Option<bool>,
    /// Cycles a VC may stay occupied (or the whole network may go without
    /// crossbar progress) before the deadlock/livelock checker flags it.
    pub stall_horizon: u64,
    /// Run the end-of-cycle scans every this many cycles.
    pub check_interval: u64,
    /// At most this many `OracleViolation` values are kept in `SimStats`.
    pub max_recorded: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            enabled: None,
            panic_on_violation: None,
            stall_horizon: DEFAULT_STALL_HORIZON,
            check_interval: DEFAULT_CHECK_INTERVAL,
            max_recorded: DEFAULT_MAX_RECORDED,
        }
    }
}

impl OracleConfig {
    /// Force-enabled, record-only, checking every cycle, whatever
    /// `RAIR_ORACLE` says — what the observers (`Analysis`,
    /// `StarvationWatch`) require, and what the tests and `rair-bench`'s
    /// oracle variant run under.
    pub fn forced() -> Self {
        Self {
            enabled: Some(true),
            panic_on_violation: Some(false),
            check_interval: 1,
            ..Self::default()
        }
    }

    /// Resolve the effective on/off decision (see the type-level docs).
    pub fn resolve_enabled(&self) -> bool {
        if let Some(e) = self.enabled {
            return e;
        }
        match std::env::var("RAIR_ORACLE") {
            Ok(v) => !(v.is_empty() || v == "0"),
            Err(_) => cfg!(debug_assertions),
        }
    }

    /// Resolve the effective panic-on-violation decision.
    pub fn resolve_panic(&self) -> bool {
        self.panic_on_violation.unwrap_or(cfg!(debug_assertions))
    }

    /// Internal consistency, folded into [`SimConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.stall_horizon == 0 {
            return Err("oracle.stall_horizon must be nonzero".into());
        }
        if self.check_interval == 0 {
            return Err("oracle.check_interval must be nonzero".into());
        }
        Ok(())
    }
}

/// The constructor check of a per-cycle observer ([`Checker::per_cycle`]):
/// `Err` naming `observer` unless `cfg` scans every cycle.
pub(crate) fn every_cycle(cfg: &SimConfig, observer: &str) -> Result<(), String> {
    match cfg.oracle.check_interval {
        1 => Ok(()),
        k => Err(format!(
            "{observer} counts every cycle: oracle.check_interval must be 1, not {k}"
        )),
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleViolation {
    /// Cycle the violation was detected (not necessarily introduced).
    pub cycle: u64,
    /// Name of the checker that flagged it.
    pub checker: &'static str,
    /// Offending router, when the violation is local to one.
    pub router: Option<NodeId>,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {}: ", self.cycle, self.checker)?;
        if let Some(r) = self.router {
            write!(f, "router {r}: ")?;
        }
        write!(f, "{}", self.detail)
    }
}

/// A protocol invariant checker or a per-cycle observer.
///
/// The `on_*` hooks are called at the kernel's flit-event and
/// occupancy-transition points and must be cheap (they run per flit event);
/// whole-network scans belong in [`end_of_cycle`](Checker::end_of_cycle),
/// which the oracle calls every [`OracleConfig::check_interval`] cycles (and
/// on demand).
pub trait Checker: Any + Send {
    /// Name used in violation records and reports.
    fn name(&self) -> &'static str;

    /// Whether this checker counts something at every end-of-cycle scan.
    /// Such an observer needs `check_interval` 1 (its constructor returns a
    /// named error for any other), and the oracle does not hand it a
    /// scan forced between two ticks: that scan sees the state the last
    /// tick's scan already counted.
    fn per_cycle(&self) -> bool {
        false
    }

    /// Flit `flit` entered the network at `node`'s NI.
    fn on_inject(&mut self, _node: NodeId, _flit: &InjectedFlit, _cycle: u64) {}

    /// Flit `flit` won the crossbar of `router`, from input VC
    /// `(in_port, in_vc)` to output `out_port` (the local port: it ejects).
    fn on_forward(
        &mut self,
        _router: NodeId,
        _in_port: Port,
        _in_vc: usize,
        _out_port: Port,
        _flit: &Flit,
        _cycle: u64,
    ) {
    }

    /// Flit `flit` was consumed by `node`'s NI.
    fn on_eject(&mut self, _node: NodeId, _flit: &Flit, _cycle: u64) {}

    /// A flit arrived over a link into `(router, in_port, vc)`.
    #[allow(clippy::too_many_arguments)]
    fn on_arrival(
        &mut self,
        _cfg: &SimConfig,
        _router: NodeId,
        _in_port: Port,
        _vc: usize,
        _flit: &Flit,
        _cycle: u64,
        _out: &mut Vec<OracleViolation>,
    ) {
    }

    /// Input VC `(router, port, vc)` transitioned to/from occupied.
    fn on_occupancy(
        &mut self,
        _router: NodeId,
        _port: Port,
        _vc: usize,
        _occupied: bool,
        _cycle: u64,
    ) {
    }

    /// Whole-network scan after the state-update phase of a cycle.
    fn end_of_cycle(&mut self, _net: &Network, _out: &mut Vec<OracleViolation>) {}

    /// The routing layer reconfigured around a permanent fault: checkers
    /// relying on the pristine routing function (minimality, escape
    /// dimension order) relax or re-derive their expectations here. The
    /// new degraded table is already installed in `net`.
    fn on_reconfigure(&mut self, _net: &Network) {}
}

/// The oracle: a set of checkers plus the violations they raised since the
/// last flush into `SimStats`.
pub struct Oracle {
    checkers: Vec<Box<dyn Checker>>,
    pending: Vec<OracleViolation>,
    panic_on_violation: bool,
    check_interval: u64,
    max_recorded: usize,
    /// End-of-cycle scans actually performed (the interval gate passed).
    scans: u64,
}

impl Oracle {
    /// The full default checker set for a network of this configuration.
    pub fn from_config(cfg: &SimConfig, num_apps: usize) -> Self {
        Self::with_checkers(
            cfg,
            vec![
                Box::new(FlitConservation::new(num_apps)),
                Box::new(CreditConservation::default()),
                Box::new(WormholeContiguity),
                Box::new(RoutingLegality::default()),
                Box::new(CrcIntegrity),
                Box::new(DeadlockWatch::new(cfg)),
                Box::new(PolicyInvariant),
            ],
        )
    }

    /// An oracle with a custom checker set (tests of individual checkers).
    pub fn with_checkers(cfg: &SimConfig, checkers: Vec<Box<dyn Checker>>) -> Self {
        Self {
            checkers,
            pending: Vec::new(),
            panic_on_violation: cfg.oracle.resolve_panic(),
            check_interval: cfg.oracle.check_interval,
            max_recorded: cfg.oracle.max_recorded,
            scans: 0,
        }
    }

    /// Append a checker to an existing oracle (the differential suite
    /// attaches the starvation observer with an explicit bound).
    pub fn add_checker(&mut self, checker: Box<dyn Checker>) {
        self.checkers.push(checker);
    }

    /// The first attached checker of type `T`.
    pub(crate) fn checker<T: Checker>(&self) -> Option<&T> {
        self.checkers
            .iter()
            .find_map(|c| (&**c as &dyn Any).downcast_ref())
    }

    /// Hand one kernel event to every checker, with the list its
    /// violations go to. The kernel names a VC by its router slot, the
    /// hooks by `(port, vc)`: the three methods below convert.
    pub(crate) fn notify(
        &mut self,
        mut hook: impl FnMut(&mut dyn Checker, &mut Vec<OracleViolation>),
    ) {
        for c in &mut self.checkers {
            hook(&mut **c, &mut self.pending);
        }
    }

    /// A flit arrived over a link into input VC `slot` of `router`.
    pub(crate) fn arrival(
        &mut self,
        cfg: &SimConfig,
        router: &Router,
        slot: usize,
        flit: &Flit,
        cycle: u64,
    ) {
        let (port, vc) = router.port_vc(slot);
        self.notify(|c, out| c.on_arrival(cfg, router.id, port, vc, flit, cycle, out));
    }

    /// `flit` won `router`'s crossbar from input VC `slot` to `out_port`.
    pub(crate) fn forward(
        &mut self,
        router: &Router,
        slot: usize,
        out_port: Port,
        flit: &Flit,
        cycle: u64,
    ) {
        let (port, vc) = router.port_vc(slot);
        self.notify(|c, _| c.on_forward(router.id, port, vc, out_port, flit, cycle));
    }

    /// Input VC `slot` of `router` became occupied (or free).
    pub(crate) fn occupancy(&mut self, router: &Router, slot: usize, occupied: bool, cycle: u64) {
        let (port, vc) = router.port_vc(slot);
        self.notify(|c, _| c.on_occupancy(router.id, port, vc, occupied, cycle));
    }

    /// Run the end-of-cycle scans if due (or `force`d), gathering violations
    /// into the pending list.
    pub(crate) fn run_end_of_cycle(&mut self, net: &Network, force: bool) {
        if !force && !net.cycle().is_multiple_of(self.check_interval) {
            return;
        }
        self.scans += 1;
        let Self {
            checkers, pending, ..
        } = self;
        for c in checkers {
            if !(force && c.per_cycle()) {
                c.end_of_cycle(net, pending);
            }
        }
    }

    pub(crate) fn take_pending(&mut self) -> Vec<OracleViolation> {
        std::mem::take(&mut self.pending)
    }

    pub(crate) fn panic_on_violation(&self) -> bool {
        self.panic_on_violation
    }

    pub(crate) fn max_recorded(&self) -> usize {
        self.max_recorded
    }

    pub(crate) fn scans(&self) -> u64 {
        self.scans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_renders_with_context() {
        let v = OracleViolation {
            cycle: 42,
            checker: "credit-conservation",
            router: Some(7),
            detail: "sum 4 != depth 5".into(),
        };
        assert_eq!(
            v.to_string(),
            "[cycle 42] credit-conservation: router 7: sum 4 != depth 5"
        );
        let v = OracleViolation { router: None, ..v };
        assert_eq!(
            v.to_string(),
            "[cycle 42] credit-conservation: sum 4 != depth 5"
        );
    }

    #[test]
    fn forced_config_checks_every_cycle_without_panicking() {
        let c = OracleConfig::forced();
        assert!(c.resolve_enabled());
        assert!(!c.resolve_panic());
        assert_eq!(c.check_interval, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn explicit_enable_beats_profile_default() {
        let mut c = OracleConfig {
            enabled: Some(false),
            ..OracleConfig::default()
        };
        assert!(!c.resolve_enabled());
        c.enabled = Some(true);
        assert!(c.resolve_enabled());
    }

    #[test]
    fn validation_rejects_zero_knobs() {
        let c = OracleConfig {
            stall_horizon: 0,
            ..OracleConfig::default()
        };
        assert!(c.validate().is_err());
        let c = OracleConfig {
            check_interval: 0,
            ..OracleConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
