//! # Static QoS admission pipeline.
//!
//! Given a full configuration (scheme × routing × topology × region map),
//! `admit` proves or refutes — *without running the simulator* — the
//! kernel's two QoS properties of a config, the first two of the one
//! admission gate, `experiments::admit::admit_cell` (which `repro admit`
//! and `repro serve` call; network construction calls no admission), and
//! folds the verdicts into one machine-readable [`Admission`] report:
//!
//! 1. **Progress / starvation-freedom** ([`check_progress`], property
//!    name [`PROP_PROGRESS`]). The priority machinery of a scheme is
//!    abstracted into a [`PriorityAutomaton`]: a pure transition function
//!    over the per-router arbiter state `(native_high, occupied native
//!    VCs, occupied foreign VCs)` plus a pure per-stage priority function.
//!    VC occupancy is environment-controlled (the abstraction lets it jump
//!    to any value each cycle — a demonic adversary), so the explored
//!    transition system over-approximates every reachable arbiter
//!    trajectory. The property checked is **non-lockout**: from every
//!    reachable state, the native-favoring set `W` (states whose priority
//!    function grants a native request at least tie priority at a
//!    contested point — a tie is won in bounded time by the rotating
//!    arbiter) must remain reachable. A reachable state from which `W` is
//!    unreachable is a *lasso*: the adversary can hold the arbiter outside
//!    `W` forever and defer a native request indefinitely. The concrete
//!    stem + cycle is emitted as a replayable witness trace
//!    ([`AdmitWitness::Lasso`]); re-applying [`PriorityAutomaton::step`]
//!    over it reproduces the starving trajectory.
//!
//!    Contested points are the native class's *persistent* arbitration
//!    points: VC allocation on regional and escape output VCs, and both
//!    switch-allocation stages. Global VCs are deliberately excluded —
//!    foreign traffic owns them by construction (§IV.A), a native
//!    requests one only opportunistically (VC selection re-runs every
//!    cycle and always holds the escape fallback), so losing there cannot
//!    pin a native request. Symmetrically, foreign progress is guaranteed
//!    by the always-foreign-high global VCs and is not re-checked here:
//!    the issue property is native-class starvation.
//!
//!    Region-oblivious aging schemes ([`Aging::OldestFirst`],
//!    [`Aging::Batched`]) are admitted by the aging argument instead of
//!    state exploration: a waiting head flit's age (or batch seniority)
//!    grows without bound while the set of older competitors only drains,
//!    so its priority eventually dominates; the derived wait bound adds
//!    the backlog-drain term (and the batch window for batched ranks).
//!
//! 2. **Region non-interference** ([`check_non_interference`], property
//!    name [`PROP_NON_INTERFERENCE`]). A taint/reachability pass over the
//!    same `(router, port, VC-class)` channel graph the CDG verifier
//!    builds: for every application and every intra-application flow, the
//!    minimal-route channel graph is walked ([`RoutingAlgorithm::next_hops`],
//!    so the walk is exact on all four topology kinds, including wrapping
//!    paths on torus/ring that legitimately transit foreign regions). At
//!    each hop the flit may occupy the VC class its allocator *steers* it
//!    into: the scheme's tag preference for the allocating router's
//!    native/foreign view, plus the escape class. The proven property:
//!    a flit that is foreign at both the allocating router and the
//!    downstream router is never steered into a native-reserved
//!    (regional-tagged) VC — regional VCs strictly interior to a region
//!    stay free of foreign taint. Two scope notes, both deliberate:
//!    the *boundary handoff* (a flit still native at the allocating
//!    router occupying its first VC inside the neighbor region) is
//!    exempt — it is one hop deep by construction and drains under the
//!    always-foreign-high global VCs downstream; and *escape lanes* are
//!    class-shared by design (they are not native-reserved — their
//!    bounded occupancy is exactly the escape-CDG acyclicity theorem the
//!    [`crate::verify`] pipeline proves). Saturation spillover (the VA
//!    fallback that hands any free adaptive VC to a flit whose preferred
//!    tag is exhausted) is likewise outside the steering relation; the
//!    starvation observer ([`crate::oracle`]) bounds its effect
//!    dynamically.
//!
//! 3. **Bandwidth feasibility** (property name [`PROP_FEASIBILITY`]) is
//!    computed in `crates/experiments` from `crates/model`'s per-flow
//!    link-load maps — the model crate depends on this one, so the check
//!    cannot live here. The experiments driver appends it to the same
//!    [`Admission`] report: offered load above one flit/cycle on any
//!    channel rejects (the over-subscribed-region negative).
//!
//! The experiments driver then appends the routing substrate's and the
//! scheme's static checks — deadlock freedom ([`crate::verify`]), LBDR
//! confinement and scheme parameters (`rair::verify`) — so one
//! [`Admission`] is the whole static verdict on a configuration
//! ([`AdmitWitness::Route`], [`AdmitWitness::Parameter`]).
//!
//! Timing note: this crate is subject to the wall-clock determinism lint,
//! so [`PropertyReport::micros`] is left 0 here and stamped by the
//! experiments driver, which is exempt.

use crate::arbitration::ArbStage;
use crate::config::SimConfig;
use crate::ids::{AppId, NodeId, Port, APP_NONE, NUM_PORTS};
use crate::region::RegionMap;
use crate::routing::RoutingAlgorithm;
use crate::topology;
use crate::vc::{VcClass, VcTag};
use crate::verify::{ChannelClass, ChannelId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Property name: progress / native starvation-freedom.
pub const PROP_PROGRESS: &str = "progress";
/// Property name: region non-interference (VC reservation taint).
pub const PROP_NON_INTERFERENCE: &str = "non-interference";
/// Property name: analytical bandwidth feasibility (experiments layer).
pub const PROP_FEASIBILITY: &str = "bandwidth-feasibility";

/// Occupancy cap per class in the explored arbiter state space. Real
/// occupancy is bounded by `NUM_PORTS × vcs_per_port`; configs below the
/// cap are explored exactly, larger ones are clamped (the DPA step
/// depends only on the occupancy *ratio*, which the clamped grid still
/// covers densely enough to realize every threshold crossing).
const MAX_OCC: u32 = 24;

/// Verdict of one property check (or of a whole admission report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdmitVerdict {
    /// Property proven.
    Admit,
    /// Property refuted; the report carries a concrete witness.
    Reject,
}

impl AdmitVerdict {
    /// Stable lowercase label (report JSON).
    pub fn label(self) -> &'static str {
        match self {
            AdmitVerdict::Admit => "admit",
            AdmitVerdict::Reject => "reject",
        }
    }
}

/// How a scheme's priorities age over a request's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aging {
    /// Priorities are a pure function of the arbiter state (RAIR's DPA
    /// bit, or constant): progress must come from the state machine.
    None,
    /// Older requests strictly dominate (RO_Age): progress by aging.
    OldestFirst,
    /// Seniority in windows of `window` cycles (RO_Rank batches): aging
    /// with a per-window plateau.
    Batched {
        /// Batch window in cycles.
        window: u64,
    },
}

/// Pure DPA-bit transition: `(native_high, occupied native VCs, occupied
/// foreign VCs) → native_high'`.
pub type StepFn = Box<dyn Fn(bool, u32, u32) -> bool + Send + Sync>;

/// Pure stage priority: `(stage, native_high, contested VC class,
/// is_native) → priority` — the state-dependent core of
/// `PriorityPolicy::priority` with the router replaced by the abstract
/// arbiter state.
pub type PriorityFn = Box<dyn Fn(ArbStage, bool, Option<VcClass>, bool) -> u64 + Send + Sync>;

/// A scheme's priority machinery as a finite transition system: the
/// abstraction [`check_progress`] explores. Built by
/// `rair::Scheme::automaton()` for the shipped schemes, or by the
/// constructors here for synthetic/test machines.
pub struct PriorityAutomaton {
    /// Scheme label, the report's `scheme`. Labels do not name
    /// parameters, so the memo keys on the functions' tables as well.
    pub name: String,
    /// DPA-bit transition function.
    pub step: StepFn,
    /// Per-stage priority function over the abstract state.
    pub priority: PriorityFn,
    /// Adaptive-VC tag the VA stage steers a *native* flit into.
    pub native_pref: Option<VcTag>,
    /// Adaptive-VC tag the VA stage steers a *foreign* flit into.
    pub foreign_pref: Option<VcTag>,
    /// Aging behavior (decides which progress argument applies).
    pub aging: Aging,
    /// Reset value of the DPA bit.
    pub initial_native_high: bool,
}

impl PriorityAutomaton {
    /// Pure round-robin: every request ties, no VC steering (RO_RR).
    pub fn round_robin(name: &str) -> Self {
        PriorityAutomaton {
            name: name.to_string(),
            step: Box::new(|nh, _, _| nh),
            priority: Box::new(|_, _, _, _| 0),
            native_pref: None,
            foreign_pref: None,
            aging: Aging::None,
            initial_native_high: false,
        }
    }

    /// Region-oblivious aging: ties at equal age, older wins (RO_Age /
    /// RO_Rank depending on `window`).
    pub fn aging(name: &str, window: Option<u64>) -> Self {
        PriorityAutomaton {
            aging: window.map_or(Aging::OldestFirst, |w| Aging::Batched { window: w }),
            ..Self::round_robin(name)
        }
    }

    /// A frozen DPA bit with RAIR's VC steering: `native_high = true`
    /// models RAIR_NativeH, `false` models the RAIR_ForeignH priority
    /// inversion (the pinned negative).
    #[cfg(test)]
    pub fn fixed_bit(name: &str, native_high: bool) -> Self {
        PriorityAutomaton {
            name: name.to_string(),
            step: Box::new(move |_, _, _| native_high),
            priority: Box::new(|_, nh, _, is_native| if is_native == nh { 2 } else { 1 }),
            native_pref: Some(VcTag::Regional),
            foreign_pref: Some(VcTag::Global),
            aging: Aging::None,
            initial_native_high: native_high,
        }
    }
}

/// One state of the explored arbiter transition system, annotated with
/// the priorities both classes hold at the contested point — a lasso
/// witness is a sequence of these, replayable through
/// [`PriorityAutomaton::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LassoStep {
    /// DPA bit in this state.
    pub native_high: bool,
    /// Occupied native-owned VCs (environment-chosen).
    pub occ_native: u32,
    /// Occupied foreign-owned VCs (environment-chosen).
    pub occ_foreign: u32,
    /// Priority a native request holds at the contested point.
    pub native_prio: u64,
    /// Priority a foreign request holds at the contested point.
    pub foreign_prio: u64,
}

impl fmt::Display for LassoStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(nh={} occ={}/{} prio {}<{})",
            u8::from(self.native_high),
            self.occ_native,
            self.occ_foreign,
            self.native_prio,
            self.foreign_prio
        )
    }
}

/// Concrete evidence attached to a non-admit verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitWitness {
    /// Starvation lasso: after `stem`, the arbiter can cycle through
    /// `cycle` forever with the native request losing every round.
    Lasso {
        /// Contested arbitration point (e.g. `"SA_in"`).
        point: &'static str,
        /// Reachability prefix from the reset state.
        stem: Vec<LassoStep>,
        /// The repeating suffix (first state recurs after the last).
        cycle: Vec<LassoStep>,
    },
    /// Foreign taint steered into a native-reserved VC: the channel path
    /// of a concrete flow from `src` to `dst`, ending at the offending
    /// regional channel (its buffer sits at the downstream router).
    Taint {
        /// Application owning the flow.
        app: AppId,
        /// Flow source node.
        src: NodeId,
        /// Flow destination node.
        dst: NodeId,
        /// Output channels along the flow; the last one is the violation.
        path: Vec<ChannelId>,
    },
    /// Offered load exceeds a channel's capacity of one flit/cycle.
    Overload {
        /// Bottleneck link label (`"r12->r13"` style).
        link: String,
        /// Offered load in flits/cycle.
        offered: f64,
    },
    /// The static verifier's first violation: an escape-CDG cycle, a router
    /// without an escape channel, or a pair without a legal minimal path.
    Route(crate::verify::VerifyViolation),
    /// A scheme parameter that leaves the priority order partial.
    Parameter(String),
}

impl fmt::Display for AdmitWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitWitness::Lasso { point, stem, cycle } => {
                write!(f, "lasso at {point}: stem[")?;
                for (i, s) in stem.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "] cycle[")?;
                for (i, s) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "]")
            }
            AdmitWitness::Taint {
                app,
                src,
                dst,
                path,
            } => {
                write!(f, "app {app} flow {src}->{dst} taints ")?;
                for (i, c) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            AdmitWitness::Overload { link, offered } => {
                write!(
                    f,
                    "link {link}: offered {offered:.3} > capacity 1 flit/cycle"
                )
            }
            AdmitWitness::Route(v) => write!(f, "{v}"),
            AdmitWitness::Parameter(defect) => f.write_str(defect),
        }
    }
}

/// Verdict of one property check, with diagnostics.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// Property name ([`PROP_PROGRESS`] / [`PROP_NON_INTERFERENCE`] /
    /// [`PROP_FEASIBILITY`], or one the experiments driver appends).
    pub property: &'static str,
    /// The verdict.
    pub verdict: AdmitVerdict,
    /// Human-readable explanation of what was proven or refuted.
    pub detail: String,
    /// Concrete evidence for non-admit verdicts.
    pub witness: Option<AdmitWitness>,
    /// Analysis cost: states explored / routers visited / links checked.
    pub states: u64,
    /// Analysis cost in wall-clock microseconds — stamped by the
    /// experiments driver (wall-clock reads are linted out of this crate).
    pub micros: u64,
    /// For admitted progress checks: the statically derived bound on
    /// consecutive arbitration losses of a native head flit, in cycles
    /// (the starvation observer's differential budget).
    pub wait_bound: Option<u64>,
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.property, self.verdict.label())?;
        if let Some(w) = &self.witness {
            write!(f, " [{w}]")?;
        }
        write!(f, " — {}", self.detail)
    }
}

/// The unified admission report for one configuration.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Scheme label the automaton was built from.
    pub scheme: String,
    /// One report per property family, in pipeline order.
    pub properties: Vec<PropertyReport>,
}

impl Admission {
    /// Aggregate verdict: the worst of the per-property verdicts.
    pub fn verdict(&self) -> AdmitVerdict {
        self.properties
            .iter()
            .map(|p| p.verdict)
            .max()
            .unwrap_or(AdmitVerdict::Admit)
    }

    /// Is the config safe to simulate (no property rejects it)?
    pub fn is_admitted(&self) -> bool {
        self.verdict() != AdmitVerdict::Reject
    }

    /// The first rejecting property report, if any.
    pub fn rejection(&self) -> Option<&PropertyReport> {
        self.properties
            .iter()
            .find(|p| p.verdict == AdmitVerdict::Reject)
    }

    /// The statically derived starvation wait bound (minimum over the
    /// admitted progress reports), if one was proven.
    pub fn wait_bound(&self) -> Option<u64> {
        self.properties.iter().filter_map(|p| p.wait_bound).min()
    }
}

impl fmt::Display for Admission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.scheme, self.verdict().label())?;
        for p in &self.properties {
            write!(f, "\n  {p}")?;
        }
        Ok(())
    }
}

/// The native class's persistent arbitration points (see module docs for
/// why global VCs are excluded).
fn contested_points(cfg: &SimConfig) -> Vec<(&'static str, ArbStage, Option<VcClass>)> {
    let mut pts: Vec<(&'static str, ArbStage, Option<VcClass>)> = Vec::new();
    if cfg.regional_vcs > 0 {
        pts.push((
            "VA_out/regional",
            ArbStage::VaOut,
            Some(VcClass::Adaptive {
                tag: VcTag::Regional,
            }),
        ));
    }
    pts.push((
        "VA_out/escape",
        ArbStage::VaOut,
        Some(VcClass::Escape { class: 0 }),
    ));
    pts.push(("SA_in", ArbStage::SaIn, None));
    pts.push(("SA_out", ArbStage::SaOut, None));
    pts
}

/// Occupancy cap per class for the explored state space.
fn occ_cap(cfg: &SimConfig) -> u32 {
    let slots = (NUM_PORTS * cfg.vcs_per_port()) as u32;
    slots.min(MAX_OCC)
}

/// The statically derived bound on consecutive arbitration losses of a
/// native head flit, for an admitted config: every competitor ahead of it
/// (one per arbiter slot, rotating fairness) plus a full drain of both
/// occupancy classes, each holding the switch for up to one packet's
/// serialization plus credit turnaround (the ×4 slack term), plus the
/// aging plateau for batched ranks.
fn wait_bound(cfg: &SimConfig, aging: Aging) -> u64 {
    let slots = (NUM_PORTS * cfg.vcs_per_port()) as u64;
    let cap = u64::from(occ_cap(cfg));
    let pkt = u64::from(cfg.long_flits.max(cfg.short_flits));
    let base = (slots + 2 * cap) * pkt * 4;
    match aging {
        Aging::Batched { window } => base + 2 * window,
        Aging::None | Aging::OldestFirst => base,
    }
}

/// Annotate one abstract state with both classes' priorities at a point.
fn lasso_step(
    auto: &PriorityAutomaton,
    stage: ArbStage,
    vc: Option<VcClass>,
    nh: bool,
    n: u32,
    f: u32,
) -> LassoStep {
    LassoStep {
        native_high: nh,
        occ_native: n,
        occ_foreign: f,
        native_prio: (auto.priority)(stage, nh, vc, true),
        foreign_prio: (auto.priority)(stage, nh, vc, false),
    }
}

/// Prove or refute native starvation-freedom of `auto` on `cfg` by
/// bounded exhaustive exploration (see module docs for the property).
pub fn check_progress(cfg: &SimConfig, auto: &PriorityAutomaton) -> PropertyReport {
    let bound = wait_bound(cfg, auto.aging);
    if auto.aging != Aging::None {
        let kind = match auto.aging {
            Aging::OldestFirst => "oldest-first",
            Aging::Batched { .. } => "batched-seniority",
            Aging::None => "",
        };
        return PropertyReport {
            property: PROP_PROGRESS,
            verdict: AdmitVerdict::Admit,
            detail: format!(
                "{kind} aging: a waiting native head flit's seniority grows without bound \
                 while older competitors only drain, so it wins within {bound} cycles"
            ),
            witness: None,
            states: 0,
            micros: 0,
            wait_bound: Some(bound),
        };
    }

    let cap = occ_cap(cfg);
    let nn = cap as usize + 1;
    let total = 2 * nn * nn;
    let idx = |nh: bool, n: u32, f: u32| (usize::from(nh) * nn + n as usize) * nn + f as usize;
    let un_idx = |s: usize| (s / (nn * nn) == 1, ((s / nn) % nn) as u32, (s % nn) as u32);

    // Forward reachability from the reset state, with BFS parents for the
    // witness stem. Successors of (nh, n, f) are (step(nh, n, f), n', f')
    // for every environment-chosen occupancy (n', f'), so expansion is
    // memoized per successor DPA bit.
    let mut reach = vec![false; total];
    let mut parent = vec![usize::MAX; total];
    let mut expanded_to = [false; 2];
    let s0 = idx(auto.initial_native_high, 0, 0);
    reach[s0] = true;
    let mut queue = VecDeque::from([s0]);
    let mut states = 0u64;
    while let Some(s) = queue.pop_front() {
        states += 1;
        let (nh, n, f) = un_idx(s);
        let b = (auto.step)(nh, n, f);
        if expanded_to[usize::from(b)] {
            continue;
        }
        expanded_to[usize::from(b)] = true;
        for n2 in 0..=cap {
            for f2 in 0..=cap {
                let t = idx(b, n2, f2);
                if !reach[t] {
                    reach[t] = true;
                    parent[t] = s;
                    queue.push_back(t);
                }
            }
        }
    }

    // good[b]: from DPA bit b, the native-favoring set W remains
    // reachable. Fixpoint of W ∪ pre(good) on the 2-element bit domain.
    for (point, stage, vc) in contested_points(cfg) {
        let in_w = |nh: bool| {
            (auto.priority)(stage, nh, vc, true) >= (auto.priority)(stage, nh, vc, false)
        };
        let mut good = [in_w(false), in_w(true)];
        loop {
            let mut changed = false;
            for bb in [false, true] {
                if good[usize::from(bb)] {
                    continue;
                }
                let escapes =
                    (0..=cap).any(|n| (0..=cap).any(|f| good[usize::from((auto.step)(bb, n, f))]));
                if escapes {
                    good[usize::from(bb)] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let starved = (0..total).find(|&s| reach[s] && !good[usize::from(un_idx(s).0)]);
        let Some(starved) = starved else { continue };

        // Witness stem: BFS parent chain from the reset state.
        let mut stem_states = vec![starved];
        let mut cur = starved;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            stem_states.push(cur);
        }
        stem_states.reverse();
        let stem: Vec<LassoStep> = stem_states
            .iter()
            .map(|&s| {
                let (nh, n, f) = un_idx(s);
                lasso_step(auto, stage, vc, nh, n, f)
            })
            .collect();

        // Witness cycle: from the starved state, let the adversary hold a
        // hostile occupancy (one waiting native, a full foreign load).
        // Every successor of a non-good state is non-good, and with the
        // occupancy fixed the DPA bit must repeat within two steps.
        let hostile = (1.min(cap), cap.max(1).min(cap));
        let (mut nh, mut n, mut f) = un_idx(starved);
        let mut walk: Vec<(bool, u32, u32)> = Vec::new();
        let cycle_start = loop {
            if let Some(pos) = walk
                .iter()
                .position(|&(wnh, wn, wf)| (wnh, wn, wf) == (nh, n, f))
            {
                break pos;
            }
            walk.push((nh, n, f));
            nh = (auto.step)(nh, n, f);
            (n, f) = hostile;
        };
        let cycle: Vec<LassoStep> = walk[cycle_start..]
            .iter()
            .map(|&(wnh, wn, wf)| lasso_step(auto, stage, vc, wnh, wn, wf))
            .collect();
        let first = cycle.first().copied();
        return PropertyReport {
            property: PROP_PROGRESS,
            verdict: AdmitVerdict::Reject,
            detail: format!(
                "native request starves at {point}: reachable arbiter state \
                 {} can never re-enter the native-favoring set W \
                 (priority {} < {} on every future cycle)",
                first.map(|s| s.to_string()).unwrap_or_default(),
                first.map_or(0, |s| s.native_prio),
                first.map_or(0, |s| s.foreign_prio),
            ),
            witness: Some(AdmitWitness::Lasso { point, stem, cycle }),
            states,
            micros: 0,
            wait_bound: None,
        };
    }

    let points = contested_points(cfg).len();
    PropertyReport {
        property: PROP_PROGRESS,
        verdict: AdmitVerdict::Admit,
        detail: format!(
            "all {states} reachable arbiter states re-enter the native-favoring set W \
             at every contested point ({points} points, occupancy cap {cap}); \
             native head-flit wait bounded by {bound} cycles"
        ),
        witness: None,
        states,
        micros: 0,
        wait_bound: Some(bound),
    }
}

/// Is `app` treated as native at a router owned by `owner`? (`APP_NONE`
/// tiles treat all traffic as native.)
fn native_at(owner: AppId, app: AppId) -> bool {
    owner == app || owner == APP_NONE
}

/// Prove or refute region non-interference of the scheme's VC steering on
/// `cfg` × `region` × `routing` (see module docs for the taint domain and
/// the two deliberate scope exemptions).
pub fn check_non_interference(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
    auto: &PriorityAutomaton,
) -> PropertyReport {
    let admit = |detail: String, states: u64| PropertyReport {
        property: PROP_NON_INTERFERENCE,
        verdict: AdmitVerdict::Admit,
        detail,
        witness: None,
        states,
        micros: 0,
        wait_bound: None,
    };
    if region.num_apps() <= 1 {
        return admit("single region: no foreign class exists".to_string(), 0);
    }
    if cfg.regional_vcs == 0 || auto.foreign_pref.is_none() {
        return admit(
            "scheme reserves no regional VCs: nothing to protect".to_string(),
            0,
        );
    }

    let n = cfg.num_routers();
    let conc = cfg.concentration();
    let owner = |r: usize| region.app_of((r * conc) as NodeId);
    let mut visited_total = 0u64;

    for app in 0..region.num_apps() as AppId {
        let nodes = region.nodes_of(app);
        let mut app_routers: Vec<usize> = nodes.iter().map(|&nd| cfg.router_of(nd)).collect();
        app_routers.dedup();
        for &rd in &app_routers {
            let d = cfg.router_coord(rd);
            // Multi-source BFS over the minimal-route channel graph from
            // every other router of the app toward rd, with parents for
            // the witness path.
            let mut seen = vec![false; n];
            let mut parent: Vec<Option<(usize, Port)>> = vec![None; n];
            let mut queue: VecDeque<usize> = VecDeque::new();
            for &r in app_routers.iter().filter(|&&r| r != rd) {
                if !seen[r] {
                    seen[r] = true;
                    queue.push_back(r);
                }
            }
            while let Some(cur) = queue.pop_front() {
                visited_total += 1;
                let c = cfg.router_coord(cur);
                let hops = routing.next_hops(cfg, c, d);
                let cur_native = native_at(owner(cur), app);
                let pref = if cur_native {
                    auto.native_pref
                } else {
                    auto.foreign_pref
                };
                let mut ports: Vec<(Port, bool)> =
                    hops.adaptive.iter().flatten().map(|&p| (p, true)).collect();
                ports.push((hops.escape, false));
                for (p, adaptive) in ports {
                    // Non-minimal hops are the CDG verifier's finding, not
                    // ours; skipping them keeps the walk terminating.
                    if !topology::minimal_hop(cfg, c, d, p) {
                        continue;
                    }
                    let y = cfg.router_at(topology::step(cfg, c, p));
                    if adaptive
                        && pref == Some(VcTag::Regional)
                        && !cur_native
                        && !native_at(owner(y), app)
                    {
                        // Foreign at both the allocating and the holding
                        // router, steered into a regional VC: violation.
                        let mut chain = vec![(cur, p)];
                        let mut x = cur;
                        while let Some((px, pp)) = parent[x] {
                            chain.push((px, pp));
                            x = px;
                        }
                        chain.reverse();
                        let path: Vec<ChannelId> = chain
                            .iter()
                            .map(|&(r, pp)| ChannelId {
                                router: r as NodeId,
                                port: pp,
                                class: ChannelClass::Adaptive,
                                lane: 0,
                            })
                            .collect();
                        let src = nodes
                            .iter()
                            .copied()
                            .find(|&nd| cfg.router_of(nd) == x)
                            .unwrap_or(nodes.first().copied().unwrap_or(0));
                        let dst = nodes
                            .iter()
                            .copied()
                            .find(|&nd| cfg.router_of(nd) == rd)
                            .unwrap_or(0);
                        return PropertyReport {
                            property: PROP_NON_INTERFERENCE,
                            verdict: AdmitVerdict::Reject,
                            detail: format!(
                                "foreign flit of app {app} (flow {src}->{dst}) is steered \
                                 into a native-reserved regional VC at router {y} \
                                 (owner app {}) — interior channel, not a boundary handoff",
                                owner(y)
                            ),
                            witness: Some(AdmitWitness::Taint {
                                app,
                                src,
                                dst,
                                path,
                            }),
                            states: visited_total,
                            micros: 0,
                            wait_bound: None,
                        };
                    }
                    if y != rd && !seen[y] {
                        seen[y] = true;
                        parent[y] = Some((cur, p));
                        queue.push_back(y);
                    }
                }
            }
        }
    }

    admit(
        format!(
            "no foreign-allocated flow reaches a regional VC on an interior channel \
             ({} apps, {visited_total} router visits; escape lanes are class-shared \
             by design — bounded by the escape-CDG acyclicity proof)",
            region.num_apps()
        ),
        visited_total,
    )
}

/// The kernel's half of admission: progress, then non-interference
/// (`experiments::admit::admit_cell` appends the other four properties).
pub fn admit_network(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
    auto: &PriorityAutomaton,
) -> Admission {
    Admission {
        scheme: auto.name.clone(),
        properties: vec![
            check_progress(cfg, auto),
            check_non_interference(cfg, region, routing, auto),
        ],
    }
}

/// Process-wide memoized admission, on the verifier's memo
/// ([`crate::verify::memoized`]) keyed by the network and by everything the
/// two checks read of the automaton ([`automaton_digest_into`]), so two
/// schemes under one label (`RO_Rank` at two batch windows, RAIR at two
/// hysteresis widths) never share a verdict or a wait bound. The full gate,
/// `experiments::admit::admit_cell`, calls this for its first two
/// properties; repeated cells are free.
pub fn admit_network_cached(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
    auto: &PriorityAutomaton,
) -> Admission {
    static CACHE: Mutex<BTreeMap<u64, Admission>> = Mutex::new(BTreeMap::new());
    let mut d = crate::verify::network_digest(cfg, region, routing);
    automaton_digest_into(cfg, auto, &mut d);
    crate::verify::memoized(&CACHE, d.finish(), || {
        admit_network(cfg, region, routing, auto)
    })
}

/// Fold into `d` everything [`check_progress`] and
/// [`check_non_interference`] read of `auto` on `cfg`: its label (the
/// report's `scheme`), aging, VC steering and reset bit, and its step and
/// priority functions tabulated over the grid [`check_progress`] explores.
fn automaton_digest_into(cfg: &SimConfig, auto: &PriorityAutomaton, d: &mut metrics::Digest) {
    d.write_str(&auto.name);
    let (aging, window) = match auto.aging {
        Aging::None => (0, 0),
        Aging::OldestFirst => (1, 0),
        Aging::Batched { window } => (2, window),
    };
    d.write_u64(aging);
    d.write_u64(window);
    for pref in [auto.native_pref, auto.foreign_pref] {
        d.write_u64(match pref {
            None => 0,
            Some(VcTag::Regional) => 1,
            Some(VcTag::Global) => 2,
        });
    }
    d.write_u64(u64::from(auto.initial_native_high));
    let cap = occ_cap(cfg);
    let points = contested_points(cfg);
    for nh in [false, true] {
        // One word per row of the step table: bit `f` is step(nh, n, f)
        // (the cap is at most 24, so a row fits).
        for n in 0..=cap {
            let row = (0..=cap).fold(0u64, |row, f| row | u64::from((auto.step)(nh, n, f)) << f);
            d.write_u64(row);
        }
        for &(_, stage, vc) in &points {
            for is_native in [true, false] {
                d.write_u64((auto.priority)(stage, nh, vc, is_native));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::XyRouting;

    /// Dynamic-DPA-like automaton (the shipped RAIR semantics, inlined so
    /// this crate's tests need no rair dependency): favor the minority
    /// class with a ±delta hysteresis band.
    fn dynamic_dpa(name: &str) -> PriorityAutomaton {
        PriorityAutomaton {
            name: name.to_string(),
            step: Box::new(|prev, n, f| {
                if n == 0 && f == 0 {
                    prev
                } else if n == 0 {
                    true
                } else {
                    let r = f64::from(f) / f64::from(n);
                    if r > 1.2 {
                        true
                    } else if r < 0.8 {
                        false
                    } else {
                        prev
                    }
                }
            }),
            priority: Box::new(|_, nh, _, is_native| if is_native == nh { 2 } else { 1 }),
            native_pref: Some(VcTag::Regional),
            foreign_pref: Some(VcTag::Global),
            aging: Aging::None,
            initial_native_high: false,
        }
    }

    #[test]
    fn dynamic_dpa_admits_progress() {
        let cfg = SimConfig::table1();
        let rep = check_progress(&cfg, &dynamic_dpa("dyn"));
        assert_eq!(rep.verdict, AdmitVerdict::Admit);
        assert!(rep.wait_bound.is_some());
        assert!(rep.states > 0);
    }

    #[test]
    fn round_robin_and_aging_admit_progress() {
        let cfg = SimConfig::table1();
        for auto in [
            PriorityAutomaton::round_robin("rr"),
            PriorityAutomaton::aging("age", None),
            PriorityAutomaton::aging("rank", Some(8000)),
            PriorityAutomaton::fixed_bit("native-high", true),
        ] {
            let rep = check_progress(&cfg, &auto);
            assert_eq!(rep.verdict, AdmitVerdict::Admit, "{}", auto.name);
        }
        // The batched bound includes the window plateau.
        let b_rank = check_progress(&cfg, &PriorityAutomaton::aging("rank", Some(8000)))
            .wait_bound
            .unwrap();
        let b_age = check_progress(&cfg, &PriorityAutomaton::aging("age", None))
            .wait_bound
            .unwrap();
        assert!(b_rank > b_age);
    }

    #[test]
    fn priority_inversion_rejected_with_replayable_lasso() {
        let cfg = SimConfig::table1();
        let auto = PriorityAutomaton::fixed_bit("foreign-high", false);
        let rep = check_progress(&cfg, &auto);
        assert_eq!(rep.property, PROP_PROGRESS);
        assert_eq!(rep.verdict, AdmitVerdict::Reject);
        let Some(AdmitWitness::Lasso { stem, cycle, .. }) = rep.witness else {
            panic!("expected lasso witness");
        };
        assert!(!stem.is_empty() && !cycle.is_empty());
        // Replay: every cycle step defers the native request, and the step
        // function maps each cycle state onto the next one's DPA bit.
        for (i, s) in cycle.iter().enumerate() {
            assert!(
                s.native_prio < s.foreign_prio,
                "native must lose in the cycle"
            );
            let next = cycle[(i + 1) % cycle.len()];
            assert_eq!(
                (auto.step)(s.native_high, s.occ_native, s.occ_foreign),
                next.native_high,
                "cycle must be closed under the step function"
            );
        }
    }

    #[test]
    fn interference_admits_shipped_steering_on_l_shaped_region() {
        // An L-shaped app 0 wrapped around app 1's corner square: minimal
        // intra-app-0 routes must transit app 1's routers.
        let mut cfg = SimConfig::table1();
        cfg.width = 4;
        cfg.height = 4;
        let region = RegionMap::from_fn(&cfg, 2, |c| u8::from(c.x >= 2 && c.y >= 2));
        let auto = dynamic_dpa("dyn");
        let rep = check_non_interference(&cfg, &region, &XyRouting, &auto);
        assert_eq!(rep.verdict, AdmitVerdict::Admit, "{}", rep.detail);
    }

    #[test]
    fn inverted_steering_rejected_with_taint_path() {
        let mut cfg = SimConfig::table1();
        cfg.width = 4;
        cfg.height = 4;
        let region = RegionMap::from_fn(&cfg, 2, |c| u8::from(c.x >= 2 && c.y >= 2));
        let mut auto = dynamic_dpa("inverted");
        auto.foreign_pref = Some(VcTag::Regional);
        let rep = check_non_interference(&cfg, &region, &XyRouting, &auto);
        assert_eq!(rep.property, PROP_NON_INTERFERENCE);
        assert_eq!(rep.verdict, AdmitVerdict::Reject);
        let Some(AdmitWitness::Taint { path, .. }) = rep.witness else {
            panic!("expected taint witness");
        };
        assert!(!path.is_empty());
    }

    #[test]
    fn single_region_is_vacuously_clean() {
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        let rep = check_non_interference(&cfg, &region, &XyRouting, &dynamic_dpa("dyn"));
        assert_eq!(rep.verdict, AdmitVerdict::Admit);
        assert_eq!(rep.states, 0);
    }

    #[test]
    fn cached_admission_is_identical_and_reports_aggregate() {
        let cfg = SimConfig::table1();
        let region = RegionMap::quadrants(&cfg);
        let auto = dynamic_dpa("dyn");
        let a = admit_network_cached(&cfg, &region, &XyRouting, &auto);
        let b = admit_network_cached(&cfg, &region, &XyRouting, &auto);
        assert!(a.is_admitted());
        assert_eq!(a.verdict(), AdmitVerdict::Admit);
        assert_eq!(a.properties.len(), b.properties.len());
        assert_eq!(format!("{a}"), format!("{b}"));
        assert!(a.rejection().is_none());
        assert!(a.wait_bound().is_some());
    }

    /// The memo keys on what the checks read, not on the label: under one
    /// name, a batched rank at two windows keeps two wait bounds, and a
    /// frozen DPA bit at both values keeps both verdicts.
    #[test]
    fn cached_admission_keys_on_parameters_not_the_label() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let local = crate::routing::DuatoLocalAdaptive;
        let cases = [
            (
                PriorityAutomaton::aging("RO_Rank", Some(2_000)),
                PriorityAutomaton::aging("RO_Rank", Some(32_000)),
            ),
            (
                PriorityAutomaton::fixed_bit("RAIR", true),
                PriorityAutomaton::fixed_bit("RAIR", false),
            ),
        ];
        for (a, b) in &cases {
            for auto in [a, b] {
                let cached = admit_network_cached(&cfg, &region, &local, auto);
                let fresh = admit_network(&cfg, &region, &local, auto);
                assert_eq!(format!("{cached}"), format!("{fresh}"));
                assert_eq!(cached.wait_bound(), fresh.wait_bound());
            }
        }
        let bound = |auto| admit_network_cached(&cfg, &region, &local, auto).wait_bound();
        assert_eq!(bound(&cases[0].0), Some(5_460));
        assert_eq!(bound(&cases[0].1), Some(65_460));
        assert!(!admit_network_cached(&cfg, &region, &local, &cases[1].1).is_admitted());
    }

    #[test]
    fn rejected_admission_surfaces_the_property() {
        let cfg = SimConfig::table1();
        let region = RegionMap::quadrants(&cfg);
        let auto = PriorityAutomaton::fixed_bit("foreign-high", false);
        let adm = admit_network(&cfg, &region, &XyRouting, &auto);
        assert!(!adm.is_admitted());
        assert_eq!(adm.rejection().map(|p| p.property), Some(PROP_PROGRESS));
    }
}
