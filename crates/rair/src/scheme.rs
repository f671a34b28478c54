//! Named interference-reduction schemes and routing choices, matching the
//! configurations compared in the paper's evaluation (§V).

use crate::dpa::DpaMode;
use crate::msp::MspConfig;
use crate::policy::RairPolicy;
use noc_sim::admit::{Aging, PriorityAutomaton};
use noc_sim::arbitration::{
    AgeBased, PriorityPolicy, RoundRobin, StcRank, StcRankOnline, DEFAULT_BATCH_WINDOW,
    DEFAULT_RANK_INTERVAL,
};
use noc_sim::routing::{DbarAdaptive, DuatoLocalAdaptive, RoutingAlgorithm, XyRouting};
use noc_sim::vc::VcTag;
use serde::{Deserialize, Serialize};

/// An interference-reduction scheme (the arbitration-priority dimension).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Region-oblivious round-robin (`RO_RR`).
    RoRr,
    /// Region-oblivious oldest-first (`RO_Age`).
    RoAge,
    /// Optimized STC (`RO_Rank`): oracle per-application intensities.
    RoRank {
        /// Configured network intensity per application (the oracle input;
        /// lower intensity ⇒ higher rank).
        intensities: Vec<f64>,
        /// Batching window in cycles.
        batch_window: u64,
    },
    /// `RO_Rank` with online intensity estimation instead of the oracle —
    /// an extension beyond the paper (the paper's STC is assumed optimal).
    RoRankOnline {
        num_apps: usize,
        batch_window: u64,
        rank_interval: u64,
    },
    /// The proposed technique (`RA_RAIR`) or one of its ablations.
    Rair { msp: MspConfig, dpa: DpaMode },
}

impl Scheme {
    /// `RO_Rank` with the default batching window.
    pub fn ro_rank(intensities: Vec<f64>) -> Self {
        Scheme::RoRank {
            intensities,
            batch_window: DEFAULT_BATCH_WINDOW,
        }
    }

    /// `RO_Rank` with default online-estimation parameters.
    pub fn ro_rank_online(num_apps: usize) -> Self {
        Scheme::RoRankOnline {
            num_apps,
            batch_window: DEFAULT_BATCH_WINDOW,
            rank_interval: DEFAULT_RANK_INTERVAL,
        }
    }

    /// Full RAIR (VA+SA MSP, dynamic DPA).
    pub fn rair() -> Self {
        Scheme::Rair {
            msp: MspConfig::va_and_sa(),
            dpa: DpaMode::dynamic(),
        }
    }

    /// `RAIR_VA` ablation (MSP only at the VA stage).
    pub fn rair_va_only() -> Self {
        Scheme::Rair {
            msp: MspConfig::va_only(),
            dpa: DpaMode::dynamic(),
        }
    }

    /// `RAIR_NativeH` ablation.
    pub fn rair_native_high() -> Self {
        Scheme::Rair {
            msp: MspConfig::va_and_sa(),
            dpa: DpaMode::FixedNativeHigh,
        }
    }

    /// `RAIR_ForeignH` ablation.
    pub fn rair_foreign_high() -> Self {
        Scheme::Rair {
            msp: MspConfig::va_and_sa(),
            dpa: DpaMode::FixedForeignHigh,
        }
    }

    /// Instantiate the priority policy.
    pub fn build(&self) -> Box<dyn PriorityPolicy> {
        match self {
            Scheme::RoRr => Box::new(RoundRobin),
            Scheme::RoAge => Box::new(AgeBased),
            Scheme::RoRank {
                intensities,
                batch_window,
            } => Box::new(StcRank::from_intensities(intensities, *batch_window)),
            Scheme::RoRankOnline {
                num_apps,
                batch_window,
                rank_interval,
            } => Box::new(StcRankOnline::new(*num_apps, *batch_window, *rank_interval)),
            Scheme::Rair { msp, dpa } => Box::new(RairPolicy::with(*msp, *dpa)),
        }
    }

    /// The scheme's priority machinery as the finite transition system
    /// the static admission pipeline explores ([`noc_sim::admit`]). The
    /// RAIR variants share their pure step ([`DpaMode::next_native_high`])
    /// and priority ([`crate::policy::stage_priority`]) functions with the
    /// kernel policy, so the analyzer and the simulator cannot drift; the
    /// region-oblivious schemes map onto the round-robin/aging abstractions
    /// (their priorities are pure functions of request age, not of any
    /// router state).
    pub fn automaton(&self) -> PriorityAutomaton {
        match self {
            Scheme::RoRr => PriorityAutomaton::round_robin("RO_RR"),
            Scheme::RoAge => PriorityAutomaton::aging("RO_Age", None),
            Scheme::RoRank { batch_window, .. } => {
                PriorityAutomaton::aging("RO_Rank", Some(*batch_window))
            }
            Scheme::RoRankOnline {
                batch_window,
                rank_interval,
                ..
            } => PriorityAutomaton::aging("RO_RankOnline", Some(batch_window + rank_interval)),
            Scheme::Rair { msp, dpa } => {
                let (msp, dpa) = (*msp, *dpa);
                PriorityAutomaton {
                    name: self.label(),
                    step: Box::new(move |prev, n, f| dpa.next_native_high(prev, n, f)),
                    priority: Box::new(move |stage, nh, vc, is_native| {
                        crate::policy::stage_priority(msp, stage, nh, vc, is_native)
                    }),
                    native_pref: Some(VcTag::Regional),
                    foreign_pref: Some(VcTag::Global),
                    aging: Aging::None,
                    // Router::new resets the DPA bit to foreign-high.
                    initial_native_high: false,
                }
            }
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Scheme::RoRr => "RO_RR".into(),
            Scheme::RoAge => "RO_Age".into(),
            Scheme::RoRank { .. } => "RO_Rank".into(),
            Scheme::RoRankOnline { .. } => "RO_RankOnline".into(),
            Scheme::Rair { msp, dpa } => match (msp, dpa) {
                (m, DpaMode::Dynamic { .. }) if *m == MspConfig::va_and_sa() => "RA_RAIR".into(),
                (m, d) if *m == MspConfig::va_and_sa() => format!("RAIR_{}", d.label()),
                (m, _) => format!("RAIR_{}", m.label()),
            },
        }
    }
}

/// The routing-algorithm dimension of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Routing {
    /// Deterministic XY.
    Xy,
    /// Local-information adaptive (Duato escape + free-VC selection).
    Local,
    /// DBAR: region-aware non-local congestion selection.
    Dbar,
}

impl Routing {
    /// Every routing, in the order the matrices visit them.
    pub const ALL: [Routing; 3] = [Routing::Xy, Routing::Local, Routing::Dbar];

    /// Instantiate the routing algorithm.
    pub fn build(&self) -> Box<dyn RoutingAlgorithm> {
        match self {
            Routing::Xy => Box::new(XyRouting),
            Routing::Local => Box::new(DuatoLocalAdaptive),
            Routing::Dbar => Box::new(DbarAdaptive),
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            Routing::Xy => "XY",
            Routing::Local => "Local",
            Routing::Dbar => "DBAR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Scheme::RoRr.label(), "RO_RR");
        assert_eq!(Scheme::ro_rank(vec![0.1, 0.9]).label(), "RO_Rank");
        assert_eq!(Scheme::rair().label(), "RA_RAIR");
        assert_eq!(Scheme::rair_va_only().label(), "RAIR_VA");
        assert_eq!(Scheme::rair_native_high().label(), "RAIR_NativeH");
        assert_eq!(Scheme::rair_foreign_high().label(), "RAIR_ForeignH");
        assert_eq!(Routing::Local.label(), "Local");
        assert_eq!(Routing::Dbar.label(), "DBAR");
    }

    #[test]
    fn automata_carry_scheme_labels_and_admission_verdicts() {
        use noc_sim::admit::{check_progress, AdmitVerdict};
        use noc_sim::config::SimConfig;
        let cfg = SimConfig::table1();
        // Every shipped scheme is starvation-free.
        for s in [
            Scheme::RoRr,
            Scheme::RoAge,
            Scheme::ro_rank(vec![0.1, 0.3]),
            Scheme::ro_rank_online(2),
            Scheme::rair(),
            Scheme::rair_va_only(),
            Scheme::rair_native_high(),
        ] {
            let auto = s.automaton();
            assert_eq!(auto.name, s.label());
            let rep = check_progress(&cfg, &auto);
            assert_eq!(rep.verdict, AdmitVerdict::Admit, "{}", s.label());
        }
        // The ForeignH priority inversion is the pinned negative.
        let rep = check_progress(&cfg, &Scheme::rair_foreign_high().automaton());
        assert_eq!(rep.verdict, AdmitVerdict::Reject);
        assert!(rep.witness.is_some());
    }

    #[test]
    fn build_produces_named_policies() {
        assert_eq!(Scheme::RoRr.build().name(), "RO_RR");
        assert_eq!(Scheme::RoAge.build().name(), "RO_Age");
        assert_eq!(Scheme::ro_rank(vec![0.5]).build().name(), "RO_Rank");
        assert_eq!(Scheme::rair().build().name(), "RA_RAIR");
        assert_eq!(Routing::Xy.build().name(), "XY");
        assert_eq!(Routing::Dbar.build().name(), "DBAR");
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn scheme_serde_roundtrip() {
        for scheme in [
            Scheme::RoRr,
            Scheme::RoAge,
            Scheme::ro_rank(vec![0.1, 0.9]),
            Scheme::ro_rank_online(6),
            Scheme::rair(),
            Scheme::rair_native_high(),
            Scheme::rair_va_only(),
        ] {
            let json = serde_json_like(&scheme);
            assert!(!json.is_empty());
        }
    }

    /// Round-trip through the serde data model without pulling in a JSON
    /// dependency: use the `serde_test`-style token check via bincode-free
    /// cloning — here we settle for asserting `Serialize` compiles and the
    /// value equality survives a clone (the formats are exercised by the
    /// trace module's binary codec).
    fn serde_json_like<T: serde::Serialize + Clone + PartialEq + std::fmt::Debug>(v: &T) -> String {
        let cloned = v.clone();
        assert_eq!(&cloned, v);
        format!("{v:?}")
    }

    #[test]
    fn routing_is_copy_and_comparable() {
        let r = Routing::Dbar;
        let r2 = r;
        assert_eq!(r, r2);
        assert_ne!(Routing::Xy, Routing::Local);
    }
}
