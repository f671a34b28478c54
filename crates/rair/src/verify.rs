//! Static checks for the RAIR-side configuration surface: scheme rank
//! totality (MSP/DPA/STC parameters) and LBDR-confined region legality.
//!
//! The `noc_sim::verify` module proves the routing substrate deadlock-free;
//! this module proves the *policy* layer well-formed — a `NaN` STC
//! intensity or a DPA hysteresis width outside `(0, 1)` silently breaks
//! the total order the arbitration stages rely on — and wires the LBDR
//! connectivity bits of [`crate::lbdr::ConnectivityBits`] into the
//! substrate verifier as link/pair filters so each confined region is
//! shown to retain minimal legal paths.

use crate::dpa::DpaMode;
use crate::lbdr::ConnectivityBits;
use crate::scheme::Scheme;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::routing::RoutingAlgorithm;
use noc_sim::verify::{Verifier, VerifyReport};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Check that a scheme's parameters define a *total* priority order for
/// `num_apps` applications. Returns one message per defect (empty = ok).
pub fn check_scheme(scheme: &Scheme, num_apps: usize) -> Vec<String> {
    let mut errs = Vec::new();
    match scheme {
        Scheme::RoRr | Scheme::RoAge => {}
        Scheme::RoRank {
            intensities,
            batch_window,
        } => {
            if *batch_window == 0 {
                errs.push("RO_Rank: batch_window must be nonzero".into());
            }
            if intensities.len() < num_apps {
                errs.push(format!(
                    "RO_Rank: {} intensities for {num_apps} applications — \
                     unranked applications break rank totality",
                    intensities.len()
                ));
            }
            for (i, x) in intensities.iter().enumerate() {
                if !x.is_finite() || *x < 0.0 {
                    errs.push(format!(
                        "RO_Rank: intensity[{i}] = {x} is not finite and \
                         non-negative — the rank comparison is not a total order"
                    ));
                }
            }
        }
        Scheme::RoRankOnline {
            num_apps: n,
            batch_window,
            rank_interval,
        } => {
            if *batch_window == 0 {
                errs.push("RO_RankOnline: batch_window must be nonzero".into());
            }
            if *rank_interval == 0 {
                errs.push("RO_RankOnline: rank_interval must be nonzero".into());
            }
            if *n < num_apps {
                errs.push(format!(
                    "RO_RankOnline: sized for {n} applications but the \
                     scenario has {num_apps}"
                ));
            }
        }
        // Every MSP stage combination is a legal ablation; only the DPA
        // hysteresis width can break the priority relation.
        Scheme::Rair { msp: _, dpa } => {
            if let DpaMode::Dynamic { delta } = dpa {
                if !delta.is_finite() || *delta <= 0.0 || *delta >= 1.0 {
                    errs.push(format!(
                        "RAIR: DPA hysteresis delta = {delta} must be a \
                         finite value in (0, 1) — outside it the native/foreign \
                         priority bit oscillates or never switches"
                    ));
                }
            }
        }
    }
    errs
}

/// Verify the LBDR-restricted variant of `routing` over `region`: the
/// connectivity bits derived from the region map are applied as a link
/// filter (packets cannot leave their region) and legality is required for
/// every intra-region pair. Deadlock-freedom of the escape subgraph is
/// re-proven under the restriction — a subgraph of an acyclic graph is
/// acyclic, but the verifier computes it rather than assuming it. Memoized
/// process-wide per network ([`noc_sim::verify::network_digest`]): `repro
/// serve` gates every job on it, and a jobs file repeats a few networks.
pub fn verify_lbdr(
    cfg: &SimConfig,
    region: &RegionMap,
    routing: &dyn RoutingAlgorithm,
) -> VerifyReport {
    static CACHE: Mutex<BTreeMap<u64, VerifyReport>> = Mutex::new(BTreeMap::new());
    let key = noc_sim::verify::network_digest(cfg, region, routing).finish();
    noc_sim::verify::memoized(&CACHE, key, || {
        let bits = ConnectivityBits::from_region(cfg, region);
        // The verifier hands the filters *router* indices; region membership
        // is per node, so map a router to its base node (region maps are
        // constant within a router on a concentrated mesh).
        let c = cfg.concentration() as u16;
        Verifier::new(cfg, routing)
            .with_link_filter(move |r, p| bits.usable(r, p))
            .with_pair_filter(move |r, d| region.app_of(r * c) == region.app_of(d * c))
            .run()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::ids::PORT_EAST;
    use noc_sim::routing::DuatoLocalAdaptive;
    use noc_sim::verify::Witness;

    #[test]
    fn shipped_schemes_are_total() {
        for s in [
            Scheme::RoRr,
            Scheme::RoAge,
            Scheme::ro_rank(vec![0.1, 0.9]),
            Scheme::ro_rank_online(6),
            Scheme::rair(),
            Scheme::rair_va_only(),
            Scheme::rair_native_high(),
            Scheme::rair_foreign_high(),
        ] {
            assert!(check_scheme(&s, 2).is_empty(), "{}", s.label());
        }
    }

    #[test]
    fn nan_intensity_breaks_rank_totality() {
        let s = Scheme::ro_rank(vec![0.1, f64::NAN]);
        let errs = check_scheme(&s, 2);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("total order"), "{}", errs[0]);
    }

    #[test]
    fn missing_rank_and_zero_windows_are_rejected() {
        // Fewer intensities than applications: the rank is partial.
        let errs = check_scheme(&Scheme::ro_rank(vec![0.5]), 3);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("rank totality"), "{}", errs[0]);
        // Zero batching/ranking windows can never re-rank.
        let s = Scheme::RoRank {
            intensities: vec![0.1, 0.9],
            batch_window: 0,
        };
        assert_eq!(check_scheme(&s, 2).len(), 1);
        let s = Scheme::RoRankOnline {
            num_apps: 1,
            batch_window: 0,
            rank_interval: 0,
        };
        assert_eq!(check_scheme(&s, 2).len(), 3);
    }

    #[test]
    fn bad_dpa_delta_is_rejected() {
        for delta in [0.0, 1.0, -0.2, f64::NAN, f64::INFINITY] {
            let s = Scheme::Rair {
                msp: crate::msp::MspConfig::va_and_sa(),
                dpa: DpaMode::Dynamic { delta },
            };
            assert_eq!(check_scheme(&s, 2).len(), 1, "delta {delta}");
        }
    }

    #[test]
    fn quadrant_regions_verify_under_lbdr() {
        let cfg = SimConfig::table1();
        for region in [
            RegionMap::single(&cfg),
            RegionMap::halves(&cfg),
            RegionMap::quadrants(&cfg),
        ] {
            let r = verify_lbdr(&cfg, &region, &DuatoLocalAdaptive);
            assert!(r.ok(), "{:?}", r.violations.first());
        }
    }

    #[test]
    fn disconnected_region_fails_lbdr_legality() {
        // App 0 owns the two opposite corners and nothing between them:
        // confined traffic can never cross app 1's territory.
        let cfg = SimConfig::table1();
        let region = RegionMap::from_fn(&cfg, 2, |c| {
            u8::from(!((c.x == 0 && c.y == 0) || (c.x == 7 && c.y == 7)))
        });
        let r = verify_lbdr(&cfg, &region, &DuatoLocalAdaptive);
        assert!(!r.ok());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v.witness, Witness::UnreachablePair { .. })));
    }

    #[test]
    fn severed_bit_is_inconsistent() {
        let cfg = SimConfig::table1();
        let mut bits = ConnectivityBits::full(&cfg);
        assert!(bits.check_consistency(&cfg).is_empty());
        bits.sever(27, PORT_EAST);
        let errs = bits.check_consistency(&cfg);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("asymmetric"), "{}", errs[0]);
    }
}
