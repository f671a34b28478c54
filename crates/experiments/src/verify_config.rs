//! `repro verify-config` — the static deadlock-freedom and legality
//! verifier over the shipped region × routing matrix of every canonical
//! topology, then over its [`controls`]: broken configurations that must
//! each be rejected with a concrete witness.
//!
//! Every row of the positive matrix proves, for one `(topology, region,
//! routing)` triple: escape-CDG acyclicity (Tarjan over the extended
//! dependency graph), escape connectedness, and all-pairs minimal-path
//! legality; the LBDR rows additionally apply the region-derived
//! connectivity bits as a link filter. Scheme parameters (STC rank
//! totality, DPA hysteresis bounds) are checked separately — they are
//! routing-independent. [`NegativeCase`], [`controls_table`] and
//! [`judge_controls`] serve the controls of `admit` and `chaos` as well.

use metrics::report::{Table, Value};
use noc_sim::config::SimConfig;
use noc_sim::ids::{Coord, Port, PORT_EAST, PORT_WEST};
use noc_sim::region::RegionMap;
use noc_sim::routing::{NextHops, RoutingAlgorithm, SelectCtx};
use noc_sim::topology::TopologyKind;
use noc_sim::verify::{Verifier, VerifyReport, Witness};
use rair::scheme::{Routing, Scheme};
use std::time::Instant;

/// One verified `(topology, region, routing)` point of the positive matrix.
pub struct VerifyRow {
    pub topology: &'static str,
    pub region: &'static str,
    pub routing: &'static str,
    /// Whether LBDR connectivity bits confined the analysis to regions.
    pub lbdr: bool,
    pub channels: usize,
    pub dep_edges: usize,
    pub pairs: usize,
    pub violations: u64,
    pub millis: f64,
    pub first_witness: Option<String>,
}

/// The four shipped region maps for a topology's canonical config. Every
/// rectangular region spans at most half of each wrapping dimension, so
/// minimal paths between same-region routers never leave the rectangle —
/// LBDR confinement stays satisfiable on the torus and ring.
pub(crate) fn regions(cfg: &SimConfig) -> Vec<(&'static str, RegionMap)> {
    match cfg.topology {
        // 8×8 grids reuse the paper's exact layouts (Figs. 8/11/13).
        TopologyKind::Mesh | TopologyKind::Torus => vec![
            ("single", RegionMap::single(cfg)),
            ("halves", RegionMap::halves(cfg)),
            ("quadrants", RegionMap::quadrants(cfg)),
            ("six", RegionMap::six_regions(cfg)),
        ],
        TopologyKind::Ring => vec![
            ("single", RegionMap::single(cfg)),
            ("halves", RegionMap::halves(cfg)),
            ("quarters", RegionMap::grid(cfg, 4, 1)),
            ("eighths", RegionMap::grid(cfg, 8, 1)),
        ],
        TopologyKind::CMesh { .. } => vec![
            ("single", RegionMap::single(cfg)),
            ("halves", RegionMap::halves(cfg)),
            ("quadrants", RegionMap::quadrants(cfg)),
            ("columns", RegionMap::grid(cfg, cfg.width, 1)),
        ],
    }
}

/// The shipped schemes with representative parameters, each paired with
/// the application count it is configured for (the two-app figures use
/// two oracle intensities; the six-app workloads use online estimation).
fn schemes() -> Vec<(Scheme, usize)> {
    vec![
        (Scheme::RoRr, 6),
        (Scheme::RoAge, 6),
        (Scheme::ro_rank(vec![0.1, 0.9]), 2),
        (Scheme::ro_rank_online(6), 6),
        (Scheme::rair(), 6),
        (Scheme::rair_va_only(), 6),
        (Scheme::rair_native_high(), 6),
        (Scheme::rair_foreign_high(), 6),
    ]
}

const ROUTINGS: [Routing; 3] = [Routing::Xy, Routing::Local, Routing::Dbar];

/// Run the 4-region × 3-routing × {bare, LBDR} matrix on the canonical
/// config ([`SimConfig::table1_topology`]) of each of `kinds`, in order;
/// `repro verify-config` runs [`TopologyKind::CANONICAL`].
pub fn run_matrix(kinds: &[TopologyKind]) -> Vec<VerifyRow> {
    let mut rows = Vec::new();
    for &kind in kinds {
        let cfg = SimConfig::table1_topology(kind);
        for (region, map) in regions(&cfg) {
            for routing in ROUTINGS {
                let alg = routing.build();
                for lbdr in [false, true] {
                    let t0 = Instant::now();
                    let r = if lbdr {
                        rair::verify::verify_lbdr(&cfg, &map, alg.as_ref())
                    } else {
                        Verifier::new(&cfg, alg.as_ref()).run()
                    };
                    rows.push(VerifyRow {
                        topology: kind.label(),
                        region,
                        routing: routing.label(),
                        lbdr,
                        channels: r.channels,
                        dep_edges: r.dep_edges,
                        pairs: r.pairs_checked,
                        violations: r.violation_count,
                        millis: t0.elapsed().as_secs_f64() * 1e3,
                        first_witness: r.violations.first().map(ToString::to_string),
                    });
                }
            }
        }
    }
    rows
}

/// Check every shipped scheme's parameters; returns `(label, defects)`.
pub fn scheme_checks() -> Vec<(String, Vec<String>)> {
    schemes()
        .iter()
        .map(|(s, apps)| (s.label(), rair::verify::check_scheme(s, *apps)))
        .collect()
}

/// The matrix as the one report: the text table and the `rows` of
/// `VERIFY_report.json`.
pub fn table(rows: &[VerifyRow]) -> Table {
    Table::of(
        "Static verification — escape-CDG acyclicity + region legality",
        rows,
        &[
            ("topology", "topology", |r| r.topology.into()),
            ("region", "region", |r| r.region.into()),
            ("routing", "routing", |r| r.routing.into()),
            ("lbdr", "lbdr", |r| r.lbdr.into()),
            ("channels", "channels", |r| r.channels.into()),
            ("dep edges", "dep_edges", |r| r.dep_edges.into()),
            ("pairs", "pairs", |r| r.pairs.into()),
            ("violations", "violations", |r| r.violations.into()),
            ("ms", "millis", |r| Value::Float(r.millis, 1)),
        ],
    )
}

/// One negative control of a self-check — a deliberately broken
/// configuration, or for `chaos` a tampered journal — and whether the check
/// caught it.
pub struct NegativeCase {
    pub name: String,
    /// Did the check reject or detect it (as it must)?
    pub caught: bool,
    /// The property that refuted it.
    pub property: &'static str,
    /// The first witness (cycle, unreachable pair, …) or defect message.
    pub witness: String,
}

/// The controls as the one rendering: the text table and the `controls`
/// rows of `VERIFY_report.json`, `ADMIT_report.json` and
/// `CHAOS_report.json`.
pub fn controls_table(cases: &[NegativeCase]) -> Table {
    Table::of(
        "Negative controls — each must be caught, with a witness",
        cases,
        &[
            ("control", "control", |c| c.name.clone().into()),
            ("caught", "", |c| if c.caught { "yes" } else { "NO" }.into()),
            ("", "caught", |c| c.caught.into()),
            ("property", "property", |c| c.property.into()),
            ("witness", "witness", |c| c.witness.clone().into()),
        ],
    )
}

/// The one verdict on a self-check's controls: `Err` naming every control
/// that was not caught. A check whose control passes silently is not
/// testing anything.
pub fn judge_controls(cases: &[NegativeCase]) -> Result<(), String> {
    let missed: Vec<&str> = (cases.iter().filter(|c| !c.caught))
        .map(|c| c.name.as_str())
        .collect();
    let (m, n, names) = (missed.len(), cases.len(), missed.join(", "));
    match m {
        0 => Ok(()),
        _ => Err(format!("{m} of {n} negative controls NOT CAUGHT: {names}")),
    }
}

/// Mixed dimension-order "escape": XY toward even-parity destinations, YX
/// toward odd — the union of both turn sets allows all eight turns, a
/// textbook cyclic mesh CDG. Only ever handed to the verifier (directly,
/// or through `Network::new`'s static check) to prove it finds the cycle.
pub struct MixedDorEscape;

impl MixedDorEscape {
    fn esc(cfg: &SimConfig, cur: Coord, dst: Coord) -> Port {
        if (dst.x + dst.y).is_multiple_of(2) {
            noc_sim::topology::escape_hop(cfg, cur, dst).0 // XY
        } else if dst.y != cur.y {
            // YX: exhaust Y first.
            if dst.y > cur.y {
                noc_sim::ids::PORT_SOUTH
            } else {
                noc_sim::ids::PORT_NORTH
            }
        } else if dst.x > cur.x {
            PORT_EAST
        } else {
            PORT_WEST
        }
    }
}

impl RoutingAlgorithm for MixedDorEscape {
    fn name(&self) -> &'static str {
        "MixedDOR"
    }
    fn select(&self, _ctx: &SelectCtx<'_>, _cands: &[Port]) -> usize {
        0
    }
    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        NextHops {
            adaptive: [None, None],
            escape: Self::esc(cfg, cur, dst),
            escape_lane: 0,
        }
    }
}

/// A torus/ring "escape" that follows the correct minimal dimension-order
/// port but pins every packet to dateline lane 0: the wrap link closes the
/// lane-0 channel ring, a textbook cyclic escape CDG on any wrapping
/// topology. Only the verifier ever sees it — it exists to prove the CDG
/// pass extracts the wrap cycle when the dateline lane switch is missing.
pub struct NoDatelineEscape;

impl RoutingAlgorithm for NoDatelineEscape {
    fn name(&self) -> &'static str {
        "NoDateline"
    }
    fn select(&self, _ctx: &SelectCtx<'_>, _cands: &[Port]) -> usize {
        0
    }
    fn next_hops(&self, cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        let (escape, _lane) = noc_sim::topology::escape_hop(cfg, cur, dst);
        NextHops {
            adaptive: [None, None],
            escape,
            escape_lane: 0,
        }
    }
}

/// A wrapping topology's escape without its dateline lane switch
/// ([`NoDatelineEscape`]): the verifier must reject it with the lane-0
/// wrap cycle as the witness.
pub fn no_dateline_case(kind: TopologyKind) -> NegativeCase {
    let cfg = SimConfig::table1_topology(kind);
    let r = Verifier::new(&cfg, &NoDatelineEscape).run();
    let name = format!("{}-no-dateline-escape", kind.label());
    case(&name, &r, is_cycle)
}

fn is_cycle(w: &Witness) -> bool {
    matches!(w, Witness::Cycle(_))
}

/// The verifier's negative controls: five broken mesh configurations, then
/// the torus and the ring without their dateline lane switch. Every one
/// must come back caught, with a witness.
pub fn controls() -> Vec<NegativeCase> {
    let cfg = SimConfig::table1();
    let local = noc_sim::routing::DuatoLocalAdaptive;

    // 1. Escape VCs disabled under fully-adaptive routing: the adaptive
    //    CDG alone must carry deadlock freedom, and it cannot.
    let r = Verifier::new(&cfg, &local).without_escape().run();
    let mut cases = vec![case("escape-vcs-disabled", &r, is_cycle)];

    // 2. A "routing scheme" whose escape function mixes XY and YX by
    //    destination parity: all eight turns allowed, cyclic escape CDG.
    let r = Verifier::new(&cfg, &MixedDorEscape).run();
    cases.push(case("mixed-dor-escape", &r, is_cycle));

    // 3. A region map that severs a dimension: every east-west link
    //    between x=3 and x=4 removed.
    let r = Verifier::new(&cfg, &local)
        .with_link_filter(|router, port| {
            let c = SimConfig::table1().coord_of(router);
            !((c.x == 3 && port == PORT_EAST) || (c.x == 4 && port == PORT_WEST))
        })
        .run();
    cases.push(case("severed-dimension", &r, |w| {
        matches!(
            w,
            Witness::UnreachablePair { .. } | Witness::NoEscape { .. }
        )
    }));

    // 4. Inconsistent LBDR connectivity bits (asymmetric link).
    let mut bits = rair::lbdr::ConnectivityBits::full(&cfg);
    bits.sever(27, PORT_EAST);
    let errs = bits.check_consistency(&cfg);
    cases.push(defect("inconsistent-lbdr-bits", "lbdr-consistency", errs));

    // 5. A NaN STC intensity: the rank comparison is not a total order.
    let errs = rair::verify::check_scheme(&Scheme::ro_rank(vec![0.1, f64::NAN]), 2);
    cases.push(defect("nan-rank-intensity", "scheme-parameters", errs));

    cases.extend([TopologyKind::Torus, TopologyKind::Ring].map(no_dateline_case));
    cases
}

/// A verifier control: caught by a violation whose witness is the kind
/// `want` accepts, and shown by that violation's check and witness.
fn case(name: &str, r: &VerifyReport, want: impl Fn(&Witness) -> bool) -> NegativeCase {
    let hit = r.violations.iter().find(|v| want(&v.witness));
    let shown = hit.or(r.violations.first());
    NegativeCase {
        name: name.into(),
        caught: !r.ok() && hit.is_some(),
        property: shown.map_or("", |v| v.check),
        witness: shown.map(|v| v.witness.to_string()).unwrap_or_default(),
    }
}

/// A control refuted by a list of defect messages (caught iff non-empty).
fn defect(name: &str, property: &'static str, errs: Vec<String>) -> NegativeCase {
    NegativeCase {
        name: name.into(),
        caught: !errs.is_empty(),
        property,
        witness: errs.into_iter().next().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_matrix_is_clean() {
        let rows = run_matrix(&[TopologyKind::Mesh]);
        assert_eq!(rows.len(), 4 * 3 * 2);
        for r in &rows {
            assert_eq!(
                r.violations, 0,
                "{}/{} (lbdr {}): {:?}",
                r.region, r.routing, r.lbdr, r.first_witness
            );
        }
        for (label, errs) in scheme_checks() {
            assert!(errs.is_empty(), "{label}: {errs:?}");
        }
    }

    /// The wrapping and concentrated kinds, the concentrated mesh at both
    /// ends of its supported range (2 and 8 NIs per router) as well.
    #[test]
    fn per_topology_matrices_are_clean() {
        for kind in [
            TopologyKind::Torus,
            TopologyKind::Ring,
            TopologyKind::CMesh { concentration: 2 },
            TopologyKind::CMesh { concentration: 4 },
            TopologyKind::CMesh { concentration: 8 },
        ] {
            let rows = run_matrix(&[kind]);
            assert_eq!(rows.len(), 4 * 3 * 2, "{kind:?}");
            for r in &rows {
                assert_eq!(
                    r.violations, 0,
                    "{kind:?} {}/{} (lbdr {}): {:?}",
                    r.region, r.routing, r.lbdr, r.first_witness
                );
            }
        }
    }

    #[test]
    fn every_injected_fault_is_rejected_with_witness() {
        let cases = controls();
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "escape-vcs-disabled",
                "mixed-dor-escape",
                "severed-dimension",
                "inconsistent-lbdr-bits",
                "nan-rank-intensity",
                "torus-no-dateline-escape",
                "ring-no-dateline-escape",
            ]
        );
        for c in &cases {
            assert!(c.caught, "{} was not rejected", c.name);
            assert!(!c.witness.is_empty(), "{} has no witness", c.name);
        }
        assert_eq!(judge_controls(&cases), Ok(()));
        // The ring's lane-0 wrap cycle runs once around all 16 routers.
        let ring = &cases[6].witness;
        assert_eq!(ring.matches(":esc0").count(), 17, "{ring}");
        assert!(ring.contains("r15:E:esc0 -> r0:E:esc0"), "{ring}");
    }

    /// A control the check misses fails it, by name — the only way a
    /// self-check fails on its controls.
    #[test]
    fn a_missed_control_fails_the_check_by_name() {
        let mut cases = controls();
        cases[1].caught = false;
        cases[6].caught = false;
        let err = judge_controls(&cases).unwrap_err();
        assert_eq!(
            err,
            "2 of 7 negative controls NOT CAUGHT: mixed-dor-escape, ring-no-dateline-escape"
        );
    }
}
