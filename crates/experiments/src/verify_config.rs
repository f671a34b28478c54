//! `repro verify-config` — run the static deadlock-freedom and legality
//! verifier over the full shipped scheme × routing × region matrix, plus a
//! battery of deliberately broken configurations that must each be
//! rejected with a concrete witness.
//!
//! Every row of the positive matrix proves, for one `(region, routing)`
//! pair: escape-CDG acyclicity (Tarjan over the extended dependency
//! graph), escape connectedness, and all-pairs minimal-path legality; the
//! LBDR rows additionally apply the region-derived connectivity bits as a
//! link filter. Scheme parameters (STC rank totality, DPA hysteresis
//! bounds) are checked separately — they are routing-independent.

use metrics::report::{Table, Value};
use noc_sim::config::SimConfig;
use noc_sim::ids::{Coord, Port, PORT_EAST, PORT_WEST};
use noc_sim::region::RegionMap;
use noc_sim::routing::{escape_port, NextHops, RoutingAlgorithm, SelectCtx};
use noc_sim::topology::TopologyKind;
use noc_sim::verify::{Verifier, VerifyReport, Witness};
use rair::scheme::{Routing, Scheme};
use std::time::Instant;

/// One verified `(region, routing)` point of the positive matrix.
pub struct VerifyRow {
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
/// config of `kind` ([`SimConfig::table1_topology`]).
pub fn run_matrix_for(kind: TopologyKind) -> Vec<VerifyRow> {
    let cfg = SimConfig::table1_topology(kind);
    let mut rows = Vec::new();
    for (rname, region) in regions(&cfg) {
        for routing in ROUTINGS {
            let alg = routing.build();
            for lbdr in [false, true] {
                let t0 = Instant::now();
                let report = if lbdr {
                    rair::verify::verify_lbdr(&cfg, &region, alg.as_ref())
                } else {
                    Verifier::new(&cfg, alg.as_ref()).run()
                };
                rows.push(row(rname, routing.label(), lbdr, &report, t0));
            }
        }
    }
    rows
}

fn row(
    region: &'static str,
    routing: &'static str,
    lbdr: bool,
    r: &VerifyReport,
    t0: Instant,
) -> VerifyRow {
    VerifyRow {
        region,
        routing,
        lbdr,
        channels: r.channels,
        dep_edges: r.dep_edges,
        pairs: r.pairs_checked,
        violations: r.violation_count,
        millis: t0.elapsed().as_secs_f64() * 1e3,
        first_witness: r.violations.first().map(std::string::ToString::to_string),
    }
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

/// One deliberately broken configuration and the verdict of the static
/// check it was fed to (this verifier, or the admission pipeline).
pub struct NegativeCase {
    pub name: &'static str,
    /// Did the check reject it (as it must)?
    pub rejected: bool,
    /// The admission property that refuted it; empty for the verifier.
    pub property: String,
    /// The first witness (cycle, unreachable pair, …) or defect message.
    pub witness: String,
}

/// Mixed dimension-order "escape": XY toward even-parity destinations, YX
/// toward odd — the union of both turn sets allows all eight turns, a
/// textbook cyclic CDG. Used only to prove the verifier finds the cycle.
struct MixedDorEscape;

impl MixedDorEscape {
    fn esc(cur: Coord, dst: Coord) -> Port {
        if (dst.x + dst.y).is_multiple_of(2) {
            escape_port(cur, dst) // XY
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
    fn adaptive_ports(&self, _cfg: &SimConfig, cur: Coord, dst: Coord) -> [Option<Port>; 2] {
        [Some(Self::esc(cur, dst)), None]
    }
    fn select(&self, _ctx: &SelectCtx<'_>, _cands: &[Port]) -> usize {
        0
    }
    fn next_hops(&self, _cfg: &SimConfig, cur: Coord, dst: Coord) -> NextHops {
        NextHops {
            adaptive: [None, None],
            escape: Self::esc(cur, dst),
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
    fn adaptive_ports(&self, _cfg: &SimConfig, _cur: Coord, _dst: Coord) -> [Option<Port>; 2] {
        [None, None]
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

/// The torus negative case behind `verify-config --topology torus
/// --inject-cyclic`: without the dateline lane switch the verifier must
/// reject the escape network with a concrete wrap-cycle witness.
pub fn torus_no_dateline_case() -> NegativeCase {
    let cfg = SimConfig::table1_topology(TopologyKind::Torus);
    let r = Verifier::new(&cfg, &NoDatelineEscape).run();
    case("torus-no-dateline-escape", &r, |w| {
        matches!(w, Witness::Cycle(_))
    })
}

/// Run the injected-fault battery. Every case must come back `rejected`
/// with a printed witness.
pub fn negative_battery() -> Vec<NegativeCase> {
    let cfg = SimConfig::table1();
    let mut cases = Vec::new();

    // 1. Escape VCs disabled under fully-adaptive routing: the adaptive
    //    CDG alone must carry deadlock freedom, and it cannot.
    let r = Verifier::new(&cfg, &noc_sim::routing::DuatoLocalAdaptive)
        .without_escape()
        .run();
    cases.push(case("escape-vcs-disabled", &r, |w| {
        matches!(w, Witness::Cycle(_))
    }));

    // 2. A "routing scheme" whose escape function mixes XY and YX by
    //    destination parity: all eight turns allowed, cyclic escape CDG.
    let r = Verifier::new(&cfg, &MixedDorEscape).run();
    cases.push(case("mixed-dor-escape", &r, |w| {
        matches!(w, Witness::Cycle(_))
    }));

    // 3. A region map that severs a dimension: every east-west link
    //    between x=3 and x=4 removed.
    let r = Verifier::new(&cfg, &noc_sim::routing::DuatoLocalAdaptive)
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
    cases.push(NegativeCase {
        name: "inconsistent-lbdr-bits",
        rejected: !errs.is_empty(),
        property: String::new(),
        witness: errs.first().cloned().unwrap_or_default(),
    });

    // 5. A NaN STC intensity: the rank comparison is not a total order.
    let errs = rair::verify::check_scheme(&Scheme::ro_rank(vec![0.1, f64::NAN]), 2);
    cases.push(NegativeCase {
        name: "nan-rank-intensity",
        rejected: !errs.is_empty(),
        property: String::new(),
        witness: errs.first().cloned().unwrap_or_default(),
    });

    cases
}

fn case(name: &'static str, r: &VerifyReport, want: impl Fn(&Witness) -> bool) -> NegativeCase {
    let hit = r.violations.iter().find(|v| want(&v.witness));
    NegativeCase {
        name,
        rejected: !r.ok() && hit.is_some(),
        property: String::new(),
        witness: hit
            .map(std::string::ToString::to_string)
            .or_else(|| r.violations.first().map(std::string::ToString::to_string))
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_matrix_is_clean() {
        let rows = run_matrix_for(TopologyKind::Mesh);
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

    #[test]
    fn per_topology_matrices_are_clean() {
        for kind in [
            TopologyKind::Torus,
            TopologyKind::Ring,
            TopologyKind::CMesh { concentration: 4 },
        ] {
            let rows = run_matrix_for(kind);
            assert_eq!(rows.len(), 4 * 3 * 2, "{}", kind.label());
            for r in &rows {
                assert_eq!(
                    r.violations,
                    0,
                    "{} {}/{} (lbdr {}): {:?}",
                    kind.label(),
                    r.region,
                    r.routing,
                    r.lbdr,
                    r.first_witness
                );
            }
        }
    }

    #[test]
    fn torus_without_datelines_is_rejected() {
        let c = torus_no_dateline_case();
        assert!(c.rejected, "no-dateline torus escape was not rejected");
        assert!(!c.witness.is_empty());
    }

    #[test]
    fn every_injected_fault_is_rejected_with_witness() {
        for c in negative_battery() {
            assert!(c.rejected, "{} was not rejected", c.name);
            assert!(!c.witness.is_empty(), "{} has no witness", c.name);
        }
    }
}
