//! `repro admit` — the static QoS admission pipeline over the
//! scheme × routing × region matrix of every canonical topology, then over
//! its [`controls`]: broken configurations that must each be rejected by
//! the property they violate, with a witness.
//!
//! Each cell runs the kernel's admission pipeline
//! ([`noc_sim::admit::admit_network_cached`]: progress/starvation-freedom
//! of the priority machinery + region non-interference of the VC
//! steering) and appends the experiments-layer **bandwidth feasibility**
//! property built on the analytical model's per-flow link-load map
//! ([`model::link_load_map`]): a channel whose predicted utilization
//! exceeds 1 flit/cycle is physically over-subscribed, and the cell is
//! rejected.
//!
//! Feasibility lives here rather than in `noc-sim` because it needs the
//! `model` crate (which depends on `noc-sim`) and the wall clock (the
//! kernel crates are under the wall-clock lint); per-cell analysis cost
//! is stamped into the row by this driver.

use crate::verify_config::NegativeCase;
use metrics::Table;
use model::RoutingKind;
use noc_sim::admit::{
    admit_network_cached, Admission, AdmitVerdict, AdmitWitness, PropertyReport, PROP_FEASIBILITY,
};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use noc_sim::vc::VcTag;
use rair::scheme::{Routing, Scheme};
use std::time::Instant;
use traffic::scenario::AppSpec;

/// Canonical per-app offered load (flits/cycle/node) of the matrix's
/// feasibility check: well inside every topology's capacity, so the
/// shipped matrix is feasible everywhere and any rejection is a config
/// defect, not a workload artifact.
pub const MATRIX_RATE: f64 = 0.05;

/// One admitted (or refuted) cell of the matrix.
pub struct AdmitRow {
    pub topology: &'static str,
    pub region: &'static str,
    pub routing: &'static str,
    pub scheme: String,
    /// Aggregate verdict label: `admit` or `reject`.
    pub verdict: &'static str,
    /// Static native head-flit wait bound (cycles), when proven.
    pub wait_bound: Option<u64>,
    /// States explored / routers visited / links checked, summed over
    /// the properties.
    pub states: u64,
    /// Wall-clock analysis cost of the whole cell, stamped here (the
    /// kernel reports no wall time — it is under the wall-clock lint).
    pub micros: u64,
    /// First rejecting property with its witness, if any.
    pub defect: Option<String>,
}

/// The seven shipped schemes (the golden/Table-1 matrix). The
/// `RAIR_ForeignH` priority inversion is deliberately absent — it is the
/// pinned negative of [`controls`].
fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::RoRr,
        Scheme::RoAge,
        Scheme::ro_rank(vec![0.1, 0.9]),
        Scheme::ro_rank_online(6),
        Scheme::rair(),
        Scheme::rair_va_only(),
        Scheme::rair_native_high(),
    ]
}

/// The analytical routing abstraction matching a simulated routing choice.
pub(crate) fn routing_kind(routing: Routing) -> RoutingKind {
    match routing {
        Routing::Xy => RoutingKind::DimensionOrder,
        Routing::Local | Routing::Dbar => RoutingKind::Adaptive,
    }
}

/// Bandwidth feasibility of the operating point `specs` on
/// `cfg` × `region` × `routing`: reject if the worst channel of the
/// model's link-load map is offered more than 1 flit/cycle, else admit.
pub fn check_feasibility(
    cfg: &SimConfig,
    region: &RegionMap,
    specs: &[Option<AppSpec>],
    routing: Routing,
) -> PropertyReport {
    let t0 = Instant::now();
    let loads = model::link_load_map(cfg, region, specs, routing_kind(routing));
    let links = loads.len() as u64;
    let report = |verdict, detail, witness| PropertyReport {
        property: PROP_FEASIBILITY,
        verdict,
        detail,
        witness,
        states: links,
        micros: t0.elapsed().as_micros() as u64,
        wait_bound: None,
    };
    let worst = loads
        .iter()
        .max_by(|a, b| a.rho_total().total_cmp(&b.rho_total()));
    let Some(w) = worst else {
        return report(
            AdmitVerdict::Admit,
            "no offered traffic: feasibility is vacuous".to_string(),
            None,
        );
    };
    let (rho, link) = (w.rho_total(), w.link.to_string());
    if rho > 1.0 {
        report(
            AdmitVerdict::Reject,
            format!(
                "channel {link} is over-subscribed: offered load {rho:.3} flits/cycle \
                 exceeds capacity 1 ({links} channels checked)"
            ),
            Some(AdmitWitness::Overload { link, offered: rho }),
        )
    } else {
        report(
            AdmitVerdict::Admit,
            format!("all {links} channels within capacity (worst: {link} at {rho:.3})"),
            None,
        )
    }
}

/// Full admission of one cell: kernel properties (cached) + feasibility.
pub fn admit_cell(
    cfg: &SimConfig,
    region: &RegionMap,
    scheme: &Scheme,
    routing: Routing,
    specs: &[Option<AppSpec>],
) -> Admission {
    let alg = routing.build();
    let mut adm = admit_network_cached(cfg, region, alg.as_ref(), &scheme.automaton());
    adm.properties
        .push(check_feasibility(cfg, region, specs, routing));
    adm
}

/// Run the shipped scheme × routing × region matrix on the canonical
/// config ([`SimConfig::table1_topology`]) of each of `kinds`, in order;
/// `repro admit` runs [`TopologyKind::CANONICAL`].
pub fn run_matrix(kinds: &[TopologyKind]) -> Vec<AdmitRow> {
    let mut rows = Vec::new();
    for &kind in kinds {
        let cfg = SimConfig::table1_topology(kind);
        for (rname, region) in crate::verify_config::regions(&cfg) {
            let specs: Vec<Option<AppSpec>> = (0..region.num_apps())
                .map(|_| Some(AppSpec::intra_only(MATRIX_RATE)))
                .collect();
            for routing in Routing::ALL {
                for scheme in schemes() {
                    let t0 = Instant::now();
                    let adm = admit_cell(&cfg, &region, &scheme, routing, &specs);
                    rows.push(row(kind.label(), rname, routing.label(), &adm, t0));
                }
            }
        }
    }
    rows
}

fn row(
    topology: &'static str,
    region: &'static str,
    routing: &'static str,
    adm: &Admission,
    t0: Instant,
) -> AdmitRow {
    let defect = adm
        .properties
        .iter()
        .find(|p| p.verdict != AdmitVerdict::Admit)
        .map(|p| match &p.witness {
            Some(w) => format!("{}: {} [{}]", p.property, p.detail, w),
            None => format!("{}: {}", p.property, p.detail),
        });
    AdmitRow {
        topology,
        region,
        routing,
        scheme: adm.scheme.clone(),
        verdict: adm.verdict().label(),
        wait_bound: adm.wait_bound(),
        states: adm.properties.iter().map(|p| p.states).sum(),
        micros: t0.elapsed().as_micros() as u64,
        defect,
    }
}

/// The matrix as the one report: the text table and the `rows` of
/// `ADMIT_report.json` (which also carry the first defect, if any).
pub fn table(rows: &[AdmitRow]) -> Table {
    Table::of(
        "Static admission — progress + non-interference + bandwidth feasibility",
        rows,
        &[
            ("topology", "topology", |r| r.topology.into()),
            ("region", "region", |r| r.region.into()),
            ("routing", "routing", |r| r.routing.into()),
            ("scheme", "scheme", |r| r.scheme.clone().into()),
            ("verdict", "verdict", |r| r.verdict.into()),
            ("wait bound", "wait_bound", |r| r.wait_bound.into()),
            ("states", "states", |r| r.states.into()),
            ("µs", "micros", |r| r.micros.into()),
            ("", "defect", |r| r.defect.clone().into()),
        ],
    )
}

/// A two-app region whose app-0 territory is non-convex, so app-0
/// minimal paths transit app-1 routers — the geometry that makes
/// non-interference falsifiable. Rectangles are vacuously safe on the
/// mesh (minimal paths stay in the bounding box), hence the L-shape; the
/// 1-D ring gets alternating quarters instead.
fn nonconvex_region(cfg: &SimConfig) -> RegionMap {
    if cfg.height == 1 {
        let seg = (cfg.width / 4).max(1);
        RegionMap::from_fn(cfg, 2, move |c| u8::from((c.x / seg) % 2 == 1))
    } else {
        let (hx, hy) = (cfg.width / 2, cfg.height / 2);
        RegionMap::from_fn(cfg, 2, move |c| u8::from(c.x >= hx && c.y >= hy))
    }
}

/// The negative controls: three broken configurations on the canonical
/// config of each [`TopologyKind::CANONICAL`] kind, named
/// `<topology>-<defect>`. Every one must come back rejected by the named
/// property, with a concrete witness.
pub fn controls() -> Vec<NegativeCase> {
    let mut cases = Vec::new();
    for kind in TopologyKind::CANONICAL {
        let cfg = SimConfig::table1_topology(kind);
        // 1. The pinned priority inversion: foreign traffic permanently HIGH
        //    at every MSP stage — a native request at a contested point can
        //    lose every future arbitration (a lasso through ¬W).
        let halves = RegionMap::halves(&cfg);
        let specs = vec![Some(AppSpec::intra_only(MATRIX_RATE)); halves.num_apps()];
        let adm = admit_cell(
            &cfg,
            &halves,
            &Scheme::rair_foreign_high(),
            Routing::Local,
            &specs,
        );
        cases.push(negative(kind, "priority-inversion", &adm));

        // 2. Inverted VC steering: foreign traffic preferring the
        //    native-reserved *regional* VCs, on a non-convex region map whose
        //    app-0 minimal paths transit app-1 territory — the taint walk
        //    must extract a concrete foreign-into-regional channel path.
        let mut auto = Scheme::rair().automaton();
        auto.name = "RAIR_InvertedSteering".to_string();
        auto.foreign_pref = Some(VcTag::Regional);
        let region = nonconvex_region(&cfg);
        let alg = Routing::Xy.build();
        let adm = Admission {
            scheme: auto.name.clone(),
            properties: vec![
                noc_sim::admit::check_progress(&cfg, &auto),
                noc_sim::admit::check_non_interference(&cfg, &region, alg.as_ref(), &auto),
            ],
        };
        cases.push(negative(kind, "inverted-steering", &adm));

        // 3. An over-subscribed region: app 0 offers 1.5 flits/cycle/node —
        //    beyond the physical capacity of its own injection channels.
        let specs = vec![
            Some(AppSpec::intra_only(1.5)),
            Some(AppSpec::intra_only(MATRIX_RATE)),
        ];
        let adm = admit_cell(&cfg, &halves, &Scheme::rair(), Routing::Local, &specs);
        cases.push(negative(kind, "over-subscribed-region", &adm));
    }
    cases
}

fn negative(kind: TopologyKind, defect: &str, adm: &Admission) -> NegativeCase {
    let rej = adm.rejection();
    let witness = rej.and_then(|p| p.witness.as_ref());
    NegativeCase {
        name: format!("{}-{defect}", kind.label()),
        caught: adm.verdict() == AdmitVerdict::Reject && witness.is_some(),
        property: rej.map_or("", |p| p.property),
        witness: witness.map(ToString::to_string).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::admit::{PROP_NON_INTERFERENCE, PROP_PROGRESS};

    #[test]
    fn every_topology_admits_every_shipped_cell() {
        let rows = run_matrix(&TopologyKind::CANONICAL);
        assert_eq!(rows.len(), 4 * 4 * 3 * 7);
        for r in &rows {
            assert_eq!(
                r.verdict, "admit",
                "{} {}/{}/{}: {:?}",
                r.topology, r.region, r.routing, r.scheme, r.defect
            );
            assert!(r.defect.is_none(), "{:?}", r.defect);
        }
        // Every shipped scheme carries a proven wait bound.
        assert!(rows.iter().all(|r| r.wait_bound.is_some()));
    }

    #[test]
    fn every_control_is_rejected_by_its_named_property() {
        let cases = controls();
        assert_eq!(cases.len(), 4 * 3);
        let want = [PROP_PROGRESS, PROP_NON_INTERFERENCE, PROP_FEASIBILITY];
        for (kind, cases) in TopologyKind::CANONICAL.iter().zip(cases.chunks(3)) {
            for (c, property) in cases.iter().zip(want) {
                assert!(c.name.starts_with(kind.label()), "{}", c.name);
                assert!(c.caught, "{} not rejected", c.name);
                assert!(!c.witness.is_empty(), "{} has no witness", c.name);
                assert_eq!(c.property, property, "{}", c.name);
            }
        }
    }

    #[test]
    fn feasibility_admits_up_to_unit_load_and_rejects_past_it() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let worst = |rate: f64| {
            let specs = vec![
                Some(AppSpec::intra_only(rate)),
                Some(AppSpec::intra_only(MATRIX_RATE)),
            ];
            let rep = check_feasibility(&cfg, &region, &specs, Routing::Local);
            let rho = model::link_load_map(&cfg, &region, &specs, RoutingKind::Adaptive)
                .iter()
                .map(model::ChannelLoad::rho_total)
                .fold(0.0, f64::max);
            (rep, rho, specs)
        };
        // 0.35 flits/cycle/node puts ~0.89 on the worst interior hop
        // channel: inside unit capacity.
        let (rep, rho, specs) = worst(0.35);
        assert!(rho > 0.75 && rho <= 1.0, "worst channel at {rho}");
        assert_eq!(rep.verdict, AdmitVerdict::Admit, "{}", rep.detail);
        assert!(rep.witness.is_none());
        let adm = admit_cell(&cfg, &region, &Scheme::rair(), Routing::Local, &specs);
        assert_eq!(adm.verdict(), AdmitVerdict::Admit);
        // 0.45 puts the same channel past 1 flit/cycle.
        let (rep, rho, _) = worst(0.45);
        assert!(rho > 1.0, "worst channel at {rho}");
        assert_eq!(rep.verdict, AdmitVerdict::Reject, "{}", rep.detail);
        assert!(matches!(
            rep.witness,
            Some(AdmitWitness::Overload { offered, .. }) if offered == rho
        ));
    }
}
