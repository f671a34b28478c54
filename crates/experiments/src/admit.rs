//! The one static gate on a configuration, [`admit_cell`], and `repro
//! admit`: the gate over the scheme × routing × region matrix of every
//! canonical topology, then over its [`controls`]: broken configurations
//! that must each be rejected by the property they violate, with a
//! witness. `repro serve` runs the same gate on every job at the job's
//! offered load; network construction runs none (a test pins every figure
//! cell's verdict). `serve` calls it outside its pool's `catch_unwind`, so
//! its bodies are held to the panic lint.
//!
//! Each cell runs the kernel's admission pipeline
//! ([`noc_sim::admit::admit_network`]: progress/starvation-freedom
//! of the priority machinery + region non-interference of the VC
//! steering) and appends four properties, in this order:
//!
//! - **bandwidth feasibility**, built on the analytical model's link-load
//!   map ([`model::link_load_map`]): a channel whose predicted utilization
//!   exceeds 1 flit/cycle is physically over-subscribed (for one
//!   application: an offered load past its saturation bound,
//!   [`model::warm_hint`]);
//! - **deadlock freedom**: escape-CDG acyclicity, escape connectedness and
//!   all-pairs legality ([`noc_sim::verify::verify_network_cached`]);
//! - **LBDR confinement**: the same criterion with every region confined
//!   to its own links by its LBDR bits ([`rair::verify::verify_lbdr`]);
//! - **scheme parameters**: the scheme's ranks and hysteresis form a total
//!   priority order for the cell's applications
//!   ([`rair::verify::check_scheme`]).
//!
//! These live here rather than in `noc-sim` because they need the `model`
//! and `rair` crates (which depend on `noc-sim`) and the wall clock (the
//! kernel crates are under the wall-clock lint); per-cell analysis cost is
//! stamped into the row by this driver. [`NegativeCase`],
//! [`controls_table`] and [`judge_controls`] serve the controls of `chaos`
//! as well.

use metrics::report::Table;
use model::RoutingKind;
use noc_sim::admit::{
    admit_network, Admission, AdmitVerdict, AdmitWitness, PropertyReport, PROP_FEASIBILITY,
};
use noc_sim::config::SimConfig;
use noc_sim::ids::{Coord, Port, PORT_EAST, PORT_WEST};
use noc_sim::region::RegionMap;
use noc_sim::routing::{NextHops, RoutingAlgorithm, SelectCtx};
use noc_sim::topology::TopologyKind;
use noc_sim::vc::VcTag;
use noc_sim::verify::{Verifier, VerifyReport, Witness};
use rair::scheme::{Routing, Scheme};
use std::time::Instant;
use traffic::scenario::AppSpec;

/// Property name: escape-CDG acyclicity, escape connectedness and all-pairs
/// legality of the routing function.
pub const PROP_DEADLOCK_FREEDOM: &str = "deadlock-freedom";
/// Property name: the deadlock-freedom criterion with every region confined
/// to its own links by LBDR.
pub const PROP_LBDR_CONFINEMENT: &str = "lbdr-confinement";
/// Property name: the scheme's parameters order the cell's applications
/// totally.
pub const PROP_SCHEME_PARAMETERS: &str = "scheme-parameters";

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
    /// The properties checked, in pipeline order.
    pub properties: Vec<&'static str>,
    /// Static native head-flit wait bound (cycles), when proven.
    pub wait_bound: Option<u64>,
    /// States explored / routers visited / links or pairs checked, summed
    /// over the properties.
    pub states: u64,
    /// Wall-clock analysis time of the cell as one [`admit_cell`] call
    /// pays it, stamped here (the kernel reports no wall time — it is under
    /// the wall-clock lint): its own properties plus the whole cost of the
    /// network properties that the matrix computes once and shares with six
    /// other schemes.
    pub micros: u64,
    /// First rejecting property with its witness, if any.
    pub defect: Option<String>,
}

/// The four shipped region maps for a topology's canonical config. Every
/// rectangular region spans at most half of each wrapping dimension, so
/// minimal paths between same-region routers never leave the rectangle —
/// LBDR confinement stays satisfiable on the torus and ring.
fn regions(cfg: &SimConfig) -> Vec<(&'static str, RegionMap)> {
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

/// The seven shipped schemes (the golden/Table-1 matrix), sized for
/// `num_apps` applications: `RO_Rank` with one distinct intensity per
/// application, `RO_RankOnline` estimating that many. The `RAIR_ForeignH`
/// priority inversion is deliberately absent — it is the pinned negative of
/// [`controls`].
fn schemes(num_apps: usize) -> Vec<Scheme> {
    let n = num_apps as f64;
    vec![
        Scheme::RoRr,
        Scheme::RoAge,
        Scheme::ro_rank((1..=num_apps).map(|i| i as f64 / n).collect()),
        Scheme::ro_rank_online(num_apps),
        Scheme::rair(),
        Scheme::rair_va_only(),
        Scheme::rair_native_high(),
    ]
}

/// The analytical routing abstraction matching a simulated routing choice.
fn routing_kind(routing: Routing) -> RoutingKind {
    match routing {
        Routing::Xy => RoutingKind::DimensionOrder,
        Routing::Local | Routing::Dbar => RoutingKind::Adaptive,
    }
}

/// A property report stamped with the analysis cost since `t0`.
fn property(
    property: &'static str,
    t0: Instant,
    states: u64,
    detail: String,
    witness: Option<AdmitWitness>,
) -> PropertyReport {
    PropertyReport {
        property,
        verdict: match witness {
            None => AdmitVerdict::Admit,
            Some(_) => AdmitVerdict::Reject,
        },
        detail,
        witness,
        states,
        micros: t0.elapsed().as_micros() as u64,
        wait_bound: None,
    }
}

/// Bandwidth feasibility of the operating point `specs` (one entry per
/// application of `region`, or none at all) on `cfg` × `region` ×
/// `routing`: reject if the worst channel of the model's link-load map is
/// offered more than 1 flit/cycle, else admit. The map is the one the
/// saturation bound reads, so an application alone is admitted exactly up
/// to its bound. Without specs nothing is offered and the check is vacuous.
pub fn check_feasibility(
    cfg: &SimConfig,
    region: &RegionMap,
    specs: &[Option<AppSpec>],
    routing: Routing,
) -> PropertyReport {
    let t0 = Instant::now();
    let loads = if specs.len() == region.num_apps() {
        model::link_load_map(cfg, region, specs, routing_kind(routing))
    } else {
        debug_assert!(specs.is_empty(), "one spec per application, or none");
        Vec::new()
    };
    let links = loads.len() as u64;
    let report = |detail, witness| property(PROP_FEASIBILITY, t0, links, detail, witness);
    let worst = loads
        .iter()
        .max_by(|a, b| a.rho_total().total_cmp(&b.rho_total()));
    let Some(w) = worst else {
        return report(
            "no offered traffic: feasibility is vacuous".to_string(),
            None,
        );
    };
    let (rho, link) = (w.rho_total(), w.link.to_string());
    if rho > 1.0 {
        report(
            format!(
                "channel {link} is over-subscribed: offered load {rho:.3} flits/cycle \
                 exceeds capacity 1 ({links} channels checked)"
            ),
            Some(AdmitWitness::Overload { link, offered: rho }),
        )
    } else {
        report(
            format!("all {links} channels within capacity (worst: {link} at {rho:.3})"),
            None,
        )
    }
}

/// A static-verifier report as an admission property: admitted iff the
/// verifier found no violation, refuted by its first one.
fn verified(name: &'static str, t0: Instant, r: &VerifyReport) -> PropertyReport {
    let counts = format!(
        "{} escape channels, {} dependency edges, {} pairs",
        r.channels, r.dep_edges, r.pairs_checked
    );
    let detail = match r.violation_count {
        0 => format!("escape CDG acyclic and connected, every pair legal ({counts})"),
        n => format!("{n} violation(s) over {counts}"),
    };
    let witness = r.violations.first().cloned().map(AdmitWitness::Route);
    property(name, t0, r.pairs_checked as u64, detail, witness)
}

/// Scheme parameters: `scheme` must order `num_apps` applications totally.
fn check_scheme_parameters(scheme: &Scheme, num_apps: usize) -> PropertyReport {
    let t0 = Instant::now();
    let defects = rair::verify::check_scheme(scheme, num_apps);
    let detail = match defects.len() {
        0 => format!("a total priority order for {num_apps} applications"),
        n => format!("{n} defect(s) for {num_apps} applications"),
    };
    let witness = defects.into_iter().next().map(AdmitWitness::Parameter);
    property(PROP_SCHEME_PARAMETERS, t0, 0, detail, witness)
}

/// Full admission of one cell: the kernel properties, then feasibility,
/// deadlock freedom, LBDR confinement and the scheme's parameters at the
/// region map's application count.
pub fn admit_cell(
    cfg: &SimConfig,
    region: &RegionMap,
    scheme: &Scheme,
    routing: Routing,
    specs: &[Option<AppSpec>],
) -> Admission {
    let network = network_properties(cfg, region, specs, routing);
    admit_with(cfg, region, scheme, routing, &network)
}

/// The scheme-independent properties of one network at the load `specs`:
/// feasibility, deadlock freedom and LBDR confinement. The matrix computes
/// them once for the network's seven schemes; the last two do not read the
/// load and are memoized per network, so a jobs file pays them once per
/// configuration.
fn network_properties(
    cfg: &SimConfig,
    region: &RegionMap,
    specs: &[Option<AppSpec>],
    routing: Routing,
) -> [PropertyReport; 3] {
    let alg = routing.build();
    let feasibility = check_feasibility(cfg, region, specs, routing);
    let t0 = Instant::now();
    let r = noc_sim::verify::verify_network_cached(cfg, alg.as_ref());
    let deadlock_freedom = verified(PROP_DEADLOCK_FREEDOM, t0, &r);
    let t0 = Instant::now();
    let r = rair::verify::verify_lbdr(cfg, region, alg.as_ref());
    [
        feasibility,
        deadlock_freedom,
        verified(PROP_LBDR_CONFINEMENT, t0, &r),
    ]
}

/// [`admit_cell`] with its network's properties already computed.
fn admit_with(
    cfg: &SimConfig,
    region: &RegionMap,
    scheme: &Scheme,
    routing: Routing,
    network: &[PropertyReport; 3],
) -> Admission {
    let alg = routing.build();
    let mut adm = admit_network(cfg, region, alg.as_ref(), &scheme.automaton());
    adm.properties.extend_from_slice(network);
    adm.properties
        .push(check_scheme_parameters(scheme, region.num_apps()));
    adm
}

/// Run the shipped scheme × routing × region matrix on the canonical
/// config ([`SimConfig::table1_topology`]) of each of `kinds`, in order;
/// `repro admit` runs [`TopologyKind::CANONICAL`].
pub fn run_matrix(kinds: &[TopologyKind]) -> Vec<AdmitRow> {
    let mut rows = Vec::new();
    for &kind in kinds {
        let cfg = SimConfig::table1_topology(kind);
        for (rname, region) in regions(&cfg) {
            let specs: Vec<Option<AppSpec>> = (0..region.num_apps())
                .map(|_| Some(AppSpec::intra_only(MATRIX_RATE)))
                .collect();
            for routing in Routing::ALL {
                let network = network_properties(&cfg, &region, &specs, routing);
                let schemes = schemes(region.num_apps());
                let shared = network.iter().map(|p| p.micros).sum::<u64>();
                for scheme in schemes {
                    let t0 = Instant::now();
                    let adm = admit_with(&cfg, &region, &scheme, routing, &network);
                    let micros = t0.elapsed().as_micros() as u64 + shared;
                    rows.push(row(kind.label(), rname, routing.label(), &adm, micros));
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
    micros: u64,
) -> AdmitRow {
    let defect = adm.rejection().map(|p| match &p.witness {
        Some(w) => format!("{}: {} [{}]", p.property, p.detail, w),
        None => format!("{}: {}", p.property, p.detail),
    });
    AdmitRow {
        topology,
        region,
        routing,
        scheme: adm.scheme.clone(),
        verdict: adm.verdict().label(),
        properties: adm.properties.iter().map(|p| p.property).collect(),
        wait_bound: adm.wait_bound(),
        states: adm.properties.iter().map(|p| p.states).sum(),
        micros,
        defect,
    }
}

/// The matrix as the one report: the text table and the `rows` of
/// `ADMIT_report.json` (which also carry the first defect, if any).
pub fn table(rows: &[AdmitRow]) -> Table {
    Table::of(
        "Static admission — every property of a configuration, proven or refuted",
        rows,
        &[
            ("topology", "topology", |r| r.topology.into()),
            ("region", "region", |r| r.region.into()),
            ("routing", "routing", |r| r.routing.into()),
            ("scheme", "scheme", |r| r.scheme.clone().into()),
            ("verdict", "verdict", |r| r.verdict.into()),
            ("properties", "properties", |r| {
                r.properties.join(" ").into()
            }),
            ("wait bound", "wait_bound", |r| r.wait_bound.into()),
            ("states", "states", |r| r.states.into()),
            ("µs", "micros", |r| r.micros.into()),
            ("", "defect", |r| r.defect.clone().into()),
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
/// rows of `ADMIT_report.json` and `CHAOS_report.json`.
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

/// The negative controls, each rejected by the named property with a
/// concrete witness:
///
/// - three broken configurations on the canonical config of each
///   [`TopologyKind::CANONICAL`] kind, named `<topology>-<defect>`, caught
///   by progress, non-interference and bandwidth feasibility;
/// - the static verifier's five broken mesh configurations, then the torus
///   and the ring without their dateline lane switch;
/// - `unranked-application`: `RO_Rank` ranking two of the six-region map's
///   applications, caught by the scheme parameters.
pub fn controls() -> Vec<NegativeCase> {
    let mut cases = Vec::new();
    for kind in TopologyKind::CANONICAL {
        let cfg = SimConfig::table1_topology(kind);
        let name = |defect: &str| format!("{}-{defect}", kind.label());
        // 1. The pinned priority inversion: foreign traffic permanently HIGH
        //    at every MSP stage — a native request at a contested point can
        //    lose every future arbitration (a lasso through ¬W).
        let halves = RegionMap::halves(&cfg);
        let adm = admit_low(&cfg, &halves, &Scheme::rair_foreign_high());
        cases.push(negative(name("priority-inversion"), &adm));

        // 2. Inverted VC steering: foreign traffic preferring the
        //    native-reserved *regional* VCs, on a non-convex region map whose
        //    app-0 minimal paths transit app-1 territory — the taint walk
        //    must extract a concrete foreign-into-regional channel path.
        let mut auto = Scheme::rair().automaton();
        auto.name = "RAIR_InvertedSteering".to_string();
        auto.foreign_pref = Some(VcTag::Regional);
        let region = nonconvex_region(&cfg);
        let adm = noc_sim::admit::admit_network(&cfg, &region, Routing::Xy.build().as_ref(), &auto);
        cases.push(negative(name("inverted-steering"), &adm));

        // 3. An over-subscribed region: app 0 offers 1.5 flits/cycle/node —
        //    beyond the physical capacity of its own injection channels.
        let specs = vec![
            Some(AppSpec::intra_only(1.5)),
            Some(AppSpec::intra_only(MATRIX_RATE)),
        ];
        let adm = admit_cell(&cfg, &halves, &Scheme::rair(), Routing::Local, &specs);
        cases.push(negative(name("over-subscribed-region"), &adm));
    }
    cases.extend(verifier_controls());
    let cfg = SimConfig::table1();
    let adm = admit_low(
        &cfg,
        &RegionMap::six_regions(&cfg),
        &Scheme::ro_rank(vec![0.1, 0.9]),
    );
    cases.push(negative("unranked-application".into(), &adm));
    cases
}

/// [`admit_cell`] under fully adaptive routing at the matrix's load.
fn admit_low(cfg: &SimConfig, region: &RegionMap, scheme: &Scheme) -> Admission {
    let specs = vec![Some(AppSpec::intra_only(MATRIX_RATE)); region.num_apps()];
    admit_cell(cfg, region, scheme, Routing::Local, &specs)
}

/// The static verifier's controls, each caught by the verifier check (or
/// consistency check) that refutes it: five broken mesh configurations,
/// then the torus and the ring without their dateline lane switch.
fn verifier_controls() -> Vec<NegativeCase> {
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
    cases.push(NegativeCase {
        name: "inconsistent-lbdr-bits".into(),
        caught: !errs.is_empty(),
        property: "lbdr-consistency",
        witness: errs.into_iter().next().unwrap_or_default(),
    });

    // 5. A NaN STC intensity: the rank comparison is not a total order.
    let halves = RegionMap::halves(&cfg);
    let adm = admit_low(&cfg, &halves, &Scheme::ro_rank(vec![0.1, f64::NAN]));
    cases.push(negative("nan-rank-intensity".into(), &adm));

    cases.extend([TopologyKind::Torus, TopologyKind::Ring].map(no_dateline_case));
    cases
}

/// An admission control: caught by a rejection that carries a witness.
fn negative(name: String, adm: &Admission) -> NegativeCase {
    let rej = adm.rejection();
    let witness = rej.and_then(|p| p.witness.as_ref());
    NegativeCase {
        name,
        caught: adm.verdict() == AdmitVerdict::Reject && witness.is_some(),
        property: rej.map_or("", |p| p.property),
        witness: witness.map(ToString::to_string).unwrap_or_default(),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::admit::{PROP_NON_INTERFERENCE, PROP_PROGRESS};

    /// The six properties, in pipeline order.
    const SIX: [&str; 6] = [
        PROP_PROGRESS,
        PROP_NON_INTERFERENCE,
        PROP_FEASIBILITY,
        PROP_DEADLOCK_FREEDOM,
        PROP_LBDR_CONFINEMENT,
        PROP_SCHEME_PARAMETERS,
    ];

    fn assert_all_admitted(rows: &[AdmitRow]) {
        for r in rows {
            assert_eq!(
                r.verdict, "admit",
                "{} {}/{}/{}: {:?}",
                r.topology, r.region, r.routing, r.scheme, r.defect
            );
            assert!(r.defect.is_none(), "{:?}", r.defect);
            assert_eq!(r.properties, SIX, "{} {}", r.topology, r.region);
        }
        // Every shipped scheme carries a proven wait bound.
        assert!(rows.iter().all(|r| r.wait_bound.is_some()));
    }

    #[test]
    fn every_topology_admits_every_shipped_cell() {
        let rows = run_matrix(&TopologyKind::CANONICAL);
        assert_eq!(rows.len(), 4 * 4 * 3 * 7);
        assert_all_admitted(&rows);
    }

    /// The concentrated mesh at both ends of its supported range (2 and 8
    /// NIs per router), beside the canonical 4.
    #[test]
    fn concentrated_meshes_admit_at_both_ends_of_their_range() {
        for concentration in [2, 8] {
            let rows = run_matrix(&[TopologyKind::CMesh { concentration }]);
            assert_eq!(rows.len(), 4 * 3 * 7, "cmesh{{{concentration}}}");
            assert_all_admitted(&rows);
        }
    }

    /// The cell's deadlock-freedom and LBDR properties carry the verifier's
    /// counts: every pair on the bare network, intra-region pairs under LBDR.
    #[test]
    fn verifier_properties_report_their_counts() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let specs = vec![Some(AppSpec::intra_only(MATRIX_RATE)); 2];
        let adm = admit_cell(&cfg, &region, &Scheme::rair(), Routing::Xy, &specs);
        let prop = |name| adm.properties.iter().find(|p| p.property == name).unwrap();
        let dl = prop(PROP_DEADLOCK_FREEDOM);
        assert_eq!(dl.verdict, AdmitVerdict::Admit);
        assert!(
            dl.detail
                .contains("224 escape channels, 3808 dependency edges, 4032 pairs"),
            "{}",
            dl.detail
        );
        assert_eq!(dl.states, 64 * 63);
        assert_eq!(prop(PROP_LBDR_CONFINEMENT).states, 2 * 32 * 31);
    }

    /// LBDR cannot confine a region wider than half the ring: a minimal
    /// path between two of its routers wraps through the other region.
    #[test]
    fn a_region_past_half_the_ring_is_not_lbdr_confinable() {
        let cfg = SimConfig::table1_topology(TopologyKind::Ring);
        let region = RegionMap::from_fn(&cfg, 2, |c| u8::from(c.x >= 3));
        let adm = admit_low(&cfg, &region, &Scheme::rair());
        let rej = adm.rejection().expect("a 13-router region on a 16-ring");
        assert_eq!(rej.property, PROP_LBDR_CONFINEMENT, "{}", rej.detail);
        assert!(
            matches!(&rej.witness, Some(AdmitWitness::Route(v))
                if matches!(v.witness, Witness::UnreachablePair { .. } | Witness::NoEscape { .. })),
            "{:?}",
            rej.witness
        );
    }

    /// Every control, by name, with the property that catches it.
    #[test]
    fn every_control_is_rejected_by_its_named_property() {
        let cases = controls();
        let mut want: Vec<(String, &str)> = Vec::new();
        for kind in TopologyKind::CANONICAL {
            for (defect, property) in [
                ("priority-inversion", PROP_PROGRESS),
                ("inverted-steering", PROP_NON_INTERFERENCE),
                ("over-subscribed-region", PROP_FEASIBILITY),
            ] {
                want.push((format!("{}-{defect}", kind.label()), property));
            }
        }
        for (name, property) in [
            ("escape-vcs-disabled", "escape-cdg-acyclic"),
            ("mixed-dor-escape", "escape-cdg-acyclic"),
            ("severed-dimension", "escape-connected"),
            ("inconsistent-lbdr-bits", "lbdr-consistency"),
            ("nan-rank-intensity", PROP_SCHEME_PARAMETERS),
            ("torus-no-dateline-escape", "escape-cdg-acyclic"),
            ("ring-no-dateline-escape", "escape-cdg-acyclic"),
            ("unranked-application", PROP_SCHEME_PARAMETERS),
        ] {
            want.push((name.to_string(), property));
        }
        let got: Vec<(String, &str)> = (cases.iter())
            .map(|c| (c.name.clone(), c.property))
            .collect();
        assert_eq!(got, want);
        for c in &cases {
            assert!(c.caught, "{} not rejected", c.name);
            assert!(!c.witness.is_empty(), "{} has no witness", c.name);
        }
        assert_eq!(judge_controls(&cases), Ok(()));
        let witness = |name: &str| &cases.iter().find(|c| c.name == name).unwrap().witness;
        // The ring's lane-0 wrap cycle runs once around all 16 routers.
        let ring = witness("ring-no-dateline-escape");
        assert_eq!(ring.matches(":esc0").count(), 17, "{ring}");
        assert!(ring.contains("r15:E:esc0 -> r0:E:esc0"), "{ring}");
        assert!(
            witness("unranked-application").contains("2 intensities for 6 applications"),
            "{}",
            witness("unranked-application")
        );
        assert!(witness("nan-rank-intensity").contains("not a total order"));
    }

    /// A control the check misses fails it, by name — the only way a
    /// self-check fails on its controls.
    #[test]
    fn a_missed_control_fails_the_check_by_name() {
        let mut cases = controls();
        let n = cases.len();
        cases[13].caught = false;
        cases[n - 2].caught = false;
        let err = judge_controls(&cases).unwrap_err();
        assert_eq!(
            err,
            format!(
                "2 of {n} negative controls NOT CAUGHT: mixed-dor-escape, ring-no-dateline-escape"
            )
        );
    }

    /// Feasibility and the saturation bound read one load map: an
    /// application alone is admitted just under its bound and rejected
    /// just over it, on every canonical topology under both routing kinds,
    /// with the map's worst channel as the witness.
    #[test]
    fn feasibility_admits_up_to_unit_load_and_rejects_past_it() {
        for kind in TopologyKind::CANONICAL {
            let cfg = SimConfig::table1_topology(kind);
            let region = RegionMap::halves(&cfg);
            for routing in [Routing::Local, Routing::Xy] {
                let intra = AppSpec::intra_only(0.0);
                let bound = model::warm_hint(&cfg, &region, 0, &intra, routing_kind(routing))
                    .unwrap()
                    .predicted;
                let at = |rate: f64| {
                    let specs = vec![Some(AppSpec::intra_only(rate)), None];
                    let rep = check_feasibility(&cfg, &region, &specs, routing);
                    let rho = model::link_load_map(&cfg, &region, &specs, routing_kind(routing))
                        .iter()
                        .map(model::ChannelLoad::rho_total)
                        .fold(0.0, f64::max);
                    (rep, rho, specs)
                };
                let label = format!("{}/{routing:?} at bound {bound}", kind.label());
                let (rep, rho, specs) = at(bound * (1.0 - 1e-9));
                assert!(rho <= 1.0, "{label}: worst channel at {rho}");
                assert_eq!(rep.verdict, AdmitVerdict::Admit, "{label}: {}", rep.detail);
                assert!(rep.witness.is_none());
                let adm = admit_cell(&cfg, &region, &Scheme::rair(), routing, &specs);
                assert_eq!(adm.verdict(), AdmitVerdict::Admit, "{label}");
                let (rep, rho, _) = at(bound * (1.0 + 1e-9));
                assert!(rho > 1.0, "{label}: worst channel at {rho}");
                assert_eq!(rep.verdict, AdmitVerdict::Reject, "{label}: {}", rep.detail);
                assert!(
                    matches!(rep.witness, Some(AdmitWitness::Overload { offered, .. }) if offered == rho),
                    "{label}: {:?}",
                    rep.witness
                );
            }
        }
    }
}
