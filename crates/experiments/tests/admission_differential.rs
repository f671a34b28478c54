//! Differential validation of the static admission pipeline against the
//! cycle kernel: the simulator runs with the per-cycle **starvation
//! observer** attached ([`noc_sim::oracle::StarvationWatch`]), checking
//! the wait bound the pipeline derived statically.
//!
//! * An **admitted** configuration (full RAIR under a column flood of
//!   cross-region pressure) must never drive a native head flit past the
//!   statically proven bound — the dynamic confirmation of the progress
//!   proof. The observer actually enforces [`INTERFERENCE_THRESHOLD`], an
//!   order of magnitude *tighter* than the proof's worst-case bound, so
//!   passing certifies the bound with a wide margin.
//! * The **rejected** `RAIR_ForeignH` priority inversion carries no
//!   finite bound at all ([`Admission::wait_bound`] is `None` — the lasso
//!   witness is an infinite foreign-over-native schedule). Under the same
//!   offered traffic the observer catches its native head flits starving
//!   past the same threshold the admitted scheme never approaches — the
//!   defect the pipeline refutes statically is real, not an artifact of
//!   the abstraction.
//!
//! [`Admission::wait_bound`]: noc_sim::admit::Admission::wait_bound

use experiments::admit::admit_cell;
use noc_sim::config::SimConfig;
use noc_sim::ids::{AppId, NodeId};
use noc_sim::network::Network;
use noc_sim::oracle::{OracleConfig, StarvationWatch};
use noc_sim::region::RegionMap;
use noc_sim::source::{NewPacket, TrafficSource};
use rair::scheme::{Routing, Scheme};
use rand::rngs::SmallRng;
use rand::Rng;
use traffic::scenario::AppSpec;

/// Per-node generation probabilities. Every app-0 node fires a long packet
/// toward app 1's far column nearly every cycle — far past the boundary
/// links' capacity, and with no downstream bottleneck (the column sinks
/// drain at full rate), so foreign wormholes keep every horizontal link
/// inside app 1's half saturated for the whole run. App 1 trickles intra
/// traffic across those links; under strict foreign-over-native priority
/// its head flits repeatedly lose against the standing foreign backlog.
const FOREIGN_RATE: f64 = 0.9;
const NATIVE_RATE: f64 = 0.04;
const CYCLES: u64 = 12_000;

/// Native head-of-line wait (cycles) separating the two schemes under the
/// column flood: the admitted scheme's worst observed streak stays under
/// half of this; the statically rejected inversion exceeds it dozens of
/// times per run (worst observed streaks are 3x past it). Far below the
/// statically proven worst-case bound, so the admitted run certifies that
/// bound with an order-of-magnitude margin.
const INTERFERENCE_THRESHOLD: u64 = 100;

/// Two-app column flood: app 0 (left half) floods the easternmost column
/// of app 1's half; app 1 sends uniform-random intra traffic.
struct ColumnFlood {
    app_of: Vec<AppId>,
    sinks: Vec<NodeId>,
    natives: Vec<NodeId>,
}

impl ColumnFlood {
    fn new(cfg: &SimConfig, region: &RegionMap) -> Self {
        let app_of: Vec<AppId> = (0..cfg.num_nodes())
            .map(|n| region.app_of(n as NodeId))
            .collect();
        let natives: Vec<NodeId> = (0..cfg.num_nodes() as NodeId)
            .filter(|n| app_of[*n as usize] == 1)
            .collect();
        let sinks: Vec<NodeId> = natives
            .iter()
            .copied()
            .filter(|n| cfg.coord_of(*n).x == cfg.width - 1)
            .collect();
        assert!(!sinks.is_empty(), "far column must be native to app 1");
        Self {
            app_of,
            sinks,
            natives,
        }
    }
}

impl TrafficSource for ColumnFlood {
    fn num_apps(&self) -> usize {
        2
    }

    fn generate(&mut self, node: NodeId, _cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if self.app_of[node as usize] == 0 {
            let dst = self.sinks[rng.random_range(0..self.sinks.len())];
            rng.random_bool(FOREIGN_RATE).then_some(NewPacket {
                dst,
                app: 0,
                class: 0,
                size: 5,
                reply: None,
            })
        } else {
            if !rng.random_bool(NATIVE_RATE) {
                return None;
            }
            let dst = loop {
                let d = self.natives[rng.random_range(0..self.natives.len())];
                if d != node {
                    break d;
                }
            };
            Some(NewPacket {
                dst,
                app: 1,
                class: 0,
                size: 1,
                reply: None,
            })
        }
    }
}

/// Build the pressure-cooker network for `scheme` with the observer
/// attached at `bound`, run it, and return the count of starvation
/// violations.
fn starvation_violations(scheme: &Scheme, bound: u64) -> u64 {
    let mut cfg = SimConfig::table1();
    cfg.oracle = OracleConfig::forced();
    let region = RegionMap::halves(&cfg);
    let source = ColumnFlood::new(&cfg, &region);
    let mut net = Network::new(
        cfg.clone(),
        region,
        Routing::Local.build(),
        scheme.build(),
        Box::new(source),
        99,
    );
    assert!(
        net.attach_checker(Box::new(
            StarvationWatch::with_bound(&cfg, bound).expect("the oracle scans every cycle")
        )),
        "oracle must be enabled for the observer"
    );
    net.run(CYCLES);
    net.stats
        .oracle_violations
        .iter()
        .filter(|v| v.checker == "starvation-observer")
        .count() as u64
}

/// The statically proven native wait bound of the admitted scheme.
fn static_bound() -> u64 {
    let cfg = SimConfig::table1();
    let rep = noc_sim::admit::check_progress(&cfg, &Scheme::rair().automaton());
    rep.wait_bound
        .expect("admitted scheme carries a wait bound")
}

#[test]
fn admitted_scheme_respects_the_static_wait_bound() {
    let bound = static_bound();
    assert!(
        INTERFERENCE_THRESHOLD <= bound,
        "threshold {INTERFERENCE_THRESHOLD} must be at least as strict as the \
         static bound {bound} it certifies"
    );
    // Zero excursions past the tighter threshold implies zero past the
    // statically proven bound.
    assert_eq!(
        starvation_violations(&Scheme::rair(), INTERFERENCE_THRESHOLD),
        0,
        "native head flit exceeded {INTERFERENCE_THRESHOLD} cycles (static \
         bound {bound}) under an admitted scheme"
    );
}

#[test]
fn priority_inversion_is_rejected_statically_and_caught_dynamically() {
    let cfg = SimConfig::table1();
    let region = RegionMap::halves(&cfg);
    let specs = vec![
        Some(AppSpec::intra_only(NATIVE_RATE)),
        Some(AppSpec::intra_only(NATIVE_RATE)),
    ];
    // Statically: the pipeline refutes progress with a concrete lasso and
    // can offer no finite native wait bound.
    let adm = admit_cell(
        &cfg,
        &region,
        &Scheme::rair_foreign_high(),
        Routing::Local,
        &specs,
    );
    assert!(!adm.is_admitted(), "inversion must be rejected statically");
    let rej = adm.rejection().expect("a rejecting property");
    assert_eq!(rej.property, noc_sim::admit::PROP_PROGRESS);
    assert!(rej.witness.is_some(), "rejection carries a witness trace");
    assert_eq!(
        adm.wait_bound(),
        None,
        "no finite bound exists for the inversion"
    );

    // Dynamically: under identical traffic the observer catches native
    // head flits starving past the threshold the admitted scheme never
    // approaches.
    let caught = starvation_violations(&Scheme::rair_foreign_high(), INTERFERENCE_THRESHOLD);
    assert!(
        caught > 0,
        "observer missed the priority inversion (threshold \
         {INTERFERENCE_THRESHOLD}, {CYCLES} cycles)"
    );
}
