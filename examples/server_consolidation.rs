//! Server consolidation: four "virtual machines" (one per quadrant) run
//! PARSEC-like workloads while one of them goes rogue and floods the chip —
//! the motivating scenario of §II.B and §V.G of the paper ("if one VM goes
//! awry or is under malicious attack, the remaining VMs should be minimally
//! affected").
//!
//! The example measures each VM's packet-latency slowdown under the attack
//! for all four interference-reduction schemes and shows RAIR isolating the
//! healthy VMs best.
//!
//! ```text
//! cargo run --release --example server_consolidation
//! ```

use noc_sim::network::Network;
use noc_sim::prelude::*;
use rair::prelude::*;
use traffic::prelude::*;

const WARMUP: u64 = 5_000;
const MEASURE: u64 = 30_000;

fn run(scheme: &Scheme, routing: Routing, adversarial: bool) -> Vec<f64> {
    let cfg = SimConfig::table1_req_reply();
    let region = RegionMap::quadrants(&cfg);
    let models = AppModel::parsec_four();
    let workload = ParsecWorkload::new(&cfg, &region, models);
    let mut net = if adversarial {
        // A rogue agent injecting 0.4 flits/cycle/node chip-wide, tagged as
        // a fifth application that owns no region.
        let adv = Adversarial::new(workload, 0.4, &cfg);
        Network::new(
            cfg.clone(),
            region,
            routing.build(),
            scheme.build(),
            Box::new(adv),
            7,
        )
    } else {
        Network::new(
            cfg.clone(),
            region,
            routing.build(),
            scheme.build(),
            Box::new(workload),
            7,
        )
    };
    net.run_warmup_measure(WARMUP, MEASURE);
    (0..4)
        .map(|a| {
            net.stats
                .recorder
                .app(a)
                .mean(LatencyKind::Network)
                .expect("VM delivered packets")
        })
        .collect()
}

fn main() {
    let names = ["blackscholes", "swaptions", "fluidanimate", "raytrace"];
    let intensities: Vec<f64> = AppModel::parsec_four()
        .iter()
        .map(AppModel::mean_rate)
        .collect();
    println!("four VMs (one per quadrant): {names:?}");
    println!("rogue agent: chip-wide uniform traffic at 0.4 flits/cycle/node\n");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "scheme", names[0], names[1], names[2], names[3], "avg"
    );
    for (label, scheme, routing) in [
        ("RO_RR", Scheme::RoRr, Routing::Local),
        ("RA_DBAR", Scheme::RoRr, Routing::Dbar),
        (
            "RO_Rank",
            Scheme::ro_rank(intensities.clone()),
            Routing::Local,
        ),
        ("RA_RAIR", Scheme::rair(), Routing::Local),
    ] {
        let base = run(&scheme, routing, false);
        let under_attack = run(&scheme, routing, true);
        let slowdowns: Vec<f64> = base.iter().zip(&under_attack).map(|(b, a)| a / b).collect();
        let avg = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
        println!(
            "{label:<10} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x {avg:>7.2}x",
            slowdowns[0], slowdowns[1], slowdowns[2], slowdowns[3]
        );
    }
    println!("\nRAIR identifies the rogue traffic as foreign in every region and");
    println!("deprioritizes it dynamically — no central control, no batching.");
}
