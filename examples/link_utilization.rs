//! Link-utilization analysis: where does inter-region traffic actually
//! flow, and what is the hottest link on the chip?
//!
//! Runs the six-application Fig. 13 scenario with the analysis observer
//! attached to the invariant oracle, prints a per-router forwarding-activity
//! heatmap, the hottest link, the foreign share of VC occupancy, and traces
//! one packet's journey hop by hop.
//!
//! ```text
//! cargo run --release --example link_utilization
//! ```

use metrics::viz::heatmap;
use noc_sim::analysis::{Analysis, JourneyEvent};
use noc_sim::ids::port_name;
use noc_sim::network::Network;
use noc_sim::prelude::*;
use rair::prelude::*;
use traffic::prelude::*;

fn main() {
    // The observer counts every cycle: the oracle must scan every cycle.
    let cfg = SimConfig {
        oracle: OracleConfig::forced(),
        ..SimConfig::table1()
    };
    let rates = [0.03, 0.3, 0.1, 0.07, 0.08, 0.3];
    let (region, scenario) = six_app(&cfg, rates, InterDest::OutsideUniform);
    let mut net = Network::new(
        cfg.clone(),
        region,
        Routing::Local.build(),
        Scheme::rair().build(),
        Box::new(scenario),
        2026,
    );
    // Trace the 5000th generated packet.
    let analysis = Analysis::new(&cfg, Some(5_000)).expect("the oracle scans every cycle");
    assert!(net.attach_checker(Box::new(analysis)), "the oracle is on");
    net.run(20_000);

    let a = net.checker::<Analysis>().expect("analysis attached");
    println!("six-app RNoC (Fig. 13 layout), RAIR, 20K cycles\n");
    println!("per-router forwarding activity (flits onto mesh links):");
    print!("{}", heatmap(&a.forwarding_activity(), cfg.width as usize));

    if let Some((router, port, util)) = a.hottest_link() {
        let c = cfg.coord_of(router);
        println!(
            "hottest link: router ({}, {}) port {} at {:.1}% utilization",
            c.x,
            c.y,
            port_name(port),
            util * 100.0
        );
    }
    println!(
        "foreign share of occupied VC-cycles: {:.1}% (RB-3: the minority of \
         traffic is inter-region)",
        a.foreign_occupancy_share() * 100.0
    );

    println!("\ntraced packet journey:");
    for (cycle, ev) in &a.journey {
        match ev {
            JourneyEvent::Injected { node } => {
                let c = cfg.coord_of(*node);
                println!("  cycle {cycle:>6}: injected at ({}, {})", c.x, c.y);
            }
            JourneyEvent::Forwarded { router, port } => {
                let c = cfg.coord_of(*router);
                println!(
                    "  cycle {cycle:>6}: ({}, {}) --{}-->",
                    c.x,
                    c.y,
                    port_name(*port)
                );
            }
            JourneyEvent::Delivered { node } => {
                let c = cfg.coord_of(*node);
                println!("  cycle {cycle:>6}: delivered at ({}, {})", c.x, c.y);
            }
        }
    }
    if a.journey.is_empty() {
        println!("  (watched packet was not generated within the window)");
    }
}
