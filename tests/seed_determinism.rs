//! Seed determinism: two runs with the same `SimConfig` + seed must produce
//! bit-identical `SimStats` digests for every scheme × routing combination,
//! and different seeds must (for a loaded run) produce different digests.
//! The digest covers every counter and the full latency-recorder state
//! (`SimStats::digest`), so any nondeterminism in arbitration order, RNG
//! use, or float accumulation shows up as a digest mismatch.

use noc_sim::network::Network;
use noc_sim::prelude::*;
use rair::prelude::*;
use traffic::prelude::*;

fn digest_of(scheme: &Scheme, routing: Routing, seed: u64) -> u64 {
    let cfg = SimConfig::table1();
    let (region, scenario) = two_app(&cfg, 0.4, 0.04, 0.15);
    let mut net = Network::new(
        cfg,
        region,
        routing.build(),
        scheme.build(),
        Box::new(scenario),
        seed,
    );
    net.run_warmup_measure(400, 1_000);
    net.stats.digest()
}

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::RoRr,
        Scheme::RoAge,
        Scheme::ro_rank(vec![0.1, 0.3]),
        Scheme::rair(),
    ]
}

#[test]
fn same_seed_same_digest_across_matrix() {
    for scheme in all_schemes() {
        for routing in Routing::ALL {
            let a = digest_of(&scheme, routing, 42);
            let b = digest_of(&scheme, routing, 42);
            assert_eq!(
                a,
                b,
                "nondeterministic run: {}/{}",
                scheme.label(),
                routing.label()
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    // A loaded run's packet schedule depends on the seed, so distinct seeds
    // must fingerprint differently (collision odds are negligible across 3
    // pairs of 64-bit digests).
    for routing in Routing::ALL {
        let a = digest_of(&Scheme::rair(), routing, 1);
        let b = digest_of(&Scheme::rair(), routing, 2);
        assert_ne!(a, b, "seed ignored under {}", routing.label());
    }
}

#[test]
fn digest_differs_across_schemes() {
    // Sanity: the digest is sensitive enough to distinguish schemes on the
    // same traffic and seed.
    let rr = digest_of(&Scheme::RoRr, Routing::Local, 42);
    let rair = digest_of(&Scheme::rair(), Routing::Local, 42);
    assert_ne!(rr, rair);
}
