//! Input generation: everything the program under test sees is derived
//! from `--seed` here, with a dependency-free splitmix64.

/// Sebastiano Vigna's splitmix64.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (the modulo bias at these sizes is below
    /// 2⁻⁵⁰ and the same on every run).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Independent seed streams drawn from the benchmark seed.
#[derive(Clone, Copy)]
pub enum Stream {
    /// `Network::new` / `Trace::capture` seed of the kernel workloads.
    Kernel = 1,
    /// `repro --seed` of the `fig14_*` workloads.
    Repro = 2,
    /// The `serve_batch` jobs file.
    Jobs = 3,
}

pub fn derive(seed: u64, stream: Stream) -> u64 {
    let mut g = SplitMix64::new(seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    g.next_u64()
}

/// Line counts of the `serve_batch` jobs file.
pub const JOBS_DISTINCT: usize = 60;
pub const JOBS_DUPLICATES: usize = 6;
pub const JOBS_REJECTED: usize = 1;
pub const JOBS_LINES: usize = JOBS_DISTINCT + JOBS_DUPLICATES + JOBS_REJECTED;

// Every scheme here passes the static admission gate on every routing and
// region below (ADMIT_report.json); `rair_foreign_high` is the one that
// never does.
const SCHEMES: [&str; 5] = ["ro_rr", "ro_age", "rair", "rair_va", "rair_native_high"];
const PATTERNS: [&str; 3] = ["uniform", "transpose", "bitcomp"];
const RATES: [f64; 5] = [0.02, 0.04, 0.06, 0.08, 0.10];
const ROUTINGS: [&str; 3] = ["xy", "local", "dbar"];
const REGIONS: [&str; 3] = ["single", "halves", "quadrants"];

/// The `serve_batch` jobs file for `seed`: [`JOBS_DISTINCT`] distinct
/// lines, [`JOBS_DUPLICATES`] relabelled copies of some of them (each after
/// its original, so the original is the one that executes) and one
/// statically rejected `rair_foreign_high` line.
///
/// The distinct lines are a balanced design, the same for every seed in
/// what decides how much a batch costs: each scheme 12 times, each pattern
/// 20 times, each rate 12 times. The seed picks the routing × region pair
/// of every line, the per-job seeds, the duplicates and the line order, so
/// batches of different seeds are different inputs of equal size.
pub fn jobs_file(seed: u64) -> String {
    let mut g = SplitMix64::new(derive(seed, Stream::Jobs));
    let mut params: Vec<String> = Vec::with_capacity(JOBS_DISTINCT);
    for (s, scheme) in SCHEMES.iter().enumerate() {
        for pattern in PATTERNS {
            // Four lines share this (scheme, pattern): four different
            // routing × region pairs keep them pairwise distinct.
            let mut pairs: Vec<usize> = (0..ROUTINGS.len() * REGIONS.len()).collect();
            for group in 0..JOBS_DISTINCT / (SCHEMES.len() * PATTERNS.len()) {
                let pick = group + g.below(pairs.len() - group);
                pairs.swap(group, pick);
                let (routing, region) = (ROUTINGS[pairs[group] % 3], REGIONS[pairs[group] / 3]);
                let rate = RATES[(group + s) % RATES.len()];
                let job_seed = g.next_u64() >> 16;
                params.push(format!(
                    "{scheme} {routing} {region} {pattern} {rate:.2} {job_seed}"
                ));
            }
        }
    }
    for i in (1..params.len()).rev() {
        params.swap(i, g.below(i + 1));
    }
    let mut lines: Vec<String> = params
        .iter()
        .enumerate()
        .map(|(n, p)| format!("job{n:02} {p}"))
        .collect();
    for d in 0..JOBS_DUPLICATES {
        let of = g.below(JOBS_DISTINCT);
        lines.push(format!("dup{d}-of-job{of:02} {}", params[of]));
    }
    let rejected = format!(
        "inverted rair_foreign_high local halves uniform 0.05 {}",
        g.next_u64() >> 16
    );
    lines.insert(g.below(lines.len() + 1), rejected);
    let mut out = format!("# rair-bench serve_batch jobs, seed {seed}\n");
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::runner::ExpConfig;
    use experiments::service::JobSpec;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference implementation.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_ne!(derive(1, Stream::Kernel), derive(1, Stream::Repro));
        assert_ne!(derive(1, Stream::Kernel), derive(2, Stream::Kernel));
    }

    #[test]
    fn jobs_file_is_deterministic_and_has_the_stated_proportions() {
        for seed in [0xC0FFEE, 1, 2, 99] {
            let text = jobs_file(seed);
            assert_eq!(text, jobs_file(seed), "same seed, same file");
            let specs = JobSpec::parse_jobs(&text).expect("the service parses the file");
            assert_eq!(specs.len(), JOBS_LINES);
            let ec = ExpConfig::quick();
            let ids: BTreeSet<u64> = specs.iter().map(|s| s.id(&ec)).collect();
            assert_eq!(ids.len(), JOBS_DISTINCT + JOBS_REJECTED);
            let labels: BTreeSet<&str> = specs.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels.len(), JOBS_LINES, "labels are unique");
            let rejected = specs.iter().filter(|s| s.scheme == "rair_foreign_high");
            assert_eq!(rejected.count(), JOBS_REJECTED);
            let cells: BTreeSet<_> = specs
                .iter()
                .filter(|s| s.label.starts_with("job"))
                .map(|s| (&s.scheme, &s.routing, &s.region, &s.pattern))
                .collect();
            assert_eq!(cells.len(), JOBS_DISTINCT, "cells are pairwise distinct");
            // A duplicate comes after the line it copies.
            for (i, s) in specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.label.starts_with("dup"))
            {
                let first = specs.iter().position(|o| o.id(&ec) == s.id(&ec)).unwrap();
                assert!(first < i, "{} precedes its original", s.label);
            }
            // The design is balanced in what decides a batch's cost.
            let originals: Vec<&JobSpec> = specs
                .iter()
                .filter(|s| s.label.starts_with("job"))
                .collect();
            let count = |f: &dyn Fn(&JobSpec) -> bool| originals.iter().filter(|s| f(s)).count();
            for scheme in SCHEMES {
                assert_eq!(count(&|s| s.scheme == scheme), 12, "{scheme}");
            }
            for pattern in PATTERNS {
                assert_eq!(count(&|s| s.pattern == pattern), 20, "{pattern}");
            }
            for rate in RATES {
                assert_eq!(count(&|s| s.rate == rate), 12, "{rate}");
            }
        }
        assert_ne!(jobs_file(1), jobs_file(2));
    }
}
