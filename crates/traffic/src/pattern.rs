//! Synthetic destination patterns (Dally & Towles \[5\]): uniform random,
//! transpose, bit complement and hotspot, plus the region-constrained
//! variants used by the paper's RNoC scenarios.

use noc_sim::config::SimConfig;
use noc_sim::ids::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A destination-selection pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Uniform over all nodes except the source.
    UniformRandom,
    /// Uniform over the given node set (minus the source) — intra-region
    /// uniform random traffic.
    UniformWithin(Vec<NodeId>),
    /// Uniform over the complement of the given node set — inter-region
    /// uniform random traffic from a region's point of view.
    UniformOutside(Vec<NodeId>),
    /// Transpose: (x, y) → (y, x). Diagonal nodes have no destination.
    Transpose,
    /// Bit complement: node *i* → node *N−1−i*.
    BitComplement,
    /// Hotspot: with probability `bias` the destination is drawn uniformly
    /// from the hotspot node set, otherwise uniformly from the whole chip.
    /// (A pure hotspot with `bias = 1` saturates the hotspot tiles'
    /// ejection ports at any interesting offered load, so hotspot traffic
    /// is conventionally defined as a biased overlay on uniform random.)
    Hotspot { spots: Vec<NodeId>, bias: f64 },
}

impl Pattern {
    /// The default HS target set: the base nodes of the 2×2 block of
    /// routers at the chip's center (on a one-row ring, the four central
    /// routers of the row), clipped to the chip, so every topology gets
    /// distinct in-range nodes.
    pub fn center_hotspots(cfg: &SimConfig) -> Vec<NodeId> {
        let (bw, bh) = if cfg.height == 1 { (4, 1) } else { (2, 2) };
        let span = |len: u8, b: u8| (len / 2).saturating_sub(b / 2)..(len / 2 + b - b / 2).min(len);
        let xs = span(cfg.width, bw);
        (span(cfg.height, bh))
            .flat_map(|y| {
                xs.clone()
                    .map(move |x| cfg.node_at(noc_sim::ids::Coord { x, y }))
            })
            .collect()
    }

    /// Draw a destination for a packet sourced at `src`. Returns `None`
    /// when the pattern defines no destination for this source (transpose
    /// diagonal, or a singleton set containing only `src`).
    pub fn dest(&self, cfg: &SimConfig, src: NodeId, rng: &mut SmallRng) -> Option<NodeId> {
        match self {
            Pattern::UniformRandom => {
                let n = cfg.num_nodes() as NodeId;
                if n < 2 {
                    return None;
                }
                let d = rng.random_range(0..n - 1);
                Some(if d >= src { d + 1 } else { d })
            }
            Pattern::UniformWithin(set) => pick_excluding(set, src, rng),
            Pattern::UniformOutside(set) => {
                // Uniform over all nodes not in `set` and != src. The
                // excluded set is a region; build the complement on the fly
                // by rejection (regions are large fractions, so bound the
                // attempts and fall back to a scan).
                let n = cfg.num_nodes() as NodeId;
                for _ in 0..16 {
                    let d = rng.random_range(0..n);
                    if d != src && !set.contains(&d) {
                        return Some(d);
                    }
                }
                let outside = || (0..n).filter(|d| *d != src && !set.contains(d));
                match outside().count() {
                    0 => None,
                    count => outside().nth(rng.random_range(0..count)),
                }
            }
            Pattern::Transpose => {
                let c = cfg.coord_of(src);
                if c.x == c.y || cfg.width != cfg.height {
                    return None;
                }
                Some(cfg.node_at(noc_sim::ids::Coord { x: c.y, y: c.x }))
            }
            Pattern::BitComplement => {
                let n = cfg.num_nodes() as NodeId;
                let d = n - 1 - src;
                (d != src).then_some(d)
            }
            Pattern::Hotspot { spots, bias } => {
                if rng.random_bool(*bias) {
                    pick_excluding(spots, src, rng)
                } else {
                    Pattern::UniformRandom.dest(cfg, src, rng)
                }
            }
        }
    }

    /// Fold the pattern (variant discriminant plus full payload) into `d` —
    /// collision-proof cache keys, unlike a `Debug` rendering.
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        let write_set = |d: &mut metrics::Digest, set: &[NodeId]| {
            d.write_u64(set.len() as u64);
            for &n in set {
                d.write_u64(n as u64);
            }
        };
        match self {
            Pattern::UniformRandom => d.write_u64(0),
            Pattern::UniformWithin(set) => {
                d.write_u64(1);
                write_set(d, set);
            }
            Pattern::UniformOutside(set) => {
                d.write_u64(2);
                write_set(d, set);
            }
            Pattern::Transpose => d.write_u64(3),
            Pattern::BitComplement => d.write_u64(4),
            Pattern::Hotspot { spots, bias } => {
                d.write_u64(5);
                write_set(d, spots);
                d.write_f64(*bias);
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::UniformRandom => "UR",
            Pattern::UniformWithin(_) => "UR-intra",
            Pattern::UniformOutside(_) => "UR-inter",
            Pattern::Transpose => "TP",
            Pattern::BitComplement => "BC",
            Pattern::Hotspot { .. } => "HS",
        }
    }
}

/// Uniform pick from `set`, excluding `src`; `None` if empty after exclusion.
fn pick_excluding(set: &[NodeId], src: NodeId, rng: &mut SmallRng) -> Option<NodeId> {
    let src_pos = set.iter().position(|&x| x == src);
    let n = set.len() - usize::from(src_pos.is_some());
    if n == 0 {
        return None;
    }
    let idx = rng.random_range(0..n);
    // Skip over the source's position.
    Some(set[idx + usize::from(src_pos.is_some_and(|pos| idx >= pos))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn uniform_never_self() {
        let c = cfg();
        let mut r = rng();
        for src in [0u16, 17, 63] {
            for _ in 0..200 {
                let d = Pattern::UniformRandom.dest(&c, src, &mut r).unwrap();
                assert_ne!(d, src);
                assert!((d as usize) < c.num_nodes());
            }
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let c = cfg();
        let mut r = rng();
        let mut seen = [false; 64];
        for _ in 0..5000 {
            seen[Pattern::UniformRandom.dest(&c, 0, &mut r).unwrap() as usize] = true;
        }
        assert!(seen[1..].iter().all(|&b| b), "some destination never drawn");
        assert!(!seen[0]);
    }

    #[test]
    fn transpose_mirrors_coordinates() {
        let c = cfg();
        let mut r = rng();
        // (1,2) = node 17 → (2,1) = node 10.
        assert_eq!(Pattern::Transpose.dest(&c, 17, &mut r), Some(10));
        // Diagonal (3,3) = 27 has no transpose destination.
        assert_eq!(Pattern::Transpose.dest(&c, 27, &mut r), None);
    }

    #[test]
    fn bit_complement_is_involution() {
        let c = cfg();
        let mut r = rng();
        for src in 0..64u16 {
            let d = Pattern::BitComplement.dest(&c, src, &mut r).unwrap();
            assert_eq!(Pattern::BitComplement.dest(&c, d, &mut r), Some(src));
            assert_eq!(d, 63 - src);
        }
    }

    #[test]
    fn within_stays_inside_set() {
        let c = cfg();
        let mut r = rng();
        let set: Vec<NodeId> = vec![3, 4, 5, 6];
        for _ in 0..100 {
            let d = Pattern::UniformWithin(set.clone())
                .dest(&c, 4, &mut r)
                .unwrap();
            assert!(set.contains(&d));
            assert_ne!(d, 4);
        }
        // Source outside the set: all four members reachable.
        let d = Pattern::UniformWithin(set.clone())
            .dest(&c, 60, &mut r)
            .unwrap();
        assert!(set.contains(&d));
    }

    #[test]
    fn singleton_set_with_self_is_empty() {
        let c = cfg();
        let mut r = rng();
        assert_eq!(Pattern::UniformWithin(vec![9]).dest(&c, 9, &mut r), None);
    }

    #[test]
    fn outside_avoids_set() {
        let c = cfg();
        let mut r = rng();
        let region: Vec<NodeId> = (0..32).collect();
        for _ in 0..200 {
            let d = Pattern::UniformOutside(region.clone())
                .dest(&c, 5, &mut r)
                .unwrap();
            assert!(d >= 32, "dest {d} inside excluded region");
        }
    }

    #[test]
    fn pure_hotspot_targets_only_hotspots() {
        let c = cfg();
        let mut r = rng();
        let spots = Pattern::center_hotspots(&c);
        assert_eq!(spots.len(), 4);
        let hs = Pattern::Hotspot {
            spots: spots.clone(),
            bias: 1.0,
        };
        for _ in 0..100 {
            let d = hs.dest(&c, 0, &mut r).unwrap();
            assert!(spots.contains(&d));
        }
        // A hotspot node itself never targets itself.
        for _ in 0..50 {
            let d = hs.dest(&c, spots[0], &mut r).unwrap();
            assert_ne!(d, spots[0]);
        }
    }

    /// Four distinct in-range hotspots on every canonical topology (the
    /// ring has one row, so its block is the row's four central routers);
    /// the 8×8 mesh keeps the paper's central block.
    #[test]
    fn center_hotspots_are_distinct_and_on_chip_everywhere() {
        for kind in noc_sim::topology::TopologyKind::CANONICAL {
            let c = SimConfig::table1_topology(kind);
            let spots = Pattern::center_hotspots(&c);
            let mut distinct = spots.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 4, "{kind:?}: {spots:?}");
            assert!(
                spots.iter().all(|&n| (n as usize) < c.num_nodes()),
                "{kind:?}: {spots:?}"
            );
        }
        let ring = SimConfig::table1_topology(noc_sim::topology::TopologyKind::Ring);
        assert_eq!(Pattern::center_hotspots(&ring), [6, 7, 8, 9]);
        assert_eq!(Pattern::center_hotspots(&cfg()), [27, 28, 35, 36]);
    }

    #[test]
    fn biased_hotspot_mixes_with_uniform() {
        let c = cfg();
        let mut r = rng();
        let spots = Pattern::center_hotspots(&c);
        let hs = Pattern::Hotspot {
            spots: spots.clone(),
            bias: 0.5,
        };
        let mut hits = 0u32;
        let n = 4000;
        for _ in 0..n {
            if spots.contains(&hs.dest(&c, 0, &mut r).unwrap()) {
                hits += 1;
            }
        }
        // 50% biased, plus ~6% of the uniform remainder also lands on the spots.
        let frac = hits as f64 / n as f64;
        assert!((0.48..0.62).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn labels() {
        assert_eq!(Pattern::UniformRandom.label(), "UR");
        assert_eq!(Pattern::Transpose.label(), "TP");
        assert_eq!(Pattern::BitComplement.label(), "BC");
        assert_eq!(
            Pattern::Hotspot {
                spots: vec![0],
                bias: 0.5
            }
            .label(),
            "HS"
        );
    }
}
