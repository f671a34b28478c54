//! Shared experiment plumbing: network construction from (scheme, routing)
//! and the saturation-load cache.
//!
//! The paper expresses all synthetic loads as a percentage of each
//! application's saturation load. Saturation measurement is itself a
//! search over simulations ([`traffic::saturation::search_saturation`]), so
//! loads go through one `service::Cache` instance — keyed by a
//! [`metrics::Digest`] of the measurement parameters `(probe, cfg, region
//! assignment, app, spec)`, never by the caller's label, so two call sites
//! can never share a stale load by reusing a label string. Its disk layer
//! keeps one file per load, so a second `repro` invocation performs
//! **zero** searches for loads it has already measured.

use crate::runner::ExpConfig;
use crate::service::{self, Cache};
use noc_sim::config::SimConfig;
use noc_sim::network::Network;
use noc_sim::region::RegionMap;
use noc_sim::source::TrafficSource;
use rair::scheme::{Routing, Scheme};
use std::path::{Path, PathBuf};
use traffic::saturation::{app_saturation_traced, SaturationProbe};
use traffic::scenario::AppSpec;

/// Build a network from the scheme/routing matrix plus a traffic source.
/// Construction only constructs: admission is `crate::admit`'s gate, which
/// `repro admit` and `serve` run, and the figure cells' verdicts are pinned
/// by a test (the `RAIR_ForeignH` inversion is simulated on purpose, as a
/// measured ablation).
pub fn build_network(
    cfg: &SimConfig,
    region: &RegionMap,
    scheme: &Scheme,
    routing: Routing,
    source: Box<dyn TrafficSource>,
    seed: u64,
) -> Network {
    Network::new(
        cfg.clone(),
        region.clone(),
        routing.build(),
        scheme.build(),
        source,
        seed,
    )
}

/// The process-wide saturation-load cache behind [`cached_saturation`]:
/// `sat_<key>.txt` holds the load under the `rair-sat-v3` frame, then a
/// `# label = load` comment.
static SATURATION: Cache = Cache::new();

/// Process-wide saturation-cache counters: `(mem_hits, disk_hits, 0,
/// searches)` since startup. The third field once counted model-warmed
/// searches apart from cold ones; every search now starts under the
/// model's bound and counts as a search, and the zero keeps the shape the
/// frozen benchmark harness compiles against until ROADMAP item 4's
/// `benchmark` PR.
pub fn saturation_cache_stats() -> (u64, u64, u64, u64) {
    let s = SATURATION.stats();
    (s.mem_hits, s.disk_hits, 0, s.misses)
}

/// Cache key: a digest of every parameter the measured load depends on,
/// written through the pinned [`metrics::Digest`] with explicit
/// discriminants and length prefixes, so it is stable across Rust versions.
fn sat_digest(
    probe: &SaturationProbe,
    cfg: &SimConfig,
    region: &RegionMap,
    app: u8,
    spec: &AppSpec,
) -> u64 {
    let mut d = metrics::Digest::new();
    // Domain tag ("RAIRSAT" + version) so these keys can never collide
    // with another digest family reusing the same hash.
    d.write_u64(0x5241_4952_5341_5401);
    probe.digest_into(&mut d);
    cfg.digest_into(&mut d);
    d.write_u64(cfg.num_nodes() as u64);
    for n in 0..cfg.num_nodes() as u16 {
        d.write_u64(region.app_of(n) as u64);
    }
    d.write_u64(app as u64);
    spec.digest_into(&mut d);
    d.finish()
}

/// Whether `v` is a usable saturation load: positive and finite. The one
/// test a searched load and a cached one must both pass.
pub(crate) fn is_load(v: f64) -> bool {
    v > 0.0 && v.is_finite()
}

/// `load`, or a panic naming the search when it collapsed (to zero when
/// even the smallest probed rate is unstable). Inside the panic-safe pool
/// that is one failed job with the label in its message, not a sweep abort.
fn usable(label: &str, app: u8, load: f64) -> f64 {
    assert!(
        is_load(load),
        "saturation search collapsed to {load} for {label} (app {app})"
    );
    load
}

/// Saturation load of application `app` running alone with traffic mix
/// `spec` on `region` (round-robin arbitration, local adaptive routing).
/// `label` only names the search in diagnostics and the entry's comment.
/// The disk layer is `RAIR_CACHE_DIR`, else `results/cache` under the
/// working directory, resolved on every call. On a miss the load is
/// searched ([`traffic::saturation::app_saturation_traced`], starting under
/// the model's unit-capacity bound, [`model::warm_hint`]), validated and
/// written to both layers. A hit does no model work.
pub fn cached_saturation(
    label: &str,
    ec: &ExpConfig,
    cfg: &SimConfig,
    region: &RegionMap,
    app: u8,
    spec: &AppSpec,
) -> f64 {
    let store = service::std_store();
    let dir = std::env::var_os("RAIR_CACHE_DIR")
        .map_or_else(|| Path::new("results").join("cache"), PathBuf::from);
    let probe = if ec.quick {
        SaturationProbe::quick()
    } else {
        SaturationProbe::default()
    };
    let key = sat_digest(&probe, cfg, region, app, spec);
    if let Some(load) = SATURATION.get(store, &dir, key) {
        return load;
    }
    let bound = model::warm_hint(cfg, region, app, spec, model::RoutingKind::Adaptive);
    let out = app_saturation_traced(&probe, cfg, region, app, spec, bound, || {
        Routing::Local.build()
    });
    let load = usable(label, app, out.load);
    let note = format!("# {label} = {load:.6} flits/cycle/node\n");
    SATURATION.put(store, &dir, key, load, &note);
    load
}

/// Empty the in-memory layer, as in a new process; disk entries stay (point
/// `RAIR_CACHE_DIR` at a temp directory to isolate a test from them).
pub fn clear_saturation_cache() {
    SATURATION.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::source::NoTraffic;
    use traffic::scenario::InterDest;

    /// Serializes tests that touch the process-wide cache layers or the
    /// `RAIR_CACHE_DIR` environment variable.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Point the disk cache at a unique temp directory for one test.
    struct TempCacheDir {
        dir: PathBuf,
    }

    impl TempCacheDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("rair-satcache-{}-{tag}", std::process::id()));
            // lint: allow(swallowed-io-error)
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::env::set_var("RAIR_CACHE_DIR", &dir);
            Self { dir }
        }
    }

    impl Drop for TempCacheDir {
        fn drop(&mut self) {
            std::env::remove_var("RAIR_CACHE_DIR");
            // lint: allow(swallowed-io-error)
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn degenerate_loads_panic_with_the_label() {
        assert_eq!(usable("lbl", 0, 0.375), 0.375);
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let err = std::panic::catch_unwind(|| usable("fig9/halves", 1, bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            let want = format!("saturation search collapsed to {bad} for fig9/halves (app 1)");
            assert_eq!(msg, &want);
        }
    }

    #[test]
    fn saturation_cache_layers_and_zero_searches_on_rerun() {
        let _guard = env_lock();
        let tmp = TempCacheDir::new("layers");
        clear_saturation_cache();
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let ec = ExpConfig::quick();
        let spec = AppSpec::intra_only(0.0);
        // `(mem hits, disk hits, searches)` of one lookup.
        let lookup = |label: &str| {
            let (m0, d0, _, s0) = saturation_cache_stats();
            let load = cached_saturation(label, &ec, &cfg, &region, 0, &spec);
            let (m1, d1, _, s1) = saturation_cache_stats();
            (load, (m1 - m0, d1 - d0, s1 - s0))
        };
        // Cold start: one real search, persisted to disk.
        let (a, how) = lookup("test/halves0");
        assert_eq!(how, (0, 0, 1));
        assert!(a > 0.05 && a < 1.0, "saturation {a}");
        // The entry's bytes are a compatibility surface, and the cache adds
        // no other file to the directory (rair-bench's `fig14_*` children
        // count exactly one file per load).
        let name = "sat_c814a9c1c895f6cb.txt";
        let files: Vec<String> = std::fs::read_dir(&tmp.dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, [name]);
        assert_eq!(
            std::fs::read_to_string(tmp.dir.join(name)).unwrap(),
            "rair-sat-v3\t430f78bd\t3fd8000000000000\n# test/halves0 = 0.375000 flits/cycle/node\n"
        );
        // Same parameters under a different label: in-memory hit, identical
        // value.
        let (b, how) = lookup("other/label");
        assert_eq!((a.to_bits(), how), (b.to_bits(), (1, 0, 0)));
        // Fresh process simulated by clearing the memory layer: the disk
        // entry answers — a second `repro` run performs zero searches.
        clear_saturation_cache();
        let (c, how) = lookup("rerun");
        assert_eq!((a.to_bits(), how), (c.to_bits(), (0, 1, 0)));
        // And it was promoted back into memory.
        assert_eq!(lookup("rerun2").1, (1, 0, 0));
    }

    #[test]
    fn build_network_wires_scheme_and_routing() {
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        let net = build_network(
            &cfg,
            &region,
            &Scheme::rair(),
            Routing::Dbar,
            Box::new(NoTraffic),
            1,
        );
        assert_eq!(net.policy_name(), "RA_RAIR");
        assert_eq!(net.routing_name(), "DBAR");
    }

    /// Construction does not gate: a statically rejected scheme builds —
    /// the `RAIR_ForeignH` inversion is a measured ablation, not an error.
    #[test]
    fn statically_rejected_scheme_still_builds() {
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        let net = build_network(
            &cfg,
            &region,
            &Scheme::rair_foreign_high(),
            Routing::Local,
            Box::new(NoTraffic),
            3,
        );
        assert_eq!(net.policy_name(), "RA_RAIR");
    }

    #[test]
    fn distinct_parameters_never_collide() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let base = AppSpec::intra_only(0.0);
        let quick = SaturationProbe::quick();
        let full = SaturationProbe::default();
        let reference = sat_digest(&quick, &cfg, &region, 0, &base);
        // Key is a pure function of the parameters…
        assert_eq!(reference, sat_digest(&quick, &cfg, &region, 0, &base));
        // …and every parameter perturbation changes it.
        assert_ne!(reference, sat_digest(&full, &cfg, &region, 0, &base));
        assert_ne!(reference, sat_digest(&quick, &cfg, &region, 1, &base));
        let mut other_cfg = cfg.clone();
        other_cfg.vc_depth += 1;
        assert_ne!(reference, sat_digest(&quick, &other_cfg, &region, 0, &base));
        let quadrants = RegionMap::quadrants(&cfg);
        assert_ne!(reference, sat_digest(&quick, &cfg, &quadrants, 0, &base));
        let mut spec = base.clone();
        spec.mc += 0.05;
        spec.intra -= 0.05;
        assert_ne!(reference, sat_digest(&quick, &cfg, &region, 0, &spec));
        let mut dest = base.clone();
        dest.inter_dest = InterDest::Region(1);
        assert_ne!(reference, sat_digest(&quick, &cfg, &region, 0, &dest));
    }
}
