//! Every workload and metric name the harness can emit. `BENCHMARK.json`
//! at the repo root declares the same names, units and directions; a unit
//! test holds the two together.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`. The harness only reports values; this is
    /// for the test that holds this table and `BENCHMARK.json` together.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const KERNEL_WORKLOADS: [&str; 3] = ["mesh8_low", "mesh8_high", "mesh16_mid"];
pub const WORKLOADS: [&str; 6] = [
    "mesh8_low",
    "mesh8_high",
    "mesh16_mid",
    "fig14_cold",
    "fig14_warm",
    "serve_batch",
];

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [Metric; 4] = [
    m("work_per_s", "1/s", "higher"),
    m("sim_apl_cycles", "cycles", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Reported with `--trace 1`; a metric whose layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [Metric; 68] = [
    // noc_sim::network — kernel workloads.
    m("network.new_ms", "ms", "lower"),
    m("network.live_cps", "1/s", "higher"),
    m("network.replay_cps", "1/s", "higher"),
    m("network.ns_per_router_cycle", "ns", "lower"),
    m("network.ns_per_flit", "ns", "lower"),
    m("network.visits_skipped_frac", "frac", "higher"),
    m("network.updates_skipped_frac", "frac", "higher"),
    m("network.idle_cycles_skipped", "count", "higher"),
    m("network.flits_delivered", "count", "higher"),
    m("network.packets_delivered", "count", "higher"),
    m("network.chunks", "count", "higher"),
    m("network.chunk_ms_p50", "ms", "lower"),
    m("network.chunk_ms_p75", "ms", "lower"),
    m("network.chunk_ms_max", "ms", "lower"),
    // traffic — kernel workloads.
    m("traffic.capture_s", "s", "lower"),
    m("traffic.packets", "count", "higher"),
    m("traffic.gen_share", "frac", "lower"),
    // rair, noc_sim::routing — mesh8_high.
    m("rair.policy_cost_frac", "frac", "lower"),
    m("routing.dbar_cost_frac", "frac", "lower"),
    // noc_sim::oracle, noc_sim::shard — kernel workloads.
    m("oracle.overhead_x", "x", "lower"),
    m("oracle.violations", "count", "lower"),
    m("shard.speedup_x2", "x", "higher"),
    m("shard.digest_match", "count", "higher"),
    // metrics — mesh8_high.
    m("metrics.record_ns", "ns", "lower"),
    // traffic::saturation, model, experiments::sweep — fig14_cold.
    m("saturation.search_s", "s", "lower"),
    m("saturation.cold_search_s", "s", "lower"),
    m("saturation.cold_sims", "count", "lower"),
    m("saturation.warm_sims", "count", "lower"),
    m("model.search_speedup_x", "x", "higher"),
    m("sweep.sat_warmed", "count", "higher"),
    m("sweep.sat_cold", "count", "lower"),
    // experiments::sweep (cache), experiments::runner — fig14_warm.
    m("sweep.sat_disk_hits", "count", "higher"),
    m("sweep.sat_mem_hits", "count", "higher"),
    m("sweep.cache_hit_ms", "ms", "lower"),
    m("runner.pool_wall_s", "s", "lower"),
    m("runner.serial_s", "s", "lower"),
    m("runner.pool_efficiency", "frac", "higher"),
    m("fig14.paper_error_pp", "pp", "lower"),
    // noc_sim::admit, noc_sim::verify — serve_batch.
    m("admit.check_ms", "ms", "lower"),
    m("admit.cached_us", "us", "lower"),
    m("verify.check_ms", "ms", "lower"),
    // experiments::service — serve_batch.
    m("serve.total_s", "s", "lower"),
    m("serve.exec_s_sum", "s", "lower"),
    m("serve.exec_ms_p50", "ms", "lower"),
    m("serve.exec_ms_p90", "ms", "lower"),
    m("serve.overhead_frac", "frac", "lower"),
    m("serve.resume_ms", "ms", "lower"),
    m("serve.executed", "count", "higher"),
    m("serve.cache_hits", "count", "higher"),
    m("serve.rejected", "count", "lower"),
    m("serve.quarantined", "count", "lower"),
    m("store.append_count", "count", "lower"),
    m("store.append_s", "s", "lower"),
    m("store.write_atomic_count", "count", "lower"),
    m("store.write_atomic_s", "s", "lower"),
    m("store.read_count", "count", "lower"),
    m("store.read_s", "s", "lower"),
    m("journal.rows", "count", "lower"),
    m("journal.replay_ms", "ms", "lower"),
    // The harness itself — every workload.
    m("host.calib_ms_min", "ms", "lower"),
    m("host.calib_ms_p50", "ms", "lower"),
    m("host.calib_ms_max", "ms", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.root_s", "s", "lower"),
    m("trace.accounted_frac", "frac", "higher"),
    m("checks.run", "count", "higher"),
    m("checks.failed", "count", "lower"),
    m("checks.pinned", "count", "higher"),
];
