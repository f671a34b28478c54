//! Criterion microbenchmarks of the simulator substrate
//! (`benches/router_micro.rs`): idle, saturated, low- and high-load tick
//! costs, oracle on/off. End-to-end throughput — the figures, `repro serve`,
//! per-layer kernel numbers — is `rair-bench`'s job (see `BENCHMARK.json`).
