//! # experiments — regenerating the paper's evaluation
//!
//! One driver per table/figure of §V (plus the §III LBDR analysis and two
//! ablations), a parallel sweep runner, and the saturation-load cache that
//! anchors the "% of saturation" load definitions.
//!
//! The `repro` binary exposes all drivers from the command line:
//!
//! ```text
//! repro [--quick] [--seed N] <table1|fig9|fig10|fig12|fig14|fig15|fig17|
//!                             lbdr|ablation-delta|ablation-vcsplit|all>
//! ```

pub mod admit;
pub mod bench_kernel;
pub mod bench_model;
pub mod figs;
pub mod runner;
pub mod service;
pub mod sweep;
pub mod verify_config;

pub use runner::{
    run_one, run_parallel, run_parallel_checkpointed, run_parallel_checkpointed_with,
    run_parallel_results, ExpConfig, Job, JobError, RunResult,
};
