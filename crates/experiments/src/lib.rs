//! # experiments — regenerating the paper's evaluation
//!
//! One driver per table/figure of §V (plus the §III LBDR analysis, three
//! ablations and the side-by-side `baselines`), all built on one cell runner
//! ([`figs::run_cells`], read back as a [`figs::AplTable`]) over the one
//! supervised pool ([`service::pool`]), and the saturation-load cache that
//! anchors the "% of saturation" load definitions.
//!
//! The `repro` binary exposes every driver and service from the command
//! line; `repro --help` lists the subcommands and flags.

pub mod admit;
pub mod figs;
pub mod runner;
pub mod service;
pub mod sweep;
pub mod verify_config;

pub use runner::{
    run_one, run_parallel_checkpointed, run_parallel_results, ExpConfig, Job, JobError, RunResult,
};
