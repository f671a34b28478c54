//! # experiments — regenerating the paper's evaluation
//!
//! One driver per table/figure of §V (plus the §III LBDR analysis and one
//! sweep of the ablations and baselines), all built on one cell runner
//! ([`figs::run_cells`], read back as a [`figs::AplTable`]) over the one
//! supervised pool ([`service::pool`]), and the saturation-load cache
//! ([`sweep::cached_saturation`], one `service::Cache` instance) that
//! anchors the "% of saturation" load definitions. `run_cells` is the only
//! way a driver runs more than one simulation — trace-demo included; only
//! `repro serve` calls the pool itself, and only serve's jobs resume after
//! a crash (its journal); a figure sweep reruns from the start.
//!
//! The `repro` binary exposes every driver and service from the command
//! line; `repro --help` lists the subcommands and flags.

pub mod admit;
pub mod figs;
pub mod runner;
pub mod service;
pub mod sweep;

pub use runner::{run_one, ExpConfig, RunResult};
