//! # traffic — workloads for the RAIR reproduction
//!
//! Everything that *offers* traffic to the `noc-sim` substrate:
//!
//! * [`pattern`] — the synthetic destination patterns of §V (uniform
//!   random, transpose, bit complement, hotspot) plus region-constrained
//!   variants;
//! * [`scenario`] — multi-application regionalized scenarios, including the
//!   exact layouts of the paper's Figures 8, 11 and 13;
//! * [`saturation`] — measurement of per-application saturation loads, so
//!   scenario rates can be expressed as "% of saturation" like the paper;
//! * [`workload`] — PARSEC-like closed-loop statistical application models
//!   (the documented substitution for the unavailable SIMICS/GEMS traces);
//! * [`adversarial`] — the chip-wide malicious-traffic injector of §V.G;
//! * [`trace`] — binary trace capture and deterministic replay.

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod pattern;
pub mod saturation;
pub mod scenario;
pub mod trace;
pub mod workload;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::adversarial::Adversarial;
    pub use crate::pattern::Pattern;
    pub use crate::saturation::{app_saturation, find_saturation, SaturationProbe};
    pub use crate::scenario::{
        four_app_dpa_a, four_app_dpa_b, six_app, two_app, AppSpec, InterDest, PacketMix, Scenario,
    };
    pub use crate::trace::{Trace, TraceEvent, TraceReplay};
    pub use crate::workload::{AppModel, ParsecWorkload};
}
