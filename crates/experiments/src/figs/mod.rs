//! Per-figure experiment drivers. Each module regenerates one table or
//! figure of the paper's evaluation section (§V) and renders the same
//! rows/series the paper reports.

pub mod ablation;
pub mod curve;
pub mod fig10;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig9;
pub mod lbdr_analysis;
pub mod oracle_check;
pub mod resilience;
pub mod table1;
pub mod trace_demo;

use crate::runner::ExpConfig;
use crate::sweep::cached_saturation;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use traffic::scenario::AppSpec;

/// Reference loads for the two-application scenario of Figs. 8–10:
/// App 0 at 10 % and App 1 at 90 % of the half-mesh intra-region
/// uniform-random saturation load (flits/cycle/node).
///
/// The binary search measures the *admission cliff*; the usable latency
/// knee of our 3-stage router sits ~10 % below it. The p sweep pours App
/// 0's entire inter-region load on top of App 1's region, so the reference
/// is derated to the knee — otherwise the p = 100 % point operates *past*
/// saturation and latencies grow with the window length instead of
/// reflecting steady-state interference (the paper's operating points are
/// clearly sub-saturation: its Fig. 9 latencies stay in the tens of
/// cycles).
pub(crate) fn two_app_rates(ec: &ExpConfig) -> (f64, f64) {
    let cfg = SimConfig::table1();
    let region = RegionMap::halves(&cfg);
    let sat = 0.9
        * cached_saturation(
            "halves/intra",
            ec,
            &cfg,
            &region,
            0,
            &AppSpec::intra_only(0.0),
        );
    (0.10 * sat, 0.90 * sat)
}

/// Quadrant-region intra-region saturation (Figs. 11–12 reference load).
pub(crate) fn quadrant_sat(ec: &ExpConfig) -> f64 {
    let cfg = SimConfig::table1();
    let region = RegionMap::quadrants(&cfg);
    cached_saturation(
        "quadrants/intra",
        ec,
        &cfg,
        &region,
        0,
        &AppSpec::intra_only(0.0),
    )
}
