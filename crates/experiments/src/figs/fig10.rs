//! Figure 10 — impact of the routing algorithm.
//!
//! The same two-application scenario as Figure 9, comparing
//! {RO_RR, RAIR} × {local adaptive routing, DBAR}. Paper claims at
//! p = 100 %: RAIR_DBAR reduces APL by 24.8 % (App 0) and 3.3 % (App 1)
//! versus RO_RR_Local, and by 12.8 % (App 0, with only 1.8 % degradation
//! on App 1) versus RO_RR_DBAR — i.e. most of the win comes from RAIR's
//! contention reduction, not from the better route selection.

use crate::figs::fig9::{sweep, table as series_table, SweepResult};
use crate::runner::ExpConfig;
use metrics::Table;
use rair::scheme::{Routing, Scheme};

/// Run the Figure 10 experiment.
pub fn run(ec: &ExpConfig) -> SweepResult {
    sweep(
        ec,
        &[
            ("RO_RR_Local", Scheme::RoRr, Routing::Local),
            ("RAIR_Local", Scheme::rair(), Routing::Local),
            ("RO_RR_DBAR", Scheme::RoRr, Routing::Dbar),
            ("RAIR_DBAR", Scheme::rair(), Routing::Dbar),
        ],
    )
}

/// Render the figure's table.
pub fn table(res: &SweepResult) -> Table {
    series_table(
        "Fig.10 — APL vs inter-region fraction p (routing algorithms)",
        res,
    )
}

/// Run and render: the table `repro fig10` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let r = run(ec);
    let base = r.point("RO_RR_Local", 1.0);
    let rd = r.point("RAIR_DBAR", 1.0);
    let bd = r.point("RO_RR_DBAR", 1.0);
    let summary = format!(
        "at p=100%: RAIR_DBAR vs RO_RR_Local: App0 {:+.1}%, App1 {:+.1}% (paper: -24.8%, -3.3%); vs RO_RR_DBAR: App0 {:+.1}%, App1 {:+.1}% (paper: -12.8%, +1.8%)",
        (rd.apl[0] / base.apl[0] - 1.0) * 100.0,
        (rd.apl[1] / base.apl[1] - 1.0) * 100.0,
        (rd.apl[0] / bd.apl[0] - 1.0) * 100.0,
        (rd.apl[1] / bd.apl[1] - 1.0) * 100.0,
    );
    (vec![table(&r)], summary)
}
