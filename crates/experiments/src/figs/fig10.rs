//! Figure 10 — impact of the routing algorithm.
//!
//! The same two-application scenario as Figure 9, comparing
//! {RO_RR, RAIR} × {local adaptive routing, DBAR}. Paper claims at
//! p = 100 %: RAIR_DBAR reduces APL by 24.8 % (App 0) and 3.3 % (App 1)
//! versus RO_RR_Local, and by 12.8 % (App 0, with only 1.8 % degradation
//! on App 1) versus RO_RR_DBAR — i.e. most of the win comes from RAIR's
//! contention reduction, not from the better route selection.

use crate::figs::fig9::{cell_label, sweep, Series};
use crate::runner::ExpConfig;
use metrics::Table;
use rair::scheme::{Routing, Scheme};

/// The compared series; run them with [`crate::figs::fig9::cells`].
pub fn series() -> Vec<Series> {
    vec![
        ("RO_RR_Local", Scheme::RoRr, Routing::Local),
        ("RAIR_Local", Scheme::rair(), Routing::Local),
        ("RO_RR_DBAR", Scheme::RoRr, Routing::Dbar),
        ("RAIR_DBAR", Scheme::rair(), Routing::Dbar),
    ]
}

/// Run and render: the table `repro fig10` prints, and the headline under it.
pub fn report(ec: &ExpConfig) -> (Vec<Table>, String) {
    let title = "Fig.10 — APL vs inter-region fraction p (routing algorithms)";
    let (t, r) = sweep(ec, title, &series());
    let [base, rd, bd] = ["RO_RR_Local", "RAIR_DBAR", "RO_RR_DBAR"].map(|s| cell_label(s, 1.0));
    let summary = format!(
        "at p=100%: RAIR_DBAR vs RO_RR_Local: App0 {:+.1}%, App1 {:+.1}% (paper: -24.8%, -3.3%); vs RO_RR_DBAR: App0 {:+.1}%, App1 {:+.1}% (paper: -12.8%, +1.8%)",
        r.change(&rd, &base, 0) * 100.0,
        r.change(&rd, &base, 1) * 100.0,
        r.change(&rd, &bd, 0) * 100.0,
        r.change(&rd, &bd, 1) * 100.0,
    );
    (vec![t], summary)
}
