//! The analytical model's unit-capacity saturation bound against the
//! simulator on Table 1's two regionalizations. `repro serve --screen`
//! skips a job offered more than `SCREEN_MARGIN` times its bound, so
//! measured saturation must never exceed that multiple; a load map that
//! lost or doubled a flow would put the bound far from the measurement in
//! one direction or the other, hence the lower edge at half the bound.

use model::{predict_app_saturation, RoutingKind, SCREEN_MARGIN};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::Routing;
use traffic::saturation::{app_saturation, SaturationProbe};
use traffic::scenario::AppSpec;

#[test]
fn measured_saturation_sits_within_the_screen_margin_of_the_bound() {
    let probe = SaturationProbe::quick();
    let cfg = SimConfig::table1();
    let spec = AppSpec::intra_only(0.0);
    for (label, region) in [
        ("halves", RegionMap::halves(&cfg)),
        ("quadrants", RegionMap::quadrants(&cfg)),
    ] {
        let bound = predict_app_saturation(&cfg, &region, 0, &spec, RoutingKind::Adaptive)
            .expect("Table-1 regions offer traffic")
            .load;
        let measured = app_saturation(&probe, &cfg, &region, 0, &spec, || Routing::Local.build());
        assert!(
            measured <= SCREEN_MARGIN * bound && measured >= 0.5 * bound,
            "{label}: measured {measured:.4} vs bound {bound:.4}"
        );
    }
}
