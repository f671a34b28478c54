//! The analytical model's unit-capacity saturation bound against the
//! simulator on Table 1's two regionalizations: a regression guard on the
//! load map. A map that lost or doubled a flow would put the bound far
//! from the measurement in one direction or the other, hence a band of
//! half to one and a half times the bound (the adaptive estimate is not
//! strict, so the band's top sits above 1).

use model::{warm_hint, RoutingKind};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::Routing;
use traffic::saturation::{app_saturation, SaturationProbe};
use traffic::scenario::AppSpec;

/// How far measured saturation may sit above the bound before the load
/// map is suspect.
const GUARD: f64 = 1.5;

#[test]
fn measured_saturation_sits_within_the_guard_band_of_the_bound() {
    let probe = SaturationProbe::quick();
    let cfg = SimConfig::table1();
    let spec = AppSpec::intra_only(0.0);
    for (label, region) in [
        ("halves", RegionMap::halves(&cfg)),
        ("quadrants", RegionMap::quadrants(&cfg)),
    ] {
        let bound = warm_hint(&cfg, &region, 0, &spec, RoutingKind::Adaptive)
            .expect("Table-1 regions offer traffic")
            .predicted;
        let measured = app_saturation(&probe, &cfg, &region, 0, &spec, || Routing::Local.build());
        assert!(
            measured <= GUARD * bound && measured >= 0.5 * bound,
            "{label}: measured {measured:.4} vs bound {bound:.4}"
        );
    }
}
