//! Every probe against every profile: what H2Scope measures on each of
//! the eleven profiles the engine impersonates equals what
//! `h2scope::expected` predicts from the profile's behavior alone. For
//! the six testbed profiles that prediction is the paper's Table III;
//! `repro table3` compares the measured cells with the paper's.

use std::sync::Arc;

use h2scope::expected::{expected, Verdicts};
use h2scope::{probes, H2Scope, Target};
use h2server::{ServerProfile, SiteSpec};

#[test]
fn every_profile_surveys_as_its_behavior_predicts() {
    let site = Arc::new(SiteSpec::testbed());
    let scope = H2Scope::new();
    for (name, make) in ServerProfile::all() {
        let profile = Arc::new(make());
        let b = &profile.behavior;
        let target = Target::testbed(Arc::clone(&profile), Arc::clone(&site));
        assert_eq!(
            Verdicts::of(&scope.survey(&target)),
            expected(b, &site),
            "{name}"
        );
        // The testbed-only probes, outside the survey funnel.
        assert!(probes::ping::probe(&target, 5).supported, "{name}: PING");
        assert!(
            probes::multiplexing::probe(&target, 4),
            "{name}: multiplexing"
        );
    }
}
