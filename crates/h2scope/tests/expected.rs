//! Every probe against every profile: what H2Scope measures on each of
//! the eleven profiles the engine impersonates equals what
//! `h2scope::expected` predicts from the profile's behavior alone. For
//! the six testbed profiles that prediction is the paper's Table III;
//! `repro table3` compares the measured cells with the paper's.

use std::sync::Arc;

use h2scope::expected::{expected, Verdicts};
use h2scope::{probes, H2Scope, Target};
use h2server::{ServerProfile, SiteSpec};

/// The benchmark site with a push manifest on its front page, so one
/// site answers every probe: large objects for the flow-control,
/// multiplexing and priority probes, promised assets for the push probe.
fn site() -> SiteSpec {
    let assets = ["/style.css", "/app.js", "/logo.png"];
    SiteSpec::benchmark().push_on("/", assets.map(String::from).to_vec())
}

#[test]
fn every_profile_surveys_as_its_behavior_predicts() {
    let site = Arc::new(site());
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
        let c = scope.characterize(&target);
        assert!(c.ping.supported, "{name}: PING");
        assert_eq!(
            c.multiplexing.parallel, b.multiplexing,
            "{name}: multiplexing"
        );
        // §5.1.2 is protocol mechanics, not a quirk: every profile gates
        // pushed-stream activation on the client's advertised limit.
        assert!(
            probes::push::promise_discipline(&target),
            "{name}: push discipline"
        );
    }
}
