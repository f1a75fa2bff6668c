//! Integration test: a miniature scan campaign end-to-end — population
//! generation, surveys, and the aggregate shapes the paper reports.

use h2ready::scope::expected::Verdicts;
use h2ready::scope::probes::flow_control::SmallWindowOutcome;
use h2ready::scope::probes::Reaction;
use h2ready::scope::H2Scope;
use h2ready::webpop::{ExperimentSpec, Family, Population};

const SCALE: f64 = 0.004; // ~209 h2 sites of experiment 1

#[test]
fn scan_campaign_reproduces_the_papers_shapes() {
    let population = Population::new(ExperimentSpec::first(), SCALE);
    let scope = H2Scope::new();
    let reports: Vec<(Family, h2ready::scope::SiteReport)> = (0..population.h2_count())
        .map(|i| population.site(i))
        .map(|site| (site.family, scope.survey(&site.target())))
        .collect();

    let total = reports.len() as f64;
    assert!(total > 150.0, "population too small to be meaningful");

    let count = |holds: fn(Family, &Verdicts) -> bool| {
        let holds = |(family, report): &&(Family, _)| holds(*family, &Verdicts::of(report));
        reports.iter().filter(holds).count() as f64
    };
    // Funnel: headers-returning sites are ~85% of h2 sites (44,390/52,300).
    let headers = count(|_, v| v.headers_received);
    let ratio = headers / total;
    assert!(
        (0.78..=0.92).contains(&ratio),
        "headers funnel ratio {ratio}"
    );

    // §V-D1: the large majority respects the 1-octet window.
    let one_byte = count(|_, v| v.small_window == Some(SmallWindowOutcome::OneByteData));
    assert!(
        (0.75..=0.95).contains(&(one_byte / headers)),
        "paper: 37,525 of 44,390 ≈ 0.85, got {}",
        one_byte / headers
    );

    // §V-D3: RST vs ignore split is roughly half/half, RST slightly ahead.
    let rst = count(|_, v| v.zero_update_stream == Some(Reaction::RstStream));
    assert!(
        (0.4..=0.68).contains(&(rst / headers)),
        "zero-WU RST share {}",
        rst / headers
    );

    // §V-E: priority support is rare (~2.6% by the last-frame rule).
    let by_last = count(|_, v| v.by_last_frame == Some(true));
    assert!(
        (0.005..=0.06).contains(&(by_last / headers)),
        "priority pass share {}",
        by_last / headers
    );

    // Figures 4/5 family shapes: every surveyed GSE site compresses well;
    // nginx sites overwhelmingly sit at ratio 1.
    let gse: Vec<f64> = reports
        .iter()
        .filter(|(f, r)| *f == Family::Gse && r.headers_received)
        .filter_map(|(_, r)| r.hpack.as_ref().map(|h| h.ratio()))
        .collect();
    assert!(!gse.is_empty());
    assert!(gse.iter().all(|&r| r < 0.3), "GSE ratios all below 0.3");

    let nginx: Vec<f64> = reports
        .iter()
        .filter(|(f, r)| *f == Family::Nginx && r.headers_received)
        .filter_map(|(_, r)| r.hpack.as_ref().map(|h| h.ratio()))
        .collect();
    let at_one = nginx.iter().filter(|&&r| (r - 1.0).abs() < 1e-9).count() as f64;
    assert!(
        at_one / nginx.len() as f64 > 0.8,
        "paper: 93.5% of Nginx at ratio 1, got {}",
        at_one / nginx.len() as f64
    );

    // Server names drive Table IV: families identify themselves.
    let litespeed_named = count(|f, v| {
        let name = v.server_name.as_deref();
        f == Family::Litespeed && name.is_some_and(|n| n.starts_with("LiteSpeed"))
    });
    let litespeed_total = count(|f, v| f == Family::Litespeed && v.headers_received);
    assert_eq!(litespeed_named, litespeed_total);
}

#[test]
fn both_experiments_generate_and_differ() {
    let first = Population::new(ExperimentSpec::first(), 0.002);
    let second = Population::new(ExperimentSpec::second(), 0.002);
    // Experiment 2 has more h2 sites (adoption grew between campaigns).
    assert!(second.h2_count() > first.h2_count());
    // Tengine/Aserver exists only in experiment 2 (at sufficient scale).
    let has_aserver = |pop: &Population| {
        pop.iter_headers_sites()
            .any(|s| s.family == Family::TengineAserver)
    };
    assert!(!has_aserver(&first));
    assert!(has_aserver(&Population::new(
        ExperimentSpec::second(),
        0.01
    )));
}
