//! Property-based tests for the population generator: determinism, quota
//! exactness, and structural validity at arbitrary scales.

use proptest::prelude::*;
use webpop::{ExperimentSpec, Population};

fn arb_spec() -> impl Strategy<Value = ExperimentSpec> {
    prop_oneof![
        Just(ExperimentSpec::first()),
        Just(ExperimentSpec::second())
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any site regenerates bit-identically.
    #[test]
    fn sites_are_deterministic(
        spec in arb_spec(),
        scale in 0.001f64..0.02,
        pick in any::<prop::sample::Index>(),
    ) {
        let population = Population::new(spec, scale);
        let i = pick.index(population.h2_count().max(1) as usize) as u64;
        let a = population.site(i);
        let b = population.site(i);
        prop_assert_eq!(&a.profile.behavior, &b.profile.behavior);
        prop_assert_eq!(a.family, b.family);
        // A scan requests `/` and a large object of `a` and nothing of `b`:
        // requested or not, on either side, every object is the same octets.
        let _ = (a.site.resource("/").unwrap().body(), a.site.resource("/big/1").unwrap().body());
        prop_assert_eq!(&a.site, &b.site);
        for (path, object) in &a.site.resources {
            prop_assert_eq!(object.body(), b.site.resources[path].body(), "{}", path);
        }
    }

    /// Counts scale linearly and nest correctly.
    #[test]
    fn counts_nest(spec in arb_spec(), scale in 0.001f64..0.05) {
        let population = Population::new(spec, scale);
        prop_assert!(population.headers_count() <= population.h2_count());
        prop_assert!(population.h2_count() <= population.total_sites());
        // Within rounding of the spec ratios.
        let expected = population.spec().headers_sites as f64 * scale;
        prop_assert!((population.headers_count() as f64 - expected).abs() <= 1.0);
    }

    /// Every generated profile carries valid announced SETTINGS and a
    /// site with the objects the probes rely on.
    #[test]
    fn generated_sites_are_probe_ready(
        spec in arb_spec(),
        scale in 0.001f64..0.01,
        pick in any::<prop::sample::Index>(),
    ) {
        let population = Population::new(spec, scale);
        let i = pick.index(population.headers_count().max(1) as usize) as u64;
        let sample = population.site(i);
        prop_assert!(sample.profile.behavior.announced.validate().is_ok());
        prop_assert!(sample.site.resource("/").is_some());
        for k in 1..=7 {
            let big = sample.site.resource(&format!("/big/{k}")).expect("big object");
            prop_assert!(big.body_len() > 65_535, "Algorithm 1 needs window-spanning bodies");
        }
        // Link delays stay in the declared envelope.
        let ms = sample.link.delay.as_millis_f64();
        prop_assert!((2.0..=400.0).contains(&ms), "delay {ms} ms");
    }

    /// Family quotas are exact (not Bernoulli): two disjoint scans of the
    /// same population see identical per-family counts.
    #[test]
    fn family_assignment_is_stable(spec in arb_spec()) {
        let population = Population::new(spec, 0.005);
        let first: Vec<_> =
            population.iter_headers_sites().map(|s| s.family).collect();
        let second: Vec<_> =
            population.iter_headers_sites().map(|s| s.family).collect();
        prop_assert_eq!(first, second);
    }
}
