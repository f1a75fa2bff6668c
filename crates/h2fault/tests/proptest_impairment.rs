//! Property-based guarantees for the impairment layer: fault schedules
//! are pure functions of `(seed, site, attempt)`, and a zero-rate
//! impairment is a *strict* no-op — a pipe driven through it produces
//! byte- and time-identical arrivals to an unimpaired pipe.

use h2fault::{FaultPlan, FaultProfile, ImpairmentSpec, RetryPolicy};
use netsim::link::LinkSpec;
use netsim::pipe::BytesPool;
use netsim::time::{SimDuration, SimTime};
use netsim::{ByteEndpoint, Pipe};
use proptest::prelude::*;

/// Echoes every segment back with a fixed processing delay.
struct Echo {
    delay: SimDuration,
}

impl ByteEndpoint for Echo {
    fn on_connect(&mut self, _now: SimTime, out: &mut Vec<u8>) {
        out.extend_from_slice(b"greetings");
    }
    fn on_bytes(&mut self, _now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(bytes);
    }
    fn processing_delay(&self) -> SimDuration {
        self.delay
    }
}

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    prop_oneof![
        Just(FaultProfile::lossy()),
        Just(FaultProfile::jittery()),
        Just(FaultProfile::flaky()),
        Just(FaultProfile::byzantine()),
        Just(FaultProfile::chaos()),
    ]
}

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (
        1u64..200,
        0u64..20,
        prop::option::of(1u64..1_000),
        0.0f64..0.3,
    )
        .prop_map(|(delay_ms, jitter_ms, mbps, loss)| LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::from_millis(jitter_ms),
            bandwidth_bps: mbps.map(|m| m * 1_000_000),
            loss,
            retransmit_penalty: SimDuration::from_millis(delay_ms * 2),
        })
}

proptest! {
    /// Same seed, same site, same attempt — same injection, no matter how
    /// many plans are constructed or in which order sites are visited.
    /// This is the property that makes faulted campaigns replayable at
    /// any thread count.
    #[test]
    fn injection_is_a_pure_function_of_seed_site_attempt(
        profile in arb_profile(),
        seed in any::<u64>(),
        site in 0u64..1_000_000,
        attempt in 0u32..4,
    ) {
        let a = FaultPlan::new(profile, seed).injection(site, attempt);
        let b = FaultPlan::new(profile, seed).injection(site, attempt);
        prop_assert_eq!(a.impairment, b.impairment);
        prop_assert_eq!(a.byzantine, b.byzantine);
        prop_assert_eq!(a.seed_salt, b.seed_salt);
    }

    /// A zero-loss profile derives a no-op injection for every site: no
    /// link change, no transport faults, no byzantine behavior.
    #[test]
    fn zero_loss_profile_injects_nothing(
        seed in any::<u64>(),
        site in 0u64..1_000_000,
        attempt in 0u32..4,
        link in arb_link(),
    ) {
        let zero_loss = FaultProfile {
            name: "loss",
            retry: RetryPolicy::standard(),
            ..FaultProfile::none()
        };
        let plan = FaultPlan::new(zero_loss, seed);
        let injection = plan.injection(site, attempt);
        prop_assert!(injection.is_noop());
        prop_assert_eq!(injection.impairment.apply(link), link);
        prop_assert!(injection.impairment.pipe_faults().is_none());
    }

    /// The no-op impairment is *strict*: a pipe whose link passed through
    /// `ImpairmentSpec::default().apply` and whose faults are the derived
    /// (empty) `PipeFaults` delivers arrivals identical in both payload
    /// and virtual timing to an untouched pipe — even on lossy, jittered,
    /// bandwidth-limited links where every RNG draw matters.
    #[test]
    fn noop_impairment_leaves_the_pipe_bit_identical(
        link in arb_link(),
        seed in any::<u64>(),
        delay_ms in 0u64..50,
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 1..6),
    ) {
        let noop = ImpairmentSpec::default();
        let mut plain = Pipe::connect(
            Echo { delay: SimDuration::from_millis(delay_ms) }, link, seed);
        let mut impaired = Pipe::connect_faulted(
            Echo { delay: SimDuration::from_millis(delay_ms) }, noop.apply(link), seed,
            BytesPool::default(), noop.pipe_faults());
        for payload in &payloads {
            plain.client_send(payload);
            impaired.client_send(payload);
            let a = plain.run_to_quiescence();
            let b = impaired.run_to_quiescence();
            prop_assert_eq!(a, b);
            prop_assert_eq!(plain.now(), impaired.now());
        }
    }

    /// Retry attempts re-salt the link randomness: a retry against the
    /// same site never replays the identical schedule (salt differs), yet
    /// remains deterministic.
    #[test]
    fn retries_are_resalted_but_deterministic(
        profile in arb_profile(),
        seed in any::<u64>(),
        site in 0u64..1_000_000,
    ) {
        let plan = FaultPlan::new(profile, seed);
        let first = plan.injection(site, 0);
        let retry = plan.injection(site, 1);
        prop_assert_eq!(first.seed_salt, 0, "attempt 0 keeps the site's own seed");
        prop_assert_ne!(retry.seed_salt, 0, "retries must resample link randomness");
        prop_assert_eq!(retry.seed_salt, plan.injection(site, 1).seed_salt);
    }
}
