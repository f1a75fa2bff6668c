//! # h2fault — deterministic fault injection for the scan pipeline
//!
//! The paper's wild-scan tables are full of degraded outcomes: "no
//! response" rows in §V-D, sites that never finish negotiation, servers
//! that stall mid-probe. A perfect simulated network cannot *measure*
//! those populations — it can only fake them with quirk flags. This crate
//! supplies the missing adversity:
//!
//! * [`ImpairmentSpec`] — extra latency, jitter, loss, bandwidth caps, a
//!   scheduled connection drop, and octet [`netsim::Cut`]s (drop, stall,
//!   truncated server output, mid-stream TCP reset) layered onto a
//!   [`netsim::LinkSpec`] / [`netsim::PipeFaults`]; the pipe applies
//!   them. A default spec is a strict no-op.
//! * [`ByzantineSpec`] — server-side misbehavior the engine itself
//!   performs (garbage preface, handshake stall, trickled DATA) when
//!   `h2server` installs it on a behavior matrix.
//! * [`FaultProfile`] — named, CLI-selectable intensity presets.
//! * [`FaultPlan`] — the deterministic materialization: faults for one
//!   probe are a pure function of `(campaign seed, site index, attempt)`,
//!   so campaigns replay bit-identically at any thread count.
//! * [`RetryPolicy`] — bounded retry with exponential backoff and
//!   deterministic jitter, all in simulated time.
//!
//! Everything here is side-effect free; `h2scope`/`bench` decide how the
//! injections are wired into targets.

#![warn(missing_docs)]

use netsim::{Cut, CutAction, Cuts, LinkSpec, PipeFaults, SimDuration, SimTime};
use rand::unit_f64;

/// Re-exported for the code that derives seeds beside its fault plans
/// (`bench`, and the benchmark's layer adapter, which imports it from here).
pub use rand::splitmix64;

/// Extra network impairment layered onto one probe connection.
///
/// The default spec is a **strict no-op**: applying it to a link returns
/// the link bit-for-bit unchanged (same RNG consumption downstream), and
/// its [`PipeFaults`] are empty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ImpairmentSpec {
    /// Added one-way propagation delay.
    pub extra_delay: SimDuration,
    /// Added uniform jitter per transmission.
    pub extra_jitter: SimDuration,
    /// Added loss probability (manifests as retransmission delay).
    pub extra_loss: f64,
    /// Cap on the link's serialization bandwidth, bits per second.
    pub bandwidth_cap_bps: Option<u64>,
    /// Cut the connection at this time after connect.
    pub drop_after: Option<SimDuration>,
    /// Octet cuts: a drop after so many octets, a black hole from the
    /// first octet, a truncated or reset server.
    pub cuts: Cuts,
}

impl ImpairmentSpec {
    /// `true` when applying this spec changes nothing.
    pub fn is_noop(&self) -> bool {
        *self == ImpairmentSpec::default()
    }

    /// Layers the impairment onto a link. Identity for a default spec.
    pub fn apply(&self, link: LinkSpec) -> LinkSpec {
        let bandwidth_bps = match (link.bandwidth_bps, self.bandwidth_cap_bps) {
            (Some(b), Some(cap)) => Some(b.min(cap)),
            (None, cap) => cap,
            (b, None) => b,
        };
        LinkSpec {
            delay: link.delay + self.extra_delay,
            jitter: link.jitter + self.extra_jitter,
            bandwidth_bps,
            loss: (link.loss + self.extra_loss).min(0.99),
            retransmit_penalty: link.retransmit_penalty,
        }
    }

    /// The transport-level faults this impairment arms on a `Pipe`.
    pub fn pipe_faults(&self) -> PipeFaults {
        PipeFaults {
            drop_at: self.drop_after.map(|d| SimTime::ZERO + d),
            cuts: self.cuts,
        }
    }
}

/// Server-side misbehavior injected into the `h2server` engine — the
/// population a hardened scanner must classify rather than hang on.
/// Byzantine truncation and resets are octet [`Cut`]s the pipe applies,
/// drawn into the [`ImpairmentSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByzantineSpec {
    /// The greeting is garbage that cannot parse as HTTP/2 frames.
    pub garbage_preface: bool,
    /// The server accepts the connection but never says anything.
    pub handshake_stall: bool,
    /// DATA is trickled: at most this many payload octets per exchange.
    pub trickle_data: Option<usize>,
    /// Extra processing delay charged per trickled chunk.
    pub trickle_delay: SimDuration,
}

impl ByzantineSpec {
    /// `true` when no byzantine behavior is armed.
    pub fn is_noop(&self) -> bool {
        *self == ByzantineSpec::default()
    }
}

/// Everything injected into one probe attempt against one site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultInjection {
    /// Link/transport impairment.
    pub impairment: ImpairmentSpec,
    /// Server misbehavior (no-op spec = conforming server).
    pub byzantine: ByzantineSpec,
    /// XORed into the target's connection seed so retries resample link
    /// randomness instead of replaying the identical unlucky trace.
    pub seed_salt: u64,
}

impl FaultInjection {
    /// `true` when this attempt runs completely unimpaired.
    pub fn is_noop(&self) -> bool {
        self.impairment.is_noop() && self.byzantine.is_noop()
    }
}

/// A named fault-intensity preset, selectable as `repro --faults <name>`.
///
/// The fields are *rates and scales*; [`FaultPlan`] turns them into
/// concrete per-(site, attempt) injections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Preset name (what `--faults` parses).
    pub name: &'static str,
    /// Mean extra loss probability per impaired connection.
    pub loss: f64,
    /// Maximum extra jitter, milliseconds.
    pub jitter_ms: u64,
    /// Maximum extra one-way delay, milliseconds.
    pub delay_ms: u64,
    /// Probability a connection is cut at a scheduled byte/time.
    pub drop_rate: f64,
    /// Probability a connection is a stalled-forever black hole.
    pub stall_rate: f64,
    /// Probability the server behaves byzantinely.
    pub byzantine_rate: f64,
    /// Per-connection probe deadline in simulated time.
    pub deadline: SimDuration,
    /// Retry/backoff policy for failed probes.
    pub retry: RetryPolicy,
}

impl FaultProfile {
    /// No faults at all; scans take the plain (bit-identical) path.
    pub fn none() -> FaultProfile {
        FaultProfile {
            name: "none",
            loss: 0.0,
            jitter_ms: 0,
            delay_ms: 0,
            drop_rate: 0.0,
            stall_rate: 0.0,
            byzantine_rate: 0.0,
            deadline: SimDuration::from_secs(5),
            retry: RetryPolicy::no_retry(),
        }
    }

    /// Elevated loss with mild jitter — the mobile-ish path.
    pub fn lossy() -> FaultProfile {
        FaultProfile {
            name: "lossy",
            loss: 0.02,
            jitter_ms: 2,
            ..FaultProfile::default_faulted("lossy")
        }
    }

    /// Heavy jitter and added delay, no loss.
    pub fn jittery() -> FaultProfile {
        FaultProfile {
            name: "jittery",
            jitter_ms: 20,
            delay_ms: 30,
            ..FaultProfile::default_faulted("jittery")
        }
    }

    /// Loss plus scheduled connection drops and occasional stalls.
    pub fn flaky() -> FaultProfile {
        FaultProfile {
            name: "flaky",
            loss: 0.015,
            jitter_ms: 3,
            drop_rate: 0.12,
            stall_rate: 0.05,
            ..FaultProfile::default_faulted("flaky")
        }
    }

    /// Byzantine servers on an otherwise clean network.
    pub fn byzantine() -> FaultProfile {
        FaultProfile {
            name: "byzantine",
            byzantine_rate: 0.25,
            ..FaultProfile::default_faulted("byzantine")
        }
    }

    /// Everything at once.
    pub fn chaos() -> FaultProfile {
        FaultProfile {
            name: "chaos",
            loss: 0.02,
            jitter_ms: 8,
            delay_ms: 10,
            drop_rate: 0.08,
            stall_rate: 0.04,
            byzantine_rate: 0.12,
            ..FaultProfile::default_faulted("chaos")
        }
    }

    fn default_faulted(name: &'static str) -> FaultProfile {
        FaultProfile {
            name,
            loss: 0.0,
            jitter_ms: 0,
            delay_ms: 0,
            drop_rate: 0.0,
            stall_rate: 0.0,
            byzantine_rate: 0.0,
            deadline: SimDuration::from_secs(5),
            retry: RetryPolicy::standard(),
        }
    }

    /// Parses a `--faults` argument.
    pub fn parse(name: &str) -> Option<FaultProfile> {
        Some(match name {
            "none" => FaultProfile::none(),
            "lossy" => FaultProfile::lossy(),
            "jittery" => FaultProfile::jittery(),
            "flaky" => FaultProfile::flaky(),
            "byzantine" => FaultProfile::byzantine(),
            "chaos" => FaultProfile::chaos(),
            _ => return None,
        })
    }

    /// The named presets, for `--help` text.
    pub fn names() -> [&'static str; 6] {
        ["none", "lossy", "jittery", "flaky", "byzantine", "chaos"]
    }

    /// `true` when this profile injects nothing (scans may take the
    /// plain, bit-identical path).
    pub fn is_none(&self) -> bool {
        self.loss == 0.0
            && self.jitter_ms == 0
            && self.delay_ms == 0
            && self.drop_rate == 0.0
            && self.stall_rate == 0.0
            && self.byzantine_rate == 0.0
    }
}

/// Bounded retry with exponential backoff, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Exponential growth factor per retry.
    pub multiplier: u32,
    /// Cap on a single backoff interval.
    pub max_backoff: SimDuration,
}

impl RetryPolicy {
    /// One attempt, no retries.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            multiplier: 2,
            max_backoff: SimDuration::ZERO,
        }
    }

    /// Three attempts, 500 ms base, doubling, capped at 8 s.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(500),
            multiplier: 2,
            max_backoff: SimDuration::from_secs(8),
        }
    }

    /// Backoff before retry number `retry` (1-based), with deterministic
    /// jitter in `[1/2, 1]` of the exponential interval, derived from
    /// `seed` so campaigns replay exactly.
    pub fn backoff(&self, retry: u32, seed: u64) -> SimDuration {
        if retry == 0 {
            return SimDuration::ZERO;
        }
        let factor = u64::from(self.multiplier).saturating_pow(retry.saturating_sub(1));
        let full = self
            .base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
            .max(self.base_backoff.min(self.max_backoff));
        let half = full.as_nanos() / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(seed ^ u64::from(retry).wrapping_mul(0x5bd1_e995)) % (half + 1)
        };
        SimDuration::from_nanos(half + jitter)
    }
}

/// The deterministic materialization of a [`FaultProfile`] for one
/// campaign: faults are a pure function of `(campaign seed, site index,
/// attempt)` and nothing else — never thread identity or wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: u64,
}

impl FaultPlan {
    /// A plan for `profile` keyed by `seed`.
    pub fn new(profile: FaultProfile, seed: u64) -> FaultPlan {
        FaultPlan { profile, seed }
    }

    /// The profile this plan materializes.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injection for probe `attempt` (0-based) against site `site`.
    pub fn injection(&self, site: u64, attempt: u32) -> FaultInjection {
        let p = &self.profile;
        let mut h = splitmix64(
            self.seed
                ^ splitmix64(site.wrapping_mul(0x9e37_79b9).wrapping_add(0xfa_017))
                ^ u64::from(attempt).wrapping_mul(0xc2b2_ae35),
        );
        let mut next = move || {
            h = splitmix64(h);
            h
        };

        let mut imp = ImpairmentSpec::default();
        if p.loss > 0.0 {
            // 0.5–1.5× the profile mean, per connection.
            imp.extra_loss = (p.loss * (0.5 + unit_f64(next()))).min(0.9);
        }
        if p.jitter_ms > 0 {
            imp.extra_jitter =
                SimDuration::from_micros((unit_f64(next()) * p.jitter_ms as f64 * 1_000.0) as u64);
        }
        if p.delay_ms > 0 {
            imp.extra_delay =
                SimDuration::from_micros((unit_f64(next()) * p.delay_ms as f64 * 1_000.0) as u64);
        }
        let mut cut = |octet, action| imp.cuts.push(Cut { octet, action });
        if p.drop_rate > 0.0 && unit_f64(next()) < p.drop_rate {
            if unit_f64(next()) < 0.5 {
                cut(1_024 + next() % 65_536, CutAction::Drop);
            } else {
                imp.drop_after = Some(SimDuration::from_millis(50 + next() % 1_000));
            }
        }
        if p.stall_rate > 0.0 && unit_f64(next()) < p.stall_rate {
            cut(0, CutAction::Stall);
        }

        let mut byz = ByzantineSpec::default();
        if p.byzantine_rate > 0.0 && unit_f64(next()) < p.byzantine_rate {
            match next() % 5 {
                0 => byz.garbage_preface = true,
                1 => byz.handshake_stall = true,
                2 => cut(64 + next() % 4_096, CutAction::Truncate),
                3 => {
                    byz.trickle_data = Some(64 + (next() % 448) as usize);
                    byz.trickle_delay = SimDuration::from_millis(200 + next() % 600);
                }
                _ => cut(256 + next() % 32_768, CutAction::Reset),
            }
        }

        let seed_salt = if attempt == 0 { 0 } else { next() | 1 };
        FaultInjection {
            impairment: imp,
            byzantine: byz,
            seed_salt,
        }
    }
}

/// A deterministic mid-campaign crash, for exercising the persistence
/// layer's resume path: once `after_rows` per-site records have been
/// durably appended to the campaign record, the scan stops claiming work
/// and the process abandons the campaign *without* finalizing it — the
/// same on-disk state a `kill -9` leaves behind, minus the timing races.
/// Pairing a kill point with `--resume` lets tests and CI verify the
/// resume invariant (final record byte-identical to an uninterrupted
/// run) without actually killing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPoint {
    /// Stop claiming new sites once this many rows are persisted.
    pub after_rows: u64,
}

impl KillPoint {
    /// A kill point firing after `n` persisted rows.
    pub fn after(n: u64) -> KillPoint {
        KillPoint { after_rows: n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_impairment_is_identity_on_links() {
        let links = [
            LinkSpec::lan(),
            LinkSpec::wan(40),
            LinkSpec::mobile(30, 0.08),
            LinkSpec {
                bandwidth_bps: None,
                ..LinkSpec::wan(5)
            },
        ];
        let noop = ImpairmentSpec::default();
        assert!(noop.is_noop());
        for link in links {
            assert_eq!(noop.apply(link), link);
        }
        assert!(noop.pipe_faults().is_none());
    }

    #[test]
    fn impairment_composes_onto_the_link() {
        let imp = ImpairmentSpec {
            extra_delay: SimDuration::from_millis(10),
            extra_jitter: SimDuration::from_millis(2),
            extra_loss: 0.05,
            bandwidth_cap_bps: Some(1_000_000),
            ..ImpairmentSpec::default()
        };
        let out = imp.apply(LinkSpec::wan(20));
        assert_eq!(out.delay, SimDuration::from_millis(30));
        assert_eq!(out.bandwidth_bps, Some(1_000_000));
        assert!((out.loss - 0.05).abs() < 1e-12);
    }

    #[test]
    fn plan_is_a_pure_function_of_seed_site_attempt() {
        let a = FaultPlan::new(FaultProfile::chaos(), 0xfeed);
        let b = FaultPlan::new(FaultProfile::chaos(), 0xfeed);
        for site in 0..200 {
            for attempt in 0..3 {
                assert_eq!(a.injection(site, attempt), b.injection(site, attempt));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(FaultProfile::chaos(), 1);
        let b = FaultPlan::new(FaultProfile::chaos(), 2);
        let differs = (0..100).any(|s| a.injection(s, 0) != b.injection(s, 0));
        assert!(differs);
    }

    #[test]
    fn none_profile_injects_nothing() {
        let plan = FaultPlan::new(FaultProfile::none(), 0xdead);
        assert!(FaultProfile::none().is_none());
        for site in 0..50 {
            assert!(plan.injection(site, 0).is_noop());
        }
    }

    #[test]
    fn retries_resample_while_first_attempts_do_not() {
        let plan = FaultPlan::new(FaultProfile::flaky(), 7);
        assert_eq!(plan.injection(3, 0).seed_salt, 0);
        assert_ne!(plan.injection(3, 1).seed_salt, 0);
        assert_ne!(plan.injection(3, 1), plan.injection(3, 2));
    }

    #[test]
    fn profile_parsing_round_trips() {
        for name in FaultProfile::names() {
            let profile = FaultProfile::parse(name).expect("known name");
            assert_eq!(profile.name, name);
        }
        assert!(FaultProfile::parse("tsunami").is_none());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::standard();
        let seed = 0x5eed;
        let b1 = policy.backoff(1, seed);
        let b2 = policy.backoff(2, seed);
        assert!(
            b1 >= SimDuration::from_millis(250),
            "at least half the base"
        );
        assert!(b1 <= SimDuration::from_millis(500));
        assert!(b2 >= SimDuration::from_millis(500));
        assert!(b2 <= SimDuration::from_millis(1_000));
        let deep = policy.backoff(30, seed);
        assert!(deep <= SimDuration::from_secs(8), "capped: {deep}");
        // Deterministic for a given (retry, seed).
        assert_eq!(policy.backoff(2, seed), policy.backoff(2, seed));
        assert_ne!(policy.backoff(2, 1), policy.backoff(2, 2));
    }

    #[test]
    fn byzantine_population_appears_at_the_configured_rate() {
        let plan = FaultPlan::new(FaultProfile::byzantine(), 0xabc);
        let n = 2_000;
        // The profile draws nothing else, so every armed attempt is one.
        let byz = (0..n).filter(|s| !plan.injection(*s, 0).is_noop()).count();
        let rate = byz as f64 / n as f64;
        assert!((0.18..0.32).contains(&rate), "≈25%: {rate}");
    }

    /// The action and octet of every cut drawn for sites 0..1000 ×
    /// attempts 0..3, folded in draw order. The pins predate [`Cut`]: they
    /// were computed from the four fields the cuts replaced, so they
    /// prove each draw still lands on the same action and octet.
    #[test]
    fn cut_draws_are_pinned() {
        let fold = |profile| {
            let plan = FaultPlan::new(profile, 0x5eed);
            let mut h = 0u64;
            for site in 0..1_000 {
                for attempt in 0..3 {
                    for cut in plan.injection(site, attempt).impairment.cuts.iter() {
                        // Drop, Stall, Truncate, Reset fold as 1, 2, 3, 4.
                        let action = cut.action as u64 + 1;
                        h = splitmix64(splitmix64(h ^ action) ^ cut.octet);
                    }
                    h = splitmix64(h);
                }
            }
            h
        };
        assert_eq!(fold(FaultProfile::flaky()), 0xec69_b3a6_53e1_d80b);
        assert_eq!(fold(FaultProfile::byzantine()), 0x1bd6_0fc3_dc69_d320);
        assert_eq!(fold(FaultProfile::chaos()), 0x9dda_dab0_929e_b5af);
    }
}
