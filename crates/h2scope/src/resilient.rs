//! Scan resilience: probe deadlines, failure taxonomy, retry/backoff.
//!
//! The paper's campaign ran against the live Internet, where probes time
//! out, connections reset mid-frame, and some servers emit bytes that are
//! not HTTP/2 at all. The testbed pipeline can afford to panic on any of
//! that ("bugs in the engine, not measurable behaviors") — a wild scan
//! cannot. This module is the survivable path: every probe resolves to a
//! [`ProbeOutcome`] within its simulated-time deadline, failed surveys are
//! retried with exponential backoff, and the attempt/backoff accounting
//! rides along on the [`SiteReport`] so aggregation can separate
//! timeout-derived "no response" rows from behavioral quirks (§V-D).
//!
//! With no faults configured (`Target::patience == None`) none of this is
//! active: connections run in testbed mode (to quiescence, panicking on
//! unparseable server output).

use std::sync::{Arc, Mutex, PoisonError};

use h2fault::RetryPolicy;
use netsim::time::SimDuration;

use crate::report::SiteReport;
use crate::scope::H2Scope;
use crate::target::Target;

/// The first thing that went wrong on a probe connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFailure {
    /// The simulated-time deadline elapsed before the exchange finished.
    Timeout,
    /// The transport was cut (scheduled drop or server-demanded reset).
    ConnReset,
    /// The server emitted bytes that do not parse as HTTP/2.
    Malformed,
}

/// Final classification of one site's survey — the taxonomy `bench`
/// aggregates (§V-D "no response" rows come from `Timeout`, not quirks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Every probe exchange completed.
    Ok,
    /// Died waiting on the deadline (no retry budget).
    Timeout,
    /// Connection reset (no retry budget).
    ConnReset,
    /// Unparseable server bytes (no retry budget).
    Malformed,
    /// Every attempt in the retry budget failed.
    GaveUpAfterRetries,
}

impl From<ProbeFailure> for ProbeOutcome {
    fn from(f: ProbeFailure) -> ProbeOutcome {
        match f {
            ProbeFailure::Timeout => ProbeOutcome::Timeout,
            ProbeFailure::ConnReset => ProbeOutcome::ConnReset,
            ProbeFailure::Malformed => ProbeOutcome::Malformed,
        }
    }
}

/// Per-site resilience accounting carried on every [`SiteReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// How the survey resolved.
    pub outcome: ProbeOutcome,
    /// Survey attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Total simulated time spent backing off between attempts.
    pub backoff: SimDuration,
}

impl Default for ProbeStats {
    fn default() -> ProbeStats {
        ProbeStats {
            outcome: ProbeOutcome::Ok,
            attempts: 1,
            backoff: SimDuration::ZERO,
        }
    }
}

/// Shared failure channel: probe connections record the first failure
/// they hit; the retry driver reads and clears it between attempts.
/// Cloning shares the underlying log (it travels inside [`Target`]).
#[derive(Debug, Clone, Default)]
pub struct FaultLog(Arc<Mutex<Vec<ProbeFailure>>>);

impl FaultLog {
    /// Records one failure.
    pub fn record(&self, failure: ProbeFailure) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(failure);
    }

    /// The first failure recorded since the last [`FaultLog::clear`].
    pub fn first(&self) -> Option<ProbeFailure> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .first()
            .copied()
    }

    /// Count of failures recorded.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` when nothing failed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets everything (start of a fresh attempt).
    pub fn clear(&self) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// Hard ceiling on a single retry pause, regardless of what the
/// [`RetryPolicy`] asks for. A policy is campaign input (profiles are
/// user-configurable), so a degenerate budget — huge base, huge
/// multiplier, `max_backoff` near `u64::MAX` — must not be able to
/// overflow the per-site backoff accounting or stall a scan for
/// simulated centuries. One minute per pause is already far beyond any
/// useful scan patience.
pub const MAX_RETRY_BACKOFF: SimDuration = SimDuration::from_secs(60);

/// Surveys a site with bounded retries: `target_for_attempt(n)` supplies
/// the (possibly re-impaired) target for attempt `n`; a survey whose
/// fault log stayed empty is accepted, otherwise the next attempt starts
/// after an exponential-backoff pause in simulated time. The last
/// report — successful or not — is returned with its [`ProbeStats`]
/// filled in.
pub fn survey_with_retries(
    scope: &H2Scope,
    policy: RetryPolicy,
    seed: u64,
    mut target_for_attempt: impl FnMut(u32) -> Target,
) -> SiteReport {
    let max_attempts = policy.max_attempts.max(1);
    let mut backoff = SimDuration::ZERO;
    let mut attempts = 0;
    let mut last: Option<(SiteReport, Option<ProbeFailure>)> = None;
    for attempt in 0..max_attempts {
        let target = target_for_attempt(attempt);
        target.fault_log.clear();
        let report = scope.survey(&target);
        let failure = target.fault_log.first();
        attempts = attempt + 1;
        let failed = failure.is_some();
        last = Some((report, failure));
        if !failed {
            break;
        }
        if attempt + 1 < max_attempts {
            let pause = policy.backoff(attempt + 1, seed).min(MAX_RETRY_BACKOFF);
            backoff = backoff.saturating_add(pause);
            // Retry telemetry: attempt numbers are 1-based (the retry that
            // is about to run), stamped at the accumulated backoff offset.
            target
                .obs
                .retry(attempt + 2, pause.as_nanos(), backoff.as_nanos());
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "max_attempts.max(1) guarantees one loop pass"
    )]
    let (mut report, failure) = last.expect("at least one attempt runs");
    let outcome = match failure {
        None => ProbeOutcome::Ok,
        Some(f) if max_attempts == 1 => f.into(),
        Some(_) => ProbeOutcome::GaveUpAfterRetries,
    };
    report.probe = ProbeStats {
        outcome,
        attempts,
        backoff,
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};
    use netsim::PipeFaults;

    fn patient_target(profile: ServerProfile) -> Target {
        let mut target = Target::testbed(profile, SiteSpec::benchmark());
        target.patience = Some(SimDuration::from_secs(5));
        target
    }

    #[test]
    fn clean_site_surveys_ok_on_first_attempt() {
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, RetryPolicy::standard(), 9, |_| {
            patient_target(ServerProfile::nginx())
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::Ok);
        assert_eq!(report.probe.attempts, 1);
        assert_eq!(report.probe.backoff, SimDuration::ZERO);
        assert!(report.headers_received);
    }

    #[test]
    fn stalled_target_times_out_and_gives_up() {
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, RetryPolicy::standard(), 9, |_| {
            let mut target = patient_target(ServerProfile::nginx());
            target.pipe_faults = PipeFaults {
                stall_after_bytes: Some(0),
                ..PipeFaults::none()
            };
            target
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::GaveUpAfterRetries);
        assert_eq!(report.probe.attempts, RetryPolicy::standard().max_attempts);
        assert!(report.probe.backoff > SimDuration::ZERO);
    }

    #[test]
    fn no_retry_policy_reports_the_raw_failure() {
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, RetryPolicy::no_retry(), 9, |_| {
            let mut target = patient_target(ServerProfile::nginx());
            target.pipe_faults = PipeFaults {
                stall_after_bytes: Some(0),
                ..PipeFaults::none()
            };
            target
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::Timeout);
        assert_eq!(report.probe.attempts, 1);
    }

    #[test]
    fn retry_recovers_when_a_later_attempt_is_clean() {
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, RetryPolicy::standard(), 9, |attempt| {
            let mut target = patient_target(ServerProfile::nginx());
            if attempt == 0 {
                target.pipe_faults = PipeFaults {
                    stall_after_bytes: Some(0),
                    ..PipeFaults::none()
                };
            }
            target
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::Ok);
        assert_eq!(report.probe.attempts, 2);
        assert!(report.probe.backoff > SimDuration::ZERO);
        assert!(report.headers_received, "the clean retry's report is kept");
    }

    #[test]
    fn connection_drop_classifies_as_reset() {
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, RetryPolicy::no_retry(), 9, |_| {
            let mut target = patient_target(ServerProfile::nginx());
            target.pipe_faults = PipeFaults {
                drop_after_bytes: Some(64),
                ..PipeFaults::none()
            };
            target
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::ConnReset);
    }

    #[test]
    fn byzantine_garbage_preface_classifies_as_malformed() {
        let mut profile = ServerProfile::nginx();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            garbage_preface: true,
            ..h2fault::ByzantineSpec::default()
        });
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, RetryPolicy::no_retry(), 9, |_| {
            patient_target(profile.clone())
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::Malformed);
    }

    #[test]
    fn byzantine_trickle_resolves_within_the_deadline() {
        let mut profile = ServerProfile::nginx();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            trickle_data: Some(32),
            trickle_delay: SimDuration::from_millis(400),
            ..h2fault::ByzantineSpec::default()
        });
        let scope = H2Scope::new();
        // Must terminate — the deadline, not the trickle, ends the probe.
        let report = survey_with_retries(&scope, RetryPolicy::no_retry(), 9, |_| {
            patient_target(profile.clone())
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::Timeout);
    }

    #[test]
    fn degenerate_retry_budget_cannot_overflow_backoff() {
        // Regression: the backoff accumulator used unchecked `+` and no
        // per-pause ceiling, so a pathological policy (the budget
        // boundary: every field maxed) overflowed u64 nanoseconds after a
        // handful of retries. Every pause must clamp to
        // MAX_RETRY_BACKOFF and the total must saturate, not wrap.
        let policy = RetryPolicy {
            max_attempts: 16,
            base_backoff: SimDuration::from_nanos(u64::MAX / 2),
            multiplier: u32::MAX,
            max_backoff: SimDuration::from_nanos(u64::MAX),
        };
        let scope = H2Scope::new();
        let report = survey_with_retries(&scope, policy, 9, |_| {
            let mut target = patient_target(ServerProfile::nginx());
            target.pipe_faults = PipeFaults {
                stall_after_bytes: Some(0),
                ..PipeFaults::none()
            };
            target
        });
        assert_eq!(report.probe.outcome, ProbeOutcome::GaveUpAfterRetries);
        assert_eq!(report.probe.attempts, 16);
        // 15 pauses, each clamped: the total is bounded and non-zero.
        assert!(report.probe.backoff > SimDuration::ZERO);
        assert!(report.probe.backoff <= MAX_RETRY_BACKOFF.saturating_mul(15));
    }

    #[test]
    fn standard_policy_pauses_are_unaffected_by_the_clamp() {
        // The documented ceiling sits far above RetryPolicy::standard()'s
        // own 8 s cap, so existing campaigns keep their exact timings.
        let policy = RetryPolicy::standard();
        for retry in 1..=8 {
            for seed in [0u64, 9, 0xfa17] {
                assert!(policy.backoff(retry, seed) < MAX_RETRY_BACKOFF);
            }
        }
    }

    #[test]
    fn zero_fault_patient_survey_matches_legacy_report() {
        // Resilience plumbing with no faults must not change measurements.
        for profile in [ServerProfile::nginx(), ServerProfile::litespeed()] {
            let scope = H2Scope::new();
            let legacy = scope.survey(&Target::testbed(profile.clone(), SiteSpec::benchmark()));
            let patient = scope.survey(&patient_target(profile));
            assert_eq!(legacy, patient);
        }
    }
}
