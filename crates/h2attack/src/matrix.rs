//! The per-profile robustness quirk matrix (§VI).
//!
//! Table III asked "which conformance quirks does each server show?";
//! this matrix asks the same question about abuse hardening: does the
//! server budget stream resets, cap CONTINUATION blocks, reap stalled
//! connections, bound header lists — and *how* does it react when the
//! bound is crossed? Built directly on the `h2scope::probes::abuse`
//! suite so the answers are measured, not transcribed.

use h2scope::probes::abuse::{self, AbuseHardeningReport};
use h2scope::{Reaction, Target};
use h2server::{ServerProfile, SiteSpec};

/// One measured row of the robustness matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobustnessRow {
    /// Server the row describes.
    pub server: String,
    /// The five measured reactions.
    pub report: AbuseHardeningReport,
}

impl RobustnessRow {
    /// How many of the five vectors this server defends against.
    pub fn defenses(&self) -> u32 {
        [
            self.report.rst_rate,
            self.report.settings_rate,
            self.report.continuation_bound,
            self.report.stalled_stream,
            self.report.header_list_bound,
        ]
        .iter()
        .filter(|r| **r != Reaction::Ignored)
        .count() as u32
    }
}

/// Probes every testbed profile plus the RFC reference and returns the
/// matrix in testbed order. Pure: same build, same matrix.
pub fn robustness_matrix() -> Vec<RobustnessRow> {
    let mut profiles = ServerProfile::testbed();
    profiles.push(ServerProfile::rfc7540());
    profiles
        .into_iter()
        .map(|profile| {
            let server = profile.name.clone();
            let target = Target::testbed(profile, SiteSpec::benchmark());
            RobustnessRow {
                server,
                report: abuse::probe(&target),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_whole_testbed_plus_reference() {
        let matrix = robustness_matrix();
        assert_eq!(matrix.len(), 7);
        assert_eq!(matrix.last().map(|r| r.server.as_str()), Some("RFC 7540"));
    }

    #[test]
    fn rows_genuinely_differ_and_the_reference_defends_nothing() {
        let matrix = robustness_matrix();
        for (i, a) in matrix.iter().enumerate() {
            for b in &matrix[i + 1..] {
                assert_ne!(
                    a.report, b.report,
                    "{} and {} must differ somewhere",
                    a.server, b.server
                );
            }
        }
        let reference = matrix.last().expect("nonempty");
        assert_eq!(reference.defenses(), 0);
        assert!(matrix.iter().any(|r| r.defenses() >= 3));
    }
}
