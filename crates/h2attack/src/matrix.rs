//! The two §VI matrices, each over the seven profiles of
//! [`ServerProfile::testbed_and_reference`].
//!
//! Table III asked "which conformance quirks does each server show?";
//! the robustness matrix asks the same question about abuse hardening:
//! does the server budget stream resets, cap CONTINUATION blocks, reap
//! stalled connections, bound header lists — and *how* does it react
//! when the bound is crossed? Built directly on the
//! `h2scope::probes::abuse` suite so the answers are measured, not
//! transcribed. The attack matrix runs every [`AttackVector`] once
//! against every profile and keeps the whole [`AttackReport`]: what
//! the attacker spent, what it cost the server, how the server reacted.

use h2scope::probes::abuse::{self, AbuseHardeningReport};
use h2scope::{Reaction, Target};
use h2server::{ServerProfile, SiteSpec};

use crate::report::AttackReport;
use crate::vectors::{run, AttackVector};

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
    ServerProfile::testbed_and_reference()
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

/// One row of the attack matrix: a vector run once against each profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackRow {
    /// The vector every cell ran.
    pub vector: AttackVector,
    /// `(server, report)` in testbed order, the RFC reference last.
    pub cells: Vec<(String, AttackReport)>,
}

impl AttackRow {
    /// How many servers pushed back.
    pub fn defended(&self) -> usize {
        self.cells.iter().filter(|(_, r)| r.defended).count()
    }

    /// The largest server cost in the row, in the vector's cost unit.
    pub fn worst_cost(&self) -> u64 {
        self.cells.iter().map(|(_, r)| r.server_cost).max().unwrap_or(0)
    }
}

/// Runs every vector against every testbed profile plus the RFC
/// reference at seed 0, one row per vector in [`AttackVector::ALL`]
/// order. Every report is seed-independent (the vectors' tests pin
/// that), so this grid is the whole outcome space. Pure: same build,
/// same matrix.
pub fn attack_matrix() -> Vec<AttackRow> {
    let targets: Vec<Target> = ServerProfile::testbed_and_reference()
        .into_iter()
        .map(|profile| Target::testbed(profile, SiteSpec::benchmark()))
        .collect();
    AttackVector::ALL
        .into_iter()
        .map(|vector| AttackRow {
            vector,
            cells: targets
                .iter()
                .map(|target| (target.profile.name.clone(), run(vector, target, 0)))
                .collect(),
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

    #[test]
    fn attack_matrix_is_one_run_per_vector_and_profile() {
        let matrix = attack_matrix();
        assert_eq!(matrix.len(), AttackVector::ALL.len());
        for row in &matrix {
            assert_eq!(row.cells.len(), 7, "{}", row.vector);
            assert_eq!(row.cells[6].0, "RFC 7540");
            assert!(!row.cells[6].1.defended, "the reference defends nothing");
            assert!(row.cells.iter().all(|(_, r)| r.vector == row.vector));
        }
    }
}
