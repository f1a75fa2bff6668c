//! The two §VI matrices, each over the seven profiles of
//! [`ServerProfile::testbed_and_reference`].
//!
//! Table III asked "which conformance quirks does each server show?";
//! the robustness matrix asks the same question about abuse hardening:
//! does the server budget stream resets and SETTINGS, cap CONTINUATION
//! blocks, reap stalled connections, bound header lists — and *how*
//! does it react when the bound is crossed? Four of its columns are
//! [`AttackVector`] engagements run past every profile's bound; the
//! fifth sends one oversized header list. The attack matrix runs every
//! vector once, at its attacker volume, against every profile and keeps
//! the whole [`AttackReport`]: what the attacker spent, what it cost
//! the server, how the server reacted.

use h2hpack::Header;
use h2scope::expected::reaction;
use h2scope::{classify_reaction, ProbeConn, Reaction, Target};
use h2server::{ServerBehavior, ServerProfile, SiteSpec};
use h2wire::Settings;

use crate::report::AttackReport;
use crate::vectors::{engage, run, AttackVector};

/// Streams the rst-rate column opens and resets: above every reset
/// budget (the largest, nghttpd's, is 1,000).
const RST_BOUND_STREAMS: u32 = 1_200;
/// SETTINGS frames the settings column sends: above every budget.
const SETTINGS_BOUND_FRAMES: u32 = 1_200;
/// CONTINUATION fragments (1 KiB each, after a 1 KiB HEADERS) the
/// continuation column sends: the block outgrows the largest cap
/// (64 KiB).
const CONTINUATION_BOUND_FRAGMENTS: u32 = 96;

/// The abuse-hardening characterization of one server — one row of the
/// robustness matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbuseHardeningReport {
    /// Reaction to RST_STREAM churn past any reasonable budget.
    pub rst_rate: Reaction,
    /// Reaction to a SETTINGS flood (each frame extorts an ack).
    pub settings_rate: Reaction,
    /// Reaction to an unbounded CONTINUATION header block.
    pub continuation_bound: Reaction,
    /// Reaction to a reader stalled far past any patience window.
    pub stalled_stream: Reaction,
    /// Reaction to a header list far above SETTINGS_MAX_HEADER_LIST_SIZE.
    pub header_list_bound: Reaction,
}

impl AbuseHardeningReport {
    /// The row a server behaving as `b` should measure — the robustness
    /// matrix's counterpart of [`h2scope::expected::expected`]. A
    /// configured budget, cap or timeout tears the connection down with
    /// an explanatory GOAWAY; no bound means the abuse is absorbed. A
    /// mute server never has a response to stall, so its stall timeout
    /// never fires. The header-list column reacts as the limit's quirk
    /// action says.
    pub fn declared(b: &ServerBehavior) -> AbuseHardeningReport {
        let bounded = |limit: bool| {
            if limit {
                Reaction::GoawayWithDebug
            } else {
                Reaction::Ignored
            }
        };
        AbuseHardeningReport {
            rst_rate: bounded(b.rst_rate_limit.is_some()),
            settings_rate: bounded(b.settings_rate_limit.is_some()),
            continuation_bound: bounded(b.continuation_cap.is_some()),
            stalled_stream: bounded(b.stall_timeout.is_some() && !b.mute),
            header_list_bound: b
                .header_list_limit
                .map_or(Reaction::Ignored, |(_, action)| {
                    reaction(action, true, false)
                }),
        }
    }
}

/// Measures one server's robustness row. The stall column is the
/// slow-read engagement at its attacker volume: its
/// [`SLOW_READ_STALL_SECS`](crate::vectors::SLOW_READ_STALL_SECS) of
/// silence already outlasts every profile's patience.
pub fn hardening(target: &Target) -> AbuseHardeningReport {
    let past_bound = |vector, volume| engage(vector, target, 0, volume).reaction;
    AbuseHardeningReport {
        rst_rate: past_bound(AttackVector::RapidReset, RST_BOUND_STREAMS),
        settings_rate: past_bound(AttackVector::SettingsFlood, SETTINGS_BOUND_FRAMES),
        continuation_bound: past_bound(
            AttackVector::ContinuationFlood,
            CONTINUATION_BOUND_FRAGMENTS,
        ),
        stalled_stream: run(AttackVector::SlowRead, target, 0).reaction,
        header_list_bound: header_list_bound(target),
    }
}

/// The padding that takes a request's header list past every profile's
/// SETTINGS_MAX_HEADER_LIST_SIZE: 36 fields whose §6.5.2 size (name +
/// value + 32 each) comes to ~17.5 KiB, while their encoding stays
/// under 16 KiB so the block never trips a CONTINUATION cap first.
fn header_list_padding() -> impl Iterator<Item = Header> {
    (0..36).map(|i| Header::new(format!("x-padding-{i:02}"), "abc123xyz".repeat(49)))
}

/// One request whose header list blows past every advertised (or merely
/// internal) SETTINGS_MAX_HEADER_LIST_SIZE. RFC 7540 §10.5.1 suggests a
/// *stream* error, but — like every "SHOULD" the paper measured —
/// servers also answer with GOAWAY or simply process the list.
fn header_list_bound(target: &Target) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xab05);
    conn.exchange();
    let mut headers = conn.request_headers("/");
    headers.extend(header_list_padding());
    conn.send_header_block(1, &headers, true);
    classify_reaction(&conn.exchange())
}

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

/// Measures every testbed profile plus the RFC reference and returns
/// the matrix in testbed order. Pure: same build, same matrix.
pub fn robustness_matrix() -> Vec<RobustnessRow> {
    ServerProfile::testbed_and_reference()
        .into_iter()
        .map(|profile| {
            let server = profile.name.clone();
            let target = Target::testbed(profile, SiteSpec::benchmark());
            RobustnessRow {
                server,
                report: hardening(&target),
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
        self.cells
            .iter()
            .map(|(_, r)| r.server_cost)
            .max()
            .unwrap_or(0)
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
    use crate::vectors::SLOW_READ_STALL_SECS;
    use netsim::time::SimDuration;

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

    /// Every configured limit must sit below the volume its column
    /// sends, or the column cannot tell a bounded server from an
    /// unbounded one.
    #[test]
    fn hardening_limits_stay_under_the_bound_volumes() {
        let continuation_octets = u64::from(CONTINUATION_BOUND_FRAGMENTS + 1) * 1_024;
        let header_list: usize = header_list_padding()
            .map(|h| h.name.len() + h.value.len() + 32)
            .sum();
        let stall = SimDuration::from_secs(SLOW_READ_STALL_SECS);
        for profile in ServerProfile::testbed_and_reference() {
            let b = &profile.behavior;
            let name = &profile.name;
            if let Some(limit) = b.rst_rate_limit {
                assert!(limit < RST_BOUND_STREAMS, "{name}");
            }
            if let Some(limit) = b.settings_rate_limit {
                assert!(limit < SETTINGS_BOUND_FRAMES, "{name}");
            }
            if let Some(cap) = b.continuation_cap {
                assert!(u64::from(cap) < continuation_octets, "{name}");
            }
            if let Some(timeout) = b.stall_timeout {
                assert!(timeout < stall, "{name}");
            }
            if let Some((limit, _)) = b.header_list_limit {
                assert!((limit as usize) < header_list, "{name}");
            }
        }
    }

    #[test]
    fn robustness_matrix_is_what_each_profile_declares() {
        for (row, profile) in robustness_matrix()
            .into_iter()
            .zip(ServerProfile::testbed_and_reference())
        {
            let declared = AbuseHardeningReport::declared(&profile.behavior);
            assert_eq!(row.report, declared, "{}", row.server);
        }
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
