//! The malicious-client generator: seven abuse vectors, each running
//! in virtual time against one target.
//!
//! A run takes a seed, but no report depends on it — nor on the
//! target's own seed: every vector's exchange is fixed by the profile
//! and the site, which is what lets `repro abuse` print the attack
//! matrix at seed 0 instead of sampling it. The volumes here are
//! *attacker* volumes, small enough that the 7 × 7 matrix runs in a
//! blink. The `h2scope::probes::abuse` suite uses larger,
//! limit-exceeding volumes for the robustness matrix; both exist so
//! that probing a bound and simulating an attacker stay distinct jobs.

use h2hpack::Header;
use h2scope::client::data_octets;
use h2scope::{classify_reaction, ProbeConn, Target};
use h2wire::{
    DataFrame, ErrorCode, Frame, PingFrame, RstStreamFrame, SettingId, Settings, SettingsFrame,
    StreamId,
};
use netsim::time::SimDuration;

use crate::dos;
use crate::report::AttackReport;

/// Octets of the connection prelude every vector pays: the client
/// preface (24) plus an empty SETTINGS frame (9 + 6 of padding slack
/// kept for parity with the [`crate::dos`] ledger).
const PRELUDE_OCTETS: u64 = 24 + 9 + 6;

/// Request+RST pairs in a rapid-reset engagement.
pub const RAPID_RESET_STREAMS: u32 = 48;
/// CONTINUATION fragments (1 KiB each) in a flood engagement.
pub const CONTINUATION_FLOOD_FRAGMENTS: u32 = 32;
/// Large objects a slow reader pins at a 1-octet window.
pub const SLOW_READ_STREAMS: u32 = 4;
/// How long the slow reader goes silent before its liveness PING.
pub const SLOW_READ_STALL_SECS: u64 = 90;
/// DATA trickles in a slow-POST engagement.
pub const SLOW_POST_TRICKLES: u32 = 6;
/// Quiet gap between slow-POST trickles.
pub const SLOW_POST_GAP_SECS: u64 = 10;
/// SETTINGS frames in a flood engagement.
pub const SETTINGS_FLOOD_FRAMES: u32 = 120;
/// Requests in a table-thrash engagement.
pub const TABLE_THRASH_REQUESTS: u32 = 48;
/// Idle-stream chain depth in a priority-churn engagement.
pub const PRIORITY_CHURN_DEPTH: u32 = 32;
/// Chain reversals in a priority-churn engagement.
pub const PRIORITY_CHURN_ROUNDS: u32 = 8;

/// The seven abuse vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackVector {
    /// Open a stream, cancel it immediately, repeat (CVE-2023-44487's
    /// shape): request work is free, canceled work is not.
    RapidReset,
    /// A header block that never ends: HEADERS without END_HEADERS,
    /// then CONTINUATION fragments forever (RFC 7540 §4.3 sets no cap).
    ContinuationFlood,
    /// Advertise a 1-octet window, request large objects, go silent —
    /// the paper's slow-receiver memory pin (reported through the
    /// [`dos::slow_receiver`] ledger).
    SlowRead,
    /// Announce a request body and trickle it an octet at a time with
    /// long quiet gaps, holding request state open indefinitely.
    SlowPost,
    /// SETTINGS frames in bulk: each extorts an ack (RFC 7540 §6.5.3).
    SettingsFlood,
    /// Announce a huge header table and thrash insertions into it
    /// (runs [`dos::table_thrash`]).
    TableThrash,
    /// Deep idle-stream dependency chains, repeatedly reversed (runs
    /// [`dos::priority_churn`]).
    PriorityChurn,
}

impl AttackVector {
    /// All vectors, in the order tables render them.
    pub const ALL: [AttackVector; 7] = [
        AttackVector::RapidReset,
        AttackVector::ContinuationFlood,
        AttackVector::SlowRead,
        AttackVector::SlowPost,
        AttackVector::SettingsFlood,
        AttackVector::TableThrash,
        AttackVector::PriorityChurn,
    ];

    /// Stable machine-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            AttackVector::RapidReset => "rapid-reset",
            AttackVector::ContinuationFlood => "continuation-flood",
            AttackVector::SlowRead => "slow-read",
            AttackVector::SlowPost => "slow-post",
            AttackVector::SettingsFlood => "settings-flood",
            AttackVector::TableThrash => "table-thrash",
            AttackVector::PriorityChurn => "priority-churn",
        }
    }
}

impl std::fmt::Display for AttackVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs one vector against `target`, seeded so the whole engagement —
/// connection randomness included — replays deterministically.
pub fn run(vector: AttackVector, target: &Target, seed: u64) -> AttackReport {
    match vector {
        AttackVector::RapidReset => rapid_reset(target, seed),
        AttackVector::ContinuationFlood => continuation_flood(target, seed),
        AttackVector::SlowRead => slow_read(target, seed),
        AttackVector::SlowPost => slow_post(target, seed),
        AttackVector::SettingsFlood => settings_flood(target, seed),
        AttackVector::TableThrash => table_thrash(target),
        AttackVector::PriorityChurn => priority_churn(target),
    }
}

fn rapid_reset(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x5e5e7);
    let mut received = conn.exchange();
    let mut frames = 1u64;
    let mut octets = PRELUDE_OCTETS;
    for k in 0..RAPID_RESET_STREAMS {
        let header_len = conn.get(1 + 2 * k, "/", None) as u64;
        conn.send(Frame::RstStream(RstStreamFrame {
            stream_id: StreamId::new(1 + 2 * k),
            code: ErrorCode::Cancel,
        }));
        frames = frames.saturating_add(2);
        octets = octets.saturating_add(9 + header_len).saturating_add(13);
        if conn.is_dead() {
            break;
        }
    }
    received.extend(conn.exchange());
    let canceled = u64::from(conn.server().rst_frames_seen());
    AttackReport::new(
        AttackVector::RapidReset,
        frames,
        octets,
        canceled,
        "canceled requests",
        classify_reaction(&received),
    )
}

fn continuation_flood(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0xc047);
    let mut received = conn.exchange();
    let fragment = vec![0u8; 1_024];
    conn.send(Frame::Headers(h2wire::HeadersFrame {
        stream_id: StreamId::new(1),
        fragment: bytes::Bytes::copy_from_slice(&fragment),
        end_stream: false,
        end_headers: false,
        priority: None,
        pad_len: None,
    }));
    let mut frames = 2u64;
    let mut octets = PRELUDE_OCTETS.saturating_add(9 + 1_024);
    for _ in 0..CONTINUATION_FLOOD_FRAGMENTS {
        if conn.is_dead() {
            break;
        }
        conn.send(Frame::Continuation(h2wire::ContinuationFrame {
            stream_id: StreamId::new(1),
            fragment: bytes::Bytes::copy_from_slice(&fragment),
            end_headers: false,
        }));
        frames = frames.saturating_add(1);
        octets = octets.saturating_add(9 + 1_024);
    }
    received.extend(conn.exchange());
    let buffered = conn.server().core().header_block_accumulated() as u64;
    AttackReport::new(
        AttackVector::ContinuationFlood,
        frames,
        octets,
        buffered,
        "buffered octets",
        classify_reaction(&received),
    )
}

fn slow_read(target: &Target, seed: u64) -> AttackReport {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
    let mut conn = ProbeConn::establish(target, settings, seed ^ 0x510_ead);
    let mut received = conn.exchange();
    let mut frames = 1u64;
    let mut octets = PRELUDE_OCTETS;
    for k in 0..SLOW_READ_STREAMS {
        let path = format!("/big/{}", 1 + (k % 7));
        let header_len = conn.get(1 + 2 * k, &path, None) as u64;
        frames = frames.saturating_add(1);
        octets = octets.saturating_add(9 + header_len);
    }
    received.extend(conn.exchange());
    let leaked = data_octets(&received);
    // Silence: the attacker holds the connection open without reading.
    conn.advance(SimDuration::from_secs(SLOW_READ_STALL_SECS));
    conn.send(Frame::Ping(PingFrame::request([0x51; 8])));
    frames = frames.saturating_add(1);
    octets = octets.saturating_add(17);
    received.extend(conn.exchange());
    let folded = dos::SlowReceiverReport {
        attacker_octets: octets,
        pinned_octets: conn.server().pending_response_octets(),
        amplification: conn
            .server()
            .pending_response_octets()
            .checked_div(octets)
            .unwrap_or(0),
        leaked_octets: leaked,
    };
    let mut report = AttackReport::from_slow_receiver(&folded, classify_reaction(&received));
    report.attacker_frames = frames;
    report
}

fn slow_post(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x510_0057);
    let mut received = conn.exchange();
    let headers = vec![
        Header::new(":method", "POST"),
        Header::new(":scheme", "https"),
        Header::new(":path", "/"),
        Header::new(":authority", target.site.authority.clone()),
        Header::new("content-type", "application/x-www-form-urlencoded"),
    ];
    let header_len = conn.send_header_block(1, &headers, false) as u64;
    let mut frames = 2u64;
    let mut octets = PRELUDE_OCTETS.saturating_add(9 + header_len);
    received.extend(conn.exchange());
    for k in 0..SLOW_POST_TRICKLES {
        if conn.is_dead() {
            break;
        }
        conn.advance(SimDuration::from_secs(SLOW_POST_GAP_SECS));
        conn.send(Frame::Data(DataFrame {
            stream_id: StreamId::new(1),
            data: bytes::Bytes::copy_from_slice(&[b'a' + (k % 26) as u8]),
            end_stream: false,
            pad_len: None,
        }));
        frames = frames.saturating_add(1);
        octets = octets.saturating_add(10);
        received.extend(conn.exchange());
    }
    let stalled = conn.server().pending_request_count() as u64;
    AttackReport::new(
        AttackVector::SlowPost,
        frames,
        octets,
        stalled,
        "stalled requests",
        classify_reaction(&received),
    )
}

fn settings_flood(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x5e77f);
    let mut received = conn.exchange();
    let mut frames = 1u64;
    let mut octets = PRELUDE_OCTETS;
    let mut batch = Vec::with_capacity(16);
    let mut sent = 0u32;
    while sent < SETTINGS_FLOOD_FRAMES && !conn.is_dead() {
        batch.clear();
        while batch.len() < 16 && sent < SETTINGS_FLOOD_FRAMES {
            batch.push(Frame::Settings(SettingsFrame::from(Settings::new())));
            sent = sent.saturating_add(1);
        }
        frames = frames.saturating_add(batch.len() as u64);
        octets = octets.saturating_add(9 * batch.len() as u64);
        conn.send_all(&batch);
        received.extend(conn.exchange());
    }
    let acks = received
        .iter()
        .filter(|tf| matches!(&tf.frame, Frame::Settings(s) if s.ack))
        .count() as u64;
    AttackReport::new(
        AttackVector::SettingsFlood,
        frames,
        octets,
        acks,
        "acks extorted",
        classify_reaction(&received),
    )
}

fn table_thrash(target: &Target) -> AttackReport {
    let r = dos::table_thrash::attack(target, 1 << 26, TABLE_THRASH_REQUESTS);
    // The thrash's wire cost is its requests: ~40 octets of HEADERS each
    // once the static entries are table hits, plus the prelude.
    let octets = PRELUDE_OCTETS.saturating_add(u64::from(r.requests).saturating_mul(49));
    AttackReport::from_table_thrash(&r, octets)
}

fn priority_churn(target: &Target) -> AttackReport {
    let r = dos::priority_churn::attack(target, PRIORITY_CHURN_DEPTH, PRIORITY_CHURN_ROUNDS);
    AttackReport::from_priority_churn(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn reference() -> Target {
        Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark())
    }

    #[test]
    fn vector_names_are_distinct() {
        let mut names: Vec<&str> = AttackVector::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AttackVector::ALL.len());
    }

    #[test]
    fn rapid_reset_counts_canceled_requests() {
        let r = run(AttackVector::RapidReset, &reference(), 0);
        assert_eq!(r.server_cost, u64::from(RAPID_RESET_STREAMS));
        assert!(!r.defended, "the RFC reference has no reset budget");
    }

    #[test]
    fn rapid_reset_is_cut_short_by_a_hardened_server() {
        let target = Target::testbed(ServerProfile::h2o(), SiteSpec::benchmark());
        let r = run(AttackVector::RapidReset, &target, 0);
        assert!(!r.defended, "48 resets sit far under H2O's 400 budget");
    }

    #[test]
    fn continuation_flood_pins_the_open_block() {
        let r = run(AttackVector::ContinuationFlood, &reference(), 0);
        assert_eq!(r.server_cost, 1_024 * 33, "HEADERS + 32 fragments");
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::ContinuationFlood, &apache, 0);
        assert!(r.defended, "33 KiB crosses Apache's 16 KiB cap");
    }

    #[test]
    fn slow_read_pins_response_bodies() {
        let r = run(AttackVector::SlowRead, &reference(), 0);
        assert_eq!(r.vector, AttackVector::SlowRead);
        assert!(r.server_cost > 1_000_000, "{r:?}");
        assert!(r.amplification > 1_000, "{r:?}");
    }

    #[test]
    fn slow_read_is_reaped_by_stall_timeouts() {
        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SlowRead, &apache, 0);
        assert_eq!(r.reaction, h2scope::Reaction::GoawayWithDebug, "{r:?}");
    }

    #[test]
    fn slow_post_holds_a_request_open() {
        let r = run(AttackVector::SlowPost, &reference(), 0);
        assert_eq!(r.server_cost, 1, "one forever-pending request");
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SlowPost, &apache, 0);
        assert!(r.defended, "trickles past 30 s hit Apache's stall reaper");
    }

    #[test]
    fn settings_flood_extorts_acks() {
        let r = run(AttackVector::SettingsFlood, &reference(), 0);
        assert_eq!(r.server_cost, u64::from(SETTINGS_FLOOD_FRAMES) + 1);
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SettingsFlood, &apache, 0);
        assert!(r.defended, "120 frames cross Apache's 100 budget");
        assert!(r.server_cost <= 101, "acks stop at the budget: {r:?}");
    }

    #[test]
    fn folded_vectors_report_through_the_same_schema() {
        let thrash = run(AttackVector::TableThrash, &reference(), 0);
        assert_eq!(thrash.cost_unit, "table octets");
        let churn = run(AttackVector::PriorityChurn, &reference(), 0);
        assert_eq!(churn.cost_unit, "tree nodes");
        assert_eq!(churn.server_cost, u64::from(PRIORITY_CHURN_DEPTH));
    }

    /// The premise of the attack matrix: on every profile, a vector's
    /// report is the same whatever the connection seed and the target
    /// seed. A vector that starts depending on either fails here instead
    /// of hiding behind the matrix's fixed seed.
    #[test]
    fn runs_are_deterministic_in_the_seed() {
        for profile in ServerProfile::testbed_and_reference() {
            let base = Target::testbed(profile, SiteSpec::benchmark());
            for v in AttackVector::ALL {
                let want = run(v, &base, 0);
                for seed in [1, 42, 0xdead_beef] {
                    let mut target = base.clone();
                    target.seed ^= seed;
                    let name = &base.profile.name;
                    assert_eq!(run(v, &base, seed), want, "{v} on {name}, seed {seed}");
                    assert_eq!(run(v, &target, seed), want, "{v} on {name}, target seed");
                }
            }
        }
    }
}
