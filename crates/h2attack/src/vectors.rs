//! The malicious-client generator: seven abuse vectors, each one
//! engagement in virtual time against one target, at a volume the
//! caller picks.
//!
//! A run takes a seed, but no report depends on it — nor on the
//! target's own seed: every vector's exchange is fixed by the profile,
//! the site and the volume, which is what lets `repro abuse` print its
//! matrices at seed 0 instead of sampling them. [`run`] engages at each
//! vector's attacker volume ([`AttackVector::volume`]), small enough
//! that the 7 × 7 attack matrix runs in a blink; the robustness matrix
//! ([`crate::matrix`]) engages the same vectors at volumes past every
//! profile's bound.

use h2hpack::Header;
use h2scope::{classify_reaction, ProbeConn, Reaction, Target};
use h2wire::{
    DataFrame, ErrorCode, Frame, PingFrame, PriorityFrame, PrioritySpec, RstStreamFrame, SettingId,
    Settings, SettingsFrame, StreamId,
};
use netsim::time::SimDuration;

use crate::report::AttackReport;

/// How long the slow reader goes silent before its liveness PING.
pub const SLOW_READ_STALL_SECS: u64 = 90;
/// Quiet gap between slow-POST trickles.
pub const SLOW_POST_GAP_SECS: u64 = 10;
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
    /// the paper's slow-receiver memory pin.
    SlowRead,
    /// Announce a request body and trickle it an octet at a time with
    /// long quiet gaps, holding request state open indefinitely.
    SlowPost,
    /// SETTINGS frames in bulk: each extorts an ack (RFC 7540 §6.5.3).
    SettingsFlood,
    /// Announce a huge header table and request responses that insert
    /// into it (§VI's `SETTINGS_HEADER_TABLE_SIZE` concern).
    TableThrash,
    /// Deep idle-stream dependency chains, repeatedly reversed (§VI's
    /// algorithmic-complexity concern).
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

    /// The attacker volume [`run`] engages at, in the vector's own unit:
    /// request+RST pairs, 1 KiB CONTINUATION fragments, large objects
    /// read at a 1-octet window, body trickles, SETTINGS frames,
    /// requests, or the depth of the idle-stream chain.
    pub fn volume(self) -> u32 {
        match self {
            AttackVector::RapidReset => 48,
            AttackVector::ContinuationFlood => 32,
            AttackVector::SlowRead => 4,
            AttackVector::SlowPost => 6,
            AttackVector::SettingsFlood => 120,
            AttackVector::TableThrash => 48,
            AttackVector::PriorityChurn => 32,
        }
    }
}

impl std::fmt::Display for AttackVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs one vector against `target` at its attacker volume, seeded so
/// the whole engagement — connection randomness included — replays
/// deterministically.
pub fn run(vector: AttackVector, target: &Target, seed: u64) -> AttackReport {
    engage(vector, target, seed, vector.volume())
}

/// Runs one vector against `target` at `volume` (in the unit
/// [`AttackVector::volume`] names).
pub fn engage(vector: AttackVector, target: &Target, seed: u64, volume: u32) -> AttackReport {
    match vector {
        AttackVector::RapidReset => rapid_reset(target, seed, volume),
        AttackVector::ContinuationFlood => continuation_flood(target, seed, volume),
        AttackVector::SlowRead => slow_read(target, seed, volume),
        AttackVector::SlowPost => slow_post(target, seed, volume),
        AttackVector::SettingsFlood => settings_flood(target, seed, volume),
        AttackVector::TableThrash => table_thrash(target, seed, volume),
        AttackVector::PriorityChurn => priority_churn(target, seed, volume),
    }
}

fn rapid_reset(target: &Target, seed: u64, streams: u32) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x5e5e7);
    let mut received = conn.exchange();
    for k in 0..streams {
        conn.get(1 + 2 * k, "/", None);
        conn.send(Frame::RstStream(RstStreamFrame {
            stream_id: StreamId::new(1 + 2 * k),
            code: ErrorCode::Cancel,
        }));
        if conn.is_dead() {
            break;
        }
    }
    received.extend(conn.exchange());
    let canceled = u64::from(conn.server().rst_frames_seen());
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::RapidReset,
        frames,
        octets,
        canceled,
        "canceled requests",
        classify_reaction(&received),
    )
}

fn continuation_flood(target: &Target, seed: u64, fragments: u32) -> AttackReport {
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
    for _ in 0..fragments {
        if conn.is_dead() {
            break;
        }
        conn.send(Frame::Continuation(h2wire::ContinuationFrame {
            stream_id: StreamId::new(1),
            fragment: bytes::Bytes::copy_from_slice(&fragment),
            end_headers: false,
        }));
    }
    received.extend(conn.exchange());
    let buffered = conn.server().core().header_block_accumulated() as u64;
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::ContinuationFlood,
        frames,
        octets,
        buffered,
        "buffered octets",
        classify_reaction(&received),
    )
}

/// Flow control as a memory pin (Sherwood et al.'s misbehaving TCP
/// receiver lifted to HTTP/2): the server commits the response bodies
/// to its send queue, where they sit for as long as the reader stalls.
fn slow_read(target: &Target, seed: u64, streams: u32) -> AttackReport {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
    let mut conn = ProbeConn::establish(target, settings, seed ^ 0x510_ead);
    let mut received = conn.exchange();
    for k in 0..streams {
        let path = format!("/big/{}", 1 + (k % 7));
        conn.get(1 + 2 * k, &path, None);
    }
    received.extend(conn.exchange());
    // Silence: the attacker holds the connection open without reading.
    conn.advance(SimDuration::from_secs(SLOW_READ_STALL_SECS));
    conn.send(Frame::Ping(PingFrame::request([0x51; 8])));
    received.extend(conn.exchange());
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::SlowRead,
        frames,
        octets,
        conn.server().pending_response_octets(),
        "pinned octets",
        classify_reaction(&received),
    )
}

fn slow_post(target: &Target, seed: u64, trickles: u32) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x510_0057);
    let mut received = conn.exchange();
    let headers = vec![
        Header::new(":method", "POST"),
        Header::new(":scheme", "https"),
        Header::new(":path", "/"),
        Header::new(":authority", target.site.authority.clone()),
        Header::new("content-type", "application/x-www-form-urlencoded"),
    ];
    conn.send_header_block(1, &headers, false);
    received.extend(conn.exchange());
    for k in 0..trickles {
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
        received.extend(conn.exchange());
    }
    let stalled = conn.server().pending_request_count() as u64;
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::SlowPost,
        frames,
        octets,
        stalled,
        "stalled requests",
        classify_reaction(&received),
    )
}

fn settings_flood(target: &Target, seed: u64, count: u32) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x5e77f);
    let mut received = conn.exchange();
    let mut batch = Vec::with_capacity(16);
    let mut sent = 0u32;
    while sent < count && !conn.is_dead() {
        batch.clear();
        while batch.len() < 16 && sent < count {
            batch.push(Frame::Settings(SettingsFrame::from(Settings::new())));
            sent = sent.saturating_add(1);
        }
        conn.send_all(&batch);
        received.extend(conn.exchange());
    }
    let acks = received
        .iter()
        .filter(|tf| matches!(&tf.frame, Frame::Settings(s) if s.ack))
        .count() as u64;
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::SettingsFlood,
        frames,
        octets,
        acks,
        "acks extorted",
        classify_reaction(&received),
    )
}

/// HPACK memory pressure: announce a 64 MiB header table, then request
/// responses whose changing headers the server's encoder inserts. The
/// cost is the octets the server's encoder table holds afterwards.
fn table_thrash(target: &Target, seed: u64, requests: u32) -> AttackReport {
    let settings = Settings::new().with(SettingId::HeaderTableSize, 1 << 26);
    let mut conn = ProbeConn::establish(target, settings, seed ^ 0x7ab1e);
    conn.exchange();
    for k in 0..requests {
        conn.fetch(1 + 2 * k, "/");
    }
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::TableThrash,
        frames,
        octets,
        conn.server().encoder_table_octets(),
        "table octets",
        Reaction::Ignored,
    )
}

/// Priority-tree churn: chain `depth` idle streams with PRIORITY frames
/// (legal on idle streams, and no request is ever sent), then reverse
/// the chain [`PRIORITY_CHURN_ROUNDS`] times — each round yanks the tail
/// to the root exclusively and pushes it back under the head, the most
/// subtree movement per frame. The cost is the nodes the server's
/// dependency tree retains.
fn priority_churn(target: &Target, seed: u64, depth: u32) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0xc4);
    conn.exchange();
    let dep = |stream: u32, parent: u32, exclusive: bool| {
        Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(stream),
            spec: PrioritySpec {
                exclusive,
                dependency: StreamId::new(parent),
                weight: 256,
            },
        })
    };
    let (head, tail) = (1, 2 * depth.max(1) - 1);
    let mut frames: Vec<Frame> = (head..tail)
        .step_by(2)
        .map(|parent| dep(parent + 2, parent, false))
        .collect();
    conn.send_all(&frames);
    conn.exchange();
    for _ in 0..PRIORITY_CHURN_ROUNDS {
        frames = vec![dep(tail, 0, true), dep(tail, head, false)];
        conn.send_all(&frames);
        conn.exchange();
    }
    let (frames, octets) = conn.sent();
    AttackReport::new(
        AttackVector::PriorityChurn,
        frames,
        octets,
        conn.server().core().priority().len() as u64,
        "tree nodes",
        Reaction::Ignored,
    )
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
        assert_eq!(r.server_cost, u64::from(AttackVector::RapidReset.volume()));
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
        assert_eq!(
            r.server_cost,
            u64::from(AttackVector::SettingsFlood.volume()) + 1
        );
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SettingsFlood, &apache, 0);
        assert!(r.defended, "120 frames cross Apache's 100 budget");
        assert!(r.server_cost <= 101, "acks stop at the budget: {r:?}");
    }

    #[test]
    fn slow_read_leaks_one_octet_per_stream_unless_headers_are_flow_controlled() {
        let site = SiteSpec::benchmark();
        for streams in [2, 8] {
            let bodies: u64 = (0..streams)
                .filter_map(|k| site.resource(&format!("/big/{}", 1 + (k % 7))))
                .map(|r| r.body_len() as u64)
                .sum();
            let r = engage(AttackVector::SlowRead, &reference(), 0, streams);
            assert_eq!(r.server_cost, bodies - u64::from(streams), "{r:?}");
            // LiteSpeed withholds HEADERS too: nothing escapes at all.
            let litespeed = Target::testbed(ServerProfile::litespeed(), SiteSpec::benchmark());
            let r = engage(AttackVector::SlowRead, &litespeed, 0, streams);
            assert_eq!(r.server_cost, bodies, "{r:?}");
        }
    }

    /// A profile that inserts a fresh `set-cookie` into its encoder table
    /// on every response.
    fn cookie_jar(mut profile: ServerProfile) -> Target {
        profile.behavior.cookie_injection = true;
        Target::testbed(profile, SiteSpec::benchmark())
    }

    #[test]
    fn table_thrash_fills_at_most_the_default_table() {
        let thrash = |target: &Target| engage(AttackVector::TableThrash, target, 0, 200);
        let r = thrash(&cookie_jar(ServerProfile::rfc7540()));
        assert_eq!(r.cost_unit, "table octets");
        assert!(
            (1..=4_096).contains(&r.server_cost),
            "capped at the default, whatever the peer announces: {r:?}"
        );
        // Nginx never inserts response headers into the table at all.
        let r = thrash(&cookie_jar(ServerProfile::nginx()));
        assert_eq!(r.server_cost, 0, "{r:?}");
    }

    #[test]
    fn priority_churn_leaves_one_node_per_idle_stream() {
        // Even FCFS servers (Nginx) keep the tree: the attack surface is
        // the state, not the scheduler.
        for (profile, depth) in [(ServerProfile::h2o(), 64), (ServerProfile::nginx(), 32)] {
            let target = Target::testbed(profile, SiteSpec::benchmark());
            let r = engage(AttackVector::PriorityChurn, &target, 0, depth);
            assert_eq!(r.cost_unit, "tree nodes");
            assert_eq!(r.server_cost, u64::from(depth), "{r:?}");
            // The prelude SETTINGS, the chain's depth − 1 links, then two
            // per reversal.
            assert_eq!(
                r.attacker_frames,
                u64::from(depth + 2 * PRIORITY_CHURN_ROUNDS)
            );
        }
    }

    /// A report's attacker octets are what its connection carried to the
    /// server, as the pipe counts them, on every vector and profile.
    #[test]
    fn attacker_octets_are_the_octets_the_pipe_carried() {
        for (name, make) in ServerProfile::all() {
            for v in AttackVector::ALL {
                let mut target = Target::testbed(make(), SiteSpec::benchmark());
                target.obs = h2scope::Obs::campaign(0);
                let r = run(v, &target, 0);
                let carried = target.obs.snapshot().expect("enabled handle");
                assert_eq!(r.attacker_octets, carried.bytes_to_server, "{v} on {name}");
            }
        }
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
