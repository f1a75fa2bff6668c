//! Abuse-hardening probes (§VI): does a server bound the classic
//! HTTP/2 resource-exhaustion vectors, and how does it react when a
//! client crosses the bound?
//!
//! RFC 7540 §10.5 *permits* but does not *require* these defenses, so —
//! exactly like the Table III quirks — real deployments diverge. Each
//! probe deliberately exceeds the largest limit any profile configures
//! and classifies the reaction with the same [`Reaction`] taxonomy the
//! flow-control and priority probes use: a hardened server answers with
//! GOAWAY/RST_STREAM (typically `ENHANCE_YOUR_CALM`), an unhardened one
//! absorbs the abuse silently.

use h2wire::{ErrorCode, Frame, PingFrame, RstStreamFrame, SettingId, Settings, StreamId};

use super::{classify_reaction, Reaction};
use crate::client::ProbeConn;
use crate::target::Target;

/// RST_STREAM frames sent by the rapid-reset probe; above every
/// configured budget (the largest, nghttpd's, is 1 000).
pub const RST_PROBE_VOLUME: u32 = 1_200;
/// SETTINGS frames sent by the flood probe; above every budget.
pub const SETTINGS_PROBE_VOLUME: u32 = 1_200;
/// CONTINUATION fragments in the flood probe (1 KiB each, plus the
/// initiating HEADERS); the total must exceed the largest cap (64 KiB).
pub const CONTINUATION_PROBE_FRAGMENTS: u32 = 96;
/// How long the stall probe goes quiet; beyond every configured
/// patience (the longest, nginx's, is 60 s).
pub const STALL_PROBE_SECS: u64 = 120;

/// The abuse-hardening characterization of one server — one row of the
/// §VI robustness matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbuseHardeningReport {
    /// Reaction to RST_STREAM churn past any reasonable budget.
    pub rst_rate: Reaction,
    /// Reaction to a SETTINGS flood (each frame extorts an ack).
    pub settings_rate: Reaction,
    /// Reaction to an unbounded CONTINUATION header block.
    pub continuation_bound: Reaction,
    /// Reaction to a stream stalled far past any patience window.
    pub stalled_stream: Reaction,
    /// Reaction to a header list far above SETTINGS_MAX_HEADER_LIST_SIZE.
    pub header_list_bound: Reaction,
}

/// Rapid reset (§VI-A): open a stream and immediately cancel it, over
/// and over. The request side is cheap for the attacker; each reset
/// strands server-side work. A hardened server budgets client resets
/// and closes the connection when the budget is spent.
pub fn rst_rate(target: &Target) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xab01);
    conn.exchange();
    let mut churn = Vec::with_capacity(64);
    let mut stream = 1u32;
    let mut sent = 0u32;
    while sent < RST_PROBE_VOLUME {
        churn.clear();
        while churn.len() < 32 && sent < RST_PROBE_VOLUME {
            churn.push(Frame::RstStream(RstStreamFrame {
                stream_id: StreamId::new(stream),
                code: ErrorCode::Cancel,
            }));
            stream = stream.saturating_add(2);
            sent = sent.saturating_add(1);
        }
        conn.send_all(&churn);
    }
    let frames = conn.exchange();
    classify_reaction(&frames)
}

/// SETTINGS flood (§VI-B): every SETTINGS frame obligates the server to
/// ack (RFC 7540 §6.5.3), a free amplification lever. A hardened server
/// stops acking and closes once the rate is plainly abusive.
pub fn settings_rate(target: &Target) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xab02);
    conn.exchange();
    let mut flood = Vec::with_capacity(64);
    let mut sent = 0u32;
    while sent < SETTINGS_PROBE_VOLUME {
        flood.clear();
        while flood.len() < 32 && sent < SETTINGS_PROBE_VOLUME {
            flood.push(Frame::Settings(
                h2wire::SettingsFrame::from(Settings::new()),
            ));
            sent = sent.saturating_add(1);
        }
        conn.send_all(&flood);
    }
    let frames = conn.exchange();
    classify_reaction(&frames)
}

/// CONTINUATION flood (§VI-C): a HEADERS frame that never sets
/// END_HEADERS, followed by CONTINUATION fragments forever. RFC 7540
/// §4.3 places no bound on a header block, so an unhardened server
/// buffers indefinitely; a hardened one caps the block and tears the
/// connection down. The fragments are junk — the server may never HPACK-
/// decode them, because the block never completes.
pub fn continuation_bound(target: &Target) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xab03);
    conn.exchange();
    conn.send(Frame::Headers(h2wire::HeadersFrame {
        stream_id: StreamId::new(1),
        fragment: bytes::Bytes::from(vec![0u8; 1_024]),
        end_stream: false,
        end_headers: false,
        priority: None,
        pad_len: None,
    }));
    for _ in 0..CONTINUATION_PROBE_FRAGMENTS {
        if conn.is_dead() {
            break;
        }
        conn.send(Frame::Continuation(h2wire::ContinuationFrame {
            stream_id: StreamId::new(1),
            fragment: bytes::Bytes::from(vec![0u8; 1_024]),
            end_headers: false,
        }));
    }
    let frames = conn.exchange();
    classify_reaction(&frames)
}

/// Slow read (§VI-D): announce a one-octet window, request a large
/// object, then go silent for [`STALL_PROBE_SECS`]. The response sits
/// queued against a window that never replenishes. A hardened server
/// times the stalled connection out; an unhardened one holds the
/// stream's state for as long as the client cares to stall.
pub fn stalled_stream(target: &Target) -> Reaction {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
    let mut conn = ProbeConn::establish(target, settings, 0xab04);
    conn.exchange();
    conn.get(1, "/big/1", None);
    conn.exchange();
    conn.advance(netsim::time::SimDuration::from_secs(STALL_PROBE_SECS));
    // The PING is a liveness check: a patient server acks it, a hardened
    // one has already written the connection off.
    conn.send(Frame::Ping(PingFrame::request([0xab; 8])));
    let frames = conn.exchange();
    classify_reaction(&frames)
}

/// Oversized header list (§VI-E): a request whose header list blows past
/// every advertised (or merely internal) SETTINGS_MAX_HEADER_LIST_SIZE.
/// RFC 7540 §10.5.1 suggests treating it as a *stream* error, but — like
/// every "SHOULD" the paper measured — servers also answer with GOAWAY
/// or simply process the list.
pub fn header_list_bound(target: &Target) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xab05);
    conn.exchange();
    // 36 padding fields of 441 octets each: the §6.5.2 list size
    // (name + value + 32 per field) lands near 17.5 KiB — above every
    // profile's limit — while the wire encoding stays below 16 KiB, so
    // the block never trips a CONTINUATION cap first.
    let mut headers = conn.request_headers("/");
    for i in 0..36 {
        headers.push(h2hpack::Header::new(
            format!("x-padding-{i:02}"),
            "abc123xyz".repeat(49),
        ));
    }
    conn.send_header_block(1, &headers, true);
    let frames = conn.exchange();
    classify_reaction(&frames)
}

/// Runs all five abuse-hardening probes against one target.
pub fn probe(target: &Target) -> AbuseHardeningReport {
    AbuseHardeningReport {
        rst_rate: rst_rate(target),
        settings_rate: settings_rate(target),
        continuation_bound: continuation_bound(target),
        stalled_stream: stalled_stream(target),
        header_list_bound: header_list_bound(target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Target;
    use h2server::{ServerProfile, SiteSpec};

    fn testbed(profile: ServerProfile) -> Target {
        Target::testbed(profile, SiteSpec::benchmark())
    }

    #[test]
    fn rst_budgets_divide_the_testbed() {
        assert_eq!(
            rst_rate(&testbed(ServerProfile::h2o())),
            Reaction::GoawayWithDebug
        );
        assert_eq!(
            rst_rate(&testbed(ServerProfile::nginx())),
            Reaction::Ignored
        );
    }

    #[test]
    fn settings_budgets_divide_the_testbed() {
        assert_eq!(
            settings_rate(&testbed(ServerProfile::apache())),
            Reaction::GoawayWithDebug
        );
        assert_eq!(
            settings_rate(&testbed(ServerProfile::rfc7540())),
            Reaction::Ignored
        );
    }

    #[test]
    fn tengine_dropped_its_parents_continuation_cap() {
        assert_eq!(
            continuation_bound(&testbed(ServerProfile::nginx())),
            Reaction::GoawayWithDebug
        );
        assert_eq!(
            continuation_bound(&testbed(ServerProfile::tengine())),
            Reaction::Ignored
        );
    }

    #[test]
    fn stall_timeouts_divide_the_testbed() {
        assert_eq!(
            stalled_stream(&testbed(ServerProfile::litespeed())),
            Reaction::GoawayWithDebug
        );
        assert_eq!(
            stalled_stream(&testbed(ServerProfile::h2o())),
            Reaction::Ignored
        );
    }

    #[test]
    fn header_list_reactions_span_the_taxonomy() {
        assert_eq!(
            header_list_bound(&testbed(ServerProfile::apache())),
            Reaction::RstStream
        );
        assert_eq!(
            header_list_bound(&testbed(ServerProfile::nginx())),
            Reaction::Goaway
        );
        assert_eq!(
            header_list_bound(&testbed(ServerProfile::litespeed())),
            Reaction::Ignored
        );
    }

    #[test]
    fn rfc_reference_absorbs_every_vector() {
        let report = probe(&testbed(ServerProfile::rfc7540()));
        assert_eq!(
            report,
            AbuseHardeningReport {
                rst_rate: Reaction::Ignored,
                settings_rate: Reaction::Ignored,
                continuation_bound: Reaction::Ignored,
                stalled_stream: Reaction::Ignored,
                header_list_bound: Reaction::Ignored,
            }
        );
    }
}
