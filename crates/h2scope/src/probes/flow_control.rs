//! Flow-control probes (§III-B): four tests of how a server honors — or
//! over-applies, or ignores — the flow-control rules of RFC 7540.

use h2wire::{Frame, SettingId, Settings, StreamId, WindowUpdateFrame};

use super::{observed_reaction, Reaction};
use crate::client::ProbeConn;
use crate::target::Target;

/// Outcome of the 1-octet-window probe (§III-B1 / §V-D1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallWindowOutcome {
    /// The first DATA frame carried exactly the window (1 octet) — the
    /// RFC-compliant behavior 37k/44k sites showed.
    OneByteData,
    /// The server emitted zero-length DATA frames while blocked.
    ZeroLenData,
    /// HEADERS arrived but no DATA (server waits for window silently).
    HeadersOnly,
    /// Nothing came back at all (the LiteSpeed population in §V-D1).
    NoResponse,
    /// The server ignored the window and sent more than permitted.
    Oversized,
}

/// The full flow-control characterization of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowControlReport {
    /// §III-B1: behavior under `SETTINGS_INITIAL_WINDOW_SIZE = 1`.
    pub small_window: SmallWindowOutcome,
    /// §III-B2: HEADERS still arrive under a zero initial window
    /// (`true` = RFC-compliant).
    pub headers_at_zero_window: bool,
    /// §III-B3: reaction to a zero WINDOW_UPDATE on a stream.
    pub zero_update_stream: Reaction,
    /// §III-B3: reaction to a zero WINDOW_UPDATE on the connection.
    pub zero_update_conn: Reaction,
    /// §III-B4: reaction to stream window overflow past 2^31-1.
    pub large_update_stream: Reaction,
    /// §III-B4: reaction to connection window overflow.
    pub large_update_conn: Reaction,
}

/// §III-B1: set the initial window to one octet and see what the first
/// DATA frame looks like.
///
/// Classifies RFC 7540 §6.9.1: a sender stays within the advertised window.
pub fn small_window(target: &Target) -> SmallWindowOutcome {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
    let mut conn = ProbeConn::establish(target, settings, 0xf10a);
    conn.exchange();
    conn.get(1, "/big/1", None);
    let frames = conn.exchange();
    let mut saw_headers = false;
    for tf in &frames {
        match &tf.frame {
            Frame::Headers(_) => saw_headers = true,
            Frame::Data(d) => {
                return match d.data.len() {
                    0 => SmallWindowOutcome::ZeroLenData,
                    1 => SmallWindowOutcome::OneByteData,
                    _ => SmallWindowOutcome::Oversized,
                };
            }
            _ => {}
        }
    }
    // Silence is only "no response" once the probe has actually waited it
    // out: in a fault campaign the deadline elapses and the verdict is
    // timeout-derived (§V-D1), not inferred from instant quiescence.
    conn.await_deadline();
    if saw_headers {
        SmallWindowOutcome::HeadersOnly
    } else {
        SmallWindowOutcome::NoResponse
    }
}

/// §III-B2: zero initial window; a compliant server still sends HEADERS
/// because flow control governs only DATA.
///
/// Classifies RFC 7540 §6.9: only DATA is flow-controlled.
pub fn headers_at_zero_window(target: &Target) -> bool {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 0);
    let mut conn = ProbeConn::establish(target, settings, 0x0001);
    conn.exchange();
    conn.get(1, "/", None);
    let frames = conn.exchange();
    let mut saw_headers = false;
    for tf in &frames {
        match &tf.frame {
            Frame::Headers(_) => saw_headers = true,
            Frame::Data(d) => {
                assert!(d.data.is_empty(), "no data may flow through a zero window");
            }
            _ => {}
        }
    }
    saw_headers
}

/// §III-B3: send a WINDOW_UPDATE with increment 0 and classify the
/// reaction. `on_stream` selects stream vs connection scope.
///
/// Classifies RFC 7540 §6.9: a zero increment is PROTOCOL_ERROR (§6.8:
/// GOAWAY may explain itself in debug data).
pub fn zero_window_update(target: &Target, on_stream: bool) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0x02e0);
    conn.exchange();
    // Open a stream with an in-flight response so the stream scope exists.
    conn.get(1, "/big/1", None);
    conn.exchange();
    let stream_id = if on_stream {
        StreamId::new(1)
    } else {
        StreamId::CONNECTION
    };
    conn.send(Frame::WindowUpdate(WindowUpdateFrame {
        stream_id,
        increment: 0,
    }));
    let frames = conn.exchange();
    observed_reaction(&conn, &frames)
}

/// §III-B4: two WINDOW_UPDATE frames whose increments sum past 2^31-1.
/// The second increment is 2^31-1 itself, so the window overflows
/// whatever the server sent between the two — a server pushing DATA
/// after the first would otherwise drain the window back under the
/// bound.
///
/// Classifies RFC 7540 §6.9.1: a window above 2^31-1 is FLOW_CONTROL_ERROR.
pub fn large_window_update(target: &Target, on_stream: bool) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0x1a49);
    conn.exchange();
    conn.get(1, "/big/1", None);
    conn.exchange();
    let stream_id = if on_stream {
        StreamId::new(1)
    } else {
        StreamId::CONNECTION
    };
    conn.send(Frame::WindowUpdate(WindowUpdateFrame {
        stream_id,
        increment: 0x4000_0000,
    }));
    conn.exchange();
    conn.send(Frame::WindowUpdate(WindowUpdateFrame {
        stream_id,
        increment: 0x7fff_ffff,
    }));
    let frames = conn.exchange();
    observed_reaction(&conn, &frames)
}

/// Runs all four flow-control probes.
///
/// Classifies RFC 7540 §6.9 and §6.9.1.
pub fn probe(target: &Target) -> FlowControlReport {
    target.obs.enter_probe(h2obs::ProbeKind::FlowControl);
    FlowControlReport {
        small_window: small_window(target),
        headers_at_zero_window: headers_at_zero_window(target),
        zero_update_stream: zero_window_update(target, true),
        zero_update_conn: zero_window_update(target, false),
        large_update_stream: large_window_update(target, true),
        large_update_conn: large_window_update(target, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{QuirkAction, ServerProfile, SiteSpec};

    fn target_for(profile: ServerProfile) -> Target {
        Target::testbed(profile, SiteSpec::benchmark())
    }

    #[test]
    fn small_window_yields_one_byte_data_on_compliant_servers() {
        for profile in [
            ServerProfile::nginx(),
            ServerProfile::h2o(),
            ServerProfile::apache(),
        ] {
            let name = profile.name.clone();
            assert_eq!(
                small_window(&target_for(profile)),
                SmallWindowOutcome::OneByteData,
                "{name}"
            );
        }
    }

    #[test]
    fn small_window_litespeed_sends_nothing() {
        assert_eq!(
            small_window(&target_for(ServerProfile::litespeed())),
            SmallWindowOutcome::NoResponse
        );
    }

    #[test]
    fn small_window_zero_len_quirk_detected() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.zero_len_data_when_blocked = true;
        assert_eq!(
            small_window(&target_for(profile)),
            SmallWindowOutcome::ZeroLenData
        );
    }

    #[test]
    fn goaway_debug_data_is_classified() {
        let mut profile = ServerProfile::nghttpd();
        profile.behavior.zero_window_debug = true;
        assert_eq!(
            zero_window_update(&target_for(profile), false),
            Reaction::GoawayWithDebug
        );
    }

    #[test]
    fn connection_overflow_is_seen_past_pushed_data() {
        // Over-push sends pushed DATA after the first increment; the
        // window must still overflow on the second.
        let mut profile = ServerProfile::h2o();
        profile.behavior.push_policy = h2server::PushPolicy::OverPush;
        let target = Target::testbed(profile, SiteSpec::testbed());
        assert_eq!(large_window_update(&target, false), Reaction::Goaway);
    }

    #[test]
    fn quirk_override_is_observable() {
        // A hypothetical server that RSTs on connection-scope zero
        // updates degrades to GOAWAY (you cannot RST stream 0).
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.zero_window_update_conn = QuirkAction::RstStream;
        assert_eq!(
            zero_window_update(&target_for(profile), false),
            Reaction::Goaway
        );
    }
}
