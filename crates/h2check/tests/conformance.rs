//! RFC 7540 conformance: every table of [`h2check::spec`] that states
//! what running code must do, asserted against that code. One test per
//! table, each walking the whole fixed-length table: the §5.1 table
//! drives an actual `h2conn::Stream`, the §6 table decodes real frames
//! through `h2wire`, §5.1's idle row is sent to the reference server,
//! and the quirk test runs the simulated probes and the `h2attack`
//! engagements against every testbed `ServerProfile` and compares the
//! observed reaction with what the profile's quirk matrix predicts.

use std::sync::Arc;

use h2check::spec::{
    RecvOutcome, SpecEvent, SpecState, StreamIdRule, CAPABILITIES, FRAME_RULES, RECV_LEGALITY,
    SETTING_BOUNDS, TRANSITIONS,
};
use h2conn::{Stream, StreamState};
use h2scope::probes::{self, Reaction};
use h2scope::target::Target;
use h2scope::ProbeConn;
use h2server::{QuirkAction, ServerProfile, SiteSpec};
use h2wire::{
    DataFrame, DecodeFrameError, ErrorCode, Frame, FrameHeader, FrameKind, PriorityFrame,
    PrioritySpec, RstStreamFrame, Settings, StreamId, WindowUpdateFrame,
};

// ---------------------------------------------------------------------------
// §5.1 vs h2conn
// ---------------------------------------------------------------------------

fn to_impl(state: SpecState) -> StreamState {
    match state {
        SpecState::Idle => StreamState::Idle,
        SpecState::ReservedLocal => StreamState::ReservedLocal,
        SpecState::ReservedRemote => StreamState::ReservedRemote,
        SpecState::Open => StreamState::Open,
        SpecState::HalfClosedLocal => StreamState::HalfClosedLocal,
        SpecState::HalfClosedRemote => StreamState::HalfClosedRemote,
        SpecState::Closed => StreamState::Closed,
    }
}

#[test]
fn transitions_match_h2conn_stream() {
    for tr in &TRANSITIONS {
        let mut stream = Stream::new(StreamId::new(1), 65_535, 65_535);
        stream.state = to_impl(tr.from);
        match tr.event {
            SpecEvent::SendHeaders { end_stream } => stream.send_headers(end_stream),
            SpecEvent::RecvHeaders { end_stream } => stream.recv_headers(end_stream),
            SpecEvent::SendEndStream => stream.send_end_stream(),
            SpecEvent::RecvEndStream => stream.recv_end_stream(),
            SpecEvent::SendReset => stream.send_reset(ErrorCode::Cancel),
            SpecEvent::RecvReset => stream.recv_reset(ErrorCode::Cancel),
        }
        assert_eq!(stream.state, to_impl(tr.to), "§5.1 {tr:?}");
    }
}

#[test]
fn capabilities_match_can_send_and_can_recv() {
    for caps in &CAPABILITIES {
        let state = to_impl(caps.state);
        // `can_send`/`can_recv` also admit the reserved state about to
        // transition into the sending/receiving role.
        let may_send = caps.may_send_data || caps.state == SpecState::ReservedLocal;
        let may_recv = caps.may_recv_data || caps.state == SpecState::ReservedRemote;
        assert_eq!(state.can_send(), may_send, "can_send vs {caps:?}");
        assert_eq!(state.can_recv(), may_recv, "can_recv vs {caps:?}");
    }
}

/// §5.1's idle row, received by the RFC reference server: each frame
/// names stream 1 before anything has opened it, and the server's
/// answer (GOAWAY, RST_STREAM or neither) must be the row's outcome.
#[test]
fn idle_stream_frames_draw_the_outcome_recv_legality_states() {
    let target = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());
    let idle = StreamId::new(1);
    for cell in RECV_LEGALITY.iter().filter(|c| c.state == SpecState::Idle) {
        let mut conn = ProbeConn::establish(&target, Settings::new(), 0);
        conn.exchange();
        match cell.frame {
            FrameKind::Headers => {
                conn.get(1, "/", None);
            }
            FrameKind::Data => conn.send(Frame::Data(DataFrame {
                stream_id: idle,
                data: vec![b'x'].into(),
                end_stream: false,
                pad_len: None,
            })),
            FrameKind::Priority => conn.send(Frame::Priority(PriorityFrame {
                stream_id: idle,
                spec: PrioritySpec::default_spec(),
            })),
            FrameKind::RstStream => conn.send(Frame::RstStream(RstStreamFrame {
                stream_id: idle,
                code: ErrorCode::Cancel,
            })),
            FrameKind::WindowUpdate => conn.send(Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: idle,
                increment: 1,
            })),
            // A server refuses any PUSH_PROMISE from a client (§8.2),
            // whatever the stream's state; that rule is not this row's.
            _ => continue,
        }
        let observed = conn
            .exchange()
            .iter()
            .find_map(|tf| match &tf.frame {
                Frame::Goaway(g) => Some(RecvOutcome::ConnectionError(g.code)),
                Frame::RstStream(r) => Some(RecvOutcome::StreamError(r.code)),
                _ => None,
            })
            .unwrap_or(RecvOutcome::Legal);
        assert_eq!(observed, cell.outcome, "§5.1 {cell:?}");
    }
}

// ---------------------------------------------------------------------------
// §6 vs the h2wire decoder
// ---------------------------------------------------------------------------

fn min_valid_payload(kind: FrameKind) -> Vec<u8> {
    match kind {
        FrameKind::Priority => vec![0, 0, 0, 0, 15],
        FrameKind::RstStream => vec![0, 0, 0, 8],
        FrameKind::PushPromise => vec![0, 0, 0, 2],
        FrameKind::Ping | FrameKind::Goaway => vec![0; 8],
        FrameKind::WindowUpdate => vec![0, 0, 0, 1],
        _ => Vec::new(),
    }
}

/// Decodes one frame and returns the decoder's refusal, if any.
fn refusal(
    kind: FrameKind,
    flags: u8,
    stream_id: StreamId,
    payload: &[u8],
) -> Option<DecodeFrameError> {
    let header = FrameHeader {
        length: payload.len() as u32,
        kind,
        flags,
        stream_id,
    };
    Frame::decode(header, payload).err()
}

#[test]
fn frame_rules_are_enforced_by_the_decoder() {
    let code = |refusal: Option<DecodeFrameError>| refusal.map(|e| e.h2_error_code());
    for rule in &FRAME_RULES {
        let payload = min_valid_payload(rule.kind);
        let good_id = match rule.stream_id {
            StreamIdRule::Zero => StreamId::CONNECTION,
            StreamIdRule::NonZero | StreamIdRule::Any => StreamId::new(1),
        };
        assert_eq!(
            refusal(rule.kind, 0, good_id, &payload),
            None,
            "the minimal conforming frame must decode: {rule:?}"
        );
        assert_eq!(
            refusal(rule.kind, !rule.allowed_flags, good_id, &payload),
            None,
            "undefined flag bits must be ignored, not rejected (§4.1): {rule:?}"
        );
        // The other scope: a violation is PROTOCOL_ERROR; WINDOW_UPDATE
        // has none, both scopes must decode.
        let (other_id, want) = match rule.stream_id {
            StreamIdRule::Zero => (StreamId::new(1), Some(ErrorCode::ProtocolError)),
            StreamIdRule::NonZero => (StreamId::CONNECTION, Some(ErrorCode::ProtocolError)),
            StreamIdRule::Any => (StreamId::CONNECTION, None),
        };
        assert_eq!(
            code(refusal(rule.kind, 0, other_id, &payload)),
            want,
            "stream id {other_id:?}: {rule:?}"
        );
        let bad_lengths = match (rule.fixed_len, rule.min_len, rule.len_multiple_of) {
            (Some(n), _, _) => vec![n + 1, n.saturating_sub(1)],
            (_, Some(n), _) | (_, _, Some(n)) => vec![n - 1],
            _ => Vec::new(),
        };
        for len in bad_lengths {
            assert_eq!(
                code(refusal(rule.kind, 0, good_id, &vec![0; len])),
                Some(ErrorCode::FrameSizeError),
                "a {len}-octet payload is FRAME_SIZE_ERROR (§4.2): {rule:?}"
            );
        }
    }
    // HEADERS with the PRIORITY flag promises 5 extra octets; shorter is
    // a size error too (§6.2), off-table because it is flag-dependent.
    assert_eq!(
        code(refusal(
            FrameKind::Headers,
            0x20,
            StreamId::new(1),
            &[0, 0, 0]
        )),
        Some(ErrorCode::FrameSizeError),
        "§6.2 HEADERS+PRIORITY with a 3-octet payload"
    );
    // So is a PADDED frame with no room for its Pad Length octet.
    for kind in [FrameKind::Data, FrameKind::Headers, FrameKind::PushPromise] {
        assert_eq!(
            code(refusal(kind, 0x8, StreamId::new(1), &[])),
            Some(ErrorCode::FrameSizeError),
            "§4.2 PADDED {kind:?} with an empty payload"
        );
    }
}

#[test]
fn decode_errors_map_to_the_taxonomy_codes() {
    let cases = [
        (
            DecodeFrameError::FrameTooLarge {
                length: 99_999,
                max: 16_384,
            },
            ErrorCode::FrameSizeError,
        ),
        (
            DecodeFrameError::InvalidLength {
                kind: 0x6,
                length: 7,
            },
            ErrorCode::FrameSizeError,
        ),
        (
            DecodeFrameError::InvalidStreamId {
                kind: 0x4,
                stream_id: 1,
            },
            ErrorCode::ProtocolError,
        ),
        (DecodeFrameError::InvalidPadding, ErrorCode::ProtocolError),
        (
            DecodeFrameError::SettingsAckWithPayload,
            ErrorCode::FrameSizeError,
        ),
        (
            DecodeFrameError::InvalidSettingValue {
                id: 0x4,
                value: u32::MAX,
            },
            ErrorCode::FlowControlError,
        ),
        (
            DecodeFrameError::InvalidSettingValue { id: 0x2, value: 2 },
            ErrorCode::ProtocolError,
        ),
        (DecodeFrameError::Truncated, ErrorCode::ProtocolError),
    ];
    for (err, want) in cases {
        assert_eq!(err.h2_error_code(), want, "§7 code of {err:?}");
    }
}

#[test]
fn setting_bounds_match_validate_and_every_profile_announces_within_them() {
    for bound in &SETTING_BOUNDS {
        let mut probes = vec![(bound.min, true), (bound.max, true), (bound.max + 1, false)];
        if bound.min > 0 {
            probes.push((bound.min - 1, false));
        }
        for (value, legal) in probes {
            // Out of u32 range is unrepresentable on the wire: nothing to check.
            let Ok(wire) = u32::try_from(value) else {
                continue;
            };
            assert_eq!(
                Settings::new().with(bound.id, wire).validate().is_ok(),
                legal,
                "§6.5.2 {:?}={value} under {bound:?}",
                bound.id
            );
        }
    }
    for profile in ServerProfile::testbed_and_reference() {
        assert_eq!(
            profile.behavior.announced.validate(),
            Ok(()),
            "{} announces SETTINGS outside the §6.5.2 bounds",
            profile.name
        );
    }
}

// ---------------------------------------------------------------------------
// Do the probes classify each profile as its quirk matrix predicts?
// ---------------------------------------------------------------------------

/// The reaction the quirk matrix predicts for a stream-scoped or
/// connection-scoped violation handled by `action`.
fn predict(action: QuirkAction, on_stream: bool, debug: bool) -> Reaction {
    match (action, on_stream) {
        (QuirkAction::Ignore, _) => Reaction::Ignored,
        (QuirkAction::RstStream, true) => Reaction::RstStream,
        // A "reset" reaction at connection scope degrades to GOAWAY.
        (QuirkAction::RstStream, false) | (QuirkAction::Goaway, _) => {
            if debug {
                Reaction::GoawayWithDebug
            } else {
                Reaction::Goaway
            }
        }
    }
}

/// The reaction the abuse-hardening matrix predicts for a volumetric
/// probe: a configured budget/cap/timeout tears the connection down
/// with an explanatory GOAWAY; no limit means the abuse is absorbed.
fn predict_abuse(limit_configured: bool) -> Reaction {
    if limit_configured {
        Reaction::GoawayWithDebug
    } else {
        Reaction::Ignored
    }
}

#[test]
fn predictions_cover_the_action_matrix() {
    assert_eq!(predict(QuirkAction::Ignore, true, true), Reaction::Ignored);
    assert_eq!(
        predict(QuirkAction::RstStream, true, true),
        Reaction::RstStream
    );
    assert_eq!(
        predict(QuirkAction::RstStream, false, false),
        Reaction::Goaway
    );
    assert_eq!(
        predict(QuirkAction::Goaway, true, true),
        Reaction::GoawayWithDebug
    );
}

#[test]
fn probes_classify_every_profile_as_its_quirk_matrix_predicts() {
    let site = Arc::new(SiteSpec::benchmark());
    let push_site = Arc::new(SiteSpec::page_with_assets(3, 2_000));
    for profile in ServerProfile::testbed_and_reference() {
        let name = profile.name.clone();
        let b = profile.behavior.clone();
        let profile = Arc::new(profile);
        let target = Target::testbed(profile.clone(), site.clone());
        let push_target = Target::testbed(profile, push_site.clone());
        let debug = b.zero_window_debug.is_some();
        let abuse = h2attack::hardening(&target);
        // (probe, observed, predicted)
        let reactions = [
            (
                "zero_window_update(stream)",
                probes::flow_control::zero_window_update(&target, true),
                predict(b.zero_window_update_stream, true, debug),
            ),
            (
                "zero_window_update(conn)",
                probes::flow_control::zero_window_update(&target, false),
                predict(b.zero_window_update_conn, false, debug),
            ),
            (
                "large_window_update(stream)",
                probes::flow_control::large_window_update(&target, true),
                predict(b.large_window_update_stream, true, false),
            ),
            (
                "large_window_update(conn)",
                probes::flow_control::large_window_update(&target, false),
                predict(b.large_window_update_conn, false, false),
            ),
            (
                "self_dependency",
                probes::priority::self_dependency(&target),
                predict(b.self_dependency, true, false),
            ),
            (
                "abuse.rst_rate",
                abuse.rst_rate,
                predict_abuse(b.rst_rate_limit.is_some()),
            ),
            (
                "abuse.settings_rate",
                abuse.settings_rate,
                predict_abuse(b.settings_rate_limit.is_some()),
            ),
            (
                "abuse.continuation_bound",
                abuse.continuation_bound,
                predict_abuse(b.continuation_cap.is_some()),
            ),
            (
                "abuse.stalled_stream",
                abuse.stalled_stream,
                predict_abuse(b.stall_timeout.is_some()),
            ),
            (
                "abuse.header_list_bound",
                abuse.header_list_bound,
                if b.header_list_limit.is_some() {
                    predict(b.oversized_header_list, true, false)
                } else {
                    Reaction::Ignored
                },
            ),
        ];
        for (probe, observed, predicted) in reactions {
            assert_eq!(observed, predicted, "{name}: probe {probe}");
        }
        let verdicts = [
            (
                "headers_at_zero_window",
                probes::flow_control::headers_at_zero_window(&target),
                !(b.fc_on_headers || b.headers_gated_at_zero_window),
            ),
            (
                "push.supported",
                probes::push::probe(&push_target, &["/"]).supported,
                b.push,
            ),
            (
                // §5.1.2: every engine profile must gate pushed-stream
                // activation on the client's advertised limit — this is
                // protocol mechanics, not a quirk, so the prediction is
                // unconditionally `true`.
                "push.promise_discipline",
                probes::push::promise_discipline(&push_target),
                true,
            ),
            (
                "priority.passes",
                probes::priority::algorithm1(&target).passes(),
                b.priority_mode.passes_table_iii(),
            ),
            (
                "ping.supported",
                probes::ping::probe(&target, 1).supported,
                b.ping,
            ),
        ];
        for (probe, observed, predicted) in verdicts {
            assert_eq!(observed, predicted, "{name}: probe {probe}");
        }
    }
}
