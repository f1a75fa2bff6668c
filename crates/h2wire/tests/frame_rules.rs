//! RFC 7540 §6 and §6.5.2 as reference tables, checked against the
//! decoder: every frame type's stream-id, length and flag constraints,
//! the bounded SETTINGS values, the error code each decode failure
//! maps to (§7), and the three registries' values and names (§11).

use h2wire::{
    DecodeFrameError, ErrorCode, Frame, FrameHeader, FrameKind, SettingId, Settings, StreamId,
};

/// What stream id a frame type requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamIdRule {
    /// Must be 0x0.
    Zero,
    /// Must be non-zero.
    NonZero,
    /// Either (WINDOW_UPDATE).
    Any,
}

/// §6 size, flag and stream-id constraints for one frame type.
#[derive(Debug, Clone, Copy)]
struct FrameRule {
    kind: FrameKind,
    stream_id: StreamIdRule,
    /// Exact payload length, if fixed.
    fixed_len: Option<usize>,
    /// Minimum payload length, if any (before padding/flag fields).
    min_len: Option<usize>,
    /// Payload length divisor, if any.
    len_multiple_of: Option<usize>,
    /// Bit mask of defined flags; undefined bits must be ignored.
    allowed_flags: u8,
}

const fn rule(
    kind: FrameKind,
    stream_id: StreamIdRule,
    (fixed_len, min_len, len_multiple_of): (Option<usize>, Option<usize>, Option<usize>),
    allowed_flags: u8,
) -> FrameRule {
    FrameRule {
        kind,
        stream_id,
        fixed_len,
        min_len,
        len_multiple_of,
        allowed_flags,
    }
}

const ANY_LEN: (Option<usize>, Option<usize>, Option<usize>) = (None, None, None);
const fn fixed(n: usize) -> (Option<usize>, Option<usize>, Option<usize>) {
    (Some(n), None, None)
}
const fn at_least(n: usize) -> (Option<usize>, Option<usize>, Option<usize>) {
    (None, Some(n), None)
}

/// All ten frame types of §6. Length violations of the fixed and minimum
/// sizes are FRAME_SIZE_ERROR (§4.2); stream-id violations are
/// PROTOCOL_ERROR.
const FRAME_RULES: [FrameRule; 10] = {
    use FrameKind::*;
    use StreamIdRule::{Any, NonZero, Zero};
    [
        // §6.1, END_STREAM | PADDED
        rule(Data, NonZero, ANY_LEN, 0x09),
        // §6.2, END_STREAM | END_HEADERS | PADDED | PRIORITY
        rule(Headers, NonZero, ANY_LEN, 0x2d),
        // §6.3
        rule(Priority, NonZero, fixed(5), 0x00),
        // §6.4
        rule(RstStream, NonZero, fixed(4), 0x00),
        // §6.5, ACK; six octets per parameter
        rule(Settings, Zero, (None, None, Some(6)), 0x01),
        // §6.6, END_HEADERS | PADDED; the promised stream id comes first
        rule(PushPromise, NonZero, at_least(4), 0x0c),
        // §6.7, ACK
        rule(Ping, Zero, fixed(8), 0x01),
        // §6.8, last-stream-id and error code first
        rule(Goaway, Zero, at_least(8), 0x00),
        // §6.9
        rule(WindowUpdate, Any, fixed(4), 0x00),
        // §6.10, END_HEADERS
        rule(Continuation, NonZero, ANY_LEN, 0x04),
    ]
};

/// §6.5.2 bounds on SETTINGS values, `(parameter, smallest, largest)`.
/// A value outside is a connection error: FLOW_CONTROL_ERROR for
/// INITIAL_WINDOW_SIZE, PROTOCOL_ERROR otherwise. The other parameters
/// accept any u32.
const SETTING_BOUNDS: [(SettingId, u64, u64); 3] = [
    (SettingId::EnablePush, 0, 1),
    (SettingId::InitialWindowSize, 0, (1 << 31) - 1),
    (SettingId::MaxFrameSize, 1 << 14, (1 << 24) - 1),
];

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

/// Decodes one frame and returns the error code of the decoder's
/// refusal, if any.
fn refusal(kind: FrameKind, flags: u8, stream_id: StreamId, payload: &[u8]) -> Option<ErrorCode> {
    let header = FrameHeader {
        length: payload.len() as u32,
        kind,
        flags,
        stream_id,
    };
    Frame::decode(header, payload)
        .err()
        .map(|e| e.h2_error_code())
}

#[test]
fn frame_rules_are_enforced_by_the_decoder() {
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
            refusal(rule.kind, 0, other_id, &payload),
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
                refusal(rule.kind, 0, good_id, &vec![0; len]),
                Some(ErrorCode::FrameSizeError),
                "a {len}-octet payload is FRAME_SIZE_ERROR (§4.2): {rule:?}"
            );
        }
    }
    // HEADERS with the PRIORITY flag promises 5 extra octets; shorter is
    // a size error too (§6.2), off-table because it is flag-dependent.
    assert_eq!(
        refusal(FrameKind::Headers, 0x20, StreamId::new(1), &[0, 0, 0]),
        Some(ErrorCode::FrameSizeError),
        "§6.2 HEADERS+PRIORITY with a 3-octet payload"
    );
    // So is a PADDED frame with no room for its Pad Length octet.
    for kind in [FrameKind::Data, FrameKind::Headers, FrameKind::PushPromise] {
        assert_eq!(
            refusal(kind, 0x8, StreamId::new(1), &[]),
            Some(ErrorCode::FrameSizeError),
            "§4.2 PADDED {kind:?} with an empty payload"
        );
    }
}

#[test]
fn setting_bounds_match_validate() {
    for (id, min, max) in SETTING_BOUNDS {
        let mut probes = vec![(min, true), (max, true), (max + 1, false)];
        if min > 0 {
            probes.push((min - 1, false));
        }
        for (value, legal) in probes {
            // Out of u32 range is unrepresentable on the wire: nothing to check.
            let Ok(wire) = u32::try_from(value) else {
                continue;
            };
            assert_eq!(
                Settings::new().with(id, wire).validate().is_ok(),
                legal,
                "§6.5.2 {id:?}={value}"
            );
        }
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

/// RFC 7540 §11.2–§11.4, name by code: frame types from 0x0, settings
/// from 0x1, error codes from 0x0.
#[rustfmt::skip]
const FRAME_TYPES: [&str; 10] = [
    "DATA", "HEADERS", "PRIORITY", "RST_STREAM", "SETTINGS", "PUSH_PROMISE", "PING", "GOAWAY",
    "WINDOW_UPDATE", "CONTINUATION",
];
#[rustfmt::skip]
const SETTING_NAMES: [&str; 6] = [
    "SETTINGS_HEADER_TABLE_SIZE", "SETTINGS_ENABLE_PUSH", "SETTINGS_MAX_CONCURRENT_STREAMS",
    "SETTINGS_INITIAL_WINDOW_SIZE", "SETTINGS_MAX_FRAME_SIZE", "SETTINGS_MAX_HEADER_LIST_SIZE",
];
#[rustfmt::skip]
const ERROR_CODES: [&str; 14] = [
    "NO_ERROR", "PROTOCOL_ERROR", "INTERNAL_ERROR", "FLOW_CONTROL_ERROR", "SETTINGS_TIMEOUT",
    "STREAM_CLOSED", "FRAME_SIZE_ERROR", "REFUSED_STREAM", "CANCEL", "COMPRESSION_ERROR",
    "CONNECT_ERROR", "ENHANCE_YOUR_CALM", "INADEQUATE_SECURITY", "HTTP_1_1_REQUIRED",
];

/// Every code converts to its variant and back, a registered one under
/// its RFC name and an unregistered one through `Unknown` unchanged.
#[test]
fn registries_match_section_11() {
    for code in 0u8..=0xff {
        let kind = FrameKind::from(code);
        let name = FRAME_TYPES.get(usize::from(code)).copied();
        assert_eq!((kind.to_u8(), kind.rfc_name()), (code, name));
        assert_eq!(name.is_none(), kind == FrameKind::Unknown(code));
    }
    for code in 0u16..=0x20 {
        let id = SettingId::from(code);
        let name = usize::from(code)
            .checked_sub(1)
            .and_then(|i| SETTING_NAMES.get(i))
            .copied();
        assert_eq!((id.to_u16(), id.rfc_name()), (code, name));
        assert_eq!(name.is_none(), id == SettingId::Unknown(code));
    }
    for code in (0u32..=0x20).chain([0xdead_beef]) {
        let error = ErrorCode::from(code);
        let name = ERROR_CODES.get(code as usize).copied();
        assert_eq!((error.to_u32(), error.rfc_name()), (code, name));
        let display = name.map_or_else(|| format!("UNKNOWN({code:#x})"), String::from);
        assert_eq!(error.to_string(), display);
    }
}
