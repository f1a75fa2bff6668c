//! Layer 1: RFC 7540 conformance rules as declarative tables.
//!
//! Everything the workspace claims about HTTP/2 legality lives here in
//! data form — the §5.1 stream-state machine, the §6 per-frame-type
//! constraints, the §6.5.2 SETTINGS bounds, and a registry of spec
//! rules that every `ServerProfile` quirk and every h2scope probe must
//! reference. This crate's `tests/conformance.rs` asserts these tables
//! against the *implementations* in `h2conn`, `h2wire`, `h2server` and
//! `h2scope`, and `tests/workspace.rs` the two registries against the
//! struct and the probe files they name, so a change to either side that
//! is not mirrored on the other fails `cargo test`.

pub mod hpack;

use h2wire::{ErrorCode, FrameKind, SettingId};

// ---------------------------------------------------------------------------
// §5.1 stream states
// ---------------------------------------------------------------------------

/// The seven stream states of RFC 7540 §5.1 (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecState {
    /// No frames exchanged yet.
    Idle,
    /// Promised by a PUSH_PROMISE this endpoint sent.
    ReservedLocal,
    /// Promised by a PUSH_PROMISE this endpoint received.
    ReservedRemote,
    /// Both endpoints may send.
    Open,
    /// This endpoint sent END_STREAM.
    HalfClosedLocal,
    /// The peer sent END_STREAM.
    HalfClosedRemote,
    /// Terminal.
    Closed,
}

/// All states, in the order used by every table in this module.
pub const ALL_STATES: [SpecState; 7] = [
    SpecState::Idle,
    SpecState::ReservedLocal,
    SpecState::ReservedRemote,
    SpecState::Open,
    SpecState::HalfClosedLocal,
    SpecState::HalfClosedRemote,
    SpecState::Closed,
];

/// The transition-triggering inputs of Figure 2, from this endpoint's
/// perspective. `SendHeaders`/`RecvHeaders` cover both the H/ES arcs
/// (HEADERS with and without END_STREAM); the PUSH_PROMISE arcs are the
/// reserved entry states themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecEvent {
    /// This endpoint sends HEADERS (`end_stream` = END_STREAM flag).
    SendHeaders {
        /// END_STREAM set on the HEADERS frame.
        end_stream: bool,
    },
    /// The peer's HEADERS arrives.
    RecvHeaders {
        /// END_STREAM set on the HEADERS frame.
        end_stream: bool,
    },
    /// This endpoint sends a frame bearing END_STREAM.
    SendEndStream,
    /// A frame bearing END_STREAM arrives.
    RecvEndStream,
    /// This endpoint sends RST_STREAM.
    SendReset,
    /// RST_STREAM arrives.
    RecvReset,
}

/// All eight event values.
pub const ALL_EVENTS: [SpecEvent; 8] = [
    SpecEvent::SendHeaders { end_stream: false },
    SpecEvent::SendHeaders { end_stream: true },
    SpecEvent::RecvHeaders { end_stream: false },
    SpecEvent::RecvHeaders { end_stream: true },
    SpecEvent::SendEndStream,
    SpecEvent::RecvEndStream,
    SpecEvent::SendReset,
    SpecEvent::RecvReset,
];

/// One arc of the Figure 2 state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before the event.
    pub from: SpecState,
    /// The input.
    pub event: SpecEvent,
    /// State after the event.
    pub to: SpecState,
}

const fn t(from: SpecState, event: SpecEvent, to: SpecState) -> Transition {
    Transition { from, event, to }
}

use SpecEvent::{RecvEndStream, RecvHeaders, RecvReset, SendEndStream, SendHeaders, SendReset};
use SpecState::{
    Closed, HalfClosedLocal, HalfClosedRemote, Idle, Open, ReservedLocal, ReservedRemote,
};

const SH: SpecEvent = SendHeaders { end_stream: false };
const SHE: SpecEvent = SendHeaders { end_stream: true };
const RH: SpecEvent = RecvHeaders { end_stream: false };
const RHE: SpecEvent = RecvHeaders { end_stream: true };

/// The complete §5.1 transition table: 7 states x 8 events. Arcs Figure
/// 2 does not draw keep the stream in place (frame legality for those
/// is [`RECV_LEGALITY`]'s concern, not the state function's).
pub const TRANSITIONS: [Transition; 56] = [
    // send HEADERS, END_STREAM clear
    t(Idle, SH, Open),
    t(ReservedLocal, SH, HalfClosedRemote),
    t(ReservedRemote, SH, ReservedRemote),
    t(Open, SH, Open),
    t(HalfClosedLocal, SH, HalfClosedLocal),
    t(HalfClosedRemote, SH, HalfClosedRemote),
    t(Closed, SH, Closed),
    // send HEADERS, END_STREAM set
    t(Idle, SHE, HalfClosedLocal),
    t(ReservedLocal, SHE, Closed),
    t(ReservedRemote, SHE, ReservedRemote),
    t(Open, SHE, HalfClosedLocal),
    t(HalfClosedLocal, SHE, HalfClosedLocal),
    t(HalfClosedRemote, SHE, Closed),
    t(Closed, SHE, Closed),
    // recv HEADERS, END_STREAM clear
    t(Idle, RH, Open),
    t(ReservedLocal, RH, ReservedLocal),
    t(ReservedRemote, RH, HalfClosedLocal),
    t(Open, RH, Open),
    t(HalfClosedLocal, RH, HalfClosedLocal),
    t(HalfClosedRemote, RH, HalfClosedRemote),
    t(Closed, RH, Closed),
    // recv HEADERS, END_STREAM set
    t(Idle, RHE, HalfClosedRemote),
    t(ReservedLocal, RHE, ReservedLocal),
    t(ReservedRemote, RHE, Closed),
    t(Open, RHE, HalfClosedRemote),
    t(HalfClosedLocal, RHE, Closed),
    t(HalfClosedRemote, RHE, HalfClosedRemote),
    t(Closed, RHE, Closed),
    // send END_STREAM on a later frame (DATA)
    t(Idle, SendEndStream, Idle),
    t(ReservedLocal, SendEndStream, ReservedLocal),
    t(ReservedRemote, SendEndStream, ReservedRemote),
    t(Open, SendEndStream, HalfClosedLocal),
    t(HalfClosedLocal, SendEndStream, HalfClosedLocal),
    t(HalfClosedRemote, SendEndStream, Closed),
    t(Closed, SendEndStream, Closed),
    // recv END_STREAM on a later frame (DATA)
    t(Idle, RecvEndStream, Idle),
    t(ReservedLocal, RecvEndStream, ReservedLocal),
    t(ReservedRemote, RecvEndStream, ReservedRemote),
    t(Open, RecvEndStream, HalfClosedRemote),
    t(HalfClosedLocal, RecvEndStream, Closed),
    t(HalfClosedRemote, RecvEndStream, HalfClosedRemote),
    t(Closed, RecvEndStream, Closed),
    // send RST_STREAM
    t(Idle, SendReset, Closed),
    t(ReservedLocal, SendReset, Closed),
    t(ReservedRemote, SendReset, Closed),
    t(Open, SendReset, Closed),
    t(HalfClosedLocal, SendReset, Closed),
    t(HalfClosedRemote, SendReset, Closed),
    t(Closed, SendReset, Closed),
    // recv RST_STREAM
    t(Idle, RecvReset, Closed),
    t(ReservedLocal, RecvReset, Closed),
    t(ReservedRemote, RecvReset, Closed),
    t(Open, RecvReset, Closed),
    t(HalfClosedLocal, RecvReset, Closed),
    t(HalfClosedRemote, RecvReset, Closed),
    t(Closed, RecvReset, Closed),
];

/// Per-state DATA capabilities (§5.1 prose: which states permit an
/// endpoint to send or receive flow-controlled frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCapabilities {
    /// The state.
    pub state: SpecState,
    /// This endpoint may send DATA.
    pub may_send_data: bool,
    /// This endpoint may receive DATA.
    pub may_recv_data: bool,
}

const fn cap(state: SpecState, may_send_data: bool, may_recv_data: bool) -> StateCapabilities {
    StateCapabilities {
        state,
        may_send_data,
        may_recv_data,
    }
}

/// DATA capability per state.
pub const CAPABILITIES: [StateCapabilities; 7] = [
    cap(Idle, false, false),
    cap(ReservedLocal, false, false),
    cap(ReservedRemote, false, false),
    cap(Open, true, true),
    cap(HalfClosedLocal, false, true),
    cap(HalfClosedRemote, true, false),
    cap(Closed, false, false),
];

/// What §5.1 tells a receiver to do with a stream-addressed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// Process the frame.
    Legal,
    /// Treat as a connection error with this code.
    ConnectionError(ErrorCode),
    /// Treat as a stream error with this code.
    StreamError(ErrorCode),
}

/// One cell of the receive-legality matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRule {
    /// Receiver-side stream state.
    pub state: SpecState,
    /// Arriving frame type.
    pub frame: FrameKind,
    /// Mandated reaction.
    pub outcome: RecvOutcome,
}

const fn rl(state: SpecState, frame: FrameKind, outcome: RecvOutcome) -> RecvRule {
    RecvRule {
        state,
        frame,
        outcome,
    }
}

const LEGAL: RecvOutcome = RecvOutcome::Legal;
const CONN_PROTO: RecvOutcome = RecvOutcome::ConnectionError(ErrorCode::ProtocolError);
const STREAM_CLOSED: RecvOutcome = RecvOutcome::StreamError(ErrorCode::StreamClosed);

/// §5.1 receive legality: 7 states x the 6 stream-addressed frame
/// types (CONTINUATION is excluded — its legality follows the HEADERS
/// in flight, not the stream state).
pub const RECV_LEGALITY: [RecvRule; 42] = [
    // idle: only HEADERS and PRIORITY may arrive
    rl(Idle, FrameKind::Data, CONN_PROTO),
    rl(Idle, FrameKind::Headers, LEGAL),
    rl(Idle, FrameKind::Priority, LEGAL),
    rl(Idle, FrameKind::RstStream, CONN_PROTO),
    rl(Idle, FrameKind::PushPromise, CONN_PROTO),
    rl(Idle, FrameKind::WindowUpdate, CONN_PROTO),
    // reserved (local): RST_STREAM, PRIORITY, WINDOW_UPDATE
    rl(ReservedLocal, FrameKind::Data, CONN_PROTO),
    rl(ReservedLocal, FrameKind::Headers, CONN_PROTO),
    rl(ReservedLocal, FrameKind::Priority, LEGAL),
    rl(ReservedLocal, FrameKind::RstStream, LEGAL),
    rl(ReservedLocal, FrameKind::PushPromise, CONN_PROTO),
    rl(ReservedLocal, FrameKind::WindowUpdate, LEGAL),
    // reserved (remote): HEADERS, RST_STREAM, PRIORITY
    rl(ReservedRemote, FrameKind::Data, CONN_PROTO),
    rl(ReservedRemote, FrameKind::Headers, LEGAL),
    rl(ReservedRemote, FrameKind::Priority, LEGAL),
    rl(ReservedRemote, FrameKind::RstStream, LEGAL),
    rl(ReservedRemote, FrameKind::PushPromise, CONN_PROTO),
    rl(ReservedRemote, FrameKind::WindowUpdate, CONN_PROTO),
    // open: any frame
    rl(Open, FrameKind::Data, LEGAL),
    rl(Open, FrameKind::Headers, LEGAL),
    rl(Open, FrameKind::Priority, LEGAL),
    rl(Open, FrameKind::RstStream, LEGAL),
    rl(Open, FrameKind::PushPromise, LEGAL),
    rl(Open, FrameKind::WindowUpdate, LEGAL),
    // half-closed (local): any frame
    rl(HalfClosedLocal, FrameKind::Data, LEGAL),
    rl(HalfClosedLocal, FrameKind::Headers, LEGAL),
    rl(HalfClosedLocal, FrameKind::Priority, LEGAL),
    rl(HalfClosedLocal, FrameKind::RstStream, LEGAL),
    rl(HalfClosedLocal, FrameKind::PushPromise, LEGAL),
    rl(HalfClosedLocal, FrameKind::WindowUpdate, LEGAL),
    // half-closed (remote): WINDOW_UPDATE, PRIORITY, RST_STREAM
    rl(HalfClosedRemote, FrameKind::Data, STREAM_CLOSED),
    rl(HalfClosedRemote, FrameKind::Headers, STREAM_CLOSED),
    rl(HalfClosedRemote, FrameKind::Priority, LEGAL),
    rl(HalfClosedRemote, FrameKind::RstStream, LEGAL),
    rl(HalfClosedRemote, FrameKind::PushPromise, STREAM_CLOSED),
    rl(HalfClosedRemote, FrameKind::WindowUpdate, LEGAL),
    // closed: PRIORITY only
    rl(Closed, FrameKind::Data, STREAM_CLOSED),
    rl(Closed, FrameKind::Headers, STREAM_CLOSED),
    rl(Closed, FrameKind::Priority, LEGAL),
    rl(Closed, FrameKind::RstStream, LEGAL),
    rl(Closed, FrameKind::PushPromise, STREAM_CLOSED),
    rl(Closed, FrameKind::WindowUpdate, LEGAL),
];

// ---------------------------------------------------------------------------
// §6 frame constraints
// ---------------------------------------------------------------------------

/// What stream id a frame type requires (the 0x0 connection stream,
/// a non-zero stream, or either).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamIdRule {
    /// Must be 0x0.
    Zero,
    /// Must be non-zero.
    NonZero,
    /// Either (WINDOW_UPDATE).
    Any,
}

/// §6 size/flag/stream-id constraints for one frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRule {
    /// Frame type.
    pub kind: FrameKind,
    /// Stream-id constraint.
    pub stream_id: StreamIdRule,
    /// Exact payload length, if fixed.
    pub fixed_len: Option<usize>,
    /// Minimum payload length, if any (before padding/flag fields).
    pub min_len: Option<usize>,
    /// Payload length divisor, if any.
    pub len_multiple_of: Option<usize>,
    /// Bit mask of defined flags; undefined bits must be ignored.
    pub allowed_flags: u8,
    /// RFC 7540 section defining the type.
    pub section: &'static str,
}

const fn fr(
    kind: FrameKind,
    stream_id: StreamIdRule,
    fixed_len: Option<usize>,
    min_len: Option<usize>,
    len_multiple_of: Option<usize>,
    allowed_flags: u8,
    section: &'static str,
) -> FrameRule {
    FrameRule {
        kind,
        stream_id,
        fixed_len,
        min_len,
        len_multiple_of,
        allowed_flags,
        section,
    }
}

/// All ten frame types of RFC 7540 §6. Length violations of the fixed
/// and minimum sizes are FRAME_SIZE_ERROR (§4.2); stream-id violations
/// are PROTOCOL_ERROR.
pub const FRAME_RULES: [FrameRule; 10] = [
    // END_STREAM | PADDED
    fr(
        FrameKind::Data,
        StreamIdRule::NonZero,
        None,
        None,
        None,
        0x09,
        "6.1",
    ),
    // END_STREAM | END_HEADERS | PADDED | PRIORITY
    fr(
        FrameKind::Headers,
        StreamIdRule::NonZero,
        None,
        None,
        None,
        0x2d,
        "6.2",
    ),
    fr(
        FrameKind::Priority,
        StreamIdRule::NonZero,
        Some(5),
        None,
        None,
        0x00,
        "6.3",
    ),
    fr(
        FrameKind::RstStream,
        StreamIdRule::NonZero,
        Some(4),
        None,
        None,
        0x00,
        "6.4",
    ),
    // ACK
    fr(
        FrameKind::Settings,
        StreamIdRule::Zero,
        None,
        None,
        Some(6),
        0x01,
        "6.5",
    ),
    // END_HEADERS | PADDED; 4-octet promised stream id minimum
    fr(
        FrameKind::PushPromise,
        StreamIdRule::NonZero,
        None,
        Some(4),
        None,
        0x0c,
        "6.6",
    ),
    // ACK
    fr(
        FrameKind::Ping,
        StreamIdRule::Zero,
        Some(8),
        None,
        None,
        0x01,
        "6.7",
    ),
    // last-stream-id + error code minimum
    fr(
        FrameKind::Goaway,
        StreamIdRule::Zero,
        None,
        Some(8),
        None,
        0x00,
        "6.8",
    ),
    fr(
        FrameKind::WindowUpdate,
        StreamIdRule::Any,
        Some(4),
        None,
        None,
        0x00,
        "6.9",
    ),
    // END_HEADERS
    fr(
        FrameKind::Continuation,
        StreamIdRule::NonZero,
        None,
        None,
        None,
        0x04,
        "6.10",
    ),
];

/// §6.5.2 bounds on SETTINGS values. Values outside the bound are a
/// connection error: FLOW_CONTROL_ERROR for INITIAL_WINDOW_SIZE,
/// PROTOCOL_ERROR otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettingBound {
    /// The parameter.
    pub id: SettingId,
    /// Smallest legal value.
    pub min: u64,
    /// Largest legal value.
    pub max: u64,
}

/// The three bounded parameters (the others accept any u32).
pub const SETTING_BOUNDS: [SettingBound; 3] = [
    SettingBound {
        id: SettingId::EnablePush,
        min: 0,
        max: 1,
    },
    SettingBound {
        id: SettingId::InitialWindowSize,
        min: 0,
        max: (1 << 31) - 1,
    },
    SettingBound {
        id: SettingId::MaxFrameSize,
        min: 1 << 14,
        max: (1 << 24) - 1,
    },
];

// ---------------------------------------------------------------------------
// Rule registry: the vocabulary quirks and probes must speak
// ---------------------------------------------------------------------------

/// Where a rule's authority comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleBasis {
    /// An RFC 7540 requirement (the section cited).
    Spec(&'static str),
    /// Testbed shaping with no RFC requirement behind it (latency,
    /// naming, response decoration); legal for quirks, illegal for
    /// probe classifiers.
    Modeling,
}

/// One entry in the rule registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable identifier referenced by [`QUIRK_RULES`] / [`PROBE_RULES`].
    pub id: &'static str,
    /// Authority.
    pub basis: RuleBasis,
    /// One-line statement of the rule.
    pub summary: &'static str,
}

const fn rule(id: &'static str, basis: RuleBasis, summary: &'static str) -> Rule {
    Rule { id, basis, summary }
}

use RuleBasis::{Modeling, Spec};

/// Every spec rule the workspace's quirk matrices and probe
/// classifiers are allowed to cite.
pub const RULES: [Rule; 24] = [
    rule(
        "stream-states",
        Spec("5.1"),
        "streams follow the Figure 2 lifecycle",
    ),
    rule(
        "multiplexing",
        Spec("5.1.2"),
        "concurrent streams up to MAX_CONCURRENT_STREAMS",
    ),
    rule(
        "self-dependency",
        Spec("5.3.1"),
        "a stream cannot depend on itself",
    ),
    rule(
        "priority-scheduling",
        Spec("5.3"),
        "allocate bandwidth parent-before-children by weight",
    ),
    rule(
        "frame-size",
        Spec("4.2"),
        "wrong-size frames are FRAME_SIZE_ERROR",
    ),
    rule(
        "settings-bounds",
        Spec("6.5.2"),
        "SETTINGS values must respect the defined bounds",
    ),
    rule(
        "header-table-size",
        Spec("6.5.2"),
        "honor the peer's SETTINGS_HEADER_TABLE_SIZE",
    ),
    rule(
        "hpack-context",
        Spec("4.3"),
        "maintain the HPACK dynamic table across responses",
    ),
    rule(
        "push",
        Spec("8.2"),
        "server push via PUSH_PROMISE on an existing stream",
    ),
    rule(
        "push-stream-limit",
        Spec("5.1.2"),
        "activated pushes respect the peer's MAX_CONCURRENT_STREAMS; reserved streams are exempt",
    ),
    rule(
        "ping",
        Spec("6.7"),
        "PING must be acknowledged with an identical payload",
    ),
    rule(
        "goaway-debug",
        Spec("6.8"),
        "GOAWAY may carry opaque debug data",
    ),
    rule(
        "zero-increment",
        Spec("6.9"),
        "a WINDOW_UPDATE increment of 0 is PROTOCOL_ERROR",
    ),
    rule(
        "window-overflow",
        Spec("6.9.1"),
        "a window above 2^31-1 is FLOW_CONTROL_ERROR",
    ),
    rule(
        "fc-data-only",
        Spec("6.9"),
        "only DATA is flow-controlled; HEADERS must not block",
    ),
    rule(
        "window-honored",
        Spec("6.9.1"),
        "senders must not exceed the advertised window",
    ),
    rule(
        "initial-window",
        Spec("6.9.2"),
        "SETTINGS_INITIAL_WINDOW_SIZE retunes stream windows",
    ),
    rule(
        "tls-negotiation",
        Spec("3.3"),
        "h2 is negotiated via ALPN over TLS",
    ),
    rule(
        "h2c-upgrade",
        Spec("3.2"),
        "cleartext h2 starts with an HTTP/1.1 Upgrade",
    ),
    rule(
        "rst-rate",
        Spec("10.5"),
        "an endpoint may police abusive RST_STREAM churn",
    ),
    rule(
        "settings-rate",
        Spec("10.5"),
        "an endpoint may police SETTINGS frames extorting acks",
    ),
    rule(
        "continuation-cap",
        Spec("10.5"),
        "an endpoint may cap an unbounded header block",
    ),
    rule(
        "abuse-timeout",
        Spec("10.5"),
        "an endpoint may reap connections stalled past patience",
    ),
    rule(
        "max-header-list-size",
        Spec("10.5.1"),
        "a header list above the limit should be a stream error",
    ),
];

/// The `modeling` pseudo-rule id used by quirks that shape the testbed
/// rather than deviate from the RFC.
pub const MODELING: Rule = rule(
    "modeling",
    Modeling,
    "testbed shaping, no RFC rule involved",
);

/// Looks up a rule by id ([`MODELING`] included).
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    if id == MODELING.id {
        return Some(&MODELING);
    }
    RULES.iter().find(|r| r.id == id)
}

/// Every public field of `h2server::ServerBehavior`, mapped to the
/// rule it deviates from (or `modeling`). Drift check: this list and
/// the struct's actual fields must match exactly, both ways.
pub const QUIRK_RULES: &[(&str, &str)] = &[
    ("server_name", "modeling"),
    ("tls", "tls-negotiation"),
    ("multiplexing", "multiplexing"),
    ("fc_on_headers", "fc-data-only"),
    ("headers_gated_at_zero_window", "fc-data-only"),
    ("mute", "modeling"),
    ("extra_response_headers", "modeling"),
    ("zero_window_update_stream", "zero-increment"),
    ("zero_window_update_conn", "zero-increment"),
    ("zero_window_debug", "goaway-debug"),
    ("large_window_update_stream", "window-overflow"),
    ("large_window_update_conn", "window-overflow"),
    ("push", "push"),
    ("push_policy", "push"),
    ("priority_mode", "priority-scheduling"),
    ("self_dependency", "self-dependency"),
    ("hpack_index_responses", "hpack-context"),
    ("ping", "ping"),
    ("announced", "settings-bounds"),
    ("zero_window_then_update", "initial-window"),
    ("zero_len_data_when_blocked", "window-honored"),
    ("cookie_injection", "modeling"),
    ("processing_delay", "modeling"),
    ("h2c_upgrade", "h2c-upgrade"),
    ("honor_peer_header_table_size", "header-table-size"),
    ("byzantine", "modeling"),
    ("rst_rate_limit", "rst-rate"),
    ("settings_rate_limit", "settings-rate"),
    ("continuation_cap", "continuation-cap"),
    ("stall_timeout", "abuse-timeout"),
    ("header_list_limit", "max-header-list-size"),
    ("oversized_header_list", "max-header-list-size"),
];

/// Every public probe entry point in `h2scope::probes` (functions
/// taking a `&Target`), mapped to the spec rules it classifies.
/// Modeling-only mappings are not allowed here: a probe that measures
/// nothing from the RFC has no place in the suite.
pub const PROBE_RULES: &[(&str, &[&str])] = &[
    ("flow_control::small_window", &["window-honored"]),
    ("flow_control::headers_at_zero_window", &["fc-data-only"]),
    (
        "flow_control::zero_window_update",
        &["zero-increment", "goaway-debug"],
    ),
    ("flow_control::large_window_update", &["window-overflow"]),
    (
        "flow_control::probe",
        &[
            "zero-increment",
            "window-overflow",
            "fc-data-only",
            "window-honored",
        ],
    ),
    ("hpack::probe", &["hpack-context", "header-table-size"]),
    ("multiplexing::probe", &["multiplexing"]),
    ("negotiation::probe", &["tls-negotiation"]),
    ("negotiation::h2c_upgrade", &["h2c-upgrade"]),
    ("ping::probe", &["ping"]),
    ("ping::compare_rtt", &["ping"]),
    ("priority::algorithm1", &["priority-scheduling"]),
    ("priority::naive_order_check", &["priority-scheduling"]),
    ("priority::weight_shares", &["priority-scheduling"]),
    ("priority::self_dependency", &["self-dependency"]),
    ("push::probe", &["push"]),
    ("push::promise_discipline", &["push-stream-limit"]),
    ("settings::probe", &["settings-bounds"]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn transition_table_is_total_and_unique() {
        assert_eq!(TRANSITIONS.len(), ALL_STATES.len() * ALL_EVENTS.len());
        let mut seen = BTreeSet::new();
        for tr in &TRANSITIONS {
            assert!(
                seen.insert(format!("{:?}/{:?}", tr.from, tr.event)),
                "duplicate arc {tr:?}"
            );
        }
    }

    #[test]
    fn closed_is_terminal() {
        for tr in TRANSITIONS.iter().filter(|tr| tr.from == Closed) {
            assert_eq!(tr.to, Closed);
        }
    }

    #[test]
    fn reset_always_closes() {
        for tr in &TRANSITIONS {
            if matches!(tr.event, SendReset | RecvReset) {
                assert_eq!(tr.to, Closed);
            }
        }
    }

    #[test]
    fn recv_legality_cells_are_unique_and_match_data_capability() {
        let mut seen = BTreeSet::new();
        for cell in &RECV_LEGALITY {
            assert!(
                seen.insert(format!("{:?}/{:?}", cell.state, cell.frame)),
                "duplicate cell {cell:?}"
            );
        }
        for caps in &CAPABILITIES {
            let data_cell = RECV_LEGALITY
                .iter()
                .find(|r| r.state == caps.state && r.frame == FrameKind::Data)
                .expect("cell exists");
            assert_eq!(
                data_cell.outcome == RecvOutcome::Legal,
                caps.may_recv_data,
                "DATA legality {data_cell:?} vs {caps:?}"
            );
        }
    }

    #[test]
    fn every_quirk_rule_resolves() {
        for (field, rule_id) in QUIRK_RULES {
            assert!(
                rule_by_id(rule_id).is_some(),
                "{field} cites unknown rule {rule_id}"
            );
        }
    }

    #[test]
    fn probe_rules_resolve_and_are_spec_backed() {
        for (probe, rule_ids) in PROBE_RULES {
            assert!(!rule_ids.is_empty(), "{probe} maps to no rule");
            for rule_id in *rule_ids {
                let rule = rule_by_id(rule_id)
                    .unwrap_or_else(|| panic!("{probe} cites unknown rule {rule_id}"));
                assert!(
                    matches!(rule.basis, RuleBasis::Spec(_)),
                    "{probe} cites non-spec rule {rule_id}"
                );
            }
        }
    }

    #[test]
    fn priority_has_no_defined_flags() {
        let pr = FRAME_RULES
            .iter()
            .find(|r| r.kind == FrameKind::Priority)
            .expect("rule");
        assert_eq!(pr.allowed_flags, 0);
        assert_eq!(pr.fixed_len, Some(5));
    }
}
