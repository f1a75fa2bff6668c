//! RFC 7540 §5.1's receive legality as a reference table: what a
//! receiver must do with each stream-addressed frame type in each stream
//! state. The idle row is sent to the RFC reference server; the other
//! rows wait for a generator that can drive a stream into each state.

use h2conn::StreamState::{
    self, Closed, HalfClosedLocal, HalfClosedRemote, Idle, Open, ReservedLocal, ReservedRemote,
};
use h2scope::target::Target;
use h2scope::ProbeConn;
use h2server::{ServerProfile, SiteSpec};
use h2wire::{
    DataFrame, ErrorCode, Frame, FrameKind, PriorityFrame, PrioritySpec, RstStreamFrame, Settings,
    StreamId, WindowUpdateFrame,
};

/// What §5.1 tells a receiver to do with a stream-addressed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvOutcome {
    /// Process the frame.
    Legal,
    /// Treat as a connection error with this code.
    ConnectionError(ErrorCode),
    /// Treat as a stream error with this code.
    StreamError(ErrorCode),
}

const LEGAL: RecvOutcome = RecvOutcome::Legal;
const CONN_PROTO: RecvOutcome = RecvOutcome::ConnectionError(ErrorCode::ProtocolError);
const STREAM_CLOSED: RecvOutcome = RecvOutcome::StreamError(ErrorCode::StreamClosed);

/// §5.1 receive legality: 7 states × the 6 stream-addressed frame types
/// (CONTINUATION is excluded — its legality follows the HEADERS in
/// flight, not the stream state).
#[rustfmt::skip]
const RECV_LEGALITY: [(StreamState, FrameKind, RecvOutcome); 42] = [
    // idle: only HEADERS and PRIORITY may arrive
    (Idle, FrameKind::Data, CONN_PROTO),
    (Idle, FrameKind::Headers, LEGAL),
    (Idle, FrameKind::Priority, LEGAL),
    (Idle, FrameKind::RstStream, CONN_PROTO),
    (Idle, FrameKind::PushPromise, CONN_PROTO),
    (Idle, FrameKind::WindowUpdate, CONN_PROTO),
    // reserved (local): RST_STREAM, PRIORITY, WINDOW_UPDATE
    (ReservedLocal, FrameKind::Data, CONN_PROTO),
    (ReservedLocal, FrameKind::Headers, CONN_PROTO),
    (ReservedLocal, FrameKind::Priority, LEGAL),
    (ReservedLocal, FrameKind::RstStream, LEGAL),
    (ReservedLocal, FrameKind::PushPromise, CONN_PROTO),
    (ReservedLocal, FrameKind::WindowUpdate, LEGAL),
    // reserved (remote): HEADERS, RST_STREAM, PRIORITY
    (ReservedRemote, FrameKind::Data, CONN_PROTO),
    (ReservedRemote, FrameKind::Headers, LEGAL),
    (ReservedRemote, FrameKind::Priority, LEGAL),
    (ReservedRemote, FrameKind::RstStream, LEGAL),
    (ReservedRemote, FrameKind::PushPromise, CONN_PROTO),
    (ReservedRemote, FrameKind::WindowUpdate, CONN_PROTO),
    // open: any frame
    (Open, FrameKind::Data, LEGAL),
    (Open, FrameKind::Headers, LEGAL),
    (Open, FrameKind::Priority, LEGAL),
    (Open, FrameKind::RstStream, LEGAL),
    (Open, FrameKind::PushPromise, LEGAL),
    (Open, FrameKind::WindowUpdate, LEGAL),
    // half-closed (local): any frame
    (HalfClosedLocal, FrameKind::Data, LEGAL),
    (HalfClosedLocal, FrameKind::Headers, LEGAL),
    (HalfClosedLocal, FrameKind::Priority, LEGAL),
    (HalfClosedLocal, FrameKind::RstStream, LEGAL),
    (HalfClosedLocal, FrameKind::PushPromise, LEGAL),
    (HalfClosedLocal, FrameKind::WindowUpdate, LEGAL),
    // half-closed (remote): WINDOW_UPDATE, PRIORITY, RST_STREAM
    (HalfClosedRemote, FrameKind::Data, STREAM_CLOSED),
    (HalfClosedRemote, FrameKind::Headers, STREAM_CLOSED),
    (HalfClosedRemote, FrameKind::Priority, LEGAL),
    (HalfClosedRemote, FrameKind::RstStream, LEGAL),
    (HalfClosedRemote, FrameKind::PushPromise, STREAM_CLOSED),
    (HalfClosedRemote, FrameKind::WindowUpdate, LEGAL),
    // closed: PRIORITY only
    (Closed, FrameKind::Data, STREAM_CLOSED),
    (Closed, FrameKind::Headers, STREAM_CLOSED),
    (Closed, FrameKind::Priority, LEGAL),
    (Closed, FrameKind::RstStream, LEGAL),
    (Closed, FrameKind::PushPromise, STREAM_CLOSED),
    (Closed, FrameKind::WindowUpdate, LEGAL),
];

/// Each cell appears once, and DATA is legal exactly where a stream may
/// receive it (`can_recv` also admits reserved (remote), the state about
/// to take up the receiving role).
#[test]
fn recv_legality_cells_are_unique_and_match_data_capability() {
    let cells: std::collections::BTreeSet<String> = RECV_LEGALITY
        .iter()
        .map(|(state, frame, _)| format!("{state:?}/{frame:?}"))
        .collect();
    assert_eq!(cells.len(), RECV_LEGALITY.len());
    for (state, frame, outcome) in RECV_LEGALITY {
        if frame == FrameKind::Data {
            assert_eq!(
                outcome == LEGAL,
                state.can_recv() && state != ReservedRemote,
                "DATA in {state:?}"
            );
        }
    }
}

/// §5.1's idle row, received by the RFC reference server: each frame
/// names stream 1 before anything has opened it, and the server's answer
/// (GOAWAY, RST_STREAM or neither) must be the row's outcome.
#[test]
fn idle_stream_frames_draw_the_outcome_recv_legality_states() {
    let target = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());
    let idle = StreamId::new(1);
    for (state, frame, outcome) in RECV_LEGALITY {
        if state != Idle {
            continue;
        }
        let mut conn = ProbeConn::establish(&target, Settings::new(), 0);
        conn.exchange();
        match frame {
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
        assert_eq!(observed, outcome, "§5.1 idle {frame:?}");
    }
}
