//! Integration tests for connection-core corners not covered by the
//! per-module unit tests: closed streams, DATA accounting, GOAWAY
//! bookkeeping, and RFC 7540 §5.1's stream-state machine as a reference
//! table.

use bytes::Bytes;
use h2conn::{ConnError, ConnectionCore, CoreEvent, EffectiveSettings, Role, Stream, StreamState};
use h2hpack::{EncoderOptions, Header};
use h2wire::{DataFrame, ErrorCode, Frame, FrameKind, RstStreamFrame, StreamId, WindowUpdateFrame};
use Event::{RecvEndStream, RecvHeaders, RecvReset, SendEndStream, SendHeaders, SendReset};
use StreamState::{
    Closed, HalfClosedLocal, HalfClosedRemote, Idle, Open, ReservedLocal, ReservedRemote,
};

fn pair() -> (ConnectionCore, ConnectionCore) {
    (
        ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        ),
        ConnectionCore::new(
            Role::Server,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        ),
    )
}

fn request() -> Vec<Header> {
    vec![
        Header::new(":method", "GET"),
        Header::new(":path", "/"),
        Header::new(":authority", "x"),
    ]
}

fn sid(v: u32) -> StreamId {
    StreamId::new(v)
}

fn feed(server: &mut ConnectionCore, frame: Frame) -> Result<Vec<CoreEvent>, ConnError> {
    server.recv_bytes(&frame.to_bytes())
}

fn rst(stream_id: StreamId) -> Frame {
    Frame::RstStream(RstStreamFrame {
        stream_id,
        code: ErrorCode::Cancel,
    })
}

/// What a server does with frames on its closed stream 1: the stream is
/// not in the table and its id says closed (§5.1.1); DATA and HEADERS
/// draw a stream error, RST_STREAM is still reported, WINDOW_UPDATE is
/// ignored, and none of them brings the stream back. Stream 3, never
/// used, is still idle.
fn check_closed_stream_one(mut client: ConnectionCore, mut server: ConnectionCore) {
    let closed = sid(1);
    let is_closed = |server: &ConnectionCore| {
        server.streams().get(closed).is_none()
            && server.streams().state(closed) == StreamState::Closed
    };
    assert!(is_closed(&server));
    let data = Frame::Data(DataFrame {
        stream_id: closed,
        data: Bytes::from_static(b"late"),
        end_stream: false,
        pad_len: None,
    });
    assert_eq!(
        feed(&mut server, data).unwrap(),
        vec![CoreEvent::StreamClosed {
            stream: closed,
            flow_controlled_len: 4
        }]
    );
    let mut events = Vec::new();
    for frame in client.encode_headers(closed, &request(), true, None) {
        events.extend(feed(&mut server, frame).unwrap());
    }
    assert_eq!(
        events,
        vec![CoreEvent::StreamClosed {
            stream: closed,
            flow_controlled_len: 0
        }]
    );
    assert_eq!(
        feed(&mut server, rst(closed)).unwrap(),
        vec![CoreEvent::RstStreamReceived {
            stream: closed,
            code: ErrorCode::Cancel
        }]
    );
    let update = |stream_id| {
        Frame::WindowUpdate(WindowUpdateFrame {
            stream_id,
            increment: 1,
        })
    };
    assert_eq!(feed(&mut server, update(closed)).unwrap(), vec![]);
    assert!(is_closed(&server));
    assert_eq!(server.streams().state(sid(3)), StreamState::Idle);
    assert_eq!(
        feed(&mut server, update(sid(3))).unwrap_err(),
        ConnError::StreamState {
            kind: FrameKind::WindowUpdate,
            stream: sid(3),
            state: StreamState::Idle
        }
    );
}

#[test]
fn a_completed_stream_is_dropped_and_refuses_data_and_headers() {
    let (mut client, mut server) = pair();
    for frame in client.encode_headers(sid(1), &request(), true, None) {
        server.recv_bytes(&frame.to_bytes()).unwrap();
    }
    server.encode_headers(sid(1), &[Header::new(":status", "200")], false, None);
    server.send_data(sid(1), Bytes::from_static(b"body"), true);
    check_closed_stream_one(client, server);
}

#[test]
fn a_client_reset_stream_is_dropped_and_refuses_data_and_headers() {
    let (mut client, mut server) = pair();
    for frame in client.encode_headers(sid(1), &request(), false, None) {
        server.recv_bytes(&frame.to_bytes()).unwrap();
    }
    assert_eq!(server.streams().state(sid(1)), StreamState::Open);
    server.recv_bytes(&rst(sid(1)).to_bytes()).unwrap();
    check_closed_stream_one(client, server);
}

#[test]
fn data_events_preserve_payload_and_padding_accounting() {
    let (mut client, mut server) = pair();
    for frame in client.encode_headers(sid(1), &request(), false, None) {
        server.recv_bytes(&frame.to_bytes()).unwrap();
    }
    let data = Frame::Data(DataFrame {
        stream_id: sid(1),
        data: Bytes::from_static(b"payload"),
        end_stream: true,
        pad_len: Some(10),
    });
    let events = server.recv_bytes(&data.to_bytes()).unwrap();
    match &events[0] {
        CoreEvent::DataReceived {
            data,
            flow_controlled_len,
            end_stream,
            ..
        } => {
            assert_eq!(data.as_ref(), b"payload");
            assert_eq!(*flow_controlled_len, 7 + 10 + 1);
            assert!(end_stream);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        server.streams().get(sid(1)).unwrap().state,
        StreamState::HalfClosedRemote
    );
}

#[test]
fn goaway_state_blocks_nothing_mechanical() {
    // GOAWAY is advisory at the core layer: bookkeeping continues so the
    // policy layer can drain in-flight streams (RFC 7540 §6.8).
    let (mut client, mut server) = pair();
    let goaway = Frame::Goaway(h2wire::GoawayFrame {
        last_stream_id: sid(0),
        code: ErrorCode::NoError,
        debug_data: Bytes::new(),
    });
    server.recv_bytes(&goaway.to_bytes()).unwrap();
    assert!(server.goaway_received());
    for frame in client.encode_headers(sid(1), &request(), true, None) {
        let events = server.recv_bytes(&frame.to_bytes()).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, CoreEvent::HeadersReceived { .. })));
    }
}

// ---------------------------------------------------------------------------
// RFC 7540 §5.1: the stream-state machine of Figure 2, as a reference table
// ---------------------------------------------------------------------------

/// The transition-triggering inputs of Figure 2, from this endpoint's
/// side, each one of `Stream`'s own methods. The PUSH_PROMISE arcs are the
/// reserved entry states themselves.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Send HEADERS; `true` sets END_STREAM.
    SendHeaders(bool),
    /// Receive HEADERS; `true` carries END_STREAM.
    RecvHeaders(bool),
    /// Send END_STREAM on a later frame (DATA).
    SendEndStream,
    /// Receive END_STREAM on a later frame (DATA).
    RecvEndStream,
    /// Send RST_STREAM.
    SendReset,
    /// Receive RST_STREAM.
    RecvReset,
}

impl Event {
    fn apply(self, stream: &mut Stream) {
        match self {
            Event::SendHeaders(end_stream) => stream.send_headers(end_stream),
            Event::RecvHeaders(end_stream) => stream.recv_headers(end_stream),
            Event::SendEndStream => stream.send_end_stream(),
            Event::RecvEndStream => stream.recv_end_stream(),
            Event::SendReset | Event::RecvReset => stream.reset(),
        }
    }
}

/// The complete §5.1 transition table: 7 states × 8 events. Arcs Figure 2
/// does not draw keep the stream in place (whether such a frame may
/// arrive at all is the receive-legality table's concern, not the state
/// function's).
#[rustfmt::skip]
const TRANSITIONS: [(StreamState, Event, StreamState); 56] = [
    (Idle, SendHeaders(false), Open),
    (ReservedLocal, SendHeaders(false), HalfClosedRemote),
    (ReservedRemote, SendHeaders(false), ReservedRemote),
    (Open, SendHeaders(false), Open),
    (HalfClosedLocal, SendHeaders(false), HalfClosedLocal),
    (HalfClosedRemote, SendHeaders(false), HalfClosedRemote),
    (Closed, SendHeaders(false), Closed),
    (Idle, SendHeaders(true), HalfClosedLocal),
    (ReservedLocal, SendHeaders(true), Closed),
    (ReservedRemote, SendHeaders(true), ReservedRemote),
    (Open, SendHeaders(true), HalfClosedLocal),
    (HalfClosedLocal, SendHeaders(true), HalfClosedLocal),
    (HalfClosedRemote, SendHeaders(true), Closed),
    (Closed, SendHeaders(true), Closed),
    (Idle, RecvHeaders(false), Open),
    (ReservedLocal, RecvHeaders(false), ReservedLocal),
    (ReservedRemote, RecvHeaders(false), HalfClosedLocal),
    (Open, RecvHeaders(false), Open),
    (HalfClosedLocal, RecvHeaders(false), HalfClosedLocal),
    (HalfClosedRemote, RecvHeaders(false), HalfClosedRemote),
    (Closed, RecvHeaders(false), Closed),
    (Idle, RecvHeaders(true), HalfClosedRemote),
    (ReservedLocal, RecvHeaders(true), ReservedLocal),
    (ReservedRemote, RecvHeaders(true), Closed),
    (Open, RecvHeaders(true), HalfClosedRemote),
    (HalfClosedLocal, RecvHeaders(true), Closed),
    (HalfClosedRemote, RecvHeaders(true), HalfClosedRemote),
    (Closed, RecvHeaders(true), Closed),
    (Idle, SendEndStream, Idle),
    (ReservedLocal, SendEndStream, ReservedLocal),
    (ReservedRemote, SendEndStream, ReservedRemote),
    (Open, SendEndStream, HalfClosedLocal),
    (HalfClosedLocal, SendEndStream, HalfClosedLocal),
    (HalfClosedRemote, SendEndStream, Closed),
    (Closed, SendEndStream, Closed),
    (Idle, RecvEndStream, Idle),
    (ReservedLocal, RecvEndStream, ReservedLocal),
    (ReservedRemote, RecvEndStream, ReservedRemote),
    (Open, RecvEndStream, HalfClosedRemote),
    (HalfClosedLocal, RecvEndStream, Closed),
    (HalfClosedRemote, RecvEndStream, HalfClosedRemote),
    (Closed, RecvEndStream, Closed),
    (Idle, SendReset, Closed),
    (ReservedLocal, SendReset, Closed),
    (ReservedRemote, SendReset, Closed),
    (Open, SendReset, Closed),
    (HalfClosedLocal, SendReset, Closed),
    (HalfClosedRemote, SendReset, Closed),
    (Closed, SendReset, Closed),
    (Idle, RecvReset, Closed),
    (ReservedLocal, RecvReset, Closed),
    (ReservedRemote, RecvReset, Closed),
    (Open, RecvReset, Closed),
    (HalfClosedLocal, RecvReset, Closed),
    (HalfClosedRemote, RecvReset, Closed),
    (Closed, RecvReset, Closed),
];

/// §5.1 prose: `(state, may send DATA, may receive DATA)`.
const CAPABILITIES: [(StreamState, bool, bool); 7] = [
    (Idle, false, false),
    (ReservedLocal, false, false),
    (ReservedRemote, false, false),
    (Open, true, true),
    (HalfClosedLocal, false, true),
    (HalfClosedRemote, true, false),
    (Closed, false, false),
];

#[test]
fn transitions_match_the_section_5_1_table() {
    let arcs: std::collections::BTreeSet<String> = TRANSITIONS
        .iter()
        .map(|(from, event, _)| format!("{from:?}/{event:?}"))
        .collect();
    assert_eq!(arcs.len(), TRANSITIONS.len(), "one arc per (state, event)");
    for &(from, event, to) in &TRANSITIONS {
        if from == Closed || matches!(event, SendReset | RecvReset) {
            assert_eq!(to, Closed, "closed is terminal; a reset closes");
        }
        let mut stream = Stream::new(sid(1), 65_535, 65_535);
        stream.state = from;
        event.apply(&mut stream);
        assert_eq!(stream.state, to, "§5.1 {from:?} --{event:?}-->");
    }
}

#[test]
fn data_capabilities_match_can_send_and_can_recv() {
    for (state, may_send, may_recv) in CAPABILITIES {
        // `can_send`/`can_recv` also admit the reserved state about to
        // take up the sending/receiving role.
        assert_eq!(
            state.can_send(),
            may_send || state == ReservedLocal,
            "{state:?}"
        );
        assert_eq!(
            state.can_recv(),
            may_recv || state == ReservedRemote,
            "{state:?}"
        );
    }
}
