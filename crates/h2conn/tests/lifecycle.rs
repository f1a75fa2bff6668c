//! Integration tests for connection-core corners not covered by the
//! per-module unit tests: local settings changes, GOAWAY bookkeeping,
//! and stream teardown.

use bytes::Bytes;
use h2conn::{CloseReason, ConnectionCore, CoreEvent, EffectiveSettings, Role, StreamState};
use h2hpack::{EncoderOptions, Header};
use h2wire::{DataFrame, ErrorCode, Frame, RstStreamFrame, StreamId};

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

#[test]
fn lowering_local_initial_window_shrinks_existing_recv_windows() {
    let (mut client, mut server) = pair();
    for frame in client.encode_headers(sid(1), &request(), false, None) {
        server.recv_bytes(&frame.to_bytes()).unwrap();
    }
    assert_eq!(
        server
            .streams()
            .get(sid(1))
            .unwrap()
            .recv_window
            .available(),
        65_535
    );
    let local = EffectiveSettings {
        initial_window_size: 1_000,
        ..Default::default()
    };
    server.set_local_settings(local);
    assert_eq!(
        server
            .streams()
            .get(sid(1))
            .unwrap()
            .recv_window
            .available(),
        1_000,
        "retroactive §6.9.2 adjustment on the receive side"
    );
}

#[test]
fn reset_streams_record_their_close_reason() {
    let (mut client, mut server) = pair();
    for frame in client.encode_headers(sid(1), &request(), false, None) {
        server.recv_bytes(&frame.to_bytes()).unwrap();
    }
    let rst = Frame::RstStream(RstStreamFrame {
        stream_id: sid(1),
        code: ErrorCode::Cancel,
    });
    server.recv_bytes(&rst.to_bytes()).unwrap();
    let stream = server.streams().get(sid(1)).unwrap();
    assert_eq!(stream.state, StreamState::Closed);
    assert_eq!(
        stream.close_reason,
        Some(CloseReason::ResetRemote(ErrorCode::Cancel))
    );

    // And locally initiated resets (fresh pair: HPACK contexts are
    // per-connection).
    let (mut client2, mut server2) = pair();
    for frame in client2.encode_headers(sid(3), &request(), false, None) {
        server2.recv_bytes(&frame.to_bytes()).unwrap();
    }
    server2.reset_stream(sid(3), ErrorCode::RefusedStream);
    assert_eq!(
        server2.streams().get(sid(3)).unwrap().close_reason,
        Some(CloseReason::ResetLocal(ErrorCode::RefusedStream))
    );
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
fn stream_map_removal_and_recreation() {
    let (mut client, mut server) = pair();
    for frame in client.encode_headers(sid(1), &request(), true, None) {
        server.recv_bytes(&frame.to_bytes()).unwrap();
    }
    assert!(server.streams().get(sid(1)).is_some());
    let removed = server.streams_mut().remove(sid(1)).unwrap();
    assert_eq!(removed.id, sid(1));
    assert!(server.streams().get(sid(1)).is_none());
    // Highest-id tracking is monotonic even after removal.
    assert_eq!(server.streams().highest_client_id(), sid(1));
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
