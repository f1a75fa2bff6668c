//! Per-stream state (RFC 7540 §5.1) and the stream table.

use h2wire::{ErrorCode, StreamId};

use crate::core::Role;
use crate::window::FlowWindow;

/// The RFC 7540 §5.1 stream lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamState {
    /// Not yet used.
    Idle,
    /// Promised by us via PUSH_PROMISE.
    ReservedLocal,
    /// Promised by the peer via PUSH_PROMISE.
    ReservedRemote,
    /// Both directions open.
    Open,
    /// We sent END_STREAM; the peer may still send.
    HalfClosedLocal,
    /// The peer sent END_STREAM; we may still send.
    HalfClosedRemote,
    /// Fully closed.
    Closed,
}

impl StreamState {
    /// `true` when the local endpoint may still send DATA/HEADERS.
    pub fn can_send(self) -> bool {
        matches!(
            self,
            StreamState::Open | StreamState::HalfClosedRemote | StreamState::ReservedLocal
        )
    }

    /// `true` when frames from the peer are still expected.
    pub fn can_recv(self) -> bool {
        matches!(
            self,
            StreamState::Open | StreamState::HalfClosedLocal | StreamState::ReservedRemote
        )
    }
}

/// Why a stream reached [`StreamState::Closed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Both sides finished normally.
    EndStream,
    /// We sent RST_STREAM.
    ResetLocal(ErrorCode),
    /// The peer sent RST_STREAM.
    ResetRemote(ErrorCode),
}

/// One stream's bookkeeping: state plus both flow-control windows.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Stream identifier.
    pub id: StreamId,
    /// Lifecycle state.
    pub state: StreamState,
    /// Window limiting what *we* may send on this stream.
    pub send_window: FlowWindow,
    /// Window limiting what the peer may send to us.
    pub recv_window: FlowWindow,
    /// Set once the stream closes.
    pub close_reason: Option<CloseReason>,
}

impl Stream {
    /// Creates an idle stream with the given initial window sizes.
    pub fn new(id: StreamId, send_initial: u32, recv_initial: u32) -> Stream {
        Stream {
            id,
            state: StreamState::Idle,
            send_window: FlowWindow::new(send_initial),
            recv_window: FlowWindow::new(recv_initial),
            close_reason: None,
        }
    }

    /// Transition for sending HEADERS opening the stream.
    pub fn send_headers(&mut self, end_stream: bool) {
        self.state = match (self.state, end_stream) {
            (StreamState::Idle, false) => StreamState::Open,
            (StreamState::Idle, true) => StreamState::HalfClosedLocal,
            (StreamState::ReservedLocal, false) => StreamState::HalfClosedRemote,
            (StreamState::ReservedLocal, true) => StreamState::Closed,
            (state, false) => state,
            (StreamState::Open, true) => StreamState::HalfClosedLocal,
            (StreamState::HalfClosedRemote, true) => StreamState::Closed,
            (state, true) => state,
        };
        if self.state == StreamState::Closed && self.close_reason.is_none() {
            self.close_reason = Some(CloseReason::EndStream);
        }
    }

    /// Transition for receiving HEADERS.
    pub fn recv_headers(&mut self, end_stream: bool) {
        self.state = match (self.state, end_stream) {
            (StreamState::Idle, false) => StreamState::Open,
            (StreamState::Idle, true) => StreamState::HalfClosedRemote,
            (StreamState::ReservedRemote, false) => StreamState::HalfClosedLocal,
            (StreamState::ReservedRemote, true) => StreamState::Closed,
            (state, false) => state,
            (StreamState::Open, true) => StreamState::HalfClosedRemote,
            (StreamState::HalfClosedLocal, true) => StreamState::Closed,
            (state, true) => state,
        };
        if self.state == StreamState::Closed && self.close_reason.is_none() {
            self.close_reason = Some(CloseReason::EndStream);
        }
    }

    /// Transition for a locally sent END_STREAM on DATA.
    pub fn send_end_stream(&mut self) {
        self.state = match self.state {
            StreamState::Open => StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote => StreamState::Closed,
            other => other,
        };
        if self.state == StreamState::Closed && self.close_reason.is_none() {
            self.close_reason = Some(CloseReason::EndStream);
        }
    }

    /// Transition for a received END_STREAM on DATA.
    pub fn recv_end_stream(&mut self) {
        self.state = match self.state {
            StreamState::Open => StreamState::HalfClosedRemote,
            StreamState::HalfClosedLocal => StreamState::Closed,
            other => other,
        };
        if self.state == StreamState::Closed && self.close_reason.is_none() {
            self.close_reason = Some(CloseReason::EndStream);
        }
    }

    /// Transition for sending RST_STREAM.
    pub fn send_reset(&mut self, code: ErrorCode) {
        self.state = StreamState::Closed;
        self.close_reason = Some(CloseReason::ResetLocal(code));
    }

    /// Transition for receiving RST_STREAM.
    pub fn recv_reset(&mut self, code: ErrorCode) {
        self.state = StreamState::Closed;
        self.close_reason = Some(CloseReason::ResetRemote(code));
    }

    /// `true` once the stream is closed.
    pub fn is_closed(&self) -> bool {
        self.state == StreamState::Closed
    }
}

/// The set of streams on one connection.
#[derive(Debug, Clone, Default)]
pub struct StreamMap {
    /// Every stream seen, sorted by id. Ids arrive (nearly) in ascending
    /// order, so a new stream is an amortized push: the table grows by
    /// doubling, not by a tree node every few streams, and a request late
    /// in a long connection allocates no more than an early one.
    streams: Vec<Stream>,
    highest_client: u32,
    highest_server: u32,
}

impl StreamMap {
    /// An empty map in the table storage another map handed back through
    /// [`StreamMap::take_scratch`].
    pub(crate) fn new_in(streams: Vec<Stream>) -> StreamMap {
        StreamMap {
            streams,
            ..StreamMap::default()
        }
    }

    /// Forgets every stream and hands back the table's storage, empty.
    pub(crate) fn take_scratch(&mut self) -> Vec<Stream> {
        let mut streams = std::mem::take(&mut self.streams);
        streams.clear();
        streams
    }

    /// Where `id` sits in the sorted table: `Ok` when present, else
    /// `Err` with its insertion point.
    fn position(&self, id: StreamId) -> Result<usize, usize> {
        self.streams
            .binary_search_by_key(&id.value(), |s| s.id.value())
    }

    /// Gets a stream.
    pub fn get(&self, id: StreamId) -> Option<&Stream> {
        self.streams.get(self.position(id).ok()?)
    }

    /// Gets a stream mutably.
    pub(crate) fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream> {
        let at = self.position(id).ok()?;
        self.streams.get_mut(at)
    }

    /// Gets or creates a stream with the given initial windows, tracking
    /// the highest id seen per initiator.
    pub(crate) fn get_or_create(
        &mut self,
        id: StreamId,
        send_initial: u32,
        recv_initial: u32,
    ) -> &mut Stream {
        #[expect(clippy::expect_used, reason = "an entry that may open is always made")]
        self.slot(id, true, send_initial, recv_initial)
            .expect("opening entries always exist")
    }

    /// Like [`StreamMap::get_or_create`], but `None` when `id` is idle:
    /// absent and above the highest id its initiator has used (RFC 7540
    /// §5.1). Only HEADERS and PRIORITY may name an idle stream.
    pub(crate) fn get_or_create_unless_idle(
        &mut self,
        id: StreamId,
        send_initial: u32,
        recv_initial: u32,
    ) -> Option<&mut Stream> {
        self.slot(id, false, send_initial, recv_initial)
    }

    /// The entry for `id`; when absent, created with the given initial
    /// windows unless `id` is idle and `may_open` is false. One search
    /// either way.
    #[expect(
        clippy::indexing_slicing,
        reason = "`at` is the position just found or just inserted at"
    )]
    fn slot(
        &mut self,
        id: StreamId,
        may_open: bool,
        send_initial: u32,
        recv_initial: u32,
    ) -> Option<&mut Stream> {
        let at = match self.position(id) {
            Ok(at) => at,
            Err(at) => {
                let highest = if id.is_client_initiated() {
                    &mut self.highest_client
                } else {
                    &mut self.highest_server
                };
                if id.value() > *highest {
                    if !may_open {
                        return None;
                    }
                    *highest = id.value();
                }
                self.streams
                    .insert(at, Stream::new(id, send_initial, recv_initial));
                at
            }
        };
        Some(&mut self.streams[at])
    }

    /// Highest client-initiated stream id seen.
    pub fn highest_client_id(&self) -> StreamId {
        StreamId::new(self.highest_client)
    }

    /// Number of streams `initiator` opened that count against its
    /// peer's `SETTINGS_MAX_CONCURRENT_STREAMS` (RFC 7540 §5.1.2): open
    /// or half-closed. A limit bounds only the streams the other end
    /// opens, so the server's limit counts client streams and the
    /// client's counts pushed ones. A reserved stream does not count:
    /// only *activating* a promise takes a slot.
    pub fn active(&self, initiator: Role) -> usize {
        let client = initiator == Role::Client;
        self.streams
            .iter()
            .filter(|s| {
                s.id.is_client_initiated() == client
                    && matches!(
                        s.state,
                        StreamState::Open
                            | StreamState::HalfClosedLocal
                            | StreamState::HalfClosedRemote
                    )
            })
            .count()
    }

    /// Iterates all streams mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Stream> {
        self.streams.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(v: u32) -> StreamId {
        StreamId::new(v)
    }

    #[test]
    fn request_response_lifecycle() {
        // Client side of a GET: HEADERS(ES) out, HEADERS+DATA(ES) in.
        let mut s = Stream::new(sid(1), 65_535, 65_535);
        assert_eq!(s.state, StreamState::Idle);
        s.send_headers(true);
        assert_eq!(s.state, StreamState::HalfClosedLocal);
        assert!(!s.state.can_send());
        assert!(s.state.can_recv());
        s.recv_headers(false);
        assert_eq!(s.state, StreamState::HalfClosedLocal);
        s.recv_end_stream();
        assert_eq!(s.state, StreamState::Closed);
        assert_eq!(s.close_reason, Some(CloseReason::EndStream));
    }

    #[test]
    fn server_side_lifecycle() {
        let mut s = Stream::new(sid(1), 65_535, 65_535);
        s.recv_headers(true); // complete request
        assert_eq!(s.state, StreamState::HalfClosedRemote);
        assert!(s.state.can_send());
        s.send_headers(false); // response headers
        s.send_end_stream(); // final DATA
        assert_eq!(s.state, StreamState::Closed);
    }

    #[test]
    fn push_promise_lifecycle() {
        // Server reserves, then fulfills.
        let mut s = Stream::new(sid(2), 65_535, 65_535);
        s.state = StreamState::ReservedLocal;
        assert!(s.state.can_send());
        assert!(!s.state.can_recv());
        s.send_headers(false);
        assert_eq!(s.state, StreamState::HalfClosedRemote);
        s.send_end_stream();
        assert_eq!(s.state, StreamState::Closed);
    }

    #[test]
    fn reset_closes_immediately() {
        let mut s = Stream::new(sid(1), 65_535, 65_535);
        s.recv_headers(false);
        s.recv_reset(ErrorCode::RefusedStream);
        assert!(s.is_closed());
        assert_eq!(
            s.close_reason,
            Some(CloseReason::ResetRemote(ErrorCode::RefusedStream))
        );
    }

    #[test]
    fn map_tracks_highest_ids_and_active_count() {
        let mut map = StreamMap::default();
        map.get_or_create(sid(5), 100, 100).recv_headers(false);
        map.get_or_create(sid(3), 100, 100).recv_headers(true);
        map.get_or_create(sid(2), 100, 100);
        assert_eq!(map.highest_client_id(), sid(5));
        assert_eq!(
            map.active(Role::Client),
            2,
            "idle pushed stream not counted"
        );
        map.get_or_create(sid(2), 100, 100).state = StreamState::Open;
        assert_eq!(
            map.active(Role::Client),
            2,
            "a pushed stream is not the client's"
        );
    }

    #[test]
    fn reserved_pushes_do_not_count_until_activated() {
        // §5.1.2: reserved streams are exempt from the concurrency
        // limit; sending HEADERS on the promised stream is what makes
        // it count, and closing it frees the slot again.
        let mut map = StreamMap::default();
        map.get_or_create(sid(2), 100, 100).state = StreamState::ReservedLocal;
        map.get_or_create(sid(4), 100, 100).state = StreamState::ReservedLocal;
        assert_eq!(map.active(Role::Server), 0);
        map.get_mut(sid(2)).unwrap().send_headers(false);
        assert_eq!(map.active(Role::Server), 1);
        // A concurrent client stream never counts as server-initiated.
        map.get_or_create(sid(1), 100, 100).recv_headers(false);
        assert_eq!(map.active(Role::Server), 1);
        map.get_mut(sid(2)).unwrap().send_end_stream();
        assert_eq!(map.active(Role::Server), 0, "closed push frees its slot");
        map.get_mut(sid(4)).unwrap().send_headers(false);
        map.get_mut(sid(4)).unwrap().recv_reset(ErrorCode::Cancel);
        assert_eq!(map.active(Role::Server), 0, "reset push frees its slot");
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let mut map = StreamMap::default();
        map.get_or_create(sid(1), 10, 10).send_headers(false);
        let again = map.get_or_create(sid(1), 10, 10);
        assert_eq!(again.state, StreamState::Open, "existing stream returned");
    }
}
