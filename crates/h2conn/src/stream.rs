//! Per-stream state (RFC 7540 §5.1) and the stream table.

use h2wire::StreamId;

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
}

impl Stream {
    /// Creates an idle stream with the given initial window sizes.
    pub fn new(id: StreamId, send_initial: u32, recv_initial: u32) -> Stream {
        Stream {
            id,
            state: StreamState::Idle,
            send_window: FlowWindow::new(send_initial),
            recv_window: FlowWindow::new(recv_initial),
        }
    }

    /// Transition for sending HEADERS: it opens an idle stream and
    /// activates one we reserved, then END_STREAM ends our side.
    pub fn send_headers(&mut self, end_stream: bool) {
        self.state = match self.state {
            StreamState::Idle => StreamState::Open,
            StreamState::ReservedLocal => StreamState::HalfClosedRemote,
            state => state,
        };
        if end_stream {
            self.send_end_stream();
        }
    }

    /// Transition for receiving HEADERS: it opens an idle stream and
    /// activates one the peer reserved, then END_STREAM ends its side.
    pub fn recv_headers(&mut self, end_stream: bool) {
        self.state = match self.state {
            StreamState::Idle => StreamState::Open,
            StreamState::ReservedRemote => StreamState::HalfClosedLocal,
            state => state,
        };
        if end_stream {
            self.recv_end_stream();
        }
    }

    /// Transition for a locally sent END_STREAM on DATA.
    pub fn send_end_stream(&mut self) {
        self.state = match self.state {
            StreamState::Open => StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote => StreamState::Closed,
            other => other,
        };
    }

    /// Transition for a received END_STREAM on DATA.
    pub fn recv_end_stream(&mut self) {
        self.state = match self.state {
            StreamState::Open => StreamState::HalfClosedRemote,
            StreamState::HalfClosedLocal => StreamState::Closed,
            other => other,
        };
    }

    /// Transition for sending or receiving RST_STREAM.
    pub fn reset(&mut self) {
        self.state = StreamState::Closed;
    }
}

/// The live streams on one connection. A stream leaves the table when it
/// closes; RFC 7540 §5.1.1 tells a closed stream from an idle one by its
/// id alone (see [`StreamMap::state`]), so nothing of it needs keeping.
#[derive(Debug, Clone, Default)]
pub struct StreamMap {
    /// The live streams, sorted by id. Ids arrive (nearly) in ascending
    /// order, so a new stream is an amortized push.
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

    /// Gets a live stream.
    pub fn get(&self, id: StreamId) -> Option<&Stream> {
        self.streams.get(self.position(id).ok()?)
    }

    /// Gets a live stream mutably.
    pub(crate) fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream> {
        let at = self.position(id).ok()?;
        self.streams.get_mut(at)
    }

    /// The §5.1 state `id` is in: a live stream's own; else, by §5.1.1,
    /// closed when `id` is at or below the highest id its initiator has
    /// used, and idle above it.
    pub fn state(&self, id: StreamId) -> StreamState {
        let highest = if id.is_client_initiated() {
            self.highest_client
        } else {
            self.highest_server
        };
        match self.get(id) {
            Some(stream) => stream.state,
            None if id.value() > highest => StreamState::Idle,
            None => StreamState::Closed,
        }
    }

    /// The live stream `id`, or a new one with the given initial windows
    /// when `id` is idle (which makes it its initiator's highest id).
    /// `None` when `id` is closed: a closed stream never comes back.
    pub(crate) fn open(
        &mut self,
        id: StreamId,
        send_initial: u32,
        recv_initial: u32,
    ) -> Option<&mut Stream> {
        let at = match self.position(id) {
            Ok(at) => at,
            Err(_) if self.state(id) == StreamState::Closed => return None,
            Err(at) => {
                if id.is_client_initiated() {
                    self.highest_client = id.value();
                } else {
                    self.highest_server = id.value();
                }
                self.streams
                    .insert(at, Stream::new(id, send_initial, recv_initial));
                at
            }
        };
        self.streams.get_mut(at)
    }

    /// Drops `id` from the table if it has closed; `true` when it did.
    pub(crate) fn remove_if_closed(&mut self, id: StreamId) -> bool {
        match self.position(id) {
            Ok(at) if self.streams.get(at).map(|s| s.state) == Some(StreamState::Closed) => {
                self.streams.remove(at);
                true
            }
            _ => false,
        }
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

    /// Iterates all live streams mutably.
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
        s.reset();
        assert_eq!(s.state, StreamState::Closed);
    }

    #[test]
    fn map_tracks_highest_ids_and_active_count() {
        let mut map = StreamMap::default();
        map.open(sid(3), 100, 100).unwrap().recv_headers(true);
        map.open(sid(7), 100, 100).unwrap().recv_headers(false);
        map.open(sid(2), 100, 100).unwrap();
        assert_eq!(map.highest_client_id(), sid(7));
        // §5.1.1: an id skipped below the highest is closed, one above
        // it idle.
        assert_eq!(map.state(sid(5)), StreamState::Closed);
        assert_eq!(map.state(sid(9)), StreamState::Idle);
        assert_eq!(map.state(sid(4)), StreamState::Idle);
        assert_eq!(
            map.active(Role::Client),
            2,
            "idle pushed stream not counted"
        );
        map.get_mut(sid(2)).unwrap().state = StreamState::Open;
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
        map.open(sid(2), 100, 100).unwrap().state = StreamState::ReservedLocal;
        map.open(sid(4), 100, 100).unwrap().state = StreamState::ReservedLocal;
        assert_eq!(map.active(Role::Server), 0);
        map.get_mut(sid(2)).unwrap().send_headers(false);
        assert_eq!(map.active(Role::Server), 1);
        // A concurrent client stream never counts as server-initiated.
        map.open(sid(1), 100, 100).unwrap().recv_headers(false);
        assert_eq!(map.active(Role::Server), 1);
        map.get_mut(sid(2)).unwrap().send_end_stream();
        assert_eq!(map.active(Role::Server), 0, "closed push frees its slot");
        map.get_mut(sid(4)).unwrap().send_headers(false);
        map.get_mut(sid(4)).unwrap().reset();
        assert_eq!(map.active(Role::Server), 0, "reset push frees its slot");
    }

    #[test]
    fn open_returns_the_live_stream_and_never_reopens_a_closed_one() {
        let mut map = StreamMap::default();
        map.open(sid(1), 10, 10).unwrap().send_headers(false);
        let again = map.open(sid(1), 10, 10).unwrap();
        assert_eq!(again.state, StreamState::Open, "existing stream returned");
        again.reset();
        assert!(!map.remove_if_closed(sid(3)), "idle");
        assert!(map.remove_if_closed(sid(1)));
        assert!(
            map.get(sid(1)).is_none(),
            "a closed stream leaves the table"
        );
        assert_eq!(map.state(sid(1)), StreamState::Closed);
        assert!(map.open(sid(1), 10, 10).is_none(), "and stays closed");
    }
}
