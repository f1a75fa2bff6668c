//! RFC 7540 §5.1's receive legality as a reference table: what a
//! receiver must do with each stream-addressed frame type in each stream
//! state. Every row a server can be in is sent to every profile, and each
//! cell a profile answers otherwise is named in [`DIVERGENCES`] with its
//! cause. Reserved (remote) is the one row left out: only a client holds
//! a stream in it.

use std::collections::BTreeSet;
use std::sync::Arc;

use h2conn::StreamState::{
    self, Closed, HalfClosedLocal, HalfClosedRemote, Idle, Open, ReservedLocal, ReservedRemote,
};
use h2scope::target::Target;
use h2scope::ProbeConn;
use h2server::{ServerProfile, SiteSpec};
use h2wire::{
    DataFrame, ErrorCode, Frame, FrameKind, PriorityFrame, PrioritySpec, RstStreamFrame, SettingId,
    Settings, StreamId, WindowUpdateFrame,
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

/// How a server's stream is driven into the state a row is sent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Nothing has opened stream 1 yet.
    Idle,
    /// A POST head without END_STREAM: the body is still to come.
    Open,
    /// A GET head without END_STREAM, answered in full: the server has
    /// ended its side, the client has not.
    HalfClosedLocal,
    /// A GET under a stream window of 0 announced by the client: the
    /// request is complete and the response cannot finish.
    HalfClosedRemote,
    /// A fetch that ran to its END_STREAM.
    ClosedAfterFetch,
    /// A GET held open by a zero stream window, then cancelled by the
    /// client's own RST_STREAM.
    ClosedAfterReset,
    /// A push-capable server's promise, never activated because the
    /// client allows no concurrent pushed stream.
    ReservedLocal,
}

impl Route {
    const ALL: [Route; 7] = [
        Route::Idle,
        Route::Open,
        Route::HalfClosedLocal,
        Route::HalfClosedRemote,
        Route::ClosedAfterFetch,
        Route::ClosedAfterReset,
        Route::ReservedLocal,
    ];

    /// The §5.1 state the route leaves the server's stream in.
    fn reaches(self) -> StreamState {
        match self {
            Route::Idle => Idle,
            Route::Open => Open,
            Route::HalfClosedLocal => HalfClosedLocal,
            Route::HalfClosedRemote => HalfClosedRemote,
            Route::ClosedAfterFetch | Route::ClosedAfterReset => Closed,
            Route::ReservedLocal => ReservedLocal,
        }
    }

    /// Drives a fresh connection to `target` until the server's stream is
    /// where [`Route::reaches`] says, and returns the connection and that
    /// stream. `None` when the profile cannot reach the state (only a
    /// push-capable server reserves a stream).
    fn drive(self, target: &Target) -> Option<(ProbeConn, StreamId)> {
        let mut settings = Settings::new().with(SettingId::EnablePush, 0);
        match self {
            Route::HalfClosedRemote | Route::ClosedAfterReset => {
                settings = settings.with(SettingId::InitialWindowSize, 0);
            }
            Route::ReservedLocal if !target.profile.behavior.push => return None,
            Route::ReservedLocal => {
                settings = Settings::new().with(SettingId::MaxConcurrentStreams, 0);
            }
            Route::Idle | Route::Open | Route::HalfClosedLocal | Route::ClosedAfterFetch => {}
        }
        let mut conn = ProbeConn::establish(target, settings, 0);
        conn.exchange();
        match self {
            Route::Idle => {}
            Route::Open | Route::HalfClosedLocal => {
                let mut head = conn.request_headers("/");
                if self == Route::Open {
                    head[0].value = "POST".to_string();
                }
                conn.send_header_block(1, &head, false);
            }
            Route::HalfClosedRemote => conn.get(1, "/big/0", None),
            Route::ClosedAfterFetch => drop(conn.fetch(1, "/")),
            Route::ClosedAfterReset => {
                conn.get(1, "/big/0", None);
                conn.exchange();
                conn.send(rst_stream(StreamId::new(1)));
            }
            Route::ReservedLocal => conn.get(1, "/", None),
        }
        conn.exchange();
        let id = StreamId::new(if self == Route::ReservedLocal { 2 } else { 1 });
        let streams = conn.server().core().streams();
        assert_eq!(
            streams.state(id),
            self.reaches(),
            "{} by {self:?}",
            target.profile.name
        );
        // Only a live stream has an entry.
        assert_eq!(
            streams.get(id).is_some(),
            !matches!(self.reaches(), Idle | Closed)
        );
        Some((conn, id))
    }
}

fn rst_stream(stream_id: StreamId) -> Frame {
    Frame::RstStream(RstStreamFrame {
        stream_id,
        code: ErrorCode::Cancel,
    })
}

/// Why a profile's answer differs from [`RECV_LEGALITY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// A declared quirk: the profile announces `INITIAL_WINDOW_SIZE = 0`
    /// (`ServerBehavior::announced`), so one octet of DATA on a stream
    /// that may take it overruns the stream's receive window, and the
    /// server answers with its connection error.
    ZeroReceiveWindow,
}

/// The profiles that announce a receive window of 0.
const ZERO_WINDOW: &[&str] = &["nginx", "tengine", "tengine-aserver"];

const FLOW: RecvOutcome = RecvOutcome::ConnectionError(ErrorCode::FlowControlError);

/// Every cell where a profile's answer differs from [`RECV_LEGALITY`]:
/// `(route, frame, observed answer, cause, profiles)`. A cell not listed
/// here is answered as §5.1 says.
#[rustfmt::skip]
const DIVERGENCES: &[(Route, FrameKind, RecvOutcome, Cause, &[&str])] = &[
    (Route::Open, FrameKind::Data, FLOW, Cause::ZeroReceiveWindow, ZERO_WINDOW),
    (Route::HalfClosedLocal, FrameKind::Data, FLOW, Cause::ZeroReceiveWindow, ZERO_WINDOW),
];

/// §5.1's rows sent to every profile: each route drives a fresh
/// connection's stream into its state, one frame of the row names that
/// stream, and the server's answer (GOAWAY, RST_STREAM on the stream, or
/// neither) is compared with the row's outcome. A cell answered otherwise
/// must be listed in [`DIVERGENCES`] with its cause, and every listed
/// cell must still differ — so the test fails when a divergence appears
/// and when one disappears.
#[test]
fn every_profile_answers_each_state_as_recv_legality_or_a_named_divergence() {
    let site = Arc::new(SiteSpec::testbed());
    let mut observed = BTreeSet::new();
    for (name, make) in ServerProfile::all() {
        let target = Target::testbed(make(), Arc::clone(&site));
        for route in Route::ALL {
            for (state, frame, rfc) in RECV_LEGALITY {
                if state != route.reaches() {
                    continue;
                }
                let Some((mut conn, id)) = route.drive(&target) else {
                    continue;
                };
                match frame {
                    FrameKind::Headers => conn.get(id.value(), "/", None),
                    FrameKind::Data => conn.send(Frame::Data(DataFrame {
                        stream_id: id,
                        data: vec![b'x'].into(),
                        end_stream: false,
                        pad_len: None,
                    })),
                    FrameKind::Priority => conn.send(Frame::Priority(PriorityFrame {
                        stream_id: id,
                        spec: PrioritySpec::default_spec(),
                    })),
                    FrameKind::RstStream => conn.send(rst_stream(id)),
                    FrameKind::WindowUpdate => conn.send(Frame::WindowUpdate(WindowUpdateFrame {
                        stream_id: id,
                        increment: 1,
                    })),
                    // §8.2's refusal of a client's PUSH_PROMISE is not a
                    // stream-state rule.
                    _ => continue,
                }
                let answer = conn
                    .exchange()
                    .iter()
                    .find_map(|tf| match &tf.frame {
                        Frame::Goaway(g) => Some(RecvOutcome::ConnectionError(g.code)),
                        Frame::RstStream(r) if r.stream_id == id => {
                            Some(RecvOutcome::StreamError(r.code))
                        }
                        _ => None,
                    })
                    .unwrap_or(RecvOutcome::Legal);
                if answer != rfc {
                    observed.insert(cell(route, frame, answer, name));
                }
            }
        }
    }
    // A quirk label must name what the profile declares.
    for &(route, frame, _, cause, profiles) in DIVERGENCES {
        if cause == Cause::ZeroReceiveWindow {
            for name in profiles {
                let window = ServerProfile::by_name(name)
                    .and_then(|p| p.behavior.announced_value(SettingId::InitialWindowSize));
                assert_eq!(window, Some(0), "{route:?} {frame:?}: {name}");
            }
        }
    }
    let declared: BTreeSet<String> = DIVERGENCES
        .iter()
        .flat_map(|&(route, frame, answer, _, profiles)| {
            profiles
                .iter()
                .map(move |name| cell(route, frame, answer, name))
        })
        .collect();
    let appeared: Vec<_> = observed.difference(&declared).collect();
    let disappeared: Vec<_> = declared.difference(&observed).collect();
    assert!(
        appeared.is_empty() && disappeared.is_empty(),
        "divergences not in DIVERGENCES: {appeared:#?}\nlisted but answered as §5.1 says: {disappeared:#?}"
    );
}

/// One profile's divergent cell, as the test compares them.
fn cell(route: Route, frame: FrameKind, answer: RecvOutcome, profile: &str) -> String {
    format!("{route:?} {frame:?} -> {answer:?}: {profile}")
}
