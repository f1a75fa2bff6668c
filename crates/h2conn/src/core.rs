//! The sans-IO connection core.
//!
//! [`ConnectionCore`] performs all *mechanical* HTTP/2 bookkeeping —
//! settings application, HPACK contexts, stream lifecycle, flow-control
//! accounting, priority-tree maintenance, CONTINUATION assembly — while
//! deliberately leaving *policy* to the caller. Conditions that RFC 7540
//! says an endpoint "MUST treat as an error" (zero window updates, window
//! overflow, self-dependent streams, concurrency violations) are surfaced
//! as [`CoreEvent`]s rather than handled internally, because the entire
//! point of the paper is that real servers react to those conditions
//! differently: some send RST_STREAM, some GOAWAY, some silently ignore
//! them. The server engine in `h2server` maps events to reactions using
//! its per-server behavior profile; the RFC-strict profile is just one
//! particular mapping.

use bytes::Bytes;

use h2hpack::{
    Decoder as HpackDecoder, Encoder as HpackEncoder, EncoderOptions, Header, TableScratch,
};
use h2wire::settings::{
    DEFAULT_HEADER_TABLE_SIZE, DEFAULT_INITIAL_WINDOW_SIZE, DEFAULT_MAX_FRAME_SIZE,
};
use h2wire::{
    ContinuationFrame, DataFrame, DecodeFrameError, ErrorCode, Frame, FrameDecoder, FrameKind,
    HeadersFrame, PrioritySpec, PushPromiseFrame, SettingId, Settings, StreamId,
};

use crate::assembler::{AssemblyError, BlockKind, CompleteBlock, HeaderAssembler};
use crate::priority::PriorityTree;
use crate::stream::{Stream, StreamMap, StreamState};
use crate::window::FlowWindow;

/// Which end of the connection this core implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The request initiator.
    Client,
    /// The responder.
    Server,
}

/// The effective value of every SETTINGS parameter for one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectiveSettings {
    /// `SETTINGS_HEADER_TABLE_SIZE`.
    pub header_table_size: u32,
    /// `SETTINGS_ENABLE_PUSH`.
    pub enable_push: bool,
    /// `SETTINGS_MAX_CONCURRENT_STREAMS` (`None` = unlimited).
    pub max_concurrent_streams: Option<u32>,
    /// `SETTINGS_INITIAL_WINDOW_SIZE`.
    pub initial_window_size: u32,
    /// `SETTINGS_MAX_FRAME_SIZE`.
    pub max_frame_size: u32,
    /// `SETTINGS_MAX_HEADER_LIST_SIZE` (`None` = unlimited).
    pub max_header_list_size: Option<u32>,
}

impl Default for EffectiveSettings {
    fn default() -> EffectiveSettings {
        EffectiveSettings {
            header_table_size: DEFAULT_HEADER_TABLE_SIZE,
            enable_push: true,
            max_concurrent_streams: None,
            initial_window_size: DEFAULT_INITIAL_WINDOW_SIZE,
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            max_header_list_size: None,
        }
    }
}

impl EffectiveSettings {
    /// Applies a received parameter list in order.
    pub fn apply(&mut self, settings: &Settings) {
        for (id, value) in settings.iter() {
            match id {
                SettingId::HeaderTableSize => self.header_table_size = value,
                SettingId::EnablePush => self.enable_push = value == 1,
                SettingId::MaxConcurrentStreams => self.max_concurrent_streams = Some(value),
                SettingId::InitialWindowSize => self.initial_window_size = value,
                SettingId::MaxFrameSize => self.max_frame_size = value,
                SettingId::MaxHeaderListSize => self.max_header_list_size = Some(value),
                SettingId::Unknown(_) => {}
            }
        }
    }
}

/// Flow-control window scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowScope {
    /// The connection window (stream 0).
    Connection,
    /// One stream's window.
    Stream(StreamId),
}

/// Something the peer did that the policy layer must react to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreEvent {
    /// A (non-ack) SETTINGS frame was applied; an ack should be sent.
    RemoteSettings {
        /// The parameters as received.
        settings: Settings,
    },
    /// The peer acknowledged our SETTINGS.
    SettingsAcked,
    /// A complete request/response header block arrived.
    HeadersReceived {
        /// Stream carrying the block.
        stream: StreamId,
        /// Decoded header list.
        headers: Vec<Header>,
        /// END_STREAM was set.
        end_stream: bool,
        /// Priority fields on the initiating HEADERS frame.
        priority: Option<PrioritySpec>,
    },
    /// A HEADERS/PUSH_PROMISE/CONTINUATION fragment extended a header
    /// block that is still open (END_HEADERS not yet seen). RFC 7540
    /// §4.3 places no bound on a block's total size, which is exactly
    /// the CONTINUATION-flood vector: policy layers watch `accumulated`
    /// to decide when an unbounded block has become abusive.
    HeaderBlockProgress {
        /// Stream the open block belongs to.
        stream: StreamId,
        /// Total fragment octets buffered so far.
        accumulated: u32,
    },
    /// A complete PUSH_PROMISE block arrived.
    PushPromiseReceived {
        /// Associated (client-initiated) stream.
        stream: StreamId,
        /// Reserved stream for the pushed response.
        promised: StreamId,
        /// Decoded promised-request headers.
        headers: Vec<Header>,
    },
    /// DATA arrived and was charged against the receive windows.
    DataReceived {
        /// Stream carrying the data.
        stream: StreamId,
        /// Payload (padding stripped).
        data: Bytes,
        /// END_STREAM was set.
        end_stream: bool,
        /// Octets charged against flow control (includes padding).
        flow_controlled_len: u32,
    },
    /// The peer sent more flow-controlled octets than the window held.
    FlowViolation {
        /// The violated scope.
        scope: WindowScope,
    },
    /// A PING request arrived; policy should echo it with ACK.
    PingReceived {
        /// Opaque payload.
        payload: [u8; 8],
    },
    /// A PING acknowledgement arrived.
    PingAcked {
        /// Opaque payload.
        payload: [u8; 8],
    },
    /// The peer reset a stream.
    RstStreamReceived {
        /// The reset stream.
        stream: StreamId,
        /// Error code carried.
        code: ErrorCode,
    },
    /// The peer is shutting the connection down.
    GoawayReceived {
        /// Highest stream the peer may have processed.
        last_stream: StreamId,
        /// Error code carried.
        code: ErrorCode,
        /// Opaque debug data.
        debug: Bytes,
    },
    /// A WINDOW_UPDATE was applied successfully.
    WindowUpdated {
        /// Which window grew.
        scope: WindowScope,
        /// The increment.
        increment: u32,
    },
    /// A WINDOW_UPDATE with a zero increment arrived (RFC 7540 §6.9 calls
    /// for a stream/connection error; real servers differ — the paper's
    /// §III-B3 probe).
    ZeroWindowUpdate {
        /// Which window it named.
        scope: WindowScope,
    },
    /// A WINDOW_UPDATE pushed a send window past 2^31-1 (§6.9.1; the
    /// paper's §III-B4 probe).
    WindowOverflow {
        /// Which window overflowed.
        scope: WindowScope,
    },
    /// A PRIORITY frame (or HEADERS priority fields) changed the tree.
    PriorityChanged {
        /// The re-prioritized stream.
        stream: StreamId,
    },
    /// A stream was declared dependent on itself (§5.3.1; the paper's
    /// §III-C2 probe).
    SelfDependency {
        /// The offending stream.
        stream: StreamId,
    },
    /// A new remote stream, opened by its HEADERS, would exceed our
    /// announced `SETTINGS_MAX_CONCURRENT_STREAMS`; no `HeadersReceived`.
    ConcurrencyExceeded {
        /// The over-limit stream.
        stream: StreamId,
    },
    /// DATA or HEADERS on a half-closed (remote) or closed stream: a
    /// stream error of type STREAM_CLOSED (RFC 7540 §5.1).
    StreamClosed {
        /// The stream the frame named.
        stream: StreamId,
        /// Octets DATA charged to the connection window (0 for HEADERS).
        flow_controlled_len: u32,
    },
    /// An extension frame was ignored (RFC 7540 §4.1).
    UnknownFrameIgnored {
        /// Wire type byte.
        kind: u8,
    },
}

/// A fatal connection-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// Malformed frame.
    Decode(DecodeFrameError),
    /// Header compression state lost.
    Compression(h2hpack::HpackDecodeError),
    /// CONTINUATION discipline violated.
    Assembly(AssemblyError),
    /// A connection error of type PROTOCOL_ERROR (RFC 7540 §5.1): DATA,
    /// RST_STREAM or WINDOW_UPDATE on an idle stream, DATA or HEADERS on
    /// a reserved one.
    StreamState {
        /// The offending frame's type.
        kind: FrameKind,
        /// The stream it named.
        stream: StreamId,
        /// That stream's state.
        state: StreamState,
    },
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Decode(e) => write!(f, "frame decode error: {e}"),
            ConnError::Compression(e) => write!(f, "header compression error: {e}"),
            ConnError::Assembly(e) => write!(f, "header block assembly error: {e}"),
            ConnError::StreamState {
                kind,
                stream,
                state,
            } => write!(f, "{kind:?} on {state:?} stream {}", stream.value()),
        }
    }
}

impl std::error::Error for ConnError {}

impl From<DecodeFrameError> for ConnError {
    fn from(e: DecodeFrameError) -> ConnError {
        ConnError::Decode(e)
    }
}

impl From<h2hpack::HpackDecodeError> for ConnError {
    fn from(e: h2hpack::HpackDecodeError) -> ConnError {
        ConnError::Compression(e)
    }
}

impl From<AssemblyError> for ConnError {
    fn from(e: AssemblyError) -> ConnError {
        ConnError::Assembly(e)
    }
}

impl ConnError {
    /// The error code a conforming endpoint would put in GOAWAY.
    pub fn h2_error_code(&self) -> ErrorCode {
        match self {
            ConnError::Decode(e) => e.h2_error_code(),
            ConnError::Compression(_) => ErrorCode::CompressionError,
            ConnError::Assembly(_) | ConnError::StreamState { .. } => ErrorCode::ProtocolError,
        }
    }
}

/// The sans-IO HTTP/2 connection state machine.
#[derive(Debug)]
pub struct ConnectionCore {
    role: Role,
    local: EffectiveSettings,
    remote: EffectiveSettings,
    /// HPACK contexts: `encoder` compresses what we send, `decoder`
    /// decompresses what we receive.
    encoder: HpackEncoder,
    decoder: HpackDecoder,
    frame_decoder: FrameDecoder,
    streams: StreamMap,
    priority: PriorityTree,
    conn_send: FlowWindow,
    conn_recv: FlowWindow,
    assembler: HeaderAssembler,
    next_push_id: u32,
    goaway_received: bool,
    /// Observability handle (off by default; a no-op unless enabled).
    obs: h2obs::Obs,
    /// HPACK evictions already reported to `obs`, so deltas are exact.
    evictions_reported: u64,
    /// Spent header lists handed back through
    /// [`ConnectionCore::recycle_headers`]; the next completed block is
    /// decoded into one in place (at most [`HEADER_POOL`] are kept).
    header_pool: Vec<Vec<Header>>,
}

/// Most spent header lists a [`ConnectionCore`] keeps for reuse.
const HEADER_POOL: usize = 4;

/// The storage a [`ConnectionCore`] leaves behind for the next one: both
/// HPACK tables, the frame buffer, the stream table and the spent header
/// lists, all emptied. Only [`Default`] and
/// [`ConnectionCore::take_scratch`] make one.
#[derive(Debug, Default)]
pub struct CoreScratch {
    encoder: TableScratch,
    decoder: TableScratch,
    frames: Vec<u8>,
    streams: Vec<Stream>,
    header_pool: Vec<Vec<Header>>,
}

impl ConnectionCore {
    /// Creates a core for `role` announcing `local` settings, with the
    /// given HPACK encoder options (the `h2server` engine uses the options
    /// to model per-server indexing policies).
    pub fn new(role: Role, local: EffectiveSettings, encoder: EncoderOptions) -> ConnectionCore {
        ConnectionCore::new_in(role, local, encoder, CoreScratch::default())
    }

    /// [`ConnectionCore::new`] in the storage another core left behind.
    pub fn new_in(
        role: Role,
        local: EffectiveSettings,
        encoder: EncoderOptions,
        scratch: CoreScratch,
    ) -> ConnectionCore {
        let mut frame_decoder = FrameDecoder::new_in(scratch.frames);
        frame_decoder.set_max_frame_size(local.max_frame_size);
        ConnectionCore {
            role,
            local,
            remote: EffectiveSettings::default(),
            encoder: HpackEncoder::new_in(encoder, scratch.encoder),
            decoder: HpackDecoder::new_in(local.header_table_size, scratch.decoder),
            frame_decoder,
            streams: StreamMap::new_in(scratch.streams),
            priority: PriorityTree::new(),
            conn_send: FlowWindow::new(DEFAULT_INITIAL_WINDOW_SIZE),
            conn_recv: FlowWindow::new(DEFAULT_INITIAL_WINDOW_SIZE),
            assembler: HeaderAssembler::new(),
            next_push_id: 2,
            goaway_received: false,
            obs: h2obs::Obs::off(),
            evictions_reported: 0,
            header_pool: scratch.header_pool,
        }
    }

    /// Hands back the connection's storage, emptied, for
    /// [`ConnectionCore::new_in`]: the tables lose their entries, the
    /// frame buffer its bytes, the stream table its streams, and every
    /// spent header list its text (each string keeps its capacity).
    pub fn take_scratch(&mut self) -> CoreScratch {
        let mut header_pool = std::mem::take(&mut self.header_pool);
        header_pool.iter_mut().flatten().for_each(Header::clear);
        CoreScratch {
            encoder: self.encoder.take_scratch(),
            decoder: self.decoder.take_scratch(),
            frames: self.frame_decoder.take_scratch(),
            streams: self.streams.take_scratch(),
            header_pool,
        }
    }

    /// Hands back a header list from a [`CoreEvent::HeadersReceived`] or
    /// [`CoreEvent::PushPromiseReceived`] the caller is done with, so a
    /// later block is decoded into it instead of a fresh allocation.
    pub fn recycle_headers(&mut self, headers: Vec<Header>) {
        if self.header_pool.len() < HEADER_POOL {
            self.header_pool.push(headers);
        }
    }

    /// Attaches an observability handle; `Obs::off()` (the default)
    /// records nothing.
    pub fn set_obs(&mut self, obs: h2obs::Obs) {
        self.obs = obs;
    }

    /// Reports the HPACK eviction delta accrued since the last call to
    /// the observability handle (both directions: our encoder table and
    /// our decoder table).
    fn report_hpack_evictions(&mut self) {
        let total = self.encoder.table().evictions() + self.decoder.table().evictions();
        self.obs.hpack_evictions(total - self.evictions_reported);
        self.evictions_reported = total;
    }

    /// The peer's most recent settings.
    pub fn remote_settings(&self) -> &EffectiveSettings {
        &self.remote
    }

    /// The stream table.
    pub fn streams(&self) -> &StreamMap {
        &self.streams
    }

    /// The priority tree.
    pub fn priority(&self) -> &PriorityTree {
        &self.priority
    }

    /// The priority tree, mutably (the server engine schedules from it).
    pub fn priority_mut(&mut self) -> &mut PriorityTree {
        &mut self.priority
    }

    /// Octets we may still send at connection scope.
    pub fn connection_send_window(&self) -> i64 {
        self.conn_send.available()
    }

    /// `true` after GOAWAY arrived.
    pub fn goaway_received(&self) -> bool {
        self.goaway_received
    }

    /// Octets buffered in the currently open header block (0 when no
    /// block is open). This is the memory a CONTINUATION flood pins.
    pub fn header_block_accumulated(&self) -> usize {
        self.assembler.accumulated()
    }

    /// Feeds raw transport bytes, yielding events for every complete
    /// frame.
    ///
    /// # Errors
    ///
    /// The first [`ConnError`] encountered; callers should tear down the
    /// connection with the code from [`ConnError::h2_error_code`].
    pub fn recv_bytes(&mut self, bytes: &[u8]) -> Result<Vec<CoreEvent>, ConnError> {
        self.frame_decoder.feed(bytes);
        let mut events = Vec::new();
        loop {
            match self.frame_decoder.next_frame() {
                Ok(Some(frame)) => self.handle_frame_into(frame, &mut events)?,
                Ok(None) => break,
                Err(e) => return Err(ConnError::Decode(e)),
            }
        }
        self.report_hpack_evictions();
        Ok(events)
    }

    /// Applies one received frame.
    ///
    /// # Errors
    ///
    /// See [`ConnectionCore::recv_bytes`].
    pub fn handle_frame(&mut self, frame: Frame) -> Result<Vec<CoreEvent>, ConnError> {
        let mut events = Vec::new();
        self.handle_frame_into(frame, &mut events)?;
        Ok(events)
    }

    /// Applies one received frame, appending its events to `events`.
    fn handle_frame_into(
        &mut self,
        frame: Frame,
        events: &mut Vec<CoreEvent>,
    ) -> Result<(), ConnError> {
        self.obs.server_frame(frame.kind().to_u8());
        // CONTINUATION discipline: while a header block is open, only
        // CONTINUATION for the same stream is legal.
        if !matches!(frame, Frame::Continuation(_)) {
            self.assembler.check_interleave()?;
        }
        match frame {
            Frame::Settings(f) => {
                if f.ack {
                    events.push(CoreEvent::SettingsAcked);
                } else {
                    self.apply_remote_settings(&f.settings, events);
                    events.push(CoreEvent::RemoteSettings {
                        settings: f.settings,
                    });
                }
            }
            Frame::WindowUpdate(f) => {
                if f.increment == 0 {
                    let scope = if f.stream_id.is_connection() {
                        WindowScope::Connection
                    } else {
                        WindowScope::Stream(f.stream_id)
                    };
                    events.push(CoreEvent::ZeroWindowUpdate { scope });
                } else if f.stream_id.is_connection() {
                    match self.conn_send.expand(f.increment) {
                        Ok(()) => events.push(CoreEvent::WindowUpdated {
                            scope: WindowScope::Connection,
                            increment: f.increment,
                        }),
                        Err(_) => events.push(CoreEvent::WindowOverflow {
                            scope: WindowScope::Connection,
                        }),
                    }
                } else if let Some(stream) = self.streams.get_mut(f.stream_id) {
                    match stream.send_window.expand(f.increment) {
                        Ok(()) => events.push(CoreEvent::WindowUpdated {
                            scope: WindowScope::Stream(f.stream_id),
                            increment: f.increment,
                        }),
                        Err(_) => events.push(CoreEvent::WindowOverflow {
                            scope: WindowScope::Stream(f.stream_id),
                        }),
                    }
                } else {
                    self.refuse(FrameKind::WindowUpdate, f.stream_id, 0, events)?;
                }
            }
            Frame::Ping(f) => {
                if f.ack {
                    events.push(CoreEvent::PingAcked { payload: f.payload });
                } else {
                    events.push(CoreEvent::PingReceived { payload: f.payload });
                }
            }
            Frame::Headers(f) => {
                let block = self.assembler.start(
                    f.stream_id,
                    BlockKind::Headers,
                    &f.fragment,
                    f.end_stream,
                    f.end_headers,
                    f.priority,
                )?;
                self.block_step(f.stream_id, block, events)?;
            }
            Frame::PushPromise(f) => {
                let block = self.assembler.start(
                    f.stream_id,
                    BlockKind::PushPromise {
                        promised: f.promised_stream_id,
                    },
                    &f.fragment,
                    false,
                    f.end_headers,
                    None,
                )?;
                self.block_step(f.stream_id, block, events)?;
            }
            Frame::Continuation(f) => {
                let block = self.assembler.continuation(&f)?;
                self.block_step(f.stream_id, block, events)?;
            }
            Frame::Data(f) => {
                // §6.9 charges every DATA frame to the connection window,
                // whatever its stream's state; §6.1 then refuses DATA on a
                // stream that is not open or half-closed (local), and only
                // a stream that takes the frame has its own window charged.
                let fcl = f.flow_controlled_len();
                if self.conn_recv.consume(fcl).is_err() {
                    events.push(CoreEvent::FlowViolation {
                        scope: WindowScope::Connection,
                    });
                    return Ok(());
                }
                let Some(stream) = self.streams.get_mut(f.stream_id).filter(|s| {
                    matches!(s.state, StreamState::Open | StreamState::HalfClosedLocal)
                }) else {
                    return self.refuse(FrameKind::Data, f.stream_id, fcl, events);
                };
                if stream.recv_window.consume(fcl).is_err() {
                    events.push(CoreEvent::FlowViolation {
                        scope: WindowScope::Stream(f.stream_id),
                    });
                    return Ok(());
                }
                if f.end_stream {
                    stream.recv_end_stream();
                }
                events.push(CoreEvent::DataReceived {
                    stream: f.stream_id,
                    data: f.data,
                    end_stream: f.end_stream,
                    flow_controlled_len: fcl,
                });
                self.forget_if_closed(f.stream_id);
            }
            Frame::Priority(f) => match self.priority.declare(f.stream_id, f.spec) {
                Ok(()) => events.push(CoreEvent::PriorityChanged {
                    stream: f.stream_id,
                }),
                Err(_) => events.push(CoreEvent::SelfDependency {
                    stream: f.stream_id,
                }),
            },
            Frame::RstStream(f) => {
                // Reported even on a closed stream: the peer may not know.
                match self.streams.get_mut(f.stream_id) {
                    Some(stream) => stream.reset(),
                    None => self.refuse(FrameKind::RstStream, f.stream_id, 0, events)?,
                }
                events.push(CoreEvent::RstStreamReceived {
                    stream: f.stream_id,
                    code: f.code,
                });
                self.forget_if_closed(f.stream_id);
            }
            Frame::Goaway(f) => {
                self.goaway_received = true;
                events.push(CoreEvent::GoawayReceived {
                    last_stream: f.last_stream_id,
                    code: f.code,
                    debug: f.debug_data,
                });
            }
            Frame::Unknown(f) => events.push(CoreEvent::UnknownFrameIgnored { kind: f.kind }),
        }
        Ok(())
    }

    fn apply_remote_settings(&mut self, settings: &Settings, events: &mut Vec<CoreEvent>) {
        let old_window = self.remote.initial_window_size;
        self.remote.apply(settings);
        // §6.9.2: an INITIAL_WINDOW_SIZE change retroactively adjusts every
        // stream send window by the delta (the connection window is NOT
        // affected — the paper's Algorithm 1 relies on this asymmetry).
        if let Some(new_window) = settings.get(SettingId::InitialWindowSize) {
            let delta = i64::from(new_window) - i64::from(old_window);
            let overflowed: Vec<StreamId> = self
                .streams
                .iter_mut()
                .filter_map(|s| {
                    if s.send_window.adjust(delta).is_err() {
                        Some(s.id)
                    } else {
                        None
                    }
                })
                .collect();
            for id in overflowed {
                events.push(CoreEvent::WindowOverflow {
                    scope: WindowScope::Stream(id),
                });
            }
        }
        // The peer's header-table limit bounds our encoder's dynamic
        // table. RFC 7541 lets an encoder use *up to* that limit; ours
        // never grows past the 4,096-octet default, so a peer announcing
        // a huge table cannot make it hold more (the memory-pressure
        // vector of the paper's discussion, §VI).
        if let Some(size) = settings.get(SettingId::HeaderTableSize) {
            let target = size.min(DEFAULT_HEADER_TABLE_SIZE);
            if target != self.encoder.table().max_size() {
                self.encoder.resize_table(target);
            }
        }
    }

    /// Applies `change` to the live stream `id`, opened with the current
    /// initial windows (peer's for sending, ours for receiving) when idle,
    /// then drops it if closed. A closed stream is left closed.
    fn transition(&mut self, id: StreamId, change: impl FnOnce(&mut Stream)) {
        let send = self.remote.initial_window_size;
        let recv = self.local.initial_window_size;
        if let Some(stream) = self.streams.open(id, send, recv) {
            change(stream);
        }
        self.forget_if_closed(id);
    }

    /// Answers a frame of `kind` that `stream`'s state keeps from being
    /// taken (§5.1): nothing for WINDOW_UPDATE or RST_STREAM on a closed
    /// stream, a stream error for DATA or HEADERS on a half-closed
    /// (remote) or closed one, a connection error on an idle or reserved
    /// one.
    fn refuse(
        &self,
        kind: FrameKind,
        stream: StreamId,
        flow_controlled_len: u32,
        events: &mut Vec<CoreEvent>,
    ) -> Result<(), ConnError> {
        match (self.streams.state(stream), kind) {
            (StreamState::Closed, FrameKind::WindowUpdate | FrameKind::RstStream) => Ok(()),
            (StreamState::HalfClosedRemote | StreamState::Closed, _) => {
                events.push(CoreEvent::StreamClosed {
                    stream,
                    flow_controlled_len,
                });
                Ok(())
            }
            (state, _) => Err(ConnError::StreamState {
                kind,
                stream,
                state,
            }),
        }
    }

    /// The tail of every header-block frame: a completed block is
    /// decoded and applied, an open one reports how much it has buffered.
    fn block_step(
        &mut self,
        stream: StreamId,
        block: Option<CompleteBlock>,
        events: &mut Vec<CoreEvent>,
    ) -> Result<(), ConnError> {
        let Some(block) = block else {
            events.push(CoreEvent::HeaderBlockProgress {
                stream,
                accumulated: self.assembler.accumulated() as u32,
            });
            return Ok(());
        };
        let mut headers = self.header_pool.pop().unwrap_or_default();
        self.decoder
            .decode_block_into(&block.fragment, &mut headers)?;
        match block.kind {
            BlockKind::Headers => {
                let state = self.streams.state(block.stream);
                if state != StreamState::Idle && !state.can_recv() {
                    return self.refuse(FrameKind::Headers, block.stream, 0, events);
                }
                let refused = state == StreamState::Idle
                    && self.role == Role::Server
                    && self
                        .local
                        .max_concurrent_streams
                        .is_some_and(|max| self.streams.active(Role::Client) as u32 >= max);
                if refused {
                    events.push(CoreEvent::ConcurrencyExceeded {
                        stream: block.stream,
                    });
                }
                if let Some(spec) = block.priority {
                    match self.priority.declare(block.stream, spec) {
                        Ok(()) => {}
                        Err(_) => events.push(CoreEvent::SelfDependency {
                            stream: block.stream,
                        }),
                    }
                } else if !self.priority.contains(block.stream) {
                    let _ = self
                        .priority
                        .declare(block.stream, PrioritySpec::default_spec());
                }
                self.transition(block.stream, |s| s.recv_headers(block.end_stream));
                if !refused {
                    events.push(CoreEvent::HeadersReceived {
                        stream: block.stream,
                        headers,
                        end_stream: block.end_stream,
                        priority: block.priority,
                    });
                }
            }
            BlockKind::PushPromise { promised } => {
                self.transition(promised, |s| s.state = StreamState::ReservedRemote);
                events.push(CoreEvent::PushPromiseReceived {
                    stream: block.stream,
                    promised,
                    headers,
                });
            }
        }
        Ok(())
    }

    // ----- send-side helpers -------------------------------------------

    /// Encodes a header list into HEADERS (+ CONTINUATION) frames sized to
    /// the peer's `SETTINGS_MAX_FRAME_SIZE`, applying the local stream
    /// state transition.
    pub fn encode_headers(
        &mut self,
        stream_id: StreamId,
        headers: &[Header],
        end_stream: bool,
        priority: Option<PrioritySpec>,
    ) -> Vec<Frame> {
        let block = self.encoder.encode_block(headers);
        self.report_hpack_evictions();
        let max = self.remote.max_frame_size as usize;
        self.transition(stream_id, |s| s.send_headers(end_stream));
        let mut frames = Vec::new();
        if block.len() <= max {
            frames.push(Frame::Headers(HeadersFrame {
                stream_id,
                fragment: Bytes::from(block),
                end_stream,
                end_headers: true,
                priority,
                pad_len: None,
            }));
            return frames;
        }
        let mut chunks = block.chunks(max);
        #[expect(clippy::expect_used, reason = "the short-block case returned above")]
        let first = chunks.next().expect("block longer than max");
        frames.push(Frame::Headers(HeadersFrame {
            stream_id,
            fragment: Bytes::copy_from_slice(first),
            end_stream,
            end_headers: false,
            priority,
            pad_len: None,
        }));
        let rest: Vec<&[u8]> = chunks.collect();
        for (i, chunk) in rest.iter().enumerate() {
            frames.push(Frame::Continuation(ContinuationFrame {
                stream_id,
                fragment: Bytes::copy_from_slice(chunk),
                end_headers: i == rest.len() - 1,
            }));
        }
        frames
    }

    /// Reserves the next even stream id and encodes a PUSH_PROMISE frame
    /// for it.
    pub fn encode_push_promise(
        &mut self,
        assoc_stream: StreamId,
        request_headers: &[Header],
    ) -> (StreamId, Frame) {
        let promised = StreamId::new(self.next_push_id);
        self.next_push_id += 2;
        let block = self.encoder.encode_block(request_headers);
        self.transition(promised, |s| s.state = StreamState::ReservedLocal);
        (
            promised,
            Frame::PushPromise(PushPromiseFrame {
                stream_id: assoc_stream,
                promised_stream_id: promised,
                fragment: Bytes::from(block),
                end_headers: true,
                pad_len: None,
            }),
        )
    }

    /// Octets that may be sent as DATA on `stream` right now: the minimum
    /// of the connection window, the stream window, and the peer's max
    /// frame size.
    pub fn sendable_on(&self, stream_id: StreamId) -> u32 {
        let Some(stream) = self.streams.get(stream_id) else {
            return 0;
        };
        if !stream.state.can_send() {
            return 0;
        }
        let cap = self.remote.max_frame_size;
        let by_stream = stream.send_window.sendable(cap);
        self.conn_send.sendable(by_stream)
    }

    /// Builds a DATA frame and charges both send windows.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`ConnectionCore::sendable_on`]; callers
    /// must size chunks first (the scheduler does).
    #[expect(clippy::expect_used, reason = "documented caller contract (# Panics)")]
    pub fn send_data(&mut self, stream_id: StreamId, data: Bytes, end_stream: bool) -> Frame {
        let len = data.len() as u32;
        self.conn_send
            .consume(len)
            .expect("caller respected connection window");
        let stream = self.streams.get_mut(stream_id).expect("stream exists");
        stream
            .send_window
            .consume(len)
            .expect("caller respected stream window");
        if end_stream {
            stream.send_end_stream();
            self.forget_if_closed(stream_id);
        }
        Frame::Data(DataFrame {
            stream_id,
            data,
            end_stream,
            pad_len: None,
        })
    }

    /// Charges the receive windows back up and emits WINDOW_UPDATE frames,
    /// the standard receiver behavior after consuming data.
    pub fn replenish_recv_windows(&mut self, stream_id: StreamId, octets: u32) -> Vec<Frame> {
        let mut frames = Vec::new();
        if octets == 0 {
            return frames;
        }
        if self.conn_recv.expand(octets).is_ok() {
            frames.push(Frame::WindowUpdate(h2wire::WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment: octets,
            }));
        }
        if let Some(stream) = self.streams.get_mut(stream_id) {
            if stream.recv_window.expand(octets).is_ok() {
                frames.push(Frame::WindowUpdate(h2wire::WindowUpdateFrame {
                    stream_id,
                    increment: octets,
                }));
            }
        }
        frames
    }

    /// Marks a stream reset locally (caller emits the RST_STREAM frame).
    pub fn reset_stream(&mut self, stream_id: StreamId) {
        if let Some(stream) = self.streams.get_mut(stream_id) {
            stream.reset();
        }
        self.forget_if_closed(stream_id);
    }

    /// Drops a closed stream from the stream table, and its priority node
    /// when that changes no schedule (see
    /// [`PriorityTree::forget_if_default`]), so neither grows with every
    /// request a long connection carries.
    fn forget_if_closed(&mut self, id: StreamId) {
        if self.streams.remove_if_closed(id) {
            self.priority.forget_if_default(id);
        }
    }

    /// Direct access to the HPACK encoder (the HPACK probe inspects it).
    pub fn hpack_encoder(&self) -> &HpackEncoder {
        &self.encoder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2wire::{PingFrame, RstStreamFrame, SettingsFrame, WindowUpdateFrame};

    fn sid(v: u32) -> StreamId {
        StreamId::new(v)
    }

    fn server() -> ConnectionCore {
        server_with(EffectiveSettings::default())
    }

    fn server_with(local: EffectiveSettings) -> ConnectionCore {
        ConnectionCore::new(Role::Server, local, EncoderOptions::default())
    }

    fn client_headers() -> Vec<Header> {
        vec![
            Header::new(":method", "GET"),
            Header::new(":scheme", "https"),
            Header::new(":path", "/"),
            Header::new(":authority", "example.com"),
        ]
    }

    fn feed(core: &mut ConnectionCore, frame: Frame) -> Vec<CoreEvent> {
        core.recv_bytes(&frame.to_bytes())
            .expect("no connection error")
    }

    #[test]
    fn settings_round_trip_updates_remote_view() {
        let mut core = server();
        let settings = Settings::new()
            .with(SettingId::InitialWindowSize, 1)
            .with(SettingId::MaxConcurrentStreams, 7);
        let events = feed(&mut core, Frame::Settings(SettingsFrame::from(settings)));
        assert!(matches!(events[0], CoreEvent::RemoteSettings { .. }));
        assert_eq!(core.remote_settings().initial_window_size, 1);
        assert_eq!(core.remote_settings().max_concurrent_streams, Some(7));
    }

    #[test]
    fn initial_window_change_adjusts_existing_stream_send_windows() {
        let mut core = server();
        // Open a stream first.
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), true, None) {
            feed(&mut core, frame);
        }
        assert_eq!(
            core.streams().get(sid(1)).unwrap().send_window.available(),
            65_535
        );
        let settings = Settings::new().with(SettingId::InitialWindowSize, 10);
        feed(&mut core, Frame::Settings(SettingsFrame::from(settings)));
        assert_eq!(
            core.streams().get(sid(1)).unwrap().send_window.available(),
            10
        );
        // The connection window is untouched (Algorithm 1 exploits this).
        assert_eq!(core.connection_send_window(), 65_535);
    }

    #[test]
    fn zero_window_update_is_reported_not_applied() {
        let mut core = server();
        let events = feed(
            &mut core,
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: sid(0),
                increment: 0,
            }),
        );
        assert_eq!(
            events,
            vec![CoreEvent::ZeroWindowUpdate {
                scope: WindowScope::Connection
            }]
        );
        assert_eq!(core.connection_send_window(), 65_535);
    }

    #[test]
    fn window_overflow_is_reported() {
        let mut core = server();
        let events = feed(
            &mut core,
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: sid(0),
                increment: 0x7fff_ffff,
            }),
        );
        assert_eq!(
            events,
            vec![CoreEvent::WindowOverflow {
                scope: WindowScope::Connection
            }]
        );
    }

    #[test]
    fn ping_request_and_ack_events() {
        let mut core = server();
        let events = feed(&mut core, Frame::Ping(PingFrame::request(*b"h2scope!")));
        assert_eq!(
            events,
            vec![CoreEvent::PingReceived {
                payload: *b"h2scope!"
            }]
        );
        let events = feed(
            &mut core,
            Frame::Ping(PingFrame {
                ack: true,
                payload: [0; 8],
            }),
        );
        assert_eq!(events, vec![CoreEvent::PingAcked { payload: [0; 8] }]);
    }

    #[test]
    fn headers_decode_and_open_stream() {
        let mut core = server();
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        let frames = client.encode_headers(sid(1), &client_headers(), true, None);
        let mut all = Vec::new();
        for frame in frames {
            all.extend(feed(&mut core, frame));
        }
        match &all[0] {
            CoreEvent::HeadersReceived {
                stream,
                headers,
                end_stream,
                ..
            } => {
                assert_eq!(*stream, sid(1));
                assert!(end_stream);
                assert_eq!(headers[0], Header::new(":method", "GET"));
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(
            core.streams().get(sid(1)).unwrap().state,
            StreamState::HalfClosedRemote
        );
    }

    #[test]
    fn oversized_header_block_splits_into_continuations() {
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        // Shrink what the peer accepts to force splitting.
        let settings = Settings::new().with(SettingId::MaxFrameSize, 16_384);
        client.remote.apply(&settings);
        client.remote.max_frame_size = 30; // direct for test purposes
        let mut headers = client_headers();
        headers.push(Header::new("x-long", "v".repeat(200)));
        let frames = client.encode_headers(sid(1), &headers, true, None);
        assert!(frames.len() > 1);
        assert!(matches!(frames[0], Frame::Headers(ref h) if !h.end_headers));
        assert!(matches!(frames.last().unwrap(), Frame::Continuation(c) if c.end_headers));

        // And the server reassembles them, reporting progress while the
        // block is open.
        let mut core = server();
        let mut events = Vec::new();
        for frame in frames {
            events.extend(feed(&mut core, frame));
        }
        assert!(matches!(
            events[0],
            CoreEvent::HeaderBlockProgress { accumulated, .. } if accumulated > 0
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, CoreEvent::HeadersReceived { .. })));
    }

    #[test]
    fn interleaved_frame_during_block_is_fatal() {
        let mut core = server();
        let frame = Frame::Headers(HeadersFrame {
            stream_id: sid(1),
            fragment: Bytes::from_static(&[0x82]),
            end_stream: false,
            end_headers: false, // block left open
            priority: None,
            pad_len: None,
        });
        feed(&mut core, frame);
        let err = core
            .recv_bytes(&Frame::Ping(PingFrame::request([0; 8])).to_bytes())
            .unwrap_err();
        assert!(matches!(
            err,
            ConnError::Assembly(AssemblyError::InterleavedFrame)
        ));
    }

    #[test]
    fn frames_on_idle_streams_are_protocol_errors() {
        let mut core = server();
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(3), &client_headers(), true, None) {
            feed(&mut core, frame);
        }
        // Stream 1 was skipped: implicitly closed (§5.1.1), not idle.
        feed(
            &mut core,
            Frame::RstStream(RstStreamFrame {
                stream_id: sid(1),
                code: ErrorCode::Cancel,
            }),
        );
        let err = core
            .recv_bytes(
                &Frame::WindowUpdate(WindowUpdateFrame {
                    stream_id: sid(5),
                    increment: 1,
                })
                .to_bytes(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ConnError::StreamState {
                kind: FrameKind::WindowUpdate,
                stream: sid(5),
                state: StreamState::Idle
            }
        );
        assert_eq!(err.h2_error_code(), ErrorCode::ProtocolError);
    }

    #[test]
    fn data_charges_both_recv_windows() {
        let mut core = server();
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), false, None) {
            feed(&mut core, frame);
        }
        let data = Frame::Data(DataFrame {
            stream_id: sid(1),
            data: Bytes::from(vec![0u8; 1_000]),
            end_stream: true,
            pad_len: None,
        });
        let events = feed(&mut core, data);
        assert!(matches!(
            events[0],
            CoreEvent::DataReceived {
                flow_controlled_len: 1_000,
                ..
            }
        ));
        assert_eq!(core.conn_recv.available(), 65_535 - 1_000);
        assert_eq!(
            core.streams().get(sid(1)).unwrap().recv_window.available(),
            65_535 - 1_000
        );
    }

    #[test]
    fn flow_violation_is_reported() {
        let mut core = server_with(EffectiveSettings {
            initial_window_size: 10,
            ..Default::default()
        });
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), false, None) {
            feed(&mut core, frame);
        }
        let data = Frame::Data(DataFrame {
            stream_id: sid(1),
            data: Bytes::from(vec![0u8; 11]),
            end_stream: false,
            pad_len: None,
        });
        let events = feed(&mut core, data);
        assert_eq!(
            events,
            vec![CoreEvent::FlowViolation {
                scope: WindowScope::Stream(sid(1))
            }]
        );
    }

    #[test]
    fn concurrency_limit_is_reported_for_new_streams() {
        let mut core = server_with(EffectiveSettings {
            max_concurrent_streams: Some(1),
            ..Default::default()
        });
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), false, None) {
            feed(&mut core, frame);
        }
        let mut events = Vec::new();
        for frame in client.encode_headers(sid(3), &client_headers(), false, None) {
            events.extend(feed(&mut core, frame));
        }
        assert!(events.contains(&CoreEvent::ConcurrencyExceeded { stream: sid(3) }));
    }

    #[test]
    fn send_data_respects_windows() {
        let mut core = server();
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), true, None) {
            feed(&mut core, frame);
        }
        core.encode_headers(sid(1), &[Header::new(":status", "200")], false, None);
        // Peer announced a 1-octet initial window (the paper's §III-B1
        // small-window probe).
        let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
        feed(&mut core, Frame::Settings(SettingsFrame::from(settings)));
        assert_eq!(core.sendable_on(sid(1)), 1);
        let frame = core.send_data(sid(1), Bytes::from_static(b"x"), false);
        assert!(matches!(frame, Frame::Data(ref d) if d.data.len() == 1));
        assert_eq!(core.sendable_on(sid(1)), 0);
    }

    #[test]
    fn push_promise_reserves_even_stream() {
        let mut core = server();
        let (promised, frame) =
            core.encode_push_promise(sid(1), &[Header::new(":path", "/style.css")]);
        assert_eq!(promised, sid(2));
        assert!(matches!(frame, Frame::PushPromise(_)));
        assert_eq!(
            core.streams().get(sid(2)).unwrap().state,
            StreamState::ReservedLocal
        );
        let (next, _) = core.encode_push_promise(sid(1), &[Header::new(":path", "/app.js")]);
        assert_eq!(next, sid(4));
    }

    #[test]
    fn client_receives_push_promise() {
        let mut server_core = server();
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        let (_, frame) =
            server_core.encode_push_promise(sid(1), &[Header::new(":path", "/style.css")]);
        let events = feed(&mut client, frame);
        match &events[0] {
            CoreEvent::PushPromiseReceived {
                stream,
                promised,
                headers,
            } => {
                assert_eq!(*stream, sid(1));
                assert_eq!(*promised, sid(2));
                assert_eq!(headers[0], Header::new(":path", "/style.css"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            client.streams().get(sid(2)).unwrap().state,
            StreamState::ReservedRemote
        );
    }

    #[test]
    fn self_dependent_priority_frame_is_reported() {
        let mut core = server();
        let events = feed(
            &mut core,
            Frame::Priority(h2wire::PriorityFrame {
                stream_id: sid(5),
                spec: PrioritySpec {
                    exclusive: false,
                    dependency: sid(5),
                    weight: 16,
                },
            }),
        );
        assert_eq!(events, vec![CoreEvent::SelfDependency { stream: sid(5) }]);
    }

    #[test]
    fn goaway_sets_flag() {
        let mut core = server();
        let events = feed(
            &mut core,
            Frame::Goaway(h2wire::GoawayFrame {
                last_stream_id: sid(0),
                code: ErrorCode::NoError,
                debug_data: Bytes::new(),
            }),
        );
        assert!(matches!(events[0], CoreEvent::GoawayReceived { .. }));
        assert!(core.goaway_received());
    }

    #[test]
    fn replenish_emits_window_updates() {
        let mut core = server();
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), false, None) {
            feed(&mut core, frame);
        }
        let data = Frame::Data(DataFrame {
            stream_id: sid(1),
            data: Bytes::from(vec![0u8; 100]),
            end_stream: false,
            pad_len: None,
        });
        feed(&mut core, data);
        let updates = core.replenish_recv_windows(sid(1), 100);
        assert_eq!(updates.len(), 2);
        assert_eq!(core.conn_recv.available(), 65_535);
    }

    #[test]
    fn hpack_evictions_reach_the_observability_handle() {
        // Squeeze the encoder's dynamic table so distinct response headers
        // evict each other, and check the delta reporting in
        // `encode_headers` forwards every eviction to the obs handle.
        let obs = h2obs::Obs::campaign(0);
        let mut core = server();
        core.set_obs(obs.for_site(0));
        let mut client = ConnectionCore::new(
            Role::Client,
            EffectiveSettings::default(),
            EncoderOptions::default(),
        );
        for frame in client.encode_headers(sid(1), &client_headers(), true, None) {
            feed(&mut core, frame);
        }
        core.encoder.resize_table(128);
        for i in 0..8 {
            let headers = vec![
                Header::new(":status", "200"),
                Header::new("x-filler", format!("{i}-{}", "v".repeat(40))),
            ];
            let _ = core.encode_headers(sid(1), &headers, true, None);
        }
        assert!(core.encoder.table().evictions() > 0, "table never evicted");
        let snap = obs.snapshot().expect("campaign obs snapshots");
        assert_eq!(
            snap.hpack_evictions,
            core.encoder.table().evictions() + core.decoder.table().evictions()
        );
    }
}
