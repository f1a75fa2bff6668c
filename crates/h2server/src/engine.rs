//! The HTTP/2 server engine: one implementation, parameterized by a
//! [`ServerBehavior`] matrix, able to impersonate every server in the
//! paper's testbed (plus the RFC reference).
//!
//! This module holds the state and the *policy*: what to answer to a
//! request and how to react to each condition the connection core
//! reports. Getting responses onto the wire is `pump.rs`; bytes in and
//! out (preface, greeting, byzantine greetings) is `transport.rs`.

#![allow(
    clippy::indexing_slicing,
    reason = "header slots bounded by the cursor that just advanced past them"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;

use h2conn::{ConnectionCore, CoreEvent, CoreScratch, EffectiveSettings, Role, WindowScope};
use h2hpack::{EncoderOptions, Header, IndexingPolicy};
use h2wire::{ErrorCode, Frame, GoawayFrame, PingFrame, RstStreamFrame, SettingsFrame, StreamId};
use netsim::time::{SimDuration, SimTime};

use crate::behavior::{QuirkAction, ServerBehavior};
use crate::profiles::ServerProfile;
use crate::pump::QueuedResponse;
use crate::site::SiteSpec;

/// Fixed `date` header (virtual time has no calendar).
const DATE_HEADER: &str = "Tue, 05 Jul 2016 12:00:00 GMT";

/// A dynamic response source consulted before the static [`SiteSpec`]
/// resource table. `repro serve` installs one per connection so campaign
/// queries are answered from the sharded index while still riding the
/// full h2wire→h2conn→h2server path; a `None` return falls through to
/// the site's static resources (and their 404).
pub trait RequestHandler: std::fmt::Debug + Send {
    /// Answers `path`, or defers to the static site with `None`.
    fn handle(&mut self, path: &str) -> Option<HandlerResponse>;
}

/// A response produced by a [`RequestHandler`].
#[derive(Debug, Clone)]
pub struct HandlerResponse {
    /// `:status` pseudo-header value (e.g. `"200"`).
    pub status: &'static str,
    /// `content-type` header value.
    pub content_type: String,
    /// Response body (cheaply cloneable; handlers share cached bodies).
    pub body: Bytes,
}

/// Body of the static site's 404 response.
const NOT_FOUND: &[u8] = b"not found";

/// `true` when a request head announces a body (POST/PUT-style methods);
/// such requests are answered only after END_STREAM.
fn has_request_body(headers: &[Header]) -> bool {
    headers
        .iter()
        .any(|h| h.name == ":method" && h.value != "GET" && h.value != "HEAD")
}

/// A request whose body has not finished arriving (slow-POST tracking):
/// the response is deferred until END_STREAM, and the held state is
/// exactly what the attack pins.
#[derive(Debug)]
pub(crate) struct PendingPost {
    headers: Vec<Header>,
    /// Virtual time the request head arrived — the stall-timeout clock.
    pub(crate) started: SimTime,
}

/// The behavior-driven HTTP/2 server endpoint.
///
/// Implements [`netsim::pipe::ByteEndpoint`], so it plugs directly into a
/// [`netsim::Pipe`]. All protocol mechanics live in
/// [`h2conn::ConnectionCore`]; this engine only decides *policy* — what to
/// do at each condition the core reports — by consulting its
/// [`ServerBehavior`].
#[derive(Debug)]
pub struct H2Server {
    profile: Arc<ServerProfile>,
    pub(crate) site: Arc<SiteSpec>,
    pub(crate) core: ConnectionCore,
    pub(crate) preface: Vec<u8>,
    pub(crate) preface_done: bool,
    pub(crate) queue: Vec<QueuedResponse>,
    rejected: BTreeSet<u32>,
    pub(crate) closed: bool,
    goaway_sent: bool,
    pub(crate) last_delay: SimDuration,
    cookie_counter: u64,
    /// Round-robin cursor for non-priority scheduling.
    pub(crate) rr_cursor: usize,
    /// Reusable frame buffer for [`H2Server::ingest`], so steady-state
    /// exchanges stop allocating a fresh `Vec<Frame>` per segment.
    pub(crate) frame_scratch: Vec<Frame>,
    /// Spent response-header lists, recycled by the pump once their
    /// HEADERS frame is encoded. `response_headers` rebuilds entries in
    /// place (reusing each `String`'s capacity) instead of allocating a
    /// fresh list per response.
    pub(crate) hdr_pool: Vec<Vec<Header>>,
    /// Latest virtual time observed from the transport (drives the
    /// stall-timeout quirk; frozen at ZERO until traffic arrives).
    pub(crate) now: SimTime,
    /// Client RST_STREAM frames received (rapid-reset accounting).
    rst_seen: u32,
    /// Non-ack SETTINGS frames received (SETTINGS-flood accounting).
    settings_seen: u32,
    /// Requests whose bodies are still arriving, by stream id (BTreeMap
    /// for deterministic sweep order).
    pub(crate) pending_posts: BTreeMap<u32, PendingPost>,
    /// Dynamic response source consulted before the static site
    /// (`repro serve` query dispatch); `None` for pure static serving.
    handler: Option<Box<dyn RequestHandler>>,
    /// Reusable ready-stream list for the DATA scheduler, so a chunk does
    /// not allocate. Reserved with the connection (or carried over from
    /// the previous one) rather than at the first chunk: a long-lived
    /// block first allocated after a response body sits above it on the
    /// heap and keeps that space from being returned when the body goes
    /// (+0.4 MB peak RSS on a scan).
    pub(crate) ready_scratch: Vec<StreamId>,
}

/// The storage an [`H2Server`] leaves behind for the next one: its
/// connection core's, its spent header lists, frame scratch, response
/// queue, preface buffer and ready-stream list, all emptied. Only
/// [`Default`] and [`H2Server::take_scratch`] make one.
#[derive(Debug, Default)]
pub struct ServerScratch {
    core: CoreScratch,
    frames: Vec<Frame>,
    hdr_pool: Vec<Vec<Header>>,
    queue: Vec<QueuedResponse>,
    preface: Vec<u8>,
    ready: Vec<StreamId>,
}

impl H2Server {
    /// Creates a server for `profile` serving `site`. Accepts either owned
    /// values or `Arc`s; scan campaigns pass `Arc`s so every connection is
    /// a pointer-bump instead of a deep clone.
    pub fn new(profile: impl Into<Arc<ServerProfile>>, site: impl Into<Arc<SiteSpec>>) -> H2Server {
        H2Server::new_in(profile, site, ServerScratch::default())
    }

    /// [`H2Server::new`] in the storage another server left behind.
    pub fn new_in(
        profile: impl Into<Arc<ServerProfile>>,
        site: impl Into<Arc<SiteSpec>>,
        scratch: ServerScratch,
    ) -> H2Server {
        let profile = profile.into();
        let site = site.into();
        let behavior = &profile.behavior;
        let mut local = EffectiveSettings::default();
        local.apply(&behavior.announced);
        let encoder = EncoderOptions {
            indexing: if behavior.hpack_index_responses {
                IndexingPolicy::Always
            } else {
                IndexingPolicy::Never
            },
            ..EncoderOptions::default()
        };
        let mut core = ConnectionCore::new_in(Role::Server, local, encoder, scratch.core);
        if behavior.honor_peer_header_table_size {
            core.set_encoder_table_cap(u32::MAX);
        }
        let mut ready_scratch = scratch.ready;
        ready_scratch.reserve(4);
        H2Server {
            profile,
            site,
            core,
            preface: scratch.preface,
            preface_done: false,
            queue: scratch.queue,
            rejected: BTreeSet::new(),
            closed: false,
            goaway_sent: false,
            last_delay: SimDuration::ZERO,
            cookie_counter: 0,
            rr_cursor: 0,
            frame_scratch: scratch.frames,
            hdr_pool: scratch.hdr_pool,
            now: SimTime::ZERO,
            rst_seen: 0,
            settings_seen: 0,
            pending_posts: BTreeMap::new(),
            handler: None,
            ready_scratch,
        }
    }

    /// Hands back the connection's storage, emptied, for
    /// [`H2Server::new_in`]. Spent header lists keep their strings'
    /// capacity but lose their text; queued responses and frames are
    /// dropped.
    pub fn take_scratch(&mut self) -> ServerScratch {
        let mut hdr_pool = std::mem::take(&mut self.hdr_pool);
        hdr_pool.iter_mut().flatten().for_each(Header::clear);
        let mut frames = std::mem::take(&mut self.frame_scratch);
        frames.clear();
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        let mut preface = std::mem::take(&mut self.preface);
        preface.clear();
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        ServerScratch {
            core: self.core.take_scratch(),
            frames,
            hdr_pool,
            queue,
            preface,
            ready,
        }
    }

    /// Installs a dynamic [`RequestHandler`] consulted before the static
    /// site on every request. Used by `repro serve` to dispatch campaign
    /// queries; ordinary scans never set one.
    pub fn set_handler(&mut self, handler: Box<dyn RequestHandler>) {
        self.handler = Some(handler);
    }

    /// Attaches an observability handle to the connection core, so frames
    /// this server handles (and its HPACK eviction pressure) are counted.
    /// The default `Obs::off()` records nothing.
    pub fn set_obs(&mut self, obs: h2obs::Obs) {
        self.core.set_obs(obs);
    }

    /// The profile this engine impersonates.
    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    /// The behavior matrix in force.
    pub fn behavior(&self) -> &ServerBehavior {
        &self.profile.behavior
    }

    /// The site being served.
    pub fn site(&self) -> &SiteSpec {
        &self.site
    }

    /// Protocol state access for tests and probes running in testbed mode.
    pub fn core(&self) -> &ConnectionCore {
        &self.core
    }

    /// `true` once the engine sent GOAWAY or observed a fatal error.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Octets currently held by the response-header encoder's dynamic
    /// table (the HPACK memory-pressure metric).
    pub fn encoder_table_octets(&self) -> u64 {
        u64::from(self.core.hpack_encoder().table().size())
    }

    /// Requests whose bodies have not finished arriving — the state a
    /// slow-POST attacker pins (header lists held per open request).
    pub fn pending_request_count(&self) -> usize {
        self.pending_posts.len()
    }

    /// Client RST_STREAM frames seen so far (rapid-reset accounting).
    pub fn rst_frames_seen(&self) -> u32 {
        self.rst_seen
    }

    pub(crate) fn byz(&self) -> h2fault::ByzantineSpec {
        self.behavior().byzantine.unwrap_or_default()
    }

    pub(crate) fn goaway(&mut self, code: ErrorCode, debug: Option<&str>, out: &mut Vec<Frame>) {
        if self.goaway_sent {
            return;
        }
        self.goaway_sent = true;
        self.closed = true;
        out.push(Frame::Goaway(GoawayFrame {
            last_stream_id: self.core.streams().highest_client_id(),
            code,
            debug_data: debug
                .map(|d| Bytes::from(d.as_bytes().to_vec()))
                .unwrap_or_default(),
        }));
    }

    fn rst(&mut self, stream: StreamId, code: ErrorCode, out: &mut Vec<Frame>) {
        self.core.reset_stream(stream, code);
        self.queue.retain(|q| q.stream != stream);
        out.push(Frame::RstStream(RstStreamFrame {
            stream_id: stream,
            code,
        }));
    }

    fn apply_quirk(
        &mut self,
        action: QuirkAction,
        scope: WindowScope,
        code: ErrorCode,
        debug: Option<String>,
        out: &mut Vec<Frame>,
    ) {
        match (action, scope) {
            (QuirkAction::Ignore, _) => {}
            (QuirkAction::RstStream, WindowScope::Stream(stream)) => self.rst(stream, code, out),
            // A "reset" reaction at connection scope degrades to GOAWAY.
            (QuirkAction::RstStream, WindowScope::Connection) | (QuirkAction::Goaway, _) => {
                self.goaway(code, debug.as_deref(), out);
            }
        }
    }

    fn handle_request(&mut self, stream: StreamId, headers: &[Header], out: &mut Vec<Frame>) {
        if self.rejected.contains(&stream.value()) || self.behavior().mute {
            return;
        }
        self.last_delay = self.behavior().processing_delay;
        let path = headers
            .iter()
            .find(|h| h.name == ":path")
            .map_or("/", |h| h.value.as_str());

        // Server push: promise before the response headers (RFC 7540
        // §8.2.1 requires the PUSH_PROMISE to precede referencing content).
        let mut pushes: Vec<(StreamId, Vec<Header>, Bytes, String)> = Vec::new();
        if self.behavior().push && self.core.remote_settings().enable_push {
            // The promises themselves are not limited: §5.1.2 exempts
            // reserved streams from MAX_CONCURRENT_STREAMS. The limit
            // bites later, when `pump_once` *activates* a promise by
            // releasing its response HEADERS.
            for asset in self.site.push_set(path, self.behavior().push_policy) {
                let Some(resource) = self.site.resource(&asset) else {
                    continue;
                };
                let body = resource.body().clone();
                let content_type = resource.content_type.clone();
                let request_headers = vec![
                    Header::new(":method", "GET"),
                    Header::new(":scheme", "https"),
                    Header::new(":path", asset.clone()),
                    Header::new(":authority", self.site.authority.clone()),
                ];
                let (promised, frame) = self.core.encode_push_promise(stream, &request_headers);
                out.push(frame);
                pushes.push((promised, request_headers, body, content_type));
            }
        }

        // RFC 7231 §4.3.2: HEAD gets the GET's header fields (the real
        // content-length included) and no body — END_STREAM rides on
        // HEADERS, and a synthetic body is never filled in.
        let head = headers
            .iter()
            .any(|h| h.name == ":method" && h.value == "HEAD");
        let dynamic = self.handler.as_mut().and_then(|h| h.handle(path));
        let (status, content_type, length, body) = match dynamic {
            Some(resp) => (resp.status, resp.content_type, resp.body.len(), resp.body),
            None => match self.site.resource(path) {
                Some(r) if head => ("200", r.content_type.clone(), r.body_len(), Bytes::new()),
                Some(r) => (
                    "200",
                    r.content_type.clone(),
                    r.body_len(),
                    r.body().clone(),
                ),
                None => (
                    "404",
                    "text/plain".to_string(),
                    NOT_FOUND.len(),
                    Bytes::from_static(NOT_FOUND),
                ),
            },
        };
        let body = if head { Bytes::new() } else { body };
        let response_headers = self.response_headers(status, &content_type, length);
        self.enqueue_response(stream, response_headers, body);

        for (promised, _request, body, content_type) in pushes {
            let headers = self.response_headers("200", &content_type, body.len());
            self.enqueue_response(promised, headers, body);
        }
    }

    /// Overwrites slot `*slot` of `headers` in place (reusing both
    /// `String`s' capacity), growing the list if the pooled vec is
    /// shorter than this response. Advances the slot cursor.
    fn set_hdr(headers: &mut Vec<Header>, slot: &mut usize, name: &str, value: &str) {
        if let Some(h) = headers.get_mut(*slot) {
            h.set(name, value);
        } else {
            headers.push(Header::new(name, value));
        }
        *slot += 1;
    }

    fn response_headers(
        &mut self,
        status: &str,
        content_type: &str,
        content_length: usize,
    ) -> Vec<Header> {
        use std::fmt::Write as _;
        let mut headers = self.hdr_pool.pop().unwrap_or_default();
        let mut slot = 0;
        Self::set_hdr(&mut headers, &mut slot, ":status", status);
        Self::set_hdr(
            &mut headers,
            &mut slot,
            "server",
            &self.behavior().server_name,
        );
        Self::set_hdr(&mut headers, &mut slot, "date", DATE_HEADER);
        Self::set_hdr(&mut headers, &mut slot, "content-type", content_type);
        Self::set_hdr(&mut headers, &mut slot, "content-length", "");
        let _ = write!(headers[slot - 1].value, "{content_length}");
        Self::set_hdr(&mut headers, &mut slot, "x-frame-options", "SAMEORIGIN");
        Self::set_hdr(&mut headers, &mut slot, "cache-control", "max-age=3600");
        for (name, value) in &self.behavior().extra_response_headers {
            Self::set_hdr(&mut headers, &mut slot, name, value);
        }
        if self.behavior().cookie_injection {
            self.cookie_counter += 1;
            // The paper's §V-G filter exists because some sites add cookies
            // starting from the *second* response, making later HEADERS
            // larger than the first and pushing the ratio above 1.
            if self.cookie_counter > 1 {
                Self::set_hdr(&mut headers, &mut slot, "set-cookie", "");
                let _ = write!(
                    headers[slot - 1].value,
                    "session={:016x}; Path=/",
                    self.cookie_counter * 0x9e37_79b9
                );
            }
        }
        headers.truncate(slot);
        headers
    }

    pub(crate) fn react(&mut self, events: Vec<CoreEvent>, out: &mut Vec<Frame>) {
        for event in events {
            match event {
                CoreEvent::RemoteSettings { .. } => {
                    self.settings_seen = self.settings_seen.saturating_add(1);
                    if let Some(limit) = self.behavior().settings_rate_limit {
                        if self.settings_seen > limit {
                            self.goaway(ErrorCode::EnhanceYourCalm, Some("settings flood"), out);
                            continue;
                        }
                    }
                    out.push(Frame::Settings(SettingsFrame::ack()));
                }
                CoreEvent::ConcurrencyExceeded { stream } => {
                    self.rejected.insert(stream.value());
                    self.rst(stream, ErrorCode::RefusedStream, out);
                }
                CoreEvent::HeadersReceived {
                    stream,
                    headers,
                    end_stream,
                    ..
                } => {
                    if let Some(limit) = self.behavior().header_list_limit {
                        // §6.5.2's size definition: name + value + 32
                        // per field.
                        let size: u64 = headers
                            .iter()
                            .map(|h| (h.name.len() + h.value.len() + 32) as u64)
                            .sum();
                        if size > u64::from(limit) {
                            self.rejected.insert(stream.value());
                            self.apply_quirk(
                                self.behavior().oversized_header_list,
                                WindowScope::Stream(stream),
                                ErrorCode::EnhanceYourCalm,
                                None,
                                out,
                            );
                            continue;
                        }
                    }
                    // A request announcing a body (no END_STREAM on the
                    // head) cannot be answered yet: the server holds its
                    // state until the body completes — the very state a
                    // slow-POST attacker pins. Benign GETs always carry
                    // END_STREAM and take the immediate path.
                    if !end_stream && has_request_body(&headers) {
                        self.pending_posts.insert(
                            stream.value(),
                            PendingPost {
                                headers,
                                started: self.now,
                            },
                        );
                    } else {
                        self.handle_request(stream, &headers, out);
                        self.core.recycle_headers(headers);
                    }
                }
                CoreEvent::HeaderBlockProgress { accumulated, .. } => {
                    if let Some(cap) = self.behavior().continuation_cap {
                        if accumulated > cap {
                            self.goaway(
                                ErrorCode::EnhanceYourCalm,
                                Some("header block exceeds continuation cap"),
                                out,
                            );
                        }
                    }
                }
                CoreEvent::PingReceived { payload } => {
                    out.push(Frame::Ping(PingFrame { ack: true, payload }));
                }
                CoreEvent::ZeroWindowUpdate { scope } => {
                    let action = match scope {
                        WindowScope::Connection => self.behavior().zero_window_update_conn,
                        WindowScope::Stream(_) => self.behavior().zero_window_update_stream,
                    };
                    let debug = self.behavior().zero_window_debug.clone();
                    self.apply_quirk(action, scope, ErrorCode::ProtocolError, debug, out);
                }
                CoreEvent::WindowOverflow { scope } => {
                    let action = match scope {
                        WindowScope::Connection => self.behavior().large_window_update_conn,
                        WindowScope::Stream(_) => self.behavior().large_window_update_stream,
                    };
                    self.apply_quirk(action, scope, ErrorCode::FlowControlError, None, out);
                }
                CoreEvent::SelfDependency { stream } => {
                    self.apply_quirk(
                        self.behavior().self_dependency,
                        WindowScope::Stream(stream),
                        ErrorCode::ProtocolError,
                        None,
                        out,
                    );
                }
                CoreEvent::RstStreamReceived { stream, .. } => {
                    self.queue.retain(|q| q.stream != stream);
                    self.pending_posts.remove(&stream.value());
                    self.rst_seen = self.rst_seen.saturating_add(1);
                    if let Some(limit) = self.behavior().rst_rate_limit {
                        if self.rst_seen > limit {
                            self.goaway(ErrorCode::EnhanceYourCalm, Some("rst flood"), out);
                        }
                    }
                }
                CoreEvent::GoawayReceived { .. } => {
                    self.closed = true;
                }
                CoreEvent::DataReceived {
                    stream,
                    end_stream,
                    flow_controlled_len,
                    ..
                } => {
                    out.extend(
                        self.core
                            .replenish_recv_windows(stream, flow_controlled_len),
                    );
                    if end_stream {
                        if let Some(pending) = self.pending_posts.remove(&stream.value()) {
                            self.handle_request(stream, &pending.headers, out);
                        }
                    }
                }
                CoreEvent::FlowViolation { .. } => {
                    self.goaway(ErrorCode::FlowControlError, None, out);
                }
                CoreEvent::SettingsAcked
                | CoreEvent::PingAcked { .. }
                | CoreEvent::WindowUpdated { .. }
                | CoreEvent::PriorityChanged { .. }
                | CoreEvent::PushPromiseReceived { .. }
                | CoreEvent::UnknownFrameIgnored { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{serve, TestClient};
    use h2wire::{SettingId, Settings, WindowUpdateFrame};
    use netsim::pipe::ByteEndpoint;

    #[test]
    fn unknown_path_is_404() {
        let (mut server, mut client) = serve(ServerProfile::rfc7540());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/missing"));
        let frames = client.parse(&reply);
        let mut saw_404 = false;
        for frame in &frames {
            if let Frame::Headers(h) = frame {
                let headers = client.core.recv_bytes(&frame.to_bytes());
                let _ = headers; // decoded below via event
                let mut dec = h2hpack::Decoder::new();
                // Decode against a fresh context is wrong in general, but
                // this is the first header block on the connection.
                let list = dec.decode_block(&h.fragment).unwrap();
                saw_404 = list.iter().any(|h| h.name == ":status" && h.value == "404");
            }
        }
        assert!(saw_404);
    }

    #[test]
    fn zero_window_update_quirks_differ_by_profile() {
        for (profile, expect_rst, expect_goaway) in [
            (ServerProfile::nginx(), false, false),
            (ServerProfile::h2o(), true, false),
            (ServerProfile::nghttpd(), false, true),
        ] {
            let (mut server, mut client) = serve(profile.clone());
            server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
            server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
            let zero = Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::new(1),
                increment: 0,
            })
            .to_bytes();
            let reply = server.on_bytes_vec(SimTime::ZERO, &zero);
            let frames = client.parse(&reply);
            let got_rst = frames.iter().any(|f| matches!(f, Frame::RstStream(_)));
            let got_goaway = frames.iter().any(|f| matches!(f, Frame::Goaway(_)));
            assert_eq!(got_rst, expect_rst, "{} rst", profile.name);
            assert_eq!(got_goaway, expect_goaway, "{} goaway", profile.name);
        }
    }

    #[test]
    fn large_window_update_overflow_triggers_goaway_on_connection() {
        let (mut server, mut client) = serve(ServerProfile::nginx());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let wu = |inc: u32| {
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment: inc,
            })
            .to_bytes()
        };
        server.on_bytes_vec(SimTime::ZERO, &wu(0x4000_0000));
        let reply = server.on_bytes_vec(SimTime::ZERO, &wu(0x4000_0000));
        let frames = client.parse(&reply);
        assert!(
            frames.iter().any(|f| matches!(f, Frame::Goaway(g)
                if g.code == ErrorCode::FlowControlError)),
            "even Nginx GOAWAYs on overflow (Table III)"
        );
    }

    #[test]
    fn self_dependency_quirks() {
        for (profile, expect) in [
            (ServerProfile::nginx(), "rst"),
            (ServerProfile::litespeed(), "ignore"),
            (ServerProfile::h2o(), "goaway"),
        ] {
            let (mut server, mut client) = serve(profile.clone());
            server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
            let frame = Frame::Priority(h2wire::PriorityFrame {
                stream_id: StreamId::new(5),
                spec: h2wire::PrioritySpec {
                    exclusive: false,
                    dependency: StreamId::new(5),
                    weight: 16,
                },
            })
            .to_bytes();
            let reply = server.on_bytes_vec(SimTime::ZERO, &frame);
            let frames = client.parse(&reply);
            match expect {
                "rst" => assert!(frames.iter().any(|f| matches!(f, Frame::RstStream(_)))),
                "goaway" => assert!(frames.iter().any(|f| matches!(f, Frame::Goaway(_)))),
                _ => assert!(frames.is_empty(), "{}: {frames:?}", profile.name),
            }
        }
    }

    #[test]
    fn concurrency_zero_refuses_all_requests() {
        // §V-A: with MAX_CONCURRENT_STREAMS=0, any request gets RST.
        let mut profile = ServerProfile::nginx();
        profile.behavior.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 0)
            .with(SettingId::InitialWindowSize, 65_535);
        profile.behavior.zero_window_then_update = None;
        let (mut server, mut client) = serve(profile);
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::RstStream(r)
            if r.code == ErrorCode::RefusedStream)));
        assert!(!frames.iter().any(|f| matches!(f, Frame::Headers(_))));
    }

    #[test]
    fn concurrency_one_refuses_second_parallel_request() {
        let mut profile = ServerProfile::tengine();
        profile.behavior.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 1)
            .with(SettingId::InitialWindowSize, 65_535);
        profile.behavior.zero_window_then_update = None;
        let (mut server, mut client) = serve(profile);
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        // Two requests in one segment; /big/0 keeps stream 1 active.
        let mut bytes = client.request(1, "/big/0");
        bytes.extend(client.request(3, "/big/1"));
        let reply = server.on_bytes_vec(SimTime::ZERO, &bytes);
        let frames = client.parse(&reply);
        let rsts: Vec<&RstStreamFrame> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::RstStream(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(rsts.len(), 1);
        assert_eq!(rsts[0].stream_id, StreamId::new(3));
        assert_eq!(rsts[0].code, ErrorCode::RefusedStream);
    }

    #[test]
    fn rst_flood_past_budget_draws_enhance_your_calm() {
        // H2O budgets 400 client resets; nginx has no budget. Each reset
        // cancels a request just opened: a reset of an idle stream would
        // be a protocol error, not churn.
        let (mut server, mut client) = serve(ServerProfile::h2o());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let mut bytes = Vec::new();
        for k in 0..401u32 {
            bytes.extend(client.request(1 + 2 * k, "/"));
            Frame::RstStream(RstStreamFrame {
                stream_id: StreamId::new(1 + 2 * k),
                code: ErrorCode::Cancel,
            })
            .encode(&mut bytes);
        }
        let reply = server.on_bytes_vec(SimTime::ZERO, &bytes);
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::Goaway(g)
            if g.code == ErrorCode::EnhanceYourCalm)));

        let (mut server, _client) = serve(ServerProfile::nginx());
        server.on_bytes_vec(SimTime::ZERO, &TestClient::new().preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &bytes);
        let frames = TestClient::new().parse(&reply);
        assert!(
            !frames.iter().any(|f| matches!(f, Frame::Goaway(_))),
            "nginx ignores unbounded RST churn"
        );
        assert_eq!(server.rst_frames_seen(), 401);
    }

    #[test]
    fn settings_flood_past_budget_stops_the_ack_train() {
        // Apache budgets 100 SETTINGS; each costs the server an ack, the
        // flood's amplification.
        let (mut server, mut client) = serve(ServerProfile::apache());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let mut bytes = Vec::new();
        for _ in 0..120 {
            Frame::Settings(SettingsFrame::from(Settings::new())).encode(&mut bytes);
        }
        let reply = server.on_bytes_vec(SimTime::ZERO, &bytes);
        let frames = client.parse(&reply);
        let acks = frames
            .iter()
            .filter(|f| matches!(f, Frame::Settings(s) if s.ack))
            .count();
        assert!(frames.iter().any(|f| matches!(f, Frame::Goaway(g)
            if g.code == ErrorCode::EnhanceYourCalm)));
        assert!(acks <= 100, "acks stop once the budget is spent: {acks}");
    }

    #[test]
    fn continuation_flood_past_cap_tears_the_connection_down() {
        // Apache caps an in-progress header block at 16 KiB; Tengine
        // (which dropped its parent's bound) buffers forever.
        let flood = || {
            let mut bytes = Frame::Headers(h2wire::HeadersFrame {
                stream_id: StreamId::new(1),
                fragment: Bytes::from(vec![0u8; 1_024]),
                end_stream: false,
                end_headers: false,
                priority: None,
                pad_len: None,
            })
            .to_bytes();
            for _ in 0..20 {
                Frame::Continuation(h2wire::ContinuationFrame {
                    stream_id: StreamId::new(1),
                    fragment: Bytes::from(vec![0u8; 1_024]),
                    end_headers: false,
                })
                .encode(&mut bytes);
            }
            bytes
        };
        let (mut server, mut client) = serve(ServerProfile::apache());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &flood());
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::Goaway(g)
            if g.code == ErrorCode::EnhanceYourCalm)));

        let (mut server, _client) = serve(ServerProfile::tengine());
        server.on_bytes_vec(SimTime::ZERO, &TestClient::new().preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &flood());
        assert!(reply.is_empty(), "tengine buffers the open block silently");
    }

    #[test]
    fn post_response_waits_for_the_request_body() {
        let (mut server, mut client) = serve(ServerProfile::rfc7540());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let headers = vec![
            Header::new(":method", "POST"),
            Header::new(":scheme", "https"),
            Header::new(":path", "/"),
            Header::new(":authority", "testbed.example"),
        ];
        let frames = client
            .core
            .encode_headers(StreamId::new(1), &headers, false, None);
        let reply = server.on_bytes_vec(SimTime::ZERO, &h2wire::encode_all(&frames));
        let frames = client.parse(&reply);
        assert!(
            !frames.iter().any(|f| matches!(f, Frame::Headers(_))),
            "no response until the body completes: {frames:?}"
        );
        assert_eq!(server.pending_request_count(), 1);
        let body = Frame::Data(h2wire::DataFrame {
            stream_id: StreamId::new(1),
            data: Bytes::from_static(b"a=1"),
            end_stream: true,
            pad_len: None,
        })
        .to_bytes();
        let reply = server.on_bytes_vec(SimTime::ZERO, &body);
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::Headers(_))));
        assert_eq!(server.pending_request_count(), 0);
    }

    #[test]
    fn oversized_header_list_reactions_differ() {
        // ~17 KiB list: above every configured limit. Apache resets the
        // stream; nginx tears the connection down; LiteSpeed (no limit)
        // answers normally.
        let big_request = |client: &mut TestClient| {
            let mut headers = vec![
                Header::new(":method", "GET"),
                Header::new(":scheme", "https"),
                Header::new(":path", "/"),
                Header::new(":authority", "testbed.example"),
            ];
            for i in 0..36 {
                headers.push(Header::new(
                    format!("x-padding-{i:02}"),
                    "abc123xyz".repeat(49),
                ));
            }
            let frames = client
                .core
                .encode_headers(StreamId::new(1), &headers, true, None);
            h2wire::encode_all(&frames)
        };
        for (profile, expect) in [
            (ServerProfile::apache(), "rst"),
            (ServerProfile::nginx(), "goaway"),
            (ServerProfile::litespeed(), "answer"),
        ] {
            let name = profile.name.clone();
            let (mut server, mut client) = serve(profile);
            server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
            let reply = server.on_bytes_vec(SimTime::ZERO, &big_request(&mut client));
            let frames = client.parse(&reply);
            match expect {
                "rst" => assert!(
                    frames.iter().any(|f| matches!(f, Frame::RstStream(r)
                        if r.code == ErrorCode::EnhanceYourCalm)),
                    "{name}: {frames:?}"
                ),
                "goaway" => assert!(
                    frames.iter().any(|f| matches!(f, Frame::Goaway(g)
                        if g.code == ErrorCode::EnhanceYourCalm)),
                    "{name}"
                ),
                _ => assert!(
                    frames.iter().any(|f| matches!(f, Frame::Headers(_))),
                    "{name} has no limit and answers"
                ),
            }
        }
    }
}
