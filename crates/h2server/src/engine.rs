//! The HTTP/2 server engine: one implementation, parameterized by a
//! [`ServerBehavior`] matrix, able to impersonate every server in the
//! paper's testbed (plus the RFC reference).

// h2check: allow-file(index) — queue indices bounded by the scan loops; byte offsets length-checked

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use h2conn::{ConnectionCore, CoreEvent, EffectiveSettings, Role, WindowScope};
use h2hpack::{EncoderOptions, Header, IndexingPolicy};
use h2wire::{
    encode_all_into, ErrorCode, Frame, GoawayFrame, PingFrame, RstStreamFrame, SettingsFrame,
    StreamId, WindowUpdateFrame, CONNECTION_PREFACE,
};
use netsim::http1::write_response_head;
use netsim::pipe::ByteEndpoint;
use netsim::time::{SimDuration, SimTime};

use crate::behavior::{QuirkAction, ServerBehavior};
use crate::profiles::ServerProfile;
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

/// Index of the first `\r\n\r\n` in `buf`, if complete.
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `true` when a request head announces a body (POST/PUT-style methods);
/// such requests are answered only after END_STREAM.
fn has_request_body(headers: &[Header]) -> bool {
    headers
        .iter()
        .any(|h| h.name == ":method" && h.value != "GET" && h.value != "HEAD")
}

#[derive(Debug)]
struct QueuedResponse {
    stream: StreamId,
    /// Response headers not yet sent (None once on the wire).
    headers: Option<Vec<Header>>,
    body: Bytes,
    offset: usize,
    /// FIFO arrival order for non-priority scheduling.
    seq: u64,
    /// A zero-length DATA marker has been emitted while blocked.
    sent_zero_marker: bool,
    /// Virtual time the response was queued — the stall-timeout clock.
    enqueued_at: SimTime,
}

/// A request whose body has not finished arriving (slow-POST tracking):
/// the response is deferred until END_STREAM, and the held state is
/// exactly what the attack pins.
#[derive(Debug)]
struct PendingPost {
    headers: Vec<Header>,
    /// Virtual time the request head arrived — the stall-timeout clock.
    started: SimTime,
}

impl QueuedResponse {
    fn remaining(&self) -> usize {
        self.body.len() - self.offset
    }
    fn body_ready(&self) -> bool {
        self.headers.is_none() && self.remaining() > 0
    }
}

/// The behavior-driven HTTP/2 server endpoint.
///
/// Implements [`ByteEndpoint`], so it plugs directly into a
/// [`netsim::Pipe`]. All protocol mechanics live in
/// [`h2conn::ConnectionCore`]; this engine only decides *policy* — what to
/// do at each condition the core reports — by consulting its
/// [`ServerBehavior`].
#[derive(Debug)]
pub struct H2Server {
    profile: Arc<ServerProfile>,
    site: Arc<SiteSpec>,
    core: ConnectionCore,
    preface: Vec<u8>,
    preface_done: bool,
    queue: Vec<QueuedResponse>,
    next_seq: u64,
    rejected: HashSet<u32>,
    closed: bool,
    goaway_sent: bool,
    last_delay: SimDuration,
    cookie_counter: u64,
    /// Round-robin cursor for non-priority scheduling.
    rr_cursor: usize,
    /// Cleartext (port-80) mode: no greeting until an h2c upgrade or a
    /// prior-knowledge preface arrives (RFC 7540 §3.2/§3.4).
    cleartext: bool,
    /// Request headers carried by an accepted h2c upgrade, served on
    /// stream 1 once the preface completes.
    pending_upgrade: Option<Vec<Header>>,
    /// Total octets emitted so far (byzantine truncation/reset bookkeeping).
    emitted: u64,
    /// A byzantine truncation fired: the server says nothing more, ever.
    silenced: bool,
    /// A byzantine reset is due: the transport should cut the connection.
    reset_pending: bool,
    /// Reusable frame buffer for [`H2Server::ingest`], so steady-state
    /// exchanges stop allocating a fresh `Vec<Frame>` per segment.
    frame_scratch: Vec<Frame>,
    /// Spent response-header lists, recycled by the pump once their
    /// HEADERS frame is encoded. `response_headers` rebuilds entries in
    /// place (reusing each `String`'s capacity) instead of allocating a
    /// fresh list per response.
    hdr_pool: Vec<Vec<Header>>,
    /// Latest virtual time observed from the transport (drives the
    /// stall-timeout quirk; frozen at ZERO until traffic arrives).
    now: SimTime,
    /// Client RST_STREAM frames received (rapid-reset accounting).
    rst_seen: u32,
    /// Non-ack SETTINGS frames received (SETTINGS-flood accounting).
    settings_seen: u32,
    /// Requests whose bodies are still arriving, by stream id (BTreeMap
    /// for deterministic sweep order).
    pending_posts: BTreeMap<u32, PendingPost>,
    /// Dynamic response source consulted before the static site
    /// (`repro serve` query dispatch); `None` for pure static serving.
    handler: Option<Box<dyn RequestHandler>>,
    /// Reusable ready-stream list for the priority schedulers, so a DATA
    /// chunk does not allocate.
    ready_scratch: Vec<StreamId>,
}

impl H2Server {
    /// Creates a server for `profile` serving `site`. Accepts either owned
    /// values or `Arc`s; scan campaigns pass `Arc`s so every connection is
    /// a pointer-bump instead of a deep clone.
    pub fn new(profile: impl Into<Arc<ServerProfile>>, site: impl Into<Arc<SiteSpec>>) -> H2Server {
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
        let mut core = ConnectionCore::new(Role::Server, local, encoder);
        if behavior.honor_peer_header_table_size {
            core.set_encoder_table_cap(u32::MAX);
        }
        H2Server {
            profile,
            site,
            core,
            preface: Vec::new(),
            preface_done: false,
            queue: Vec::new(),
            next_seq: 0,
            rejected: HashSet::new(),
            closed: false,
            goaway_sent: false,
            last_delay: SimDuration::ZERO,
            cookie_counter: 0,
            rr_cursor: 0,
            cleartext: false,
            pending_upgrade: None,
            emitted: 0,
            silenced: false,
            reset_pending: false,
            frame_scratch: Vec::new(),
            hdr_pool: Vec::new(),
            now: SimTime::ZERO,
            rst_seen: 0,
            settings_seen: 0,
            pending_posts: BTreeMap::new(),
            handler: None,
            ready_scratch: Vec::new(),
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

    /// Creates a *cleartext* server (the port-80 deployment): it stays
    /// silent on connect and speaks HTTP/1.1 until the client either
    /// upgrades via `Upgrade: h2c` or opens with the HTTP/2 preface
    /// directly (prior knowledge).
    pub fn new_cleartext(
        profile: impl Into<Arc<ServerProfile>>,
        site: impl Into<Arc<SiteSpec>>,
    ) -> H2Server {
        let mut server = H2Server::new(profile, site);
        server.cleartext = true;
        server
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

    /// Response octets queued but not yet released by flow control — the
    /// memory an attacker pins with the slow-receiver pattern (§VI).
    pub fn pending_response_octets(&self) -> u64 {
        self.queue.iter().map(|q| q.remaining() as u64).sum()
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

    fn goaway(&mut self, code: ErrorCode, debug: Option<&str>, out: &mut Vec<Frame>) {
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
            h.name.clear();
            h.name.push_str(name);
            h.value.clear();
            h.value.push_str(value);
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

    fn enqueue_response(&mut self, stream: StreamId, headers: Vec<Header>, body: Bytes) {
        self.next_seq += 1;
        self.queue.push(QueuedResponse {
            stream,
            headers: Some(headers),
            body,
            offset: 0,
            seq: self.next_seq,
            sent_zero_marker: false,
            enqueued_at: self.now,
        });
        // `seq` only grows and `retain`/`remove` keep order, so the queue
        // is FIFO by construction.
        debug_assert!(self.queue.is_sorted_by_key(|q| q.seq));
    }

    /// The stall-timeout quirk: a server that reaps connections whose
    /// responses have sat flow-control-blocked (or whose request bodies
    /// have trickled) past its patience. Checked whenever traffic gives
    /// the engine a chance to observe the clock — which is exactly how
    /// event-driven servers implement it.
    fn check_stalls(&mut self, out: &mut Vec<Frame>) {
        let Some(timeout) = self.behavior().stall_timeout else {
            return;
        };
        let now = self.now;
        let stalled = self.queue.iter().any(|q| now >= q.enqueued_at + timeout)
            || self
                .pending_posts
                .values()
                .any(|p| now >= p.started + timeout);
        if stalled {
            self.goaway(
                ErrorCode::EnhanceYourCalm,
                Some("connection stalled beyond patience"),
                out,
            );
        }
    }

    /// Estimated wire size of a header list (upper bound, used only for
    /// the LiteSpeed flow-control-on-HEADERS quirk).
    fn estimate_block_size(headers: &[Header]) -> i64 {
        headers
            .iter()
            .map(|h| (h.name.len() + h.value.len() + 4) as i64)
            .sum()
    }

    /// Sends everything currently sendable: response headers first, then
    /// DATA according to the scheduling discipline. A sequential
    /// (non-multiplexing) server repeats the cycle: finishing one response
    /// unblocks the head-of-line for the next.
    fn pump(&mut self, out: &mut Vec<Frame>) {
        loop {
            let before = out.len();
            self.pump_once(out);
            let progressed = out.len() > before;
            if !progressed {
                return;
            }
            // A response completed in this cycle may have freed a
            // pushed-stream concurrency slot (§5.1.2); re-run the cycle
            // while promised responses are still waiting on one, so a
            // burst of pushes serializes without waiting for the next
            // client frame.
            let push_gated = self
                .queue
                .iter()
                .any(|q| q.headers.is_some() && q.stream.is_server_initiated());
            if self.behavior().multiplexing && !push_gated {
                return;
            }
        }
    }

    /// RFC 7540 §5.1.2: whether another promised stream may be
    /// activated (its response HEADERS released) without exceeding the
    /// client's advertised `MAX_CONCURRENT_STREAMS`. Reserved streams
    /// are exempt; only activated-but-unclosed pushes occupy slots.
    fn may_activate_push(&self) -> bool {
        match self.core.remote_settings().max_concurrent_streams {
            Some(limit) => {
                (self.core.streams().active_server_initiated() as u64) < u64::from(limit)
            }
            None => true,
        }
    }

    fn pump_once(&mut self, out: &mut Vec<Frame>) {
        if self.closed {
            return;
        }
        self.check_stalls(out);
        if self.closed {
            return;
        }
        // Phase 1: release response HEADERS.
        let fc_on_headers = self.behavior().fc_on_headers;
        let sequential = !self.behavior().multiplexing;
        let mut i = 0;
        while i < self.queue.len() {
            if sequential && i > 0 {
                break; // strictly one response in flight
            }
            if self.queue[i].headers.is_some() {
                let stream = self.queue[i].stream;
                // A promised response waits here until the client's
                // concurrency limit has room for one more pushed stream
                // (§5.1.2); completions and resets free slots.
                if stream.is_server_initiated() && !self.may_activate_push() {
                    i += 1;
                    continue;
                }
                // h2check: allow(panic) — is_some() checked in the branch guard
                let headers = self.queue[i].headers.as_ref().expect("checked");
                let permitted = if fc_on_headers {
                    let estimate = Self::estimate_block_size(headers);
                    let stream_window = self.core.streams().get(stream).map_or(
                        i64::from(self.core.remote_settings().initial_window_size),
                        |s| s.send_window.available(),
                    );
                    let conn_window = self.core.connection_send_window();
                    stream_window >= estimate && conn_window >= estimate
                } else if self.behavior().headers_gated_at_zero_window {
                    let stream_window = self.core.streams().get(stream).map_or(
                        i64::from(self.core.remote_settings().initial_window_size),
                        |s| s.send_window.available(),
                    );
                    stream_window > 0
                } else {
                    true
                };
                if permitted {
                    // h2check: allow(panic) — is_some() checked in the branch guard
                    let headers = self.queue[i].headers.take().expect("checked");
                    let end_stream = self.queue[i].body.is_empty();
                    out.extend(self.core.encode_headers(stream, &headers, end_stream, None));
                    self.hdr_pool.push(headers);
                    if end_stream {
                        self.queue.remove(i);
                        continue;
                    }
                }
            }
            i += 1;
        }
        // Phase 2: DATA, per the profile's scheduling discipline.
        match self.behavior().priority_mode {
            crate::behavior::PriorityMode::Strict => self.pump_by_tree(false, out),
            crate::behavior::PriorityMode::None => self.pump_round_robin(out, sequential),
            crate::behavior::PriorityMode::CompletionOrder => {
                // First chunk of each response flushes FCFS...
                self.pump_first_chunks_fifo(out);
                // ...then strict priority governs completion order.
                self.pump_by_tree(false, out);
            }
            crate::behavior::PriorityMode::FirstFrameOnly => {
                // First chunks follow the tree...
                self.pump_by_tree(true, out);
                // ...then the remainder is plain round-robin.
                self.pump_round_robin(out, sequential);
            }
        }
        // Phase 3: zero-length DATA markers for blocked streams (quirk).
        if self.behavior().zero_len_data_when_blocked {
            for q in &mut self.queue {
                if q.body_ready() && !q.sent_zero_marker {
                    let stream = q.stream;
                    let window = self
                        .core
                        .streams()
                        .get(stream)
                        .map_or(0, |s| s.send_window.available());
                    if window <= 0 || self.core.connection_send_window() <= 0 {
                        q.sent_zero_marker = true;
                        out.push(Frame::Data(h2wire::DataFrame {
                            stream_id: stream,
                            data: Bytes::new(),
                            end_stream: false,
                            pad_len: None,
                        }));
                    }
                }
            }
        }
        self.queue
            .retain(|q| q.headers.is_some() || q.remaining() > 0);
    }

    fn send_chunk(&mut self, index: usize, out: &mut Vec<Frame>) -> bool {
        let stream = self.queue[index].stream;
        let sendable = self.core.sendable_on(stream);
        let remaining = self.queue[index].remaining();
        // Byzantine trickle: dribble one tiny DATA chunk per exchange,
        // each charged a long processing delay, so the transfer crawls in
        // simulated time and only a probe deadline ends it.
        if let Some(trickle) = self.byz().trickle_data {
            if sendable == 0 {
                return false;
            }
            let chunk = (sendable as usize).min(remaining).min(trickle.max(1));
            let offset = self.queue[index].offset;
            let data = self.queue[index].body.slice(offset..offset + chunk);
            let end_stream = chunk == remaining;
            out.push(self.core.send_data(stream, data, end_stream));
            self.queue[index].offset += chunk;
            self.last_delay = self.last_delay + self.byz().trickle_delay;
            return false;
        }
        // The buggy population from §V-D1: instead of trickling data
        // through a *small* window, emit one zero-length DATA and stall
        // until the window grows. A window big enough for a useful chunk
        // (or the whole remainder) is used normally.
        const TRICKLE_THRESHOLD: usize = 1_024;
        if self.behavior().zero_len_data_when_blocked
            && (sendable as usize) < remaining.min(TRICKLE_THRESHOLD)
        {
            if !self.queue[index].sent_zero_marker {
                self.queue[index].sent_zero_marker = true;
                out.push(Frame::Data(h2wire::DataFrame {
                    stream_id: stream,
                    data: Bytes::new(),
                    end_stream: false,
                    pad_len: None,
                }));
            }
            return false;
        }
        if sendable == 0 {
            return false;
        }
        let chunk = (sendable as usize).min(remaining);
        let offset = self.queue[index].offset;
        let data = self.queue[index].body.slice(offset..offset + chunk);
        let end_stream = chunk == remaining;
        out.push(self.core.send_data(stream, data, end_stream));
        self.queue[index].offset += chunk;
        true
    }

    /// Sends exactly one chunk for every ready response that has not yet
    /// sent any body, in FCFS order.
    fn pump_first_chunks_fifo(&mut self, out: &mut Vec<Frame>) {
        loop {
            let Some(index) = self.queue.iter().position(|q| {
                q.body_ready() && q.offset == 0 && self.core.sendable_on(q.stream) > 0
            }) else {
                return;
            };
            if !self.send_chunk(index, out) {
                return;
            }
        }
    }

    /// Refills `ready` with the streams whose response body can move
    /// right now, in queue (arrival) order; `fresh_only` keeps just those
    /// that have not sent any body yet.
    fn collect_ready(&self, fresh_only: bool, ready: &mut Vec<StreamId>) {
        ready.clear();
        ready.extend(
            self.queue
                .iter()
                .filter(|q| q.body_ready() && !(fresh_only && q.offset > 0))
                .filter(|q| self.core.sendable_on(q.stream) > 0)
                .map(|q| q.stream),
        );
    }

    /// Sends DATA chunk by chunk to the stream the priority tree picks
    /// among the ready ones — with `fresh_only`, among those yet to send
    /// their first chunk.
    fn pump_by_tree(&mut self, fresh_only: bool, out: &mut Vec<Frame>) {
        let mut ready = std::mem::take(&mut self.ready_scratch);
        loop {
            self.collect_ready(fresh_only, &mut ready);
            // Streams with queued data but absent from the tree (e.g.
            // pushed streams): first chunks go lowest id first, the rest
            // FIFO.
            let next = self.core.priority_mut().next_stream(&ready).or_else(|| {
                if fresh_only {
                    ready.iter().min().copied()
                } else {
                    ready.first().copied()
                }
            });
            let Some(index) = next.and_then(|n| self.queue.iter().position(|q| q.stream == n))
            else {
                break;
            };
            if !self.send_chunk(index, out) {
                break;
            }
        }
        self.ready_scratch = ready;
    }

    fn pump_round_robin(&mut self, out: &mut Vec<Frame>, sequential: bool) {
        loop {
            let ready: Vec<usize> = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, q)| q.body_ready() && self.core.sendable_on(q.stream) > 0)
                .map(|(i, _)| i)
                .collect();
            if ready.is_empty() {
                return;
            }
            if sequential {
                // Head-of-line only.
                let head = ready[0];
                if !self.send_chunk(head, out) {
                    return;
                }
                continue;
            }
            self.rr_cursor = (self.rr_cursor + 1) % ready.len();
            let index = ready[self.rr_cursor % ready.len()];
            if !self.send_chunk(index, out) {
                return;
            }
        }
    }

    fn react(&mut self, events: Vec<CoreEvent>, out: &mut Vec<Frame>) {
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
                    if self.behavior().ping {
                        out.push(Frame::Ping(PingFrame { ack: true, payload }));
                    }
                }
                CoreEvent::ZeroWindowUpdate { scope } => {
                    let (action, debug) = match scope {
                        WindowScope::Connection => (
                            self.behavior().zero_window_update_conn,
                            self.behavior().zero_window_debug.clone(),
                        ),
                        WindowScope::Stream(_) => (
                            self.behavior().zero_window_update_stream,
                            self.behavior().zero_window_debug.clone(),
                        ),
                    };
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

/// A greeting that cannot parse as HTTP/2: a SETTINGS frame whose length
/// is not a multiple of six — FRAME_SIZE_ERROR per RFC 7540 §6.5.
const GARBAGE_GREETING: [u8; 14] = [0, 0, 5, 0x04, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5];

impl ByteEndpoint for H2Server {
    fn on_connect(&mut self, now: SimTime, out: &mut Vec<u8>) {
        self.now = now;
        let byz = self.byz();
        if byz.handshake_stall {
            // Accepts the connection, never speaks.
            return;
        }
        if byz.garbage_preface {
            self.silenced = true;
            out.extend_from_slice(&GARBAGE_GREETING);
            return;
        }
        if self.cleartext {
            // Nothing to say until the client upgrades (§3.2) or sends
            // the prior-knowledge preface (§3.4).
            return;
        }
        let start = out.len();
        self.announce_bytes(out);
        self.shape_output(out, start);
    }

    fn on_bytes(&mut self, now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
        self.now = now;
        if self.byz().handshake_stall || self.silenced {
            self.last_delay = SimDuration::ZERO;
            return;
        }
        let start = out.len();
        self.on_bytes_inner(now, bytes, out);
        self.shape_output(out, start);
    }

    fn processing_delay(&self) -> SimDuration {
        self.last_delay
    }

    fn wants_reset(&self) -> bool {
        self.reset_pending
    }
}

impl H2Server {
    fn byz(&self) -> h2fault::ByzantineSpec {
        self.behavior().byzantine.unwrap_or_default()
    }

    /// Applies output-side byzantine faults (truncation, scheduled reset)
    /// to the batch of octets the engine appended to `out` past `start`.
    /// A no-op spec passes bytes through untouched.
    fn shape_output(&mut self, out: &mut Vec<u8>, start: usize) {
        if self.silenced {
            out.truncate(start);
            return;
        }
        let byz = self.byz();
        if let Some(limit) = byz.truncate_after {
            let budget = limit.saturating_sub(self.emitted) as usize;
            if out.len() - start > budget {
                out.truncate(start + budget);
                self.silenced = true;
            }
        }
        self.emitted += (out.len() - start) as u64;
        if let Some(limit) = byz.reset_after_bytes {
            if self.emitted >= limit {
                self.reset_pending = true;
            }
        }
    }

    fn on_bytes_inner(&mut self, _now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
        self.last_delay = SimDuration::ZERO;
        if self.closed {
            return;
        }
        if !self.preface_done {
            self.preface.extend_from_slice(bytes);
            let n = self.preface.len().min(CONNECTION_PREFACE.len());
            if self.preface[..n] == CONNECTION_PREFACE[..n] {
                if self.preface.len() < CONNECTION_PREFACE.len() {
                    return;
                }
                self.preface_done = true;
                let leftover = self.preface.split_off(CONNECTION_PREFACE.len());
                self.preface.clear();
                if self.cleartext {
                    // Prior-knowledge or post-upgrade h2: announce now.
                    self.announce_bytes(out);
                }
                if let Some(headers) = self.pending_upgrade.take() {
                    self.serve_upgraded_request(&headers, out);
                }
                self.ingest(&leftover, out);
                return;
            }
            if self.cleartext {
                self.try_h1(_now, out);
                return;
            }
            // TLS-negotiated h2 with a bad preface: drop the connection.
            self.closed = true;
            return;
        }
        if bytes.is_empty() {
            return;
        }
        self.ingest(bytes, out);
    }

    /// The connection-start frames (announced SETTINGS plus the Nginx
    /// zero-window-then-update pattern), appended to `out`.
    fn announce_bytes(&self, out: &mut Vec<u8>) {
        Frame::Settings(SettingsFrame::from(self.behavior().announced.clone())).encode(out);
        if let Some(increment) = self.behavior().zero_window_then_update {
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment,
            })
            .encode(out);
        }
    }

    /// RFC 7540 §3.2: the request that carried the upgrade is served as
    /// HTTP/2 stream 1, already half-closed from the client side.
    fn serve_upgraded_request(&mut self, headers: &[Header], out: &mut Vec<u8>) {
        let stream = StreamId::new(1);
        let (send_init, recv_init) = (
            self.core.remote_settings().initial_window_size,
            self.core.local_settings().initial_window_size,
        );
        self.core
            .streams_mut()
            .get_or_create(stream, send_init, recv_init)
            .recv_headers(true);
        let mut frames = std::mem::take(&mut self.frame_scratch);
        frames.clear();
        self.handle_request(stream, headers, &mut frames);
        self.pump(&mut frames);
        encode_all_into(&frames, out);
        self.frame_scratch = frames;
    }

    /// Speaks just enough HTTP/1.1 to run the §IV-A upgrade dance: a
    /// request with `Upgrade: h2c` gets `101 Switching Protocols` when the
    /// profile supports it; anything else gets a plain HTTP/1.1 response.
    fn try_h1(&mut self, _now: SimTime, out: &mut Vec<u8>) {
        let Some(end) = find_double_crlf(&self.preface) else {
            // Wait for the rest of the request head — unless this cannot
            // be HTTP at all.
            if self.preface.len() > 16_384 {
                self.closed = true;
            }
            return;
        };
        let head = String::from_utf8_lossy(&self.preface[..end]).to_string();
        let leftover = self.preface.split_off(end + 4);
        self.preface.clear();
        let mut lines = head.lines();
        let request_line = lines.next().unwrap_or_default().to_string();
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("GET").to_string();
        let path = parts.next().unwrap_or("/").to_string();
        let mut wants_h2c = false;
        let mut host = self.site.authority.clone();
        for line in lines {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("upgrade:") && lower.contains("h2c") {
                wants_h2c = true;
            }
            if let Some(value) = lower.strip_prefix("host:") {
                host = value.trim().to_string();
            }
        }
        if wants_h2c && self.behavior().h2c_upgrade {
            self.pending_upgrade = Some(vec![
                Header::new(":method", method),
                Header::new(":scheme", "http"),
                Header::new(":path", path),
                Header::new(":authority", host),
            ]);
            self.preface = leftover; // may already hold the preface
            write_response_head(
                out,
                "101 Switching Protocols",
                &[("Connection", &"Upgrade"), ("Upgrade", &"h2c")],
            );
            if !self.preface.is_empty() {
                let buffered = std::mem::take(&mut self.preface);
                self.on_bytes_inner(_now, &buffered, out);
            }
            return;
        }
        // No upgrade: serve it as ordinary HTTP/1.1 and close.
        self.last_delay = self.behavior().processing_delay;
        let resource = self.site.resource(&path);
        let (status, length) = match resource {
            Some(r) => ("200 OK", r.body_len()),
            None => ("404 Not Found", NOT_FOUND.len()),
        };
        self.closed = true;
        write_response_head(
            out,
            status,
            &[
                ("Server", &self.behavior().server_name),
                ("Content-Length", &length),
                ("Connection", &"close"),
            ],
        );
        // RFC 7231 §4.3.2: a HEAD response ends with its header section.
        if method != "HEAD" {
            out.extend_from_slice(resource.map_or(NOT_FOUND, |r| r.body()));
        }
    }

    fn ingest(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        let mut frames = std::mem::take(&mut self.frame_scratch);
        frames.clear();
        match self.core.recv_bytes(bytes) {
            Ok(events) => self.react(events, &mut frames),
            Err(err) => {
                let detail = err.to_string();
                self.goaway(err.h2_error_code(), Some(&detail), &mut frames);
            }
        }
        self.pump(&mut frames);
        encode_all_into(&frames, out);
        self.frame_scratch = frames;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2conn::{ConnectionCore, EffectiveSettings};
    use h2wire::{FrameDecoder, SettingId, Settings};

    /// A minimal hand-rolled client for exercising the engine directly.
    struct TestClient {
        core: ConnectionCore,
        decoder: FrameDecoder,
    }

    impl TestClient {
        fn new() -> TestClient {
            TestClient {
                core: ConnectionCore::new(
                    Role::Client,
                    EffectiveSettings::default(),
                    EncoderOptions::default(),
                ),
                decoder: FrameDecoder::new(),
            }
        }

        fn preface_and_settings(&self) -> Vec<u8> {
            self.preface_with(Settings::new())
        }

        fn preface_with(&self, settings: Settings) -> Vec<u8> {
            let mut bytes = CONNECTION_PREFACE.to_vec();
            Frame::Settings(SettingsFrame::from(settings)).encode(&mut bytes);
            bytes
        }

        fn request(&mut self, stream: u32, path: &str) -> Vec<u8> {
            self.request_as("GET", stream, path)
        }

        fn request_as(&mut self, method: &str, stream: u32, path: &str) -> Vec<u8> {
            let headers = vec![
                Header::new(":method", method),
                Header::new(":scheme", "https"),
                Header::new(":path", path),
                Header::new(":authority", "testbed.example"),
            ];
            let frames = self
                .core
                .encode_headers(StreamId::new(stream), &headers, true, None);
            h2wire::encode_all(&frames)
        }

        fn parse(&mut self, bytes: &[u8]) -> Vec<Frame> {
            self.decoder
                .set_max_frame_size(h2wire::settings::MAX_MAX_FRAME_SIZE);
            self.decoder.feed(bytes);
            self.decoder.drain_frames().expect("server output parses")
        }
    }

    fn serve(profile: ServerProfile) -> (H2Server, TestClient) {
        (
            H2Server::new(profile, SiteSpec::benchmark()),
            TestClient::new(),
        )
    }

    #[test]
    fn greeting_carries_announced_settings() {
        let (mut server, mut client) = serve(ServerProfile::nghttpd());
        let greeting = server.on_connect_vec(SimTime::ZERO);
        let frames = client.parse(&greeting);
        match &frames[0] {
            Frame::Settings(s) => {
                assert!(!s.ack);
                assert_eq!(s.settings.get(SettingId::MaxConcurrentStreams), Some(100));
            }
            other => panic!("expected settings, got {other:?}"),
        }
    }

    #[test]
    fn nginx_greeting_includes_window_update_after_zero_announcement() {
        let (mut server, mut client) = serve(ServerProfile::nginx());
        let frames = client.parse(&server.on_connect_vec(SimTime::ZERO));
        assert!(matches!(&frames[0], Frame::Settings(s)
            if s.settings.get(SettingId::InitialWindowSize) == Some(0)));
        assert!(matches!(&frames[1], Frame::WindowUpdate(wu)
            if wu.stream_id.is_connection() && wu.increment == 65_535));
    }

    #[test]
    fn get_returns_headers_then_data() {
        let (mut server, mut client) = serve(ServerProfile::rfc7540());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let req = client.request(1, "/");
        let reply = server.on_bytes_vec(SimTime::ZERO, &req);
        let frames = client.parse(&reply);
        let kinds: Vec<_> = frames.iter().map(|f| f.kind()).collect();
        assert!(kinds.contains(&h2wire::FrameKind::Headers));
        assert!(kinds.contains(&h2wire::FrameKind::Data));
        // Body fits in one window; last DATA ends the stream.
        let last_data = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Data(d) => Some(d),
                _ => None,
            })
            .next_back()
            .unwrap();
        assert!(last_data.end_stream);
    }

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
    fn ping_is_acked_without_processing_delay() {
        let (mut server, mut client) = serve(ServerProfile::apache());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let ping = Frame::Ping(PingFrame::request(*b"RTTprobe")).to_bytes();
        let reply = server.on_bytes_vec(SimTime::ZERO, &ping);
        assert_eq!(server.processing_delay(), SimDuration::ZERO);
        let frames = client.parse(&reply);
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::Ping(p) if p.ack && p.payload == *b"RTTprobe")));
    }

    #[test]
    fn request_sets_processing_delay() {
        let (mut server, mut client) = serve(ServerProfile::apache());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        assert!(server.processing_delay() > SimDuration::ZERO);
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
    fn flow_control_limits_data_frame_size_to_window() {
        // §III-B1: SETTINGS_INITIAL_WINDOW_SIZE=1 must yield 1-byte DATA.
        let (mut server, mut client) = serve(ServerProfile::h2o());
        let mut hello = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(
            Settings::new().with(SettingId::InitialWindowSize, 1),
        ))
        .encode(&mut hello);
        server.on_bytes_vec(SimTime::ZERO, &hello);
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/big/0"));
        let frames = client.parse(&reply);
        let data: Vec<&h2wire::DataFrame> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Data(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 1);
        assert_eq!(
            data[0].data.len(),
            1,
            "payload limited to the 1-byte window"
        );
        assert!(
            frames.iter().any(|f| matches!(f, Frame::Headers(_))),
            "HEADERS are not flow controlled on a conforming server"
        );
    }

    #[test]
    fn litespeed_withholds_headers_under_zero_window() {
        // §III-B2 / Table III row 5.
        let (mut server, mut client) = serve(ServerProfile::litespeed());
        let mut hello = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(
            Settings::new().with(SettingId::InitialWindowSize, 0),
        ))
        .encode(&mut hello);
        server.on_bytes_vec(SimTime::ZERO, &hello);
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        assert!(
            !frames.iter().any(|f| matches!(f, Frame::Headers(_))),
            "LiteSpeed applies flow control to HEADERS: {frames:?}"
        );

        // A conforming server still sends HEADERS.
        let (mut server, mut client) = serve(ServerProfile::nghttpd());
        let mut hello = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(
            Settings::new().with(SettingId::InitialWindowSize, 0),
        ))
        .encode(&mut hello);
        server.on_bytes_vec(SimTime::ZERO, &hello);
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::Headers(_))));
        assert!(!frames.iter().any(|f| matches!(f, Frame::Data(_))));
    }

    #[test]
    fn push_capable_server_sends_push_promise() {
        let site = SiteSpec::page_with_assets(2, 500);
        let mut server = H2Server::new(ServerProfile::h2o(), site);
        let mut client = TestClient::new();
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        let promises = frames
            .iter()
            .filter(|f| matches!(f, Frame::PushPromise(_)))
            .count();
        assert_eq!(promises, 2);
        // Pushed streams are even.
        for f in &frames {
            if let Frame::PushPromise(p) = f {
                assert!(p.promised_stream_id.is_server_initiated());
            }
        }
    }

    #[test]
    fn pushed_streams_serialize_under_client_concurrency_limit() {
        let site = SiteSpec::page_with_assets(3, 1_000);
        let mut server = H2Server::new(ServerProfile::rfc7540(), site);
        let mut client = TestClient::new();
        server.on_bytes_vec(
            SimTime::ZERO,
            &client.preface_with(Settings::new().with(SettingId::MaxConcurrentStreams, 1)),
        );
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        let promises = frames
            .iter()
            .filter(|f| matches!(f, Frame::PushPromise(_)))
            .count();
        assert_eq!(
            promises, 3,
            "§5.1.2 exempts reserved streams: all promises go out at once"
        );
        // But at most one pushed stream may be *active* at a time: each
        // pushed HEADERS must follow the END_STREAM of its predecessor.
        let mut active: Option<u32> = None;
        let mut completed = 0;
        for frame in &frames {
            match frame {
                Frame::Headers(h) if h.stream_id.is_server_initiated() => {
                    assert!(
                        active.is_none(),
                        "pushed stream {} activated while {:?} still open",
                        h.stream_id.value(),
                        active
                    );
                    active = Some(h.stream_id.value());
                }
                Frame::Data(d) if d.stream_id.is_server_initiated() && d.end_stream => {
                    assert_eq!(active, Some(d.stream_id.value()));
                    active = None;
                    completed += 1;
                }
                _ => {}
            }
        }
        assert_eq!(completed, 3, "every push eventually delivers");
    }

    #[test]
    fn resetting_a_gated_push_releases_the_next_promise() {
        // Assets sized so the connection window (65,535) runs dry with
        // the second push active and the third still gated on the
        // MAX_CONCURRENT_STREAMS=1 slot.
        let site = SiteSpec::page_with_assets(3, 30_000);
        let mut server = H2Server::new(ServerProfile::rfc7540(), site);
        let mut client = TestClient::new();
        server.on_bytes_vec(
            SimTime::ZERO,
            &client.preface_with(Settings::new().with(SettingId::MaxConcurrentStreams, 1)),
        );
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        let activated: Vec<u32> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Headers(h) if h.stream_id.is_server_initiated() => Some(h.stream_id.value()),
                _ => None,
            })
            .collect();
        assert!(
            !activated.contains(&6),
            "third push must stay gated while an earlier one is open: {activated:?}"
        );
        let gated_rst = Frame::RstStream(RstStreamFrame {
            stream_id: StreamId::new(*activated.last().expect("a push activated")),
            code: ErrorCode::Cancel,
        })
        .to_bytes();
        let reply = server.on_bytes_vec(SimTime::ZERO, &gated_rst);
        let frames = client.parse(&reply);
        assert!(
            frames
                .iter()
                .any(|f| matches!(f, Frame::Headers(h) if h.stream_id.value() == 6)),
            "cancelling the active push frees its slot for the gated one"
        );
    }

    #[test]
    fn push_incapable_server_sends_none() {
        let site = SiteSpec::page_with_assets(2, 500);
        let mut server = H2Server::new(ServerProfile::nginx(), site);
        let mut client = TestClient::new();
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        assert!(!frames.iter().any(|f| matches!(f, Frame::PushPromise(_))));
    }

    #[test]
    fn client_can_disable_push_via_settings() {
        let site = SiteSpec::page_with_assets(2, 500);
        let mut server = H2Server::new(ServerProfile::h2o(), site);
        let mut client = TestClient::new();
        let mut hello = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(
            Settings::new().with(SettingId::EnablePush, 0),
        ))
        .encode(&mut hello);
        server.on_bytes_vec(SimTime::ZERO, &hello);
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        let frames = client.parse(&reply);
        assert!(!frames.iter().any(|f| matches!(f, Frame::PushPromise(_))));
    }

    #[test]
    fn byzantine_handshake_stall_never_speaks() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            handshake_stall: true,
            ..h2fault::ByzantineSpec::default()
        });
        let (mut server, mut client) = serve(profile);
        assert!(server.on_connect_vec(SimTime::ZERO).is_empty());
        assert!(server
            .on_bytes_vec(SimTime::ZERO, &client.preface_and_settings())
            .is_empty());
        assert!(server
            .on_bytes_vec(SimTime::ZERO, &client.request(1, "/"))
            .is_empty());
    }

    #[test]
    fn byzantine_garbage_preface_is_unparseable_then_silence() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            garbage_preface: true,
            ..h2fault::ByzantineSpec::default()
        });
        let (mut server, client) = serve(profile);
        let greeting = server.on_connect_vec(SimTime::ZERO);
        assert!(!greeting.is_empty());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&greeting);
        assert!(decoder.drain_frames().is_err(), "greeting must not parse");
        assert!(server
            .on_bytes_vec(SimTime::ZERO, &client.preface_and_settings())
            .is_empty());
    }

    #[test]
    fn byzantine_truncation_cuts_output_then_goes_silent() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            truncate_after: Some(16),
            ..h2fault::ByzantineSpec::default()
        });
        let (mut server, mut client) = serve(profile);
        let greeting = server.on_connect_vec(SimTime::ZERO);
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        assert!(greeting.len() + reply.len() <= 16);
        assert!(server
            .on_bytes_vec(SimTime::ZERO, &client.request(1, "/"))
            .is_empty());
    }

    #[test]
    fn byzantine_reset_raises_wants_reset_after_budget() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            reset_after_bytes: Some(64),
            ..h2fault::ByzantineSpec::default()
        });
        let (mut server, mut client) = serve(profile);
        server.on_connect_vec(SimTime::ZERO);
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        assert!(!server.wants_reset(), "greeting alone is under budget");
        server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/"));
        assert!(
            server.wants_reset(),
            "response pushes emitted past 64 octets"
        );
    }

    #[test]
    fn byzantine_trickle_emits_one_tiny_chunk_per_exchange() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            trickle_data: Some(16),
            trickle_delay: SimDuration::from_millis(300),
            ..h2fault::ByzantineSpec::default()
        });
        let (mut server, mut client) = serve(profile);
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/big/0"));
        let frames = client.parse(&reply);
        let data: Vec<_> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Data(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 1, "one dribble per exchange: {frames:?}");
        assert!(data[0].data.len() <= 16);
        assert!(!data[0].end_stream);
        assert!(server.processing_delay() >= SimDuration::from_millis(300));
    }

    #[test]
    fn no_byzantine_spec_means_identical_output() {
        let (mut plain, mut client_a) = serve(ServerProfile::nginx());
        let mut noop = ServerProfile::nginx();
        noop.behavior.byzantine = Some(h2fault::ByzantineSpec::default());
        let (mut shaped, mut client_b) = serve(noop);
        for server in [&mut plain, &mut shaped] {
            server.on_connect_vec(SimTime::ZERO);
        }
        let a = plain.on_bytes_vec(SimTime::ZERO, &client_a.preface_and_settings());
        let b = shaped.on_bytes_vec(SimTime::ZERO, &client_b.preface_and_settings());
        assert_eq!(a, b);
        let a = plain.on_bytes_vec(SimTime::ZERO, &client_a.request(1, "/"));
        let b = shaped.on_bytes_vec(SimTime::ZERO, &client_b.request(1, "/"));
        assert_eq!(a, b);
        assert!(!plain.wants_reset() && !shaped.wants_reset());
    }

    #[test]
    fn rst_flood_past_budget_draws_enhance_your_calm() {
        // H2O budgets 400 client resets; nginx has no budget.
        let (mut server, mut client) = serve(ServerProfile::h2o());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let mut bytes = Vec::new();
        for k in 0..401u32 {
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
        assert!(reply.is_empty(), "nginx ignores unbounded RST churn");
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
    fn stalled_post_is_reaped_after_the_timeout() {
        // Apache's 30-second patience; nghttpd waits forever.
        let open_post = |client: &mut TestClient| {
            let headers = vec![
                Header::new(":method", "POST"),
                Header::new(":scheme", "https"),
                Header::new(":path", "/"),
                Header::new(":authority", "testbed.example"),
            ];
            let frames = client
                .core
                .encode_headers(StreamId::new(1), &headers, false, None);
            h2wire::encode_all(&frames)
        };
        let later = SimTime::ZERO + SimDuration::from_secs(31);
        let ping = Frame::Ping(PingFrame::request([7; 8])).to_bytes();

        let (mut server, mut client) = serve(ServerProfile::apache());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        server.on_bytes_vec(SimTime::ZERO, &open_post(&mut client));
        let reply = server.on_bytes_vec(later, &ping);
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::Goaway(g)
            if g.code == ErrorCode::EnhanceYourCalm)));

        let (mut server, mut client) = serve(ServerProfile::nghttpd());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        server.on_bytes_vec(SimTime::ZERO, &open_post(&mut client));
        let reply = server.on_bytes_vec(later, &ping);
        let frames = client.parse(&reply);
        assert!(frames.iter().any(|f| matches!(f, Frame::Ping(p) if p.ack)));
        assert!(!frames.iter().any(|f| matches!(f, Frame::Goaway(_))));
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

    #[test]
    fn head_gets_the_real_content_length_and_no_data() {
        let (mut server, mut client) = serve(ServerProfile::rfc7540());
        server.on_bytes_vec(SimTime::ZERO, &client.preface_and_settings());
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request_as("HEAD", 1, "/big/0"));
        let frames = client.parse(&reply);
        assert!(
            !frames.iter().any(|f| matches!(f, Frame::Data(_))),
            "HEAD carries no body"
        );
        let block = frames
            .iter()
            .find_map(|f| match f {
                Frame::Headers(h) => Some(h),
                _ => None,
            })
            .expect("response headers");
        assert!(block.end_stream, "END_STREAM rides on HEADERS");
        // First header block on the connection: a fresh context decodes it.
        let list = h2hpack::Decoder::new()
            .decode_block(&block.fragment)
            .unwrap();
        let length = list.iter().find(|h| h.name == "content-length").unwrap();
        assert_eq!(length.value, (256 * 1024).to_string());
        assert_eq!(server.pending_response_octets(), 0);
    }

    #[test]
    fn http1_head_gets_the_real_content_length_and_no_body() {
        let reply_to = |request: &[u8]| {
            let mut server =
                H2Server::new_cleartext(ServerProfile::rfc7540(), SiteSpec::benchmark());
            let reply = server.on_bytes_vec(SimTime::ZERO, request);
            assert!(server.is_closed(), "Connection: close");
            let end = find_double_crlf(&reply).expect("complete head") + 4;
            (
                String::from_utf8_lossy(&reply[..end]).to_string(),
                reply.len() - end,
            )
        };
        let (get_head, get_body) = reply_to(b"GET /big/0 HTTP/1.1\r\nHost: x\r\n\r\n");
        let (head_head, head_body) = reply_to(b"HEAD /big/0 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(get_head.contains("Content-Length: 262144\r\n"));
        assert_eq!(get_body, 256 * 1024);
        assert_eq!(head_head, get_head, "same header section as the GET");
        assert_eq!(head_body, 0);
    }

    #[test]
    fn bad_preface_closes_connection() {
        let mut server = H2Server::new(ServerProfile::rfc7540(), SiteSpec::benchmark());
        let reply = server.on_bytes_vec(SimTime::ZERO, b"GET / HTTP/1.1\r\nHost: x\r\n\r\nPAD-PAD");
        assert!(reply.is_empty());
        assert!(server.is_closed());
    }
}
