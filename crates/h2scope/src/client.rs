//! The frame-level probe connection.
//!
//! This is the heart of H2Scope's methodology: a client that speaks
//! HTTP/2 at the *frame* level, free to send protocol-violating frames
//! (zero window updates, self-dependencies, oversized increments) that no
//! general-purpose HTTP/2 library would emit, and to observe exactly
//! which frames come back and in what order.
//!
//! A connection keeps none of what it receives: [`ProbeConn::exchange`]
//! hands the new frames to the probe and forgets them, remembering only
//! the peer's first SETTINGS. Header blocks are HPACK-decoded in place
//! into the list the previous block was decoded into, once every caller
//! has let go of it.
//!
//! A dropped connection leaves its storage — the pipe's, the server's and
//! its own, every container emptied — to the next connection its thread
//! establishes, so a fresh connection starts with warm buffers, tables
//! and header lists.

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use h2hpack::{
    Decoder as HpackDecoder, Encoder as HpackEncoder, EncoderOptions, Header, TableScratch,
    DEFAULT_TABLE_SIZE,
};
use h2obs::Obs;
use h2server::{H2Server, ServerScratch};
use h2wire::settings::MAX_MAX_FRAME_SIZE;
use h2wire::{
    encode_all_into, Frame, FrameDecoder, FrameKind, HeadersFrame, PrioritySpec, SettingId,
    Settings, SettingsFrame, StreamId, WindowUpdateFrame, CONNECTION_PREFACE,
};
use netsim::pipe::BytesPool;
use netsim::time::SimTime;
use netsim::{Pipe, RunOutcome};

use crate::resilient::{FaultLog, ProbeFailure};
use crate::target::Target;

/// A received frame with its virtual arrival time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFrame {
    /// When the bytes carrying this frame arrived at the client.
    pub at: SimTime,
    /// The decoded frame.
    pub frame: Frame,
    /// For HEADERS/PUSH_PROMISE frames completing a header block: the
    /// HPACK-decoded list. Decoded eagerly, in arrival order, because
    /// HPACK contexts are stateful — skipping a block would corrupt every
    /// later decode. Shared (`Arc`) with the connection, which decodes
    /// the next block into this same list in place once the probe has
    /// dropped every handle to it, instead of allocating every header
    /// string afresh.
    pub headers: Option<Arc<Vec<Header>>>,
}

/// What a dropped [`ProbeConn`] leaves for the next one on its thread:
/// the pipe's storage, the server's, and the client's frame buffers,
/// HPACK tables, decode list and request template. Every container is
/// emptied (header lists keep their strings' capacity, not their text),
/// so a connection built in it behaves exactly as a cold one.
#[derive(Default)]
struct Spare {
    pool: BytesPool,
    server: ServerScratch,
    frames: Vec<u8>,
    wire: Vec<u8>,
    encoder: TableScratch,
    decoder: TableScratch,
    decoded: Option<Arc<Vec<Header>>>,
    request: Vec<Header>,
}

thread_local! {
    /// The calling thread's spare: [`ProbeConn::establish`] takes it and
    /// the drop of a connection puts one back. It follows the worker
    /// thread, never the (shared) `Target`, so no two threads share
    /// storage; a second connection alive on the same thread starts cold.
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

/// A frame-level HTTP/2 client connection to one [`Target`].
#[derive(Debug)]
pub struct ProbeConn {
    pipe: Pipe<H2Server>,
    decoder: FrameDecoder,
    hpack_decoder: HpackDecoder,
    hpack_encoder: HpackEncoder,
    assembler: h2conn::HeaderAssembler,
    authority: String,
    /// The peer's first non-ack SETTINGS, captured when it arrives.
    peer_settings: Option<Settings>,
    /// The list the last header block was decoded into; reused in place
    /// for the next block when this is the only handle left.
    last_headers: Option<Arc<Vec<Header>>>,
    /// Deadline for the whole connection in simulated time (`None` =
    /// testbed mode: run to quiescence, panic on garbage).
    deadline: Option<SimTime>,
    /// The connection hit a failure; further exchanges are no-ops.
    dead: bool,
    /// Shared failure channel (clone of the target's).
    log: FaultLog,
    /// Observability handle (clone of the target's; a no-op by default).
    obs: Obs,
    /// Reusable encode buffer so `send`/`send_all` stop allocating a
    /// fresh `Vec<u8>` per outgoing segment.
    wire_scratch: Vec<u8>,
    /// Reusable request-header template for [`ProbeConn::get`]: built on
    /// first use, then only the `:method` and `:path` values are rewritten
    /// in place, so repeat requests stop re-allocating seven headers'
    /// worth of `String`s.
    req_scratch: Vec<Header>,
    /// Frames and octets handed to the pipe so far, prelude included.
    sent: (u64, u64),
}

impl Drop for ProbeConn {
    fn drop(&mut self) {
        // The connection's virtual lifetime is its latency contribution:
        // every probe opens a fresh connection at t=0 and drops it when
        // done, so `now()` at drop is the whole exchange.
        self.obs.conn_finished(self.pipe.now().as_nanos());
        // A decode list a probe still holds stays with the probe.
        let mut decoded = self.last_headers.take();
        match decoded.as_mut().and_then(Arc::get_mut) {
            Some(list) => list.iter_mut().for_each(Header::clear),
            None => decoded = None,
        }
        let mut request = std::mem::take(&mut self.req_scratch);
        request.iter_mut().for_each(Header::clear);
        let mut wire = std::mem::take(&mut self.wire_scratch);
        wire.clear();
        let spare = Spare {
            pool: self.pipe.take_pool(),
            server: self.pipe.server_mut().take_scratch(),
            frames: self.decoder.take_scratch(),
            wire,
            encoder: self.hpack_encoder.take_scratch(),
            decoder: self.hpack_decoder.take_scratch(),
            decoded,
            request,
        };
        // Ignored when the thread is already tearing its locals down.
        let _ = SPARE.try_with(|cell| cell.set(Some(spare)));
    }
}

impl ProbeConn {
    /// Opens a connection and performs the HTTP/2 prelude: preface plus
    /// the client's SETTINGS (the knob most probes customize).
    pub fn establish(target: &Target, client_settings: Settings, seed: u64) -> ProbeConn {
        let spare = SPARE.take().unwrap_or_default();
        let pipe = target.connect(seed, spare.pool, spare.server);
        let mut decoder = FrameDecoder::new_in(spare.frames);
        // The probe accepts any frame size: it must observe rather than
        // police what servers send.
        decoder.set_max_frame_size(MAX_MAX_FRAME_SIZE);
        let mut hpack_decoder = HpackDecoder::new_in(DEFAULT_TABLE_SIZE, spare.decoder);
        // Our announced SETTINGS govern what the server may do to us: a
        // larger HEADER_TABLE_SIZE permits larger table-size updates in
        // the server's header blocks.
        if let Some(size) = client_settings.get(SettingId::HeaderTableSize) {
            hpack_decoder.set_protocol_max_table_size(size);
        }
        let mut conn = ProbeConn {
            pipe,
            decoder,
            hpack_decoder,
            hpack_encoder: HpackEncoder::new_in(EncoderOptions::default(), spare.encoder),
            assembler: h2conn::HeaderAssembler::new(),
            authority: target.site.authority.clone(),
            peer_settings: None,
            last_headers: spare.decoded,
            deadline: target.patience.map(|p| SimTime::ZERO + p),
            dead: false,
            log: target.fault_log.clone(),
            obs: target.obs.clone(),
            wire_scratch: spare.wire,
            req_scratch: spare.request,
            sent: (0, 0),
        };
        conn.wire_scratch.extend_from_slice(CONNECTION_PREFACE);
        Frame::Settings(SettingsFrame::from(client_settings)).encode(&mut conn.wire_scratch);
        // The prelude SETTINGS bypasses `send`, so count it here.
        conn.obs
            .frame_sent(FrameKind::Settings.to_u8(), conn.pipe.now().as_nanos());
        conn.sent = (1, conn.wire_scratch.len() as u64);
        conn.pipe.client_send(&conn.wire_scratch);
        conn
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.pipe.now()
    }

    /// Advances the virtual clock without sending traffic (think
    /// `sleep`). Slow attack clients use this to model a client that goes
    /// quiet mid-request and waits out the server's patience.
    pub fn advance(&mut self, d: netsim::time::SimDuration) {
        self.pipe.advance(d);
    }

    /// Access to the server under probe (testbed-mode inspection).
    pub fn server(&self) -> &H2Server {
        self.pipe.server()
    }

    /// Frames and octets this connection has handed to the wire: the
    /// preface and SETTINGS of the prelude plus everything sent since.
    pub fn sent(&self) -> (u64, u64) {
        self.sent
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: Frame) {
        self.send_all(std::slice::from_ref(&frame));
    }

    /// Sends several frames as one segment.
    pub fn send_all(&mut self, frames: &[Frame]) {
        for frame in frames {
            self.obs
                .frame_sent(frame.kind().to_u8(), self.pipe.now().as_nanos());
        }
        self.wire_scratch.clear();
        encode_all_into(frames, &mut self.wire_scratch);
        self.sent.0 += frames.len() as u64;
        self.sent.1 += self.wire_scratch.len() as u64;
        self.pipe.client_send(&self.wire_scratch);
    }

    /// Sends a GET request on `stream`, optionally with priority fields.
    pub fn get(&mut self, stream: u32, path: &str, priority: Option<PrioritySpec>) {
        self.request(stream, "GET", path, priority);
    }

    /// Sends a bodiless `method` request (GET or HEAD) on `stream`.
    fn request(&mut self, stream: u32, method: &str, path: &str, priority: Option<PrioritySpec>) {
        let mut request = std::mem::take(&mut self.req_scratch);
        match request.as_mut_slice() {
            [m, _, p, ..] if p.name == ":path" => {
                m.set(":method", method);
                p.set(":path", path);
            }
            // Not built yet on this connection (empty, or cleared storage).
            _ => self.request_headers_into(method, path, &mut request),
        }
        let block = self.hpack_encoder.encode_block(&request);
        self.req_scratch = request;
        self.send(Frame::Headers(HeadersFrame {
            stream_id: StreamId::new(stream),
            fragment: block.into(),
            end_stream: true,
            end_headers: true,
            priority,
            pad_len: None,
        }));
    }

    /// Encodes `headers` through the connection's HPACK context and
    /// sends the block as HEADERS plus however many CONTINUATION frames
    /// the fragment needs (split at 16 000 octets, under the default
    /// SETTINGS_MAX_FRAME_SIZE).
    ///
    /// Unlike [`ProbeConn::get`] this takes an arbitrary header list, so
    /// probes can build oversized lists (SETTINGS_MAX_HEADER_LIST_SIZE
    /// probing) or bodied requests (slow-POST) on any stream.
    pub fn send_header_block(&mut self, stream: u32, headers: &[Header], end_stream: bool) {
        const FRAGMENT: usize = 16_000;
        let block: Bytes = self.hpack_encoder.encode_block(headers).into();
        let len = block.len();
        let mut offset = len.min(FRAGMENT);
        self.send(Frame::Headers(HeadersFrame {
            stream_id: StreamId::new(stream),
            fragment: block.slice(..offset),
            end_stream,
            end_headers: offset == len,
            priority: None,
            pad_len: None,
        }));
        while offset < len {
            let next = len.min(offset + FRAGMENT);
            self.send(Frame::Continuation(h2wire::ContinuationFrame {
                stream_id: StreamId::new(stream),
                fragment: block.slice(offset..next),
                end_headers: next == len,
            }));
            offset = next;
        }
    }

    /// The standard request header list the probe sends.
    pub fn request_headers(&self, path: &str) -> Vec<Header> {
        let mut headers = Vec::with_capacity(7);
        self.request_headers_into("GET", path, &mut headers);
        headers
    }

    /// Overwrites `out` with [`ProbeConn::request_headers`] for `method`,
    /// reusing its entries' capacity.
    fn request_headers_into(&self, method: &str, path: &str, out: &mut Vec<Header>) {
        let fields = [
            (":method", method),
            (":scheme", "https"),
            (":path", path),
            (":authority", &self.authority),
            ("user-agent", "h2scope/0.1"),
            ("accept", "*/*"),
            ("accept-encoding", "gzip, deflate"),
        ];
        out.resize_with(fields.len(), || Header::new(String::new(), String::new()));
        for (header, (name, value)) in out.iter_mut().zip(fields) {
            header.set(name, value);
        }
    }

    /// Runs the network and returns the newly received frames, with
    /// header blocks HPACK-decoded in arrival order. The connection keeps
    /// none of them; only the peer's first SETTINGS is remembered (see
    /// [`ProbeConn::server_settings`]).
    ///
    /// Without a deadline (testbed mode) the pipe runs to quiescence and
    /// unparseable server output panics — bugs in the engine, not
    /// measurable behaviors. With a deadline (fault campaigns) the
    /// exchange is guarded: it stops at the deadline, and timeouts,
    /// connection resets and malformed bytes are recorded in the target's
    /// fault log instead of panicking. A failed connection goes dead:
    /// later exchanges return nothing.
    pub fn exchange(&mut self) -> Vec<TimedFrame> {
        if self.dead {
            return Vec::new();
        }
        let (mut arrivals, outcome) = match self.deadline {
            Some(deadline) => self.pipe.run_until(deadline),
            None => (self.pipe.run_to_quiescence(), RunOutcome::Quiescent),
        };
        let mut new_frames = Vec::new();
        'arrivals: for arrival in arrivals.drain(..) {
            // Wrapping the delivery in `Bytes` is free (the Vec's heap
            // block is adopted, not copied) and lets every DATA payload
            // below be a refcounted slice of the segment.
            let mut input = Bytes::from(arrival.bytes);
            loop {
                let frame = match self.decoder.next_frame_shared(&mut input) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        self.unparseable(&e);
                        break 'arrivals;
                    }
                };
                let headers = match self.try_decode_block_of(&frame) {
                    Ok(headers) => headers,
                    Err(e) => {
                        self.unparseable(&e);
                        break 'arrivals;
                    }
                };
                self.obs
                    .frame_received(frame.kind().to_u8(), arrival.at.as_nanos());
                if let Frame::Settings(s) = &frame {
                    if !s.ack && self.peer_settings.is_none() {
                        self.peer_settings = Some(s.settings.clone());
                    }
                }
                new_frames.push(TimedFrame {
                    at: arrival.at,
                    frame,
                    headers,
                });
            }
            // If no decoded frame kept a slice of the segment alive (no
            // DATA in it), hand the buffer back to the pipe's pool;
            // otherwise the payload slices own it now.
            if let Ok(buf) = input.try_into_vec() {
                self.pipe.recycle(buf);
            }
        }
        self.pipe.recycle_arrivals(arrivals);
        if !self.dead {
            match outcome {
                // A guarded link that fell silent part-way through a frame
                // will never finish it: the peer stopped mid-frame, and
                // waiting for the rest runs into the deadline.
                RunOutcome::Quiescent
                    if self.deadline.is_some() && self.decoder.buffered_len() > 0 =>
                {
                    self.fail(ProbeFailure::Timeout);
                }
                RunOutcome::Quiescent => {}
                RunOutcome::DeadlineExpired => self.fail(ProbeFailure::Timeout),
                RunOutcome::ConnectionReset => self.fail(ProbeFailure::ConnReset),
            }
        }
        new_frames
    }

    /// Guarded mode: drains whatever is still in flight, then charges the
    /// remaining silence against the deadline — a probe that would
    /// otherwise conclude "no response" instead observes a timeout, which
    /// is what the paper's scanner saw from the wild. Testbed mode: plain
    /// exchange.
    pub fn await_deadline(&mut self) -> Vec<TimedFrame> {
        let frames = self.exchange();
        if self.deadline.is_some() && !self.dead {
            self.fail(ProbeFailure::Timeout);
        }
        frames
    }

    /// `true` once the connection failed (guarded mode only).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The server sent bytes that do not parse. Guarded mode records the
    /// failure; in testbed mode it is an engine bug, not a measurable
    /// behavior (see [`ProbeConn::exchange`]).
    #[expect(clippy::panic, reason = "testbed mode surfaces engine bugs")]
    fn unparseable(&mut self, what: &dyn std::fmt::Display) {
        if self.deadline.is_none() {
            panic!("server output parses: {what}");
        }
        self.fail(ProbeFailure::Malformed);
    }

    fn fail(&mut self, failure: ProbeFailure) {
        self.dead = true;
        let at = self.pipe.now().as_nanos();
        match failure {
            ProbeFailure::Timeout => self.obs.timeout(at),
            ProbeFailure::ConnReset => self.obs.reset(at),
            ProbeFailure::Malformed => self.obs.malformed(at),
        }
        self.log.record(failure);
    }

    /// Decodes the header block carried by HEADERS/PUSH_PROMISE/
    /// CONTINUATION frames, maintaining assembly state across fragments.
    fn try_decode_block_of(
        &mut self,
        frame: &Frame,
    ) -> Result<Option<Arc<Vec<Header>>>, &'static str> {
        use h2conn::BlockKind;
        let complete = match frame {
            Frame::Headers(h) => self.assembler.start(
                h.stream_id,
                BlockKind::Headers,
                &h.fragment,
                h.end_stream,
                h.end_headers,
                h.priority,
            ),
            Frame::PushPromise(p) => self.assembler.start(
                p.stream_id,
                BlockKind::PushPromise {
                    promised: p.promised_stream_id,
                },
                &p.fragment,
                false,
                p.end_headers,
                None,
            ),
            Frame::Continuation(c) => self.assembler.continuation(c),
            _ => return Ok(None),
        }
        .map_err(|_| "server respects continuation discipline")?;
        let Some(block) = complete else {
            return Ok(None);
        };
        let decoded = match self.last_headers.as_mut().and_then(Arc::get_mut) {
            Some(list) => self.hpack_decoder.decode_block_into(&block.fragment, list),
            None => self
                .hpack_decoder
                .decode_block(&block.fragment)
                .map(|list| {
                    self.last_headers = Some(Arc::new(list));
                }),
        };
        decoded.map_err(|_| "server header blocks decode")?;
        self.obs.header_block(block.fragment.len() as u64);
        Ok(self.last_headers.clone())
    }

    /// Sends WINDOW_UPDATE frames replenishing both the connection window
    /// and `stream`'s window by `octets` (the standard client reaction to
    /// consumed DATA).
    pub fn replenish(&mut self, stream: u32, octets: u32) {
        if octets == 0 {
            return;
        }
        self.send_all(&[
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment: octets,
            }),
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::new(stream),
                increment: octets,
            }),
        ]);
    }

    /// Fetches `path` on `stream` to completion, replenishing windows as
    /// data arrives. Returns all frames received during the fetch and the
    /// completion time.
    pub fn fetch(&mut self, stream: u32, path: &str) -> (Vec<TimedFrame>, SimTime) {
        self.fetch_as(stream, "GET", path)
    }

    /// [`ProbeConn::fetch`] with `method` (GET or HEAD): a HEAD response
    /// is complete at its HEADERS, which carry END_STREAM.
    pub(crate) fn fetch_as(
        &mut self,
        stream: u32,
        method: &str,
        path: &str,
    ) -> (Vec<TimedFrame>, SimTime) {
        let guarded = self.deadline.is_some();
        self.request(stream, method, path, None);
        let mut all = Vec::new();
        let mut completed = false;
        loop {
            let frames = self.exchange();
            if frames.is_empty() {
                break;
            }
            let mut done = false;
            for tf in &frames {
                match &tf.frame {
                    Frame::Data(d) => {
                        let octets = d.flow_controlled_len();
                        let sid = d.stream_id.value();
                        if d.end_stream && sid == stream {
                            done = true;
                        }
                        self.replenish(sid, octets);
                    }
                    Frame::Headers(h) if h.end_stream && h.stream_id.value() == stream => {
                        done = true;
                    }
                    // Guarded mode treats stream/connection termination as
                    // the end of the fetch rather than waiting for silence.
                    Frame::RstStream(r) if guarded && r.stream_id.value() == stream => {
                        done = true;
                    }
                    Frame::Goaway(_) if guarded => {
                        done = true;
                    }
                    _ => {}
                }
            }
            all.extend(frames);
            if done {
                // Drain any trailing frames already in flight.
                all.extend(self.exchange());
                completed = true;
                break;
            }
        }
        if guarded && !completed && !self.dead {
            // The server went silent mid-transfer; in the wild that is a
            // timeout, not a completed measurement.
            self.fail(ProbeFailure::Timeout);
        }
        let at = self.now();
        (all, at)
    }

    /// Convenience: the settings frame the server announced (its first
    /// non-ack SETTINGS), if received.
    pub fn server_settings(&self) -> Option<&Settings> {
        self.peer_settings.as_ref()
    }

    /// Convenience: the announced value of one parameter.
    pub fn announced(&self, id: SettingId) -> Option<u32> {
        self.server_settings().and_then(|s| s.get(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn target() -> Target {
        Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark())
    }

    #[test]
    fn establish_receives_server_settings() {
        let mut conn = ProbeConn::establish(&target(), Settings::new(), 1);
        conn.exchange();
        assert!(conn.server_settings().is_some());
        assert_eq!(conn.announced(SettingId::MaxConcurrentStreams), Some(100));
    }

    #[test]
    fn fetch_completes_large_object_with_window_replenishment() {
        let mut conn = ProbeConn::establish(&target(), Settings::new(), 1);
        conn.exchange();
        let (frames, _) = conn.fetch(1, "/big/0");
        let data_octets: usize = frames
            .iter()
            .filter_map(|tf| match &tf.frame {
                Frame::Data(d) => Some(d.data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(data_octets, 256 * 1024, "entire object transferred");
        assert!(frames
            .iter()
            .any(|tf| matches!(&tf.frame, Frame::Data(d) if d.end_stream)));
    }

    #[test]
    fn header_blocks_are_decoded_eagerly_in_order() {
        let mut conn = ProbeConn::establish(&target(), Settings::new(), 1);
        conn.exchange();
        let (frames1, _) = conn.fetch(1, "/");
        let (frames2, _) = conn.fetch(3, "/");
        let mut sizes = Vec::new();
        for frames in [frames1, frames2] {
            for tf in frames {
                if let Frame::Headers(h) = &tf.frame {
                    sizes.push(h.fragment.len());
                    let headers = tf.headers.as_ref().expect("decoded eagerly");
                    assert!(headers.iter().any(|hd| hd.name == ":status"));
                }
            }
        }
        assert_eq!(sizes.len(), 2);
        assert!(sizes[1] < sizes[0], "indexed second response is smaller");
    }

    #[test]
    fn announced_settings_survive_a_long_connection() {
        let mut conn = ProbeConn::establish(&target(), Settings::new(), 1);
        conn.exchange();
        for k in 0..200 {
            let (frames, _) = conn.fetch(1 + 2 * k, "/");
            assert!(!frames.is_empty());
        }
        assert_eq!(conn.announced(SettingId::MaxConcurrentStreams), Some(100));
    }

    #[test]
    fn a_released_header_list_is_reused_and_a_held_one_is_not() {
        let mut conn = ProbeConn::establish(&target(), Settings::new(), 1);
        conn.exchange();
        let list_of = |frames: &[TimedFrame]| {
            frames
                .iter()
                .find_map(|tf| tf.headers.clone())
                .expect("a response header block")
        };
        let held = list_of(&conn.fetch(1, "/").0);
        let second = list_of(&conn.fetch(3, "/").0);
        assert!(
            !Arc::ptr_eq(&held, &second),
            "a held list is never overwritten"
        );
        assert!(held.iter().any(|h| h.name == ":status"));
        let at = Arc::as_ptr(&second);
        drop(second);
        let third = list_of(&conn.fetch(5, "/").0);
        assert_eq!(Arc::as_ptr(&third), at, "a released list is decoded into");
        assert!(third
            .iter()
            .any(|h| h.name == ":status" && h.value == "200"));
    }

    #[test]
    fn guarded_connection_records_one_malformed_and_keeps_earlier_frames() {
        use netsim::time::SimDuration;
        let guarded = |profile: ServerProfile| {
            let mut target = Target::testbed(profile, SiteSpec::benchmark());
            target.patience = Some(SimDuration::from_secs(30));
            target
        };
        // A greeting that is not HTTP/2 at all: nothing decodes, one
        // failure is logged, and the dead connection stays quiet.
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            garbage_preface: true,
            ..h2fault::ByzantineSpec::default()
        });
        let target = guarded(profile);
        let mut conn = ProbeConn::establish(&target, Settings::new(), 1);
        assert!(conn.exchange().is_empty());
        assert!(conn.is_dead());
        assert!(conn.exchange().is_empty());
        assert!(conn.server_settings().is_none());
        assert_eq!(target.fault_log.len(), 1);
        assert_eq!(target.fault_log.first(), Some(ProbeFailure::Malformed));

        // A segment that goes bad part-way (a DATA frame this decoder
        // refuses, behind the response HEADERS): the frames before the
        // bad one are returned, decoded, and the rest is dropped.
        let target = guarded(ServerProfile::rfc7540());
        let mut conn = ProbeConn::establish(&target, Settings::new(), 1);
        assert!(!conn.exchange().is_empty());
        conn.decoder.set_max_frame_size(1_024);
        conn.get(1, "/big/0", None);
        let frames = conn.exchange();
        let Some(last) = frames.last() else {
            panic!("the response HEADERS arrive before the bad frame");
        };
        assert!(matches!(&last.frame, Frame::Headers(h) if h.stream_id.value() == 1));
        let status = last.headers.as_ref().and_then(|hs| {
            hs.iter()
                .find(|h| h.name == ":status")
                .map(|h| h.value.clone())
        });
        assert_eq!(status.as_deref(), Some("200"));
        assert!(!frames.iter().any(|tf| matches!(tf.frame, Frame::Data(_))));
        assert!(conn.is_dead());
        assert!(conn.exchange().is_empty());
        assert_eq!(target.fault_log.len(), 1);
        assert_eq!(target.fault_log.first(), Some(ProbeFailure::Malformed));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let mut conn = ProbeConn::establish(&target(), Settings::new(), 1);
        conn.exchange();
        let (frames, _) = conn.fetch(1, "/big/1");
        assert!(frames.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
