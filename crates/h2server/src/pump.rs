//! The response pump: the queue of responses waiting on the wire, the
//! release of their HEADERS, and the one DATA scheduler whose per-mode
//! phase table is what the paper's §V-D/§V-E priority findings measure.

#![allow(
    clippy::indexing_slicing,
    reason = "queue indices bounded by the scan loops; byte offsets length-checked"
)]

use bytes::Bytes;

use h2conn::Role;
use h2hpack::Header;
use h2wire::{DataFrame, ErrorCode, Frame, StreamId};
use netsim::time::SimTime;

use crate::behavior::{HeadersFlowControl, PriorityMode};
use crate::engine::H2Server;

#[derive(Debug)]
pub(crate) struct QueuedResponse {
    pub(crate) stream: StreamId,
    /// Response headers not yet sent (None once on the wire).
    headers: Option<Vec<Header>>,
    body: Bytes,
    offset: usize,
    /// A zero-length DATA marker has been emitted while blocked.
    sent_zero_marker: bool,
    /// Virtual time the response was queued — the stall-timeout clock.
    enqueued_at: SimTime,
}

impl QueuedResponse {
    pub(crate) fn remaining(&self) -> usize {
        self.body.len() - self.offset
    }
    fn body_ready(&self) -> bool {
        self.headers.is_none() && self.remaining() > 0
    }
}

/// How one DATA phase chooses among the ready streams.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// The earliest-queued ready response (FCFS).
    First,
    /// The priority tree's choice.
    Tree,
    /// The ready response after the round-robin cursor.
    RoundRobin,
}

/// The DATA phases of a server in `mode`, run in order:
/// `(fresh_only, pick)`, where `fresh_only` restricts the phase to
/// responses that have not sent any body yet.
fn phases(mode: PriorityMode) -> &'static [(bool, Pick)] {
    match mode {
        PriorityMode::Strict => &[(false, Pick::Tree)],
        PriorityMode::None => &[(false, Pick::RoundRobin)],
        // First chunk of each response flushes FCFS, then strict
        // priority governs completion order.
        PriorityMode::CompletionOrder => &[(true, Pick::First), (false, Pick::Tree)],
        // First chunks follow the tree, the remainder is plain
        // round-robin.
        PriorityMode::FirstFrameOnly => &[(true, Pick::Tree), (false, Pick::RoundRobin)],
    }
}

/// The zero-length DATA frame a buggy server emits instead of waiting
/// silently on a closed window (§V-D1).
fn zero_marker(stream: StreamId) -> Frame {
    Frame::Data(DataFrame {
        stream_id: stream,
        data: Bytes::new(),
        end_stream: false,
        pad_len: None,
    })
}

impl H2Server {
    /// Response octets queued but not yet released by flow control — the
    /// memory an attacker pins with the slow-receiver pattern (§VI).
    pub fn pending_response_octets(&self) -> u64 {
        self.queue.iter().map(|q| q.remaining() as u64).sum()
    }

    pub(crate) fn enqueue_response(&mut self, stream: StreamId, headers: Vec<Header>, body: Bytes) {
        self.queue.push(QueuedResponse {
            stream,
            headers: Some(headers),
            body,
            offset: 0,
            sent_zero_marker: false,
            enqueued_at: self.now,
        });
    }

    /// The stall-timeout quirk: a server that reaps connections whose
    /// responses have sat flow-control-blocked (or whose request bodies
    /// have trickled) past its patience. Checked whenever traffic gives
    /// the engine a chance to observe the clock — which is exactly how
    /// event-driven servers implement it. The queue's head is its oldest
    /// response: responses join at the back as the clock advances, and
    /// removals keep the order.
    fn check_stalls(&mut self, out: &mut Vec<Frame>) {
        let Some(timeout) = self.behavior().stall_timeout else {
            return;
        };
        let now = self.now;
        let stalled = self
            .queue
            .first()
            .is_some_and(|q| now >= q.enqueued_at + timeout)
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
    /// DATA according to the scheduling discipline.
    pub(crate) fn pump(&mut self, out: &mut Vec<Frame>) {
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
            if !push_gated {
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
            Some(limit) => (self.core.streams().active(Role::Server) as u64) < u64::from(limit),
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
        let headers_flow_control = self.behavior().headers_flow_control;
        let mut i = 0;
        while i < self.queue.len() {
            let stream = self.queue[i].stream;
            let Some(headers) = &self.queue[i].headers else {
                i += 1;
                continue;
            };
            // A promised response waits here until the client's
            // concurrency limit has room for one more pushed stream
            // (§5.1.2); completions and resets free slots.
            if stream.is_server_initiated() && !self.may_activate_push() {
                i += 1;
                continue;
            }
            let stream_window = || {
                self.core.streams().get(stream).map_or(
                    i64::from(self.core.remote_settings().initial_window_size),
                    |s| s.send_window.available(),
                )
            };
            let permitted = match headers_flow_control {
                HeadersFlowControl::Off => true,
                HeadersFlowControl::AtZeroWindow => stream_window() > 0,
                HeadersFlowControl::Full => {
                    let estimate = Self::estimate_block_size(headers);
                    stream_window() >= estimate && self.core.connection_send_window() >= estimate
                }
            };
            if permitted {
                if let Some(headers) = self.queue[i].headers.take() {
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
        for &(fresh_only, pick) in phases(self.behavior().priority_mode) {
            self.pump_data(fresh_only, pick, out);
        }
        // Phase 3: zero-length DATA markers for blocked streams (quirk).
        if self.behavior().zero_len_data_when_blocked {
            for q in &mut self.queue {
                if q.body_ready() && !q.sent_zero_marker {
                    let window = self
                        .core
                        .streams()
                        .get(q.stream)
                        .map_or(0, |s| s.send_window.available());
                    if window <= 0 || self.core.connection_send_window() <= 0 {
                        q.sent_zero_marker = true;
                        out.push(zero_marker(q.stream));
                    }
                }
            }
        }
    }

    /// Sends one DATA chunk on `queue[index]`, removing the response once
    /// its last chunk is out; `false` ends the current DATA phase.
    fn send_chunk(&mut self, index: usize, out: &mut Vec<Frame>) -> bool {
        let stream = self.queue[index].stream;
        let sendable = self.core.sendable_on(stream) as usize;
        let remaining = self.queue[index].remaining();
        // Byzantine trickle: dribble one tiny DATA chunk per exchange,
        // each charged a long processing delay, so the transfer crawls in
        // simulated time and only a probe deadline ends it.
        let byz = self.byz();
        let trickle = byz.trickle_data;
        // The buggy population from §V-D1: instead of trickling data
        // through a *small* window, emit one zero-length DATA and stall
        // until the window grows. A window big enough for a useful chunk
        // (or the whole remainder) is used normally. The quirk is the
        // site's own behavior, so it wins over an injected trickle.
        const TRICKLE_THRESHOLD: usize = 1_024;
        if self.behavior().zero_len_data_when_blocked && sendable < remaining.min(TRICKLE_THRESHOLD)
        {
            if !self.queue[index].sent_zero_marker {
                self.queue[index].sent_zero_marker = true;
                out.push(zero_marker(stream));
            }
            return false;
        }
        if sendable == 0 {
            return false;
        }
        let chunk = sendable
            .min(remaining)
            .min(trickle.map_or(usize::MAX, |t| t.max(1)));
        let offset = self.queue[index].offset;
        let data = self.queue[index].body.slice(offset..offset + chunk);
        out.push(self.core.send_data(stream, data, chunk == remaining));
        if chunk == remaining {
            self.queue.remove(index);
        } else {
            self.queue[index].offset += chunk;
        }
        if trickle.is_some() {
            self.last_delay = self.last_delay + byz.trickle_delay;
        }
        trickle.is_none()
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

    /// The DATA scheduler: sends chunk by chunk to the ready stream
    /// `pick` chooses — with `fresh_only`, among those yet to send their
    /// first chunk — until nothing is ready or a chunk ends the phase.
    /// With the connection window closed no stream is ready, so the queue
    /// is not scanned.
    fn pump_data(&mut self, fresh_only: bool, pick: Pick, out: &mut Vec<Frame>) {
        let mut ready = std::mem::take(&mut self.ready_scratch);
        while self.core.connection_send_window() > 0 {
            self.collect_ready(fresh_only, &mut ready);
            let next = match pick {
                Pick::First => ready.first().copied(),
                // Streams with queued data but absent from the tree (e.g.
                // pushed streams): first chunks go lowest id first, the
                // rest FIFO.
                Pick::Tree => self.core.priority_mut().next_stream(&ready).or_else(|| {
                    if fresh_only {
                        ready.iter().min().copied()
                    } else {
                        ready.first().copied()
                    }
                }),
                Pick::RoundRobin if ready.is_empty() => None,
                Pick::RoundRobin => {
                    self.rr_cursor = (self.rr_cursor + 1) % ready.len();
                    Some(ready[self.rr_cursor])
                }
            };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{serve, TestClient};
    use crate::{ServerProfile, SiteSpec};
    use h2wire::{
        PingFrame, RstStreamFrame, SettingId, Settings, SettingsFrame, CONNECTION_PREFACE,
    };
    use netsim::pipe::ByteEndpoint;
    use netsim::time::SimDuration;

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
    fn zero_length_quirk_wins_over_an_injected_trickle() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.zero_len_data_when_blocked = true;
        profile.behavior.byzantine = Some(h2fault::ByzantineSpec {
            trickle_data: Some(16),
            trickle_delay: SimDuration::from_millis(300),
            ..h2fault::ByzantineSpec::default()
        });
        let (mut server, mut client) = serve(profile);
        server.on_bytes_vec(
            SimTime::ZERO,
            &client.preface_with(Settings::new().with(SettingId::InitialWindowSize, 1)),
        );
        let reply = server.on_bytes_vec(SimTime::ZERO, &client.request(1, "/big/0"));
        let frames = client.parse(&reply);
        let first_data = frames.iter().find_map(|f| match f {
            Frame::Data(d) => Some(d.data.len()),
            _ => None,
        });
        assert_eq!(first_data, Some(0), "{frames:?}");
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
}
