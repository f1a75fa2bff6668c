//! The transport shell around the engine: the [`ByteEndpoint`] impl the
//! simulator drives, the connection preface and the cleartext
//! HTTP/1.1 → h2c upgrade path, the greeting, and the byzantine shaping
//! of whatever the engine emits.

#![allow(
    clippy::indexing_slicing,
    reason = "byte offsets length-checked against the preface buffer"
)]

use std::sync::Arc;

use h2hpack::Header;
use h2wire::{
    encode_all_into, Frame, SettingsFrame, StreamId, WindowUpdateFrame, CONNECTION_PREFACE,
};
use netsim::http1::write_response_head;
use netsim::pipe::ByteEndpoint;
use netsim::time::{SimDuration, SimTime};

use crate::engine::{H2Server, NOT_FOUND};
use crate::profiles::ServerProfile;
use crate::site::SiteSpec;

/// Index of the first `\r\n\r\n` in `buf`, if complete.
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
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
        self.on_bytes_inner(bytes, out);
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

    fn on_bytes_inner(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
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
                self.try_h1(out);
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
    fn try_h1(&mut self, out: &mut Vec<u8>) {
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
                self.on_bytes_inner(&buffered, out);
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
        // One allocation for the whole segment, not growth by doubling:
        // a bulk segment runs to hundreds of KB.
        out.reserve_exact(frames.iter().map(Frame::encoded_len).sum());
        encode_all_into(&frames, out);
        self.frame_scratch = frames;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use h2conn::{ConnectionCore, EffectiveSettings, Role};
    use h2hpack::EncoderOptions;
    use h2wire::{FrameDecoder, PingFrame, SettingId, Settings};

    /// A minimal hand-rolled client for driving the server byte for byte
    /// (shared with the `engine` and `pump` tests).
    pub(crate) struct TestClient {
        pub(crate) core: ConnectionCore,
        decoder: FrameDecoder,
    }

    impl TestClient {
        pub(crate) fn new() -> TestClient {
            TestClient {
                core: ConnectionCore::new(
                    Role::Client,
                    EffectiveSettings::default(),
                    EncoderOptions::default(),
                ),
                decoder: FrameDecoder::new(),
            }
        }

        pub(crate) fn preface_and_settings(&self) -> Vec<u8> {
            self.preface_with(Settings::new())
        }

        pub(crate) fn preface_with(&self, settings: Settings) -> Vec<u8> {
            let mut bytes = CONNECTION_PREFACE.to_vec();
            Frame::Settings(SettingsFrame::from(settings)).encode(&mut bytes);
            bytes
        }

        pub(crate) fn request(&mut self, stream: u32, path: &str) -> Vec<u8> {
            self.request_as("GET", stream, path)
        }

        pub(crate) fn request_as(&mut self, method: &str, stream: u32, path: &str) -> Vec<u8> {
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

        pub(crate) fn parse(&mut self, bytes: &[u8]) -> Vec<Frame> {
            self.decoder
                .set_max_frame_size(h2wire::settings::MAX_MAX_FRAME_SIZE);
            self.decoder.feed(bytes);
            self.decoder.drain_frames().expect("server output parses")
        }
    }

    pub(crate) fn serve(profile: ServerProfile) -> (H2Server, TestClient) {
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
