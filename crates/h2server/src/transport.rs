//! The transport shell around the engine: the [`ByteEndpoint`] impl the
//! simulator drives, the connection preface of TLS-negotiated h2, the
//! greeting, and the byzantine greetings (garbage, or none at all).

#![allow(
    clippy::indexing_slicing,
    reason = "byte offsets length-checked against the preface buffer"
)]

use h2wire::{
    encode_all_into, Frame, SettingId, SettingsFrame, StreamId, WindowUpdateFrame,
    CONNECTION_PREFACE,
};
use netsim::pipe::ByteEndpoint;
use netsim::time::{SimDuration, SimTime};

use crate::engine::H2Server;

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
            out.extend_from_slice(&GARBAGE_GREETING);
            return;
        }
        self.announce_bytes(out);
    }

    fn on_bytes(&mut self, now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
        self.now = now;
        let byz = self.byz();
        if byz.handshake_stall || byz.garbage_preface {
            // Neither ever got as far as speaking HTTP/2.
            self.last_delay = SimDuration::ZERO;
            return;
        }
        self.on_bytes_inner(bytes, out);
    }

    fn processing_delay(&self) -> SimDuration {
        self.last_delay
    }
}

impl H2Server {
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
                self.ingest(&leftover, out);
                return;
            }
            // A bad preface: drop the connection.
            self.closed = true;
            return;
        }
        if bytes.is_empty() {
            return;
        }
        self.ingest(bytes, out);
    }

    /// The connection-start frames, appended to `out`: the announced
    /// SETTINGS, then — when they announce a zero initial window — the
    /// Nginx pattern's WINDOW_UPDATE re-opening the connection window.
    fn announce_bytes(&self, out: &mut Vec<u8>) {
        let announced = &self.behavior().announced;
        Frame::Settings(SettingsFrame::from(announced.clone())).encode(out);
        if announced.get(SettingId::InitialWindowSize) == Some(0) {
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment: 65_535,
            })
            .encode(out);
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
    use crate::profiles::ServerProfile;
    use crate::site::SiteSpec;
    use h2conn::{ConnectionCore, EffectiveSettings, Role};
    use h2hpack::{EncoderOptions, Header};
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
        // A non-zero initial window needs no re-opening.
        let (mut server, mut client) = serve(ServerProfile::apache());
        let frames = client.parse(&server.on_connect_vec(SimTime::ZERO));
        assert_eq!(frames.len(), 1, "{frames:?}");
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
    }

    #[test]
    fn bad_preface_closes_connection() {
        let mut server = H2Server::new(ServerProfile::rfc7540(), SiteSpec::benchmark());
        let reply = server.on_bytes_vec(SimTime::ZERO, b"GET / HTTP/1.1\r\nHost: x\r\n\r\nPAD-PAD");
        assert!(reply.is_empty());
        assert!(server.is_closed());
    }
}
