//! Scheduling-discipline tests: round-robin fairness, each priority
//! mode's pinned DATA order, and GOAWAY bookkeeping at the engine level.

use h2conn::{ConnectionCore, EffectiveSettings, Role};
use h2hpack::{EncoderOptions, Header};
use h2server::behavior::PriorityMode;
use h2server::{H2Server, Resource, ServerProfile, SiteSpec};
use h2wire::{
    encode_all, Frame, FrameDecoder, PrioritySpec, SettingId, Settings, SettingsFrame, StreamId,
    WindowUpdateFrame, CONNECTION_PREFACE,
};
use netsim::pipe::ByteEndpoint;
use netsim::SimTime;

struct Client {
    core: ConnectionCore,
    decoder: FrameDecoder,
}

impl Client {
    fn new() -> Client {
        let mut decoder = FrameDecoder::new();
        decoder.set_max_frame_size(h2wire::settings::MAX_MAX_FRAME_SIZE);
        Client {
            core: ConnectionCore::new(
                Role::Client,
                EffectiveSettings::default(),
                EncoderOptions::default(),
            ),
            decoder,
        }
    }

    fn hello(&self, settings: Settings) -> Vec<u8> {
        let mut bytes = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(settings)).encode(&mut bytes);
        bytes
    }

    fn request(&mut self, stream: u32, path: &str) -> Vec<u8> {
        self.request_with(stream, path, None)
    }

    fn request_with(&mut self, stream: u32, path: &str, priority: Option<PrioritySpec>) -> Vec<u8> {
        let headers = vec![
            Header::new(":method", "GET"),
            Header::new(":scheme", "https"),
            Header::new(":path", path),
            Header::new(":authority", "testbed.example"),
        ];
        encode_all(
            &self
                .core
                .encode_headers(StreamId::new(stream), &headers, true, priority),
        )
    }

    fn frames(&mut self, bytes: &[u8]) -> Vec<Frame> {
        self.decoder.feed(bytes);
        self.decoder.drain_frames().expect("parses")
    }
}

fn data_sequence(frames: &[Frame]) -> Vec<u32> {
    frames
        .iter()
        .filter_map(|f| match f {
            Frame::Data(d) => Some(d.stream_id.value()),
            _ => None,
        })
        .collect()
}

#[test]
fn round_robin_servers_interleave_fairly() {
    // FCFS/multiplexing servers (Nginx profile) alternate between ready
    // streams chunk by chunk.
    let mut profile = ServerProfile::nginx();
    profile.behavior.announced = Settings::new()
        .with(SettingId::MaxConcurrentStreams, 128)
        .with(SettingId::InitialWindowSize, 65_535);
    let mut server = H2Server::new(profile, SiteSpec::benchmark());
    let mut client = Client::new();
    server.on_bytes_vec(SimTime::ZERO, &client.hello(Settings::new()));
    let mut bytes = client.request(1, "/big/1");
    bytes.extend(client.request(3, "/big/2"));
    let reply = server.on_bytes_vec(SimTime::ZERO, &bytes);
    let sequence = data_sequence(&client.frames(&reply));
    // 65,535-octet connection window at 16,384 per chunk = 4 chunks + 1
    // remainder frame; both streams must appear before either repeats
    // twice in a row more than once.
    assert!(sequence.len() >= 4, "{sequence:?}");
    assert!(
        sequence.contains(&1) && sequence.contains(&3),
        "{sequence:?}"
    );
    let switches = sequence.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(switches >= 2, "round-robin must alternate: {sequence:?}");
}

#[test]
fn goaway_reports_highest_processed_stream() {
    let mut server = H2Server::new(ServerProfile::nghttpd(), SiteSpec::benchmark());
    let mut client = Client::new();
    server.on_bytes_vec(SimTime::ZERO, &client.hello(Settings::new()));
    let mut bytes = client.request(1, "/");
    bytes.extend(client.request(3, "/"));
    bytes.extend(client.request(5, "/"));
    server.on_bytes_vec(SimTime::ZERO, &bytes);
    // Trigger nghttpd's GOAWAY quirk with a zero stream window update.
    let zero = Frame::WindowUpdate(WindowUpdateFrame {
        stream_id: StreamId::new(1),
        increment: 0,
    })
    .to_bytes();
    let reply = server.on_bytes_vec(SimTime::ZERO, &zero);
    let frames = client.frames(&reply);
    let goaway = frames
        .iter()
        .find_map(|f| match f {
            Frame::Goaway(g) => Some(g),
            _ => None,
        })
        .expect("goaway sent");
    assert_eq!(goaway.last_stream_id, StreamId::new(5));
    assert!(server.is_closed());
    // A closed engine stays silent.
    let more = server.on_bytes_vec(SimTime::ZERO, &client.request(7, "/"));
    assert!(more.is_empty());
}

#[test]
fn completion_order_mode_flushes_first_chunks_fcfs() {
    let mut profile = ServerProfile::rfc7540();
    profile.behavior.priority_mode = h2server::behavior::PriorityMode::CompletionOrder;
    let mut server = H2Server::new(profile, SiteSpec::benchmark());
    let mut client = Client::new();
    server.on_bytes_vec(SimTime::ZERO, &client.hello(Settings::new()));
    let mut bytes = client.request(1, "/big/1");
    bytes.extend(client.request(3, "/big/2"));
    let reply = server.on_bytes_vec(SimTime::ZERO, &bytes);
    let sequence = data_sequence(&client.frames(&reply));
    // First two DATA frames are the FCFS flush: stream 1 then stream 3.
    assert_eq!(&sequence[..2], &[1, 3], "{sequence:?}");
}

fn window_update(stream: u32, increment: u32) -> Vec<u8> {
    Frame::WindowUpdate(WindowUpdateFrame {
        stream_id: StreamId::new(stream),
        increment,
    })
    .to_bytes()
}

/// The scripted exchange behind [`data_order_is_pinned_for_every_mode`]:
/// six prioritised requests (the first also triggers a push) against a
/// 24,000-octet stream window, then window updates that unblock some
/// streams and finally the connection. Returns the DATA frames answering
/// each of the three client segments as `stream:len` words, a trailing
/// `.` marking END_STREAM.
fn scripted_exchange(mode: PriorityMode) -> [String; 3] {
    let site = SiteSpec::new("sched.example")
        .with(Resource::synthetic("/", "text/html", 3_000))
        .with(Resource::synthetic("/pushed.css", "text/css", 40_000))
        .with(Resource::synthetic("/o/1", "image/png", 90_000))
        .with(Resource::synthetic("/o/2", "image/png", 20_000))
        .with(Resource::synthetic("/o/3", "image/png", 9_000))
        .with(Resource::synthetic("/o/4", "image/png", 500))
        .with(Resource::synthetic("/o/5", "image/png", 60_000))
        .depend("/", vec!["/pushed.css".into()]);
    let mut profile = ServerProfile::rfc7540();
    profile.behavior.priority_mode = mode;
    let mut server = H2Server::new(profile, site);
    let mut client = Client::new();
    server.on_bytes_vec(
        SimTime::ZERO,
        &client.hello(Settings::new().with(SettingId::InitialWindowSize, 24_000)),
    );
    let dep = |dependency: u32, weight: u16, exclusive: bool| {
        Some(PrioritySpec {
            exclusive,
            dependency: StreamId::new(dependency),
            weight,
        })
    };
    let mut requests = client.request(1, "/");
    requests.extend(client.request_with(3, "/o/1", dep(0, 220, false)));
    requests.extend(client.request_with(5, "/o/2", dep(3, 16, false)));
    requests.extend(client.request_with(7, "/o/3", dep(0, 32, false)));
    requests.extend(client.request_with(9, "/o/4", dep(7, 16, true)));
    requests.extend(client.request_with(11, "/o/5", dep(0, 8, false)));
    // Streams 3 and 2 get room, 11 stays at its first 24,000 octets; the
    // connection update comes last so one pump sees all of them.
    let mut updates = window_update(3, 100_000);
    updates.extend(window_update(2, 100_000));
    updates.extend(window_update(0, 150_000));
    [requests, updates, window_update(11, 100_000)].map(|segment| {
        let reply = server.on_bytes_vec(SimTime::ZERO, &segment);
        let words: Vec<String> = client
            .frames(&reply)
            .iter()
            .filter_map(|f| match f {
                Frame::Data(d) => Some(format!(
                    "{}:{}{}",
                    d.stream_id.value(),
                    d.data.len(),
                    if d.end_stream { "." } else { "" }
                )),
                _ => None,
            })
            .collect();
        words.join(" ")
    })
}

#[test]
fn data_order_is_pinned_for_every_mode() {
    // Captured from the four separate pump functions the phase table
    // replaced; any change to a mode's phases, to the tree/FIFO fallbacks
    // or to the round-robin cursor rule moves at least one word.
    let pinned = [
        (
            PriorityMode::Strict,
            [
                "3:16384 3:7616 5:16384 7:9000. 5:3616. 1:3000. 11:9535",
                "3:16384 3:16384 3:16384 3:16384 9:500. 3:464. 11:14465 2:16384 2:16384 2:7232.",
                "11:16384 11:12651",
            ],
        ),
        (
            PriorityMode::None,
            [
                "2:16384 3:16384 5:16384 7:9000. 11:7383",
                "1:3000. 3:16384 5:3616. 11:16384 2:16384 3:16384 9:500. 2:7232. 11:233 3:16384 3:16384 3:8080.",
                "11:16384 11:12651",
            ],
        ),
        (
            PriorityMode::CompletionOrder,
            [
                "1:3000. 2:16384 3:16384 5:16384 7:9000. 9:500. 11:3883",
                "3:16384 3:16384 3:16384 3:16384 3:8080. 5:3616. 11:16384 11:3733 2:16384 2:7232.",
                "11:16384 11:12651",
            ],
        ),
        (
            PriorityMode::FirstFrameOnly,
            [
                "3:16384 5:16384 7:9000. 9:500. 1:3000. 11:16384 2:3883",
                "3:16384 5:3616. 2:16384 3:16384 11:7616 3:16384 2:16384 3:16384 2:3349. 3:8080.",
                "11:16384 11:12651",
            ],
        ),
    ];
    for (mode, expected) in pinned {
        assert_eq!(scripted_exchange(mode), expected, "{mode:?}");
    }
}
