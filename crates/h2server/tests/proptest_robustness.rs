//! Robustness properties: the server engine must never panic, whatever
//! bytes arrive — junk, truncated frames, or valid-but-hostile sequences.

use h2server::{H2Server, ServerProfile, SiteSpec};
use h2wire::{
    encode_all, Frame, PingFrame, SettingsFrame, StreamId, WindowUpdateFrame, CONNECTION_PREFACE,
};
use netsim::pipe::ByteEndpoint;
use netsim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes after a valid preface: the engine may close the
    /// connection but must not panic or return unparseable output.
    #[test]
    fn junk_after_preface_never_panics(
        profile_idx in 0..ServerProfile::all().len(),
        junk in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let profile = ServerProfile::all()[profile_idx].1();
        let mut server = H2Server::new(profile, SiteSpec::benchmark());
        server.on_connect_vec(SimTime::ZERO);
        let mut hello = CONNECTION_PREFACE.to_vec();
        hello.extend(&junk);
        let reply = server.on_bytes_vec(SimTime::ZERO, &hello);
        // Whatever came back must itself be valid HTTP/2 frames.
        let mut dec = h2wire::FrameDecoder::new();
        dec.set_max_frame_size(h2wire::settings::MAX_MAX_FRAME_SIZE);
        dec.feed(&reply);
        prop_assert!(dec.drain_frames().is_ok());
    }

    /// Arbitrary bytes with no preface at all.
    #[test]
    fn junk_without_preface_never_panics(
        junk in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut server = H2Server::new(ServerProfile::rfc7540(), SiteSpec::benchmark());
        let _ = server.on_bytes_vec(SimTime::ZERO, &junk);
    }

    /// Valid frames in arbitrary order never panic and never produce
    /// invalid output, across every profile.
    #[test]
    fn arbitrary_valid_frame_sequences_never_panic(
        profile_idx in 0..ServerProfile::all().len(),
        ops in prop::collection::vec(0u8..6, 1..25),
    ) {
        let profile = ServerProfile::all()[profile_idx].1();
        let mut server = H2Server::new(profile, SiteSpec::benchmark());
        server.on_connect_vec(SimTime::ZERO);
        let mut wire = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(h2wire::Settings::new())).encode(&mut wire);
        let mut next_stream = 1u32;
        let mut frames = Vec::new();
        for op in ops {
            match op {
                0 => frames.push(Frame::Ping(PingFrame::request([op; 8]))),
                1 => {
                    frames.push(Frame::WindowUpdate(WindowUpdateFrame {
                        stream_id: StreamId::CONNECTION,
                        increment: 0,
                    }));
                }
                2 => {
                    frames.push(Frame::WindowUpdate(WindowUpdateFrame {
                        stream_id: StreamId::new(next_stream),
                        increment: 0x7fff_ffff,
                    }));
                }
                3 => {
                    frames.push(Frame::Priority(h2wire::PriorityFrame {
                        stream_id: StreamId::new(next_stream),
                        spec: h2wire::PrioritySpec {
                            exclusive: true,
                            dependency: StreamId::new(next_stream), // self!
                            weight: 256,
                        },
                    }));
                }
                4 => {
                    frames.push(Frame::RstStream(h2wire::RstStreamFrame {
                        stream_id: StreamId::new(next_stream),
                        code: h2wire::ErrorCode::Cancel,
                    }));
                    next_stream += 2;
                }
                _ => {
                    frames.push(Frame::Settings(SettingsFrame::from(
                        h2wire::Settings::new()
                            .with(h2wire::SettingId::InitialWindowSize, 0),
                    )));
                }
            }
        }
        wire.extend(encode_all(&frames));
        let reply = server.on_bytes_vec(SimTime::ZERO, &wire);
        let mut dec = h2wire::FrameDecoder::new();
        dec.set_max_frame_size(h2wire::settings::MAX_MAX_FRAME_SIZE);
        dec.feed(&reply);
        prop_assert!(dec.drain_frames().is_ok());
    }
}
