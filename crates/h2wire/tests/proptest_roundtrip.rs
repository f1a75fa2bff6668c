//! Property-based round-trip tests for the frame codec.

use bytes::Bytes;
use h2wire::frame::*;
use h2wire::settings::{SettingId, Settings, MAX_MAX_FRAME_SIZE};
use h2wire::{decode_one, DecodeFrameError, ErrorCode, Frame, FrameDecoder, StreamId};
use proptest::prelude::*;

fn arb_stream_id() -> impl Strategy<Value = StreamId> {
    (1u32..=0x7fff_ffff).prop_map(StreamId::new)
}

fn arb_any_stream_id() -> impl Strategy<Value = StreamId> {
    (0u32..=0x7fff_ffff).prop_map(StreamId::new)
}

fn arb_priority_spec() -> impl Strategy<Value = PrioritySpec> {
    (any::<bool>(), arb_any_stream_id(), 1u16..=256).prop_map(|(exclusive, dependency, weight)| {
        PrioritySpec {
            exclusive,
            dependency,
            weight,
        }
    })
}

fn arb_setting_id() -> impl Strategy<Value = SettingId> {
    prop_oneof![
        Just(SettingId::HeaderTableSize),
        Just(SettingId::MaxConcurrentStreams),
        Just(SettingId::MaxHeaderListSize),
        (7u16..=0xffff).prop_map(SettingId::Unknown),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            arb_stream_id(),
            prop::collection::vec(any::<u8>(), 0..512),
            any::<bool>(),
            prop::option::of(0u8..=32)
        )
            .prop_map(
                |(stream_id, data, end_stream, pad_len)| Frame::Data(DataFrame {
                    stream_id,
                    data: Bytes::from(data),
                    end_stream,
                    pad_len,
                })
            ),
        (
            arb_stream_id(),
            prop::collection::vec(any::<u8>(), 0..256),
            any::<bool>(),
            any::<bool>(),
            prop::option::of(arb_priority_spec()),
            prop::option::of(0u8..=16)
        )
            .prop_map(
                |(stream_id, frag, end_stream, end_headers, priority, pad_len)| {
                    Frame::Headers(HeadersFrame {
                        stream_id,
                        fragment: Bytes::from(frag),
                        end_stream,
                        end_headers,
                        priority,
                        pad_len,
                    })
                }
            ),
        (arb_stream_id(), arb_priority_spec())
            .prop_map(|(stream_id, spec)| Frame::Priority(PriorityFrame { stream_id, spec })),
        (arb_stream_id(), any::<u32>()).prop_map(|(stream_id, code)| {
            Frame::RstStream(RstStreamFrame {
                stream_id,
                code: ErrorCode::from(code),
            })
        }),
        prop::collection::vec((arb_setting_id(), any::<u32>()), 0..8).prop_map(|params| {
            Frame::Settings(SettingsFrame::from(
                params.into_iter().collect::<Settings>(),
            ))
        }),
        (
            arb_stream_id(),
            arb_stream_id(),
            prop::collection::vec(any::<u8>(), 0..128),
            any::<bool>()
        )
            .prop_map(|(stream_id, promised, frag, end_headers)| {
                Frame::PushPromise(PushPromiseFrame {
                    stream_id,
                    promised_stream_id: promised,
                    fragment: Bytes::from(frag),
                    end_headers,
                    pad_len: None,
                })
            }),
        (any::<bool>(), any::<[u8; 8]>())
            .prop_map(|(ack, payload)| Frame::Ping(PingFrame { ack, payload })),
        (
            arb_any_stream_id(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(last, code, debug)| Frame::Goaway(GoawayFrame {
                last_stream_id: last,
                code: ErrorCode::from(code),
                debug_data: Bytes::from(debug),
            })),
        (arb_any_stream_id(), 0u32..=0x7fff_ffff).prop_map(|(stream_id, increment)| {
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id,
                increment,
            })
        }),
        (
            arb_stream_id(),
            prop::collection::vec(any::<u8>(), 0..128),
            any::<bool>()
        )
            .prop_map(|(stream_id, frag, end_headers)| {
                Frame::Continuation(ContinuationFrame {
                    stream_id,
                    fragment: Bytes::from(frag),
                    end_headers,
                })
            }),
    ]
}

/// What a streaming entry point made of a segmented byte stream: the
/// frames of every fully decoded segment, the error that stopped it (if
/// any), and what the decoder still buffers.
type Decoded = (Vec<Frame>, Option<DecodeFrameError>, usize);

/// Cuts `bytes` into segments at the given (unordered) positions.
fn segments<'a>(bytes: &'a [u8], cuts: &[prop::sample::Index]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
    at.extend([0, bytes.len()]);
    at.sort_unstable();
    at.windows(2).map(|w| &bytes[w[0]..w[1]]).collect()
}

/// Runs `segments` through one streaming entry point: `feed` +
/// `drain_frames`, or `next_frame_shared` over the same bytes.
fn stream_decode(segments: &[&[u8]], shared: bool) -> Decoded {
    let mut dec = FrameDecoder::new();
    dec.set_max_frame_size(MAX_MAX_FRAME_SIZE);
    let mut frames = Vec::new();
    for segment in segments {
        let batch = if shared {
            let mut input = Bytes::from(segment.to_vec());
            std::iter::from_fn(|| dec.next_frame_shared(&mut input).transpose()).collect()
        } else {
            dec.feed(segment);
            dec.drain_frames()
        };
        match batch {
            Ok(batch) => frames.extend::<Vec<Frame>>(batch),
            Err(err) => return (frames, Some(err), dec.buffered_len()),
        }
    }
    (frames, None, dec.buffered_len())
}

proptest! {
    /// A flipped byte or a cut-off tail gets the same verdict from both
    /// entry points, and an error leaves either decoder empty.
    #[test]
    fn streaming_entry_points_agree_on_corrupted_input(
        frames in prop::collection::vec(arb_frame(), 1..6),
        at in any::<prop::sample::Index>(),
        flip in prop::option::of(1u8..=255),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let mut bytes = h2wire::encode_all(&frames);
        let at = at.index(bytes.len());
        match flip {
            Some(mask) => bytes[at] ^= mask,
            None => bytes.truncate(at),
        }
        let segments = segments(&bytes, &cuts);
        let buffered = stream_decode(&segments, false);
        prop_assert_eq!(&buffered, &stream_decode(&segments, true));
        prop_assert!(buffered.1.is_none() || buffered.2 == 0, "error left bytes buffered");
    }

    /// Every encodable frame decodes back to itself, consuming exactly its
    /// own bytes, and `encoded_len` counts those bytes.
    #[test]
    fn frame_round_trips(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        prop_assert_eq!(frame.encoded_len(), bytes.len());
        let (decoded, consumed) = decode_one(&bytes, MAX_MAX_FRAME_SIZE)
            .expect("decode")
            .expect("complete frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Splitting the byte stream arbitrarily never changes the decoded
    /// frame sequence, and the two streaming entry points are one
    /// decoder: over the same segments they yield the same frames, a
    /// zero-increment WINDOW_UPDATE (which §III-B3 probes send)
    /// included.
    #[test]
    fn arbitrary_fragmentation_is_transparent(
        frames in prop::collection::vec(arb_frame(), 1..6),
        zero_at in prop::option::of(any::<prop::sample::Index>()),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let mut frames = frames;
        if let Some(at) = zero_at {
            let zero = WindowUpdateFrame { stream_id: StreamId::new(1), increment: 0 };
            frames.insert(at.index(frames.len() + 1), Frame::WindowUpdate(zero));
        }
        let bytes = h2wire::encode_all(&frames);
        let segments = segments(&bytes, &cuts);
        let buffered = stream_decode(&segments, false);
        prop_assert_eq!(&buffered, &stream_decode(&segments, true));
        prop_assert_eq!(buffered, (frames, None, 0));
    }

    /// Truncated buffers never panic and never produce a frame.
    #[test]
    fn truncation_is_detected(frame in arb_frame(), keep in 0usize..9) {
        let bytes = frame.to_bytes();
        let keep = keep.min(bytes.len().saturating_sub(1));
        let result = decode_one(&bytes[..keep], MAX_MAX_FRAME_SIZE);
        prop_assert!(matches!(result, Ok(None) | Err(_)));
    }
}
