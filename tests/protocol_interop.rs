//! Cross-crate integration: the probe client, connection core, HPACK and
//! framing layers working together over the simulated network.

use h2ready::netsim::LinkSpec;
use h2ready::scope::{ProbeConn, Target};
use h2ready::server::{ServerProfile, SiteSpec};
use h2ready::wire::{Frame, SettingId, Settings};

fn target(profile: ServerProfile) -> Target {
    Target::testbed(profile, SiteSpec::benchmark())
}

#[test]
fn large_transfer_is_byte_exact_through_flow_control() {
    // 256 KiB through a 65,535-octet connection window: many
    // WINDOW_UPDATE round trips, every byte accounted for.
    let mut conn = ProbeConn::establish(&target(ServerProfile::rfc7540()), Settings::new(), 3);
    conn.exchange();
    let (frames, _) = conn.fetch(1, "/big/0");
    let mut received = Vec::new();
    for tf in &frames {
        if let Frame::Data(d) = &tf.frame {
            received.extend_from_slice(&d.data);
        }
    }
    let expected = SiteSpec::benchmark()
        .resource("/big/0")
        .unwrap()
        .body()
        .clone();
    assert_eq!(received.len(), expected.len());
    assert_eq!(
        received,
        expected.to_vec(),
        "payload integrity across chunking"
    );
}

#[test]
fn transfer_survives_a_lossy_jittery_link() {
    let mut t = target(ServerProfile::apache());
    t.link = LinkSpec::mobile(40, 0.05);
    let mut conn = ProbeConn::establish(&t, Settings::new(), 11);
    conn.exchange();
    let (frames, at) = conn.fetch(1, "/big/2");
    let received: usize = frames
        .iter()
        .filter_map(|tf| match &tf.frame {
            Frame::Data(d) => Some(d.data.len()),
            _ => None,
        })
        .sum();
    assert_eq!(
        received,
        256 * 1024,
        "loss shows up as delay, not corruption"
    );
    assert!(at.as_nanos() > 0);
}

#[test]
fn hpack_contexts_stay_synchronized_across_many_requests() {
    let mut conn = ProbeConn::establish(&target(ServerProfile::gse()), Settings::new(), 5);
    conn.exchange();
    for k in 0..20u32 {
        let stream = 1 + 2 * k;
        let (frames, _) = conn.fetch(stream, "/");
        let headers = frames
            .iter()
            .find_map(|tf| {
                if matches!(tf.frame, Frame::Headers(_)) {
                    tf.headers.clone()
                } else {
                    None
                }
            })
            .expect("response headers");
        assert!(
            headers
                .iter()
                .any(|h| h.name == ":status" && h.value == "200"),
            "req {k}"
        );
        assert!(
            headers
                .iter()
                .any(|h| h.name == "server" && h.value == "GSE"),
            "req {k}"
        );
    }
}

#[test]
fn pushed_responses_arrive_on_even_streams_with_bodies() {
    let site = SiteSpec::page_with_assets(4, 3_000);
    let t = Target::testbed(ServerProfile::nghttpd(), site);
    let mut conn = ProbeConn::establish(&t, Settings::new().with(SettingId::EnablePush, 1), 9);
    conn.exchange();
    let (frames, _) = conn.fetch(1, "/");
    let mut promised = std::collections::BTreeSet::new();
    let mut pushed_bytes: std::collections::BTreeMap<u32, usize> = Default::default();
    for tf in &frames {
        match &tf.frame {
            Frame::PushPromise(p) => {
                assert!(p.promised_stream_id.is_server_initiated());
                promised.insert(p.promised_stream_id.value());
            }
            Frame::Data(d) if d.stream_id.is_server_initiated() => {
                *pushed_bytes.entry(d.stream_id.value()).or_default() += d.data.len();
            }
            _ => {}
        }
    }
    assert_eq!(promised.len(), 4);
    for stream in &promised {
        assert_eq!(pushed_bytes.get(stream), Some(&3_000), "stream {stream}");
    }
}

#[test]
fn giant_response_headers_split_into_continuations_and_reassemble() {
    // Give the server ~40 KiB of response headers: the block must split
    // into HEADERS + CONTINUATION frames (client max frame size 16,384)
    // and the probe's assembler must put it back together.
    let mut profile = ServerProfile::rfc7540();
    for i in 0..1_500 {
        profile
            .behavior
            .extra_response_headers
            .push((format!("x-large-{i}"), format!("value-{i:020}")));
    }
    let t = Target::testbed(profile, SiteSpec::benchmark());
    let mut conn = ProbeConn::establish(&t, Settings::new(), 21);
    conn.exchange();
    let (frames, _) = conn.fetch(1, "/");
    let continuations = frames
        .iter()
        .filter(|tf| matches!(tf.frame, Frame::Continuation(_)))
        .count();
    assert!(
        continuations >= 1,
        "block must span frames: {continuations} continuations"
    );
    // The decoded list arrives on the frame that completes the block.
    let decoded = frames
        .iter()
        .find_map(|tf| tf.headers.clone())
        .expect("assembled block decodes");
    assert!(decoded.iter().any(|h| h.name == "x-large-1499"));
    assert!(decoded.iter().any(|h| h.name == ":status"));
}

#[test]
fn padded_client_data_is_flow_accounted_by_the_server() {
    // Upload a padded DATA frame; the server must charge padding against
    // the flow-control windows (RFC 7540 §6.9) and keep functioning.
    use h2ready::wire::{DataFrame, HeadersFrame};
    let t = target(ServerProfile::rfc7540());
    let mut conn = ProbeConn::establish(&t, Settings::new(), 23);
    conn.exchange();
    // POST-ish request: HEADERS without END_STREAM, then padded DATA.
    conn.send(Frame::Headers(HeadersFrame {
        stream_id: h2ready::wire::StreamId::new(1),
        fragment: {
            let mut enc = h2ready::hpack::Encoder::new();
            enc.encode_block(&[
                h2ready::hpack::Header::new(":method", "POST"),
                h2ready::hpack::Header::new(":scheme", "https"),
                h2ready::hpack::Header::new(":path", "/"),
                h2ready::hpack::Header::new(":authority", "testbed.example"),
            ])
            .into()
        },
        end_stream: false,
        end_headers: true,
        priority: None,
        pad_len: None,
    }));
    conn.exchange();
    conn.send(Frame::Data(DataFrame {
        stream_id: h2ready::wire::StreamId::new(1),
        data: bytes_crate::Bytes::from(vec![7u8; 100]),
        end_stream: true,
        pad_len: Some(55),
    }));
    let frames = conn.exchange();
    // The server replenishes its receive windows for the full
    // flow-controlled size: 100 + 55 + 1 = 156 octets.
    let updates: Vec<u32> = frames
        .iter()
        .filter_map(|tf| match &tf.frame {
            Frame::WindowUpdate(wu) => Some(wu.increment),
            _ => None,
        })
        .collect();
    assert!(
        updates.contains(&156),
        "window replenishment covers padding: {updates:?}"
    );
}

#[test]
fn goaway_after_fatal_error_stops_the_server() {
    let mut conn = ProbeConn::establish(&target(ServerProfile::h2o()), Settings::new(), 13);
    conn.exchange();
    // A HEADERS frame with a garbage HPACK block is a compression error.
    conn.send(Frame::Headers(h2ready::wire::HeadersFrame {
        stream_id: h2ready::wire::StreamId::new(1),
        fragment: bytes_from(&[0xff, 0xff, 0xff, 0xff, 0x00]),
        end_stream: true,
        end_headers: true,
        priority: None,
        pad_len: None,
    }));
    let frames = conn.exchange();
    assert!(
        frames.iter().any(|tf| matches!(&tf.frame, Frame::Goaway(g)
            if g.code == h2ready::wire::ErrorCode::CompressionError)),
        "{frames:?}"
    );
    // The connection is dead: further requests go unanswered.
    conn.get(3, "/", None);
    assert!(conn.exchange().is_empty());
}

fn bytes_from(bytes: &[u8]) -> bytes_crate::Bytes {
    bytes_crate::Bytes::copy_from_slice(bytes)
}

use bytes as bytes_crate;
