//! Integration: push against a client advertising
//! `SETTINGS_MAX_CONCURRENT_STREAMS = 1` (RFC 7540 §5.1.2).
//!
//! The promises may all be sent up front — reserved streams are exempt
//! from the limit — but at most one pushed stream may be *active*
//! (response HEADERS sent, END_STREAM not yet) at any instant, across
//! the whole simulated connection.

use h2scope::client::ProbeConn;
use h2scope::Target;
use h2server::{ServerProfile, SiteSpec};
use h2wire::{Frame, SettingId, Settings};

fn limited_conn(target: &Target) -> ProbeConn {
    let settings = Settings::new()
        .with(SettingId::EnablePush, 1)
        .with(SettingId::MaxConcurrentStreams, 1);
    ProbeConn::establish(target, settings, 0x715e)
}

#[test]
fn promises_serialize_under_max_concurrent_streams_one() {
    // Bodies span several flow-control windows so pushed responses
    // stretch over many exchanges — an engine that ignored the limit
    // would interleave them. §5.1.2 is protocol mechanics, not a quirk:
    // every profile gates pushed-stream activation on the client's limit.
    for profile in ServerProfile::testbed_and_reference() {
        let name = profile.name.clone();
        let pushes = if profile.behavior.push { 4 } else { 0 };
        let target = Target::testbed(profile, SiteSpec::page_with_assets(4, 30_000));
        let mut conn = limited_conn(&target);
        conn.exchange();
        conn.get(1, "/", None);

        let mut promises = 0;
        let mut active: Option<u32> = None;
        let mut delivered = 0;
        loop {
            let frames = conn.exchange();
            if frames.is_empty() {
                break;
            }
            for tf in &frames {
                match &tf.frame {
                    Frame::PushPromise(_) => promises += 1,
                    Frame::Headers(h) if h.stream_id.value() % 2 == 0 => {
                        assert!(
                            active.is_none(),
                            "{name}: pushed stream {} activated while {:?} still open",
                            h.stream_id.value(),
                            active
                        );
                        active = Some(h.stream_id.value());
                    }
                    Frame::Data(d) => {
                        conn.replenish(d.stream_id.value(), d.flow_controlled_len());
                        if d.end_stream && d.stream_id.value() % 2 == 0 {
                            assert_eq!(active, Some(d.stream_id.value()), "{name}");
                            active = None;
                            delivered += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(
            promises, pushes,
            "{name}: reserved streams are exempt from the limit"
        );
        assert_eq!(
            delivered, pushes,
            "{name}: the gate queues pushes, it never drops them"
        );
        assert!(active.is_none(), "{name}");
    }
}

#[test]
fn dependency_graph_load_completes_under_the_limit() {
    // Multi-level site + MAX_CONCURRENT_STREAMS=1 client: the pageload
    // model must still converge and count delivered pushes correctly.
    let target = Target::testbed(ServerProfile::h2o(), SiteSpec::page_with_tree());
    let mut conn = limited_conn(&target);
    conn.exchange();
    conn.get(1, "/", None);
    let mut ended = 0;
    loop {
        let frames = conn.exchange();
        if frames.is_empty() {
            break;
        }
        for tf in &frames {
            if let Frame::Data(d) = &tf.frame {
                conn.replenish(d.stream_id.value(), d.flow_controlled_len());
                if d.end_stream {
                    ended += 1;
                }
            }
        }
    }
    // The page plus its three promised level-1 children all finish.
    assert_eq!(ended, 4);
}
