//! Server push probe (§III-D): enable push, browse pages, look for
//! PUSH_PROMISE frames.

use h2wire::{Frame, SettingId, Settings};

use crate::client::ProbeConn;
use crate::target::Target;

/// Result of the push probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushReport {
    /// Paths the server promised, in promise order.
    pub promised_paths: Vec<String>,
    /// Octets of pushed response bodies received.
    pub pushed_octets: u64,
}

impl PushReport {
    /// At least one PUSH_PROMISE naming a `:path` was received.
    pub fn supported(&self) -> bool {
        !self.promised_paths.is_empty()
    }
}

/// Enables push, fetches the given pages, and records every promise.
///
/// Classifies RFC 7540 §8.2: server push via PUSH_PROMISE.
pub fn probe(target: &Target, pages: &[&str]) -> PushReport {
    target.obs.enter_probe(h2obs::ProbeKind::Push);
    let settings = Settings::new().with(SettingId::EnablePush, 1);
    let mut conn = ProbeConn::establish(target, settings, 0x9054);
    conn.exchange();

    let mut promised_paths = Vec::new();
    let mut pushed_octets = 0u64;
    let mut promised_streams = std::collections::BTreeSet::new();

    for (i, page) in pages.iter().enumerate() {
        let stream = 1 + 2 * i as u32;
        let (frames, _) = conn.fetch(stream, page);
        let mut handle = |frames: &[crate::client::TimedFrame]| {
            for tf in frames {
                match &tf.frame {
                    Frame::PushPromise(p) => {
                        promised_streams.insert(p.promised_stream_id.value());
                        if let Some(headers) = &tf.headers {
                            if let Some(path) = headers.iter().find(|h| h.name == ":path") {
                                promised_paths.push(path.value.clone());
                            }
                        }
                    }
                    Frame::Data(d) if promised_streams.contains(&d.stream_id.value()) => {
                        pushed_octets += d.data.len() as u64;
                    }
                    _ => {}
                }
            }
        };
        handle(&frames);
        // Drain pushed bodies that trail the page response, replenishing
        // windows so large pushed objects can complete.
        loop {
            let trailing = conn.exchange();
            if trailing.is_empty() {
                break;
            }
            for tf in &trailing {
                if let Frame::Data(d) = &tf.frame {
                    conn.replenish(d.stream_id.value(), d.flow_controlled_len());
                }
            }
            handle(&trailing);
        }
    }
    PushReport {
        promised_paths,
        pushed_octets,
    }
}

/// RFC 7540 §5.1.2 push discipline probe: announce
/// `MAX_CONCURRENT_STREAMS = 1`, fetch the front page, and verify the
/// server never has more than one pushed stream *active* (HEADERS sent,
/// not yet ended) at a time — the promises themselves are exempt, since
/// reserved streams do not count toward the limit. Returns `true` for
/// compliant servers (vacuously for push-incapable ones).
pub fn promise_discipline(target: &Target) -> bool {
    target.obs.enter_probe(h2obs::ProbeKind::Push);
    let settings = Settings::new()
        .with(SettingId::EnablePush, 1)
        .with(SettingId::MaxConcurrentStreams, 1);
    let mut conn = ProbeConn::establish(target, settings, 0x5112);
    conn.exchange();
    conn.get(1, "/", None);
    let mut active: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut disciplined = true;
    loop {
        let frames = conn.exchange();
        if frames.is_empty() {
            break;
        }
        for tf in &frames {
            match &tf.frame {
                Frame::Headers(h) if h.stream_id.value() % 2 == 0 => {
                    active.insert(h.stream_id.value());
                    if active.len() > 1 {
                        disciplined = false;
                    }
                }
                Frame::Data(d) => {
                    conn.replenish(d.stream_id.value(), d.flow_controlled_len());
                    if d.end_stream {
                        active.remove(&d.stream_id.value());
                    }
                }
                _ => {}
            }
        }
    }
    disciplined
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn push_site() -> SiteSpec {
        SiteSpec::page_with_assets(3, 2_000)
    }

    #[test]
    fn promises_name_the_pushed_assets() {
        let target = Target::testbed(ServerProfile::h2o(), push_site());
        let report = probe(&target, &["/"]);
        assert_eq!(report.promised_paths.len(), 3);
        assert!(report
            .promised_paths
            .iter()
            .all(|p| p.starts_with("/asset/")));
        assert_eq!(report.pushed_octets, 3 * 2_000);
    }

    #[test]
    fn non_front_pages_push_nothing() {
        // §V-F: "when requesting URLs other than the front page, we do not
        // receive pushed objects."
        let target = Target::testbed(ServerProfile::h2o(), push_site());
        let report = probe(&target, &["/asset/0"]);
        assert!(!report.supported());
    }

    #[test]
    fn every_testbed_profile_respects_the_pushed_stream_limit() {
        for profile in ServerProfile::testbed_and_reference() {
            let name = profile.name.clone();
            // Bodies large enough that an undisciplined server would
            // overlap pushed streams across several exchanges.
            let target = Target::testbed(profile, SiteSpec::page_with_assets(4, 30_000));
            assert!(promise_discipline(&target), "{name}");
        }
    }

    #[test]
    fn push_capable_server_without_manifest_pushes_nothing() {
        let target = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let report = probe(&target, &["/"]);
        assert!(!report.supported());
    }
}
