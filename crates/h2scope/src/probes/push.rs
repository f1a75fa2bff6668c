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
    fn push_capable_server_pushes_nothing_for_a_page_without_references() {
        let target = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let report = probe(&target, &["/"]);
        assert!(!report.supported());
    }
}
