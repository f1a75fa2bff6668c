//! Request multiplexing probe (§III-A): N simultaneous large downloads;
//! a multiplexing server interleaves DATA frames across streams, a
//! sequential one finishes each response before starting the next.

#![allow(
    clippy::indexing_slicing,
    reason = "indices bounded by the response-count checks above each use"
)]

use h2wire::{Frame, SettingId, Settings};

use crate::client::ProbeConn;
use crate::target::Target;

/// Result of the multiplexing probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplexingReport {
    /// Responses interleaved — the server processes requests in parallel.
    pub parallel: bool,
    /// Number of concurrent requests issued (the paper's N).
    pub streams_tested: usize,
    /// Number of stream switches observed in the DATA sequence; a
    /// sequential server shows exactly `streams_tested - 1`.
    pub stream_switches: usize,
    /// Announced `SETTINGS_MAX_CONCURRENT_STREAMS` (§III-A2).
    pub max_concurrent_streams: Option<u32>,
}

/// Issues `n` parallel downloads of large objects and inspects the DATA
/// frame ordering. The objects must be large (several DATA frames each) or
/// the probe cannot discriminate — the reason the paper only runs this in
/// the testbed.
///
/// Classifies RFC 7540 §5.1.2: concurrent streams up to
/// MAX_CONCURRENT_STREAMS.
pub fn probe(target: &Target, n: usize) -> MultiplexingReport {
    target.obs.enter_probe(h2obs::ProbeKind::Multiplexing);
    let mut conn = ProbeConn::establish(&with_big_objects(target), Settings::new(), 0x0a11);
    conn.exchange();
    let max_concurrent_streams = conn.announced(SettingId::MaxConcurrentStreams);

    // Fire all requests in one segment so they arrive simultaneously.
    for i in 0..n {
        conn.get(1 + 2 * i as u32, &format!("/big/{i}"), None);
    }

    let mut order: Vec<u32> = Vec::new();
    let mut finished = std::collections::BTreeSet::new();
    loop {
        let frames = conn.exchange();
        if frames.is_empty() {
            break;
        }
        for tf in &frames {
            if let Frame::Data(d) = &tf.frame {
                order.push(d.stream_id.value());
                if d.end_stream {
                    finished.insert(d.stream_id.value());
                }
                conn.replenish(d.stream_id.value(), d.flow_controlled_len());
            }
        }
        if finished.len() == n {
            break;
        }
    }

    let stream_switches = order.windows(2).filter(|w| w[0] != w[1]).count();
    // Sequential service yields exactly n-1 switches (each stream is one
    // contiguous run); anything more means interleaving.
    let parallel = stream_switches > n.saturating_sub(1);
    MultiplexingReport {
        parallel,
        streams_tested: n,
        stream_switches,
        max_concurrent_streams,
    }
}

/// The probe needs multi-frame objects; reuse the target but make sure the
/// benchmark site's large objects exist.
fn with_big_objects(target: &Target) -> Target {
    let mut target = target.clone();
    if target.site.resource("/big/0").is_none() {
        let site = std::sync::Arc::make_mut(&mut target.site);
        for (path, resource) in h2server::SiteSpec::benchmark().resources {
            site.resources.entry(path).or_insert(resource);
        }
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    #[test]
    fn all_testbed_servers_multiplex() {
        // Table III row 3: every tested implementation multiplexes.
        for profile in ServerProfile::testbed() {
            let name = profile.name.clone();
            let target = Target::testbed(profile, SiteSpec::benchmark());
            let report = probe(&target, 4);
            assert!(report.parallel, "{name} must interleave");
            assert_eq!(report.streams_tested, 4);
        }
    }

    #[test]
    fn sequential_server_is_detected() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.multiplexing = false;
        let target = Target::testbed(profile, SiteSpec::benchmark());
        let report = probe(&target, 4);
        assert!(!report.parallel);
        assert_eq!(report.stream_switches, 3, "one contiguous run per stream");
    }

    #[test]
    fn max_concurrent_streams_is_read_from_settings() {
        let target = Target::testbed(ServerProfile::nginx(), SiteSpec::benchmark());
        let report = probe(&target, 2);
        assert_eq!(report.max_concurrent_streams, Some(128));
    }
}
