//! Request multiplexing probe (§III-A): N simultaneous large downloads;
//! a multiplexing server interleaves DATA frames across streams, a
//! sequential one finishes each response before starting the next.

use h2wire::{Frame, Settings};

use crate::client::ProbeConn;
use crate::target::Target;

/// Issues `n` parallel downloads of large objects and inspects the DATA
/// frame ordering: `true` when the responses interleave, i.e. the server
/// processes requests in parallel. The objects must be large (several
/// DATA frames each) or the probe cannot discriminate — the reason the
/// paper only runs this in the testbed.
///
/// Classifies RFC 7540 §5.1.2: concurrent streams up to
/// MAX_CONCURRENT_STREAMS.
pub fn probe(target: &Target, n: usize) -> bool {
    target.obs.enter_probe(h2obs::ProbeKind::Multiplexing);
    let mut conn = ProbeConn::establish(&with_big_objects(target), Settings::new(), 0x0a11);
    conn.exchange();

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

    interleaved(&order, n)
}

/// The probe's verdict over the stream ids of the DATA frames of `n`
/// responses, in arrival order: sequential service is `n` contiguous
/// runs, so `n - 1` switches between streams; anything more means the
/// responses interleave.
fn interleaved(order: &[u32], n: usize) -> bool {
    let stream_switches = order.windows(2).filter(|w| w.first() != w.last()).count();
    stream_switches > n.saturating_sub(1)
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
            assert!(probe(&target, 4), "{name} must interleave");
        }
    }

    #[test]
    fn sequential_order_is_not_interleaved() {
        // Four responses, each one contiguous run of DATA frames.
        let sequential = [1, 1, 1, 3, 3, 5, 7, 7, 7, 7];
        assert!(!interleaved(&sequential, 4));
        // One extra switch is enough.
        let interleaving = [1, 1, 3, 1, 3, 5, 7, 7, 7, 7];
        assert!(interleaved(&interleaving, 4));
    }
}
