//! HTTP/2 PING probe (§III-F) and the four-way RTT comparison behind
//! Figure 6: h2-ping vs ICMP vs TCP-handshake vs HTTP/1.1 request.

use rand::StdRng;

use h2wire::{Frame, PingFrame, Settings};
use netsim::http1::{get_request, Http1Server};
use netsim::rtt::{icmp_rtt, tcp_handshake_rtt};
use netsim::Pipe;

use crate::client::ProbeConn;
use crate::target::Target;

/// Result of the PING support probe.
#[derive(Debug, Clone, PartialEq)]
pub struct PingReport {
    /// The server echoed the PING with ACK and identical payload.
    pub supported: bool,
    /// RTT samples in milliseconds.
    pub rtt_ms: Vec<f64>,
}

/// One site's samples for all four estimators (Figure 6), in ms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RttComparison {
    /// HTTP/2 PING round trips.
    pub h2_ping: Vec<f64>,
    /// ICMP echo round trips (losses omitted).
    pub icmp: Vec<f64>,
    /// TCP three-way-handshake estimates.
    pub tcp: Vec<f64>,
    /// HTTP/1.1 request/response intervals.
    pub h1_request: Vec<f64>,
}

/// Sends `n` PING frames, one at a time, measuring each round trip.
///
/// Classifies RFC 7540 §6.7: PING is acknowledged with an identical
/// payload.
pub fn probe(target: &Target, n: usize) -> PingReport {
    target.obs.enter_probe(h2obs::ProbeKind::Ping);
    let mut conn = ProbeConn::establish(target, Settings::new(), 0x9196);
    conn.exchange();
    let mut rtt_ms = Vec::with_capacity(n);
    let mut supported = false;
    for i in 0..n {
        let payload = (i as u64).to_be_bytes();
        let t0 = conn.now();
        conn.send(Frame::Ping(PingFrame::request(payload)));
        let frames = conn.exchange();
        for tf in &frames {
            if let Frame::Ping(p) = &tf.frame {
                if p.ack && p.payload == payload {
                    supported = true;
                    rtt_ms.push((tf.at - t0).as_millis_f64());
                }
            }
        }
    }
    PingReport { supported, rtt_ms }
}

/// Runs all four estimators against one target, `n` samples each.
///
/// Classifies RFC 7540 §6.7: PING is acknowledged with an identical
/// payload.
pub fn compare_rtt(target: &Target, n: usize, seed: u64) -> RttComparison {
    let mut comparison = RttComparison {
        // HTTP/2 PING over a live h2 connection.
        h2_ping: probe(target, n).rtt_ms,
        ..Default::default()
    };

    // ICMP and TCP operate on the same link spec.
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        if let Some(rtt) = icmp_rtt(&target.link, &mut rng) {
            comparison.icmp.push(rtt.as_millis_f64());
        }
        comparison
            .tcp
            .push(tcp_handshake_rtt(&target.link, &mut rng).as_millis_f64());
    }

    // HTTP/1.1: a request/response exchange including the server's
    // processing time — the estimator the paper finds biased upward.
    let http1 = Http1Server::new(
        target.profile.behavior.server_name.clone(),
        target.profile.behavior.processing_delay,
    );
    let mut pipe = Pipe::connect(http1, target.link, seed ^ 0x11);
    for _ in 0..n {
        let t0 = pipe.now();
        pipe.client_send(&get_request(&target.site.authority, "/"));
        let arrivals = pipe.run_to_quiescence();
        if let Some(last) = arrivals.last() {
            comparison.h1_request.push((last.at - t0).as_millis_f64());
        }
    }
    comparison
}

/// Median of a sample set (NaN when empty) — the summary statistic the
/// harness prints per estimator.
#[expect(
    clippy::indexing_slicing,
    reason = "mid = len/2 < len, and an even len here is >= 2, so mid >= 1"
)]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    // total_cmp gives NaN a defined order, so sorting cannot panic.
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};
    use netsim::time::SimDuration;
    use netsim::LinkSpec;

    fn wan_target(delay_ms: u64) -> Target {
        let mut target = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        target.link = LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            retransmit_penalty: SimDuration::ZERO,
        };
        target
    }

    #[test]
    fn all_testbed_servers_answer_ping() {
        for profile in ServerProfile::testbed() {
            let name = profile.name.clone();
            let target = Target::testbed(profile, SiteSpec::benchmark());
            let report = probe(&target, 3);
            assert!(report.supported, "{name}");
            assert_eq!(report.rtt_ms.len(), 3);
        }
    }

    #[test]
    fn h2_ping_measures_network_rtt_exactly_on_clean_link() {
        let report = probe(&wan_target(30), 4);
        for rtt in &report.rtt_ms {
            assert!((rtt - 60.0).abs() < 1.0, "got {rtt} ms");
        }
    }

    #[test]
    fn figure6_relationships_hold() {
        let comparison = compare_rtt(&wan_target(25), 10, 77);
        let h2 = median(&comparison.h2_ping);
        let icmp = median(&comparison.icmp);
        let tcp = median(&comparison.tcp);
        let h1 = median(&comparison.h1_request);
        assert!((h2 - icmp).abs() < 2.0, "h2-ping ≈ icmp ({h2} vs {icmp})");
        assert!((h2 - tcp).abs() < 2.0, "h2-ping ≈ tcp ({h2} vs {tcp})");
        assert!(
            h1 > h2 + 0.2,
            "h1-request strictly above h2-ping ({h1} vs {h2})"
        );
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
