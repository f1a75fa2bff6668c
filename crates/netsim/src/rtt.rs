//! RTT estimators: ICMP echo and TCP three-way-handshake timing.
//!
//! These are the two non-HTTP baselines the paper compares HTTP/2 PING
//! against in Figure 6. Both measure pure network RTT — no server
//! application processing enters the path — which is why the paper finds
//! them nearly identical to h2-ping and systematically below the
//! HTTP/1.1 request estimator.

use rand::StdRng;

use crate::link::LinkSpec;
use crate::time::SimDuration;

/// ICMP echo: one datagram out, one back. Returns `None` on packet loss
/// (ICMP has no retransmission).
pub fn icmp_rtt(link: &LinkSpec, rng: &mut StdRng) -> Option<SimDuration> {
    if link.datagram_lost(rng) || link.datagram_lost(rng) {
        return None;
    }
    // 64-byte echo payload each way; kernel echo turnaround is immediate.
    let out = link.delay + link.serialization_time(64) + link.sample_jitter(rng);
    let back = link.delay + link.serialization_time(64) + link.sample_jitter(rng);
    Some(out + back)
}

/// TCP handshake RTT: SYN out, SYN/ACK back (kernel responds, no
/// application involvement). Loss is absorbed by retransmission delay as
/// in any reliable transport.
pub fn tcp_handshake_rtt(link: &LinkSpec, rng: &mut StdRng) -> SimDuration {
    let syn = link.transit_time(60, rng);
    let syn_ack = link.transit_time(60, rng);
    syn + syn_ack
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(delay_ms: u64) -> LinkSpec {
        LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            retransmit_penalty: SimDuration::from_millis(200),
        }
    }

    #[test]
    fn icmp_rtt_is_twice_one_way_delay_on_clean_link() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            icmp_rtt(&clean(25), &mut rng),
            Some(SimDuration::from_millis(50))
        );
    }

    #[test]
    fn tcp_handshake_matches_icmp_on_clean_link() {
        let mut rng = StdRng::seed_from_u64(1);
        let link = clean(25);
        let tcp = tcp_handshake_rtt(&link, &mut rng);
        let icmp = icmp_rtt(&link, &mut rng).unwrap();
        assert_eq!(tcp, icmp);
    }

    #[test]
    fn lossy_link_drops_some_icmp_samples() {
        let link = LinkSpec {
            loss: 0.3,
            ..clean(10)
        };
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<SimDuration> =
            (0..200).filter_map(|_| icmp_rtt(&link, &mut rng)).collect();
        assert!(samples.len() < 200, "some losses expected");
        assert!(samples.len() > 50, "not everything lost");
    }

    #[test]
    fn tcp_pays_retransmit_penalty_instead_of_losing_samples() {
        let link = LinkSpec {
            loss: 0.3,
            ..clean(10)
        };
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<SimDuration> = (0..200)
            .map(|_| tcp_handshake_rtt(&link, &mut rng))
            .collect();
        assert_eq!(samples.len(), 200, "TCP never loses a sample");
        assert!(samples.iter().any(|d| *d > SimDuration::from_millis(100)));
    }
}
