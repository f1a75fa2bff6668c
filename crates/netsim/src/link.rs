//! Link model: propagation delay, serialization bandwidth, jitter, and
//! loss-induced retransmission delay.

use rand::StdRng;

use crate::time::{SimDuration, SimTime};

/// Characteristics of one direction of a network path.
///
/// Loss is modeled as *retransmission delay* rather than byte corruption:
/// every endpoint in this workspace speaks over a reliable TCP-like
/// transport, where a lost segment shows up to the application as added
/// latency, not missing bytes. Datagram probes (ICMP) sample loss
/// directly via [`LinkSpec::datagram_lost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Uniform jitter added per transmission, `0..=jitter`.
    pub jitter: SimDuration,
    /// Serialization bandwidth in bits per second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Per-transmission loss probability in `[0, 1)`.
    pub loss: f64,
    /// Extra delay charged when a segment is "lost" and retransmitted.
    pub retransmit_penalty: SimDuration,
}

impl Default for LinkSpec {
    fn default() -> LinkSpec {
        LinkSpec::lan()
    }
}

impl LinkSpec {
    /// A fast, clean LAN path: 0.2 ms one-way, 1 Gbps, no loss.
    pub fn lan() -> LinkSpec {
        LinkSpec {
            delay: SimDuration::from_micros(200),
            jitter: SimDuration::ZERO,
            bandwidth_bps: Some(1_000_000_000),
            loss: 0.0,
            retransmit_penalty: SimDuration::from_millis(200),
        }
    }

    /// A typical WAN path with the given one-way delay in milliseconds.
    pub fn wan(delay_ms: u64) -> LinkSpec {
        LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::from_micros(delay_ms * 20), // 2% jitter
            bandwidth_bps: Some(100_000_000),
            loss: 0.0,
            retransmit_penalty: SimDuration::from_millis(200),
        }
    }

    /// A lossy mobile path (the discussion section's scenario).
    pub fn mobile(delay_ms: u64, loss: f64) -> LinkSpec {
        LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::from_millis(delay_ms / 5),
            bandwidth_bps: Some(20_000_000),
            loss,
            retransmit_penalty: SimDuration::from_millis(300),
        }
    }

    /// Serialization time for `bytes` octets at this link's bandwidth.
    pub fn serialization_time(&self, bytes: usize) -> SimDuration {
        match self.bandwidth_bps {
            Some(bps) if bps > 0 => {
                SimDuration::from_nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / bps)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Total one-way latency for a transmission of `bytes` octets,
    /// sampling jitter and loss from `rng`.
    pub fn transit_time(&self, bytes: usize, rng: &mut StdRng) -> SimDuration {
        self.delay + self.serialization_time(bytes) + self.random_delay(rng)
    }

    /// One jitter sample, uniform over `[0, jitter]`; a jitter-free link
    /// draws nothing.
    pub(crate) fn sample_jitter(&self, rng: &mut StdRng) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(rng.gen_range(0..=self.jitter.as_nanos()))
    }

    /// Whether a single datagram is dropped outright (ICMP-style).
    pub fn datagram_lost(&self, rng: &mut StdRng) -> bool {
        self.loss > 0.0 && rng.gen_bool(self.loss.min(0.999_999))
    }

    /// The random part of one reliable transmission: a jitter sample, plus
    /// the retransmit penalty when the first copy is lost.
    fn random_delay(&self, rng: &mut StdRng) -> SimDuration {
        let jitter = self.sample_jitter(rng);
        if self.datagram_lost(rng) {
            jitter + self.retransmit_penalty
        } else {
            jitter
        }
    }

    /// Schedules a transmission on a serialized link: given the link is
    /// busy until `busy_until` and the send is requested at `now`, returns
    /// `(arrival_time, new_busy_until)`.
    pub fn schedule(
        &self,
        now: SimTime,
        busy_until: SimTime,
        bytes: usize,
        rng: &mut StdRng,
    ) -> (SimTime, SimTime) {
        let start = now.max(busy_until);
        let tx_done = start + self.serialization_time(bytes);
        (tx_done + self.delay + self.random_delay(rng), tx_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_scales_with_bytes() {
        let link = LinkSpec {
            bandwidth_bps: Some(8_000_000),
            ..LinkSpec::lan()
        };
        // 8 Mbps = 1 byte per microsecond.
        assert_eq!(
            link.serialization_time(1_000),
            SimDuration::from_micros(1_000)
        );
        assert_eq!(link.serialization_time(0), SimDuration::ZERO);
    }

    #[test]
    fn infinite_bandwidth_serializes_instantly() {
        let link = LinkSpec {
            bandwidth_bps: None,
            ..LinkSpec::lan()
        };
        assert_eq!(link.serialization_time(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn clean_link_transit_is_deterministic() {
        let link = LinkSpec {
            delay: SimDuration::from_millis(10),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            retransmit_penalty: SimDuration::ZERO,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            link.transit_time(500, &mut rng),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn lossy_link_sometimes_pays_penalty() {
        let link = LinkSpec {
            delay: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.5,
            retransmit_penalty: SimDuration::from_millis(100),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<SimDuration> = (0..100).map(|_| link.transit_time(1, &mut rng)).collect();
        let slow = samples
            .iter()
            .filter(|d| **d > SimDuration::from_millis(50))
            .count();
        assert!(
            (20..=80).contains(&slow),
            "retransmits in a plausible band: {slow}"
        );
    }

    #[test]
    fn schedule_serializes_back_to_back_sends() {
        let link = LinkSpec {
            delay: SimDuration::from_millis(5),
            jitter: SimDuration::ZERO,
            bandwidth_bps: Some(8_000_000), // 1 byte/us
            loss: 0.0,
            retransmit_penalty: SimDuration::ZERO,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (arrival1, busy1) = link.schedule(SimTime::ZERO, SimTime::ZERO, 1_000, &mut rng);
        assert_eq!(busy1, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(arrival1, SimTime::ZERO + SimDuration::from_millis(6));
        // Second send queued while the first is still serializing.
        let (arrival2, busy2) = link.schedule(SimTime::ZERO, busy1, 1_000, &mut rng);
        assert_eq!(busy2, SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(arrival2, SimTime::ZERO + SimDuration::from_millis(7));
    }
}
