//! The discussion section's first concern, made measurable: "since
//! HTTP/2 uses one TCP connection, its performance may be significantly
//! affected in a lossy environment ... Using more than one TCP connection
//! could mitigate such problem."
//!
//! A lost segment on a reliable byte stream stalls *everything* behind it
//! (head-of-line blocking at the transport). One HTTP/2 connection
//! multiplexes all streams over one such pipe; splitting the same
//! transfer across several connections dilutes each loss event to a
//! fraction of the streams.

// h2check: allow-file(index) — lane vectors sized at construction and indexed by loop bounds

use std::collections::HashSet;

use h2wire::{Frame, Settings};
use netsim::time::SimDuration;

use crate::client::{data_octets, ProbeConn};
use crate::target::Target;

/// Result of one page-load trial over `connections` transports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiConnLoad {
    /// Connections used.
    pub connections: usize,
    /// Total time from first request to last byte.
    pub load_time: SimDuration,
    /// Octets transferred (page + assets).
    pub octets: u64,
}

/// Fetches `/` plus `assets` synthetic asset paths, split round-robin
/// across `connections` HTTP/2 connections.
///
/// # Panics
///
/// Panics if `connections == 0`.
pub fn load_with_connections(
    target: &Target,
    assets: &[String],
    connections: usize,
    seed: u64,
) -> MultiConnLoad {
    assert!(connections > 0, "at least one connection required");
    // Connection 0 carries the page; assets are spread over all conns.
    // Like a real browser, the client opens generous flow-control windows
    // up front so throughput is path-limited, not window-limited.
    let big = 1u32 << 30;
    let settings = Settings::new().with(h2wire::SettingId::InitialWindowSize, big);
    let mut conns: Vec<ProbeConn> = (0..connections)
        .map(|c| ProbeConn::establish(target, settings.clone(), seed ^ (c as u64) << 16))
        .collect();
    for conn in &mut conns {
        conn.send(Frame::WindowUpdate(h2wire::WindowUpdateFrame {
            stream_id: h2wire::StreamId::CONNECTION,
            increment: big,
        }));
        conn.exchange();
    }
    let mut octets = 0u64;

    // Page on connection 0.
    let (frames, _) = conns[0].fetch(1, "/");
    octets += data_octets(&frames);
    let page_done = conns[0].now();

    // Assets in parallel: each connection issues its share as concurrent
    // streams, then drains with window replenishment.
    let mut next_stream: Vec<u32> = vec![3; connections];
    let mut pending: Vec<HashSet<u32>> = vec![HashSet::new(); connections];
    for (k, asset) in assets.iter().enumerate() {
        let c = k % connections;
        let stream = next_stream[c];
        next_stream[c] += 2;
        conns[c].get(stream, asset, None);
        pending[c].insert(stream);
    }
    let mut finish = page_done;
    for (c, conn) in conns.iter_mut().enumerate() {
        loop {
            let frames = conn.exchange();
            if frames.is_empty() {
                break;
            }
            for tf in &frames {
                if let Frame::Data(d) = &tf.frame {
                    octets += d.data.len() as u64;
                    conn.replenish(d.stream_id.value(), d.flow_controlled_len());
                    if d.end_stream {
                        pending[c].remove(&d.stream_id.value());
                    }
                }
            }
            if pending[c].is_empty() {
                break;
            }
        }
        // Connections ran concurrently in real time; the page phase is
        // shared, the asset phase is the per-connection tail.
        finish = finish.max(conn.now());
    }
    MultiConnLoad {
        connections,
        load_time: finish - netsim::SimTime::ZERO,
        octets,
    }
}

/// Runs the single-vs-multi comparison over `trials` seeds, returning
/// mean load times in ms: `(one_connection, k_connections)`.
pub fn compare(target: &Target, assets: &[String], k: usize, trials: usize) -> (f64, f64) {
    let mut single = 0.0;
    let mut multi = 0.0;
    for t in 0..trials {
        let seed = 0x10ad ^ (t as u64) << 24;
        single += load_with_connections(target, assets, 1, seed)
            .load_time
            .as_millis_f64();
        multi += load_with_connections(target, assets, k, seed)
            .load_time
            .as_millis_f64();
    }
    (single / trials as f64, multi / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};
    use netsim::LinkSpec;

    fn asset_paths(n: usize) -> Vec<String> {
        (1..=n).map(|k| format!("/big/{k}")).collect()
    }

    fn target_with(loss: f64) -> Target {
        let mut target = Target::testbed(ServerProfile::h2o(), SiteSpec::benchmark());
        // High bandwidth so the comparison isolates loss-induced stalls
        // rather than per-connection serialization capacity.
        target.link = LinkSpec {
            bandwidth_bps: Some(1_000_000_000),
            ..LinkSpec::mobile(30, loss)
        };
        target
    }

    #[test]
    fn all_octets_arrive_regardless_of_connection_count() {
        let target = target_with(0.0);
        let assets = asset_paths(4);
        let one = load_with_connections(&target, &assets, 1, 7);
        let four = load_with_connections(&target, &assets, 4, 7);
        assert_eq!(one.octets, four.octets);
        assert!(one.octets > 4 * 200_000, "four big objects plus the page");
    }

    #[test]
    fn on_a_clean_link_one_connection_wins_or_ties() {
        // Without loss, extra connections only add handshakes.
        let target = target_with(0.0);
        let assets = asset_paths(4);
        let (single, multi) = compare(&target, &assets, 4, 3);
        assert!(single <= multi * 1.15, "single {single} vs multi {multi}");
    }

    #[test]
    fn on_a_lossy_link_multiple_connections_help() {
        // The paper's §VI claim: loss hits a single multiplexed pipe
        // hardest. 8% loss, 30 ms one-way. Enough objects and trials
        // that the head-of-line effect dominates seed-to-seed noise.
        let target = target_with(0.08);
        let assets = asset_paths(10);
        let (single, multi) = compare(&target, &assets, 3, 16);
        assert!(
            multi < single,
            "multi-connection should win under loss: single {single} vs multi {multi}"
        );
    }
}
