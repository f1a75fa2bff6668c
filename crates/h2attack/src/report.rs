//! The unified attack-report schema.
//!
//! Every vector — the four frame-level ones and the three [`crate::dos`]
//! experiments — reduces to the same ledger: what the attacker spent,
//! what it cost the server, and whether the server defended itself. All
//! arithmetic is checked/saturating: a report is a measurement, and a
//! measurement that panics on overflow measured nothing.

use h2scope::Reaction;

use crate::dos::{ChurnReport, SlowReceiverReport, TableThrashReport};
use crate::vectors::AttackVector;

/// Outcome of one attack engagement against one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackReport {
    /// Which vector ran.
    pub vector: AttackVector,
    /// Frames the attacker transmitted.
    pub attacker_frames: u64,
    /// Octets the attacker transmitted (including preface/SETTINGS).
    pub attacker_octets: u64,
    /// What the engagement cost the server, in [`AttackReport::cost_unit`]s.
    pub server_cost: u64,
    /// Unit of [`AttackReport::server_cost`] (pinned octets, table
    /// octets, tree nodes, acks extorted, buffered octets, ...).
    pub cost_unit: &'static str,
    /// Server cost per attacker octet (0 when the attacker sent nothing).
    pub amplification: u64,
    /// The server's defensive reaction, in the same taxonomy as the
    /// conformance probes.
    pub reaction: Reaction,
    /// `true` when the server reacted at all (any non-ignore reaction).
    pub defended: bool,
}

impl AttackReport {
    /// Assembles a report, deriving `amplification` and `defended`.
    pub fn new(
        vector: AttackVector,
        attacker_frames: u64,
        attacker_octets: u64,
        server_cost: u64,
        cost_unit: &'static str,
        reaction: Reaction,
    ) -> AttackReport {
        AttackReport {
            vector,
            attacker_frames,
            attacker_octets,
            server_cost,
            cost_unit,
            amplification: server_cost.checked_div(attacker_octets).unwrap_or(0),
            reaction,
            defended: reaction != Reaction::Ignored,
        }
    }

    /// Folds a slow-receiver engagement into the unified schema.
    /// The slow-receiver's cost is the response octets it pinned in the
    /// server's send queue.
    pub fn from_slow_receiver(r: &SlowReceiverReport, reaction: Reaction) -> AttackReport {
        AttackReport::new(
            AttackVector::SlowRead,
            0,
            r.attacker_octets,
            r.pinned_octets,
            "pinned octets",
            reaction,
        )
    }

    /// Folds a table-thrash engagement: the cost is the octets
    /// the victim's HPACK encoder table ballooned to.
    pub fn from_table_thrash(r: &TableThrashReport, octets_sent: u64) -> AttackReport {
        AttackReport::new(
            AttackVector::TableThrash,
            u64::from(r.requests),
            octets_sent,
            r.encoder_table_octets,
            "table octets",
            Reaction::Ignored,
        )
    }

    /// Folds a priority-churn engagement: the cost is the idle
    /// nodes the victim's dependency tree retains.
    pub fn from_priority_churn(r: &ChurnReport) -> AttackReport {
        AttackReport::new(
            AttackVector::PriorityChurn,
            r.frames_sent,
            r.attacker_octets,
            r.tree_nodes as u64,
            "tree nodes",
            Reaction::Ignored,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_is_checked_division() {
        let r = AttackReport::new(
            AttackVector::SlowRead,
            1,
            0,
            1_000_000,
            "pinned octets",
            Reaction::Ignored,
        );
        assert_eq!(r.amplification, 0, "zero attacker octets never divides");
        let r = AttackReport::new(
            AttackVector::SlowRead,
            1,
            500,
            1_000_000,
            "pinned octets",
            Reaction::Goaway,
        );
        assert_eq!(r.amplification, 2_000);
        assert!(r.defended);
    }

    #[test]
    fn legacy_reports_fold_into_the_schema() {
        let slow = SlowReceiverReport {
            attacker_octets: 400,
            pinned_octets: 2_000_000,
            amplification: 5_000,
            leaked_octets: 8,
        };
        let folded = AttackReport::from_slow_receiver(&slow, Reaction::Ignored);
        assert_eq!(folded.vector, AttackVector::SlowRead);
        assert_eq!(folded.amplification, 5_000);
        assert!(!folded.defended);

        let churn = ChurnReport {
            frames_sent: 147,
            attacker_octets: 2_097,
            tree_nodes: 64,
            tree_nodes_after_prune: 0,
        };
        let folded = AttackReport::from_priority_churn(&churn);
        assert_eq!(folded.server_cost, 64);
        assert_eq!(folded.cost_unit, "tree nodes");

        let thrash = TableThrashReport {
            announced_table_size: 1 << 26,
            encoder_table_octets: 12_000,
            requests: 48,
        };
        let folded = AttackReport::from_table_thrash(&thrash, 3_000);
        assert_eq!(folded.attacker_frames, 48);
        assert_eq!(folded.amplification, 4);
    }
}
