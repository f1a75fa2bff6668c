//! The unified attack-report schema.
//!
//! Every vector reduces to the same ledger: what the attacker spent,
//! what it cost the server, and whether the server defended itself. All
//! arithmetic is checked/saturating: a report is a measurement, and a
//! measurement that panics on overflow measured nothing.

use h2scope::Reaction;

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
}
