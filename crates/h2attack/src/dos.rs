//! The paper's discussion-section DoS vectors, simulated.
//!
//! Section VI of *"Are HTTP/2 Servers Ready Yet?"* warns that several of
//! the protocol features the paper measures are dual-use: the same
//! mechanisms that protect endpoints can be turned against them. These
//! modules turn those warnings into runnable experiments against the
//! workspace's simulated servers, with a mitigation measured next to
//! each attack:
//!
//! | §VI concern | Module | Mitigation measured |
//! |---|---|---|
//! | flow control as a memory pin (malicious receiver) | [`slow_receiver`] | minimum-window policy |
//! | `SETTINGS_HEADER_TABLE_SIZE` abuse | [`table_thrash`] | capping the encoder table |
//! | priority-tree algorithmic complexity | [`priority_churn`] | pruning inactive streams |
//!
//! Everything runs in virtual time on the deterministic simulator: the
//! "attacks" never touch a network and exist to quantify *engine*
//! behavior (octets pinned, table growth, tree size), exactly as a
//! defensive capacity-planning exercise would. Each experiment's report
//! converts into the unified [`crate::AttackReport`] ledger.
//!
//! ```
//! use h2attack::dos::slow_receiver;
//! use h2scope::Target;
//! use h2server::{ServerProfile, SiteSpec};
//!
//! let victim = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());
//! let report = slow_receiver::attack(&victim, 4);
//! // Deterministic: same target, same stream count, same report.
//! assert_eq!(report.attacker_octets, 152);
//! assert_eq!(report.pinned_octets, 1_048_572); // kilobytes pinned...
//! assert_eq!(report.amplification, 6_898); // ...per attacker octet
//! ```

pub mod priority_churn;
pub mod slow_receiver;
pub mod table_thrash;

pub use priority_churn::ChurnReport;
pub use slow_receiver::SlowReceiverReport;
pub use table_thrash::TableThrashReport;
