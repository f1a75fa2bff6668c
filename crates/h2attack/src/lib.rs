//! # h2attack — malicious clients and the two §VI matrices
//!
//! Section VI of *"Are HTTP/2 Servers Ready Yet?"* closes by warning
//! that the protocol's new machinery — flow control, CONTINUATION,
//! SETTINGS, HPACK, priorities — is dual-use. This crate extends the
//! paper's Table III methodology from *conformance* quirks to
//! *robustness* quirks, in two parts:
//!
//! 1. [`vectors`]: a malicious-client generator. Seven attack vectors
//!    (rapid reset, CONTINUATION flood, slow read, slow POST, SETTINGS
//!    flood, HPACK table thrash, priority churn) drive the
//!    deterministic simulator against any [`h2scope::Target`]; a
//!    report depends on the target's profile and site, not on a seed.
//! 2. [`matrix`]: the per-profile robustness quirk matrix — which
//!    servers bound each abuse vector, and how they react when the
//!    bound is crossed, measured by engaging the vectors past every
//!    profile's bound — and the attack matrix, every vector run once
//!    at its attacker volume against every profile.
//!
//! Every engagement reports through one [`AttackReport`] schema, so
//! `repro abuse` prints every vector in one grid.
//!
//! ```
//! use h2attack::{run, AttackVector};
//! use h2scope::Target;
//! use h2server::{ServerProfile, SiteSpec};
//!
//! let victim = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());
//! let report = run(AttackVector::SlowRead, &victim, 7);
//! // The RFC reference mounts no defense: the bodies stay pinned.
//! assert!(!report.defended);
//! assert_eq!(report.server_cost, 1_048_572);
//! assert_eq!(report.amplification, 6_204);
//! ```

#![warn(missing_docs)]

pub mod matrix;
pub mod report;
pub mod vectors;

pub use matrix::{
    attack_matrix, hardening, robustness_matrix, AbuseHardeningReport, AttackRow, RobustnessRow,
};
pub use report::AttackReport;
pub use vectors::{engage, run, AttackVector};
