//! # h2scope — the paper's measurement tool, rebuilt
//!
//! H2Scope characterizes how an HTTP/2 server realizes the protocol's new
//! features by speaking to it at the *frame* level: it sends SETTINGS,
//! WINDOW_UPDATE, PRIORITY and PING frames a conforming client library
//! would never emit, and classifies the server's reaction.
//!
//! The probe suite maps one-to-one onto the paper's Section III:
//!
//! | Paper | Module |
//! |---|---|
//! | §III-A request multiplexing, MAX_CONCURRENT_STREAMS | [`probes::multiplexing`] |
//! | §III-B flow control (4 tests) | [`probes::flow_control`] |
//! | §III-C Algorithm 1 + self-dependency | [`probes::priority`] |
//! | §III-D server push | [`probes::push`] |
//! | §III-E HPACK ratio (eq. 1) | [`probes::hpack`] |
//! | §III-F PING RTT vs ICMP/TCP/HTTP1.1 | [`probes::ping`] |
//! | §IV-A ALPN/NPN | [`probes::negotiation`] |
//! | §V-C SETTINGS survey | [`probes::settings`] |
//! | §V-F page-load with/without push | [`pageload`] |
//!
//! ```
//! use h2scope::{H2Scope, Target};
//! use h2server::{ServerProfile, SiteSpec};
//!
//! let scope = H2Scope::new();
//! let report = scope.characterize(&Target::testbed(
//!     ServerProfile::h2o(), SiteSpec::benchmark()));
//! assert!(report.priority.passes());   // H2O honors priorities
//! assert!(report.push.supported == false); // benchmark site has no manifest
//! ```

// Panic-freedom: this crate parses outside input, so a site that can
// panic needs a reasoned `allow`/`expect` (clippy.toml exempts tests).
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod client;
pub mod expected;
pub mod pageload;
pub mod probes;
pub mod report;
pub mod resilient;
pub mod scope;
pub mod storage;
pub mod target;

pub use client::{ProbeConn, TimedFrame};
pub use h2obs::{Obs, ProbeKind};
pub use probes::{classify_reaction, Reaction};
pub use report::{ServerCharacterization, SiteReport};
pub use resilient::{
    survey_with_retries, FaultLog, ProbeFailure, ProbeOutcome, ProbeStats, MAX_RETRY_BACKOFF,
};
pub use scope::{H2Scope, ScopeConfig};
pub use target::{HandlerHook, Target};
