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
//! One instrument serves the testbed and the wild scans alike:
//! [`H2Scope::survey`] runs the probe funnel on a site and
//! [`expected::Verdicts::of`] projects its [`SiteReport`] onto the
//! verdicts Table III and the §V tables count. The multiplexing and PING
//! probes are the paper's testbed-only pair and stay outside the funnel.
//!
//! ```
//! use h2scope::expected::Verdicts;
//! use h2scope::{H2Scope, Target};
//! use h2server::{ServerProfile, SiteSpec};
//!
//! let target = Target::testbed(ServerProfile::h2o(), SiteSpec::testbed());
//! let verdicts = Verdicts::of(&H2Scope::new().survey(&target));
//! assert_eq!(verdicts.by_last_frame, Some(true)); // H2O honors priorities
//! assert_eq!(verdicts.push, Some(true)); // ...and pushes the page's assets
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
pub use report::SiteReport;
pub use resilient::{
    survey_with_retries, FaultLog, ProbeFailure, ProbeOutcome, ProbeStats, MAX_RETRY_BACKOFF,
};
pub use scope::{H2Scope, ScopeConfig};
pub use target::{HandlerHook, Target};
