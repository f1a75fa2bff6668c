//! # h2obs — campaign observability for the HTTP/2 readiness testbed
//!
//! The paper classifies servers purely from which frames come back and
//! when; this crate makes that frame exchange *visible*. It provides:
//!
//! * one metrics registry per campaign — `Relaxed` atomic counters and
//!   log2-bucketed [`Histogram`]s over **simulated** time: frames sent
//!   and received by kind, bytes on the wire, HPACK table evictions,
//!   retries and backoff waits, per-probe and per-site latency
//!   percentiles, read as a [`CampaignSnapshot`].
//! * [`trace::Ring`]-buffered frame-level event traces — timestamped
//!   send/recv/timeout/reset/retry events per traced site.
//! * [`Obs`] — the cheap cloneable handle threaded through
//!   `netsim::pipe`, `h2conn::core`, `h2scope` and `bench::scan`.
//!   An off handle (`Obs::off()`, the default) is `None`: making,
//!   cloning or deriving it allocates nothing, each recording call is
//!   one branch, and campaign output stays bit-identical to the
//!   uninstrumented baseline.
//! * [`json`] — the one ordered JSON writer behind `OBS_campaign.json`,
//!   `PUSH_campaign.json` and `ABUSE_campaign.json`.
//!
//! Determinism contract (same as `h2fault`): every recorded quantity is
//! either an order-independent sum or flushed in per-site batches and
//! sorted by site index, so `render_json` output is byte-identical at
//! any worker thread count. Nothing in this crate reads wall-clock time
//! or randomness; all timestamps are virtual nanoseconds supplied by the
//! caller (`netsim::SimTime::as_nanos`).
//!
//! Zero dependencies by design — the crates it instruments must be able
//! to depend on it without cycles or registry access.

pub mod json;
pub mod metrics;
pub mod obs;
pub mod render;
pub mod trace;

pub use metrics::{
    frame_slot, FrameCounters, Histogram, HistogramSnapshot, FRAME_KINDS, FRAME_KIND_NAMES,
};
pub use obs::{CampaignSnapshot, Obs, ProbeKind, PROBE_KINDS, TRACE_RING_CAP};
pub use render::{render_json, render_table, TABLE_MARKER};
pub use trace::{EventKind, SiteTrace, TraceEvent};
