//! # h2serve — the campaign store served over our own HTTP/2 stack
//!
//! The paper's artifact is a pile of scan tables; ROADMAP item 3 asks
//! for the next step toward "heavy traffic from millions of users":
//! *serving* those tables. This crate wraps the persistent h2campaign
//! record store in a long-running query service whose requests ride the
//! repo's own protocol stack end to end — encoded with h2wire/h2hpack,
//! multiplexed through h2conn, dispatched by [`h2server::H2Server`] to
//! the [`handler::QueryHandler`] installed via
//! [`h2server::H2Server::set_handler`]. It is the first workload where
//! the server engine carries sustained traffic instead of a handful of
//! conformance probes.
//!
//! Layout:
//!
//! * [`index`] — finalized records loaded through the one validated
//!   disk→memory path ([`h2campaign::load_finalized`]) into read-only
//!   in-memory indexes: per-site lookup by the stable rank hostname
//!   (`site-<rank>.top1m`) with the canonical response line precomputed
//!   per row, plus [`index::shard_of`] — the FNV-1a site-rank hash that
//!   assigns every query a home shard.
//! * [`query`] — the query alphabet (`/q/site/…`, `/q/table/…`,
//!   `/q/diff/…`), its parser, and the seeded deterministic query-trace
//!   generator the load driver replays.
//! * [`cache`] — the per-shard LRU cache for regenerated tables and
//!   diffs, keyed by the canonical query path (campaign + query +
//!   params), with hit/miss counters. Each shard owns its cache
//!   outright (shared-nothing, like the scan pool), so eviction order
//!   is a pure function of that shard's query subsequence.
//! * [`handler`] — the [`h2server::RequestHandler`] that answers
//!   queries. Responses are pure functions of `(loaded records, query)`
//!   — never of worker count, cache state, interleaving, or metrics —
//!   which is what makes the daemon's byte-identical-responses
//!   guarantee hold at any shard count, cache hit or miss.
//!
//! Buffer discipline: response bodies are immutable shared [`bytes::Bytes`]
//! (precomputed per site row, LRU-cached per table/diff), so a lookup is
//! a refcount bump; a table or diff is rendered into a fresh buffer only on a
//! cache miss, and the wire path carrying the bodies runs in the storage
//! each worker hands from one probe connection to the next
//! (`Pipe::connect_pooled`).

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

pub mod cache;
pub mod handler;
pub mod index;
pub mod query;

pub use cache::QueryCache;
pub use handler::QueryHandler;
pub use index::{shard_of, LoadedCampaign, ServeIndex};
pub use query::{generate_trace, Query};
