//! # h2check — RFC 7540/7541 as tables, asserted against the workspace
//!
//! The tables ([`spec`]): RFC 7540's §5.1 stream-state machine, §6 frame
//! constraints, §6.5.2 SETTINGS bounds and the rule registry that every
//! `ServerBehavior` field and `h2scope` probe cites; RFC 7541's static
//! table, Huffman length profile, prefix-integer boundaries and
//! eviction/size-update scenarios ([`spec::hpack`]). The library depends
//! on `h2wire` only, for the wire enums the tables name.
//!
//! `cargo test -p h2check` asserts them:
//!
//! - `tests/conformance.rs`, `tests/conformance_hpack.rs` and
//!   `tests/hpack_proptest.rs` check the tables against the live stack —
//!   `h2conn`'s transitions, `h2wire`'s decoder and error taxonomy,
//!   `h2hpack`'s tables and codecs, and every testbed `ServerProfile`'s
//!   quirk matrix against the reactions the simulated `h2scope` probes
//!   observe. The protocol crates are dev-dependencies.
//! - `tests/workspace.rs` holds the facts that need the repository
//!   itself: the quirk and probe registries match `ServerBehavior`'s
//!   fields and `h2scope`'s probes exactly, every member manifest
//!   inherits `[workspace.lints]`, and every atomic is `Relaxed`.
//!
//! What the toolchain checks is not re-implemented here: panic-freedom
//! of the crates that parse outside input (`clippy::{indexing_slicing,
//! unwrap_used, expect_used, panic, unreachable, todo, unimplemented}` at
//! their crate roots), `unsafe` (`unsafe_code = "forbid"` in
//! `[workspace.lints]`), virtual-time discipline and hash-ordered
//! containers (`disallowed-types`/`-methods` in the root `clippy.toml`)
//! are gated by CI's `cargo clippy --workspace --all-targets -- -D
//! warnings`, with exemptions written as `#[allow(…, reason = "…")]` /
//! `#[expect(…, reason = "…")]`.

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

pub mod spec;
