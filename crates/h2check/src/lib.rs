//! # h2check — in-repo static analysis for the HTTP/2 workspace
//!
//! The RFC as tables, plus the checks that need the repository's source
//! text. Two halves, two runners:
//!
//! - **`cargo run -p h2check -- --workspace`** (this library and its
//!   binary; depends on `h2wire` only, for the wire enums the tables
//!   name). The tables themselves — RFC 7540's §5.1 stream-state
//!   machine, §6 frame constraints, §6.5.2 SETTINGS bounds and the rule
//!   registry ([`spec`]); RFC 7541's static table, Huffman length
//!   profile, prefix-integer boundaries and eviction/size-update
//!   scenarios ([`spec::hpack`]) — and the source lints over a
//!   hand-rolled token scanner ([`lexer`], [`lints`]): a cycle-free lock
//!   acquisition order ([`lints::lockorder`]), no hash-ordered iteration
//!   in the output-producing crates ([`lints::detiter`]), the
//!   atomic-ordering registry ([`spec::atomics`], [`lints::atomics`]),
//!   every `ServerBehavior` field and `h2scope` probe citing a spec rule
//!   ([`drift`]), and a count of the member manifests that inherit
//!   `[workspace.lints]`.
//! - **`cargo test -p h2check`** (`tests/conformance.rs`,
//!   `tests/conformance_hpack.rs`, `tests/hpack_proptest.rs`): the
//!   tables asserted against the live stack — `h2conn`'s transitions,
//!   `h2wire`'s decoder and error taxonomy, `h2hpack`'s tables and
//!   codecs, and every testbed `ServerProfile`'s quirk matrix against
//!   the reactions the actual simulated `h2scope` probes observe. The
//!   protocol crates are dev-dependencies: the binary does not link them.
//!
//! What the toolchain already checks is not re-implemented here:
//! panic-freedom of the crates that parse outside input
//! (`clippy::{indexing_slicing, unwrap_used, expect_used, panic,
//! unreachable, todo, unimplemented}` at their crate roots), `unsafe`
//! (`unsafe_code = "forbid"` in `[workspace.lints]`) and virtual-time
//! discipline (`disallowed-types`/`-methods` in the root `clippy.toml`)
//! are gated by CI's `cargo clippy --workspace --all-targets -- -D
//! warnings`, with exemptions written as `#[allow(…, reason = "…")]` /
//! `#[expect(…, reason = "…")]`. Every finding of this suite is an
//! error; there is no waiver syntax.

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

pub mod drift;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod spec;
pub mod workspace;

pub use report::{Finding, Report};
