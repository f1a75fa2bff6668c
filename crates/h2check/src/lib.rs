//! # h2check — in-repo static analysis for the HTTP/2 workspace
//!
//! A registry-free conformance and lint suite, run in CI as
//! `cargo run -p h2check -- --workspace`. Three layers:
//!
//! 1. **Spec-conformance tables** ([`spec`]): RFC 7540's §5.1
//!    stream-state machine, §6 frame constraints and §6.5.2 SETTINGS
//!    bounds as declarative data, cross-validated ([`drift`]) against
//!    the live implementations — `h2conn`'s transitions, `h2wire`'s
//!    decoder and error taxonomy, every `ServerProfile` quirk matrix
//!    and every `h2scope` probe classifier (including running the
//!    actual simulated probes and comparing the observed reactions
//!    with the matrix's predictions).
//! 2. **Source lints** ([`lints`]): a hand-rolled token scanner
//!    ([`lexer`]) enforcing a cycle-free lock acquisition order in the
//!    thread-sharing modules, plus a count of the member manifests that
//!    inherit `[workspace.lints]`.
//! 3. **HPACK + determinism** ([`spec::hpack`], [`spec::atomics`]):
//!    RFC 7541's static table, Huffman code (as a canonical length
//!    profile), prefix-integer boundaries, entry-size arithmetic and
//!    eviction/size-update rules, cross-validated against the live
//!    `h2hpack`; a deterministic-iteration lint
//!    ([`lints::detiter`]) that errors on hash-ordered iteration in
//!    the output-producing crates; and an atomic-ordering registry
//!    ([`lints::atomics`]) that makes the fold-at-snapshot
//!    commutativity argument a checked artifact.
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
