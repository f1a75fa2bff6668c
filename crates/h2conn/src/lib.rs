//! # h2conn — HTTP/2 connection and stream state machine
//!
//! The protocol substrate between the wire format ([`h2wire`]) and the
//! endpoints built in this workspace (`h2server`'s quirk-driven server
//! engine, `h2scope`'s frame-level probes):
//!
//! * [`window`] — flow-control window arithmetic with overflow detection.
//! * [`priority`] — the RFC 7540 §5.3 dependency tree, reprioritization
//!   (including the §5.3.3 descendant-move rule), self-dependency
//!   detection, and a parent-before-children weighted scheduler.
//! * [`stream`] — the §5.1 stream lifecycle and the per-connection stream
//!   table.
//! * [`assembler`] — HEADERS/CONTINUATION block assembly.
//! * [`core`] — [`ConnectionCore`], the sans-IO state machine that applies
//!   received frames mechanically and reports policy-relevant conditions
//!   (zero window updates, overflows, self-dependencies, concurrency
//!   violations) as [`CoreEvent`]s for the caller to react to. That split
//!   is what lets one engine faithfully model six servers with different
//!   RFC deviations.
//!
//! ```
//! use h2conn::{ConnectionCore, CoreEvent, EffectiveSettings, Role};
//! use h2hpack::{EncoderOptions, Header};
//! use h2wire::StreamId;
//!
//! # fn main() -> Result<(), h2conn::ConnError> {
//! let mut client = ConnectionCore::new(
//!     Role::Client, EffectiveSettings::default(), EncoderOptions::default());
//! let mut server = ConnectionCore::new(
//!     Role::Server, EffectiveSettings::default(), EncoderOptions::default());
//! let request = vec![Header::new(":method", "GET"), Header::new(":path", "/")];
//! for frame in client.encode_headers(StreamId::new(1), &request, true, None) {
//!     let events = server.recv_bytes(&frame.to_bytes())?;
//!     assert!(matches!(events[0], CoreEvent::HeadersReceived { .. }));
//! }
//! # Ok(())
//! # }
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

pub mod assembler;
pub mod core;
pub mod priority;
pub mod stream;
pub mod window;

pub use crate::core::{
    ConnError, ConnectionCore, CoreEvent, CoreScratch, EffectiveSettings, Role, WindowScope,
};
pub use assembler::{AssemblyError, BlockKind, CompleteBlock, HeaderAssembler};
pub use priority::{PriorityTree, SelfDependencyError};
pub use stream::{Stream, StreamMap, StreamState};
pub use window::{FlowWindow, WindowError, DEFAULT_WINDOW, MAX_WINDOW};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConnectionCore>();
        assert_send_sync::<PriorityTree>();
        assert_send_sync::<StreamMap>();
        assert_send_sync::<CoreEvent>();
    }
}
