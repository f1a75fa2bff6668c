//! # h2server — behavior-driven HTTP/2 server engine
//!
//! One server engine ([`H2Server`]), ten personalities. The engine
//! implements the full HTTP/2 server role on top of
//! [`h2conn::ConnectionCore`]; every place where RFC 7540 leaves reactions
//! open (or where real servers deviate from it) is a knob in the
//! [`ServerBehavior`] matrix. The [`profiles`] module fills in that matrix
//! for the six servers the paper characterizes in its testbed (Table III)
//! plus the wild-scan families from Table IV — and a strict
//! [`ServerProfile::rfc7540`] reference corresponding to Table III's last
//! column.
//!
//! ```
//! use h2server::{H2Server, ServerProfile, SiteSpec};
//! use netsim::{LinkSpec, Pipe};
//!
//! let server = H2Server::new(ServerProfile::nginx(), SiteSpec::benchmark());
//! let mut pipe = Pipe::connect(server, LinkSpec::lan(), 7);
//! pipe.client_send(h2wire::CONNECTION_PREFACE);
//! let greeting = pipe.run_to_quiescence();
//! assert!(!greeting.is_empty()); // server SETTINGS (+ Nginx's WINDOW_UPDATE)
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

pub mod behavior;
pub mod engine;
pub mod profiles;
mod pump;
pub mod site;
mod transport;

pub use behavior::{HeadersFlowControl, PushPolicy, QuirkAction, ServerBehavior};
pub use engine::{H2Server, HandlerResponse, RequestHandler, ServerScratch};
pub use profiles::ServerProfile;
pub use site::{Resource, SiteSpec};
