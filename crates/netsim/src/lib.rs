//! # netsim — deterministic discrete-event network substrate
//!
//! Replaces the live Internet in this reproduction. Everything the paper's
//! measurement pipeline touches on the network side is modeled here:
//!
//! * [`time`] — virtual clock ([`SimTime`], [`SimDuration`]).
//! * [`link`] — propagation delay, serialization bandwidth, jitter, and
//!   loss-as-retransmission-delay ([`LinkSpec`]).
//! * [`pipe`] — the client↔server byte transport with a time-ordered
//!   delivery loop ([`Pipe`], [`ByteEndpoint`]), and the one place
//!   faults at an octet fire ([`Cut`]).
//! * [`tls`] — ALPN/NPN application-protocol negotiation semantics
//!   (crypto-free; only the negotiation direction matters to H2Scope).
//! * [`rtt`] — ICMP echo and TCP-handshake RTT estimators (Figure 6
//!   baselines).
//! * [`http1`] — a minimal HTTP/1.1 origin for the fourth RTT estimator.
//!
//! Determinism: every stochastic choice (jitter, loss) draws from a seeded
//! RNG owned by the component, so whole measurement campaigns replay
//! bit-identically from a campaign seed.
//!
//! ```
//! use netsim::{LinkSpec, Pipe, SimDuration};
//! use netsim::http1::{get_request, parse_status, Http1Server};
//!
//! let server = Http1Server::new("demo/1.0", SimDuration::from_millis(5));
//! let mut pipe = Pipe::connect(server, LinkSpec::wan(20), 42);
//! pipe.client_send(&get_request("example.com", "/"));
//! let arrivals = pipe.run_to_quiescence();
//! assert_eq!(parse_status(&arrivals[0].bytes), Some(200));
//! ```

#![warn(missing_docs)]

pub mod http1;
pub mod link;
pub mod pipe;
pub mod rtt;
pub mod time;
pub mod tls;

pub use link::LinkSpec;
pub use pipe::{Arrival, ByteEndpoint, Cut, CutAction, Cuts, Pipe, PipeFaults, RunOutcome};
pub use time::{SimDuration, SimTime};
pub use tls::{handshake, TlsConfig, TlsHandshake};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinkSpec>();
        assert_send_sync::<SimTime>();
        assert_send_sync::<TlsConfig>();
    }
}
