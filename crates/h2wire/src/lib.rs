//! # h2wire — RFC 7540 binary framing layer
//!
//! This crate implements the HTTP/2 wire format from scratch: the 9-octet
//! frame header, all ten frame types with their flags and padding rules,
//! the SETTINGS parameter space, error codes, and a streaming
//! [`FrameDecoder`].
//!
//! It deliberately allows *constructing* protocol-violating frames (zero
//! window updates, self-dependent priorities) because the H2Scope probes in
//! this workspace exist to send exactly those frames and observe how
//! servers react — the paper's core methodology. Violations are rejected on
//! the *decode* path, where a conforming endpoint must detect them. The one
//! exception is a WINDOW_UPDATE increment above 2^31-1: the 31-bit wire
//! field cannot carry it, so encoding refuses (no silent masking) and
//! [`frame::WindowUpdateFrame::checked`] is the fallible construction path.
//!
//! ```
//! use h2wire::{Frame, frame::PingFrame, FrameDecoder};
//!
//! # fn main() -> Result<(), h2wire::DecodeFrameError> {
//! let ping = Frame::Ping(PingFrame::request(*b"RTTprobe"));
//! let mut decoder = FrameDecoder::new();
//! decoder.feed(&ping.to_bytes());
//! assert_eq!(decoder.next_frame()?, Some(ping));
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

pub mod codec;
pub mod error;
pub mod frame;
pub mod header;
mod registry;
pub mod settings;
pub mod stream_id;

pub use codec::{decode_one, encode_all, encode_all_into, FrameDecoder};
pub use error::{DecodeFrameError, ErrorCode};
pub use frame::{
    ContinuationFrame, DataFrame, Frame, GoawayFrame, HeadersFrame, IncrementOutOfRange, PingFrame,
    PriorityFrame, PrioritySpec, PushPromiseFrame, RstStreamFrame, SettingsFrame, UnknownFrame,
    WindowUpdateFrame, MAX_WINDOW_INCREMENT,
};
pub use header::{FrameHeader, FrameKind, FRAME_HEADER_LEN};
pub use settings::{SettingId, Settings};
pub use stream_id::StreamId;

/// The client connection preface every HTTP/2 connection starts with
/// (RFC 7540 §3.5).
pub const CONNECTION_PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preface_is_24_octets() {
        assert_eq!(CONNECTION_PREFACE.len(), 24);
        assert!(CONNECTION_PREFACE.starts_with(b"PRI * HTTP/2.0"));
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Frame>();
        assert_send_sync::<FrameDecoder>();
        assert_send_sync::<Settings>();
        assert_send_sync::<ErrorCode>();
        assert_send_sync::<DecodeFrameError>();
    }
}
