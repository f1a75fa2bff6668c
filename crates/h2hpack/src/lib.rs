//! # h2hpack — HPACK header compression (RFC 7541)
//!
//! A from-scratch HPACK implementation: prefix integers, the full
//! 257-symbol Huffman code, the 61-entry static table, dynamic tables with
//! size accounting and eviction, a configurable [`Encoder`] and a strict
//! [`Decoder`].
//!
//! The encoder's [`IndexingPolicy`] models the implementation difference
//! the paper measures in Figures 4 and 5: servers that index response
//! headers compress repeated responses down to a few octets, while servers
//! that never index them (Nginx, Tengine) keep every response header block
//! the same size, which the paper observes as an HPACK compression ratio
//! of 1.
//!
//! ```
//! use h2hpack::{Decoder, Encoder, Header};
//!
//! # fn main() -> Result<(), h2hpack::HpackDecodeError> {
//! let mut encoder = Encoder::new();
//! let mut decoder = Decoder::new();
//! let headers = vec![Header::new(":status", "200"), Header::new("server", "GSE")];
//! let first = encoder.encode_block(&headers);
//! let second = encoder.encode_block(&headers);
//! assert!(second.len() < first.len()); // dynamic table at work
//! assert_eq!(decoder.decode_block(&first)?, headers);
//! assert_eq!(decoder.decode_block(&second)?, headers);
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

pub mod decoder;
pub mod encoder;
pub mod error;
pub mod huffman;
pub mod integer;
pub mod table;

pub use decoder::Decoder;
pub use encoder::{Encoder, EncoderOptions, IndexingPolicy};
pub use error::HpackDecodeError;
pub use table::{
    static_entry, static_lookup, DynamicTable, Header, TableScratch, STATIC_TABLE, STATIC_TABLE_LEN,
};

/// Protocol-default dynamic table size (RFC 7540 §6.5.2).
pub const DEFAULT_TABLE_SIZE: u32 = 4_096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_size_matches_rfc() {
        assert_eq!(DEFAULT_TABLE_SIZE, 4_096);
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Encoder>();
        assert_send_sync::<Decoder>();
        assert_send_sync::<Header>();
        assert_send_sync::<HpackDecodeError>();
    }
}
