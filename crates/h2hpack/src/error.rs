//! HPACK decoding errors.

use std::error::Error;
use std::fmt;

/// An error raised while decoding an HPACK header block (RFC 7541).
///
/// Any of these is a `COMPRESSION_ERROR` at the HTTP/2 layer: header
/// compression state can no longer be trusted, so the connection must be
/// torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpackDecodeError {
    /// Input ended in the middle of a representation.
    Truncated,
    /// A prefix integer exceeded the implementation limit (`u32::MAX`).
    IntegerOverflow,
    /// An indexed representation referenced index 0 or one past the end of
    /// the static + dynamic address space.
    InvalidIndex(u64),
    /// A Huffman-coded string contained the EOS symbol or invalid padding.
    InvalidHuffman,
    /// A dynamic-table-size update exceeded the limit set by SETTINGS.
    TableSizeUpdateTooLarge {
        /// Requested size.
        requested: u32,
        /// Maximum allowed by `SETTINGS_HEADER_TABLE_SIZE`.
        max: u32,
    },
    /// A dynamic-table-size update appeared after the first header field,
    /// which RFC 7541 §4.2 forbids.
    LateTableSizeUpdate,
    /// A header name contained bytes outside the token charset.
    InvalidHeaderName,
    /// A header value was not valid UTF-8 text.
    InvalidHeaderValue,
}

impl fmt::Display for HpackDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpackDecodeError::Truncated => f.write_str("truncated header block"),
            HpackDecodeError::IntegerOverflow => f.write_str("prefix integer overflow"),
            HpackDecodeError::InvalidIndex(idx) => write!(f, "invalid table index {idx}"),
            HpackDecodeError::InvalidHuffman => f.write_str("invalid huffman coding"),
            HpackDecodeError::TableSizeUpdateTooLarge { requested, max } => {
                write!(f, "table size update {requested} exceeds maximum {max}")
            }
            HpackDecodeError::LateTableSizeUpdate => {
                f.write_str("dynamic table size update after first header field")
            }
            HpackDecodeError::InvalidHeaderName => f.write_str("invalid header field name"),
            HpackDecodeError::InvalidHeaderValue => f.write_str("invalid header field value"),
        }
    }
}

impl Error for HpackDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            HpackDecodeError::Truncated,
            HpackDecodeError::IntegerOverflow,
            HpackDecodeError::InvalidIndex(99),
            HpackDecodeError::InvalidHuffman,
            HpackDecodeError::TableSizeUpdateTooLarge {
                requested: 8192,
                max: 4096,
            },
            HpackDecodeError::LateTableSizeUpdate,
            HpackDecodeError::InvalidHeaderName,
            HpackDecodeError::InvalidHeaderValue,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
