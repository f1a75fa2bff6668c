//! Stream identifiers (RFC 7540 §5.1.1).

use std::fmt;

/// A 31-bit HTTP/2 stream identifier.
///
/// Stream 0 addresses the connection as a whole. Client-initiated streams
/// are odd, server-initiated (pushed) streams are even. The most
/// significant bit on the wire is reserved and always transmitted as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StreamId(u32);

impl StreamId {
    /// The connection control stream (id 0).
    pub const CONNECTION: StreamId = StreamId(0);
    /// Largest legal stream identifier (2^31 - 1).
    pub const MAX: StreamId = StreamId((1 << 31) - 1);

    /// Creates a stream id, masking off the reserved bit.
    pub fn new(id: u32) -> StreamId {
        StreamId(id & 0x7fff_ffff)
    }

    /// Returns the numeric value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// `true` for stream 0, the connection control stream.
    pub fn is_connection(self) -> bool {
        self.0 == 0
    }

    /// `true` when this id can be initiated by a client (odd).
    pub fn is_client_initiated(self) -> bool {
        self.0 % 2 == 1
    }

    /// `true` when this id can be initiated by a server (even, nonzero).
    pub fn is_server_initiated(self) -> bool {
        self.0 != 0 && self.0.is_multiple_of(2)
    }
}

impl From<u32> for StreamId {
    fn from(v: u32) -> Self {
        StreamId::new(v)
    }
}

impl From<StreamId> for u32 {
    fn from(id: StreamId) -> u32 {
        id.value()
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_bit_is_masked() {
        assert_eq!(StreamId::new(0xffff_ffff), StreamId::MAX);
        assert_eq!(StreamId::new(0x8000_0001).value(), 1);
    }

    #[test]
    fn parity_classification() {
        assert!(StreamId::new(1).is_client_initiated());
        assert!(StreamId::new(2).is_server_initiated());
        assert!(!StreamId::CONNECTION.is_client_initiated());
        assert!(!StreamId::CONNECTION.is_server_initiated());
        assert!(StreamId::CONNECTION.is_connection());
    }
}
