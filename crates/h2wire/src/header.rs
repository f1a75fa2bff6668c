//! The 9-octet frame header (RFC 7540 §4.1) and per-type flag bits.

#![allow(
    clippy::indexing_slicing,
    reason = "dense wire codec; lengths verified before fixed-offset reads"
)]

use crate::error::DecodeFrameError;
use crate::registry::registry;
use crate::stream_id::StreamId;

/// Number of octets in every frame header.
pub const FRAME_HEADER_LEN: usize = 9;

registry! {
    /// The ten frame types defined by RFC 7540 §6, plus a catch-all for
    /// extension frames, which receivers must ignore.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FrameKind via to_u8 {
        /// An extension frame type unknown to RFC 7540.
        Unknown(u8),
        /// Carries request/response bodies; the only flow-controlled type (0x0).
        Data = 0x0 => "DATA",
        /// Opens a stream and carries a header block fragment (0x1).
        Headers = 0x1 => "HEADERS",
        /// Re-prioritizes a stream (0x2).
        Priority = 0x2 => "PRIORITY",
        /// Terminates a single stream (0x3).
        RstStream = 0x3 => "RST_STREAM",
        /// Conveys configuration parameters (0x4).
        Settings = 0x4 => "SETTINGS",
        /// Announces a server-initiated stream (0x5).
        PushPromise = 0x5 => "PUSH_PROMISE",
        /// Round-trip measurement and liveness check (0x6).
        Ping = 0x6 => "PING",
        /// Initiates connection shutdown (0x7).
        Goaway = 0x7 => "GOAWAY",
        /// Increments a flow-control window (0x8).
        WindowUpdate = 0x8 => "WINDOW_UPDATE",
        /// Continues a header block fragment (0x9).
        Continuation = 0x9 => "CONTINUATION",
    }
}

/// Flag bits used across frame types (RFC 7540 §6).
pub mod flags {
    /// DATA / HEADERS: no further frames on this stream from the sender.
    pub const END_STREAM: u8 = 0x1;
    /// SETTINGS / PING: acknowledgement.
    pub const ACK: u8 = 0x1;
    /// HEADERS / PUSH_PROMISE / CONTINUATION: header block complete.
    pub const END_HEADERS: u8 = 0x4;
    /// DATA / HEADERS / PUSH_PROMISE: payload is padded.
    pub const PADDED: u8 = 0x8;
    /// HEADERS: priority fields are present.
    pub const PRIORITY: u8 = 0x20;
}

/// A decoded 9-octet frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length (24-bit on the wire).
    pub length: u32,
    /// Frame type.
    pub kind: FrameKind,
    /// Raw flag bits.
    pub flags: u8,
    /// Stream identifier (reserved bit masked).
    pub stream_id: StreamId,
}

impl FrameHeader {
    /// Parses a frame header from exactly [`FRAME_HEADER_LEN`] octets.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFrameError::Truncated`] when fewer than nine octets
    /// are supplied.
    pub fn decode(buf: &[u8]) -> Result<FrameHeader, DecodeFrameError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(DecodeFrameError::Truncated);
        }
        let length = u32::from(buf[0]) << 16 | u32::from(buf[1]) << 8 | u32::from(buf[2]);
        let kind = FrameKind::from(buf[3]);
        let flags = buf[4];
        let raw_id = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]);
        Ok(FrameHeader {
            length,
            kind,
            flags,
            stream_id: StreamId::new(raw_id),
        })
    }

    /// Serializes this header into nine octets.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + FRAME_HEADER_LEN, 0);
        self.write_to(&mut out[at..]);
    }

    /// Writes the nine header octets into the front of `buf`.
    ///
    /// This exists for the copy-free frame encoder, which reserves the
    /// header slot, streams the payload directly after it, and only then
    /// knows the length to patch in.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`FRAME_HEADER_LEN`].
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0] = (self.length >> 16) as u8;
        buf[1] = (self.length >> 8) as u8;
        buf[2] = self.length as u8;
        buf[3] = self.kind.to_u8();
        buf[4] = self.flags;
        buf[5..FRAME_HEADER_LEN].copy_from_slice(&self.stream_id.value().to_be_bytes());
    }

    /// `true` when the given flag bit is set.
    pub fn has_flag(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let hdr = FrameHeader {
            length: 0x01_02_03,
            kind: FrameKind::Headers,
            flags: flags::END_HEADERS | flags::PRIORITY,
            stream_id: StreamId::new(77),
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_LEN);
        assert_eq!(FrameHeader::decode(&buf).unwrap(), hdr);
    }

    #[test]
    fn decode_rejects_short_input() {
        assert_eq!(
            FrameHeader::decode(&[0; 8]),
            Err(DecodeFrameError::Truncated)
        );
    }

    #[test]
    fn reserved_stream_bit_is_ignored_on_decode() {
        let mut buf = Vec::new();
        FrameHeader {
            length: 0,
            kind: FrameKind::Ping,
            flags: 0,
            stream_id: StreamId::CONNECTION,
        }
        .encode(&mut buf);
        buf[5] |= 0x80; // set the reserved bit
        let hdr = FrameHeader::decode(&buf).unwrap();
        assert_eq!(hdr.stream_id, StreamId::CONNECTION);
    }
}
