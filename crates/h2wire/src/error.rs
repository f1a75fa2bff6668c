//! Error codes (RFC 7540 §7) and frame-decoding errors.

use std::error::Error;
use std::fmt;

use crate::registry::registry;

registry! {
    /// An HTTP/2 error code as carried in `RST_STREAM` and `GOAWAY` frames
    /// (RFC 7540 §7).
    ///
    /// Unknown codes are preserved verbatim in [`ErrorCode::Unknown`] because
    /// RFC 7540 requires endpoints to treat them as equivalent to
    /// [`ErrorCode::InternalError`] without discarding the wire value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum ErrorCode via to_u32 {
        /// Any error code not defined by RFC 7540.
        Unknown(u32),
        /// Graceful shutdown or no error condition (0x0).
        NoError = 0x0 => "NO_ERROR",
        /// Detected an unspecific protocol error (0x1).
        ProtocolError = 0x1 => "PROTOCOL_ERROR",
        /// Unexpected internal error (0x2).
        InternalError = 0x2 => "INTERNAL_ERROR",
        /// Flow-control protocol violated (0x3).
        FlowControlError = 0x3 => "FLOW_CONTROL_ERROR",
        /// Settings acknowledgement not received in time (0x4).
        SettingsTimeout = 0x4 => "SETTINGS_TIMEOUT",
        /// Frame received for a half-closed stream (0x5).
        StreamClosed = 0x5 => "STREAM_CLOSED",
        /// Frame with an invalid size (0x6).
        FrameSizeError = 0x6 => "FRAME_SIZE_ERROR",
        /// Stream refused before any application processing (0x7).
        RefusedStream = 0x7 => "REFUSED_STREAM",
        /// Stream no longer needed (0x8).
        Cancel = 0x8 => "CANCEL",
        /// Header compression context cannot be maintained (0x9).
        CompressionError = 0x9 => "COMPRESSION_ERROR",
        /// Connection established in response to a CONNECT was reset (0xa).
        ConnectError = 0xa => "CONNECT_ERROR",
        /// Peer exhibiting behavior that might generate excessive load (0xb).
        EnhanceYourCalm = 0xb => "ENHANCE_YOUR_CALM",
        /// Transport security properties inadequate (0xc).
        InadequateSecurity = 0xc => "INADEQUATE_SECURITY",
        /// HTTP/1.1 required instead of HTTP/2 (0xd).
        Http11Required = 0xd => "HTTP_1_1_REQUIRED",
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rfc_name() {
            Some(name) => f.write_str(name),
            None => write!(f, "UNKNOWN({:#x})", self.to_u32()),
        }
    }
}

/// An error raised while decoding a frame from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFrameError {
    /// The payload length in the frame header exceeds the receiver's
    /// advertised `SETTINGS_MAX_FRAME_SIZE`.
    FrameTooLarge {
        /// Length declared in the frame header.
        length: u32,
        /// The limit in force.
        max: u32,
    },
    /// A frame whose payload length is invalid for its type (e.g. a PING
    /// that is not exactly 8 octets).
    InvalidLength {
        /// The frame type as a wire byte.
        kind: u8,
        /// The offending length.
        length: u32,
    },
    /// A frame that requires a stream identifier carried stream 0, or vice
    /// versa.
    InvalidStreamId {
        /// The frame type as a wire byte.
        kind: u8,
        /// The offending stream identifier.
        stream_id: u32,
    },
    /// Padding length equals or exceeds the remaining payload.
    InvalidPadding,
    /// A SETTINGS frame with the ACK flag carried a payload.
    SettingsAckWithPayload,
    /// A SETTINGS parameter had an illegal value (RFC 7540 §6.5.2).
    InvalidSettingValue {
        /// The parameter identifier.
        id: u16,
        /// The rejected value.
        value: u32,
    },
    /// Not enough bytes to decode the structure.
    Truncated,
}

impl fmt::Display for DecodeFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeFrameError::FrameTooLarge { length, max } => {
                write!(f, "frame length {length} exceeds max frame size {max}")
            }
            DecodeFrameError::InvalidLength { kind, length } => {
                write!(
                    f,
                    "invalid payload length {length} for frame type {kind:#x}"
                )
            }
            DecodeFrameError::InvalidStreamId { kind, stream_id } => {
                write!(f, "invalid stream id {stream_id} for frame type {kind:#x}")
            }
            DecodeFrameError::InvalidPadding => f.write_str("padding length exceeds payload"),
            DecodeFrameError::SettingsAckWithPayload => {
                f.write_str("settings ack frame carries a payload")
            }
            DecodeFrameError::InvalidSettingValue { id, value } => {
                write!(f, "invalid value {value} for settings parameter {id:#x}")
            }
            DecodeFrameError::Truncated => f.write_str("unexpected end of frame payload"),
        }
    }
}

impl Error for DecodeFrameError {}

impl DecodeFrameError {
    /// The HTTP/2 error code an endpoint should surface for this decode
    /// failure (RFC 7540 §4.2, §6).
    pub fn h2_error_code(&self) -> ErrorCode {
        match self {
            DecodeFrameError::FrameTooLarge { .. }
            | DecodeFrameError::InvalidLength { .. }
            | DecodeFrameError::SettingsAckWithPayload => ErrorCode::FrameSizeError,
            DecodeFrameError::InvalidSettingValue { id: 0x4, .. } => ErrorCode::FlowControlError,
            _ => ErrorCode::ProtocolError,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_error_maps_to_h2_code() {
        let err = DecodeFrameError::FrameTooLarge {
            length: 1 << 20,
            max: 16_384,
        };
        assert_eq!(err.h2_error_code(), ErrorCode::FrameSizeError);
        let err = DecodeFrameError::InvalidSettingValue {
            id: 0x4,
            value: u32::MAX,
        };
        assert_eq!(err.h2_error_code(), ErrorCode::FlowControlError);
        let err = DecodeFrameError::InvalidPadding;
        assert_eq!(err.h2_error_code(), ErrorCode::ProtocolError);
    }
}
