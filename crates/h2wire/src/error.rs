//! Error codes (RFC 7540 §7) and frame-decoding errors.

use std::error::Error;
use std::fmt;

/// An HTTP/2 error code as carried in `RST_STREAM` and `GOAWAY` frames
/// (RFC 7540 §7).
///
/// Unknown codes are preserved verbatim in [`ErrorCode::Unknown`] because
/// RFC 7540 requires endpoints to treat them as equivalent to
/// [`ErrorCode::InternalError`] without discarding the wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCode {
    /// Graceful shutdown or no error condition (0x0).
    NoError,
    /// Detected an unspecific protocol error (0x1).
    ProtocolError,
    /// Unexpected internal error (0x2).
    InternalError,
    /// Flow-control protocol violated (0x3).
    FlowControlError,
    /// Settings acknowledgement not received in time (0x4).
    SettingsTimeout,
    /// Frame received for a half-closed stream (0x5).
    StreamClosed,
    /// Frame with an invalid size (0x6).
    FrameSizeError,
    /// Stream refused before any application processing (0x7).
    RefusedStream,
    /// Stream no longer needed (0x8).
    Cancel,
    /// Header compression context cannot be maintained (0x9).
    CompressionError,
    /// Connection established in response to a CONNECT was reset (0xa).
    ConnectError,
    /// Peer exhibiting behavior that might generate excessive load (0xb).
    EnhanceYourCalm,
    /// Transport security properties inadequate (0xc).
    InadequateSecurity,
    /// HTTP/1.1 required instead of HTTP/2 (0xd).
    Http11Required,
    /// Any error code not defined by RFC 7540.
    Unknown(u32),
}

impl ErrorCode {
    /// Returns the 32-bit wire representation of this code.
    pub fn to_u32(self) -> u32 {
        match self {
            ErrorCode::NoError => 0x0,
            ErrorCode::ProtocolError => 0x1,
            ErrorCode::InternalError => 0x2,
            ErrorCode::FlowControlError => 0x3,
            ErrorCode::SettingsTimeout => 0x4,
            ErrorCode::StreamClosed => 0x5,
            ErrorCode::FrameSizeError => 0x6,
            ErrorCode::RefusedStream => 0x7,
            ErrorCode::Cancel => 0x8,
            ErrorCode::CompressionError => 0x9,
            ErrorCode::ConnectError => 0xa,
            ErrorCode::EnhanceYourCalm => 0xb,
            ErrorCode::InadequateSecurity => 0xc,
            ErrorCode::Http11Required => 0xd,
            ErrorCode::Unknown(v) => v,
        }
    }
}

impl From<u32> for ErrorCode {
    fn from(v: u32) -> Self {
        match v {
            0x0 => ErrorCode::NoError,
            0x1 => ErrorCode::ProtocolError,
            0x2 => ErrorCode::InternalError,
            0x3 => ErrorCode::FlowControlError,
            0x4 => ErrorCode::SettingsTimeout,
            0x5 => ErrorCode::StreamClosed,
            0x6 => ErrorCode::FrameSizeError,
            0x7 => ErrorCode::RefusedStream,
            0x8 => ErrorCode::Cancel,
            0x9 => ErrorCode::CompressionError,
            0xa => ErrorCode::ConnectError,
            0xb => ErrorCode::EnhanceYourCalm,
            0xc => ErrorCode::InadequateSecurity,
            0xd => ErrorCode::Http11Required,
            other => ErrorCode::Unknown(other),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::NoError => "NO_ERROR",
            ErrorCode::ProtocolError => "PROTOCOL_ERROR",
            ErrorCode::InternalError => "INTERNAL_ERROR",
            ErrorCode::FlowControlError => "FLOW_CONTROL_ERROR",
            ErrorCode::SettingsTimeout => "SETTINGS_TIMEOUT",
            ErrorCode::StreamClosed => "STREAM_CLOSED",
            ErrorCode::FrameSizeError => "FRAME_SIZE_ERROR",
            ErrorCode::RefusedStream => "REFUSED_STREAM",
            ErrorCode::Cancel => "CANCEL",
            ErrorCode::CompressionError => "COMPRESSION_ERROR",
            ErrorCode::ConnectError => "CONNECT_ERROR",
            ErrorCode::EnhanceYourCalm => "ENHANCE_YOUR_CALM",
            ErrorCode::InadequateSecurity => "INADEQUATE_SECURITY",
            ErrorCode::Http11Required => "HTTP_1_1_REQUIRED",
            ErrorCode::Unknown(v) => return write!(f, "UNKNOWN({v:#x})"),
        };
        f.write_str(name)
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
    fn error_code_round_trips_all_known_codes() {
        for v in 0u32..=0xd {
            let code = ErrorCode::from(v);
            assert_eq!(code.to_u32(), v);
            assert!(!matches!(code, ErrorCode::Unknown(_)));
        }
    }

    #[test]
    fn unknown_error_codes_are_preserved() {
        let code = ErrorCode::from(0xdead_beef);
        assert_eq!(code, ErrorCode::Unknown(0xdead_beef));
        assert_eq!(code.to_u32(), 0xdead_beef);
    }

    #[test]
    fn display_names_match_rfc() {
        assert_eq!(
            ErrorCode::FlowControlError.to_string(),
            "FLOW_CONTROL_ERROR"
        );
        assert_eq!(ErrorCode::EnhanceYourCalm.to_string(), "ENHANCE_YOUR_CALM");
        assert_eq!(ErrorCode::Unknown(0x20).to_string(), "UNKNOWN(0x20)");
    }

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
