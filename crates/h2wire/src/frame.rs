//! Typed frames for all ten RFC 7540 frame types, with encode/decode.

#![allow(
    clippy::indexing_slicing,
    reason = "dense wire codec; lengths verified before fixed-offset reads"
)]

use std::fmt;

use bytes::Bytes;

use crate::error::{DecodeFrameError, ErrorCode};
use crate::header::{flags, FrameHeader, FrameKind, FRAME_HEADER_LEN};
use crate::settings::Settings;
use crate::stream_id::StreamId;

/// Priority fields carried in HEADERS (with the PRIORITY flag) and
/// PRIORITY frames (RFC 7540 §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrioritySpec {
    /// Exclusive dependency flag (the `E` bit).
    pub exclusive: bool,
    /// The stream this stream depends on; 0 makes it a root dependent.
    pub dependency: StreamId,
    /// Weight between 1 and 256 (stored as its real value, not wire - 1).
    pub weight: u16,
}

impl PrioritySpec {
    /// The default priority given to new streams: non-exclusive dependency
    /// on stream 0 with weight 16 (RFC 7540 §5.3.5).
    pub fn default_spec() -> PrioritySpec {
        PrioritySpec {
            exclusive: false,
            dependency: StreamId::CONNECTION,
            weight: 16,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let mut dep = self.dependency.value();
        if self.exclusive {
            dep |= 0x8000_0000;
        }
        out.extend_from_slice(&dep.to_be_bytes());
        debug_assert!((1..=256).contains(&self.weight));
        out.push((self.weight - 1) as u8);
    }

    fn decode(buf: &[u8]) -> Result<PrioritySpec, DecodeFrameError> {
        if buf.len() < 5 {
            return Err(DecodeFrameError::Truncated);
        }
        let raw = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        Ok(PrioritySpec {
            exclusive: raw & 0x8000_0000 != 0,
            dependency: StreamId::new(raw),
            weight: u16::from(buf[4]) + 1,
        })
    }
}

impl Default for PrioritySpec {
    fn default() -> PrioritySpec {
        PrioritySpec::default_spec()
    }
}

/// A DATA frame (RFC 7540 §6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFrame {
    /// The stream carrying this data; never 0.
    pub stream_id: StreamId,
    /// Application payload.
    pub data: Bytes,
    /// END_STREAM flag.
    pub end_stream: bool,
    /// Number of padding octets, when the PADDED flag is used.
    pub pad_len: Option<u8>,
}

impl DataFrame {
    /// Octets charged against flow control: payload plus padding plus the
    /// pad-length octet itself (RFC 7540 §6.9: "the entire DATA frame
    /// payload is included in flow control").
    pub fn flow_controlled_len(&self) -> u32 {
        let padding = self.pad_len.map_or(0, |p| u32::from(p) + 1);
        self.data.len() as u32 + padding
    }
}

/// A HEADERS frame (RFC 7540 §6.2). `fragment` is an opaque HPACK block
/// fragment; assembly across CONTINUATION frames happens in `h2conn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadersFrame {
    /// The stream being opened or continued; never 0.
    pub stream_id: StreamId,
    /// HPACK-encoded header block fragment.
    pub fragment: Bytes,
    /// END_STREAM flag.
    pub end_stream: bool,
    /// END_HEADERS flag.
    pub end_headers: bool,
    /// Optional priority fields (PRIORITY flag).
    pub priority: Option<PrioritySpec>,
    /// Number of padding octets, when the PADDED flag is used.
    pub pad_len: Option<u8>,
}

/// A PRIORITY frame (RFC 7540 §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityFrame {
    /// The stream being (re-)prioritized; never 0.
    pub stream_id: StreamId,
    /// New priority information.
    pub spec: PrioritySpec,
}

/// An RST_STREAM frame (RFC 7540 §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RstStreamFrame {
    /// The stream being reset; never 0.
    pub stream_id: StreamId,
    /// Why the stream is being terminated.
    pub code: ErrorCode,
}

/// A SETTINGS frame (RFC 7540 §6.5).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SettingsFrame {
    /// ACK flag; an ack carries no parameters.
    pub ack: bool,
    /// Parameters in wire order.
    pub settings: Settings,
}

impl SettingsFrame {
    /// An acknowledgement frame.
    pub fn ack() -> SettingsFrame {
        SettingsFrame {
            ack: true,
            settings: Settings::new(),
        }
    }
}

impl From<Settings> for SettingsFrame {
    fn from(settings: Settings) -> SettingsFrame {
        SettingsFrame {
            ack: false,
            settings,
        }
    }
}

/// A PUSH_PROMISE frame (RFC 7540 §6.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushPromiseFrame {
    /// The stream the promise is associated with; never 0.
    pub stream_id: StreamId,
    /// The reserved even-numbered stream for the pushed response.
    pub promised_stream_id: StreamId,
    /// HPACK-encoded request header block fragment.
    pub fragment: Bytes,
    /// END_HEADERS flag.
    pub end_headers: bool,
    /// Number of padding octets, when the PADDED flag is used.
    pub pad_len: Option<u8>,
}

/// A PING frame (RFC 7540 §6.7). Payload is always exactly eight octets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingFrame {
    /// ACK flag.
    pub ack: bool,
    /// Opaque payload echoed back by the receiver.
    pub payload: [u8; 8],
}

impl PingFrame {
    /// A ping request carrying `payload`.
    pub fn request(payload: [u8; 8]) -> PingFrame {
        PingFrame {
            ack: false,
            payload,
        }
    }
}

/// A GOAWAY frame (RFC 7540 §6.8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoawayFrame {
    /// Highest stream id the sender might have processed.
    pub last_stream_id: StreamId,
    /// Why the connection is shutting down.
    pub code: ErrorCode,
    /// Opaque debug data (the paper observed servers explaining zero
    /// window updates here).
    pub debug_data: Bytes,
}

/// Largest window increment expressible on the wire: 2^31 - 1 (the field
/// is 31 bits; the 32nd is a reserved bit senders must leave zero).
pub const MAX_WINDOW_INCREMENT: u32 = (1 << 31) - 1;

/// A WINDOW_UPDATE frame (RFC 7540 §6.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowUpdateFrame {
    /// Stream 0 adjusts the connection window; otherwise a stream window.
    pub stream_id: StreamId,
    /// Window size increment, 1..=2^31-1. Zero is a protocol violation the
    /// paper probes servers with, so the codec representation permits it —
    /// but values above [`MAX_WINDOW_INCREMENT`] are *not* representable
    /// and are refused at encode time rather than silently masked. Use
    /// [`WindowUpdateFrame::checked`] to construct RFC-conformant frames.
    pub increment: u32,
}

/// Error from [`WindowUpdateFrame::checked`]: the increment is outside the
/// legal range `1..=2^31-1` (RFC 7540 §6.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementOutOfRange {
    /// The rejected increment.
    pub increment: u32,
}

impl fmt::Display for IncrementOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window update increment {} outside 1..=2^31-1",
            self.increment
        )
    }
}

impl std::error::Error for IncrementOutOfRange {}

impl WindowUpdateFrame {
    /// Constructs a WINDOW_UPDATE whose increment is validated against RFC
    /// 7540 §6.9: nonzero and at most 2^31 - 1.
    ///
    /// The struct literal remains available for probes that *intend* to
    /// violate the protocol with a zero increment; an increment above the
    /// 31-bit field, however, has no wire representation at all, so every
    /// path that might carry an untrusted value should come through here.
    ///
    /// # Errors
    ///
    /// [`IncrementOutOfRange`] when `increment` is zero or exceeds
    /// [`MAX_WINDOW_INCREMENT`].
    pub fn checked(stream_id: StreamId, increment: u32) -> Result<Self, IncrementOutOfRange> {
        if increment == 0 || increment > MAX_WINDOW_INCREMENT {
            return Err(IncrementOutOfRange { increment });
        }
        Ok(WindowUpdateFrame {
            stream_id,
            increment,
        })
    }
}

/// A CONTINUATION frame (RFC 7540 §6.10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContinuationFrame {
    /// Must match the preceding HEADERS/PUSH_PROMISE stream.
    pub stream_id: StreamId,
    /// HPACK-encoded header block fragment.
    pub fragment: Bytes,
    /// END_HEADERS flag.
    pub end_headers: bool,
}

/// An extension frame of unknown type, preserved opaquely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFrame {
    /// The unrecognized wire type.
    pub kind: u8,
    /// Raw flags.
    pub flags: u8,
    /// Stream the frame was received on.
    pub stream_id: StreamId,
    /// Raw payload.
    pub payload: Bytes,
}

/// Any HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// DATA (0x0).
    Data(DataFrame),
    /// HEADERS (0x1).
    Headers(HeadersFrame),
    /// PRIORITY (0x2).
    Priority(PriorityFrame),
    /// RST_STREAM (0x3).
    RstStream(RstStreamFrame),
    /// SETTINGS (0x4).
    Settings(SettingsFrame),
    /// PUSH_PROMISE (0x5).
    PushPromise(PushPromiseFrame),
    /// PING (0x6).
    Ping(PingFrame),
    /// GOAWAY (0x7).
    Goaway(GoawayFrame),
    /// WINDOW_UPDATE (0x8).
    WindowUpdate(WindowUpdateFrame),
    /// CONTINUATION (0x9).
    Continuation(ContinuationFrame),
    /// Any extension frame; receivers must ignore these.
    Unknown(UnknownFrame),
}

impl Frame {
    /// The frame type.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Data(_) => FrameKind::Data,
            Frame::Headers(_) => FrameKind::Headers,
            Frame::Priority(_) => FrameKind::Priority,
            Frame::RstStream(_) => FrameKind::RstStream,
            Frame::Settings(_) => FrameKind::Settings,
            Frame::PushPromise(_) => FrameKind::PushPromise,
            Frame::Ping(_) => FrameKind::Ping,
            Frame::Goaway(_) => FrameKind::Goaway,
            Frame::WindowUpdate(_) => FrameKind::WindowUpdate,
            Frame::Continuation(_) => FrameKind::Continuation,
            Frame::Unknown(u) => FrameKind::Unknown(u.kind),
        }
    }

    /// The stream this frame addresses (0 for connection-scoped frames).
    pub fn stream_id(&self) -> StreamId {
        match self {
            Frame::Data(f) => f.stream_id,
            Frame::Headers(f) => f.stream_id,
            Frame::Priority(f) => f.stream_id,
            Frame::RstStream(f) => f.stream_id,
            Frame::Settings(_) | Frame::Ping(_) | Frame::Goaway(_) => StreamId::CONNECTION,
            Frame::PushPromise(f) => f.stream_id,
            Frame::WindowUpdate(f) => f.stream_id,
            Frame::Continuation(f) => f.stream_id,
            Frame::Unknown(f) => f.stream_id,
        }
    }

    /// The octets [`Frame::encode`] appends: the nine-octet header plus
    /// the payload, padding included.
    pub fn encoded_len(&self) -> usize {
        let padding = |pad: Option<u8>| pad.map_or(0, |pad| 1 + usize::from(pad));
        let payload = match self {
            Frame::Data(f) => padding(f.pad_len) + f.data.len(),
            Frame::Headers(f) => {
                padding(f.pad_len) + f.priority.map_or(0, |_| 5) + f.fragment.len()
            }
            Frame::Priority(_) => 5,
            Frame::RstStream(_) | Frame::WindowUpdate(_) => 4,
            Frame::Settings(f) => {
                if f.ack {
                    0
                } else {
                    6 * f.settings.len()
                }
            }
            Frame::PushPromise(f) => padding(f.pad_len) + 4 + f.fragment.len(),
            Frame::Ping(_) => 8,
            Frame::Goaway(f) => 8 + f.debug_data.len(),
            Frame::Continuation(f) => f.fragment.len(),
            Frame::Unknown(f) => f.payload.len(),
        };
        FRAME_HEADER_LEN + payload
    }

    /// Serializes the frame (header and payload) onto `out`.
    ///
    /// The payload streams straight into `out` — the nine-octet header
    /// slot is reserved up front and patched once the length is known —
    /// so encoding never stages bytes through a temporary buffer. A DATA
    /// frame costs exactly one `memcpy` of its payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.resize(header_at + FRAME_HEADER_LEN, 0);
        let payload_at = out.len();
        let (kind, frame_flags, stream_id) = match self {
            Frame::Data(f) => {
                let mut fl = 0;
                if f.end_stream {
                    fl |= flags::END_STREAM;
                }
                if let Some(pad) = f.pad_len {
                    fl |= flags::PADDED;
                    out.push(pad);
                }
                out.extend_from_slice(&f.data);
                if let Some(pad) = f.pad_len {
                    out.resize(out.len() + pad as usize, 0);
                }
                (FrameKind::Data, fl, f.stream_id)
            }
            Frame::Headers(f) => {
                let mut fl = 0;
                if f.end_stream {
                    fl |= flags::END_STREAM;
                }
                if f.end_headers {
                    fl |= flags::END_HEADERS;
                }
                if let Some(pad) = f.pad_len {
                    fl |= flags::PADDED;
                    out.push(pad);
                }
                if let Some(spec) = &f.priority {
                    fl |= flags::PRIORITY;
                    spec.encode(out);
                }
                out.extend_from_slice(&f.fragment);
                if let Some(pad) = f.pad_len {
                    out.resize(out.len() + pad as usize, 0);
                }
                (FrameKind::Headers, fl, f.stream_id)
            }
            Frame::Priority(f) => {
                f.spec.encode(out);
                (FrameKind::Priority, 0, f.stream_id)
            }
            Frame::RstStream(f) => {
                out.extend_from_slice(&f.code.to_u32().to_be_bytes());
                (FrameKind::RstStream, 0, f.stream_id)
            }
            Frame::Settings(f) => {
                let fl = if f.ack { flags::ACK } else { 0 };
                if !f.ack {
                    f.settings.encode(out);
                }
                (FrameKind::Settings, fl, StreamId::CONNECTION)
            }
            Frame::PushPromise(f) => {
                let mut fl = 0;
                if f.end_headers {
                    fl |= flags::END_HEADERS;
                }
                if let Some(pad) = f.pad_len {
                    fl |= flags::PADDED;
                    out.push(pad);
                }
                out.extend_from_slice(&f.promised_stream_id.value().to_be_bytes());
                out.extend_from_slice(&f.fragment);
                if let Some(pad) = f.pad_len {
                    out.resize(out.len() + pad as usize, 0);
                }
                (FrameKind::PushPromise, fl, f.stream_id)
            }
            Frame::Ping(f) => {
                out.extend_from_slice(&f.payload);
                let fl = if f.ack { flags::ACK } else { 0 };
                (FrameKind::Ping, fl, StreamId::CONNECTION)
            }
            Frame::Goaway(f) => {
                out.extend_from_slice(&f.last_stream_id.value().to_be_bytes());
                out.extend_from_slice(&f.code.to_u32().to_be_bytes());
                out.extend_from_slice(&f.debug_data);
                (FrameKind::Goaway, 0, StreamId::CONNECTION)
            }
            Frame::WindowUpdate(f) => {
                // An earlier version masked `increment & 0x7fff_ffff` here,
                // silently corrupting out-of-range increments on the wire.
                // The 31-bit field simply cannot carry such a value, so an
                // attempt to encode one is a caller bug, not a wire event.
                assert!(
                    f.increment <= MAX_WINDOW_INCREMENT,
                    "WINDOW_UPDATE increment {} exceeds 2^31-1; use WindowUpdateFrame::checked",
                    f.increment
                );
                out.extend_from_slice(&f.increment.to_be_bytes());
                (FrameKind::WindowUpdate, 0, f.stream_id)
            }
            Frame::Continuation(f) => {
                let fl = if f.end_headers { flags::END_HEADERS } else { 0 };
                out.extend_from_slice(&f.fragment);
                (FrameKind::Continuation, fl, f.stream_id)
            }
            Frame::Unknown(f) => {
                out.extend_from_slice(&f.payload);
                (FrameKind::Unknown(f.kind), f.flags, f.stream_id)
            }
        };
        FrameHeader {
            length: (out.len() - payload_at) as u32,
            kind,
            flags: frame_flags,
            stream_id,
        }
        .write_to(&mut out[header_at..payload_at]);
    }

    /// Serializes the frame into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a frame whose payload is a view into a shared segment.
    ///
    /// Identical to [`Frame::decode`] except that a DATA frame's body
    /// becomes a zero-copy [`Bytes::slice`] of `payload` instead of a
    /// fresh allocation — DATA carries virtually all transferred octets,
    /// so the receive path of a bulk download does no per-frame payload
    /// copies at all. Other frame kinds are small and are copied out, so
    /// a segment without DATA is not kept alive by its frames.
    ///
    /// # Errors
    ///
    /// Same contract as [`Frame::decode`].
    pub fn decode_shared(header: FrameHeader, payload: Bytes) -> Result<Frame, DecodeFrameError> {
        Frame::decode_with(header, &payload, |body, at| {
            payload.slice(at..at + body.len())
        })
    }

    /// Decodes a frame from a header plus its complete payload.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeFrameError`] describing any structural violation:
    /// wrong payload length for fixed-size frames, a stream id of zero on
    /// stream-scoped frames (or nonzero on connection-scoped frames),
    /// padding overruns, or invalid SETTINGS values.
    pub fn decode(header: FrameHeader, payload: &[u8]) -> Result<Frame, DecodeFrameError> {
        Frame::decode_with(header, payload, |body, _| Bytes::copy_from_slice(body))
    }

    /// The one payload decoder: `data_body` materialises a DATA frame's
    /// body, given the body and its offset within `payload` (so it can be
    /// a copy or a shared slice).
    fn decode_with(
        header: FrameHeader,
        payload: &[u8],
        data_body: impl FnOnce(&[u8], usize) -> Bytes,
    ) -> Result<Frame, DecodeFrameError> {
        if payload.len() as u32 != header.length {
            return Err(DecodeFrameError::Truncated);
        }
        let kind_byte = header.kind.to_u8();
        let require_stream = |hdr: &FrameHeader| {
            if hdr.stream_id.is_connection() {
                Err(DecodeFrameError::InvalidStreamId {
                    kind: kind_byte,
                    stream_id: 0,
                })
            } else {
                Ok(())
            }
        };
        let invalid_length = || DecodeFrameError::InvalidLength {
            kind: kind_byte,
            length: header.length,
        };
        let require_connection = |hdr: &FrameHeader| {
            if !hdr.stream_id.is_connection() {
                Err(DecodeFrameError::InvalidStreamId {
                    kind: kind_byte,
                    stream_id: hdr.stream_id.value(),
                })
            } else {
                Ok(())
            }
        };

        match header.kind {
            FrameKind::Data => {
                require_stream(&header)?;
                let (pad_len, body) = strip_padding(&header, payload)?;
                // The body follows the pad-length octet when there is one.
                Ok(Frame::Data(DataFrame {
                    stream_id: header.stream_id,
                    data: data_body(body, usize::from(pad_len.is_some())),
                    end_stream: header.has_flag(flags::END_STREAM),
                    pad_len,
                }))
            }
            FrameKind::Headers => {
                require_stream(&header)?;
                let (pad_len, body) = strip_padding(&header, payload)?;
                let (priority, fragment) = if header.has_flag(flags::PRIORITY) {
                    // Too short for the priority fields the flag promises:
                    // a frame size error (RFC 7540 §4.2), not a truncation.
                    if body.len() < 5 {
                        return Err(invalid_length());
                    }
                    let spec = PrioritySpec::decode(body)?;
                    (Some(spec), &body[5..])
                } else {
                    (None, body)
                };
                Ok(Frame::Headers(HeadersFrame {
                    stream_id: header.stream_id,
                    fragment: Bytes::copy_from_slice(fragment),
                    end_stream: header.has_flag(flags::END_STREAM),
                    end_headers: header.has_flag(flags::END_HEADERS),
                    priority,
                    pad_len,
                }))
            }
            FrameKind::Priority => {
                require_stream(&header)?;
                if header.length != 5 {
                    return Err(invalid_length());
                }
                Ok(Frame::Priority(PriorityFrame {
                    stream_id: header.stream_id,
                    spec: PrioritySpec::decode(payload)?,
                }))
            }
            FrameKind::RstStream => {
                require_stream(&header)?;
                if header.length != 4 {
                    return Err(invalid_length());
                }
                let code = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
                Ok(Frame::RstStream(RstStreamFrame {
                    stream_id: header.stream_id,
                    code: ErrorCode::from(code),
                }))
            }
            FrameKind::Settings => {
                require_connection(&header)?;
                let ack = header.has_flag(flags::ACK);
                if ack && header.length != 0 {
                    return Err(DecodeFrameError::SettingsAckWithPayload);
                }
                let settings = Settings::decode(payload)?;
                Ok(Frame::Settings(SettingsFrame { ack, settings }))
            }
            FrameKind::PushPromise => {
                require_stream(&header)?;
                let (pad_len, body) = strip_padding(&header, payload)?;
                // Too short for the promised stream id: a frame size
                // error (RFC 7540 §4.2), not a truncation.
                if body.len() < 4 {
                    return Err(invalid_length());
                }
                let promised = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
                Ok(Frame::PushPromise(PushPromiseFrame {
                    stream_id: header.stream_id,
                    promised_stream_id: StreamId::new(promised),
                    fragment: Bytes::copy_from_slice(&body[4..]),
                    end_headers: header.has_flag(flags::END_HEADERS),
                    pad_len,
                }))
            }
            FrameKind::Ping => {
                require_connection(&header)?;
                if header.length != 8 {
                    return Err(invalid_length());
                }
                let mut buf = [0u8; 8];
                buf.copy_from_slice(payload);
                Ok(Frame::Ping(PingFrame {
                    ack: header.has_flag(flags::ACK),
                    payload: buf,
                }))
            }
            FrameKind::Goaway => {
                require_connection(&header)?;
                if header.length < 8 {
                    return Err(invalid_length());
                }
                let last = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
                let code = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
                Ok(Frame::Goaway(GoawayFrame {
                    last_stream_id: StreamId::new(last),
                    code: ErrorCode::from(code),
                    debug_data: Bytes::copy_from_slice(&payload[8..]),
                }))
            }
            FrameKind::WindowUpdate => {
                if header.length != 4 {
                    return Err(invalid_length());
                }
                let raw = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
                // Masking here is RFC-correct: §6.9 reserves the top bit
                // and receivers MUST ignore it. (Zero increments decode
                // fine too: §III-B3 probes send them, and the reaction
                // is the receiver's — `h2conn`'s
                // `CoreEvent::ZeroWindowUpdate`.)
                Ok(Frame::WindowUpdate(WindowUpdateFrame {
                    stream_id: header.stream_id,
                    increment: raw & 0x7fff_ffff,
                }))
            }
            FrameKind::Continuation => {
                require_stream(&header)?;
                Ok(Frame::Continuation(ContinuationFrame {
                    stream_id: header.stream_id,
                    fragment: Bytes::copy_from_slice(payload),
                    end_headers: header.has_flag(flags::END_HEADERS),
                }))
            }
            FrameKind::Unknown(kind) => Ok(Frame::Unknown(UnknownFrame {
                kind,
                flags: header.flags,
                stream_id: header.stream_id,
                payload: Bytes::copy_from_slice(payload),
            })),
        }
    }
}

/// Strips the pad-length octet and trailing padding when PADDED is set.
fn strip_padding<'a>(
    header: &FrameHeader,
    payload: &'a [u8],
) -> Result<(Option<u8>, &'a [u8]), DecodeFrameError> {
    if !header.has_flag(flags::PADDED) {
        return Ok((None, payload));
    }
    // No room for the Pad Length octet the flag promises: a frame size
    // error (RFC 7540 §4.2), like every other too-short frame.
    let (&pad, rest) = payload
        .split_first()
        .ok_or(DecodeFrameError::InvalidLength {
            kind: header.kind.to_u8(),
            length: header.length,
        })?;
    if usize::from(pad) > rest.len() {
        return Err(DecodeFrameError::InvalidPadding);
    }
    Ok((Some(pad), &rest[..rest.len() - usize::from(pad)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_one;

    fn round_trip(frame: Frame) -> Frame {
        let bytes = frame.to_bytes();
        let (decoded, consumed) = decode_one(&bytes, crate::settings::MAX_MAX_FRAME_SIZE)
            .expect("decodable")
            .expect("complete");
        assert_eq!(consumed, bytes.len());
        decoded
    }

    #[test]
    fn data_round_trip_with_padding() {
        let frame = Frame::Data(DataFrame {
            stream_id: StreamId::new(3),
            data: Bytes::from_static(b"hello world"),
            end_stream: true,
            pad_len: Some(7),
        });
        assert_eq!(round_trip(frame.clone()), frame);
        if let Frame::Data(d) = &frame {
            assert_eq!(d.flow_controlled_len(), 11 + 7 + 1);
        }
    }

    #[test]
    fn headers_round_trip_with_priority() {
        let frame = Frame::Headers(HeadersFrame {
            stream_id: StreamId::new(5),
            fragment: Bytes::from_static(&[0x82, 0x86]),
            end_stream: false,
            end_headers: true,
            priority: Some(PrioritySpec {
                exclusive: true,
                dependency: StreamId::new(3),
                weight: 256,
            }),
            pad_len: None,
        });
        assert_eq!(round_trip(frame.clone()), frame);
    }

    #[test]
    fn priority_frame_round_trip() {
        let frame = Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(7),
            spec: PrioritySpec {
                exclusive: false,
                dependency: StreamId::new(5),
                weight: 1,
            },
        });
        assert_eq!(round_trip(frame.clone()), frame);
    }

    #[test]
    fn rst_settings_ping_goaway_window_update_round_trip() {
        for frame in [
            Frame::RstStream(RstStreamFrame {
                stream_id: StreamId::new(9),
                code: ErrorCode::Cancel,
            }),
            Frame::Settings(SettingsFrame::from(
                Settings::new().with(crate::settings::SettingId::MaxConcurrentStreams, 100),
            )),
            Frame::Settings(SettingsFrame::ack()),
            Frame::Ping(PingFrame::request(*b"abcdefgh")),
            Frame::Goaway(GoawayFrame {
                last_stream_id: StreamId::new(41),
                code: ErrorCode::EnhanceYourCalm,
                debug_data: Bytes::from_static(b"window update shouldn't be zero"),
            }),
            Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment: (1 << 31) - 1,
            }),
        ] {
            assert_eq!(round_trip(frame.clone()), frame);
        }
    }

    #[test]
    fn push_promise_round_trip() {
        let frame = Frame::PushPromise(PushPromiseFrame {
            stream_id: StreamId::new(1),
            promised_stream_id: StreamId::new(2),
            fragment: Bytes::from_static(&[0x82]),
            end_headers: true,
            pad_len: Some(3),
        });
        assert_eq!(round_trip(frame.clone()), frame);
    }

    #[test]
    fn continuation_round_trip() {
        let frame = Frame::Continuation(ContinuationFrame {
            stream_id: StreamId::new(11),
            fragment: Bytes::from_static(&[1, 2, 3]),
            end_headers: true,
        });
        assert_eq!(round_trip(frame.clone()), frame);
    }

    #[test]
    fn unknown_frame_round_trip() {
        let frame = Frame::Unknown(UnknownFrame {
            kind: 0xfa,
            flags: 0x55,
            stream_id: StreamId::new(13),
            payload: Bytes::from_static(b"ext"),
        });
        assert_eq!(round_trip(frame.clone()), frame);
    }

    #[test]
    fn zero_window_update_is_representable() {
        // The paper sends zero increments on purpose (§III-B3); the codec
        // must carry them so the *endpoint* can classify the violation.
        let frame = Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::new(1),
            increment: 0,
        });
        assert_eq!(round_trip(frame.clone()), frame);
    }

    #[test]
    fn checked_window_update_rejects_out_of_range_increments() {
        assert_eq!(
            WindowUpdateFrame::checked(StreamId::new(1), 0),
            Err(IncrementOutOfRange { increment: 0 })
        );
        assert_eq!(
            WindowUpdateFrame::checked(StreamId::CONNECTION, MAX_WINDOW_INCREMENT + 1),
            Err(IncrementOutOfRange {
                increment: MAX_WINDOW_INCREMENT + 1
            })
        );
        assert_eq!(
            WindowUpdateFrame::checked(StreamId::CONNECTION, u32::MAX)
                .unwrap_err()
                .to_string(),
            format!("window update increment {} outside 1..=2^31-1", u32::MAX)
        );
        let ok = WindowUpdateFrame::checked(StreamId::new(3), MAX_WINDOW_INCREMENT).unwrap();
        assert_eq!(ok.increment, MAX_WINDOW_INCREMENT);
        assert_eq!(round_trip(Frame::WindowUpdate(ok)), Frame::WindowUpdate(ok));
    }

    #[test]
    #[should_panic(expected = "exceeds 2^31-1")]
    fn encode_refuses_to_mask_an_oversized_increment() {
        // Regression: encode used to apply `& 0x7fff_ffff`, silently
        // turning e.g. 2^31 into 0 on the wire. It must refuse instead.
        let frame = Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::new(1),
            increment: 1 << 31,
        });
        let mut out = Vec::new();
        frame.encode(&mut out);
    }

    #[test]
    fn decode_ignores_the_reserved_increment_bit() {
        // §6.9: the top bit is reserved; receivers MUST ignore it rather
        // than reject the frame.
        let legal = Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::new(5),
            increment: 7,
        });
        let mut bytes = legal.to_bytes();
        let payload_start = bytes.len() - 4;
        bytes[payload_start] |= 0x80;
        let header = FrameHeader::decode(&bytes).unwrap();
        let decoded = Frame::decode(header, &bytes[crate::header::FRAME_HEADER_LEN..]).unwrap();
        assert_eq!(decoded, legal);
    }

    #[test]
    fn ping_with_wrong_length_is_rejected() {
        let mut bytes = Frame::Ping(PingFrame::request([0; 8])).to_bytes();
        bytes[2] = 7; // shrink declared length
        bytes.truncate(9 + 7);
        let err = decode_one(&bytes, 16_384).unwrap_err();
        assert!(matches!(
            err,
            DecodeFrameError::InvalidLength {
                kind: 0x6,
                length: 7
            }
        ));
    }

    #[test]
    fn data_on_stream_zero_is_rejected() {
        let frame = Frame::Data(DataFrame {
            stream_id: StreamId::new(1),
            data: Bytes::from_static(b"x"),
            end_stream: false,
            pad_len: None,
        });
        let mut bytes = frame.to_bytes();
        bytes[5..9].copy_from_slice(&0u32.to_be_bytes()); // rewrite stream id to 0
        let err = decode_one(&bytes, 16_384).unwrap_err();
        assert!(matches!(
            err,
            DecodeFrameError::InvalidStreamId {
                kind: 0x0,
                stream_id: 0
            }
        ));
    }

    #[test]
    fn settings_on_nonzero_stream_is_rejected() {
        let mut bytes = Frame::Settings(SettingsFrame::ack()).to_bytes();
        bytes[5..9].copy_from_slice(&3u32.to_be_bytes());
        let err = decode_one(&bytes, 16_384).unwrap_err();
        assert!(matches!(
            err,
            DecodeFrameError::InvalidStreamId {
                kind: 0x4,
                stream_id: 3
            }
        ));
    }

    #[test]
    fn padding_overrun_is_rejected() {
        let frame = Frame::Data(DataFrame {
            stream_id: StreamId::new(1),
            data: Bytes::from_static(b"ab"),
            end_stream: false,
            pad_len: Some(2),
        });
        let mut bytes = frame.to_bytes();
        // Payload is [pad=2, 'a', 'b', 0, 0]; claim more padding than exists.
        bytes[9] = 200;
        let err = decode_one(&bytes, 16_384).unwrap_err();
        assert_eq!(err, DecodeFrameError::InvalidPadding);
    }

    #[test]
    fn settings_ack_with_payload_is_rejected() {
        let mut bytes = Frame::Settings(SettingsFrame::from(
            Settings::new().with(crate::settings::SettingId::EnablePush, 1),
        ))
        .to_bytes();
        bytes[4] |= flags::ACK;
        let err = decode_one(&bytes, 16_384).unwrap_err();
        assert_eq!(err, DecodeFrameError::SettingsAckWithPayload);
    }

    #[test]
    fn weight_encodes_as_value_minus_one() {
        let frame = Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(3),
            spec: PrioritySpec {
                exclusive: false,
                dependency: StreamId::CONNECTION,
                weight: 1,
            },
        });
        let bytes = frame.to_bytes();
        assert_eq!(bytes[9 + 4], 0); // weight 1 -> wire 0
    }
}
