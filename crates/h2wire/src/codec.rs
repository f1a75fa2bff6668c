//! Streaming frame codec: turns a byte stream into frames and back.

#![allow(
    clippy::indexing_slicing,
    reason = "dense wire codec; lengths verified before fixed-offset reads"
)]

use std::ops::Range;

use bytes::Bytes;

use crate::error::DecodeFrameError;
use crate::frame::Frame;
use crate::header::{FrameHeader, FRAME_HEADER_LEN};

/// The one decode routine behind [`decode_one`] and both streaming entry
/// points. Answers "is there a complete, admissible frame at the front of
/// `buf`, and where does it end?" — `Ok(None)` means more bytes are
/// needed, and a declared length above `max_frame_size` is refused from
/// the header alone (RFC 7540 §4.2) — then lets `payload` materialise the
/// frame from its header and payload range.
fn decode_front(
    buf: &[u8],
    max_frame_size: u32,
    payload: impl FnOnce(FrameHeader, Range<usize>) -> Result<Frame, DecodeFrameError>,
) -> Result<Option<(Frame, usize)>, DecodeFrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let header = FrameHeader::decode(buf)?;
    if header.length > max_frame_size {
        return Err(DecodeFrameError::FrameTooLarge {
            length: header.length,
            max: max_frame_size,
        });
    }
    let total = FRAME_HEADER_LEN + header.length as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let frame = payload(header, FRAME_HEADER_LEN..total)?;
    Ok(Some((frame, total)))
}

/// Attempts to decode a single frame from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed, or `Ok(Some((frame,
/// consumed)))` on success.
///
/// # Errors
///
/// Propagates structural violations from [`Frame::decode`], and rejects
/// frames whose declared payload length exceeds `max_frame_size` before
/// buffering the payload (RFC 7540 §4.2).
pub fn decode_one(
    buf: &[u8],
    max_frame_size: u32,
) -> Result<Option<(Frame, usize)>, DecodeFrameError> {
    decode_front(buf, max_frame_size, |header, range| {
        Frame::decode(header, &buf[range])
    })
}

/// A stateful decoder that accumulates bytes and yields complete frames.
///
/// This is the receive half every endpoint in the workspace uses; it
/// enforces the receiver's `SETTINGS_MAX_FRAME_SIZE`.
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`: bytes before it are already-consumed frame
    /// data, compacted away on the next [`FrameDecoder::feed`] rather than
    /// memmoved on every decoded frame.
    pos: usize,
    max_frame_size: u32,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// Creates a decoder with the protocol-default max frame size (16,384).
    pub fn new() -> FrameDecoder {
        FrameDecoder::new_in(Vec::new())
    }

    /// [`FrameDecoder::new`] buffering into `buf`, the storage another
    /// decoder handed back through [`FrameDecoder::take_scratch`].
    pub fn new_in(mut buf: Vec<u8>) -> FrameDecoder {
        buf.clear();
        FrameDecoder {
            buf,
            pos: 0,
            max_frame_size: crate::settings::DEFAULT_MAX_FRAME_SIZE,
        }
    }

    /// Drops whatever is buffered and hands back the buffer, empty, for
    /// [`FrameDecoder::new_in`].
    pub fn take_scratch(&mut self) -> Vec<u8> {
        self.pos = 0;
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf
    }

    /// Adjusts the maximum frame size this decoder will accept, typically
    /// after announcing a new `SETTINGS_MAX_FRAME_SIZE`.
    pub fn set_max_frame_size(&mut self, max: u32) {
        self.max_frame_size = max;
    }

    /// The limit currently enforced.
    pub fn max_frame_size(&self) -> u32 {
        self.max_frame_size
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact once per segment (not once per frame): consumed bytes at
        // the front are dropped before new ones are appended, so the buffer
        // stays bounded by one segment plus one partial frame.
        if self.pos > 0 {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if any.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation encountered; after an error
    /// the decoder's buffer is cleared because RFC 7540 treats most framing
    /// errors as connection errors.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeFrameError> {
        let buf = &self.buf[self.pos..];
        match decode_front(buf, self.max_frame_size, |header, range| {
            Frame::decode(header, &buf[range])
        }) {
            Ok(Some((frame, consumed))) => {
                self.pos += consumed;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(err) => {
                self.buf.clear();
                self.pos = 0;
                Err(err)
            }
        }
    }

    /// Streaming decode over a shared, refcounted segment.
    ///
    /// Complete frames at the front of `input` are decoded in place —
    /// `input` is advanced past each one — so fully-framed segments (the
    /// overwhelmingly common case on this workspace's simulated
    /// transport, which never splits an endpoint's output batch) cost no
    /// copy into the decoder at all, and because `input` is a [`Bytes`]
    /// view every DATA frame gets a zero-copy slice of the segment
    /// ([`Frame::decode_shared`]): on a bulk download the segment arrives
    /// once and every DATA body is a refcount bump into it. Only a
    /// trailing partial frame is copied into the internal buffer; it
    /// completes on a later call. `Ok(None)` means `input` is exhausted.
    ///
    /// # Errors
    ///
    /// Same contract as [`FrameDecoder::next_frame`]: the first
    /// structural violation is returned and all buffered *and* remaining
    /// `input` bytes are discarded (framing errors are connection
    /// errors).
    pub fn next_frame_shared(
        &mut self,
        input: &mut Bytes,
    ) -> Result<Option<Frame>, DecodeFrameError> {
        if self.buffered_len() > 0 {
            // A partial frame is already buffered: complete it the
            // buffered way. Rare, so the copy is acceptable.
            if !input.is_empty() {
                self.feed(input);
                *input = Bytes::new();
            }
            return self.next_frame();
        }
        let segment = &*input;
        match decode_front(segment, self.max_frame_size, |header, range| {
            Frame::decode_shared(header, segment.slice(range))
        }) {
            Ok(Some((frame, consumed))) => {
                *input = input.slice(consumed..);
                Ok(Some(frame))
            }
            // An exhausted `input` is left as it is (still the sole owner
            // of its segment, so the caller can recycle the buffer); a
            // partial tail is copied out and completes on a later call.
            Ok(None) => {
                if !input.is_empty() {
                    self.feed(input);
                    *input = Bytes::new();
                }
                Ok(None)
            }
            Err(err) => {
                *input = Bytes::new();
                Err(err)
            }
        }
    }

    /// Drains every complete frame currently buffered.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first structural violation.
    pub fn drain_frames(&mut self) -> Result<Vec<Frame>, DecodeFrameError> {
        let mut frames = Vec::new();
        while let Some(frame) = self.next_frame()? {
            frames.push(frame);
        }
        Ok(frames)
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Encodes a sequence of frames onto the end of `out` (which is *not*
/// cleared first), so hot paths can reuse one scratch buffer instead of
/// allocating per batch.
pub fn encode_all_into<'a, I>(frames: I, out: &mut Vec<u8>)
where
    I: IntoIterator<Item = &'a Frame>,
{
    for frame in frames {
        frame.encode(out);
    }
}

/// Encodes a sequence of frames into one freshly allocated buffer.
pub fn encode_all<'a, I>(frames: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a Frame>,
{
    let mut out = Vec::new();
    encode_all_into(frames, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{DataFrame, PingFrame};
    use crate::stream_id::StreamId;
    use bytes::Bytes;

    #[test]
    fn incremental_feed_yields_frame_only_when_complete() {
        let frame = Frame::Ping(PingFrame::request(*b"12345678"));
        let bytes = frame.to_bytes();
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(dec.next_frame().unwrap(), None, "byte {i}");
            dec.feed(&[*b]);
        }
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.buffered_len(), 0);
    }

    #[test]
    fn drain_frames_returns_all_buffered() {
        let frames = vec![
            Frame::Ping(PingFrame::request([1; 8])),
            Frame::Data(DataFrame {
                stream_id: StreamId::new(1),
                data: Bytes::from_static(b"abc"),
                end_stream: true,
                pad_len: None,
            }),
        ];
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_all(&frames));
        assert_eq!(dec.drain_frames().unwrap(), frames);
    }

    #[test]
    fn oversized_frame_is_rejected_from_header_alone() {
        let mut dec = FrameDecoder::new();
        dec.set_max_frame_size(16);
        // Header declaring a 17-byte DATA payload on stream 1.
        dec.feed(&[0, 0, 17, 0, 0, 0, 0, 0, 1]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(
            err,
            DecodeFrameError::FrameTooLarge {
                length: 17,
                max: 16
            }
        );
    }

    #[test]
    fn shared_decode_matches_slice_decode_and_borrows_data_payloads() {
        let frames = vec![
            Frame::Ping(PingFrame::request([9; 8])),
            Frame::Data(DataFrame {
                stream_id: StreamId::new(3),
                data: Bytes::from(vec![0x5a; 4096]),
                end_stream: false,
                pad_len: None,
            }),
            Frame::Data(DataFrame {
                stream_id: StreamId::new(3),
                data: Bytes::from(vec![0xa5; 100]),
                end_stream: true,
                pad_len: Some(7),
            }),
        ];
        let segment = Bytes::from(encode_all(&frames));
        let base = segment.as_ref().as_ptr() as usize;
        let end = base + segment.len();

        let mut dec = FrameDecoder::new();
        let mut input = segment;
        let mut decoded = Vec::new();
        while let Some(frame) = dec.next_frame_shared(&mut input).unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
        assert_eq!(dec.buffered_len(), 0);
        // Every DATA payload is a view into the original segment, not a
        // copy of it.
        for frame in &decoded {
            if let Frame::Data(d) = frame {
                let p = d.data.as_ref().as_ptr() as usize;
                assert!(base <= p && p < end, "payload borrowed from segment");
            }
        }
    }

    #[test]
    fn shared_decode_buffers_a_partial_tail_across_segments() {
        let frame = Frame::Data(DataFrame {
            stream_id: StreamId::new(1),
            data: Bytes::from(vec![0xcc; 300]),
            end_stream: true,
            pad_len: None,
        });
        let wire = frame.to_bytes();
        let (head, tail) = wire.split_at(100);

        let mut dec = FrameDecoder::new();
        let mut first = Bytes::from(head.to_vec());
        assert_eq!(dec.next_frame_shared(&mut first).unwrap(), None);
        assert!(first.is_empty(), "partial input fully consumed");
        assert_eq!(dec.buffered_len(), 100);

        let mut second = Bytes::from(tail.to_vec());
        assert_eq!(dec.next_frame_shared(&mut second).unwrap(), Some(frame));
        assert_eq!(dec.buffered_len(), 0);
    }

    #[test]
    fn shared_decode_rejects_oversized_frames_and_clears_input() {
        let mut dec = FrameDecoder::new();
        dec.set_max_frame_size(16);
        let mut input = Bytes::from(vec![0, 0, 17, 0, 0, 0, 0, 0, 1]);
        let err = dec.next_frame_shared(&mut input).unwrap_err();
        assert_eq!(
            err,
            DecodeFrameError::FrameTooLarge {
                length: 17,
                max: 16
            }
        );
        assert!(input.is_empty(), "remaining input discarded on error");
    }

    #[test]
    fn larger_max_frame_size_admits_large_frames() {
        let data = vec![0xab; 20_000];
        let frame = Frame::Data(DataFrame {
            stream_id: StreamId::new(1),
            data: Bytes::from(data),
            end_stream: false,
            pad_len: None,
        });
        let mut dec = FrameDecoder::new();
        dec.feed(&frame.to_bytes());
        assert!(dec.next_frame().is_err() || dec.buffered_len() == 0);

        let mut dec = FrameDecoder::new();
        dec.set_max_frame_size(1 << 15);
        dec.feed(&frame.to_bytes());
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
    }
}
