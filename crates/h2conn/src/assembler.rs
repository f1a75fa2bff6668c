//! Header-block assembly across HEADERS/PUSH_PROMISE + CONTINUATION
//! frames (RFC 7540 §4.3).

use h2wire::{ContinuationFrame, PrioritySpec, StreamId};

/// Error raised when the CONTINUATION discipline is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyError {
    /// A non-CONTINUATION frame arrived while a header block was open.
    InterleavedFrame,
    /// A CONTINUATION arrived with no open header block, or for a
    /// different stream.
    UnexpectedContinuation {
        /// Stream the stray frame named.
        stream: StreamId,
    },
}

impl std::fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyError::InterleavedFrame => {
                f.write_str("frame interleaved inside a header block")
            }
            AssemblyError::UnexpectedContinuation { stream } => {
                write!(f, "unexpected continuation on stream {stream}")
            }
        }
    }
}

impl std::error::Error for AssemblyError {}

/// What kind of block is being assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A request/response HEADERS block.
    Headers,
    /// A PUSH_PROMISE block; carries the promised stream.
    PushPromise {
        /// The stream reserved by the promise.
        promised: StreamId,
    },
}

/// A fully assembled header block, ready for HPACK decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteBlock {
    /// Stream the block belongs to.
    pub stream: StreamId,
    /// HEADERS or PUSH_PROMISE.
    pub kind: BlockKind,
    /// Concatenated HPACK fragment.
    pub fragment: Vec<u8>,
    /// END_STREAM from the initiating HEADERS frame.
    pub end_stream: bool,
    /// Priority fields from the initiating HEADERS frame.
    pub priority: Option<PrioritySpec>,
}

#[derive(Debug, Clone)]
struct Pending {
    block: CompleteBlock,
}

/// Assembles header blocks; at most one may be open at a time per
/// connection (RFC 7540 §4.3: header blocks are contiguous).
#[derive(Debug, Clone, Default)]
pub struct HeaderAssembler {
    pending: Option<Pending>,
}

impl HeaderAssembler {
    /// Creates an idle assembler.
    pub fn new() -> HeaderAssembler {
        HeaderAssembler::default()
    }

    /// `true` while a block is open (END_HEADERS not yet seen).
    pub fn in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// Octets accumulated so far in the open block (0 when idle).
    ///
    /// RFC 7540 never bounds a header block: a peer may stream
    /// CONTINUATION fragments forever while the receiver buffers them
    /// (the CONTINUATION-flood vector). Policy layers read this to decide
    /// when to give up on an unbounded block.
    pub fn accumulated(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| p.block.fragment.len())
    }

    /// Starts a block from an initiating HEADERS/PUSH_PROMISE frame.
    ///
    /// # Errors
    ///
    /// [`AssemblyError::InterleavedFrame`] when a block is already open.
    pub fn start(
        &mut self,
        stream: StreamId,
        kind: BlockKind,
        fragment: &[u8],
        end_stream: bool,
        end_headers: bool,
        priority: Option<PrioritySpec>,
    ) -> Result<Option<CompleteBlock>, AssemblyError> {
        if self.pending.is_some() {
            return Err(AssemblyError::InterleavedFrame);
        }
        let block = CompleteBlock {
            stream,
            kind,
            fragment: fragment.to_vec(),
            end_stream,
            priority,
        };
        if end_headers {
            return Ok(Some(block));
        }
        self.pending = Some(Pending { block });
        Ok(None)
    }

    /// Feeds a CONTINUATION frame.
    ///
    /// # Errors
    ///
    /// [`AssemblyError::UnexpectedContinuation`] when no block is open or
    /// the stream does not match.
    pub fn continuation(
        &mut self,
        frame: &ContinuationFrame,
    ) -> Result<Option<CompleteBlock>, AssemblyError> {
        let Some(pending) = self.pending.as_mut() else {
            return Err(AssemblyError::UnexpectedContinuation {
                stream: frame.stream_id,
            });
        };
        if pending.block.stream != frame.stream_id {
            return Err(AssemblyError::UnexpectedContinuation {
                stream: frame.stream_id,
            });
        }
        pending.block.fragment.extend_from_slice(&frame.fragment);
        if frame.end_headers {
            #[expect(clippy::expect_used, reason = "`pending` was matched Some above")]
            return Ok(Some(self.pending.take().expect("pending exists").block));
        }
        Ok(None)
    }

    /// Reports whether a non-CONTINUATION frame is currently legal.
    ///
    /// # Errors
    ///
    /// [`AssemblyError::InterleavedFrame`] while a block is open.
    pub fn check_interleave(&self) -> Result<(), AssemblyError> {
        if self.pending.is_some() {
            Err(AssemblyError::InterleavedFrame)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn sid(v: u32) -> StreamId {
        StreamId::new(v)
    }

    #[test]
    fn single_frame_block_completes_immediately() {
        let mut asm = HeaderAssembler::new();
        let block = asm
            .start(sid(1), BlockKind::Headers, &[1, 2, 3], true, true, None)
            .unwrap()
            .unwrap();
        assert_eq!(block.fragment, vec![1, 2, 3]);
        assert!(block.end_stream);
        assert!(!asm.in_progress());
    }

    #[test]
    fn continuation_concatenates_in_order() {
        let mut asm = HeaderAssembler::new();
        assert!(asm
            .start(sid(1), BlockKind::Headers, &[1], false, false, None)
            .unwrap()
            .is_none());
        assert!(asm.in_progress());
        let c1 = ContinuationFrame {
            stream_id: sid(1),
            fragment: Bytes::from_static(&[2]),
            end_headers: false,
        };
        assert!(asm.continuation(&c1).unwrap().is_none());
        let c2 = ContinuationFrame {
            stream_id: sid(1),
            fragment: Bytes::from_static(&[3]),
            end_headers: true,
        };
        let block = asm.continuation(&c2).unwrap().unwrap();
        assert_eq!(block.fragment, vec![1, 2, 3]);
        assert!(!asm.in_progress());
    }

    #[test]
    fn interleaved_start_is_rejected() {
        let mut asm = HeaderAssembler::new();
        asm.start(sid(1), BlockKind::Headers, &[], false, false, None)
            .unwrap();
        let err = asm
            .start(sid(3), BlockKind::Headers, &[], false, true, None)
            .unwrap_err();
        assert_eq!(err, AssemblyError::InterleavedFrame);
        assert!(asm.check_interleave().is_err());
    }

    #[test]
    fn continuation_for_wrong_stream_is_rejected() {
        let mut asm = HeaderAssembler::new();
        asm.start(sid(1), BlockKind::Headers, &[], false, false, None)
            .unwrap();
        let stray = ContinuationFrame {
            stream_id: sid(3),
            fragment: Bytes::new(),
            end_headers: true,
        };
        assert_eq!(
            asm.continuation(&stray),
            Err(AssemblyError::UnexpectedContinuation { stream: sid(3) })
        );
    }

    #[test]
    fn continuation_without_block_is_rejected() {
        let mut asm = HeaderAssembler::new();
        let stray = ContinuationFrame {
            stream_id: sid(1),
            fragment: Bytes::new(),
            end_headers: true,
        };
        assert!(asm.continuation(&stray).is_err());
    }

    #[test]
    fn push_promise_block_keeps_promised_stream() {
        let mut asm = HeaderAssembler::new();
        let block = asm
            .start(
                sid(1),
                BlockKind::PushPromise { promised: sid(2) },
                &[9],
                false,
                true,
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(block.kind, BlockKind::PushPromise { promised: sid(2) });
        assert!(!block.end_stream);
    }
}
