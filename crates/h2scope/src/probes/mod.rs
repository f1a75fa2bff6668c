//! The probe suite: one module per measurement method in the paper's
//! Section III.

pub mod flow_control;
pub mod hpack;
pub mod multiplexing;
pub mod negotiation;
pub mod ping;
pub mod priority;
pub mod push;
pub mod settings;

use crate::client::{ProbeConn, TimedFrame};
use h2wire::Frame;

/// How a server reacted to a deliberately offending frame — the
/// classification H2Scope applies across the flow-control and priority
/// probes (§III-B3, §III-B4, §III-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reaction {
    /// No error frame came back; the server carried on.
    Ignored,
    /// The server reset the affected stream.
    RstStream,
    /// The server tore down the connection.
    Goaway,
    /// GOAWAY with human-readable debug data (a small population in §V-D3
    /// explained themselves: "the window update shouldn't be zero").
    GoawayWithDebug,
    /// The probe connection failed (timeout, reset, unparseable bytes)
    /// before any RST_STREAM or GOAWAY came back, so the server's
    /// reaction was never observed — the timeout §V-D warns must not be
    /// read as "ignored".
    Unknown,
}

impl std::fmt::Display for Reaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reaction::Ignored => "ignore",
            Reaction::RstStream => "RST_STREAM",
            Reaction::Goaway => "GOAWAY",
            Reaction::GoawayWithDebug => "GOAWAY+debug",
            Reaction::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Classifies the frames received after sending an offending frame: the
/// first defensive frame wins.
pub fn classify_reaction(frames: &[TimedFrame]) -> Reaction {
    classify(frames).unwrap_or(Reaction::Ignored)
}

/// [`classify_reaction`] for a probe that owns its connection: silence
/// on a connection that failed is [`Reaction::Unknown`], not
/// [`Reaction::Ignored`]. The first defensive frame still wins.
pub(crate) fn observed_reaction(conn: &ProbeConn, frames: &[TimedFrame]) -> Reaction {
    match classify(frames) {
        Some(reaction) => reaction,
        None if conn.is_dead() => Reaction::Unknown,
        None => Reaction::Ignored,
    }
}

/// The first RST_STREAM or GOAWAY among `frames`, if any.
fn classify(frames: &[TimedFrame]) -> Option<Reaction> {
    for tf in frames {
        match &tf.frame {
            Frame::RstStream(_) => return Some(Reaction::RstStream),
            Frame::Goaway(g) => {
                return Some(if g.debug_data.is_empty() {
                    Reaction::Goaway
                } else {
                    Reaction::GoawayWithDebug
                });
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use h2wire::{ErrorCode, GoawayFrame, RstStreamFrame, StreamId};
    use netsim::SimTime;

    fn tf(frame: Frame) -> TimedFrame {
        TimedFrame {
            at: SimTime::ZERO,
            frame,
            headers: None,
        }
    }

    #[test]
    fn classification_order_of_precedence() {
        assert_eq!(classify_reaction(&[]), Reaction::Ignored);
        assert_eq!(
            classify_reaction(&[tf(Frame::RstStream(RstStreamFrame {
                stream_id: StreamId::new(1),
                code: ErrorCode::ProtocolError,
            }))]),
            Reaction::RstStream
        );
        assert_eq!(
            classify_reaction(&[tf(Frame::Goaway(GoawayFrame {
                last_stream_id: StreamId::new(0),
                code: ErrorCode::ProtocolError,
                debug_data: Bytes::new(),
            }))]),
            Reaction::Goaway
        );
        assert_eq!(
            classify_reaction(&[tf(Frame::Goaway(GoawayFrame {
                last_stream_id: StreamId::new(0),
                code: ErrorCode::ProtocolError,
                debug_data: Bytes::from_static(b"the window update shouldn't be zero"),
            }))]),
            Reaction::GoawayWithDebug
        );
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(Reaction::Ignored.to_string(), "ignore");
        assert_eq!(Reaction::RstStream.to_string(), "RST_STREAM");
        assert_eq!(Reaction::Goaway.to_string(), "GOAWAY");
        assert_eq!(Reaction::Unknown.to_string(), "unknown");
    }
}
