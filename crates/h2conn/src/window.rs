//! Flow-control window arithmetic (RFC 7540 §5.2, §6.9).

use std::error::Error;
use std::fmt;

/// Largest legal flow-control window: 2^31 - 1 octets.
pub const MAX_WINDOW: i64 = (1 << 31) - 1;

/// Default initial window for streams and connections.
pub const DEFAULT_WINDOW: u32 = 65_535;

/// Error raised when a window operation violates RFC 7540.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowError {
    /// An update would push the window past 2^31 - 1 (§6.9.1: the sender
    /// "MUST terminate either the stream or the connection").
    Overflow,
    /// An attempt to consume more window than is available.
    Insufficient {
        /// Octets requested.
        requested: u32,
        /// Octets available (may be negative after a SETTINGS shrink).
        available: i64,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::Overflow => f.write_str("flow-control window exceeds 2^31-1"),
            WindowError::Insufficient {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} octets but window holds {available}"
                )
            }
        }
    }
}

impl Error for WindowError {}

/// One flow-control window (send or receive side, stream or connection
/// scope).
///
/// Stored as `i64` because RFC 7540 §6.9.2 lets a `SETTINGS_INITIAL_WINDOW_SIZE`
/// reduction drive a window negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowWindow {
    available: i64,
}

impl Default for FlowWindow {
    fn default() -> FlowWindow {
        FlowWindow::new(DEFAULT_WINDOW)
    }
}

impl FlowWindow {
    /// Creates a window holding `initial` octets.
    pub fn new(initial: u32) -> FlowWindow {
        FlowWindow {
            available: i64::from(initial),
        }
    }

    /// Octets currently available (negative when over-committed).
    pub fn available(&self) -> i64 {
        self.available
    }

    /// Grows the window by a WINDOW_UPDATE increment.
    ///
    /// # Errors
    ///
    /// [`WindowError::Overflow`] when the result would exceed 2^31 - 1.
    /// Note that a zero increment is *not* checked here: RFC 7540 §6.9
    /// makes it a PROTOCOL_ERROR that callers classify explicitly, because
    /// the paper probes exactly how servers react to it.
    pub fn expand(&mut self, increment: u32) -> Result<(), WindowError> {
        let next = self
            .available
            .checked_add(i64::from(increment))
            .ok_or(WindowError::Overflow)?;
        if next > MAX_WINDOW {
            return Err(WindowError::Overflow);
        }
        self.available = next;
        Ok(())
    }

    /// Consumes `octets` from the window (sending or receiving data).
    ///
    /// # Errors
    ///
    /// [`WindowError::Insufficient`] when the window holds fewer octets.
    pub fn consume(&mut self, octets: u32) -> Result<(), WindowError> {
        if i64::from(octets) > self.available {
            return Err(WindowError::Insufficient {
                requested: octets,
                available: self.available,
            });
        }
        self.available -= i64::from(octets);
        Ok(())
    }

    /// Applies a `SETTINGS_INITIAL_WINDOW_SIZE` delta (may go negative).
    ///
    /// # Errors
    ///
    /// [`WindowError::Overflow`] when the adjustment would exceed the
    /// maximum window (§6.9.2 makes that a FLOW_CONTROL_ERROR) or when the
    /// arithmetic itself would wrap `i64` — repeated adversarial
    /// `SETTINGS_INITIAL_WINDOW_SIZE` swings must not become wrap-around
    /// in release builds.
    pub fn adjust(&mut self, delta: i64) -> Result<(), WindowError> {
        let next = self
            .available
            .checked_add(delta)
            .ok_or(WindowError::Overflow)?;
        if next > MAX_WINDOW {
            return Err(WindowError::Overflow);
        }
        self.available = next;
        Ok(())
    }

    /// The largest chunk that fits in both this window and `cap`.
    pub fn sendable(&self, cap: u32) -> u32 {
        if self.available <= 0 {
            0
        } else {
            self.available.min(i64::from(cap)) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_is_65535() {
        assert_eq!(FlowWindow::default().available(), 65_535);
    }

    #[test]
    fn consume_and_expand_round_trip() {
        let mut w = FlowWindow::new(100);
        w.consume(60).unwrap();
        assert_eq!(w.available(), 40);
        w.expand(10).unwrap();
        assert_eq!(w.available(), 50);
    }

    #[test]
    fn consume_past_zero_is_rejected() {
        let mut w = FlowWindow::new(10);
        assert_eq!(
            w.consume(11),
            Err(WindowError::Insufficient {
                requested: 11,
                available: 10
            })
        );
    }

    #[test]
    fn overflow_is_detected_exactly_at_the_boundary() {
        let mut w = FlowWindow::new(DEFAULT_WINDOW);
        // The paper's "large window update" probe: two increments whose sum
        // exceeds 2^31-1 must fail on the second.
        w.expand(0x7fff_ffff - DEFAULT_WINDOW).unwrap();
        assert_eq!(w.available(), MAX_WINDOW);
        assert_eq!(w.expand(1), Err(WindowError::Overflow));
    }

    #[test]
    fn settings_shrink_can_go_negative() {
        let mut w = FlowWindow::new(100);
        w.adjust(-150).unwrap();
        assert_eq!(w.available(), -50);
        assert_eq!(w.sendable(100), 0);
        w.expand(60).unwrap();
        assert_eq!(w.available(), 10);
        assert_eq!(w.sendable(100), 10);
    }

    #[test]
    fn sendable_respects_cap() {
        let w = FlowWindow::new(1_000_000);
        assert_eq!(w.sendable(16_384), 16_384);
        let w = FlowWindow::new(5);
        assert_eq!(w.sendable(16_384), 5);
    }

    #[test]
    fn adjust_never_wraps_i64() {
        // Regression: `adjust` used unchecked `+`, so driving the window
        // deeply negative and then applying i64::MIN wrapped in release
        // builds (and panicked in debug). It must report Overflow instead.
        let mut w = FlowWindow::new(0);
        w.adjust(i64::MIN + 1).unwrap();
        assert_eq!(w.available(), i64::MIN + 1);
        assert_eq!(w.adjust(-2), Err(WindowError::Overflow));
        // The window is untouched after a failed adjustment.
        assert_eq!(w.available(), i64::MIN + 1);

        let mut w = FlowWindow::new(DEFAULT_WINDOW);
        assert_eq!(w.adjust(i64::MAX), Err(WindowError::Overflow));
        assert_eq!(w.available(), i64::from(DEFAULT_WINDOW));
    }

    #[test]
    fn expand_at_the_cap_still_reports_overflow() {
        let mut w = FlowWindow::new(DEFAULT_WINDOW);
        w.adjust(MAX_WINDOW - i64::from(DEFAULT_WINDOW)).unwrap();
        assert_eq!(w.available(), MAX_WINDOW);
        assert_eq!(w.expand(1), Err(WindowError::Overflow));
    }

    #[test]
    fn zero_increment_is_mechanically_allowed() {
        // Classification of zero updates is a policy decision made by the
        // endpoint (probed by §III-B3); the arithmetic layer accepts it.
        let mut w = FlowWindow::new(10);
        assert!(w.expand(0).is_ok());
        assert_eq!(w.available(), 10);
    }
}
