//! Ring-buffered frame-level event traces.
//!
//! Each traced site owns a bounded ring of [`TraceEvent`]s; the ring is
//! flushed wholesale into the campaign-wide trace store when the site
//! finishes, and the store is sorted by site index at snapshot time, so
//! the rendered trace is independent of worker scheduling.

use crate::metrics::frame_slot;
use crate::metrics::FRAME_KIND_NAMES;

/// What happened at a traced instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The client wrote a frame of the given wire kind.
    Send(u8),
    /// The client observed a frame of the given wire kind arrive.
    Recv(u8),
    /// A probe attempt hit its patience deadline.
    Timeout,
    /// The simulated connection was reset mid-probe.
    Reset,
    /// The peer produced bytes the codec rejected.
    Malformed,
    /// A retry was scheduled; the payload is the attempt number.
    Retry(u32),
}

impl EventKind {
    /// Short machine-friendly tag used in JSON output.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Send(_) => "send",
            EventKind::Recv(_) => "recv",
            EventKind::Timeout => "timeout",
            EventKind::Reset => "reset",
            EventKind::Malformed => "malformed",
            EventKind::Retry(_) => "retry",
        }
    }

    /// Frame-kind name for send/recv events, attempt number for retries.
    pub fn detail(self) -> String {
        match self {
            EventKind::Send(k) | EventKind::Recv(k) => FRAME_KIND_NAMES[frame_slot(k)].to_string(),
            EventKind::Retry(attempt) => format!("attempt {attempt}"),
            _ => String::new(),
        }
    }
}

/// One timestamped entry in a site's frame-level trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event, in nanoseconds since connection start.
    pub at_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Bounded ring buffer of trace events. When full, the oldest events are
/// overwritten: the tail of an exchange is where a failed probe ends.
#[derive(Debug)]
pub struct Ring {
    events: Vec<TraceEvent>,
    cap: usize,
    /// Index of the logical first element once the ring has wrapped.
    head: usize,
    /// Count of events dropped due to wrapping.
    dropped: u64,
}

impl Ring {
    /// Creates a ring holding at most `cap` events (`cap` >= 1).
    pub fn new(cap: usize) -> Self {
        Ring {
            events: Vec::new(),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when at capacity.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Drains the ring into chronological order, returning the events and
    /// how many older events were dropped.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.events.len());
        let n = self.events.len();
        for i in 0..n {
            out.push(self.events[(self.head + i) % n.max(1)]);
        }
        self.events.clear();
        self.head = 0;
        let dropped = self.dropped;
        self.dropped = 0;
        (out, dropped)
    }
}

/// A finished site's trace: which site, its events, and drop accounting.
#[derive(Debug, Clone)]
pub struct SiteTrace {
    /// Population index of the site.
    pub site: u64,
    /// Chronological trace events.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at_nanos: at,
            kind: EventKind::Send(0x4),
        }
    }

    #[test]
    fn ring_keeps_newest_events_in_order() {
        let mut r = Ring::new(3);
        for at in 0..5 {
            r.push(ev(at));
        }
        let (events, dropped) = r.drain();
        assert_eq!(dropped, 2);
        let ats: Vec<u64> = events.iter().map(|e| e.at_nanos).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn ring_drain_resets_state() {
        let mut r = Ring::new(2);
        r.push(ev(1));
        let (events, dropped) = r.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
        let (events, _) = r.drain();
        assert!(events.is_empty());
    }

    #[test]
    fn event_kind_details() {
        assert_eq!(EventKind::Send(0x8).detail(), "WINDOW_UPDATE");
        assert_eq!(EventKind::Retry(2).detail(), "attempt 2");
        assert_eq!(EventKind::Timeout.tag(), "timeout");
    }
}
