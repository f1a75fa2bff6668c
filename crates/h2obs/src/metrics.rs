//! Atomic counters and log2-bucketed histograms over simulated time.
//!
//! Everything here is additive and order-independent: concurrent workers
//! bump relaxed atomics, and a snapshot taken after the campaign joins is
//! a pure sum — so the rendered metrics are bit-identical at any thread
//! count, matching the determinism contract of `h2fault`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket `i` holds samples whose value has
/// `i` significant bits (i.e. `floor(log2(v)) == i - 1`; bucket 0 is the
/// zero bucket). 64 buckets cover the full `u64` range of virtual nanos.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (virtual nanoseconds).
///
/// Lock-free: every field is a `Relaxed` atomic. `fetch_add` commutes and
/// `fetch_min`/`fetch_max` are lattice joins, so concurrent recorders may
/// interleave in any order; [`Histogram::snapshot`] runs after the
/// workers quiesce and sees the same totals at any thread count.
/// Percentiles reported from a snapshot are bucket upper bounds, which is
/// plenty for the order-of-magnitude latency questions the campaign table
/// answers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy (exact only once writers have quiesced).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = (0..HIST_BUCKETS)
            .map(|i| self.buckets[i].load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`], with percentile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-th percentile (`q` in 0..=100) as the upper bound
    /// of the bucket containing that rank, clamped to the observed max.
    pub fn percentile(&self, q: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, rounding up.
        let rank = (u128::from(self.count) * u128::from(q))
            .div_ceil(100)
            .max(1) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// Wire frame kinds 0x0..=0x9 plus one overflow bucket for unknown kinds.
pub const FRAME_KINDS: usize = 11;

/// Human-readable names for the [`FRAME_KINDS`] slots, indexed by wire kind.
pub const FRAME_KIND_NAMES: [&str; FRAME_KINDS] = [
    "DATA",
    "HEADERS",
    "PRIORITY",
    "RST_STREAM",
    "SETTINGS",
    "PUSH_PROMISE",
    "PING",
    "GOAWAY",
    "WINDOW_UPDATE",
    "CONTINUATION",
    "UNKNOWN",
];

/// Maps a raw wire frame kind to its counter slot.
pub fn frame_slot(kind: u8) -> usize {
    let k = kind as usize;
    if k < FRAME_KINDS - 1 {
        k
    } else {
        FRAME_KINDS - 1
    }
}

/// A fixed array of per-frame-kind counters: `Relaxed` `fetch_add`s,
/// which commute, read by [`FrameCounters::snapshot`] after quiesce.
#[derive(Debug, Default)]
pub struct FrameCounters {
    slots: [AtomicU64; FRAME_KINDS],
}

impl FrameCounters {
    /// Bumps the counter for wire frame kind `kind`.
    pub fn bump(&self, kind: u8) {
        self.slots[frame_slot(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current slot values.
    pub fn snapshot(&self) -> [u64; FRAME_KINDS] {
        std::array::from_fn(|i| self.slots[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000_000);
        assert!(s.percentile(50) >= 4);
        assert_eq!(s.percentile(100), 1_000_000);
        assert!(s.percentile(1) >= 1);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        let empty = h.snapshot();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(99), 0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.percentile(50), 0);
    }

    #[test]
    fn frame_counters_clamp_unknown_kinds() {
        let c = FrameCounters::default();
        c.bump(0x4);
        c.bump(0x4);
        c.bump(0xff);
        let snap = c.snapshot();
        assert_eq!(snap[4], 2);
        assert_eq!(snap[FRAME_KINDS - 1], 1);
    }
}
