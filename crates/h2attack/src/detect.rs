//! The online event-sequence detector.
//!
//! Consumes `h2obs` frame-level site traces — the same taps the
//! campaign observability layer already records — and labels each
//! connection benign or attacked, with the vector. The detector is a
//! rule cascade over client-side features: what the client *sent* and
//! *when*, never what the server did, because a defended attack (the
//! server GOAWAYs early) must still be labeled an attack.
//!
//! Thresholds sit an order of magnitude above anything a benign page
//! load produces (a benign client sends zero CONTINUATION, RST_STREAM
//! or PRIORITY frames, one SETTINGS frame, and paces DATA by the link,
//! not by tens of seconds), so precision/recall on mixed campaigns is
//! 1.0 by construction — the pinned fixture test asserts ≥ 0.95 to
//! leave room for future traffic classes.

use h2obs::SiteTrace;

use crate::vectors::AttackVector;

/// Wire frame kinds the features key on.
const DATA: u8 = 0x0;
const HEADERS: u8 = 0x1;
const PRIORITY: u8 = 0x2;
const RST_STREAM: u8 = 0x3;
const SETTINGS: u8 = 0x4;
const CONTINUATION: u8 = 0x9;

/// Rule thresholds. Campaign attack volumes (see `vectors`) exceed
/// every threshold several-fold; benign page loads stay under all of
/// them by at least the same margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    /// Client CONTINUATION frames at or above this ⇒ continuation flood.
    pub continuation_frames: u64,
    /// Client RST_STREAM frames at or above this ⇒ rapid reset.
    pub rst_frames: u64,
    /// Client SETTINGS frames at or above this ⇒ settings flood.
    pub settings_frames: u64,
    /// Client PRIORITY frames at or above this ⇒ priority churn.
    pub priority_frames: u64,
    /// A quiet gap before a client DATA frame at or above this (ns)
    /// ⇒ slow POST.
    pub data_gap_nanos: u64,
    /// Connection lifetime at or above this (ns) without a DATA
    /// trickle ⇒ slow read.
    pub stall_nanos: u64,
    /// Client HEADERS frames at or above this ⇒ table thrash.
    pub headers_frames: u64,
}

impl Default for Detector {
    fn default() -> Detector {
        Detector {
            continuation_frames: 2,
            rst_frames: 8,
            settings_frames: 16,
            priority_frames: 8,
            data_gap_nanos: 2_000_000_000,
            stall_nanos: 20_000_000_000,
            headers_frames: 16,
        }
    }
}

impl Detector {
    /// Classifies one connection trace: `None` is benign, `Some(v)` is
    /// an attack labeled with its vector. Rules are ordered most- to
    /// least-specific so overlapping features (a rapid-reset run also
    /// sends many HEADERS) resolve to the sharper signal.
    pub fn classify(&self, trace: &SiteTrace) -> Option<AttackVector> {
        if trace.sent_count(CONTINUATION) >= self.continuation_frames {
            return Some(AttackVector::ContinuationFlood);
        }
        if trace.sent_count(RST_STREAM) >= self.rst_frames {
            return Some(AttackVector::RapidReset);
        }
        if trace.sent_count(SETTINGS) >= self.settings_frames {
            return Some(AttackVector::SettingsFlood);
        }
        if trace.sent_count(PRIORITY) >= self.priority_frames {
            return Some(AttackVector::PriorityChurn);
        }
        if trace.max_gap_before_send_nanos(DATA) >= self.data_gap_nanos {
            return Some(AttackVector::SlowPost);
        }
        if trace.duration_nanos() >= self.stall_nanos {
            return Some(AttackVector::SlowRead);
        }
        if trace.sent_count(HEADERS) >= self.headers_frames {
            return Some(AttackVector::TableThrash);
        }
        if trace.dropped > 0 {
            // The ring wrapped: more events than any benign exchange
            // produces. Attribute to the busiest abuse signal present.
            let counts = [
                (trace.sent_count(RST_STREAM), AttackVector::RapidReset),
                (
                    trace.sent_count(CONTINUATION),
                    AttackVector::ContinuationFlood,
                ),
                (trace.sent_count(SETTINGS), AttackVector::SettingsFlood),
                (trace.sent_count(PRIORITY), AttackVector::PriorityChurn),
                (trace.sent_count(HEADERS), AttackVector::TableThrash),
            ];
            // max_by_key takes the last maximum; iterate so the first
            // (most specific) wins ties instead.
            let mut best = counts[0];
            for c in &counts[1..] {
                if c.0 > best.0 {
                    best = *c;
                }
            }
            return Some(best.1);
        }
        None
    }
}

/// Detector evaluation against ground truth, accumulated over a mixed
/// campaign. "Positive" means attacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Attacked connections flagged as attacked.
    pub true_positives: u64,
    /// Benign connections flagged as attacked.
    pub false_positives: u64,
    /// Benign connections passed as benign.
    pub true_negatives: u64,
    /// Attacked connections passed as benign.
    pub false_negatives: u64,
    /// Among true positives, how many carried the correct vector label.
    pub vector_labels_correct: u64,
}

impl ConfusionMatrix {
    /// Scores one connection: `truth`/`verdict` are the injected and
    /// detected vectors (`None` = benign).
    pub fn record(&mut self, truth: Option<AttackVector>, verdict: Option<AttackVector>) {
        match (truth, verdict) {
            (Some(t), Some(v)) => {
                self.true_positives = self.true_positives.saturating_add(1);
                if t == v {
                    self.vector_labels_correct = self.vector_labels_correct.saturating_add(1);
                }
            }
            (None, Some(_)) => self.false_positives = self.false_positives.saturating_add(1),
            (None, None) => self.true_negatives = self.true_negatives.saturating_add(1),
            (Some(_), None) => self.false_negatives = self.false_negatives.saturating_add(1),
        }
    }

    /// TP / (TP + FP); 1.0 when nothing was flagged (vacuous precision).
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives.saturating_add(self.false_positives);
        if flagged == 0 {
            return 1.0;
        }
        self.true_positives as f64 / flagged as f64
    }

    /// TP / (TP + FN); 1.0 when nothing was attacked (vacuous recall).
    pub fn recall(&self) -> f64 {
        let attacked = self.true_positives.saturating_add(self.false_negatives);
        if attacked == 0 {
            return 1.0;
        }
        self.true_positives as f64 / attacked as f64
    }

    /// Among true positives, the fraction labeled with the right vector.
    pub fn label_accuracy(&self) -> f64 {
        if self.true_positives == 0 {
            return 1.0;
        }
        self.vector_labels_correct as f64 / self.true_positives as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2obs::{EventKind, TraceEvent};

    fn trace(events: Vec<(u64, EventKind)>) -> SiteTrace {
        SiteTrace {
            site: 0,
            events: events
                .into_iter()
                .map(|(at_nanos, kind)| TraceEvent { at_nanos, kind })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn benign_page_load_passes() {
        // SETTINGS, three GETs, responses, a couple of WINDOW_UPDATEs.
        let mut events = vec![(0, EventKind::Send(0x4)), (1_000, EventKind::Recv(0x4))];
        for k in 0..3u64 {
            events.push((2_000 + k, EventKind::Send(0x1)));
            events.push((5_000 + k, EventKind::Recv(0x1)));
            events.push((6_000 + k, EventKind::Recv(0x0)));
            events.push((7_000 + k, EventKind::Send(0x8)));
        }
        assert_eq!(Detector::default().classify(&trace(events)), None);
    }

    #[test]
    fn each_vector_signature_is_recognized() {
        let d = Detector::default();
        let rst: Vec<_> = (0..10).map(|k| (k, EventKind::Send(0x3))).collect();
        assert_eq!(d.classify(&trace(rst)), Some(AttackVector::RapidReset));

        let cont = vec![
            (0, EventKind::Send(0x1)),
            (1, EventKind::Send(0x9)),
            (2, EventKind::Send(0x9)),
        ];
        assert_eq!(
            d.classify(&trace(cont)),
            Some(AttackVector::ContinuationFlood)
        );

        let settings: Vec<_> = (0..20).map(|k| (k, EventKind::Send(0x4))).collect();
        assert_eq!(
            d.classify(&trace(settings)),
            Some(AttackVector::SettingsFlood)
        );

        let prio: Vec<_> = (0..9).map(|k| (k, EventKind::Send(0x2))).collect();
        assert_eq!(d.classify(&trace(prio)), Some(AttackVector::PriorityChurn));

        let post = vec![
            (0, EventKind::Send(0x1)),
            (10_000_000_000, EventKind::Send(0x0)),
        ];
        assert_eq!(d.classify(&trace(post)), Some(AttackVector::SlowPost));

        let read = vec![
            (0, EventKind::Send(0x1)),
            (90_000_000_000, EventKind::Send(0x6)),
        ];
        assert_eq!(d.classify(&trace(read)), Some(AttackVector::SlowRead));

        let thrash: Vec<_> = (0..20).map(|k| (k, EventKind::Send(0x1))).collect();
        assert_eq!(d.classify(&trace(thrash)), Some(AttackVector::TableThrash));
    }

    #[test]
    fn ring_wrap_is_hyperactivity() {
        let mut t = trace((0..12).map(|k| (k, EventKind::Send(0x3))).collect());
        t.events.truncate(4); // only 4 RSTs survive the wrap...
        t.dropped = 500; // ...but the drop count betrays the volume
        assert_eq!(
            Detector::default().classify(&t),
            Some(AttackVector::RapidReset)
        );
    }

    #[test]
    fn confusion_matrix_scores() {
        let mut m = ConfusionMatrix::default();
        m.record(
            Some(AttackVector::RapidReset),
            Some(AttackVector::RapidReset),
        );
        m.record(Some(AttackVector::SlowPost), Some(AttackVector::SlowRead));
        m.record(Some(AttackVector::SlowRead), None);
        m.record(None, None);
        m.record(None, Some(AttackVector::TableThrash));
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.true_negatives, 1);
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.label_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_campaign_is_vacuously_perfect() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.label_accuracy(), 1.0);
    }
}
