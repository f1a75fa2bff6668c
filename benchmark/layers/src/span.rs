//! Spans recorded from outside the program, around calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, op)`. Spans of one
//! operation share its `op` id; a span opened while another is open is
//! its child. Everything stays in memory until the pass is over and is
//! written to `trace-<workload>.json` at exit. The recorder is a
//! thread-local because spans are also opened from inside callbacks the
//! product invokes (the request-handler wrapper, the retry driver's
//! target factory), where no `&mut` recorder could be threaded through.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_OP: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// The operation this span belongs to, [`NO_OP`] outside any.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    recording: bool,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: NO_OP,
        recording: false,
    });
}

/// Starts a fresh recording; spans opened while not recording cost two
/// thread-local reads and record nothing.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.op = NO_OP;
        r.recording = true;
    });
}

/// Stops recording and hands back every span, in opening order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(
            r.open.is_empty(),
            "a span is still open at the end of the pass"
        );
        r.recording = false;
        std::mem::take(&mut r.spans)
    })
}

/// Closes its span when dropped.
pub struct Scope(Option<u32>);

/// Opens a span named `name` under whatever span is open now.
pub fn scope(name: &'static str) -> Scope {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.recording {
            return Scope(None);
        }
        let index = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans");
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op = r.op;
        r.open.push(index);
        // Read the clock last, so the bookkeeping above is charged to the
        // parent, not to this span.
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Scope(Some(index))
    })
}

/// Opens the root span of operation `op`; spans opened until it closes
/// carry that id.
pub fn op(name: &'static str, op: u32) -> Scope {
    RECORDER.with(|r| r.borrow_mut().op = op);
    scope(name)
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(index) = self.0 else {
            return;
        };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            let top = r.open.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
            r.spans[index as usize].end_ns = end_ns;
            if r.open.is_empty() {
                r.op = NO_OP;
            }
        });
    }
}

/// Times `work` inside a span.
pub fn in_scope<T>(name: &'static str, work: impl FnOnce() -> T) -> T {
    let _scope = scope(name);
    work()
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name totals over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    totals
}

/// Share of the op root spans' time that child spans cover, in percent:
/// how much of an operation the from-outside trace attributes to a layer.
pub fn coverage_pct(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(own) {
        if span.parent == NO_PARENT && span.op != NO_OP {
            total += span.duration_ns();
            uncovered += self_ns;
        }
    }
    if total == 0 {
        return 0.0;
    }
    (total - uncovered) as f64 / total as f64 * 100.0
}

/// The trace file: per-name totals, then every span as
/// `[name index, start_ns, end_ns, parent, op]` (-1 for none).
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let totals = totals_by_name(spans);
    let names: Vec<&str> = totals.keys().copied().collect();
    let mut out = format!("{{\"workload\": \"{workload}\",\n \"names\": [");
    for (i, name) in names.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\"", if i == 0 { "" } else { ", " });
    }
    out.push_str("],\n \"totals\": {");
    for (i, (name, t)) in totals.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if i == 0 { "" } else { "," },
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    out.push_str("},\n \"spans\": [");
    let signed = |v: u32| if v == u32::MAX { -1 } else { i64::from(v) };
    for (i, span) in spans.iter().enumerate() {
        let name = names
            .binary_search(&span.name)
            .expect("every span's name has a total");
        let _ = write!(
            out,
            "{}[{name},{},{},{},{}]",
            if i == 0 {
                "\n  "
            } else if i % 8 == 0 {
                ",\n  "
            } else {
                ","
            },
            span.start_ns,
            span.end_ns,
            signed(span.parent),
            signed(span.op)
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // op [0,100] ├ a [10,40] ─ a1 [15,25]
        //            ├ b [40,70]            (adjacent to a)
        //            └ c [80,90]
        let spans = [
            span("op", 0, 100, NO_PARENT, 0),
            span("a", 10, 40, 0, 0),
            span("a1", 15, 25, 1, 0),
            span("b", 40, 70, 0, 0),
            span("c", 80, 90, 0, 0),
        ];
        assert_eq!(self_times(&spans), [30, 20, 10, 30, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["a"],
            NameTotal {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(totals["op"].self_ns, 30);
        // Self times partition the root exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(coverage_pct(&spans), 70.0);
    }

    #[test]
    fn coverage_ignores_roots_outside_any_op() {
        let spans = [
            span("load", 0, 1000, NO_PARENT, NO_OP),
            span("op", 1000, 1100, NO_PARENT, 7),
            span("fetch", 1010, 1090, 1, 7),
        ];
        assert_eq!(coverage_pct(&spans), 80.0);
        assert_eq!(coverage_pct(&[]), 0.0);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        start();
        {
            let _root = op("op", 3);
            in_scope("outer", || in_scope("inner", || ()));
            in_scope("sibling", || ());
        }
        in_scope("between_ops", || ());
        let spans = finish();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            [
                ("op", NO_PARENT, 3),
                ("outer", 0, 3),
                ("inner", 1, 3),
                ("sibling", 0, 3),
                ("between_ops", NO_PARENT, NO_OP),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        in_scope("ignored", || ());
        start();
        assert!(finish().is_empty());
    }

    #[test]
    fn trace_file_lists_spans_by_name_index() {
        let spans = [span("op", 0, 10, NO_PARENT, 0), span("a", 2, 5, 0, 0)];
        let json = to_json("scan_plain", &spans);
        assert!(json.contains("\"names\": [\"a\", \"op\"]"), "{json}");
        assert!(json.contains("[1,0,10,-1,0],[0,2,5,0,0]"), "{json}");
        assert!(
            json.contains("\"a\": {\"count\": 1, \"total_ns\": 3, \"self_ns\": 3}"),
            "{json}"
        );
    }
}
