//! `run.sh --compare A B`: one row per (metric, workload) of two result
//! files, judged against the bounds in `BENCHMARK.json`.
//!
//! `A` is the base (the parent commit, or the first of two sets of the
//! same commit), `B` the candidate. A row is `regressed` when B's value
//! is worse than A's by more than the bound, `unresolved` when either
//! side's own spread is wider than the bound (unless every B sample beats
//! every A sample), `ok` otherwise. Per-layer rows carry no bound: counts
//! that must repeat exactly are labelled `exact`/`DIFFERS`, times are
//! shown as a trend.

use crate::result::{EndToEnd, RunResult, WorkloadResult};
use crate::spec::{MetricSpec, Spec};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of A's value by which B is worse (negative: B is better).
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if spec.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(spec: &MetricSpec, a: &EndToEnd, b: &EndToEnd) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if a.spread().max(b.spread()) > bound {
        let b_always_better = b
            .values
            .iter()
            .all(|&vb| a.values.iter().all(|&va| worse_by(spec, va, vb) < 0.0));
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worse_by(spec, a.reported, b.reported) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Per-layer metrics that are counts made by the program and must repeat
/// exactly on the same commit, seed and size.
pub fn must_repeat_exactly(name: &str) -> bool {
    name.ends_with("_per_op")
        || name.ends_with("_per_site")
        || name.contains("allocs")
        || name.ends_with("bytes_per_row")
        || matches!(
            name,
            "h2scope.ok_sites_pct" | "h2serve.cache_hit_pct" | "h2server.push_delivered_pct"
        )
}

fn quartile_text(m: &EndToEnd) -> String {
    let (q1, q3) = stats::quartiles(&m.values);
    format!("{:.4} [{:.4}, {:.4}]", m.reported, q1, q3)
}

fn find<'a>(run: &'a RunResult, name: &str) -> Option<&'a WorkloadResult> {
    run.workloads.iter().find(|w| w.name == name)
}

/// Prints the comparison; returns `true` when no row is `regressed`,
/// `unresolved` or `DIFFERS`.
pub fn compare(spec: &Spec, a: &RunResult, b: &RunResult) -> bool {
    let mut clean = true;
    if a.quick != b.quick {
        println!("warning: comparing a --quick result with a full one");
    }
    println!(
        "A: commit {} seed {} ({} cpus, load {:.2})   B: commit {} seed {} ({} cpus, load {:.2})",
        a.host.commit,
        a.seed,
        a.host.nproc,
        a.host.loadavg_1m,
        b.host.commit,
        b.seed,
        b.host.nproc,
        b.host.loadavg_1m,
    );
    println!(
        "\n{:<20} {:<16} {:>34} {:>34} {:>9} {:>7}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "B worse", "bound"
    );
    for name in &spec.workloads {
        let (Some(wa), Some(wb)) = (find(a, name), find(b, name)) else {
            continue;
        };
        if wa.digest != wb.digest {
            println!(
                "{name}: output digest moved {:016x} -> {:016x}",
                wa.digest, wb.digest
            );
        }
        for metric in &spec.end_to_end {
            let pick = |w: &'_ WorkloadResult| {
                w.end_to_end.iter().find(|m| m.name == metric.name).cloned()
            };
            let (Some(ma), Some(mb)) = (pick(wa), pick(wb)) else {
                continue;
            };
            let verdict = judge(metric, &ma, &mb);
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<20} {:<16} {:>34} {:>34} {:>+8.2}% {:>6.1}%  {}",
                name,
                format!("{} ({})", metric.name, metric.unit),
                quartile_text(&ma),
                quartile_text(&mb),
                worse_by(metric, ma.reported, mb.reported) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label(),
            );
        }
    }
    let mut header_printed = false;
    for name in &spec.workloads {
        let (Some(wa), Some(wb)) = (find(a, name), find(b, name)) else {
            continue;
        };
        for la in &wa.per_layer {
            let Some(lb) = wb.per_layer.iter().find(|l| l.name == la.name) else {
                continue;
            };
            if !header_printed {
                println!(
                    "\n{:<20} {:<40} {:>14} {:>14} {:>9}  note",
                    "workload", "per-layer metric", "A", "B", "B - A"
                );
                header_printed = true;
            }
            let note = if !must_repeat_exactly(&la.name) {
                "trend"
            } else if la.value == lb.value {
                "exact"
            } else {
                clean = false;
                "DIFFERS"
            };
            let delta = if la.value == 0.0 {
                0.0
            } else {
                (lb.value - la.value) / la.value * 100.0
            };
            println!(
                "{:<20} {:<40} {:>14.4} {:>14.4} {:>+8.2}%  {}",
                name,
                format!("{} ({})", la.name, la.unit),
                la.value,
                lb.value,
                delta,
                note
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn sample(values: &[f64]) -> EndToEnd {
        EndToEnd::median_of("m", "u", values.to_vec())
    }

    #[test]
    fn within_the_bound_is_ok() {
        let a = sample(&[100.0, 100.5, 99.5, 100.2, 99.8]);
        let b = sample(&[103.0, 103.5, 102.5, 103.2, 102.8]);
        assert_eq!(judge(&spec(false, 0.05), &a, &b), Verdict::Ok);
        assert_eq!(judge(&spec(true, 0.05), &a, &b), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_a_regression_in_the_worse_direction_only() {
        let a = sample(&[100.0, 100.5, 99.5, 100.2, 99.8]);
        let b = sample(&[110.0, 110.5, 109.5, 110.2, 109.8]);
        assert_eq!(judge(&spec(false, 0.05), &a, &b), Verdict::Regressed);
        assert_eq!(judge(&spec(true, 0.05), &a, &b), Verdict::Ok);
        assert_eq!(judge(&spec(true, 0.05), &b, &a), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = sample(&[100.0, 120.0, 80.0, 110.0, 90.0]);
        let b = sample(&[101.0, 121.0, 81.0, 111.0, 91.0]);
        assert_eq!(judge(&spec(false, 0.05), &a, &b), Verdict::Unresolved);
        // ... unless every B sample beats every A sample.
        let faster = sample(&[50.0, 60.0, 40.0, 55.0, 45.0]);
        assert_eq!(judge(&spec(false, 0.05), &a, &faster), Verdict::Ok);
    }

    #[test]
    fn exact_class_covers_counts_and_allocations() {
        assert!(must_repeat_exactly("netsim.virtual_ms_per_op"));
        assert!(must_repeat_exactly("h2scope.survey_allocs"));
        assert!(must_repeat_exactly("h2fault.retries_per_site"));
        assert!(must_repeat_exactly("h2campaign.bytes_per_row"));
        assert!(!must_repeat_exactly("h2wire.encode_ns.data"));
        assert!(!must_repeat_exactly("trace.coverage_pct"));
    }
}
