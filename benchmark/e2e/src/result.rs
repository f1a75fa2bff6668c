//! What a run produces, how it is written to `benchmark/out/*.json`, and
//! how `--compare` reads it back.

use crate::json::{self, Json};
use crate::stats;

/// One end-to-end metric of one workload: its samples (for time metrics
/// the best of each group of consecutive passes or set-ups) and the value
/// reported for the run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
    /// The median of `values`, except `peak_rss_mb` which reports the max.
    pub reported: f64,
    /// For time metrics, every repetition before the best of each group
    /// became a sample; empty otherwise.
    pub all: Vec<f64>,
}

impl EndToEnd {
    pub fn median_of(name: &str, unit: &str, values: Vec<f64>) -> EndToEnd {
        let reported = stats::median(&values);
        EndToEnd {
            name: name.to_string(),
            unit: unit.to_string(),
            values,
            reported,
            all: Vec::new(),
        }
    }

    pub fn with_all(mut self, all: Vec<f64>) -> EndToEnd {
        self.all = all;
        self
    }

    pub fn max_of(name: &str, unit: &str, values: Vec<f64>) -> EndToEnd {
        let reported = values.iter().copied().fold(f64::MIN, f64::max);
        EndToEnd {
            name: name.to_string(),
            unit: unit.to_string(),
            values,
            reported,
            all: Vec::new(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = stats::quartiles(&self.values);
        (q3 - q1) / stats::median(&self.values)
    }
}

/// One per-layer metric of one workload's traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Operations per pass, as the product reported them.
    pub ops: u64,
    pub timed_passes: usize,
    /// Digest of the workload's outputs; stored, never pinned.
    pub digest: u64,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<Layer>,
}

/// Facts about the host and commit, stored with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub loadavg_1m: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub host: Host,
    pub seed: u64,
    pub quick: bool,
    pub workloads: Vec<WorkloadResult>,
}

const SCHEMA: &str = "h2bench-result-v1";

impl RunResult {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema\": {},\n  \"host\": {{\"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"loadavg_1m\": {}}},\n  \"seed\": {},\n  \"quick\": {},\n  \"workloads\": [",
            json::quote(SCHEMA),
            json::quote(&self.host.commit),
            json::quote(&self.host.rustc),
            self.host.nproc,
            json::num(self.host.loadavg_1m),
            self.seed,
            self.quick,
        ));
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"name\": {}, \"ops\": {}, \"timed_passes\": {}, \"digest\": {},\n     \"end_to_end\": [",
                json::quote(&w.name),
                w.ops,
                w.timed_passes,
                json::quote(&format!("{:016x}", w.digest)),
            ));
            for (j, m) in w.end_to_end.iter().enumerate() {
                let list = |v: &[f64]| {
                    v.iter()
                        .map(|v| json::num(*v))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                out.push_str(&format!(
                    "{}\n       {{\"name\": {}, \"unit\": {}, \"value\": {}, \"values\": [{}], \"all\": [{}]}}",
                    if j == 0 { "" } else { "," },
                    json::quote(&m.name),
                    json::quote(&m.unit),
                    json::num(m.reported),
                    list(&m.values),
                    list(&m.all),
                ));
            }
            out.push_str("],\n     \"per_layer\": [");
            for (j, m) in w.per_layer.iter().enumerate() {
                out.push_str(&format!(
                    "{}\n       {{\"name\": {}, \"unit\": {}, \"value\": {}}}",
                    if j == 0 { "" } else { "," },
                    json::quote(&m.name),
                    json::quote(&m.unit),
                    json::num(m.value),
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
        let str_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string {key:?}"))
        };
        let num_of = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number {key:?}"))
        };
        let arr_of = |v: &Json, key: &str| -> Result<Vec<Json>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or(format!("missing array {key:?}"))
        };
        let host = doc.get("host").ok_or("missing host")?;
        let mut workloads = Vec::new();
        for w in arr_of(&doc, "workloads")? {
            let mut end_to_end = Vec::new();
            for m in arr_of(&w, "end_to_end")? {
                end_to_end.push(EndToEnd {
                    name: str_of(&m, "name")?,
                    unit: str_of(&m, "unit")?,
                    values: arr_of(&m, "values")?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                    reported: num_of(&m, "value")?,
                    all: arr_of(&m, "all")?.iter().filter_map(Json::as_f64).collect(),
                });
            }
            let mut per_layer = Vec::new();
            for m in arr_of(&w, "per_layer")? {
                per_layer.push(Layer {
                    name: str_of(&m, "name")?,
                    unit: str_of(&m, "unit")?,
                    value: num_of(&m, "value")?,
                });
            }
            workloads.push(WorkloadResult {
                name: str_of(&w, "name")?,
                ops: num_of(&w, "ops")? as u64,
                timed_passes: num_of(&w, "timed_passes")? as usize,
                digest: u64::from_str_radix(&str_of(&w, "digest")?, 16)
                    .map_err(|e| format!("bad digest: {e}"))?,
                end_to_end,
                per_layer,
            });
        }
        Ok(RunResult {
            host: Host {
                commit: str_of(host, "commit")?,
                rustc: str_of(host, "rustc")?,
                nproc: num_of(host, "nproc")? as usize,
                loadavg_1m: num_of(host, "loadavg_1m")?,
            },
            seed: num_of(&doc, "seed")? as u64,
            quick: doc.get("quick") == Some(&Json::Bool(true)),
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_round_trip() {
        let run = RunResult {
            host: Host {
                commit: "93e129a".to_string(),
                rustc: "rustc 1.95.0 (59807616e 2026-04-14)".to_string(),
                nproc: 2,
                loadavg_1m: 0.05,
            },
            seed: 7,
            quick: true,
            workloads: vec![WorkloadResult {
                name: "scan_plain".to_string(),
                ops: 3433,
                timed_passes: 3,
                digest: 0x0123_4567_89ab_cdef,
                end_to_end: vec![
                    EndToEnd::median_of("ops_per_s", "1/s", vec![1500.5, 1498.25, 1510.0])
                        .with_all(vec![1400.0, 1390.5, 1420.25, 1500.5]),
                    EndToEnd::max_of("peak_rss_mb", "MB", vec![11.5, 12.25, 11.75]),
                ],
                per_layer: vec![Layer {
                    name: "h2wire.encode_ns.data".to_string(),
                    unit: "ns".to_string(),
                    value: 41.5,
                }],
            }],
        };
        assert_eq!(RunResult::from_json(&run.to_json()), Ok(run.clone()));
        assert_eq!(run.workloads[0].end_to_end[0].reported, 1500.5);
        assert_eq!(run.workloads[0].end_to_end[1].reported, 12.25);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let m = EndToEnd::median_of("x", "s", ten);
        assert_eq!(m.spread(), (8.25 - 2.75) / 5.5);
    }
}
