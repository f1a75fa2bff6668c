//! `BENCHMARK.json` as the harness reads it: the one place metric names,
//! units, directions and bounds are written down.

use crate::json::{self, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no {key} list"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        Spec::parse(&text)
    }
}

/// Names the contract accepts: a letter or digit first, then at most 64
/// of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_names_units_and_bounds() {
        let spec = Spec::parse(
            r#"{"command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 12,
                "workloads": [{"name": "scan_plain", "why": "w"}, {"name": "serve_mixed", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
                               {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.08}],
                "per_layer": [{"name": "h2wire.frames_per_op", "unit": "count", "better": "lower"}]}"#,
        )
        .expect("valid");
        assert_eq!(spec.run_seconds, 12);
        assert_eq!(spec.workloads, ["scan_plain", "serve_mixed"]);
        assert_eq!(spec.end_to_end[1].bound, Some(0.08));
        assert!(spec.end_to_end[1].higher_is_better);
        assert!(!spec.end_to_end[0].higher_is_better);
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("h2scope.probe_us.flow_control"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
