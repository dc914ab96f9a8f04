//! Reader for the root `BENCHMARK.json`: the bounds and directions `compare`
//! applies, and the names `--check` expects to see printed.

use rkvc_tensor::json::JsonValue;

use crate::metrics::Better;

/// Path of the spec, relative to the repo root the benchmark runs from.
pub const SPEC_PATH: &str = "BENCHMARK.json";

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: i64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

fn metrics(doc: &JsonValue, key: &str) -> Result<Vec<SpecMetric>, String> {
    let str_field = |m: &JsonValue, f: &str| {
        m.get(f)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{key}: metric without a string '{f}'"))
    };
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|m| {
            let better = str_field(m, "better")?;
            Ok(SpecMetric {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                better: Better::parse(&better).ok_or_else(|| {
                    format!("{key}: better must be lower or higher, not {better}")
                })?,
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the spec's text.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("missing array 'workloads'")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or("workload without a name")
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_i64)
                .ok_or("missing integer 'run_seconds'")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Loads [`SPEC_PATH`].
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse error as text.
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and the code must declare the same benchmark.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let spec = Spec::parse(&text).expect("well-formed BENCHMARK.json");
        assert_eq!(spec.run_seconds as f64, crate::DEFAULT_SECONDS);
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        for (declared, coded) in [
            (&spec.end_to_end, metrics::end_to_end()),
            (&spec.per_layer, metrics::per_layer()),
        ] {
            let coded: Vec<SpecMetric> = coded
                .into_iter()
                .map(|d| SpecMetric {
                    name: d.name,
                    unit: d.unit.to_owned(),
                    better: d.better,
                    bound: d.bound,
                })
                .collect();
            assert_eq!(declared, &coded);
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_field_named() {
        assert!(Spec::parse("{}").expect_err("empty").contains("workloads"));
        let no_unit = r#"{"workloads": [], "run_seconds": 1,
            "end_to_end": [{"name": "x", "better": "lower"}], "per_layer": []}"#;
        assert!(Spec::parse(no_unit).expect_err("no unit").contains("unit"));
        let sideways = r#"{"workloads": [], "run_seconds": 1, "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#;
        assert!(Spec::parse(sideways)
            .expect_err("bad direction")
            .contains("sideways"));
    }
}
