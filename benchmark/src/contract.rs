//! `BENCHMARK.json` is the single catalogue of workload and metric
//! names, units, directions and bounds. It is embedded at build time so
//! the binaries, `compare` and the smoke test all read the same file and
//! a name printed by a workload but missing from the catalogue (or the
//! other way round) is a hard error rather than a silent drift.

use crate::json::Json;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    /// The embedded catalogue. Panics on a malformed file: that is a
    /// defect in this package, caught by the smoke test.
    pub fn load() -> Contract {
        Contract::parse(BENCHMARK_JSON).expect("BENCHMARK.json is malformed")
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array `{key}`"))
        };
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("bad direction `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric list a run in this mode must print.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
