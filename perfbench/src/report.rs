//! The result line every run ends with, and the comparison of two sets of
//! result lines against the catalogue's bounds.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::catalogue;
use crate::stats::{self, compare, Tally, Verdict};

/// Any JSON document, as the vendored `serde` value model.
#[derive(Debug, Clone)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Value> {
        serde::map_get(self.0.as_map()?, key).ok()
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; units come from the catalogue.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// A run's result. A metric that is not a finite number (JSON has no
    /// spelling for one) is reported as 0 and makes the run incorrect.
    pub fn new(correct: bool, tally: Tally, mut metrics: BTreeMap<&'static str, f64>) -> RunResult {
        let mut finite = true;
        for (name, value) in metrics.iter_mut() {
            if !value.is_finite() {
                println!("  CHECK FAILED: metric {name} is {value}");
                *value = 0.0;
                finite = false;
            }
        }
        RunResult {
            correct: correct && finite,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        }
    }

    /// The result as one JSON object:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn to_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalogue::find(name).map_or("", |m| m.unit);
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::Num(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Int(self.attempted.into())),
            ("failed".to_string(), Value::Int(self.failed.into())),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&Json(doc)).expect("a value tree always serialises")
    }
}

/// Metric values gathered from the result lines in `text` (lines that are
/// not result objects are skipped).
pub fn collect_metrics(text: &str) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(doc) = serde_json::from_str::<Json>(line) else {
            continue;
        };
        let Some(metrics) = doc.get("metrics").and_then(Value::as_map) else {
            continue;
        };
        for (name, entry) in metrics {
            let value = entry
                .as_map()
                .and_then(|m| serde::map_get(m, "value").ok())
                .and_then(Value::as_num);
            if let Some(value) = value {
                out.entry(name.clone()).or_default().push(value);
            }
        }
    }
    out
}

/// Compares every bounded metric present in both sets; returns the report
/// lines and whether any metric regressed.
pub fn compare_runs(baseline: &str, candidate: &str) -> (Vec<String>, bool) {
    let base = collect_metrics(baseline);
    let cand = collect_metrics(candidate);
    let mut lines = Vec::new();
    let mut regressed = false;
    for metric in catalogue::END_TO_END {
        let (Some(b), Some(c)) = (base.get(metric.name), cand.get(metric.name)) else {
            continue;
        };
        let bound = metric.bound.expect("end-to-end metrics are bounded");
        let verdict = compare(metric.better, bound, b, c);
        let text = match verdict {
            Verdict::Regressed { worse_by } => {
                regressed = true;
                format!(
                    "REGRESSION worse by {:.1}% (bound {:.0}%)",
                    worse_by * 100.0,
                    bound * 100.0
                )
            }
            Verdict::Within { worse_by } => {
                format!(
                    "ok ({:+.1}% worse, bound {:.0}%)",
                    worse_by * 100.0,
                    bound * 100.0
                )
            }
            Verdict::Unresolved => "unresolved".to_string(),
        };
        let spread =
            |v: &[f64]| stats::spread(v).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        lines.push(format!(
            "{:<18} ({} is better) baseline n={} spread {} / candidate n={} spread {}: {text}",
            metric.name,
            metric.better.name(),
            b.len(),
            spread(b),
            c.len(),
            spread(c)
        ));
    }
    (lines, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(throughput: f64, setup: f64) -> String {
        RunResult {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: BTreeMap::from([("throughput_per_s", throughput), ("setup_s", setup)]),
        }
        .to_line()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result(0.25, 1.5);
        let doc: Json = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .0
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = collect_metrics(&line);
        assert_eq!(metrics["throughput_per_s"], vec![0.25]);
        assert!(line.contains("\"unit\":\"1/s\""));
    }

    #[test]
    fn doctored_result_lines_are_flagged() {
        let baseline: String = (0..5)
            .map(|i| result(0.30 + 0.001 * f64::from(i), 2.0) + "\n")
            .collect();
        // Same set-up, throughput doctored down by a third.
        let doctored: String = (0..5)
            .map(|i| result(0.20 + 0.001 * f64::from(i), 2.0) + "\n")
            .collect();
        let (lines, regressed) = compare_runs(&baseline, &doctored);
        assert!(regressed, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("throughput_per_s") && l.contains("REGRESSION")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("setup_s") && l.contains("ok")));
        let (_, same) = compare_runs(&baseline, &baseline);
        assert!(!same);
    }
}
