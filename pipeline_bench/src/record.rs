//! The benchmark record: every metric a run measured, with its unit, the
//! column it belongs to (host wall clock, modeled hardware, or a count),
//! its sample count and, for ratios, its base. Serialized with the
//! workspace's hand-written JSON writer (`cama_core::json`).

use cama_core::json::JsonValue;
use std::collections::BTreeMap;

/// Which column a metric sits in. Host time and modeled hardware
/// quantities are never mixed in one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// Measured with a wall clock on the machine running the benchmark.
    Host,
    /// Computed by the `cama_arch` hardware model; repeats exactly for
    /// a given seed.
    Model,
    /// A count the program returned; repeats exactly for a given seed.
    Count,
}

impl Column {
    fn name(self) -> &'static str {
        match self {
            Column::Host => "host",
            Column::Model => "model",
            Column::Count => "count",
        }
    }
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Host, model or count.
    pub column: Column,
    /// Samples a percentile or median was taken over.
    pub samples: Option<usize>,
    /// What a ratio is relative to, or how the value was taken.
    pub base: Option<String>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Record {
    /// Run environment: seed, workload, kernel, and so on.
    pub env: BTreeMap<String, JsonValue>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: BTreeMap<String, Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: BTreeMap<String, Metric>,
    /// Metrics of the full table this run cannot produce, with the reason.
    pub absent: BTreeMap<String, String>,
    /// Operations attempted (feeds, closes, updates, evaluations,
    /// reference checks).
    pub attempted: u64,
    /// Causes of every failed operation, one entry per failure (the
    /// printed list is capped; `failed` keeps the full count).
    pub failures: Vec<String>,
    /// Failed operations.
    pub failed: u64,
}

const MAX_LISTED_FAILURES: usize = 32;

impl Record {
    /// Records one end-to-end metric.
    pub fn e2e(&mut self, name: &str, metric: Metric) {
        self.end_to_end.insert(name.to_string(), metric);
    }

    /// Records one per-layer metric.
    pub fn layer(&mut self, name: &str, metric: Metric) {
        self.per_layer.insert(name.to_string(), metric);
    }

    /// Notes a metric of the benchmark's full table that this run does not
    /// produce, and why.
    pub fn absent(&mut self, name: &str, reason: &str) {
        self.absent.insert(name.to_string(), reason.to_string());
    }

    /// Counts one attempted operation; `Err(cause)` also counts a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(cause) = outcome {
            self.fail(cause);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, cause: String) {
        self.failed += 1;
        if self.failures.len() < MAX_LISTED_FAILURES {
            self.failures.push(cause);
        }
    }

    /// The full record as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut root = BTreeMap::new();
        root.insert("env".to_string(), JsonValue::Object(self.env.clone()));
        root.insert("end_to_end".to_string(), metrics_json(&self.end_to_end));
        root.insert("per_layer".to_string(), metrics_json(&self.per_layer));
        root.insert(
            "absent".to_string(),
            JsonValue::Object(
                self.absent
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                    .collect(),
            ),
        );
        root.insert("attempted".to_string(), number(self.attempted as f64));
        root.insert("failed".to_string(), number(self.failed as f64));
        root.insert(
            "error_rate".to_string(),
            number(self.failed as f64 / self.attempted.max(1) as f64),
        );
        root.insert(
            "failures".to_string(),
            JsonValue::Array(
                self.failures
                    .iter()
                    .map(|f| JsonValue::from(f.as_str()))
                    .collect(),
            ),
        );
        JsonValue::Object(root)
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// named metrics as `{"value", "unit"}` pairs. Errors name the first
    /// requested metric the run did not produce.
    pub fn result_line(&self, trace: bool, names: &[&str]) -> Result<String, String> {
        let source = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut metrics = BTreeMap::new();
        for &name in names {
            let metric = source
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !metric.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", metric.value));
            }
            let mut pair = BTreeMap::new();
            pair.insert("value".to_string(), number(metric.value));
            pair.insert("unit".to_string(), JsonValue::from(metric.unit));
            metrics.insert(name.to_string(), JsonValue::Object(pair));
        }
        let mut root = BTreeMap::new();
        root.insert("correct".to_string(), JsonValue::Bool(self.failed == 0));
        root.insert("attempted".to_string(), number(self.attempted as f64));
        root.insert("failed".to_string(), number(self.failed as f64));
        root.insert("metrics".to_string(), JsonValue::Object(metrics));
        Ok(JsonValue::Object(root).to_json())
    }
}

fn number(value: f64) -> JsonValue {
    // The writer has no spelling for NaN or infinities; null keeps the
    // document valid and the gap visible.
    if value.is_finite() {
        JsonValue::Number(value)
    } else {
        JsonValue::Null
    }
}

fn metrics_json(metrics: &BTreeMap<String, Metric>) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|(name, m)| {
                let mut obj = BTreeMap::new();
                obj.insert("value".to_string(), number(m.value));
                obj.insert("unit".to_string(), JsonValue::from(m.unit));
                obj.insert("column".to_string(), JsonValue::from(m.column.name()));
                if let Some(samples) = m.samples {
                    obj.insert("samples".to_string(), number(samples as f64));
                }
                if let Some(base) = &m.base {
                    obj.insert("base".to_string(), JsonValue::from(base.as_str()));
                }
                (name.clone(), JsonValue::Object(obj))
            })
            .collect(),
    )
}

/// A host-time metric.
pub fn host(value: f64, unit: &'static str) -> Metric {
    Metric {
        value,
        unit,
        column: Column::Host,
        samples: None,
        base: None,
    }
}

/// A modeled-hardware metric.
pub fn model(value: f64, unit: &'static str) -> Metric {
    Metric {
        column: Column::Model,
        ..host(value, unit)
    }
}

/// A count returned by the program.
pub fn count(value: f64, unit: &'static str) -> Metric {
    Metric {
        column: Column::Count,
        ..host(value, unit)
    }
}

impl Metric {
    /// Attaches the sample count a statistic was taken over.
    pub fn over(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }

    /// Attaches the base a ratio is relative to.
    pub fn per(mut self, base: &str) -> Metric {
        self.base = Some(base.to_string());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::json;

    fn sample_record() -> Record {
        let mut record = Record::default();
        record
            .env
            .insert("seed".to_string(), JsonValue::Number(17.0));
        record.env.insert(
            "kernel".to_string(),
            JsonValue::from("kernel: active=avx2 \"quoted\"\n"),
        );
        record.e2e("scan_mb_s", host(0.081_234_567_891_234_5, "MB/s").over(256));
        record.e2e("setup_s", host(1.5e-7, "s").over(3));
        record.layer(
            "compile.dfa_ratio",
            count(180.0 / 517.0, "ratio").per("compile.components"),
        );
        record.layer("exec.cycles", count(123_456_789.0, "count"));
        record.absent("swap.ms_p50", "no swaps in this workload");
        record.check(Ok(()));
        record.check(Err("flow 3: 2 reports differ".to_string()));
        record
    }

    #[test]
    fn record_round_trips_through_the_writer() {
        let record = sample_record();
        let text = record.to_json().to_json();
        let parsed = json::parse(&text).expect("writer emits valid JSON");
        assert_eq!(parsed, record.to_json());
        let scan = parsed.get("end_to_end").unwrap().get("scan_mb_s").unwrap();
        // Every digit survives the trip.
        assert_eq!(
            scan.get("value").unwrap().as_f64(),
            Some(0.081_234_567_891_234_5)
        );
        assert_eq!(scan.get("samples").unwrap().as_f64(), Some(256.0));
        assert_eq!(
            parsed.get("env").unwrap().get("kernel").unwrap().as_str(),
            Some("kernel: active=avx2 \"quoted\"\n")
        );
        assert_eq!(parsed.get("error_rate").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            parsed
                .get("per_layer")
                .unwrap()
                .get("compile.dfa_ratio")
                .unwrap()
                .get("base")
                .unwrap()
                .as_str(),
            Some("compile.components")
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = sample_record();
        let line = record
            .result_line(false, &["scan_mb_s", "setup_s"])
            .unwrap();
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(2.0));
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics["setup_s"].get("value").unwrap().as_f64(),
            Some(1.5e-7)
        );
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert!(line.lines().count() == 1);
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut record = sample_record();
        assert!(record.result_line(true, &["swap.ms_p50"]).is_err());
        record.layer("bad", host(f64::NAN, "ms"));
        assert!(record.result_line(true, &["bad"]).is_err());
        // The full record stays valid JSON with a null in its place.
        let text = record.to_json().to_json();
        assert!(json::parse(&text).is_ok());
    }
}
