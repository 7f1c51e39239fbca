//! What a workload hands back, and the two documents printed from it: a
//! human-readable detail document and the one-line result the benchmark
//! contract fixes (`correct`, `attempted`, `failed`, `metrics`).

use std::collections::BTreeMap;

use curtain_telemetry::json::JsonValue;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The six end-to-end metrics every workload reports (tracing off). What an
/// "operation" and the two latencies are on each workload is fixed in
/// `README.md` and in each workload module's docs.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub lat_p50_ms: f64,
    pub lat_tail_ms: f64,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("ops_per_s", "1/s", self.ops_per_s),
            metric("lat_p50_ms", "ms", self.lat_p50_ms),
            metric("lat_tail_ms", "ms", self.lat_tail_ms),
            metric("cpu_ms_per_op", "ms", self.cpu_ms_per_op),
            metric("peak_rss_mib", "MiB", self.peak_rss_mib),
        ]
    }
}

/// Operations attempted and failed, with the first few reasons kept for
/// the detail document.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// A correctness check over the whole run (not one operation): only a
    /// violation is counted, as one more operation that failed.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.attempted += 1;
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// Builder for the detail document's nested objects.
#[derive(Debug, Default, Clone)]
pub struct Doc(BTreeMap<String, JsonValue>);

impl Doc {
    pub fn new() -> Self {
        Doc::default()
    }

    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.0.insert(key.to_string(), JsonValue::Float(v));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.0.insert(key.to_string(), JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX)));
        self
    }

    pub fn text(mut self, key: &str, v: impl Into<String>) -> Self {
        self.0.insert(key.to_string(), JsonValue::Str(v.into()));
        self
    }

    pub fn put(mut self, key: &str, v: JsonValue) -> Self {
        self.0.insert(key.to_string(), v);
        self
    }

    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.0)
    }
}

pub fn numbers(items: &[f64]) -> JsonValue {
    JsonValue::Array(items.iter().map(|v| JsonValue::Float((v * 1e3).round() / 1e3)).collect())
}

pub fn strings(items: &[String]) -> JsonValue {
    JsonValue::Array(items.iter().cloned().map(JsonValue::Str).collect())
}

/// The contract's result line.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (m.name.to_string(), Doc::new().num("value", m.value).text("unit", m.unit).build())
        })
        .collect();
    Doc::new()
        .put("correct", JsonValue::Bool(tally.failed == 0))
        .int("attempted", tally.attempted.max(1))
        .int("failed", tally.failed)
        .put("metrics", JsonValue::Object(metrics))
        .build()
        .render()
}
