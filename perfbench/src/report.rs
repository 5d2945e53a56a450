//! What one benchmark run reports: metrics with units, log lines, and the
//! correctness tally.

use cs_telemetry::Json;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks that failed.
    pub failed: u64,
    /// Workload parameters for the reproducibility stamp.
    pub params: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.log.push(format!("# CHECK FAILED: {}", what()));
        }
    }

    pub fn param(&mut self, key: &'static str, value: impl Into<Json>) {
        self.params.push((key, value.into()));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// as `{"value", "unit"}`.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::object(), |obj, m| {
            obj.field(
                m.name,
                Json::object().field("value", m.value).field("unit", m.unit),
            )
        });
        Json::object()
            .field("correct", self.failed == 0)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }
}

/// Bytes to MiB.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}
