//! The run's result: named metrics with units, and the final JSON line.

use blameit_bench::json::Json;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`BENCHMARK.json` spelling).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Checks that failed, with what they saw.
    pub failures: Vec<String>,
    /// Operations attempted (ticks, or batch offers including retries).
    pub attempted: u64,
    /// End-to-end metrics (the untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the traced run).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// The metrics a run prints: per-layer when traced, else end to end.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// `failed` is always 0: an operation that returns an error ends
    /// the run without a result line.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = self.metrics(traced).iter().fold(Json::obj(), |o, m| {
            o.field(
                m.name,
                Json::obj().field("value", m.value).field("unit", m.unit),
            )
        });
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", 0u64)
            .field("metrics", metrics)
            .to_string()
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
