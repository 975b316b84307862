//! Metric names and units, and the run report printed as the last
//! line of standard output.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// End-to-end metrics: what a requester or a worker of a campaign
/// sees. Every workload reports all of them in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("submit_p50_us", "us"),
    ("submit_p90_us", "us"),
    ("accuracy", "frac"),
    ("answers_per_task", "count"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named `<module>.<metric>`. Every workload
/// reports all of them in a traced run; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.request_p50_us", "us"),
    ("server.request_p99_us", "us"),
    ("server.submit_p50_us", "us"),
    ("server.submit_p99_us", "us"),
    ("server.requests_per_answer", "count"),
    ("server.conns_per_request", "count"),
    ("server.handle_p50_us", "us"),
    ("server.handle_p99_us", "us"),
    ("server.busy", "count"),
    ("server.retries", "count"),
    ("platform.journal_append_p50_us", "us"),
    ("platform.journal_append_p99_us", "us"),
    ("platform.fsyncs_per_answer", "count"),
    ("platform.journal_bytes_per_answer", "bytes"),
    ("platform.drive_self_s", "s"),
    ("platform.recover_s", "s"),
    ("icrowd.request_task_p50_us", "us"),
    ("icrowd.request_task_p99_us", "us"),
    ("icrowd.submit_answer_p50_us", "us"),
    ("icrowd.submit_answer_p99_us", "us"),
    ("icrowd.assigned_frac", "frac"),
    ("icrowd.build_s", "s"),
    ("estimate.refresh_p50_us", "us"),
    ("estimate.cache_hit_frac", "frac"),
    ("graph.sweep_s", "s"),
    ("graph.index_s", "s"),
    ("graph.index_builds", "count"),
    ("graph.ppr_solve_p50_us", "us"),
    ("graph.ppr_iters_per_solve", "count"),
    ("graph.par_balance", "ratio"),
    ("text.similarity_s", "s"),
    ("assign.qual_select_s", "s"),
    ("setup.parts_frac", "frac"),
    ("obs.overhead_frac", "frac"),
];

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate that failed, with what it saw.
    pub failed_gates: Vec<String>,
    /// Operations attempted (requests and submissions).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed before the result line (sample counts, nproc,
    /// revision, campaigns run).
    pub info: Vec<(String, Value)>,
}

impl Report {
    /// Records a failed correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_gates.push(what());
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a context entry.
    pub fn note(&mut self, key: &str, value: Value) {
        self.info.push((key.to_owned(), value));
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.failed_gates.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `set` with its unit. A failed gate counts every
    /// operation of the run as failed, and so sets `ok_frac` to 0.
    ///
    /// # Errors
    /// Names a metric of `set` that the run did not produce or that is
    /// not a finite number.
    pub fn result_line(&self, set: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in set {
            let mut value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if name == "ok_frac" && !self.correct() {
                value = 0.0;
            }
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not a number: {value}"));
            }
            metrics.push((name.to_owned(), json!({"value": value, "unit": unit})));
        }
        let failed = if self.correct() {
            self.failed
        } else {
            self.attempted
        };
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": failed,
            "metrics": Value::Object(metrics)
        });
        Ok(serde_json::to_string(&line).expect("json"))
    }

    /// The context line printed before the result.
    pub fn info_line(&self) -> String {
        let mut fields = self.info.clone();
        fields.push((
            "failed_gates".to_owned(),
            Value::Array(
                self.failed_gates
                    .iter()
                    .map(|g| Value::String(g.clone()))
                    .collect(),
            ),
        ));
        serde_json::to_string(&Value::Object(fields)).expect("json")
    }
}
