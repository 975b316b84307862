//! Reads the spans and counters the program already records through
//! `icrowd-obs`, merges them across campaigns and carries them between
//! processes.

use std::collections::BTreeMap;

use icrowd_obs::LogHistogram;
use serde_json::{json, Value};

use crate::stats::{hist_us, ratio};

/// The program's telemetry over some interval: span histograms,
/// counters and the last value of each gauge.
#[derive(Debug, Default, Clone)]
pub struct ObsRead {
    spans: BTreeMap<String, LogHistogram>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl ObsRead {
    /// Everything recorded since the registry was last reset.
    pub fn capture() -> Self {
        let snap = icrowd_obs::snapshot();
        ObsRead {
            spans: snap
                .spans
                .iter()
                .filter_map(|s| Some((s.name.clone(), icrowd_obs::span_histogram(&s.name)?)))
                .collect(),
            counters: snap.counters.into_iter().collect(),
            gauges: snap.gauges.into_iter().map(|g| (g.name, g.last)).collect(),
        }
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Folds `other` in: histograms merge, counters add, gauges keep
    /// the latest value.
    pub fn merge(&mut self, other: &ObsRead) {
        for (name, h) in &other.spans {
            self.spans.entry(name.clone()).or_default().merge(h);
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
    }

    /// Counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram of span `name`, nanoseconds.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.spans.get(name)
    }

    /// Executions of span `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, LogHistogram::count)
    }

    /// Summed duration of span `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |h| h.sum() as f64 / 1e9)
    }

    /// The `p`-quantile of span `name`, microseconds.
    pub fn quantile_us(&self, name: &str, p: f64) -> f64 {
        self.spans.get(name).map_or(0.0, |h| hist_us(h, p))
    }

    /// The most loaded `par_map` thread's item count over the mean
    /// (1.0 is perfect balance; 0.0 when nothing ran in parallel).
    pub fn par_balance(&self) -> f64 {
        let items: Vec<u64> = self
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("par_map.thread") && n.ends_with(".items"))
            .map(|(_, &v)| v)
            .collect();
        let threads = self.gauges.get("par_map.threads").copied().unwrap_or(0.0);
        let total: u64 = items.iter().sum();
        let max = items.iter().copied().max().unwrap_or(0);
        ratio(max as f64, total as f64 / threads.max(1.0))
    }

    /// The wire form (histograms as their occupied buckets).
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<(u64, u64)> =
                    h.buckets().map(|(i, n)| (u64::from(i), n)).collect();
                json!({
                    "name": name,
                    "min": h.min(),
                    "max": h.max(),
                    "sum": h.sum(),
                    "buckets": buckets
                })
            })
            .collect();
        json!({
            "spans": spans,
            "counters": self.counters,
            "gauges": self.gauges
        })
    }

    /// Parses [`Self::to_json`] output.
    pub fn from_json(v: &Value) -> Self {
        let mut out = ObsRead::default();
        for s in v
            .get("spans")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let num = |k: &str| s.get(k).and_then(Value::as_u64).unwrap_or(0);
            let buckets = s
                .get("buckets")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
                .filter_map(|b| {
                    let b = b.as_array()?;
                    Some((
                        u16::try_from(b.first()?.as_u64()?).ok()?,
                        b.get(1)?.as_u64()?,
                    ))
                });
            let h = LogHistogram::from_parts(num("min"), num("max"), num("sum"), buckets);
            let name = s.get("name").and_then(Value::as_str).unwrap_or("?");
            out.spans.insert(name.to_owned(), h);
        }
        for (k, c) in v.get("counters").and_then(Value::as_object).unwrap_or(&[]) {
            out.counters.insert(k.clone(), c.as_u64().unwrap_or(0));
        }
        for (k, g) in v.get("gauges").and_then(Value::as_object).unwrap_or(&[]) {
            out.gauges.insert(k.clone(), g.as_f64().unwrap_or(0.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_read_round_trips_and_merges() {
        let mut h = LogHistogram::new();
        for v in [100u64, 2_000, 30_000] {
            h.record(v);
        }
        let mut a = ObsRead::default();
        a.spans.insert("s".into(), h);
        a.counters.insert("par_map.thread0.items".into(), 30);
        a.counters.insert("par_map.thread1.items".into(), 10);
        a.gauges.insert("par_map.threads".into(), 2.0);
        let b = ObsRead::from_json(&a.to_json());
        assert_eq!(b.count("s"), 3);
        assert_eq!(b.total_s("s"), 32_100.0 / 1e9);
        assert_eq!(b.par_balance(), 1.5);
        let mut c = b.clone();
        c.merge(&b);
        assert_eq!(c.count("s"), 6);
        assert_eq!(c.counter("par_map.thread0.items"), 60);
    }
}
