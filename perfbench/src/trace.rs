//! The benchmark's own spans, recorded around its calls into the
//! program's public functions.
//!
//! Spans live in memory and are written out as JSON lines when a run
//! ends. Each span knows its parent, so the spans of one campaign share
//! the campaign's root span. A span's self time is its duration minus
//! the part of its interval that its child spans cover (children that
//! overlap, such as a server process and the load generator driving it,
//! are counted once).

use std::borrow::Cow;
use std::time::Instant;

use serde_json::{json, Value};

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, named `<module>.<call>`.
    pub name: Cow<'static, str>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 while open).
    pub dur_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to a span opened by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::close"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording (between spans, not inside one).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn close(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_ns = now - self.spans[top].start_ns;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Adds spans measured elsewhere (another process) under the
    /// innermost open span. `spans` use their own parent indices and
    /// a start relative to `offset_ns` on this tracer's clock.
    pub fn adopt(&mut self, spans: &[Span], offset_ns: u64) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                parent: s.parent.map_or(parent, |p| Some(base + p)),
                start_ns: offset_ns + s.start_ns,
                dur_ns: s.dur_ns,
            });
        }
    }

    /// Nanoseconds since this tracer was created (for [`Self::adopt`]).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Self time of every span: duration minus the union of its direct
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
                let mut covered = 0u64;
                let mut reach = lo;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(hi));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns.saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as JSON values (the wire format between processes).
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name.as_ref(),
                        "parent": s.parent.map(|p| p as u64),
                        "start_ns": s.start_ns,
                        "dur_ns": s.dur_ns
                    })
                })
                .collect(),
        )
    }

    /// Parses spans written by [`Self::to_json`].
    pub fn spans_from_json(v: &Value) -> Vec<Span> {
        v.as_array()
            .map(|a| {
                a.iter()
                    .map(|s| Span {
                        name: Cow::Owned(
                            s.get("name")
                                .and_then(Value::as_str)
                                .unwrap_or("?")
                                .to_owned(),
                        ),
                        parent: s.get("parent").and_then(Value::as_u64).map(|p| p as usize),
                        start_ns: s.get("start_ns").and_then(Value::as_u64).unwrap_or(0),
                        dur_ns: s.get("dur_ns").and_then(Value::as_u64).unwrap_or(0),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Writes one JSON line per span (with its self time) to `path`.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let line = json!({
                "span": i as u64,
                "parent": s.parent.map(|p| p as u64),
                "name": s.name.as_ref(),
                "start_ns": s.start_ns,
                "dur_ns": s.dur_ns,
                "self_ns": own
            });
            writeln!(out, "{}", serde_json::to_string(&line).expect("json"))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: Cow::Owned(name.to_owned()),
            parent,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.adopt(
            &[
                span("root", None, 0, 100),
                span("a", Some(0), 10, 30),
                span("b", Some(0), 20, 40), // overlaps a
                span("c", Some(2), 25, 5),  // grandchild: not root's child
            ],
            0,
        );
        assert_eq!(t.self_times(), vec![50, 30, 35, 5]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x");
        t.close(s);
        assert_eq!(t.time("y", || 3), 3);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_round_trip_through_json() {
        let mut t = Tracer::new(true);
        let root = t.open("root");
        t.time("child", || ());
        t.close(root);
        let back = Tracer::spans_from_json(&t.to_json());
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].parent, Some(0));
        assert_eq!(back[1].name, "child");
    }
}
