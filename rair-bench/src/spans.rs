//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent)`; its index in the list is
//! its id. Spans are only ever recorded from this package's own files and
//! are written to `trace.json` when the traced pass ends. A layer's *self
//! time* is its span minus the part of that interval its children cover,
//! so overlapping children (two serve workers) are not subtracted twice.

use crate::json::escape;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder shared by the harness thread and, for `serve`, the worker
/// threads its store/executor wrappers are called on.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    pub fn exit(&self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        spans[id].secs()
    }

    /// Run `f` inside a span (it receives the span's id, to parent its own
    /// children) and return its result with the span's duration in seconds.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let id = self.enter(name, parent);
        let out = f(id);
        (out, self.exit(id))
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Nanoseconds of span `id` not covered by any of its direct children.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Durations in seconds of every span called `name`, in recording order.
pub fn secs_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Sum of [`secs_of`].
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    secs_of(spans, name).iter().sum()
}

/// Per-name `(count, total_ns, self_ns)`.
pub fn layers(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns(spans, id);
    }
    out
}

/// The `trace.json` document: every span, then the per-layer roll-up.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"spans\": [\n",
        escape(workload)
    );
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "    {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"workload\": \"{}\"}}{}\n",
            escape(&s.name),
            s.start_ns,
            s.end_ns,
            escape(workload),
            if id + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"layers\": [\n");
    let layers = layers(spans);
    for (i, (name, (count, total, own))) in layers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{}\n",
            escape(name),
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_not_their_sum() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping workers cover [10, 70) between them…
            span("exec", 10, 50, Some(0)),
            span("exec", 30, 70, Some(0)),
            // …a grandchild is its parent's business, not the root's…
            span("store", 35, 45, Some(2)),
            // …and a child poking out of the root is clipped to it.
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 10);
        assert_eq!(self_ns(&spans, 1), 40);
        assert_eq!(self_ns(&spans, 2), 30);
        assert_eq!(self_ns(&spans, 3), 10);
        let l = layers(&spans);
        assert_eq!(l["exec"], (2, 80, 70));
        assert_eq!(total_secs(&spans, "exec"), 80e-9);
    }

    #[test]
    fn nested_serial_children_account_for_the_whole_root() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 100, Some(0)),
            span("a.inner", 5, 25, Some(1)),
        ];
        let own: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(own, 100, "serial self times partition the root");
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn tracer_records_parents_and_writes_parseable_json() {
        let t = Tracer::new();
        let ((), outer) = t.time("outer \"q\"", None, |id| {
            let ((), inner) = t.time("inner", Some(id), |_| {
                std::hint::black_box((0..1000).sum::<u64>());
            });
            assert!(inner >= 0.0);
        });
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(outer, spans[0].secs());
        let doc = Value::parse(&to_json("w", 7, &spans)).expect("trace.json parses");
        let arr = doc
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans array");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("name").and_then(Value::as_str),
            Some("outer \"q\"")
        );
        assert_eq!(arr[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            doc.get("layers").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
    }
}
