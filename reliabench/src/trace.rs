//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the id of the span that caused it and, for serve
//! requests, the request id. Spans are kept in memory and written out once
//! the workload ends. With tracing off, [`Tracer::span`] only calls the
//! closure, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread. Span id 0 is the implicit root.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        self.span_req(name, parent, 0, f)
    }

    /// [`Tracer::span`] tagged with a request id.
    pub fn span_req<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span { id, parent, name, request, start_ns, end_ns };
        self.spans.lock().expect("span list poisoned by a panicking worker").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("span list poisoned by a panicking worker").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Self seconds per span name. Self time is a span's duration minus
    /// the part of it that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_default() += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }
}
