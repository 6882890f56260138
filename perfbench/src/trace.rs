//! In-memory spans recorded around calls into the library's public
//! functions, from the benchmark's side of the call.
//!
//! A span has a name (`layer.function`), start and end (nanoseconds since
//! the tracer was created), the index of its parent span, and the case or
//! incident id it belongs to. Spans stay in memory while the run measures
//! and are written out once at exit ([`Tracer::write_jsonl`]). A layer's
//! self time is its spans' durations minus the part covered by their
//! children ([`Tracer::self_ms`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder with an explicit open-span stack (one driving thread).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let index = self.enter(name, id);
        let out = f();
        self.exit(index);
        out
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Self time (ms) per span name: duration minus the children's
    /// durations. Children of one span never overlap (one driving thread).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"span":{index},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter("outer", 0);
        tracer.span("inner", 0, || std::thread::sleep(std::time::Duration::from_millis(5)));
        tracer.exit(outer);
        let own = tracer.self_ms();
        let total = tracer.durations_ms("outer")[0];
        assert!(own["inner"] >= 5.0);
        assert!((own["outer"] + own["inner"] - total).abs() < 1e-6);
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
