//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out once the run ends.
//!
//! A span is `(name, start, end, parent, request)`; spans of one
//! request share its identifier. Each thread records into its own
//! [`Tracer`]; [`merge`] concatenates them into one list with global
//! parent indices.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed interval of work at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The request (or task set) this span belongs to.
    pub request: u64,
    pub thread: usize,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span recorder. A disabled tracer records nothing, so
/// the same code path runs with tracing on and off.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: usize,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(epoch: Instant, thread: usize, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            thread,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
            thread: self.thread,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(parts: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Checks that every span is closed and every child lies inside its
/// parent and belongs to the same request.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} ({}) has a dangling parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) [{}, {}] escapes its parent {p} ({}) [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
            if s.request != parent.request {
                return Err(format!(
                    "span {i} ({}) belongs to request {} but its parent to {}",
                    s.name, s.request, parent.request
                ));
            }
        }
    }
    Ok(())
}

/// Durations (µs) of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_pass_and_an_escaping_child_is_caught() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        let root = t.open("root", None, 7);
        t.time("child", root, 7, || std::hint::black_box(1 + 1));
        t.close(root);
        let mut spans = merge([t.into_spans()]);
        assert!(check_nesting(&spans).is_ok());
        spans[1].end_ns = spans[0].end_ns + 1;
        assert!(check_nesting(&spans).is_err());
        spans[1].end_ns = spans[0].end_ns;
        spans[1].request = 8;
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, false);
        let id = t.open("root", None, 1);
        t.close(id);
        assert!(id.is_none());
        assert!(t.into_spans().is_empty());
    }
}
