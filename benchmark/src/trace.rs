//! In-memory spans recorded by the harness around its calls into each layer,
//! written as JSON lines when the run ends. Spans inside the program are a
//! later change (ROADMAP item 1's `StageClock`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent == 0` marks an operation's root span; spans of
/// one operation share `op`.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// A second tracer on the same clock, for another thread; merge it back
    /// with [`Tracer::absorb`].
    pub fn sibling(&self) -> Self {
        Tracer { origin: self.origin, spans: Vec::new() }
    }

    /// Appends `other`'s spans, renumbering them after this tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { name, op, id, parent, start_ns, end_ns });
        id
    }

    /// Times `f` as a child span of `parent`.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, op, parent, start, end);
        out
    }

    /// Total duration and count of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Mean duration of the spans called `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (ns, n) = self.total_ns(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
