//! Spans recorded by the benchmark around every public call it makes.
//!
//! A span has a name, start and end (ns since the run's origin), its parent
//! span and a request id. Spans go into a buffer allocated before any
//! timed phase and are written out when the run ends; when tracing is off
//! every call is a branch on a bool.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The id of "no span" (tracing off, or the buffer is full).
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

/// The span buffer.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer; `capacity` spans are allocated up front when `on`.
    pub fn new(on: bool, capacity: usize) -> Self {
        let spans = if on { Vec::with_capacity(capacity) } else { Vec::new() };
        Tracer { on, origin: Instant::now(), spans, dropped: 0 }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, req });
        (self.spans.len() - 1) as u32
    }

    /// Close a span.
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Number and total duration (ns) of the spans named `name` whose index
    /// is at least `from`.
    pub fn sum(&self, name: &str, from: usize) -> (u64, f64) {
        self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns) as f64))
    }

    /// Mean duration in ns of the spans named `name` recorded since `from`.
    pub fn mean_ns(&self, name: &str, from: usize) -> f64 {
        let (n, total) = self.sum(name, from);
        if n == 0 {
            f64::NAN
        } else {
            total / n as f64
        }
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent req`.
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# id\tname\tstart_ns\tend_ns\tparent\treq (dropped {})", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.req)?;
        }
        out.flush()
    }
}
