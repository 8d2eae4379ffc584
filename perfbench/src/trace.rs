//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a public function of the stack. They stay in memory while the
//! workload runs and are written as JSON lines when it ends. The
//! per-layer metrics are computed from these spans, so the trace file
//! is the evidence behind every per-layer timing.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or round) the span belongs to.
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span store shared by the workload's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span whose end is not known yet (a request root, so its
    /// children can name it as parent); finish it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, start: Instant, request: Option<u64>) -> usize {
        self.record(name, start, start, None, request)
    }

    /// Sets the end of a span opened with [`open`](Self::open).
    pub fn close(&self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans.lock().expect("span store lock")[id].end_ns = end_ns;
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store lock");
        let mut out = String::with_capacity(spans.len() * 96);
        for (id, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Runs `f`, recording it as span `name` when a tracer is present. With
/// no tracer the call runs bare: no clock reads, no allocation.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.record(name, start, Instant::now(), parent, request);
            out
        }
    }
}
