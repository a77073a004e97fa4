//! The span recorder of traced runs (`--trace 1`).
//!
//! The benchmark puts a span around each call it makes into a layer: a
//! name, start, end, parent span and a request id shared by every span of
//! one request. Caller threads fill their own buffers and hand them over
//! when they finish, so recording takes no lock on the request path;
//! everything stays in memory until the run ends and is written out then.
//! No span goes inside the program.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span buffer. Span ids are `tag << 40 | counter`, unique
/// across buffers without coordination; id 0 means "no parent".
pub struct Spans {
    origin: Instant,
    tag: u64,
    next: u64,
    pub buf: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, tag: u64, capacity: usize) -> Spans {
        Spans {
            origin,
            tag,
            next: 0,
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Record a finished call and return its span id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (self.tag << 40) | self.next;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.buf.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }
}

/// The run's collected spans.
pub struct Recorder {
    pub origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn buffer(&self, tag: u64, capacity: usize) -> Spans {
        Spans::new(self.origin, tag, capacity)
    }

    pub fn absorb(&self, spans: Spans) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking caller")
            .extend(spans.buf);
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking caller")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `id parent req name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking caller");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
