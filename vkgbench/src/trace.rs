//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. A span has a name, a start, an end, the span that caused
//! it and the id of the request it belongs to. Tracing off makes
//! `open`/`close` a branch each. The spans are written out as JSON
//! lines when the run ends, next to the server's own exported spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u64,
    spans: Vec<Span>,
}

const LOCAL_BITS: u32 = 40;

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        Tracer {
            on,
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread: u64) -> Self {
        Tracer::new(self.on, self.origin, thread)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its id, 0 when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = (self.thread << LOCAL_BITS) | (self.spans.len() as u64 + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the span `id` opened on this recorder.
    pub fn close(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let end = self.now_ns();
        let local = (id & ((1 << LOCAL_BITS) - 1)) as usize;
        if let Some(s) = self.spans.get_mut(local - 1) {
            s.end_ns = end;
        }
    }

    /// Takes over another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes every span, then the server's exported spans, as JSON lines.
    pub fn write(&self, path: &Path, server: &[vkg::obs::Span]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        for s in server {
            writeln!(
                out,
                "{{\"name\":\"server.request\",\"req\":{},\"op\":{},\"queue_ns\":{},\"batch_ns\":{},\"lock_ns\":{},\"exec_ns\":{},\"encode_ns\":{}}}",
                s.id, s.op, s.queue_ns, s.batch_ns, s.lock_ns, s.exec_ns, s.encode_ns
            )?;
        }
        out.flush()
    }
}
