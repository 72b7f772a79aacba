//! Benchmark-side spans: name, start, end, parent and query id, kept in
//! memory and written out as JSON lines when the run ends. These wrap the
//! benchmark's own calls into each layer; the program's `trace=1` /
//! `hin-telemetry` spans are not used (wiring the two together is a later
//! change).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the returned id closes it and parents its children.
    pub fn begin(&mut self, name: &'static str, parent: u32, query: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take over another tracer's spans (a generator thread's), shifting
    /// their clock and parent ids into this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..s
        }));
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// One JSON object per span, in the order the spans were opened.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"query\":{}}}",
                span.name, span.start_ns, span.end_ns, span.query
            )?;
        }
        out.flush()
    }
}
