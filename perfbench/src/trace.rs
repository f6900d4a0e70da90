//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program
//! (no span lives inside the program itself), kept in memory while the
//! workload runs and written out as JSONL once it ends. A layer's self time
//! is its span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Replay index or request id the span belongs to.
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; closing it with [`Tracer::exit`] records it.
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of the currently open spans, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// Nanoseconds from the tracer's origin to `t`.
    fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str, run: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            run,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        }
    }

    /// Records a finished span with explicit times (spans measured on other
    /// threads) under the innermost open span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        let parent = self.stack.last().copied();
        self.record_child(parent, name, run, start, end)
    }

    /// Records a finished span under `parent`; returns its id.
    pub fn record_child(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let span = Span {
            id,
            parent,
            name,
            run,
            start_ns: self.at_ns(start),
            end_ns: self.at_ns(end),
        };
        self.spans.push(span);
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, milliseconds.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for span in &self.spans {
            let own = span.end_ns.saturating_sub(span.start_ns);
            let self_ns = own.saturating_sub(child_ns[span.id as usize]);
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Writes every span, then one self-time line per span name, as JSONL.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"kind\":\"span\",\"workload\":\"{workload}\",\"seed\":{seed},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        for (name, ms) in self.self_time_ms() {
            writeln!(
                out,
                "{{\"kind\":\"self_time\",\"workload\":\"{workload}\",\"seed\":{seed},\"name\":\"{name}\",\"self_ms\":{ms}}}"
            )?;
        }
        out.flush()
    }
}
