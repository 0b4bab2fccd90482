//! Spans recorded around the benchmark's calls into each simulator
//! layer. Spans live in memory and are written out once, at the end of
//! the traced run.

use mtb_mpisim::engine::{Observer, RankWindow};
use mtb_oskernel::Machine;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, start, end (ns since the tracer's origin) and
/// the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `mpisim.step_events`.
    pub name: &'static str,
    /// Case label, or the workload name for pass- and run-level spans.
    pub label: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, label: &str) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            label: label.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record an already-finished span as a child of the innermost open
    /// span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        label: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let parent = self.open.last().copied();
        self.record_in(parent, name, label, start, end)
    }

    /// Record an already-finished span under an explicit parent; returns
    /// its id.
    pub fn record_in(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        label: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            label: label.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// The spans as JSON lines: `{"id", "name", "label", "start_ns",
    /// "end_ns", "parent"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.label, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// An engine observer that notes the host time of every completed sync
/// epoch; consecutive marks bound one epoch's host time.
#[derive(Debug, Default)]
pub struct EpochClock {
    /// Host time at each `on_epoch` call.
    pub marks: Vec<Instant>,
}

impl Observer for EpochClock {
    fn on_epoch(&mut self, _epoch: usize, _windows: &[RankWindow], _machine: &mut Machine) {
        self.marks.push(Instant::now());
    }
}
