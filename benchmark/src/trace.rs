//! Spans recorded by the benchmark around its calls into each layer.
//!
//! In-program tracing is a later change (ROADMAP item 4); until then the
//! only spans that exist are the ones the benchmark can draw from outside:
//! one per client operation, one per resize / heal / reintegration batch.
//! They live in a preallocated buffer and are written out once, when the
//! run ends.

use std::io::Write;
use std::time::Instant;

/// What a span covers. The name doubles as the layer it is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One repetition of a workload's timed section.
    Rep,
    /// The client loop of a repetition or cycle.
    Phase,
    /// `Cluster::get`.
    Get,
    /// `Cluster::put`.
    Put,
    /// `Cluster::resize` to fewer servers.
    ResizeDown,
    /// `Cluster::resize` back to full power.
    ResizeUp,
    /// The whole drain to an empty dirty table.
    Drain,
    /// `Cluster::heal_dirty`.
    Heal,
    /// One `Cluster::reintegrate_batch`.
    ReintegrateBatch,
}

impl SpanKind {
    /// Name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Rep => "bench.rep",
            SpanKind::Phase => "bench.phase",
            SpanKind::Get => "cluster.get",
            SpanKind::Put => "cluster.put",
            SpanKind::ResizeDown => "cluster.resize.down",
            SpanKind::ResizeUp => "cluster.resize.up",
            SpanKind::Drain => "bench.drain",
            SpanKind::Heal => "cluster.heal",
            SpanKind::ReintegrateBatch => "cluster.reintegrate",
        }
    }
}

/// Index of a span in its tracer's buffer.
pub type SpanId = u32;
/// `parent` of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// The span that caused it ([`NO_PARENT`] for a root).
    pub parent: SpanId,
    /// Operation id: spans of one client operation share it; 0 for spans
    /// that belong to no single operation.
    pub op: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span buffer. Never grows past the capacity it was
/// built with: once full it counts what it dropped instead of allocating
/// inside a timed loop.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    next_op: u32,
}

impl Tracer {
    /// Buffer for at most `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            next_op: 1,
        }
    }

    /// Now, ns since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh operation id.
    #[inline]
    pub fn next_op(&mut self) -> u32 {
        let op = self.next_op;
        self.next_op = self.next_op.wrapping_add(1).max(1);
        op
    }

    /// Record a finished span. Returns its id, or [`NO_PARENT`] when the
    /// buffer was full and the span was dropped.
    #[inline]
    pub fn record(
        &mut self,
        kind: SpanKind,
        parent: SpanId,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            kind,
            parent,
            op,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span that encloses others; close it with [`Tracer::close`].
    pub fn open(&mut self, kind: SpanKind, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.record(kind, parent, 0, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Time `f` as a childless span under `parent`.
    pub fn time<T>(&mut self, kind: SpanKind, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(kind, parent, 0, start, end);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget every span (the buffer keeps its capacity).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per kind, ns.
pub fn self_time_of(spans: &[Span], kind: SpanKind) -> u64 {
    self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.kind == kind)
        .map(|(t, _)| t)
        .sum()
}

/// At most this many client-operation spans go into the trace file (the
/// rest only feed the statistics); every other span is always written.
pub const MAX_OP_SPANS_WRITTEN: usize = 50_000;

/// Write the spans of each thread as one JSON document.
pub fn write_json(
    out: &mut impl Write,
    workload: &str,
    seed: u64,
    threads: &[&Tracer],
) -> std::io::Result<()> {
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"threads\":["
    )?;
    for (t, tracer) in threads.iter().enumerate() {
        if t > 0 {
            writeln!(out, ",")?;
        }
        writeln!(
            out,
            "{{\"thread\":{t},\"dropped\":{},\"spans\":[",
            tracer.dropped()
        )?;
        let mut ops_written = 0usize;
        let mut first = true;
        for (id, s) in tracer.spans().iter().enumerate() {
            if matches!(s.kind, SpanKind::Get | SpanKind::Put) {
                if ops_written == MAX_OP_SPANS_WRITTEN {
                    continue;
                }
                ops_written += 1;
            }
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start\":{},\"end\":{}}}",
                s.kind.name(),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        write!(out, "\n]}}")?;
    }
    writeln!(out, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(SpanKind::Rep, NO_PARENT, 0, 100),
            span(SpanKind::Get, 0, 10, 30),
            span(SpanKind::Drain, 0, 40, 90),
            // Grandchildren reduce the drain's self time, not the rep's.
            span(SpanKind::Heal, 2, 40, 50),
            span(SpanKind::ReintegrateBatch, 2, 50, 85),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 5, 10, 35]);
        assert_eq!(self_time_of(&spans, SpanKind::Drain), 5);
    }

    #[test]
    fn self_time_clips_and_dedups_overlapping_children() {
        let spans = [
            span(SpanKind::Rep, NO_PARENT, 100, 200),
            // Starts before the parent: only 100..120 counts.
            span(SpanKind::Get, 0, 90, 120),
            // Overlaps the previous child: only 120..130 is new.
            span(SpanKind::Get, 0, 110, 130),
            // Ends after the parent: only 190..200 counts.
            span(SpanKind::Put, 0, 190, 250),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10 - 10);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(Instant::now(), 2);
        assert_eq!(t.record(SpanKind::Get, NO_PARENT, 1, 0, 1), 0);
        assert_eq!(t.record(SpanKind::Get, NO_PARENT, 2, 1, 2), 1);
        assert_eq!(t.record(SpanKind::Get, NO_PARENT, 3, 2, 3), NO_PARENT);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn trace_file_is_json_with_parent_links() {
        let mut t = Tracer::new(Instant::now(), 8);
        let rep = t.open(SpanKind::Rep, NO_PARENT);
        let op = t.next_op();
        t.record(SpanKind::Put, rep, op, 5, 9);
        t.close(rep);
        let mut buf = Vec::new();
        write_json(&mut buf, "put_full", 7, &[&t]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"bench.rep\",\"parent\":null"));
        assert!(
            text.contains("\"name\":\"cluster.put\",\"parent\":0,\"op\":1,\"start\":5,\"end\":9")
        );
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
