//! Spans recorded from the benchmark's own files, around its calls into
//! each layer: kept in a preallocated buffer, written out as
//! `trace.json` when the run ends.

use std::io::Write;
use std::time::Instant;

/// One span. `parent` is the index of the causing span in the same
/// buffer plus one, 0 for a root. `op` identifies the generator
/// submission the span belongs to; for a probe it is the number of
/// calls the span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A fixed-capacity span buffer; spans past the capacity are counted,
/// not stored, so recording never allocates inside a measured region.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records a finished span and returns its index plus one, for use
    /// as a child's `parent` (0 when the buffer is full).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over the spans called `name` of duration ÷ `op`: the cost
    /// of one call, for probe spans that each cover `op` calls.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let per_call: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.op > 0)
            .map(|s| s.duration_ns() as f64 / s.op as f64)
            .collect();
        assert!(!per_call.is_empty(), "no span named {name}");
        crate::stats::median(&per_call)
    }
}

/// Total self time per span name: a span's duration minus the part of it
/// its children cover. Children of one parent do not overlap here (each
/// buffer is filled by one thread), so the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            covered[s.parent as usize - 1] += s.duration_ns();
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, child_ns) in spans.iter().zip(&covered) {
        let own = s.duration_ns().saturating_sub(*child_ns);
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

/// Writes the buffers of every thread as one compact JSON document:
/// `names` once, then per thread rows of
/// `[name, start_ns, end_ns, parent, op]`.
pub fn write_json(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    for s in tracers.iter().flat_map(|t| t.spans()) {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(
        out,
        "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n \"names\": [{}],\n \"threads\": [",
        quoted.join(", ")
    )?;
    for (i, t) in tracers.iter().enumerate() {
        writeln!(out, "  {{\"dropped\": {}, \"spans\": [", t.dropped)?;
        for (j, s) in t.spans().iter().enumerate() {
            let name = names.iter().position(|n| *n == s.name).unwrap_or(0);
            let sep = if j + 1 == t.spans().len() { "" } else { "," };
            writeln!(
                out,
                "[{name},{},{},{},{}]{sep}",
                s.start_ns, s.end_ns, s.parent, s.op
            )?;
        }
        writeln!(
            out,
            "  ]}}{}",
            if i + 1 == tracers.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 8);
        let root = t.record("op", at(0), at(100), 0, 1);
        t.record("submit", at(10), at(30), root, 1);
        t.record("wait", at(30), at(90), root, 1);
        let totals = self_times(t.spans());
        assert_eq!(
            totals,
            vec![("op", 20_000), ("submit", 20_000), ("wait", 60_000)]
        );
    }

    #[test]
    fn a_full_buffer_counts_instead_of_growing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        assert_eq!(t.record("a", epoch, epoch, 0, 1), 1);
        assert_eq!(t.record("a", epoch, epoch, 0, 1), 0);
        assert_eq!((t.spans().len(), t.dropped), (1, 1));
    }

    #[test]
    fn ns_per_call_is_the_median_of_per_span_costs() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(epoch, 8);
        t.record("p", at(0), at(1000), 0, 10); // 100 per call
        t.record("p", at(0), at(3000), 0, 10); // 300
        t.record("p", at(0), at(2000), 0, 10); // 200
        assert_eq!(t.ns_per_call("p"), 200.0);
    }
}
