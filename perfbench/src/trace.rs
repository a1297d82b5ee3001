//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the id of the operation it belongs
//! to. Each thread records into its own [`Tracer`]; the run merges them and
//! writes them out once it ends. With tracing off, `open` returns `None`
//! and nothing is stored, so the untraced run pays one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Index of a span in its thread's log.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// One thread's span log.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        self.on
            .then(|| self.push(name, parent, op, Instant::now(), None))
    }

    pub fn close(&mut self, span: Option<SpanId>) {
        if let Some(id) = span {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.on
            .then(|| self.push(name, parent, op, start, Some(end)))
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, op);
        let out = f();
        self.close(span);
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }
}

/// Every thread's spans, merged at the end of a run. All of a run's
/// tracers share its epoch, so span times compare across threads.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    threads: Vec<Tracer>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            threads: Vec::new(),
        }
    }
}

impl TraceLog {
    /// A tracer for one thread of this run.
    pub fn tracer(&self, on: bool, thread: u32) -> Tracer {
        Tracer::new(on, self.epoch, thread)
    }

    pub fn absorb(&mut self, tracer: Tracer) {
        if tracer.on {
            self.threads.push(tracer);
        }
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// Self time per span name, in microseconds: each span's duration
    /// minus the part of its interval that its children cover.
    pub fn self_times_us(&self) -> Vec<(&'static str, Samples)> {
        let mut by_name: Vec<(&'static str, Samples)> = Vec::new();
        for t in &self.threads {
            let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); t.spans.len()];
            for s in &t.spans {
                if let Some(p) = s.parent {
                    children[p].push((s.start_ns, s.end_ns));
                }
            }
            for (i, s) in t.spans.iter().enumerate() {
                let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
                let self_us = (s.end_ns - s.start_ns - covered) as f64 / 1e3;
                match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                    Some((_, samples)) => samples.push(self_us),
                    None => {
                        let mut samples = Samples::default();
                        samples.push(self_us);
                        by_name.push((s.name, samples));
                    }
                }
            }
        }
        by_name
    }

    /// Writes every span as one tab-separated line:
    /// `thread id parent op name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tid\tparent\top\tname\tstart_ns\tend_ns")?;
        for t in &self.threads {
            for (i, s) in t.spans.iter().enumerate() {
                let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
                writeln!(
                    out,
                    "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                    t.thread, s.op, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_counts_overlaps_once() {
        let mut iv = vec![(5, 8), (2, 4), (3, 6), (9, 20)];
        assert_eq!(covered_ns(0, 10, &mut iv), 4 + 2 + 1);
    }

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 0);
        let root = t.push(
            "root",
            None,
            1,
            epoch,
            Some(epoch + std::time::Duration::from_micros(10)),
        );
        t.push(
            "child",
            Some(root),
            1,
            epoch + std::time::Duration::from_micros(2),
            Some(epoch + std::time::Duration::from_micros(6)),
        );
        let mut log = TraceLog::default();
        log.absorb(t);
        let selfs = log.self_times_us();
        let root_self = &selfs.iter().find(|(n, _)| *n == "root").unwrap().1;
        let child_self = &selfs.iter().find(|(n, _)| *n == "child").unwrap().1;
        assert!((root_self.p50() - 6.0).abs() < 1e-9);
        assert!((child_self.p50() - 4.0).abs() < 1e-9);
    }
}
