//! Spans the benchmark opens around its own calls into each layer.
//!
//! A span records a name, its start and end, the span that was open
//! when it started (its parent), and the id of the operation it belongs
//! to; every span of one operation shares that request id. Spans stay in
//! memory and are written out once the run ends. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are µs since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `core.exec.bl`.
    pub name: &'static str,
    /// The operation this span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch` (share it across threads so
    /// their traces merge on one clock).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> SpanId {
        let start_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let end_us = self.now_us();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_us = end_us;
    }

    /// Runs `f` inside a span with no children of its own.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's closed spans, re-basing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name, s.request, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the length of the union of its children's intervals, each
/// clipped to the parent's.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        by_name.entry(s.name).or_default().push(t);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 30.0),
            span("b", Some(0), 20.0, 50.0), // overlaps a: union is 10..50
            span("c", Some(0), 90.0, 120.0), // clipped to the parent: 90..100
            span("leaf", Some(1), 12.0, 15.0),
        ];
        let t = self_times_us(&spans);
        assert_eq!(t, vec![100.0 - 40.0 - 10.0, 20.0 - 3.0, 30.0, 30.0, 3.0]);
    }

    #[test]
    fn tracer_nests_and_merges_threads() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch);
        let outer = main.open("outer", 7);
        let inner = main.leaf("inner", 7, main_work);
        assert_eq!(inner, 42);
        main.close(outer);
        let mut other = Tracer::new(epoch);
        let o = other.open("other", 9);
        other.leaf("other.child", 9, || ());
        other.close(o);
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2), "parents re-based after merge");
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        let by_name = self_times_by_name(spans);
        assert_eq!(by_name.len(), 4);
        let total = spans[0].end_us - spans[0].start_us;
        let child = spans[1].end_us - spans[1].start_us;
        assert!((by_name["outer"][0] - (total - child)).abs() < 1e-9);
    }

    fn main_work() -> u32 {
        std::hint::black_box(42)
    }
}
