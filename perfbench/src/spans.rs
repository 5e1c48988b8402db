//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end on a
//! shared monotonic clock, the span that was open when it began (its
//! parent), the run it belongs to, and a work count the caller attaches at
//! exit (work items covered, rows read, candidates seen). Spans are only
//! nested, never overlapping, because every traced replay is driven on one
//! thread; a layer's self time is its duration minus its direct children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`cover`, `decide`, …).
    pub name: &'static str,
    /// The run this span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Work done inside the span, in the layer's own unit.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A cloneable handle on one span log. Clones share the log, so wrapper
/// types handed to the program record into the same timeline as the
/// replay loop around them.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<Log>>);

/// Handle on an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "a span stays open until passed to Tracer::exit"]
pub struct SpanId(usize);

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Tracer(Arc::new(Mutex::new(Log {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.0
            .lock()
            .expect("span log poisoned by a panicking recorder")
    }

    /// Starts a new run: spans recorded from now on carry the returned id.
    pub fn begin_run(&self) -> u32 {
        let mut log = self.log();
        assert!(log.open.is_empty(), "run started inside an open span");
        log.run += 1;
        log.run
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanId {
        let mut log = self.log();
        let start_ns = log.epoch.elapsed().as_nanos() as u64;
        let id = log.spans.len();
        let span = Span {
            name,
            run: log.run,
            parent: log.open.last().copied(),
            start_ns,
            end_ns: 0,
            count: 0,
        };
        log.spans.push(span);
        log.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, attaching its work count.
    pub fn exit(&self, id: SpanId, count: u64) {
        let end = Instant::now();
        let mut log = self.log();
        assert_eq!(
            log.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let end_ns = end.duration_since(log.epoch).as_nanos() as u64;
        let span = &mut log.spans[id.0];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }
}

/// Per-layer totals over the spans of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children).
    pub self_ns: u64,
    /// Summed work counts.
    pub count: u64,
}

impl Layer {
    /// Summed span durations in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Summed self times in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Folds the spans of `run` into per-layer totals, keyed by span name.
pub fn layers(spans: &[Span], run: u32) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.run == run) {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s.duration_ns() - child_ns[i];
        layer.count += s.count;
    }
    out
}

/// Durations of the spans named `name` in `run`, sorted ascending.
pub fn sorted_durations(spans: &[Span], run: u32, name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .map(Span::duration_ns)
        .collect();
    d.sort_unstable();
    d
}

/// The spans as JSON Lines, one object per span, ids by position.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"run\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.run, s.name, s.start_ns, s.end_ns, s.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer::new();
        let run = t.begin_run();
        let root = t.enter("root");
        let mid = t.enter("mid");
        let leaf = t.enter("leaf");
        t.exit(leaf, 3);
        t.exit(mid, 1);
        t.exit(root, 0);
        let spans = t.spans();
        let l = layers(&spans, run);
        let sum_self: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(
            sum_self, l["root"].total_ns,
            "self times partition the root"
        );
        assert_eq!(l["mid"].self_ns, l["mid"].total_ns - l["leaf"].total_ns);
        assert_eq!(l["leaf"].count, 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(to_jsonl(&spans).lines().count() == 3);
    }

    #[test]
    fn runs_are_kept_apart() {
        let t = Tracer::new();
        let a = t.begin_run();
        let s = t.enter("x");
        t.exit(s, 1);
        let b = t.begin_run();
        let s = t.enter("x");
        t.exit(s, 2);
        let spans = t.spans();
        assert_eq!(layers(&spans, a)["x"].count, 1);
        assert_eq!(layers(&spans, b)["x"].count, 2);
    }
}
