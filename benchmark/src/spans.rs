//! The benchmark's own in-memory tracing: spans around every client
//! request and around each direct call into a crate, kept in memory and
//! written as JSONL when the run ends. Nothing here touches the
//! product — spans inside the program are a later change.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request (or training step) share this identifier.
    pub request: u64,
    /// `layer.call` for a direct call into a crate, a bare name otherwise.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Span sink shared by every thread of a run. When disabled it still
/// times (callers need the durations) but keeps nothing.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Keep a span whose endpoints the caller already measured on this
    /// recorder's clock. Returns its id when recording.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span { id, parent, request, name, start_ns, end_ns };
        self.spans.lock().expect("a span writer panicked").push(span);
        Some(id)
    }

    /// Run `f` inside a span and return its result with the elapsed
    /// nanoseconds. `f` receives the span's id to parent its own calls.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> (T, u64) {
        let id = self.enabled.then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            let span = Span { id, parent, request, name, start_ns, end_ns };
            self.spans.lock().expect("a span writer panicked").push(span);
        }
        (out, end_ns - start_ns)
    }

    /// Every span recorded so far, in start order.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Write the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.snapshot();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children that overlap each other, or run
/// past their parent, are not subtracted twice or beyond the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start_ns, s.end_ns))).collect();
    for s in spans {
        if let Some((ps, pe)) = s.parent.and_then(|p| bounds.get(&p).copied()) {
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if start < end {
                children.entry(s.parent.expect("checked above")).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, largest first — the per-layer view of
/// a traced run.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64)> {
    let own = self_times(spans);
    let mut by_name: HashMap<&'static str, (usize, u64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own[&s.id];
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),  // overlaps span 2 over [30, 40)
            span(4, Some(1), 90, 130), // runs past its parent
            span(5, Some(2), 15, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - (50 + 10)); // [10,60) and [90,100)
        assert_eq!(own[&2], 30 - 5);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&5], 5);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let rec = Recorder::new(false);
        let (v, _ns) = rec.time("a.b", None, 0, |id| {
            assert_eq!(id, None);
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(v, 499_500);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn enabled_recorder_links_children_to_parents() {
        let rec = Recorder::new(true);
        rec.time("root", None, 7, |id| {
            rec.time("kb.child", id, 7, |_| ());
        });
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").expect("root span");
        let child = spans.iter().find(|s| s.name == "kb.child").expect("child span");
        assert_eq!(child.parent, Some(root.id));
        assert_eq!((root.request, child.request), (7, 7));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    }
}
