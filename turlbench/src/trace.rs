//! The benchmark's own span recorder. Spans are recorded around the
//! calls the benchmark makes into each layer's public API — nothing
//! inside the program is instrumented — kept in memory, and written out
//! as JSONL when the run ends.
//!
//! A disabled recorder costs one branch per call, so the untraced run
//! can share the code paths of the traced one.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle to an open span (0 when the recorder is disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The id of no span: a root has this as its parent.
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span: name, interval, and the span that caused it.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    open: Vec<Open>,
    done: Vec<SpanRec>,
}

/// Thread-safe in-memory span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("span recorder poisoned by a panicking benchmark thread")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span named `name` under `parent`.
    pub fn open(&self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start = Instant::now();
        let mut g = self.lock();
        g.next_id += 1;
        let id = g.next_id;
        g.open.push(Open { id, parent: parent.0, name, start });
        SpanId(id)
    }

    /// Close an open span.
    pub fn close(&self, id: SpanId) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        let end = Instant::now();
        let end_ns = self.ns(end);
        let mut g = self.lock();
        if let Some(i) = g.open.iter().position(|o| o.id == id.0) {
            let o = g.open.swap_remove(i);
            let start_ns = self.ns(o.start);
            g.done.push(SpanRec { id: o.id, parent: o.parent, name: o.name, start_ns, end_ns });
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Record an interval the caller already timed.
    pub fn record(&self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut g = self.lock();
        g.next_id += 1;
        let id = g.next_id;
        g.done.push(SpanRec { id, parent: parent.0, name, start_ns, end_ns });
    }

    /// Every finished span, in completion order.
    pub fn finished(&self) -> Vec<SpanRec> {
        self.lock().done.clone()
    }

    /// Median duration (ms) of the finished spans named `name`; NaN when
    /// there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .lock()
            .done
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        crate::stats::median(&ms)
    }

    /// Write every finished span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.lock().done {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span named `name`, in ms: its duration minus the
/// part of its interval that its child spans cover (overlapping
/// children count once).
pub fn self_times_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|p| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == p.id)
                .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            p.dur_ns().saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, 0, "req", 0, 100),
            rec(2, 1, "a", 10, 30),
            rec(3, 1, "b", 20, 50),          // overlaps a: 10..50 covered once
            rec(4, 1, "c", 90, 120),         // clipped to the parent: 90..100
            rec(5, 2, "grandchild", 10, 20), // not a direct child of req
        ];
        let ms = self_times_ms(&spans, "req");
        assert_eq!(ms.len(), 1);
        assert!((ms[0] - (100.0 - 40.0 - 10.0) / 1e6).abs() < 1e-12);
        // a's own child covers half of it.
        assert!((self_times_ms(&spans, "a")[0] - 10.0 / 1e6).abs() < 1e-12);
        // A leaf's self time is its duration.
        assert!((self_times_ms(&spans, "b")[0] - 30.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let s = Spans::new(false);
        let id = s.open("x", SpanId::NONE);
        s.close(id);
        s.time("y", SpanId::NONE, || ());
        assert!(s.finished().is_empty());
    }

    #[test]
    fn enabled_recorder_links_children_to_parents() {
        let s = Spans::new(true);
        let p = s.open("parent", SpanId::NONE);
        s.time("child", p, || ());
        s.close(p);
        let done = s.finished();
        assert_eq!(done.len(), 2);
        let parent = done.iter().find(|r| r.name == "parent").expect("parent span");
        let child = done.iter().find(|r| r.name == "child").expect("child span");
        assert_eq!(child.parent, parent.id);
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
    }
}
