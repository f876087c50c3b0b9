//! In-memory span recording for the traced run.
//!
//! Spans are recorded in the benchmark's own code around the calls it
//! makes into each layer: name, start, end, the enclosing span, and a
//! request or window id. A disabled recorder does nothing, which is how
//! the untraced runs measure end-to-end metrics. Spans stay in memory
//! and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No enclosing span.
const ROOT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-prefixed name, e.g. `sim.run_cycles`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, or none.
    pub parent: u32,
    /// Request, window or slice id the span belongs to.
    pub id: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle to an open span (`None` when recording is off).
#[must_use = "close the span with Spans::exit"]
pub struct Open(Option<u32>);

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans::with_epoch(enabled, Instant::now())
    }

    /// A recorder sharing another's epoch, for per-thread recorders that
    /// are merged afterwards.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Spans {
        Spans {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorder's time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span (and, defensively, anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Append another recorder's spans (its parent links are re-based).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, where self time is a span's duration minus the
    /// durations of its direct children.
    pub fn report(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur();
            e.self_ns += s.dur().saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean self time per span in microseconds (0 when none).
    pub fn self_us_each(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("a.outer", 0);
        s.span("b.inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(outer);
        let r = s.report();
        let (outer, inner) = (r["a.outer"], r["b.inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(s.spans()[1].parent, 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let v = s.span("a.x", 0, || 7);
        assert_eq!(v, 7);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Spans::new(true);
        a.span("a.x", 0, || ());
        let mut b = Spans::with_epoch(true, a.epoch());
        let o = b.enter("b.y", 1);
        b.span("b.z", 2, || ());
        b.exit(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
    }
}
