//! In-memory span recording for the traced run.
//!
//! A span brackets one call into a layer's public function: its name,
//! start, end, the span that caused it, and the id of the operation
//! (goal solve or daemon request) it served. Spans stay in memory while
//! the workload runs and are written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for an open span.
#[must_use = "close the span"]
pub struct Open(usize);

/// A span recorder for one thread. A disabled tracer records nothing
/// and reads no clock, so shared code paths cost nothing untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled: true,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `span` (which must be the innermost open one); returns its
    /// duration in milliseconds (0 when disabled).
    pub fn close(&mut self, span: Open) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = end;
        s.duration_ns() as f64 / 1e6
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, op);
        let out = f();
        self.close(s);
        out
    }

    /// Append another tracer's spans (e.g. from a worker thread),
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its children cover (children never outlive their
    /// parent, so the subtraction is their summed durations).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(*c) as f64 / 1e6;
        }
        out
    }

    /// Total duration per span name in milliseconds.
    pub fn total_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let op = t.open("op", 7);
        t.time("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.close(op);
        let selfs = t.self_ms();
        assert!(selfs["child"] >= 5.0);
        assert!((selfs["op"] + selfs["child"] - total).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
    }
}
