//! Spans recorded by the benchmark around each call into a layer.
//!
//! A [`Tracer`] that is off still times: [`Tracer::begin`] hands out a
//! stopwatch either way, so traced and untraced runs take the same code
//! path and differ only in whether spans are kept. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. `parent` is 0 for a root; spans of one request
/// share `req` (0 when the span belongs to no request).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span (or, when tracing is off, just a stopwatch).
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    req: u64,
    layer: &'static str,
    name: &'static str,
    start: Instant,
}

impl Open<'_> {
    /// The span id children pass as their parent (0 when off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span and returns its duration.
    pub fn end(self) -> Duration {
        let end = Instant::now();
        if self.tracer.on {
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                req: self.req,
                layer: self.layer,
                name: self.name,
                start_ns: self.tracer.offset(self.start),
                end_ns: self.tracer.offset(end),
            });
        }
        end - self.start
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Opens a span on `layer` around call `name`.
    pub fn begin(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        req: u64,
    ) -> Open<'_> {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            tracer: self,
            id,
            parent,
            req,
            layer,
            name,
            start: Instant::now(),
        }
    }

    /// Records an interval measured elsewhere (one stage of a shard loop).
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent,
                req: 0,
                layer,
                name,
                start_ns: self.offset(start),
                end_ns: self.offset(end),
            });
        }
    }

    /// Self time per layer in ms: each span's duration minus the part of
    /// its interval that its children cover (children may overlap when
    /// they ran on several client threads, so their union is taken).
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
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
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                r#"{{"id":{},"parent":{},"req":{},"layer":"{}","name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.req, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let root = Span {
            id: 1,
            parent: 0,
            req: 0,
            layer: "a",
            name: "root",
            start_ns: 0,
            end_ns: 100,
        };
        let kid = |id, s, e| Span {
            id,
            parent: 1,
            req: 0,
            layer: "b",
            name: "kid",
            start_ns: s,
            end_ns: e,
        };
        for s in [root, kid(2, 10, 30), kid(3, 20, 40), kid(4, 60, 70)] {
            t.push(s);
        }
        let st = t.self_times_ms();
        // Root: 100 − |[10,40) ∪ [60,70)| = 60 ns; children 20 + 20 + 10.
        assert!((st["a"] - 60e-6).abs() < 1e-12, "{st:?}");
        assert!((st["b"] - 50e-6).abs() < 1e-12, "{st:?}");
    }

    #[test]
    fn an_untraced_span_still_times() {
        let t = Tracer::new(false);
        let s = t.begin("a", "x", 0, 0);
        assert_eq!(s.id(), 0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.end() >= Duration::from_millis(2));
        assert_eq!(t.span_count(), 0);
    }
}
