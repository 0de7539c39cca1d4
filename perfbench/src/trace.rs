//! Spans recorded from the benchmark's own code around each call into a
//! layer. Spans are kept in memory and written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = a root).
    pub parent: u64,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent child spans (0 when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.push(Span { id, parent, request, name, start_ns: start, end_ns: end });
        out
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span { id, parent, request, name, start_ns: at(start), end_ns: at(end) });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").clone()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Per span name: count, total time and self time (span time minus the
/// part of it that child spans cover), in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn self_times(spans: &[Span]) -> Vec<(&'static str, SelfTime)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: HashMap<&'static str, SelfTime> = HashMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let e = by_name.entry(s.name).or_default();
        e.count += 1;
        e.total_ms += total as f64 / 1e6;
        e.self_ms += total.saturating_sub(covered) as f64 / 1e6;
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Length of the union of `intervals` clipped to `[start, end)`.
/// Children on parallel threads may overlap; each instant counts once.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(start), b.min(end))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, request: 1, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 ms; children 10..40 and 30..50 overlap (parallel
        // threads) and cover 10..50; a child sticking out is clipped.
        let ms = 1_000_000;
        let spans = vec![
            span(1, 0, "request", 0, 100 * ms),
            span(2, 1, "child", 10 * ms, 40 * ms),
            span(3, 1, "child", 30 * ms, 50 * ms),
            span(4, 1, "child", 90 * ms, 120 * ms),
        ];
        let t = self_times(&spans);
        let req = &t.iter().find(|(n, _)| *n == "request").unwrap().1;
        assert_eq!(req.count, 1);
        assert!((req.total_ms - 100.0).abs() < 1e-9);
        assert!((req.self_ms - 50.0).abs() < 1e-9, "{req:?}");
        let child = &t.iter().find(|(n, _)| *n == "child").unwrap().1;
        assert_eq!(child.count, 3);
        assert!((child.self_ms - child.total_ms).abs() < 1e-9, "leaves keep all their time");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 1, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let id = t.span("x", 0, 1, |id| t.span("y", id, 1, |_| id));
        assert!(id > 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, id, "the inner span closes first and names its parent");
    }
}
