//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (spans inside
//! the fabric are a later change): `{name, start_ns, end_ns, parent,
//! request_id}`, kept in memory and written as JSON lines when the run
//! ends. A disabled tracer runs the same call paths and records nothing,
//! so untraced and traced runs differ only by the recording itself — that
//! difference is `trace.overhead_pct`.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `id`s are unique within a run; `parent` names the
/// span whose call caused this one; spans of one client request share
/// `request_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every benchmark thread.
pub struct Tracer {
    epoch: Instant,
    // Relaxed everywhere: the flag and the id counter publish no other
    // data; the span list has its own lock.
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Run `f` inside a span. `f` receives the span's id to hand to the
    /// spans of the calls it makes (`None` while recording is off).
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request_id: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.record(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        out
    }

    /// Run `f` and return how long it took in ns, recording the same
    /// interval as a top-level span while recording is on. The layer
    /// replay derives its numbers from these, so a metric and its span
    /// can never disagree.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if self.enabled.load(Ordering::Relaxed) {
            self.record(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                name,
                start_ns,
                end_ns,
                parent: None,
                request_id: None,
            });
        }
        (out, (end_ns - start_ns) as f64)
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval that its child spans cover (overlapping children are counted
/// once; a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some((p_start, p_end)) = s.parent.and_then(|p| bounds.get(&p)) {
            let (start, end) = (s.start_ns.max(*p_start), s.end_ns.min(*p_end));
            if start < end {
                children
                    .entry(s.parent.expect("checked above"))
                    .or_default()
                    .push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Write spans as one JSON object per line, self time included.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{},\"self_ns\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.request_id),
            selfs[&s.id],
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            request_id: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            // Overlaps span 2 on [30, 40): counted once.
            span(3, 30, 60, Some(1)),
            // Sticks out past its parent: clipped to [90, 100).
            span(4, 90, 130, Some(1)),
            span(5, 15, 20, Some(2)),
            // Parent id never recorded: ignored, not a panic.
            span(6, 0, 5, Some(99)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10));
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 40);
        assert_eq!(selfs[&6], 5);
    }

    #[test]
    fn scopes_nest_share_request_ids_and_honour_the_switch() {
        let t = Tracer::new(true);
        let got = t.scope("request", None, Some(7), |req| {
            t.scope("submit", req, Some(7), |id| {
                assert!(id.is_some());
                41
            }) + 1
        });
        assert_eq!(got, 42);
        t.set_enabled(false);
        t.scope("request", None, Some(8), |req| assert_eq!(req, None));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "request").unwrap();
        let inner = spans.iter().find(|s| s.name == "submit").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((outer.request_id, inner.request_id), (Some(7), Some(7)));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let ((), ns) = t.timed("off", || ());
        assert!(
            ns >= 0.0 && t.spans().len() == 2,
            "timed measures but records nothing while off"
        );
        t.set_enabled(true);
        t.timed("on", || ());
        assert_eq!(t.spans().last().map(|s| s.name), Some("on"));
    }

    #[test]
    fn jsonl_has_one_object_per_line_with_resolvable_parents() {
        let t = Tracer::new(true);
        t.scope("a", None, None, |a| t.scope("b", a, Some(3), |_| ()));
        let path =
            std::env::temp_dir().join(format!("bench-report-trace-{}.jsonl", std::process::id()));
        write_jsonl(&path, &t.spans()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"id\":1,\"name\":\"a\"")
                && lines[0].contains("\"parent\":null")
        );
        assert!(lines[1].contains("\"parent\":1") && lines[1].contains("\"request_id\":3"));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }
}
