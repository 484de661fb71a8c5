//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's code around each call into a layer's
//! public API: name, start, end, the span that caused it and, for a served
//! request, the request id its spans share. They stay in memory and are
//! written once, when the run ends. A disabled recorder hands out inert
//! guards, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Request id shared by one served request's spans, 0 otherwise.
    pub request: u64,
    /// Layer call, e.g. `core.run`.
    pub name: &'static str,
    /// Case or path the call served, e.g. `lv_p1`; empty when none.
    pub tag: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Numeric attributes (e.g. a response's queue/service split).
    pub attrs: Vec<(&'static str, f64)>,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder shared by every benchmark thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    cost_ns: AtomicU64,
}

impl Tracer {
    /// A recorder; when `enabled` is false every span is inert.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, tag: &'static str, parent: u64) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                record: None,
            };
        }
        let t0 = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id,
            parent,
            request: 0,
            name,
            tag,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            attrs: Vec::new(),
        };
        self.charge(t0);
        Span {
            tracer: self,
            record: Some(record),
        }
    }

    /// Nanoseconds spent inside the recorder's own bookkeeping.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns.load(Ordering::Relaxed)
    }

    /// Every finished span, ordered by start then id.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn charge(&self, since: Instant) {
        self.cost_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// An open span; it records itself when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    record: Option<SpanRecord>,
}

impl Span<'_> {
    /// The span's id (0 when tracing is off), for parenting child spans.
    pub fn id(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.id)
    }

    /// Marks the span as part of request `request`.
    pub fn request(&mut self, request: u64) {
        if let Some(r) = &mut self.record {
            r.request = request;
        }
    }

    /// Attaches a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(r) = &mut self.record {
            r.attrs.push((key, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(mut record) = self.record.take() {
            let t0 = Instant::now();
            record.end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(record);
            }
            self.tracer.charge(t0);
        }
    }
}

/// Self time per `name/tag`, milliseconds: each span's duration minus the
/// part of its interval its child spans cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let key = if s.tag.is_empty() {
            s.name.to_string()
        } else {
            format!("{}/{}", s.name, s.tag)
        };
        *out.entry(key).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e6;
    }
    out
}

/// The trace file: every span plus the self-time table, as JSON.
pub fn to_json(spans: &[SpanRecord], workload: &str, seed: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
            s.id, s.parent, s.request, s.name, s.tag, s.start_ns, s.end_ns
        );
        for (j, (k, v)) in s.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{}", crate::report::num(*v));
        }
        out.push_str("}}");
    }
    out.push_str("],\"self_ms\":{");
    for (i, (k, v)) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{}", crate::report::num(*v));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let span = |id, parent, start_ns, end_ns| SpanRecord {
            id,
            parent,
            request: 0,
            name: "x",
            tag: "",
            start_ns,
            end_ns,
            attrs: Vec::new(),
        };
        // Parent 0..100 with overlapping children 10..40 and 30..50: 40
        // covered, 60 self; the children own 30 + 20.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50)];
        let t = self_times(&spans);
        assert!((t["x"] - (60.0 + 30.0 + 20.0) / 1e6).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut s = tracer.span("a", "", 0);
            s.attr("k", 1.0);
            assert_eq!(s.id(), 0);
        }
        assert!(tracer.records().is_empty());
    }
}
