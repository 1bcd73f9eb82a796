//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is named `<layer>.<call>`; it carries the span that caused it
//! and the unit it belongs to. Spans stay in memory until the run ends,
//! then go out as Chrome trace-event JSON (viewable offline in Perfetto)
//! and as per-layer self time: a span's duration minus the part of its
//! interval its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kali_bench::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Host thread (`HOST_TID`) or the rank that ran the call.
    pub tid: usize,
    pub unit: Option<u64>,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Thread id of spans recorded outside the machine's processors.
pub const HOST_TID: usize = 100;

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Run `f` inside a span when `tr` is set, bare otherwise. `f` receives
/// the new span's id so calls it makes can name it as their parent.
pub fn span<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    tid: usize,
    parent: Option<u64>,
    unit: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    let Some(tr) = tr else { return f(None) };
    // Relaxed: the id is a label and publishes no other data.
    let id = tr.next.fetch_add(1, Ordering::Relaxed);
    let start = tr.epoch.elapsed().as_secs_f64();
    let out = f(Some(id));
    let end = tr.epoch.elapsed().as_secs_f64();
    tr.spans.lock().expect("span list poisoned").push(Span {
        id,
        parent,
        name,
        tid,
        unit,
        start,
        end,
    });
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own), keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end - s.start - covered).max(0.0))
        })
        .collect()
}

/// Total self seconds per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// The spans as a Chrome trace-event document (complete events, µs).
pub fn chrome_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start * 1e6)),
                ("dur", Json::Num((s.end - s.start) * 1e6)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.tid)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::from(s.id)),
                        ("parent", opt(s.parent)),
                        ("unit", opt(s.unit)),
                        ("self_us", Json::Num(selfs[&s.id] * 1e6)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "bench.x",
            tid: 0,
            unit: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [1, 4] of the parent's [0, 10].
        let spans = [
            s(1, None, 0.0, 10.0),
            s(2, Some(1), 1.0, 3.0),
            s(3, Some(1), 2.0, 4.0),
            s(4, Some(3), 2.0, 2.5),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 7.0).abs() < 1e-12);
        assert!((st[&3] - 1.5).abs() < 1e-12);
        assert!((st[&4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_export() {
        let tr = Tracer::default();
        span(Some(&tr), "bench.unit", HOST_TID, None, Some(0), |p| {
            span(Some(&tr), "solvers.step", 0, p, Some(0), |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "bench.unit").unwrap();
        let inner = spans.iter().find(|s| s.name == "solvers.step").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let doc = chrome_json(&spans).render();
        assert!(doc.starts_with("{\"traceEvents\":[{"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert_eq!(span(None, "bench.unit", 0, None, None, |p| p), None);
    }
}
