//! The traced run: spans around each layer call, and their self time.
//!
//! Spans come from the benchmark's own code (`span!` with a
//! `perfbench::<layer>` target and the tick or batch number as the
//! `req` field) and are kept in a [`RingCollector`] until the run ends.
//! Installing a subscriber also switches on the engine's own spans;
//! those are filtered out before they reach the ring, but their cost
//! is part of the tracing overhead the traced run reports.

use blameit_obs::{RingCollector, SpanEvent, Subscriber};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Span target prefix of the benchmark's own spans.
const TARGET_PREFIX: &str = "perfbench::";

/// Forwards only the benchmark's spans into the ring.
struct BenchOnly(Arc<RingCollector>);

impl Subscriber for BenchOnly {
    fn on_event(&self, ev: &SpanEvent) {
        if ev.target.starts_with(TARGET_PREFIX) {
            self.0.on_event(ev);
        }
    }
}

/// Runs `f` with tracing on (when `on`) and returns the benchmark's
/// spans, oldest first. `cap` bounds the ring; a run that overflows it
/// is reported as an error rather than silently losing spans.
pub fn capture<R>(on: bool, cap: usize, f: impl FnOnce() -> R) -> (R, Vec<SpanEvent>) {
    if !on {
        return (f(), Vec::new());
    }
    let ring = RingCollector::new(cap);
    let r = blameit_obs::with_subscriber(Arc::new(BenchOnly(Arc::clone(&ring))), f);
    let events = ring.events();
    assert!(
        events.len() < cap,
        "span ring of {cap} filled up; raise the capacity"
    );
    (r, events)
}

/// Per span name: count, total and self time (nanoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// Groups spans by `target/name` and computes self time: a span's
/// duration minus the part of it its direct children cover. Children
/// are found by interval containment, so the spans must come from one
/// thread (the benchmark's spans all do).
pub fn self_times(events: &[SpanEvent]) -> BTreeMap<String, SpanTotals> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Parents before children: earlier start first, longer first on ties.
    order.sort_by_key(|&i| (events[i].start_ns, std::cmp::Reverse(events[i].duration_ns)));
    let end = |i: usize| events[i].start_ns + events[i].duration_ns;
    let mut child_ns = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while stack.last().is_some_and(|&p| end(p) <= events[i].start_ns) {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            child_ns[p] += events[i].duration_ns;
        }
        stack.push(i);
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let t = out.entry(format!("{}/{}", ev.target, ev.name)).or_default();
        t.count += 1;
        t.total_ns += ev.duration_ns;
        t.self_ns += ev.duration_ns.saturating_sub(child_ns[i]);
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, events: &[SpanEvent]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        writeln!(w, "{}", ev.to_json())?;
    }
    w.flush()
}

/// Human-readable self-time table.
pub fn render(totals: &BTreeMap<String, SpanTotals>) -> String {
    let mut s = format!(
        "{:<36} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in totals {
        s.push_str(&format!(
            "{:<36} {:>8} {:>12.3} {:>12.3}\n",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_obs::span;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let (_, events) = capture(true, 64, || {
            let _outer = span!("perfbench::t", "outer", req = 1u64);
            for _ in 0..2 {
                let _mid = span!("perfbench::t", "mid", req = 1u64);
                let _inner = span!("perfbench::t", "inner", req = 1u64);
                std::hint::black_box((0..10_000u64).sum::<u64>());
            }
            // Engine-style spans are filtered out.
            let _other = span!("blameit::pipeline", "tick");
        });
        assert_eq!(events.len(), 5);
        let t = self_times(&events);
        let outer = t["perfbench::t/outer"];
        let mid = t["perfbench::t/mid"];
        let inner = t["perfbench::t/inner"];
        assert_eq!((outer.count, mid.count, inner.count), (1, 2, 2));
        assert_eq!(outer.self_ns, outer.total_ns - mid.total_ns);
        assert_eq!(mid.self_ns, mid.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let (v, events) = capture(false, 4, || {
            let _s = span!("perfbench::t", "x");
            7
        });
        assert_eq!(v, 7);
        assert!(events.is_empty());
    }
}
