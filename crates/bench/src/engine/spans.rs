//! Campaign spans: structured wall-clock begin/end intervals across the
//! engine's phases (plan → prepare → dedupe → cache → simulate → render)
//! and every individual simulation, exported as Chrome trace-event JSON.
//!
//! The engine always records spans — one mutex push per phase or run is
//! noise next to a millisecond-scale simulation — because the per-run
//! durations feed the planner telemetry's timing summary on every
//! campaign. The full span log is only *exported* when the user asks
//! (`lf-bench run --trace-out trace.json`); the file loads directly in
//! Perfetto (ui.perfetto.dev) or `chrome://tracing`.
//!
//! Wall-clock data never touches scenario artifacts or the run cache:
//! spans live in [`crate::engine::PlannerReport`] and the side-channel
//! trace file, both of which are already run-to-run varying.

use lf_stats::Json;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One completed span: a named wall-clock interval on one worker thread.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (phase name, scenario name, or kernel name).
    pub name: String,
    /// Category: `phase`, `plan`, `prepare`, `run`, or `render`.
    pub cat: &'static str,
    /// Start, in microseconds since the log's origin.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small integer identifying the recording thread (0 = first seen,
    /// usually the engine's own thread).
    pub tid: u64,
}

#[derive(Default)]
struct Inner {
    events: Vec<SpanEvent>,
    threads: HashMap<ThreadId, u64>,
}

/// A thread-safe log of campaign spans, shared by the engine and its
/// worker pool. Create once per invocation, wrap in an [`Arc`], and open
/// spans with [`SpanLog::span`]; the RAII guard records the interval when
/// dropped.
pub struct SpanLog {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// Creates an empty log; timestamps are relative to this moment.
    pub fn new() -> SpanLog {
        SpanLog { origin: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    /// Opens a span; the returned guard records it on drop. Nest freely —
    /// Perfetto stacks overlapping spans of one thread by start time.
    pub fn span(self: &Arc<Self>, cat: &'static str, name: impl Into<String>) -> SpanGuard {
        SpanGuard { log: self.clone(), cat, name: name.into(), start: Instant::now() }
    }

    fn record(&self, cat: &'static str, name: String, start: Instant, end: Instant) {
        let ts_us = start.duration_since(self.origin).as_micros() as u64;
        let dur_us = end.duration_since(start).as_micros() as u64;
        let thread = std::thread::current().id();
        let mut inner = self.inner.lock().expect("span log poisoned");
        let next = inner.threads.len() as u64;
        let tid = *inner.threads.entry(thread).or_insert(next);
        inner.events.push(SpanEvent { name, cat, ts_us, dur_us, tid });
    }

    /// Snapshot of every recorded span, sorted by start time (then name,
    /// for a stable order among simultaneous starts).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut evs = self.inner.lock().expect("span log poisoned").events.clone();
        evs.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then_with(|| a.name.cmp(&b.name)));
        evs
    }

    /// The durations (µs) of every span in category `cat`, in recording
    /// order — the raw series behind the planner's timing summary.
    pub fn durations_us(&self, cat: &str) -> Vec<u64> {
        self.inner
            .lock()
            .expect("span log poisoned")
            .events
            .iter()
            .filter(|e| e.cat == cat)
            .map(|e| e.dur_us)
            .collect()
    }

    /// Renders the log as Chrome trace-event JSON (the `traceEvents`
    /// array format): one complete (`ph: "X"`) event per span, all under
    /// `pid` 1, loadable in Perfetto and `chrome://tracing` as-is.
    pub fn to_chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .events()
            .iter()
            .map(|e| {
                let mut j = Json::obj();
                j.set("name", e.name.as_str());
                j.set("cat", e.cat);
                j.set("ph", "X");
                j.set("ts", e.ts_us);
                j.set("dur", e.dur_us);
                j.set("pid", 1u64);
                j.set("tid", e.tid);
                j
            })
            .collect();
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Arr(events));
        doc.set("displayTimeUnit", "ms");
        doc
    }
}

/// RAII guard for one open span; records the interval into its log when
/// dropped. Hold it for exactly the work the span should cover.
pub struct SpanGuard {
    log: Arc<SpanLog>,
    cat: &'static str,
    name: String,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.log.record(self.cat, std::mem::take(&mut self.name), self.start, Instant::now());
    }
}

/// Five-number summary of a duration series, embedded in the planner
/// telemetry (`run_wall_us`) so every campaign records how its per-run
/// wall times were distributed without shipping the raw series.
#[derive(Debug, Clone, Default)]
pub struct DurationSummary {
    /// Number of samples.
    pub count: usize,
    /// Mean duration, µs.
    pub mean_us: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
}

impl DurationSummary {
    /// Summarizes `durations` (empty input yields the all-zero summary).
    pub fn from_durations(durations: &[u64]) -> DurationSummary {
        if durations.is_empty() {
            return DurationSummary::default();
        }
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        let pct = |p: f64| -> u64 {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        DurationSummary {
            count: sorted.len(),
            mean_us: sorted.iter().sum::<u64>() / sorted.len() as u64,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            max_us: *sorted.last().expect("non-empty"),
        }
    }

    /// The planner-telemetry JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("count", self.count as u64);
        j.set("mean_us", self.mean_us);
        j.set("p50_us", self.p50_us);
        j.set("p90_us", self.p90_us);
        j.set("max_us", self.max_us);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_order() {
        let log = Arc::new(SpanLog::new());
        {
            let _outer = log.span("phase", "simulate");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = log.span("run", "stencil_blur");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        // Sorted by start: the outer phase opened first.
        let (outer, inner) = (&evs[0], &evs[1]);
        assert_eq!(outer.name, "simulate");
        assert_eq!(inner.name, "stencil_blur");
        // The inner span lies within the outer interval.
        assert!(inner.ts_us >= outer.ts_us, "inner starts after outer");
        assert!(
            inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us,
            "inner ends before outer"
        );
        assert_eq!(outer.tid, inner.tid, "same thread");
    }

    #[test]
    fn spans_from_worker_threads_get_distinct_tids() {
        let log = Arc::new(SpanLog::new());
        let _main = log.span("phase", "simulate");
        let l2 = log.clone();
        std::thread::spawn(move || {
            let _s = l2.span("run", "worker_span");
        })
        .join()
        .unwrap();
        drop(_main);
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        let tids: std::collections::HashSet<u64> = evs.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two threads, two tids");
    }

    #[test]
    fn chrome_json_schema() {
        let log = Arc::new(SpanLog::new());
        {
            let _s = log.span("run", "hash_lookup");
        }
        let doc = log.to_chrome_json();
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).expect("trace JSON parses back");
        assert_eq!(back.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
        let evs = back.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("hash_lookup"));
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("run"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(e.get(key).and_then(Json::as_u64).is_some(), "numeric field {key}");
        }
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1), "one campaign, one process row");
    }

    #[test]
    fn duration_summary_percentiles() {
        let s = DurationSummary::from_durations(&[10, 20, 30, 40, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_us, 40);
        assert_eq!(s.p50_us, 30);
        assert_eq!(s.p90_us, 100);
        assert_eq!(s.max_us, 100);
        assert_eq!(DurationSummary::from_durations(&[]).count, 0);
    }

    #[test]
    fn durations_filter_by_category() {
        let log = Arc::new(SpanLog::new());
        {
            let _a = log.span("run", "a");
            let _b = log.span("phase", "b");
        }
        assert_eq!(log.durations_us("run").len(), 1);
        assert_eq!(log.durations_us("phase").len(), 1);
        assert_eq!(log.durations_us("render").len(), 0);
    }
}
