//! `mcsim-obs` — the observability substrate for the LOAM reproduction.
//!
//! A lightweight, zero-dependency metrics + tracing layer threaded through
//! the optimize→execute→featurize→train→infer pipeline. Four primitives:
//!
//! * **Counters** ([`counter`]) — monotonically increasing event counts
//!   (plans explored, stages executed, cache hits, …).
//! * **Gauges** ([`gauge`]) — last-write-wins point samples (GRL λ,
//!   cluster utilization, …).
//! * **Histograms** ([`observe`]) — log₂-bucketed value distributions
//!   (losses, queue waits, allocation sizes, …).
//! * **Spans** ([`span`]) — RAII wall-clock timers that nest into a
//!   `parent/child` path per thread (`fig6/train/epoch`, …).
//!
//! Events flow to a process-global [`Recorder`]. Inside a
//! [`trace::TraceContext::scope`], spans also land in that per-query trace
//! (see [`trace`]). By default no recorder is installed and no trace is
//! entered, and every entry point reduces to one relaxed atomic load —
//! instrumentation in hot paths costs ~nothing when observability is off.
//! Install the bundled [`InMemoryRecorder`] (or your own `Recorder` impl)
//! with [`install`] to start collecting; take a [`MetricsSnapshot`] to
//! render everything as JSON without any serde dependency.
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(mcsim_obs::InMemoryRecorder::new());
//! mcsim_obs::install(rec.clone());
//! {
//!     let _outer = mcsim_obs::span("optimize");
//!     mcsim_obs::counter("optimizer.plans_explored", 12);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("optimizer.plans_explored"), 12);
//! mcsim_obs::uninstall();
//! ```

pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------- recorder

/// Sink for observability events. All methods default to no-ops so custom
/// recorders implement only what they need.
///
/// Implementations must be cheap and non-blocking where possible: events
/// arrive from the simulator's hot paths (though never from per-tick inner
/// loops) and from multiple threads at once.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter `name`.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation of `value` in the histogram `name`.
    fn observe(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Reports a finished span. `path` is the slash-joined nesting path
    /// (including `name` as its last segment); `seconds` is wall-clock.
    fn span_complete(&self, path: &str, name: &'static str, seconds: f64) {
        let _ = (path, name, seconds);
    }
}

/// A recorder that drops every event. Installing it is equivalent to (but
/// slower than) having no recorder installed; it exists for tests and for
/// explicitly overriding an inherited recorder.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Bit 0 is set while a recorder is installed; the bits above count the
/// trace scopes ([`trace::TraceContext::scope`], [`trace::untraced`])
/// entered on any thread.
/// Every entry point reads it once, relaxed: zero means there is nothing
/// to record. It publishes no data — the recorder is read under its lock,
/// and a scope's trace lives in the entering thread's own local.
static STATE: AtomicUsize = AtomicUsize::new(0);
const RECORDER_BIT: usize = 1;
/// What one entered trace scope adds to [`STATE`].
const SCOPE_UNIT: usize = 2;

static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the process-global sink, returning the previous
/// one (if any). Keep a clone of your `Arc` to read results later.
pub fn install(recorder: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    let prev = slot.replace(recorder);
    STATE.fetch_or(RECORDER_BIT, Ordering::Release);
    prev
}

/// Removes the global recorder, returning it. Afterwards every entry point
/// is a single relaxed atomic load again (unless a trace is entered).
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    STATE.fetch_and(!RECORDER_BIT, Ordering::Release);
    slot.take()
}

/// True if a recorder is currently installed.
#[inline]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) & RECORDER_BIT != 0
}

/// True while any thread is inside a trace scope.
#[inline]
fn tracing() -> bool {
    STATE.load(Ordering::Relaxed) >= SCOPE_UNIT
}

#[inline]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    let guard = RECORDER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(rec) = guard.as_deref() {
        f(rec);
    }
}

/// Adds `delta` to the counter `name` on the installed recorder, if any.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    with_recorder(|r| r.counter(name, delta));
}

/// Sets the gauge `name` to `value` on the installed recorder, if any.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    with_recorder(|r| r.gauge(name, value));
}

/// Records `value` in the histogram `name` on the installed recorder.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    with_recorder(|r| r.observe(name, value));
}

// ---------------------------------------------------------------- spans

thread_local! {
    /// The spans open on this thread, innermost last, with the ids their
    /// guards pop them by.
    static SPAN_STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);

/// RAII guard for a timed, hierarchically named region. Created by
/// [`span`]; reports to the recorder on drop, and closes its twin span in
/// the current trace (if one was entered when it opened).
#[must_use = "a span measures until dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    timed: Option<TimedSpan>,
    trace: trace::TraceSpan,
}

/// The recorder half of an open [`Span`].
struct TimedSpan {
    id: u64,
    path: String,
    start: Instant,
}

/// Opens a span named `name`, nested under any span already open on this
/// thread. With a recorder installed it is timed and reported under its
/// slash-joined path; inside a trace scope it also opens a span of that
/// name in the current trace. With neither, this is one relaxed atomic
/// load: no clock read, no allocation, nothing reported on drop.
pub fn span(name: &'static str) -> Span {
    let state = STATE.load(Ordering::Relaxed);
    let timed = (state & RECORDER_BIT != 0).then(|| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let mut path = String::new();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            for (_, parent) in s.iter() {
                path.push_str(parent);
                path.push('/');
            }
            s.push((id, name));
        });
        path.push_str(name);
        TimedSpan {
            id,
            path,
            start: Instant::now(),
        }
    });
    let trace = if state >= SCOPE_UNIT {
        trace::span(name)
    } else {
        trace::TraceSpan::inert()
    };
    Span { name, timed, trace }
}

impl Span {
    /// The span's own (leaf) name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attaches a key/value attribute to the span's trace twin; a no-op
    /// outside a trace scope (the recorder keeps no attributes).
    pub fn attr(&self, key: &str, value: impl Into<trace::AttrValue>) {
        self.trace.attr(key, value);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(timed) = self.timed.take() else {
            return;
        };
        let seconds = timed.start.elapsed().as_secs_f64();
        // Pop by identity: guards can be dropped out of order. Everything
        // above this span is a still-open descendant; it leaves the stack
        // with its parent so later spans do not nest under a closed one.
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == timed.id) {
                s.truncate(pos);
            }
        });
        with_recorder(|r| r.span_complete(&timed.path, self.name, seconds));
    }
}

/// A monotonic stopwatch for code that wants an explicit duration rather
/// than RAII scoping (e.g. to store alongside other results).
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts the stopwatch.
    pub fn start() -> Timer {
        Timer {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Timer::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records the elapsed time into histogram `name` and returns it.
    pub fn observe_as(&self, name: &'static str) -> f64 {
        let secs = self.elapsed_seconds();
        observe(name, secs);
        secs
    }
}

// ---------------------------------------------------------------- histogram

/// Number of log₂ buckets per histogram: exponents −32..=31.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log₂-scale histogram: bucket `i` counts values with
/// `floor(log2(v)) == i - 32`, clamped at both ends; non-positive values
/// land in bucket 0. Also tracks count/sum/min/max exactly.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket occupancy, by exponent (see [`Histogram::bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// The bucket index `value` falls into.
    pub fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let exp = value.log2().floor() as i64;
        (exp.clamp(-32, 31) + 32) as usize
    }

    /// The inclusive-exclusive value range `[lo, hi)` bucket `i` covers.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let exp = i as i64 - 32;
        (2f64.powi(exp as i32), 2f64.powi(exp as i32 + 1))
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of all observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the log₂ buckets:
    /// walks buckets to the cumulative target and interpolates linearly
    /// inside the target bucket, clamped to the exact observed `[min, max]`.
    /// Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                // Position of the target within this bucket's occupancy.
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - cum as f64) / n as f64).clamp(0.0, 1.0)
                };
                let est = lo + frac * (hi - lo);
                return est.clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }

    /// Median estimate (see [`Histogram::percentile`]).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

// ------------------------------------------------------------- in-memory

/// Aggregate statistics for one span path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// How many times the span completed.
    pub count: u64,
    /// Total wall-clock seconds across completions.
    pub total_s: f64,
    /// Fastest single completion.
    pub min_s: f64,
    /// Slowest single completion.
    pub max_s: f64,
}

#[derive(Default)]
struct InMemoryInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

/// A thread-safe recorder aggregating everything in memory, for tests and
/// for the bench harness's JSON metrics reports. Span stats aggregate by
/// path, so millions of span completions stay O(distinct paths) in memory.
#[derive(Default)]
pub struct InMemoryRecorder {
    inner: Mutex<InMemoryInner>,
}

impl InMemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            spans: inner.spans.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }

    /// Discards everything recorded so far.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner = InMemoryInner::default();
    }
}

impl Recorder for InMemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.gauges.insert(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.histograms.entry(name).or_default().record(value);
    }

    fn span_complete(&self, path: &str, _name: &'static str, seconds: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let stat = inner.spans.entry(path.to_string()).or_insert(SpanStat {
            count: 0,
            total_s: 0.0,
            min_s: f64::INFINITY,
            max_s: f64::NEG_INFINITY,
        });
        stat.count += 1;
        stat.total_s += seconds;
        stat.min_s = stat.min_s.min(seconds);
        stat.max_s = stat.max_s.max(seconds);
    }
}

// -------------------------------------------------------------- snapshot

/// A point-in-time copy of an [`InMemoryRecorder`]'s contents, ordered
/// deterministically (sorted by name/path), renderable as JSON.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Span statistics by slash-joined path.
    pub spans: Vec<(String, SpanStat)>,
}

impl MetricsSnapshot {
    /// The counter's total, or 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The gauge's last value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram by name, if any values were observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// The span stats for an exact path, if that span ever completed.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|(k, _)| k == path).map(|(_, v)| v)
    }

    /// Total seconds across all spans whose path equals `path` or starts
    /// with `path` followed by `/` — i.e. a subtree's own root time.
    pub fn span_total_seconds(&self, path: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(k, _)| k == path)
            .map(|(_, v)| v.total_s)
            .sum()
    }

    /// Renders the snapshot as pretty-printed JSON. Zero-dependency by
    /// design: this crate must stay usable from every layer without
    /// pulling serde into the dependency graph.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        close_obj(&mut out, !self.counters.is_empty(), "  ");
        out.push_str(",\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_str(&mut out, k);
            out.push_str(": ");
            push_json_f64(&mut out, *v);
        }
        close_obj(&mut out, !self.gauges.is_empty(), "  ");
        out.push_str(",\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_str(&mut out, k);
            out.push_str(&format!(": {{\"count\": {}, \"sum\": ", h.count));
            push_json_f64(&mut out, h.sum);
            out.push_str(", \"mean\": ");
            push_json_f64(&mut out, h.mean());
            out.push_str(", \"min\": ");
            push_json_f64(&mut out, if h.count == 0 { 0.0 } else { h.min });
            out.push_str(", \"max\": ");
            push_json_f64(&mut out, if h.count == 0 { 0.0 } else { h.max });
            out.push_str(", \"p50\": ");
            push_json_f64(&mut out, h.p50());
            out.push_str(", \"p95\": ");
            push_json_f64(&mut out, h.p95());
            out.push_str(", \"p99\": ");
            push_json_f64(&mut out, h.p99());
            out.push_str(", \"log2_buckets\": {");
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("\"{}\": {n}", b as i64 - 32));
            }
            out.push_str("}}");
        }
        close_obj(&mut out, !self.histograms.is_empty(), "  ");
        out.push_str(",\n  \"spans\": {");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_str(&mut out, k);
            out.push_str(&format!(": {{\"count\": {}, \"total_s\": ", s.count));
            push_json_f64(&mut out, s.total_s);
            out.push_str(", \"min_s\": ");
            push_json_f64(&mut out, s.min_s);
            out.push_str(", \"max_s\": ");
            push_json_f64(&mut out, s.max_s);
            out.push('}');
        }
        close_obj(&mut out, !self.spans.is_empty(), "  ");
        out.push_str("\n}");
        out
    }
}

fn push_sep(out: &mut String, i: usize, indent: &str) {
    if i > 0 {
        out.push(',');
    }
    out.push('\n');
    out.push_str(indent);
}

fn close_obj(out: &mut String, had_entries: bool, indent: &str) {
    if had_entries {
        out.push('\n');
        out.push_str(indent);
    }
    out.push('}');
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn push_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Install/uninstall race protection: the global recorder is shared by
    /// every `#[test]` thread in this binary, so tests that install one
    /// serialize on this lock.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn histogram_bucketing_is_log2() {
        // Exact powers of two land in their own exponent's bucket...
        assert_eq!(Histogram::bucket_index(1.0), 32);
        assert_eq!(Histogram::bucket_index(2.0), 33);
        assert_eq!(Histogram::bucket_index(4.0), 34);
        // ...values in (2^k, 2^(k+1)) share bucket k...
        assert_eq!(Histogram::bucket_index(3.0), 33);
        assert_eq!(Histogram::bucket_index(0.75), 31);
        // ...and the edges clamp instead of overflowing.
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-5.0), 0);
        assert_eq!(Histogram::bucket_index(1e-300), 0);
        assert_eq!(Histogram::bucket_index(1e300), 63);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), 0);

        let (lo, hi) = Histogram::bucket_bounds(33);
        assert_eq!((lo, hi), (2.0, 4.0));

        let mut h = Histogram::default();
        for v in [1.0, 1.5, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[32], 2); // 1.0 and 1.5
        assert_eq!(h.buckets[33], 1); // 3.0
        assert_eq!(h.buckets[38], 1); // 100.0 in [64, 128)
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 26.375).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let empty = Histogram::default();
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.percentile(0.99), 0.0);

        // A single value: every percentile clamps to it exactly.
        let mut one = Histogram::default();
        one.record(5.0);
        assert_eq!(one.p50(), 5.0);
        assert_eq!(one.p99(), 5.0);

        // 100 values spread over [1, 2) ... [512, 1024): percentile walks
        // buckets in order and stays within the observed range.
        let mut h = Histogram::default();
        for i in 0..100u32 {
            h.record(2f64.powi((i % 10) as i32) * 1.5);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 >= h.min && p50 <= h.max);
        assert!(p95 >= p50 && p99 >= p95, "monotone: {p50} {p95} {p99}");
        assert!(p99 <= h.max);
        // The top decile lives in the [512, 1024) bucket.
        assert!(p95 >= 512.0, "p95 = {p95}");
        // p0/p100 clamp to the exact extremes.
        assert_eq!(h.percentile(0.0), h.min);
        assert_eq!(h.percentile(1.0), h.max);
    }

    #[test]
    fn snapshot_json_includes_percentiles() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        for v in [1.0, 2.0, 4.0, 8.0] {
            observe("pct.hist", v);
        }
        uninstall();
        let json = rec.snapshot().to_json();
        for needle in ["\"p50\":", "\"p95\":", "\"p99\":"] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        {
            let _a = span("outer");
            {
                let _b = span("inner");
                let _c = span("leaf");
            }
            {
                let _b2 = span("inner");
            }
        }
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("outer/inner").unwrap().count, 2);
        assert_eq!(snap.span("outer/inner/leaf").unwrap().count, 1);
        assert!(snap.span("inner").is_none(), "no orphan paths");
        let outer = snap.span("outer").unwrap();
        assert!(outer.total_s >= snap.span("outer/inner").unwrap().total_s);
    }

    #[test]
    fn out_of_order_drops_keep_later_paths_clean() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        let a = span("a");
        let b = span("b");
        drop(a);
        drop(b);
        drop(span("c"));
        uninstall();
        let snap = rec.snapshot();
        let paths: Vec<(&str, u64)> = snap
            .spans
            .iter()
            .map(|(p, s)| (p.as_str(), s.count))
            .collect();
        assert_eq!(paths, [("a", 1), ("a/b", 1), ("c", 1)]);
    }

    #[test]
    fn aggregate_spans_twin_into_the_trace_with_attrs() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ctx = trace::TraceContext::new("twin");
        ctx.scope(|| {
            let s = span("optimize");
            s.attr("query_id", 9u64);
            drop(span("leaf"));
        });
        // Outside the scope the same calls leave the trace alone.
        span("optimize").attr("query_id", 10u64);
        let spans = ctx.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "optimize");
        assert_eq!(
            spans[0].attrs,
            [("query_id".to_string(), trace::AttrValue::U64(9))]
        );
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn trace_only_spans_leave_recorder_paths_unchanged() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        let ctx = trace::TraceContext::new("paths");
        ctx.scope(|| {
            let _q = trace::span("query");
            drop(span("optimize"));
        });
        uninstall();
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["optimize"], "the trace-only span adds no path");
        let names: Vec<String> = ctx.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["query", "optimize"]);
    }

    #[test]
    fn recorder_swap_returns_previous_and_redirects_events() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let first = Arc::new(InMemoryRecorder::new());
        let second = Arc::new(InMemoryRecorder::new());

        assert!(install(first.clone()).is_none());
        counter("swap.test", 1);

        let prev = install(second.clone()).expect("first was installed");
        counter("swap.test", 10);
        prev.counter("swap.direct", 5); // returned handle still usable

        uninstall();
        counter("swap.test", 100); // no recorder: dropped

        assert_eq!(first.snapshot().counter("swap.test"), 1);
        assert_eq!(first.snapshot().counter("swap.direct"), 5);
        assert_eq!(second.snapshot().counter("swap.test"), 10);
        assert!(!enabled());
    }

    #[test]
    fn counters_gauges_and_histograms_aggregate() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        for i in 0..10 {
            counter("agg.events", 2);
            gauge("agg.level", i as f64);
            observe("agg.value", 2f64.powi(i));
        }
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("agg.events"), 20);
        assert_eq!(snap.gauge("agg.level"), Some(9.0));
        let h = snap.histogram("agg.value").unwrap();
        assert_eq!(h.count, 10);
        for i in 0..10 {
            assert_eq!(h.buckets[32 + i], 1, "bucket {i}");
        }
    }

    #[test]
    fn disabled_paths_report_nothing_and_spans_are_inert() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = uninstall(); // ensure clean state
        counter("dead.counter", 1);
        let s = span("dead.span");
        assert_eq!(s.name(), "dead.span");
        drop(s);
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        uninstall();
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn snapshot_json_is_well_formed_and_complete() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        counter("json.count", 3);
        gauge("json.gauge", 1.25);
        observe("json.hist", 3.0);
        {
            let _s = span("json_root");
            let _t = span("child");
        }
        uninstall();
        let json = rec.snapshot().to_json();
        for needle in [
            "\"counters\"",
            "\"json.count\": 3",
            "\"json.gauge\": 1.25",
            "\"json.hist\"",
            "\"log2_buckets\": {\"1\": 1}",
            "\"json_root/child\"",
            "\"total_s\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces ⇒ structurally plausible JSON (the serde_json
        // shim can't be used here: zero dependencies).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
    }

    #[test]
    fn timer_measures_and_observes() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        let t = Timer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        let secs = t.observe_as("timer.test");
        uninstall();
        assert!(secs >= 0.0);
        assert_eq!(rec.snapshot().histogram("timer.test").unwrap().count, 1);
    }
}
