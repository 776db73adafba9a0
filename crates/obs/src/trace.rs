//! Per-query structured tracing: span trees, decision provenance, and
//! executor scheduling timelines.
//!
//! The process-global [`Recorder`](crate::Recorder) aggregates *across*
//! queries; a [`TraceContext`] records *one* query's (or one pipeline
//! run's) story — which phases ran when, which candidate plans were scored
//! and why one was chosen, what the deployment gate saw, and which cluster
//! machines each executor stage actually ran on.
//!
//! A trace is ambient: [`TraceContext::scope`] makes it the calling thread's
//! current trace for the length of a closure (restored on return and on
//! unwind), and library functions take no trace parameter. Inside a scope
//! every [`crate::span`] also opens a span in the trace, [`span`] opens a
//! trace-only span (for per-query grouping that must not add recorder
//! paths), [`decision`] records a lazily built [`Decision`], and the
//! executor records one [`StageExecEvent`] per stage attempt. `mcsim-par`
//! fan-outs enter the caller's trace on their workers; no other thread
//! inherits it. [`untraced`] hides the trace from a closure: flighting
//! replays and the deployment gate's per-query guarded choice run under it.
//! With no scope entered and no recorder installed, every entry point is one
//! relaxed atomic load.
//!
//! A finished trace exports two ways, both zero-dependency:
//!
//! * [`TraceContext::to_chrome_json`] — the Chrome trace-event format,
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev>. Wall-clock
//!   spans and decision instants render under pid 1 (one row per thread);
//!   the executor timeline renders under pid 2 with one row per cluster
//!   machine, on simulated time (1 tick = 1 ms of trace time).
//! * [`TraceContext::to_text_report`] — a terminal waterfall plus a decision
//!   audit and a per-stage scheduling summary.
//!
//! ```
//! use mcsim_obs::trace::{self, TraceContext};
//!
//! let ctx = TraceContext::new("query 42");
//! ctx.scope(|| {
//!     let opt = mcsim_obs::span("optimize");
//!     opt.attr("query_id", 42u64);
//!     let _explore = trace::span("explore"); // nests under `optimize`
//! });
//! assert_eq!(ctx.span_count(), 2);
//! assert!(trace::current().is_none(), "the scope restored the thread");
//! let json = ctx.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

use crate::{push_json_f64, push_json_str};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

// ------------------------------------------------------------- attributes

/// A span attribute value. Built via `From` impls so call sites can write
/// `span.attr("query_id", 42u64)`.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute.
    Str(String),
    /// A float attribute.
    F64(f64),
    /// A signed integer attribute.
    I64(i64),
    /// An unsigned integer attribute (also used for ids/signatures).
    U64(u64),
    /// A boolean attribute.
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    fn push_json(&self, out: &mut String) {
        match self {
            AttrValue::Str(s) => push_json_str(out, s),
            AttrValue::F64(x) => push_json_f64(out, *x),
            AttrValue::I64(n) => out.push_str(&n.to_string()),
            AttrValue::U64(n) => out.push_str(&n.to_string()),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::F64(x) => write!(f, "{x:.4}"),
            AttrValue::I64(n) => write!(f, "{n}"),
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

// ------------------------------------------------------------------ spans

/// One node of the trace's span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (phase or operation).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Logical thread lane the span was opened on (0 = the context's first
    /// thread). Becomes the `tid` in Chrome export.
    pub track: u32,
    /// Start, microseconds since the context was created.
    pub start_us: u64,
    /// End, microseconds since the context was created; `None` while open.
    pub end_us: Option<u64>,
    /// Key/value attributes attached via [`TraceSpan::attr`].
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanNode {
    /// The span's duration in microseconds (`fallback_us` while still open).
    pub fn duration_us(&self, fallback_us: u64) -> u64 {
        self.end_us
            .unwrap_or(fallback_us.max(self.start_us))
            .saturating_sub(self.start_us)
    }
}

/// RAII guard for one traced span. Ends the span (records `end_us`) on
/// drop. Spans opened on the same thread while this guard lives become its
/// children. An inert guard (from [`span`] outside any trace scope) does
/// nothing.
#[must_use = "a trace span measures until dropped; binding it to `_` drops it immediately"]
pub struct TraceSpan {
    open: Option<(TraceContext, usize)>,
}

impl TraceSpan {
    /// A guard that records nothing.
    pub(crate) const fn inert() -> TraceSpan {
        TraceSpan { open: None }
    }

    /// Attaches a key/value attribute to the span.
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        if let Some((ctx, id)) = &self.open {
            ctx.lock().spans[*id]
                .attrs
                .push((key.to_string(), value.into()));
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some((ctx, id)) = self.open.take() else {
            return;
        };
        let now = ctx.elapsed_us();
        let mut inner = ctx.lock();
        let track = inner.spans[id].track as usize;
        // Pop by identity: guards can legally be dropped out of order (e.g.
        // a Vec of guards drops front-to-back, parents first). Everything
        // above this span on its thread stack is a still-open descendant;
        // force-close it at the parent's end so the exported tree stays
        // well-nested — a child outliving its parent would otherwise render
        // as partially overlapping X events.
        let closed: Vec<usize> = match inner.threads.get_mut(track) {
            Some((_, stack)) => match stack.iter().rposition(|&s| s == id) {
                Some(pos) => stack.drain(pos..).collect(),
                None => Vec::new(), // already force-closed by an ancestor
            },
            None => Vec::new(),
        };
        for c in closed {
            inner.spans[c].end_us.get_or_insert(now);
        }
        inner.spans[id].end_us.get_or_insert(now);
    }
}

// -------------------------------------------------------------- decisions

/// One scored candidate inside a [`PlanSelection`] record.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Structural plan signature (`PlanSignature`-compatible fingerprint).
    pub signature: u64,
    /// The model's predicted cost for this candidate.
    pub predicted_cost: f64,
    /// True if this candidate is the native optimizer's default plan.
    pub is_default: bool,
}

/// How a guarded plan selection resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionOutcome {
    /// The model already preferred the default plan.
    DefaultBest,
    /// A steered candidate beat the default by at least the margin.
    Accepted,
    /// The steered winner missed the confidence margin; fell back to the
    /// default plan.
    RejectedFallback,
}

impl SelectionOutcome {
    /// Stable lower-case label (used in exports).
    pub fn as_str(self) -> &'static str {
        match self {
            SelectionOutcome::DefaultBest => "default_best",
            SelectionOutcome::Accepted => "accepted",
            SelectionOutcome::RejectedFallback => "rejected_fallback",
        }
    }
}

/// Provenance of one guarded plan selection: every candidate's score, the
/// model's favourite, and what was actually chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSelection {
    /// The steered query.
    pub query_id: u64,
    /// All scored candidates, in candidate-set order.
    pub candidates: Vec<CandidateScore>,
    /// Index of the native optimizer's default plan.
    pub default_idx: usize,
    /// Index of the model's cheapest prediction.
    pub best_idx: usize,
    /// Index of the plan actually chosen after the margin guard.
    pub chosen_idx: usize,
    /// The confidence margin the guard required.
    pub margin: f64,
    /// How the selection resolved.
    pub outcome: SelectionOutcome,
}

/// The deployment gate's verdict with its supporting evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct GateVerdict {
    /// Average steered cost / average native cost.
    pub avg_ratio: f64,
    /// Worst per-query chosen/default cost ratio.
    pub worst_tail_ratio: f64,
    /// Fraction of queries regressing by more than 2 %.
    pub regression_fraction: f64,
    /// No-net-regression criterion.
    pub passes_avg: bool,
    /// Tail-risk criterion.
    pub passes_tail: bool,
    /// Regression-fraction criterion.
    pub passes_regressions: bool,
    /// The overall deployment decision.
    pub deploy: bool,
}

/// One project's rule-based filter outcome (Section 6, R1–R3).
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectFilter {
    /// The filtered project.
    pub project: u64,
    /// Average queries per day over the sampled window.
    pub n_query: f64,
    /// Mean day-over-day query-count ratio.
    pub query_inc_ratio: f64,
    /// Fraction of queries touching only long-lived tables.
    pub stable_table_ratio: f64,
    /// R1 (volume) outcome.
    pub passes_r1: bool,
    /// R2 (growth) outcome.
    pub passes_r2: bool,
    /// R3 (stability) outcome.
    pub passes_r3: bool,
    /// Conjunction of the three rules.
    pub selected: bool,
}

/// The Ranker's project ordering: `(project, score)` pairs, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectRanking {
    /// Ranked projects with their mean estimated improvement space.
    pub scores: Vec<(u64, f64)>,
}

/// A recorded fallback with its human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Fallback {
    /// The affected query.
    pub query_id: u64,
    /// Why the steered plan was not used.
    pub reason: String,
}

/// A typed decision record: why the pipeline did what it did.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Guarded candidate-plan selection (candidate scores + chosen plan).
    PlanSelection(PlanSelection),
    /// Pre-deployment gate verdict with evidence.
    GateVerdict(GateVerdict),
    /// Rule-based project filter outcome.
    ProjectFilter(ProjectFilter),
    /// Learned Ranker project ordering.
    ProjectRanking(ProjectRanking),
    /// A fallback to the default plan, with its reason.
    Fallback(Fallback),
}

impl Decision {
    /// Stable event name used in exports (`decision.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::PlanSelection(_) => "decision.plan_selection",
            Decision::GateVerdict(_) => "decision.gate_verdict",
            Decision::ProjectFilter(_) => "decision.project_filter",
            Decision::ProjectRanking(_) => "decision.project_ranking",
            Decision::Fallback(_) => "decision.fallback",
        }
    }
}

// --------------------------------------------------------------- timeline

/// One executor stage's scheduling record: where it ran and for how long,
/// in simulated cluster time.
#[derive(Debug, Clone, PartialEq)]
pub struct StageExecEvent {
    /// Stage index within the plan's stage graph.
    pub stage: usize,
    /// Ids of the machines the stage's instances were placed on.
    pub machines: Vec<u32>,
    /// Cluster tick when the stage started running.
    pub start_tick: u64,
    /// Cluster tick when the stage finished.
    pub end_tick: u64,
    /// Parallel instances Fuxi allocated.
    pub instances: usize,
    /// Queueing multiplier the stage suffered.
    pub queue_wait_factor: f64,
    /// The stage's CPU cost contribution.
    pub cost: f64,
    /// Mean busy fraction of the stage's machines over its window.
    pub busy: f64,
    /// Which execution attempt this is (0 = first run, ≥ 1 = retry after a
    /// fault-injected kill).
    pub attempt: u32,
    /// True if the attempt was killed mid-flight by the fault injector; the
    /// event's cost is then the work wasted before the kill.
    pub killed: bool,
}

// ---------------------------------------------------------------- context

struct TraceInner {
    spans: Vec<SpanNode>,
    decisions: Vec<(u64, Decision)>,
    timeline: Vec<StageExecEvent>,
    /// Per-thread open-span stacks; the vector index is the thread's track.
    threads: Vec<(ThreadId, Vec<usize>)>,
}

struct Shared {
    label: String,
    started: Instant,
    inner: Mutex<TraceInner>,
}

/// A per-query (or per-run) trace: a span tree with attributes, typed
/// decision records, and an executor scheduling timeline.
///
/// A `TraceContext` is a handle: clones share one trace. It is thread-safe;
/// spans opened on different threads land on different tracks and nest per
/// thread. Record into it explicitly ([`TraceContext::span`],
/// [`TraceContext::decision`]) or make it ambient with
/// [`TraceContext::scope`].
#[derive(Clone)]
pub struct TraceContext {
    shared: Arc<Shared>,
}

thread_local! {
    /// The trace entered on this thread, innermost scope wins.
    static CURRENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// Makes `ctx` the thread's current trace until the returned guard drops.
fn enter(ctx: Option<TraceContext>) -> Restore {
    crate::STATE.fetch_add(crate::SCOPE_UNIT, Ordering::Relaxed);
    Restore(CURRENT.with(|c| c.replace(ctx)))
}

/// Puts the previous trace back on drop, so a scope restores it on return
/// and on unwind alike.
struct Restore(Option<TraceContext>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.0.take()));
        crate::STATE.fetch_sub(crate::SCOPE_UNIT, Ordering::Relaxed);
    }
}

impl TraceContext {
    /// Creates an empty trace labelled `label` (shown in exports).
    pub fn new(label: impl Into<String>) -> TraceContext {
        TraceContext {
            shared: Arc::new(Shared {
                label: label.into(),
                started: Instant::now(),
                inner: Mutex::new(TraceInner {
                    spans: Vec::new(),
                    decisions: Vec::new(),
                    timeline: Vec::new(),
                    threads: Vec::new(),
                }),
            }),
        }
    }

    /// Runs `f` with this trace as the calling thread's current trace, then
    /// restores the previous one — on return and on unwind. Inside, every
    /// [`crate::span`], [`span`], [`decision`] and executor stage records
    /// here, and `mcsim-par` fan-outs carry the trace onto their workers.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = enter(Some(self.clone()));
        f()
    }

    /// The trace's label.
    pub fn label(&self) -> &str {
        &self.shared.label
    }

    /// Microseconds since the context was created.
    pub fn elapsed_us(&self) -> u64 {
        self.shared.started.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.shared.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span named `name`, nested under the innermost span still
    /// open on the *current thread* (threads trace independent lanes).
    pub fn span(&self, name: impl Into<String>) -> TraceSpan {
        let start_us = self.elapsed_us();
        let tid = std::thread::current().id();
        let mut inner = self.lock();
        let track = match inner.threads.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                inner.threads.push((tid, Vec::new()));
                inner.threads.len() - 1
            }
        };
        let parent = inner.threads[track].1.last().copied();
        let id = inner.spans.len();
        inner.spans.push(SpanNode {
            name: name.into(),
            parent,
            track: track as u32,
            start_us,
            end_us: None,
            attrs: Vec::new(),
        });
        inner.threads[track].1.push(id);
        TraceSpan {
            open: Some((self.clone(), id)),
        }
    }

    /// Records a typed decision at the current trace time.
    pub fn decision(&self, d: Decision) {
        let at = self.elapsed_us();
        self.lock().decisions.push((at, d));
    }

    /// Records one executor stage's scheduling event.
    pub fn stage_event(&self, ev: StageExecEvent) {
        self.lock().timeline.push(ev);
    }

    /// Number of spans recorded so far (open or closed).
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Number of decision records so far.
    pub fn decision_count(&self) -> usize {
        self.lock().decisions.len()
    }

    /// Number of executor stage events so far.
    pub fn timeline_len(&self) -> usize {
        self.lock().timeline.len()
    }

    /// Copies out the decision records, in recording order.
    pub fn decisions(&self) -> Vec<Decision> {
        self.lock()
            .decisions
            .iter()
            .map(|(_, d)| d.clone())
            .collect()
    }

    /// Copies out the span tree, in creation order.
    pub fn spans(&self) -> Vec<SpanNode> {
        self.lock().spans.clone()
    }

    /// Copies out the executor timeline, in recording order.
    pub fn timeline(&self) -> Vec<StageExecEvent> {
        self.lock().timeline.clone()
    }

    // ------------------------------------------------------ chrome export

    /// Renders the trace in Chrome trace-event JSON (the `{"traceEvents":
    /// [...]}` object form). Load the output in `chrome://tracing` or
    /// Perfetto. Zero-dependency, like
    /// [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json).
    ///
    /// Layout: pid 1 carries wall-clock span (`ph:"X"`) and decision
    /// (`ph:"I"`) events, one `tid` per traced thread; pid 2 carries the
    /// executor timeline on simulated time (1 cluster tick = 1 ms), one
    /// `tid` per cluster machine.
    pub fn to_chrome_json(&self) -> String {
        let now_us = self.elapsed_us();
        let inner = self.lock();
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":");
        push_json_str(&mut out, self.label());
        out.push_str("},\"traceEvents\":[");
        let mut first = true;

        // Process/thread metadata. Every event carries the same key set
        // (name/cat/ph/pid/tid/ts/dur/args) so consumers can parse a single
        // uniform shape.
        let meta = |out: &mut String, first: &mut bool, pid: u32, tid: u64, kind, name: &str| {
            push_event_prefix(out, first, kind, "__metadata", "M", pid, tid, 0, 0);
            out.push_str(",\"args\":{\"name\":");
            push_json_str(out, name);
            out.push_str("}}");
        };
        meta(
            &mut out,
            &mut first,
            1,
            0,
            "process_name",
            "pipeline (wall clock)",
        );
        meta(
            &mut out,
            &mut first,
            2,
            0,
            "process_name",
            "executor cluster (sim time: 1 tick = 1ms)",
        );
        for (i, _) in inner.threads.iter().enumerate() {
            meta(
                &mut out,
                &mut first,
                1,
                i as u64,
                "thread_name",
                &format!("thread {i}"),
            );
        }
        let mut machine_ids: Vec<u32> = inner
            .timeline
            .iter()
            .flat_map(|ev| ev.machines.iter().copied())
            .collect();
        machine_ids.sort_unstable();
        machine_ids.dedup();
        for &m in &machine_ids {
            meta(
                &mut out,
                &mut first,
                2,
                m as u64,
                "thread_name",
                &format!("machine {m}"),
            );
        }

        // Wall-clock spans as complete ("X") events.
        for s in &inner.spans {
            push_event_prefix(
                &mut out,
                &mut first,
                &s.name,
                "span",
                "X",
                1,
                s.track as u64,
                s.start_us,
                s.duration_us(now_us),
            );
            out.push_str(",\"args\":{");
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                v.push_json(&mut out);
            }
            out.push_str("}}");
        }

        // Decisions as instant ("I") events.
        for (at_us, d) in &inner.decisions {
            push_event_prefix(
                &mut out,
                &mut first,
                d.kind(),
                "decision",
                "I",
                1,
                0,
                *at_us,
                0,
            );
            out.push_str(",\"s\":\"p\",\"args\":");
            push_decision_args(&mut out, d);
            out.push('}');
        }

        // Executor timeline: one complete event per (stage, machine), on
        // simulated time (1 tick rendered as 1 ms = 1000 µs of trace time).
        for ev in &inner.timeline {
            let ts = ev.start_tick * 1000;
            let dur = (ev.end_tick.saturating_sub(ev.start_tick)).max(1) * 1000;
            let name = if ev.killed {
                format!("stage {} (killed)", ev.stage)
            } else {
                format!("stage {}", ev.stage)
            };
            for &m in &ev.machines {
                push_event_prefix(
                    &mut out, &mut first, &name, "executor", "X", 2, m as u64, ts, dur,
                );
                out.push_str(",\"args\":{\"stage\":");
                out.push_str(&ev.stage.to_string());
                out.push_str(",\"machine\":");
                out.push_str(&m.to_string());
                out.push_str(",\"instances\":");
                out.push_str(&ev.instances.to_string());
                out.push_str(",\"start_tick\":");
                out.push_str(&ev.start_tick.to_string());
                out.push_str(",\"end_tick\":");
                out.push_str(&ev.end_tick.to_string());
                out.push_str(",\"queue_wait_factor\":");
                push_json_f64(&mut out, ev.queue_wait_factor);
                out.push_str(",\"cost\":");
                push_json_f64(&mut out, ev.cost);
                out.push_str(",\"busy\":");
                push_json_f64(&mut out, ev.busy);
                out.push_str(",\"attempt\":");
                out.push_str(&ev.attempt.to_string());
                out.push_str(",\"killed\":");
                out.push_str(if ev.killed { "true" } else { "false" });
                out.push_str("}}");
            }
        }

        out.push_str("]}");
        out
    }

    // -------------------------------------------------------- text report

    /// Renders the trace as a compact text report: a per-thread span
    /// waterfall, the decision audit, and the executor stage timeline.
    pub fn to_text_report(&self) -> String {
        let now_us = self.elapsed_us();
        let inner = self.lock();
        let mut out = String::with_capacity(2048);
        out.push_str(&format!("=== trace: {} ===\n", self.label()));
        out.push_str(&format!(
            "spans: {}   decisions: {}   executor stage events: {}\n",
            inner.spans.len(),
            inner.decisions.len(),
            inner.timeline.len()
        ));

        // Waterfall: depth-first over the span forest, creation order.
        out.push_str("\n-- waterfall --\n");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); inner.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in inner.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((id, depth)) = stack.pop() {
            let s = &inner.spans[id];
            let ms = s.duration_us(now_us) as f64 / 1000.0;
            let mut line = format!(
                "[{:>10.3} ms {:>+10.3} ms] {}{}",
                s.start_us as f64 / 1000.0,
                ms,
                "  ".repeat(depth),
                s.name
            );
            if s.track != 0 {
                line.push_str(&format!(" (thread {})", s.track));
            }
            if !s.attrs.is_empty() {
                let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                line.push_str(&format!("  ({})", attrs.join(", ")));
            }
            if s.end_us.is_none() {
                line.push_str("  [open]");
            }
            out.push_str(&line);
            out.push('\n');
            for &c in children[id].iter().rev() {
                stack.push((c, depth + 1));
            }
        }

        // Decision audit.
        out.push_str("\n-- decision audit --\n");
        if inner.decisions.is_empty() {
            out.push_str("(no decisions recorded)\n");
        }
        for (at_us, d) in &inner.decisions {
            let at = *at_us as f64 / 1000.0;
            match d {
                Decision::PlanSelection(p) => {
                    let best = &p.candidates[p.best_idx];
                    let default = &p.candidates[p.default_idx];
                    out.push_str(&format!(
                        "[{at:>10.3} ms] plan-selection q{}: {} candidates; default #{} \
                         (sig {:#018x}, pred {:.3}); best #{} (sig {:#018x}, pred {:.3}); \
                         chosen #{} — {} (margin {:.2})\n",
                        p.query_id,
                        p.candidates.len(),
                        p.default_idx,
                        default.signature,
                        default.predicted_cost,
                        p.best_idx,
                        best.signature,
                        best.predicted_cost,
                        p.chosen_idx,
                        p.outcome.as_str(),
                        p.margin,
                    ));
                }
                Decision::GateVerdict(g) => {
                    out.push_str(&format!(
                        "[{at:>10.3} ms] gate: avg_ratio {:.4} ({}), tail {:.3} ({}), \
                         regressions {:.1}% ({}) → {}\n",
                        g.avg_ratio,
                        pass(g.passes_avg),
                        g.worst_tail_ratio,
                        pass(g.passes_tail),
                        100.0 * g.regression_fraction,
                        pass(g.passes_regressions),
                        if g.deploy { "DEPLOY" } else { "HOLD" },
                    ));
                }
                Decision::ProjectFilter(f) => {
                    out.push_str(&format!(
                        "[{at:>10.3} ms] filter project {}: n_query {:.1} ({}), \
                         inc_ratio {:.3} ({}), stable {:.3} ({}) → {}\n",
                        f.project,
                        f.n_query,
                        pass(f.passes_r1),
                        f.query_inc_ratio,
                        pass(f.passes_r2),
                        f.stable_table_ratio,
                        pass(f.passes_r3),
                        if f.selected { "selected" } else { "excluded" },
                    ));
                }
                Decision::ProjectRanking(r) => {
                    let entries: Vec<String> = r
                        .scores
                        .iter()
                        .enumerate()
                        .map(|(i, (p, s))| format!("#{} project {} ({:.4})", i + 1, p, s))
                        .collect();
                    out.push_str(&format!(
                        "[{at:>10.3} ms] ranking: {}\n",
                        entries.join(", ")
                    ));
                }
                Decision::Fallback(fb) => {
                    out.push_str(&format!(
                        "[{at:>10.3} ms] fallback q{}: {}\n",
                        fb.query_id, fb.reason
                    ));
                }
            }
        }

        // Executor timeline.
        out.push_str("\n-- executor timeline (cluster ticks) --\n");
        if inner.timeline.is_empty() {
            out.push_str("(no stage events recorded)\n");
        }
        for ev in &inner.timeline {
            let shown: Vec<String> = ev.machines.iter().take(8).map(|m| m.to_string()).collect();
            let more = if ev.machines.len() > 8 {
                format!(" +{} more", ev.machines.len() - 8)
            } else {
                String::new()
            };
            let mut fate = String::new();
            if ev.attempt > 0 {
                fate.push_str(&format!(" (attempt {})", ev.attempt + 1));
            }
            if ev.killed {
                fate.push_str(" KILLED");
            }
            out.push_str(&format!(
                "stage {:>3}: ticks {}..{} ({} tick{}), {} instance{} on machines [{}{}], \
                 queue ×{:.3}, busy {:.3}, cost {:.1}{fate}\n",
                ev.stage,
                ev.start_tick,
                ev.end_tick,
                ev.end_tick.saturating_sub(ev.start_tick).max(1),
                if ev.end_tick.saturating_sub(ev.start_tick).max(1) == 1 {
                    ""
                } else {
                    "s"
                },
                ev.instances,
                if ev.instances == 1 { "" } else { "s" },
                shown.join(","),
                more,
                ev.queue_wait_factor,
                ev.busy,
                ev.cost,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------- ambient

/// The calling thread's current trace: the innermost
/// [`TraceContext::scope`] it is inside, if any. Outside every scope this
/// is one relaxed atomic load.
pub fn current() -> Option<TraceContext> {
    if !crate::tracing() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` with no current trace on this thread, restoring it afterwards
/// (also on unwind). For work that must stay out of the audit however it
/// is called, such as flighting replays.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    if !crate::tracing() {
        return f();
    }
    let _restore = enter(None);
    f()
}

/// Opens a span in the current trace only — the aggregate recorder never
/// sees it. For per-query grouping spans (`query`, …) that would otherwise
/// add a recorder path per phase. Inert outside a trace scope.
pub fn span(name: impl Into<String>) -> TraceSpan {
    match current() {
        Some(ctx) => ctx.span(name),
        None => TraceSpan::inert(),
    }
}

/// Records the decision `build` returns into the current trace. `build`
/// runs only inside a trace scope, so records cost nothing untraced.
pub fn decision(build: impl FnOnce() -> Decision) {
    if let Some(ctx) = current() {
        ctx.decision(build());
    }
}

fn pass(b: bool) -> &'static str {
    if b {
        "pass"
    } else {
        "FAIL"
    }
}

/// Writes the shared key prefix of one trace event (without closing the
/// object): `{"name":…,"cat":…,"ph":…,"pid":…,"tid":…,"ts":…,"dur":…`.
#[allow(clippy::too_many_arguments)]
fn push_event_prefix(
    out: &mut String,
    first: &mut bool,
    name: &str,
    cat: &str,
    ph: &str,
    pid: u32,
    tid: u64,
    ts: u64,
    dur: u64,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n{\"name\":");
    push_json_str(out, name);
    out.push_str(",\"cat\":");
    push_json_str(out, cat);
    out.push_str(",\"ph\":");
    push_json_str(out, ph);
    out.push_str(&format!(
        ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}"
    ));
}

fn push_decision_args(out: &mut String, d: &Decision) {
    match d {
        Decision::PlanSelection(p) => {
            out.push_str(&format!(
                "{{\"query_id\":{},\"default_idx\":{},\"best_idx\":{},\"chosen_idx\":{},\
                 \"margin\":",
                p.query_id, p.default_idx, p.best_idx, p.chosen_idx
            ));
            push_json_f64(out, p.margin);
            out.push_str(",\"outcome\":");
            push_json_str(out, p.outcome.as_str());
            out.push_str(",\"candidates\":[");
            for (i, c) in p.candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"signature\":");
                // Signatures exceed 2^53: render as hex strings so JSON
                // consumers keep every bit.
                push_json_str(out, &format!("{:#018x}", c.signature));
                out.push_str(",\"predicted_cost\":");
                push_json_f64(out, c.predicted_cost);
                out.push_str(&format!(",\"is_default\":{}}}", c.is_default));
            }
            out.push_str("]}");
        }
        Decision::GateVerdict(g) => {
            out.push_str("{\"avg_ratio\":");
            push_json_f64(out, g.avg_ratio);
            out.push_str(",\"worst_tail_ratio\":");
            push_json_f64(out, g.worst_tail_ratio);
            out.push_str(",\"regression_fraction\":");
            push_json_f64(out, g.regression_fraction);
            out.push_str(&format!(
                ",\"passes_avg\":{},\"passes_tail\":{},\"passes_regressions\":{},\
                 \"deploy\":{}}}",
                g.passes_avg, g.passes_tail, g.passes_regressions, g.deploy
            ));
        }
        Decision::ProjectFilter(f) => {
            out.push_str(&format!("{{\"project\":{},\"n_query\":", f.project));
            push_json_f64(out, f.n_query);
            out.push_str(",\"query_inc_ratio\":");
            push_json_f64(out, f.query_inc_ratio);
            out.push_str(",\"stable_table_ratio\":");
            push_json_f64(out, f.stable_table_ratio);
            out.push_str(&format!(
                ",\"passes_r1\":{},\"passes_r2\":{},\"passes_r3\":{},\"selected\":{}}}",
                f.passes_r1, f.passes_r2, f.passes_r3, f.selected
            ));
        }
        Decision::ProjectRanking(r) => {
            out.push_str("{\"ranked\":[");
            for (i, (p, s)) in r.scores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"project\":{p},\"score\":"));
                push_json_f64(out, *s);
                out.push('}');
            }
            out.push_str("]}");
        }
        Decision::Fallback(fb) => {
            out.push_str(&format!("{{\"query_id\":{},\"reason\":", fb.query_id));
            push_json_str(out, &fb.reason);
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_thread_and_record_attrs() {
        let ctx = TraceContext::new("t");
        {
            let outer = ctx.span("outer");
            outer.attr("query_id", 42u64);
            {
                let _inner = ctx.span("inner");
                let _leaf = ctx.span("leaf");
            }
            let _sibling = ctx.span("sibling");
        }
        let spans = ctx.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0), "inner under outer");
        assert_eq!(spans[2].parent, Some(1), "leaf under inner");
        assert_eq!(spans[3].parent, Some(0), "sibling under outer");
        assert!(spans.iter().all(|s| s.end_us.is_some()));
        assert_eq!(spans[0].attrs[0].0, "query_id");
        assert_eq!(spans[0].attrs[0].1, AttrValue::U64(42));
        // Parent interval contains the child interval.
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(spans[1].end_us.unwrap() <= spans[0].end_us.unwrap());
    }

    #[test]
    fn cross_thread_spans_get_distinct_tracks() {
        let ctx = TraceContext::new("threads");
        let _main = ctx.span("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                let worker = ctx.span("worker");
                worker.attr("lane", "w1");
            });
        });
        let spans = ctx.spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(spans[0].track, 0);
        assert_ne!(worker.track, 0, "worker thread must get its own track");
        assert_eq!(worker.parent, None, "worker span roots its own lane");
    }

    #[test]
    fn decisions_and_timeline_are_recorded_in_order() {
        let ctx = TraceContext::new("d");
        ctx.decision(Decision::GateVerdict(GateVerdict {
            avg_ratio: 0.9,
            worst_tail_ratio: 1.5,
            regression_fraction: 0.1,
            passes_avg: true,
            passes_tail: true,
            passes_regressions: true,
            deploy: true,
        }));
        ctx.decision(Decision::Fallback(Fallback {
            query_id: 7,
            reason: "margin not met".into(),
        }));
        ctx.stage_event(StageExecEvent {
            stage: 0,
            machines: vec![3, 5],
            start_tick: 100,
            end_tick: 103,
            instances: 2,
            queue_wait_factor: 1.2,
            cost: 10.0,
            busy: 0.4,
            attempt: 0,
            killed: false,
        });
        assert_eq!(ctx.decision_count(), 2);
        assert_eq!(ctx.timeline_len(), 1);
        let ds = ctx.decisions();
        assert!(matches!(ds[0], Decision::GateVerdict(_)));
        assert!(matches!(ds[1], Decision::Fallback(_)));
    }

    #[test]
    fn chrome_export_contains_all_event_classes() {
        let ctx = TraceContext::new("export");
        {
            let s = ctx.span("optimize");
            s.attr("query_id", 1u64);
        }
        ctx.decision(Decision::PlanSelection(PlanSelection {
            query_id: 1,
            candidates: vec![
                CandidateScore {
                    signature: 0xdead_beef,
                    predicted_cost: 10.0,
                    is_default: true,
                },
                CandidateScore {
                    signature: 0xfeed_f00d,
                    predicted_cost: 4.0,
                    is_default: false,
                },
            ],
            default_idx: 0,
            best_idx: 1,
            chosen_idx: 1,
            margin: 0.4,
            outcome: SelectionOutcome::Accepted,
        }));
        ctx.stage_event(StageExecEvent {
            stage: 2,
            machines: vec![11],
            start_tick: 50,
            end_tick: 52,
            instances: 1,
            queue_wait_factor: 1.0,
            cost: 5.0,
            busy: 0.3,
            attempt: 1,
            killed: true,
        });
        let json = ctx.to_chrome_json();
        for needle in [
            "\"displayTimeUnit\":\"ms\"",
            "\"traceEvents\"",
            "\"optimize\"",
            "\"decision.plan_selection\"",
            "\"outcome\":\"accepted\"",
            "\"0x00000000deadbeef\"",
            "\"stage 2 (killed)\"",
            "\"killed\":true",
            "\"attempt\":1",
            "\"machine 11\"",
            "\"ph\":\"X\"",
            "\"ph\":\"I\"",
            "\"ph\":\"M\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn text_report_renders_waterfall_audit_and_timeline() {
        let ctx = TraceContext::new("report");
        {
            let _a = ctx.span("prepare");
            let _b = ctx.span("execute");
        }
        ctx.decision(Decision::ProjectFilter(ProjectFilter {
            project: 3,
            n_query: 120.0,
            query_inc_ratio: 1.02,
            stable_table_ratio: 0.7,
            passes_r1: true,
            passes_r2: true,
            passes_r3: true,
            selected: true,
        }));
        ctx.stage_event(StageExecEvent {
            stage: 0,
            machines: (0..12).collect(),
            start_tick: 10,
            end_tick: 12,
            instances: 12,
            queue_wait_factor: 1.1,
            cost: 99.0,
            busy: 0.5,
            attempt: 0,
            killed: false,
        });
        let report = ctx.to_text_report();
        for needle in [
            "=== trace: report ===",
            "-- waterfall --",
            "prepare",
            "  execute",
            "-- decision audit --",
            "filter project 3",
            "selected",
            "-- executor timeline",
            "stage   0: ticks 10..12",
            "+4 more",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn open_spans_export_with_running_duration() {
        let ctx = TraceContext::new("open");
        let _open = ctx.span("still_running");
        let json = ctx.to_chrome_json();
        assert!(json.contains("\"still_running\""));
        let report = ctx.to_text_report();
        assert!(report.contains("[open]"));
    }

    fn fallback(query_id: u64) -> Decision {
        Decision::Fallback(Fallback {
            query_id,
            reason: "test".into(),
        })
    }

    #[test]
    fn scope_is_ambient_nests_and_restores_on_return_and_unwind() {
        assert!(current().is_none());
        let outer = TraceContext::new("outer");
        let inner = TraceContext::new("inner");
        outer.scope(|| {
            let _q = span("query");
            decision(|| fallback(1));
            inner.scope(|| {
                drop(span("nested"));
                decision(|| fallback(2));
            });
            assert_eq!(
                current().map(|c| c.label().to_string()),
                Some("outer".into())
            );
            let _e = span("execute");
        });
        assert!(current().is_none(), "scope must restore on return");
        let names: Vec<String> = outer.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["query", "execute"]);
        assert_eq!(
            outer.spans()[1].parent,
            Some(0),
            "execute nests under query"
        );
        assert_eq!(outer.decisions(), [fallback(1)]);
        assert_eq!(inner.decisions(), [fallback(2)]);
        assert_eq!(inner.span_count(), 1);

        let caught = std::panic::catch_unwind(|| outer.scope(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(current().is_none(), "scope must restore on unwind");
    }

    #[test]
    fn untraced_hides_the_trace_and_decisions_build_lazily() {
        let ctx = TraceContext::new("untraced");
        ctx.scope(|| {
            untraced(|| {
                assert!(current().is_none());
                decision(|| panic!("must not be built while untraced"));
                drop(span("hidden"));
            });
            assert!(current().is_some(), "untraced restores the trace");
        });
        decision(|| panic!("must not be built outside a scope"));
        assert_eq!(ctx.span_count(), 0);
        assert_eq!(ctx.decision_count(), 0);
    }

    #[test]
    fn dropping_a_parent_force_closes_open_children() {
        let ctx = TraceContext::new("ooo");
        let parent = ctx.span("parent");
        let child = ctx.span("child");
        drop(parent);
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(child); // late child drop must not extend past the parent
        let spans = ctx.spans();
        let p = spans.iter().find(|s| s.name == "parent").unwrap();
        let c = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(c.end_us, p.end_us, "child was closed with its parent");
        // The stack is clean: a new span roots at the top level again.
        drop(ctx.span("next"));
        assert!(ctx
            .spans()
            .iter()
            .any(|s| s.name == "next" && s.parent.is_none()));
    }
}
