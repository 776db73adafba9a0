//! The two kinds of run and the result line they print.
//!
//! A timed run measures the end-to-end metrics with no `mcsim-obs`
//! recorder installed. A traced run does a fixed amount of the workload
//! twice, untraced and then with [`BenchRecorder`] installed, and derives
//! the per-layer metrics and the tracing overhead from the second pass.

use crate::recorder::{BenchRecorder, Snapshot};
use crate::workload::{run, setup, Budget, Inputs, Outcome, Spec, CLIENT_THREADS};
use crate::{median, peak_rss_mb, quantile};
use loam_core::Resolution;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Serving sessions in a traced run.
pub const TRACED_SESSIONS: usize = 2;

/// Metric name → (value, unit), in insertion-independent order.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// A finished run: its outcome, metrics and a one-line summary.
pub struct Report {
    /// What the measured phases did and which checks failed.
    pub outcome: Outcome,
    /// The metrics the result line carries.
    pub metrics: Metrics,
    /// Human-readable context: counts and digests.
    pub summary: String,
}

/// The end-to-end run.
pub fn timed(spec: &Spec, seconds: f64) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let built = setup(spec)?;
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let out = run(spec, &inputs, Budget::Seconds(seconds), &mut |_| {})?;

    // Every repeat below does identical work: trainings are
    // bit-identical, a stream query steered again decides the same way,
    // and sessions share one digest. Each figure takes the fastest repeat. The shared host this
    // was tuned on moves between a fast and a slow speed in spells of
    // seconds to minutes as its other tenants' load comes and goes. A
    // run's median or mean moved with how much of the run the spells
    // took, a high quantile with whether the run ever left the slow speed;
    // the fastest repeat came from the fast speed whenever the run saw it
    // at all (see README.md).
    let per_query_ms: Vec<f64> = out
        .steer_by_query
        .iter()
        .map(|l| l.iter().copied().fold(f64::INFINITY, f64::min) * 1e3)
        .collect();
    let steer_qps = 1e3 * per_query_ms.len() as f64 / per_query_ms.iter().sum::<f64>();
    let serve_qps = out
        .serve
        .iter()
        .zip(&out.serve_call_s)
        .map(|(r, s)| r.completed as f64 / s)
        .fold(0.0, f64::max);
    let train_rate = out
        .trainings
        .iter()
        .map(|t| t.work / t.seconds)
        .fold(0.0, f64::max);
    let first = &out.serve[0];

    let mut m = Metrics::new();
    m.insert("setup_s", (median(&setup_s), "s"));
    m.insert("peak_rss_mb", (peak_rss_mb().unwrap_or(f64::NAN), "MiB"));
    m.insert("success_share", (success_share(&out), "share"));
    m.insert("train_samples_per_s", (train_rate, "1/s"));
    m.insert("cost_ratio", (out.cost_ratio, "ratio"));
    m.insert("deviance_rel", (out.deviance_rel, "ratio"));
    m.insert("steer_qps", (steer_qps, "1/s"));
    m.insert("steer_p50_ms", (median(&per_query_ms), "ms"));
    m.insert("steer_p99_ms", (quantile(&per_query_ms, 0.99), "ms"));
    m.insert("serve_qps", (serve_qps, "1/s"));
    m.insert(
        "serve_cpu_cost",
        (first.total_cost / first.completed as f64, "cpu"),
    );
    let prepared = &inputs.prepared;
    let summary = format!(
        "pool of {} threads for training, {CLIENT_THREADS} for steering and serving; \
         P2 with {} training samples, {} DA candidates, mean cost LOAM {:.0} \
         vs native {:.0}; {} set-ups, {} trainings, \
         {} steered queries in {} passes, {} serving sessions of {} requests; \
         digests steer {:016x} serve {:016x}",
        mcsim_par::threads(),
        prepared.train_samples.len(),
        prepared.da_candidates.len(),
        out.mean_cost.0,
        out.mean_cost.1,
        setup_s.len(),
        out.trainings.len(),
        out.steer_latency_s.len(),
        out.steer_by_query.first().map_or(0, Vec::len),
        out.serve.len(),
        first.requests,
        out.steer_digest,
        first.decision_digest()
    );
    Ok(Report {
        outcome: out,
        metrics: m,
        summary,
    })
}

/// The traced run: the same fixed work untraced, then traced.
pub fn traced(spec: &Spec, sessions: usize) -> Result<Report, String> {
    let budget = Budget::Fixed { sessions };

    let t = Instant::now();
    let inputs = setup(spec)?;
    let base = run(spec, &inputs, budget, &mut |_| {})?;
    let untraced_s = t.elapsed().as_secs_f64();
    drop(inputs);

    let rec = Arc::new(BenchRecorder::default());
    mcsim_obs::install(rec.clone());
    let t = Instant::now();
    let mut marks: BTreeMap<&'static str, Snapshot> = BTreeMap::new();
    let traced_run = setup(spec).and_then(|inputs| {
        let out = run(spec, &inputs, budget, &mut |phase| {
            marks.insert(phase, rec.snapshot());
        })?;
        Ok((inputs, out))
    });
    let traced_s = t.elapsed().as_secs_f64();
    mcsim_obs::uninstall();
    let (inputs, mut out) = traced_run?;
    let all = rec.snapshot();
    out.attempted += base.attempted;
    out.failed += base.failed;
    out.check_failures
        .extend(base.check_failures.iter().cloned());

    // Tracing must not change a single decision.
    let (a, b) = (base.steer_digest, out.steer_digest);
    out.check(a == b, || {
        format!("traced steer digest {b:016x} != untraced {a:016x}")
    });
    let (a, b) = (
        base.serve[0].decision_digest(),
        out.serve[0].decision_digest(),
    );
    out.check(a == b, || {
        format!("traced serve digest {b:016x} != untraced {a:016x}")
    });
    let (a, b) = (base.cost_ratio, out.cost_ratio);
    out.check(a == b, || format!("traced cost_ratio {b} != untraced {a}"));

    let steer = marks["serve"].since(&marks["steer"]);
    let serve = marks["end"].since(&marks["serve"]);
    let m = layer_metrics(&inputs, &out, &all, &steer, &serve, traced_s, untraced_s);
    let summary = format!(
        "pool of {} threads for training, {CLIENT_THREADS} for steering and serving: \
         fixed work untraced {untraced_s:.3} s, traced {traced_s:.3} s",
        mcsim_par::threads()
    );
    Ok(Report {
        outcome: out,
        metrics: m,
        summary,
    })
}

/// The per-layer metrics of one traced pass. Layer names follow the
/// modules; see README.md for which end-to-end metric each should move.
fn layer_metrics(
    inputs: &Inputs,
    out: &Outcome,
    all: &Snapshot,
    steer: &Snapshot,
    serve: &Snapshot,
    traced_s: f64,
    untraced_s: f64,
) -> Metrics {
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sessions: Vec<_> = out.serve.iter().chain(&out.serve_check).collect();
    let sum =
        |f: &dyn Fn(&mcsim_serve::ServeReport) -> f64| sessions.iter().map(|r| f(r)).sum::<f64>();
    let steered_queries = out.steer_latency_s.len() as f64;
    let steps = all.counter("loam.train.steps") as f64;
    let train_allocs = inputs.training.allocs;
    let (epochs, epoch_s) = all.span("epoch");
    let featurize_us = per(out.featurize_s * 1e6, out.featurized_plans as f64);
    let (_, serve_wall) = serve.span("ServeSession::run");
    let (_, batch_infer_s) = serve.span("serve.batch_infer");
    let exec_s = serve.span_self("serve.request");
    let plans_explored = steer.counter("explorer.plans_explored") as f64;
    let feat = (
        sum(&|r| r.feature_cache_hits as f64),
        sum(&|r| r.feature_cache_misses as f64),
    );
    let dec = (
        sum(&|r| r.decision_cache_hits as f64),
        sum(&|r| r.decision_cache_misses as f64),
    );
    let steer_timed = out.explore_s + out.score_s + out.guard_s;
    let attributed = [
        "prepare_project",
        "train_loam",
        "evaluate_candidates",
        "evaluate_model",
        "ServeSession::run",
        "featurize_forest_into",
        "validate",
    ]
    .iter()
    .map(|name| all.span(name).1)
    .sum::<f64>()
        + steer_timed;

    let mut m = Metrics::new();
    let mut put = |name, value, unit| {
        m.insert(name, (value, unit));
    };
    put("catalog.generate_s", all.span_self("prepare"), "s");
    put("exec.history_s", all.span_under("prepare", "execute"), "s");
    put(
        "exec.history_records",
        inputs.prepared.repo.records().len() as f64,
        "count",
    );
    put(
        "exec.flighting_s",
        all.span_under("evaluate_candidates", "execute"),
        "s",
    );
    put("serve.exec_s", exec_s, "s");
    put("exec.events", serve.counter("exec.events") as f64, "count");
    put(
        "exec.lazy_advances",
        serve.counter("exec.lazy_advances") as f64,
        "count",
    );
    put("serve.retries", sum(&|r| r.total_retries as f64), "count");
    put(
        "serve.wasted_share",
        per(sum(&|r| r.total_wasted_cost), sum(&|r| r.total_cost)),
        "share",
    );
    put(
        "explore.us_per_query",
        per(out.explore_s * 1e6, steered_queries),
        "us",
    );
    put("explore.plans_explored", plans_explored, "count");
    put(
        "explore.kept_ratio",
        per(
            steer.counter("explorer.candidates_kept") as f64,
            plans_explored,
        ),
        "share",
    );
    put("featurize.us_per_plan", featurize_us, "us");
    put(
        "feature_cache.hit_rate",
        per(feat.0, feat.0 + feat.1),
        "share",
    );
    put(
        "score.us_per_plan",
        (per(out.score_s * 1e6, out.plans_scored as f64) - featurize_us).max(0.0),
        "us",
    );
    put("score.plans", out.plans_scored as f64, "count");
    put(
        "guard.steered_share",
        per(out.steered as f64, steered_queries),
        "share",
    );
    put(
        "guard.fallbacks",
        out.fallbacks as f64 + sum(&|r| r.resolution_count(Resolution::PredictorFallback) as f64),
        "count",
    );
    put("gate.validate_s", out.gate_s, "s");
    put(
        "gate.deployed",
        if out.serve[0].gate_deployed { 1.0 } else { 0.0 },
        "bool",
    );
    put("train.epoch_s", per(epoch_s, epochs as f64), "s");
    put("train.steps", steps, "count");
    put(
        "train.step_ms",
        all.series("train.step_ns").mean() / 1e6,
        "ms",
    );
    put(
        "train.fold_ms",
        all.series("train.reduce_ns").mean() / 1e6,
        "ms",
    );
    put(
        "train.allocs_per_step",
        per(train_allocs as f64, steps),
        "count",
    );
    put(
        "train.final_cost_loss",
        all.series("loam.train.cost_loss").last,
        "loss",
    );
    put(
        "train.final_domain_loss",
        all.series("loam.train.domain_loss").last,
        "loss",
    );
    put(
        "par.busy_share",
        per(
            all.series("par.worker_busy_s").sum,
            traced_s * mcsim_par::threads() as f64,
        ),
        "share",
    );
    put("serve.batches", sum(&|r| r.batches as f64), "count");
    put(
        "serve.decision_hit_rate",
        per(dec.0, dec.0 + dec.1),
        "share",
    );
    put("serve.batch_infer_s", batch_infer_s, "s");
    put("serve.self_s", serve_wall - batch_infer_s - exec_s, "s");
    put(
        "obs.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
    );
    put(
        "unattributed_share",
        (traced_s - attributed) / traced_s,
        "share",
    );
    m
}

fn success_share(out: &Outcome) -> f64 {
    1.0 - out.failed as f64 / out.attempted as f64
}

/// Renders the result object. `correct` means every output check passed
/// and every metric is finite; a non-finite metric counts as one failed
/// operation and prints as 0 so the line stays valid JSON.
pub fn result_line(report: &Report) -> String {
    let (out, m) = (&report.outcome, &report.metrics);
    for f in &out.check_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mut bad = 0;
    let fields: Vec<String> = m
        .iter()
        .map(|(name, &(value, unit))| {
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("perfbench: metric {name} is not finite ({value})");
                bad += 1;
                0.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty() && bad == 0,
        out.attempted + bad,
        out.failed + bad,
        fields.join(", ")
    )
}
