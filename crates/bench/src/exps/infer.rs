//! The inference hot-path benchmark: scores the fig7 project's candidate
//! sets six ways — the legacy single-plan allocating path (scalar and SIMD
//! kernels), the workspace-batched forward (dense scalar, dense SIMD,
//! sparse SIMD), and the batched sparse SIMD path on a warm feature cache —
//! asserts every leg is bit-identical to the baseline, reports
//! plans-predicted/sec per leg plus steady-state allocations per scoring
//! pass (via the counting allocator installed by the `experiments` binary),
//! and writes `BENCH_infer.json` as a [`BenchReport`]: one row per leg,
//! with the seconds per scoring pass as `time` and the workload size as
//! `work` (plans/s is plans / pass).
//!
//! The model is freshly initialized rather than trained: forward-pass cost
//! does not depend on the weight values, and skipping training keeps the
//! benchmark focused on the inference path itself.

use crate::report::{BenchReport, Table};
use crate::scale::{scaled_eval_profile, scaled_pipeline_config, Scale};
use loam_core::pipeline::prepare_project;
use loam_core::{AdaptiveCostPredictor, EnvStrategy, FeatureCache, InferWs, PlanExplorer};
use mcsim_catalog::ProjectId;
use mcsim_optimizer::NativeOptimizer;
use mcsim_plan::PlanTree;
use tinynn::workspace::alloc_probe::allocation_count;
use tinynn::{set_kernel_mode, KernelMode};

/// Timed scoring passes per leg (after one untimed warm-up pass).
const REPS: usize = 20;
/// Timed passes per leg under `--quick`.
const QUICK_REPS: usize = 3;
/// Candidate sets kept under `--quick`.
const QUICK_QUERIES: usize = 12;

/// The scoring workload: per-query candidate sets plus the environment
/// strategy the serving path would use.
struct Workload {
    /// Candidate plans, one inner vec per test query.
    sets: Vec<Vec<PlanTree>>,
    /// Mean-historical environment strategy (the representative instance).
    env: EnvStrategy,
}

impl Workload {
    fn queries(&self) -> usize {
        self.sets.len()
    }

    fn plans(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// One measured leg of the benchmark.
struct Leg {
    name: &'static str,
    /// Wall-clock seconds per scoring pass over the whole workload.
    seconds: f64,
    /// Bit patterns of every predicted cost from one pass, in workload
    /// order, for exact cross-leg comparisons.
    bits: Vec<u64>,
}

impl Leg {
    fn plans_per_s(&self, plans: usize) -> f64 {
        plans as f64 / self.seconds.max(1e-12)
    }
}

/// One pass of the legacy path: every plan scored by its own
/// [`AdaptiveCostPredictor::predict`] call (fresh workspaces each time).
fn pass_single(model: &AdaptiveCostPredictor, w: &Workload, bits: &mut Vec<u64>) {
    bits.clear();
    for set in &w.sets {
        for plan in set {
            bits.push(model.predict(plan, w.env.env_source()).to_bits());
        }
    }
}

/// One pass of the batched path: each candidate set scored by a single
/// [`AdaptiveCostPredictor::predict_batch_into`] call on a warm workspace.
#[allow(clippy::too_many_arguments)]
fn pass_batched(
    model: &AdaptiveCostPredictor,
    w: &Workload,
    ref_sets: &[Vec<&PlanTree>],
    sparse: bool,
    cache: Option<&FeatureCache>,
    ws: &mut InferWs,
    out: &mut Vec<f64>,
    bits: &mut Vec<u64>,
) {
    bits.clear();
    ws.sparse = sparse;
    for refs in ref_sets {
        model.predict_batch_into(refs, w.env.env_source(), cache, ws, out);
        bits.extend(out.iter().map(|c| c.to_bits()));
    }
}

/// Times `reps` passes of `pass` (after one warm-up pass that also captures
/// the leg's prediction bits).
fn time_leg(
    name: &'static str,
    mode: KernelMode,
    reps: usize,
    mut pass: impl FnMut(&mut Vec<u64>),
) -> Leg {
    eprintln!("{name}...");
    let prev = set_kernel_mode(mode);
    let mut bits = Vec::new();
    pass(&mut bits); // warm-up: grows every buffer to its steady size
    let kept = bits.clone();
    let t = std::time::Instant::now();
    for _ in 0..reps {
        pass(&mut bits);
    }
    let seconds = t.elapsed().as_secs_f64() / reps.max(1) as f64;
    set_kernel_mode(prev);
    assert_eq!(kept, bits, "{name}: predictions changed between passes");
    Leg {
        name,
        seconds,
        bits,
    }
}

/// Builds the fig7 candidate-set workload (prepare + explore, no replay —
/// the costs are irrelevant to inference throughput).
fn build_workload(scale: Scale, quick: bool) -> Workload {
    let profile = scaled_eval_profile(1, scale);
    let cfg = scaled_pipeline_config(scale);
    eprintln!("preparing the fig7 evaluation project...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    let optimizer = NativeOptimizer::new(&prepared.project.catalog);
    let explorer = PlanExplorer::new(cfg.explorer.clone());
    let mut sets: Vec<Vec<PlanTree>> = prepared
        .test_queries
        .iter()
        .map(|q| {
            let set = explorer.explore(&optimizer, q);
            set.candidates.into_iter().map(|c| c.plan).collect()
        })
        .collect();
    if quick {
        sets.truncate(QUICK_QUERIES);
    }
    Workload {
        sets,
        env: EnvStrategy::MeanHistorical(prepared.mean_env),
    }
}

/// Runs the benchmark and writes `BENCH_infer.json` into the current
/// directory. `quick` shrinks the workload and repetition count for CI
/// smoke runs.
pub fn run(scale: Scale, quick: bool) {
    println!("Inference hot-path benchmark — fig7 candidate sets, single vs batched\n");
    let reps = if quick { QUICK_REPS } else { REPS };
    let w = build_workload(scale, quick);
    let (queries, plans) = (w.queries(), w.plans());
    eprintln!("workload: {queries} queries, {plans} candidate plans, {reps} passes/leg");

    // Every leg scores on one thread: the pool spawns scoped workers per
    // fan-out, and those spawns would land in the allocation probe.
    let prev_threads = mcsim_par::set_threads(1);
    let cfg = scaled_pipeline_config(scale);
    let model = AdaptiveCostPredictor::new(cfg.seed ^ 0x1f3a, true);
    let ref_sets: Vec<Vec<&PlanTree>> = w.sets.iter().map(|s| s.iter().collect()).collect();
    let mut ws = InferWs::new();
    let mut out = Vec::new();
    let cache = FeatureCache::new();

    let single_scalar = time_leg("single, scalar", KernelMode::Scalar, reps, |b| {
        pass_single(&model, &w, b)
    });
    let single_simd = time_leg("single, simd", KernelMode::Simd, reps, |b| {
        pass_single(&model, &w, b)
    });
    let batched_dense_scalar = time_leg("batched dense, scalar", KernelMode::Scalar, reps, |b| {
        pass_batched(&model, &w, &ref_sets, false, None, &mut ws, &mut out, b)
    });
    let batched_dense_simd = time_leg("batched dense, simd", KernelMode::Simd, reps, |b| {
        pass_batched(&model, &w, &ref_sets, false, None, &mut ws, &mut out, b)
    });
    let batched_sparse_simd = time_leg("batched sparse, simd", KernelMode::Simd, reps, |b| {
        pass_batched(&model, &w, &ref_sets, true, None, &mut ws, &mut out, b)
    });
    let batched_cached = time_leg(
        "batched sparse, simd, cached",
        KernelMode::Simd,
        reps,
        |b| {
            pass_batched(
                &model,
                &w,
                &ref_sets,
                true,
                Some(&cache),
                &mut ws,
                &mut out,
                b,
            )
        },
    );

    // Every optimized leg must reproduce the legacy path bit for bit.
    let legs = [
        single_scalar,
        single_simd,
        batched_dense_scalar,
        batched_dense_simd,
        batched_sparse_simd,
        batched_cached,
    ];
    for leg in &legs[1..] {
        assert_eq!(
            legs[0].bits, leg.bits,
            "`{}` predictions diverged from the single-scalar baseline",
            leg.name
        );
    }
    println!(
        "predictions bit-identical across all {} legs ✓\n",
        legs.len()
    );

    // Steady-state allocations of one warm cached scoring pass. The cache
    // and every workspace buffer are already at their high-water marks, so
    // the pass must not touch the allocator at all (the probe reads 0 when
    // the counting allocator is not installed — skip the assertion then).
    let prev = set_kernel_mode(KernelMode::Simd);
    let mut bits = Vec::with_capacity(plans);
    pass_batched(
        &model,
        &w,
        &ref_sets,
        true,
        Some(&cache),
        &mut ws,
        &mut out,
        &mut bits,
    );
    let before = allocation_count();
    pass_batched(
        &model,
        &w,
        &ref_sets,
        true,
        Some(&cache),
        &mut ws,
        &mut out,
        &mut bits,
    );
    let allocs_per_pass = allocation_count() - before;
    set_kernel_mode(prev);
    mcsim_par::set_threads(prev_threads);
    if allocation_count() > 0 {
        assert_eq!(
            allocs_per_pass, 0,
            "warm cached scoring pass must not allocate"
        );
        println!("warm cached scoring pass: 0 heap allocations ✓\n");
    }

    let mut t = Table::new(["leg", "pass (s)", "plans/s", "speedup"]);
    for leg in &legs {
        t.row([
            leg.name.to_string(),
            format!("{:.4}", leg.seconds),
            format!("{:.0}", leg.plans_per_s(plans)),
            format!("{:.2}x", legs[0].seconds / leg.seconds.max(1e-12)),
        ]);
    }
    println!("{}", t.render());

    bench_report(scale, queries, plans, reps, allocs_per_pass, &legs).write("BENCH_infer.json");
}

/// The legs as a [`BenchReport`]; the warm-pass allocation count rides
/// on the last (cached) leg, the one it was measured on.
fn bench_report(
    scale: Scale,
    queries: usize,
    plans: usize,
    reps: usize,
    allocs_per_pass_warm: u64,
    legs: &[Leg],
) -> BenchReport {
    let mut report = BenchReport::new("infer", scale, 1);
    for leg in legs {
        report
            .push_row(leg.name.replace(", ", "_").replace(' ', "_"))
            .time("pass", leg.seconds)
            .work("queries", queries as u64)
            .work("plans", plans as u64)
            .work("passes", reps as u64);
    }
    if let Some(cached) = report.rows.last_mut() {
        cached.work("allocs_per_pass", allocs_per_pass_warm);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(name: &'static str, seconds: f64) -> Leg {
        Leg {
            name,
            seconds,
            bits: Vec::new(),
        }
    }

    #[test]
    fn bench_report_has_one_row_per_leg() {
        let legs = [
            leg("single, scalar", 1.0),
            leg("single, simd", 0.8),
            leg("batched sparse, simd, cached", 0.1),
        ];
        let r = bench_report(Scale::Small, 10, 200, 5, 0, &legs);
        assert_eq!(r.bench, "infer");
        assert_eq!(r.scale, "small");
        assert_eq!(r.threads, 1);
        let names: Vec<&str> = r.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["single_scalar", "single_simd", "batched_sparse_simd_cached"]
        );
        let simd = &r.rows[1];
        assert_eq!(simd.time["pass"], 0.8);
        assert_eq!(simd.work["plans"] as f64 / simd.time["pass"], 250.0);
        assert_eq!(simd.work["queries"], 10);
        assert_eq!(simd.work["passes"], 5);
        assert!(!simd.work.contains_key("allocs_per_pass"));
        assert_eq!(r.rows[2].work["allocs_per_pass"], 0);
    }
}
