//! The deterministic work counters of the traced run repeat exactly at one
//! seed, so later changes can cite counts as well as wall-clock.

use loam_core::pipeline::PipelineConfig;
use loam_core::TrainConfig;
use loam_perfbench::report::{traced, Metrics};
use loam_perfbench::workload::{Spec, Workload};
use std::sync::Mutex;

/// The obs recorder and the pool size are process-global: traced runs
/// must not overlap.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Per-layer metrics that must repeat exactly; `cost_ratio` is compared
/// separately.
const DETERMINISTIC: [&str; 8] = [
    "explore.plans_explored",
    "train.steps",
    "train.allocs_per_step",
    "exec.events",
    "exec.lazy_advances",
    "serve.decision_hit_rate",
    "score.plans",
    "guard.steered_share",
];

/// A spec small enough for a test: a few days of history, two epochs, a
/// short steer stream and small serving sessions.
fn tiny(workload: Workload, seed: u64) -> Spec {
    Spec {
        pipeline: PipelineConfig {
            train_days: 3,
            test_days: 2,
            max_train: 40,
            max_test: 6,
            eval_rounds: 2,
            da_queries: 6,
            train_cfg: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..PipelineConfig::default()
        },
        stream_len: 24,
        serve_requests: 128,
        ..Spec::new(workload, seed)
    }
}

/// The traced run's metrics and `cost_ratio`, at the ambient pool size or
/// at `threads`.
fn counters(spec: &Spec, threads: Option<usize>) -> (Metrics, f64) {
    let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let run = || traced(spec, 1).expect("traced run completes");
    let report = match threads {
        Some(n) => mcsim_par::with_threads(n, run),
        None => run(),
    };
    assert!(
        report.outcome.check_failures.is_empty(),
        "output checks failed: {:?}",
        report.outcome.check_failures
    );
    (report.metrics, report.outcome.cost_ratio)
}

#[test]
fn work_counters_and_cost_ratio_repeat_exactly_at_one_seed() {
    for workload in [Workload::Steer, Workload::Serve] {
        let spec = tiny(workload, 7);
        let (a, ratio_a) = counters(&spec, None);
        let (b, ratio_b) = counters(&spec, None);
        for name in DETERMINISTIC {
            assert_eq!(a[name].0, b[name].0, "{name} differs between runs");
        }
        assert!(a["explore.plans_explored"].0 > 0.0);
        assert!(a["train.steps"].0 > 0.0);
        assert!(a["exec.events"].0 + a["exec.lazy_advances"].0 > 0.0);
        assert_eq!(ratio_a.to_bits(), ratio_b.to_bits(), "cost_ratio differs");
    }
}

#[test]
fn decisions_do_not_depend_on_the_pool_size() {
    let spec = tiny(Workload::Steer, 11);
    let (two, ratio_two) = counters(&spec, Some(2));
    let (one, ratio_one) = counters(&spec, Some(1));
    assert_eq!(ratio_two.to_bits(), ratio_one.to_bits());
    for name in [
        "explore.plans_explored",
        "serve.decision_hit_rate",
        "guard.steered_share",
    ] {
        assert_eq!(two[name].0, one[name].0, "{name} differs at pool size 1");
    }
}
