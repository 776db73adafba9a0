//! The pre-deployment validation gate (Section 3, Figure 2).
//!
//! "Before deployment, the predictor is evaluated on a sampled set of test
//! queries (not seen in training) from the historical query repository. To
//! obtain their actual cost as ground truth, they are executed in
//! MaxCompute's flighting environment … The results are then used to decide
//! whether the predictor is suitable for production use."
//!
//! The gate enforces two production criteria: the steered plans must not be
//! worse than the native optimizer's on average (no net regression), and no
//! single steered pick may blow up past a tail-risk ratio (multi-tenant
//! systems can tolerate a mild average regression long before they tolerate
//! a 20× disaster query).

use crate::inference::{guarded_choice, select_plan, EnvStrategy, DEFAULT_MARGIN};
use crate::pipeline::EvaluatedQuery;
use crate::predictor::baselines::CostModel;
use mcsim_obs::trace::{self, Decision, GateVerdict};
use mcsim_plan::PlanTree;
use serde::{Deserialize, Serialize};

/// Thresholds for the deployment decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Maximum tolerated ratio of (steered avg cost)/(native avg cost);
    /// 1.0 = must not regress on average.
    pub max_avg_ratio: f64,
    /// Maximum tolerated per-query ratio of (chosen cost)/(default cost).
    pub max_tail_ratio: f64,
    /// Fraction of queries allowed to exceed a mild regression (2 %).
    pub max_regression_fraction: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            max_avg_ratio: 1.0,
            max_tail_ratio: 3.0,
            max_regression_fraction: 0.5,
        }
    }
}

/// The gate's verdict with its supporting evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// Average steered cost / average native cost.
    pub avg_ratio: f64,
    /// Worst per-query chosen/default cost ratio observed.
    pub worst_tail_ratio: f64,
    /// Fraction of queries regressing by more than 2 %.
    pub regression_fraction: f64,
    /// Whether each criterion passed.
    pub passes_avg: bool,
    /// Tail criterion.
    pub passes_tail: bool,
    /// Regression-fraction criterion.
    pub passes_regressions: bool,
}

impl GateReport {
    /// The deployment decision.
    pub fn deploy(&self) -> bool {
        self.passes_avg && self.passes_tail && self.passes_regressions
    }
}

/// Evaluates `model` on flighting-replayed candidate sets and renders the
/// deployment verdict, recording it — the three criteria with their
/// measured evidence and the deployment decision — as a
/// [`Decision::GateVerdict`] into the current trace. The per-query guarded
/// choices behind the evidence stay untraced: the gate audits a model, not
/// individual queries.
///
/// # Panics
///
/// Panics if `evaluated` is empty (a gate needs evidence).
pub fn validate<M: CostModel + ?Sized>(
    model: &M,
    strategy: &EnvStrategy,
    evaluated: &[EvaluatedQuery],
    cfg: &GateConfig,
) -> GateReport {
    assert!(!evaluated.is_empty(), "gate needs at least one test query");
    let mut steered_sum = 0.0;
    let mut native_sum = 0.0;
    let mut worst_tail: f64 = 0.0;
    let mut regressions = 0usize;
    for eq in evaluated {
        let refs: Vec<&PlanTree> = eq.plans.iter().collect();
        let (best, costs) = select_plan(model, &refs, strategy);
        let choice = trace::untraced(|| {
            guarded_choice(
                &refs,
                &costs,
                best,
                eq.default_idx,
                DEFAULT_MARGIN,
                eq.query_id,
            )
        });
        let chosen = eq.mean_cost(choice);
        let default = eq.default_cost();
        steered_sum += chosen;
        native_sum += default;
        let ratio = chosen / default.max(1e-12);
        worst_tail = worst_tail.max(ratio);
        if ratio > 1.02 {
            regressions += 1;
        }
    }
    let avg_ratio = steered_sum / native_sum.max(1e-12);
    let regression_fraction = regressions as f64 / evaluated.len() as f64;
    let report = GateReport {
        avg_ratio,
        worst_tail_ratio: worst_tail,
        regression_fraction,
        passes_avg: avg_ratio <= cfg.max_avg_ratio,
        passes_tail: worst_tail <= cfg.max_tail_ratio,
        passes_regressions: regression_fraction <= cfg.max_regression_fraction,
    };
    trace::decision(|| {
        Decision::GateVerdict(GateVerdict {
            avg_ratio: report.avg_ratio,
            worst_tail_ratio: report.worst_tail_ratio,
            regression_fraction: report.regression_fraction,
            passes_avg: report.passes_avg,
            passes_tail: report.passes_tail,
            passes_regressions: report.passes_regressions,
            deploy: report.deploy(),
        })
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::EnvSource;
    use mcsim_catalog::EnvMetrics;
    use mcsim_plan::Operator;

    /// A model that always predicts the plan's node count (so it picks the
    /// smallest plan).
    struct SmallestPlan;
    impl CostModel for SmallestPlan {
        fn name(&self) -> &'static str {
            "smallest"
        }
        fn predict(&self, plan: &PlanTree, _env: EnvSource<'_>) -> f64 {
            plan.len() as f64
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }

    fn chain(n: usize) -> PlanTree {
        let mut t = PlanTree::new();
        let mut cur = t.leaf(Operator::table_scan(0, 1, 1, vec![0]));
        for _ in 0..n {
            cur = t.unary(Operator::Limit { n: 1 }, cur);
        }
        t.set_root(cur);
        t
    }

    fn eq(default_cost: f64, other_cost: f64) -> EvaluatedQuery {
        EvaluatedQuery {
            query_id: 0,
            plans: vec![chain(3), chain(1)],
            costs: vec![vec![default_cost, other_cost]; 3],
            default_idx: 0,
        }
    }

    #[test]
    fn improving_model_passes() {
        // The smaller plan (index 1) is cheaper: picking it improves.
        let evaluated = vec![eq(100.0, 60.0), eq(200.0, 150.0)];
        let strategy = EnvStrategy::MeanHistorical(EnvMetrics::default());
        let report = validate(&SmallestPlan, &strategy, &evaluated, &GateConfig::default());
        assert!(report.deploy(), "{report:?}");
        assert!(report.avg_ratio < 1.0);
    }

    #[test]
    fn tail_blowup_fails_even_if_average_is_fine() {
        // One pick is 5× worse than default; averages still fine.
        let evaluated = vec![eq(100.0, 20.0), eq(10.0, 50.0)];
        let strategy = EnvStrategy::MeanHistorical(EnvMetrics::default());
        let report = validate(&SmallestPlan, &strategy, &evaluated, &GateConfig::default());
        assert!(!report.passes_tail);
        assert!(!report.deploy());
    }

    #[test]
    fn regressing_model_fails_average() {
        let evaluated = vec![eq(100.0, 120.0), eq(100.0, 130.0)];
        let strategy = EnvStrategy::MeanHistorical(EnvMetrics::default());
        let report = validate(&SmallestPlan, &strategy, &evaluated, &GateConfig::default());
        assert!(!report.passes_avg);
        assert!(!report.deploy());
    }

    #[test]
    fn traced_gate_records_its_verdict_and_evidence() {
        let evaluated = vec![eq(100.0, 60.0), eq(200.0, 150.0)];
        let strategy = EnvStrategy::MeanHistorical(EnvMetrics::default());
        let ctx = trace::TraceContext::new("gate");
        let report =
            ctx.scope(|| validate(&SmallestPlan, &strategy, &evaluated, &GateConfig::default()));
        let ds = ctx.decisions();
        assert_eq!(ds.len(), 1, "one verdict and no plan selections: {ds:?}");
        let Decision::GateVerdict(v) = &ds[0] else {
            panic!("expected a gate verdict, got {:?}", ds[0]);
        };
        assert_eq!(v.avg_ratio, report.avg_ratio);
        assert_eq!(v.worst_tail_ratio, report.worst_tail_ratio);
        assert_eq!(v.deploy, report.deploy());
    }

    #[test]
    #[should_panic(expected = "at least one test query")]
    fn empty_evidence_panics() {
        let strategy = EnvStrategy::NoEnv;
        let _ = validate(&SmallestPlan, &strategy, &[], &GateConfig::default());
    }
}
