//! Integration: the end-to-end serving path under fault injection must
//! degrade gracefully — it always terminates, never panics, and every
//! degraded query leaves a typed [`Decision::Fallback`] provenance record
//! whose `query_id` matches the query it degraded.

use loam::prelude::*;

fn tiny_profile(id: u32) -> ProjectProfile {
    let mut prof = ProjectProfile::evaluation_project(id as usize).expect("evaluation project");
    prof.n_tables = 20;
    prof.n_temp_tables = 2;
    prof.n_columns = 150;
    prof.n_templates = 10;
    prof.n_query_day0 = 12.0;
    prof
}

fn tiny_cfg() -> PipelineConfig {
    PipelineConfig {
        train_days: 4,
        test_days: 2,
        max_train: 60,
        max_test: 12,
        eval_rounds: 3,
        da_queries: 10,
        ..PipelineConfig::default()
    }
}

/// Prepared project + evaluated candidate sets, without training: the
/// robustness scenarios inject their own (mis)behaving models.
fn evaluated_fixture(id: u32) -> (PreparedProject, Vec<EvaluatedQuery>) {
    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(id), ProjectId(id), &cfg).expect("prepare");
    let evaluated = evaluate_candidates(&prepared, &cfg).expect("evaluate");
    (prepared, evaluated)
}

/// A deterministic stand-in predictor: charges per plan node.
struct NodeCountModel;
impl CostModel for NodeCountModel {
    fn name(&self) -> &'static str {
        "node-count"
    }
    fn predict(&self, plan: &PlanTree, _env: EnvSource<'_>) -> f64 {
        plan.len() as f64 * 100.0
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

/// A broken predictor: every score is NaN.
struct NanModel;
impl CostModel for NanModel {
    fn name(&self) -> &'static str {
        "nan"
    }
    fn predict(&self, _plan: &PlanTree, _env: EnvSource<'_>) -> f64 {
        f64::NAN
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

/// A gate that always deploys (the chaos scenarios want to exercise the
/// steered execution path, not the gate rung).
fn permissive_gate() -> GateConfig {
    GateConfig {
        max_avg_ratio: 1e9,
        max_tail_ratio: 1e9,
        max_regression_fraction: 1.0,
    }
}

/// Collects the query ids carrying a [`Decision::Fallback`] record.
fn fallback_ids(ctx: &TraceContext) -> Vec<u64> {
    ctx.decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::Fallback(f) => Some(f.query_id),
            _ => None,
        })
        .collect()
}

#[test]
fn aggressive_chaos_terminates_and_records_fallback_provenance() {
    let (prepared, evaluated) = evaluated_fixture(3);
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    let cfg = RobustConfig {
        gate: permissive_gate(),
        ..RobustConfig::default()
    };

    // 4x the default fault rates plus a tight retry budget, to actually
    // push queries down the ladder.
    let mut exec = ChaosScenario::new(0xbad_c1a0)
        .fault(FaultConfig {
            stage_kill_prob: 0.25,
            ..FaultConfig::chaos(0xbad_c1a0)
        })
        .retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        })
        .build();

    let ctx = TraceContext::new("robustness");
    let report = RobustServer::new(strategy, cfg)
        .expect("valid guard margin")
        .serve_all(
            &NodeCountModel,
            &evaluated,
            &mut exec,
            &prepared.project.catalog,
            Some(&ctx),
        )
        .expect("robust serving must terminate with a report, never panic");

    // Every query landed on some rung of the ladder.
    assert_eq!(report.results.len(), evaluated.len());
    assert!(report.completion_rate() > 0.0);
    // Failed queries carry no cost; completed ones do.
    for r in &report.results {
        if r.resolution == Resolution::Failed {
            assert_eq!(r.cost, 0.0);
        } else {
            assert!(
                r.cost > 0.0,
                "completed query {} with zero cost",
                r.query_id
            );
        }
    }
    // Every degraded query left a Fallback record naming it.
    let ids = fallback_ids(&ctx);
    for r in &report.results {
        if r.resolution.is_degraded() {
            assert!(
                ids.contains(&r.query_id),
                "degraded query {} ({:?}) has no Fallback provenance record",
                r.query_id,
                r.resolution
            );
        }
    }
    // The harness actually injected faults at this rate.
    assert!(
        !exec.cluster.fault_log().is_empty(),
        "aggressive chaos must inject at least one fault"
    );
}

#[test]
fn nan_predictor_degrades_every_query_to_the_default_plan() {
    let (prepared, evaluated) = evaluated_fixture(4);
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    let cfg = RobustConfig {
        gate: permissive_gate(),
        ..RobustConfig::default()
    };
    let mut exec = ChaosScenario::new(7).fault_scale(0.0).build();

    let ctx = TraceContext::new("nan-predictor");
    let report = RobustServer::new(strategy, cfg)
        .expect("valid guard margin")
        .serve_all(
            &NanModel,
            &evaluated,
            &mut exec,
            &prepared.project.catalog,
            Some(&ctx),
        )
        .expect("a broken predictor must degrade, not fail the run");

    assert!((report.completion_rate() - 1.0).abs() < 1e-12);
    let ids = fallback_ids(&ctx);
    for r in &report.results {
        assert_eq!(
            r.resolution,
            Resolution::PredictorFallback,
            "query {} should have fallen back on the NaN prediction",
            r.query_id
        );
        assert!(ids.contains(&r.query_id));
    }
}

#[test]
fn gate_hold_serves_every_query_with_the_default_plan() {
    let (prepared, evaluated) = evaluated_fixture(5);
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    // An impossible gate: avg ratio must be <= 0.
    let impossible = GateConfig {
        max_avg_ratio: 0.0,
        ..GateConfig::default()
    };
    let cfg = RobustConfig {
        gate: impossible,
        ..RobustConfig::default()
    };
    let mut exec = ChaosScenario::new(11).fault_scale(0.0).build();

    let ctx = TraceContext::new("gate-hold");
    let report = RobustServer::new(strategy, cfg)
        .expect("valid guard margin")
        .serve_all(
            &NodeCountModel,
            &evaluated,
            &mut exec,
            &prepared.project.catalog,
            Some(&ctx),
        )
        .expect("gate hold must degrade, not fail the run");

    assert!(!report.gate_deployed);
    assert!((report.completion_rate() - 1.0).abs() < 1e-12);
    let ids = fallback_ids(&ctx);
    for r in &report.results {
        assert_eq!(r.resolution, Resolution::GateFallback);
        assert!(ids.contains(&r.query_id));
    }

    // With the ladder disarmed, the same hold is ignored: queries serve
    // through normal guarded selection instead.
    let mut exec2 = ChaosScenario::new(11).fault_scale(0.0).build();
    let report2 = RobustServer::new(
        strategy,
        RobustConfig {
            fallback_enabled: false,
            gate: GateConfig {
                max_avg_ratio: 0.0,
                ..GateConfig::default()
            },
            ..RobustConfig::default()
        },
    )
    .expect("valid guard margin")
    .serve_all(
        &NodeCountModel,
        &evaluated,
        &mut exec2,
        &prepared.project.catalog,
        None,
    )
    .expect("disarmed ladder without faults still completes");
    assert!(report2.results.iter().all(|r| !r.resolution.is_degraded()));
}
