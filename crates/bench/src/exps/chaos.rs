//! The `experiments chaos` subcommand: graceful degradation under fault
//! injection.
//!
//! Trains a small LOAM pipeline once, then serves the evaluated test
//! queries through [`RobustServer::serve_all`] against chaos executors armed at
//! increasing fault rates (0×, 1×, 2×, 4× the default
//! [`FaultConfig::chaos`](mcsim_exec::FaultConfig::chaos) probabilities).
//! Reports completion rate, degraded
//! queries, retry counts, wasted work, and the cost overhead versus the
//! fault-free baseline, and writes `BENCH_chaos.json` as a
//! [`BenchReport`]: one row per level, with the serving wall-clock as
//! `time` and the seeded degradation counts as `work`.

use crate::report::{BenchReport, Table};
use crate::scale::{scaled_eval_profile, Scale};
use loam_core::inference::EnvStrategy;
use loam_core::pipeline::{evaluate_candidates, prepare_project, train_loam, PipelineConfig};
use loam_core::robust::{Resolution, RobustConfig, RobustRunReport};
use loam_core::serving::RobustServer;
use loam_core::TrainConfig;
use mcsim_catalog::ProjectId;
use mcsim_exec::ChaosScenario;

/// A pipeline configuration small enough that the full fault-rate sweep
/// (and the CI smoke built on it) finishes in seconds: the sweep's value is
/// the degradation behaviour, not its statistical power.
fn chaos_config(scale: Scale) -> PipelineConfig {
    let f = scale.fraction();
    PipelineConfig {
        train_days: 6,
        test_days: 2,
        max_train: ((1200.0 * f) as usize).max(120),
        max_test: ((60.0 * f) as usize).max(12),
        eval_rounds: 3,
        da_queries: 12,
        train_cfg: TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// One fault-rate level's outcome.
pub struct LevelOutcome {
    /// Phase name (`fault_x0`, `fault_x1`, ...).
    pub name: String,
    /// Multiplier applied to the default chaos probabilities.
    pub fault_scale: f64,
    /// Wall-clock seconds for serving the whole test set at this level.
    pub wall_s: f64,
    /// The robust serving report.
    pub report: RobustRunReport,
}

/// Trains the pipeline once and serves the evaluated queries at every fault
/// level. Returned for inspection — the acceptance tests use this directly
/// instead of going through the filesystem.
pub fn run_levels(scale: Scale, levels: &[f64]) -> Vec<LevelOutcome> {
    let profile = scaled_eval_profile(1, scale);
    let cfg = chaos_config(scale);
    eprintln!("preparing + training the chaos pipeline...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    let predictor = train_loam(&prepared, &cfg).expect("LOAM training failed");
    let evaluated = evaluate_candidates(&prepared, &cfg).expect("candidate evaluation failed");
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);

    levels
        .iter()
        .map(|&lvl| {
            // A fresh chaos executor per level: every level replays the same
            // warmed cluster trajectory, differing only in the armed faults.
            let mut exec = ChaosScenario::new(cfg.seed ^ 0xc405)
                .fault_scale(lvl)
                .build();
            let t = std::time::Instant::now();
            let report = RobustServer::new(strategy, RobustConfig::default())
                .expect("default margin is valid")
                .serve_all(
                    &predictor,
                    &evaluated,
                    &mut exec,
                    &prepared.project.catalog,
                    None,
                )
                .expect("robust serving must terminate with a report");
            LevelOutcome {
                name: format!("fault_x{}", lvl as u32),
                fault_scale: lvl,
                wall_s: t.elapsed().as_secs_f64(),
                report,
            }
        })
        .collect()
}

/// Runs the sweep and writes `BENCH_chaos.json`. `quick` restricts the
/// sweep to the 0× / 1× levels (the CI smoke).
pub fn run(scale: Scale, quick: bool) {
    println!("Chaos benchmark — robust serving under increasing fault rates\n");
    let levels: &[f64] = if quick {
        &[0.0, 1.0]
    } else {
        &[0.0, 1.0, 2.0, 4.0]
    };
    let outcomes = run_levels(scale, levels);
    let base_cost = outcomes[0].report.total_cost().max(1e-9);

    let mut t = Table::new([
        "level",
        "queries",
        "completed",
        "degraded",
        "retries",
        "speculative",
        "wasted cost",
        "cost overhead",
        "wall (s)",
    ]);
    for o in &outcomes {
        let r = &o.report;
        t.row([
            o.name.clone(),
            r.results.len().to_string(),
            format!("{:.1}%", r.completion_rate() * 100.0),
            r.degraded_count().to_string(),
            r.total_retries().to_string(),
            speculative(r).to_string(),
            format!("{:.0}", r.total_wasted_cost()),
            format!("{:+.1}%", (r.total_cost() / base_cost - 1.0) * 100.0),
            format!("{:.3}", o.wall_s),
        ]);
    }
    println!("{}", t.render());
    println!(
        "gate deployed: {}; fallback ladder armed at every level",
        outcomes[0].report.gate_deployed
    );

    bench_report(scale, &outcomes).write("BENCH_chaos.json");
}

/// The sweep as a [`BenchReport`]. Costs are rounded to whole units;
/// robust serving is a serial loop, so the report runs at one thread.
fn bench_report(scale: Scale, outcomes: &[LevelOutcome]) -> BenchReport {
    let mut report = BenchReport::new("chaos", scale, 1);
    for o in outcomes {
        let r = &o.report;
        let completed = r
            .results
            .iter()
            .filter(|q| q.resolution != Resolution::Failed)
            .count();
        report
            .push_row(o.name.as_str())
            .time("wall", o.wall_s)
            .work("queries", r.results.len() as u64)
            .work("completed", completed as u64)
            .work("degraded", r.degraded_count() as u64)
            .work("retries", u64::from(r.total_retries()))
            .work("speculative", u64::from(speculative(r)))
            .work("wasted_cost", r.total_wasted_cost().round() as u64)
            .work("total_cost", r.total_cost().round() as u64)
            .work("gate_deployed", u64::from(r.gate_deployed));
    }
    report
}

fn speculative(r: &RobustRunReport) -> u32 {
    r.results.iter().map(|q| q.speculative_launches).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion of the chaos harness: at the default fault
    /// rate the fallback ladder keeps ≥ 99% of queries completing, while
    /// the fault-free level stays a clean 100% with zero retries and zero
    /// wasted work.
    #[test]
    fn default_fault_rate_completes_at_least_99_percent() {
        let outcomes = run_levels(Scale::Small, &[0.0, 1.0]);
        let clean = &outcomes[0].report;
        assert!(
            (clean.completion_rate() - 1.0).abs() < 1e-12,
            "fault-free serving must complete everything"
        );
        assert_eq!(clean.total_retries(), 0);
        assert_eq!(clean.total_wasted_cost(), 0.0);
        assert!(clean
            .results
            .iter()
            .all(|r| !matches!(r.resolution, Resolution::ExecFallback | Resolution::Failed)));

        let chaotic = &outcomes[1].report;
        assert!(
            chaotic.completion_rate() >= 0.99,
            "completion rate {:.4} under default chaos must stay >= 0.99",
            chaotic.completion_rate()
        );
    }
}
