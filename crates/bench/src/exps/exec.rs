//! The `experiments exec` subcommand: the simulation-core scaling
//! benchmark behind the event-driven rewrite.
//!
//! Sweeps the cluster size (1k / 5k / 10k machines) and runs the same
//! seeded query stream through both simulation cores — the dense per-tick
//! reference engine and the event-driven engine with lazy load evaluation
//! — then runs the headline session: 10,000 machines × 1,000,000 queries
//! on the event engine alone. Writes `BENCH_exec.json` as a
//! [`BenchReport`]: one row per pool size with both engines' wall-clock as
//! `time` and the event engine's work counters as `work`, plus a
//! `headline` row for the event-only session.
//!
//! Machine-failure rates are normalized to the pool (`FaultConfig::chaos`
//! is calibrated for 200 machines), so every sweep level injects the same
//! absolute fault traffic and the comparison across pool sizes is a pure
//! simulation-core measurement.

use crate::report::{BenchReport, BenchRow, Table};
use crate::scale::Scale;
use mcsim_exec::{ChaosScenario, ClusterConfig, EngineMode, EngineStats, Executor, FaultConfig};
use mcsim_optimizer::{Knobs, NativeOptimizer};
use mcsim_plan::PlanTree;

/// Seed of every leg: cluster trajectories, faults, and noise all derive
/// from it, so the dense and event legs replay the identical scenario.
const SEED: u64 = 0xe8ec;

/// Pool size `FaultConfig::chaos` rates are calibrated for.
const CHAOS_REFERENCE_POOL: f64 = 200.0;

/// The sweep's query template library: a small project's day-0 workload,
/// optimized once. The benchmark cycles through these plans — recurring
/// queries, exactly the paper's workload shape.
fn workload() -> (mcsim_catalog::Project, Vec<PlanTree>) {
    let mut prof = mcsim_catalog::ProjectProfile::evaluation_project(1).expect("profile 1");
    prof.n_tables = 16;
    prof.n_temp_tables = 2;
    prof.n_columns = 120;
    prof.n_templates = 8;
    let project = prof.generate(mcsim_catalog::ProjectId(1));
    let opt = NativeOptimizer::new(&project.catalog);
    let plans: Vec<PlanTree> = project
        .workload_for_day(0)
        .iter()
        .take(8)
        .map(|q| opt.optimize(q, &Knobs::default()))
        .collect();
    assert!(!plans.is_empty(), "day-0 workload must not be empty");
    (project, plans)
}

/// The fault configuration of a leg: chaos rates with the machine-failure
/// probability normalized to the pool size.
fn leg_faults(machines: usize) -> FaultConfig {
    let base = FaultConfig::chaos(SEED ^ 0xfa);
    FaultConfig {
        machine_fail_prob: base.machine_fail_prob * CHAOS_REFERENCE_POOL / machines as f64,
        ..base
    }
}

/// A fault-armed executor over a pool of `machines` running `engine`.
fn leg_executor(machines: usize, engine: EngineMode) -> Executor {
    let cfg = ClusterConfig::builder()
        .n_machines(machines)
        .engine(engine)
        .build()
        .expect("valid sweep config");
    ChaosScenario::new(SEED)
        .cluster(cfg)
        .fault(leg_faults(machines))
        .warmup_ticks(60)
        .build()
}

/// What one engine leg measured.
#[derive(Debug, Clone, Copy)]
pub struct LegResult {
    /// Wall-clock seconds for the whole query stream.
    pub wall_s: f64,
    /// Engine work counters at the end of the leg.
    pub stats: EngineStats,
    /// Sum of every completed query's CPU cost (the bit pattern is the
    /// cross-engine identity check).
    pub total_cost: f64,
    /// Queries that completed.
    pub completed: usize,
    /// Queries that exhausted their retry budget.
    pub failed: usize,
}

/// Runs `queries` executions round-robin over `plans` on one engine.
pub fn run_leg(
    machines: usize,
    queries: usize,
    engine: EngineMode,
    plans: &[PlanTree],
    catalog: &mcsim_catalog::Catalog,
) -> LegResult {
    let mut exec = leg_executor(machines, engine);
    let mut total_cost = 0.0f64;
    let (mut completed, mut failed) = (0usize, 0usize);
    let t = std::time::Instant::now();
    for i in 0..queries {
        match exec.try_execute(&plans[i % plans.len()], catalog) {
            Ok(out) => {
                total_cost += out.cpu_cost;
                completed += 1;
            }
            Err(_) => failed += 1,
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    // In dense mode the checksum proves the eager per-tick work ran.
    if engine == EngineMode::DenseTick {
        assert!(exec.cluster.dense_checksum() != 0.0);
    }
    LegResult {
        wall_s,
        stats: exec.cluster.engine_stats(),
        total_cost,
        completed,
        failed,
    }
}

/// One sweep level: the same scenario on both engines.
pub struct LevelOutcome {
    /// Phase name (`exec_1k`, `exec_5k`, `exec_10k`).
    pub name: String,
    /// Machines in the pool.
    pub machines: usize,
    /// Queries per engine leg.
    pub queries: usize,
    /// The dense per-tick reference leg.
    pub dense: LegResult,
    /// The event-driven leg.
    pub event: LegResult,
}

impl LevelOutcome {
    /// Dense wall over event wall.
    pub fn speedup(&self) -> f64 {
        self.dense.wall_s / self.event.wall_s.max(1e-9)
    }
}

/// The headline event-only session.
pub struct Headline {
    /// Machines in the pool.
    pub machines: usize,
    /// Queries executed.
    pub queries: usize,
    /// The event-engine leg.
    pub leg: LegResult,
}

fn level_name(machines: usize) -> String {
    if machines.is_multiple_of(1000) {
        format!("exec_{}k", machines / 1000)
    } else {
        format!("exec_{machines}")
    }
}

/// Runs the dense-vs-event sweep at every pool size. Returned for
/// inspection — the acceptance tests consume this directly.
pub fn run_levels(pool_sizes: &[usize], queries: usize) -> Vec<LevelOutcome> {
    let (project, plans) = workload();
    pool_sizes
        .iter()
        .map(|&machines| {
            eprintln!("  {machines} machines × {queries} queries, dense reference...");
            let dense = run_leg(
                machines,
                queries,
                EngineMode::DenseTick,
                &plans,
                &project.catalog,
            );
            eprintln!("  {machines} machines × {queries} queries, event engine...");
            let event = run_leg(
                machines,
                queries,
                EngineMode::EventDriven,
                &plans,
                &project.catalog,
            );
            assert_eq!(
                dense.total_cost.to_bits(),
                event.total_cost.to_bits(),
                "engines must replay bit-identically at {machines} machines"
            );
            assert_eq!(dense.completed, event.completed);
            assert_eq!(dense.failed, event.failed);
            LevelOutcome {
                name: level_name(machines),
                machines,
                queries,
                dense,
                event,
            }
        })
        .collect()
}

/// Runs the event-only headline session.
pub fn run_headline(machines: usize, queries: usize) -> Headline {
    let (project, plans) = workload();
    eprintln!("  headline: {machines} machines × {queries} queries, event engine only...");
    let leg = run_leg(
        machines,
        queries,
        EngineMode::EventDriven,
        &plans,
        &project.catalog,
    );
    Headline {
        machines,
        queries,
        leg,
    }
}

/// Runs the benchmark and writes `BENCH_exec.json`. `quick` restricts the
/// sweep to the 1k pool and skips the headline (the CI smoke); the scale
/// flag sizes the sweep's query stream.
pub fn run(scale: Scale, quick: bool) {
    println!("Exec-core benchmark — dense per-tick reference vs event-driven engine\n");
    let queries = if quick {
        60
    } else {
        ((400.0 * scale.fraction()) as usize).max(100)
    };
    let pool_sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 5_000, 10_000]
    };
    let outcomes = run_levels(pool_sizes, queries);

    let mut t = Table::new([
        "pool",
        "queries",
        "dense (s)",
        "event (s)",
        "speedup",
        "events",
        "lazy evals",
        "heap peak",
    ]);
    for o in &outcomes {
        t.row([
            o.machines.to_string(),
            o.queries.to_string(),
            format!("{:.3}", o.dense.wall_s),
            format!("{:.3}", o.event.wall_s),
            format!("{:.1}x", o.speedup()),
            o.event.stats.events.to_string(),
            o.event.stats.lazy_advances.to_string(),
            o.event.stats.heap_peak.to_string(),
        ]);
    }
    println!("{}", t.render());

    let headline = if quick {
        None
    } else {
        let h = run_headline(10_000, 1_000_000);
        println!(
            "headline: {} machines × {} queries in {:.1}s ({:.0} queries/s, {} events, \
             {} lazy evaluations)",
            h.machines,
            h.queries,
            h.leg.wall_s,
            h.queries as f64 / h.leg.wall_s.max(1e-9),
            h.leg.stats.events,
            h.leg.stats.lazy_advances,
        );
        Some(h)
    };

    bench_report(scale, &outcomes, headline.as_ref()).write("BENCH_exec.json");
}

/// Fills `row` with one event-engine leg's counters.
fn leg_work(row: &mut BenchRow, machines: usize, queries: usize, leg: &LegResult) {
    row.work("machines", machines as u64)
        .work("queries", queries as u64)
        .work("events", leg.stats.events)
        .work("lazy_advances", leg.stats.lazy_advances)
        .work("heap_peak", leg.stats.heap_peak as u64)
        .work("completed", leg.completed as u64)
        .work("failed", leg.failed as u64);
}

/// The sweep as a [`BenchReport`]; the headline session, when run, is the
/// last row.
fn bench_report(
    scale: Scale,
    outcomes: &[LevelOutcome],
    headline: Option<&Headline>,
) -> BenchReport {
    let mut report = BenchReport::new("exec", scale, 1);
    for o in outcomes {
        let row = report
            .push_row(o.name.as_str())
            .time("dense", o.dense.wall_s)
            .time("event", o.event.wall_s);
        leg_work(row, o.machines, o.queries, &o.event);
    }
    if let Some(h) = headline {
        let row = report.push_row("headline").time("event", h.leg.wall_s);
        leg_work(row, h.machines, h.queries, &h.leg);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench workload replays bit-identically on both engines — the
    /// assertion `run_levels` enforces at every sweep level, exercised at
    /// a test-sized pool.
    #[test]
    fn engines_agree_on_the_bench_workload() {
        let levels = run_levels(&[64], 12);
        assert_eq!(levels.len(), 1);
        let l = &levels[0];
        assert_eq!(l.dense.total_cost.to_bits(), l.event.total_cost.to_bits());
        assert_eq!(l.dense.completed + l.dense.failed, 12);
        assert!(
            l.event.stats.lazy_advances > 0,
            "the event leg must evaluate lazily"
        );
        assert!(
            l.event.stats.lazy_advances >= l.dense.stats.lazy_advances,
            "the event leg counts allocator reads plus lazy load evaluations; \
             the dense leg counts only allocator reads"
        );
    }

    /// Each level's row carries both engines' time and the event leg's
    /// counters; the headline becomes the last row.
    #[test]
    fn bench_report_rows_carry_time_and_work() {
        let levels = run_levels(&[48], 8);
        let headline = Headline {
            machines: 48,
            queries: 8,
            leg: levels[0].event,
        };
        let r = bench_report(Scale::Small, &levels, Some(&headline));
        assert_eq!(r.bench, "exec");
        assert_eq!(r.rows.len(), 2);
        let level = r.row("exec_48").expect("level row");
        assert_eq!(level.work["machines"], 48);
        assert_eq!(level.work["queries"], 8);
        assert_eq!(level.work["events"], levels[0].event.stats.events);
        assert!(level.time["dense"] > 0.0 && level.time["event"] > 0.0);
        let h = r.row("headline").expect("headline row");
        assert!(!h.time.contains_key("dense"));
        assert_eq!(h.work, level.work);
    }
}
