//! The training hot-path benchmark: times the fig7 project's DANN training
//! phase on one thread and on a multi-thread pool, and reports wall-clock,
//! speedup, allocations per optimizer step (via the counting allocator
//! installed by the `experiments` binary), and a bit-identity check between
//! the two runs' weights.
//! Writes `BENCH_train.json` as a [`BenchReport`]: one row per leg, with
//! the training wall-clock as `time` and the step and warm-allocation
//! counts as `work`.

use crate::report::{BenchReport, Table};
use crate::scale::{scaled_eval_profile, scaled_pipeline_config, Scale};
use loam_core::pipeline::prepare_project;
use loam_core::{train, AdaptiveCostPredictor, TrainReport};
use mcsim_catalog::ProjectId;

/// Minimum thread count for the parallel leg: the benchmark forces at least
/// four threads so the microbatch fan-out is actually exercised even on
/// small machines (determinism makes the results identical either way).
const MIN_PARALLEL_THREADS: usize = 4;

struct Leg {
    /// Table label and report row name.
    name: &'static str,
    threads: usize,
    report: TrainReport,
    weights: Vec<u32>,
}

/// Allocations per optimizer step once warm (the last epoch, which has no
/// warmup allocations left).
fn steady_allocs_per_step(r: &TrainReport) -> f64 {
    let epochs = r.epoch_allocs.len().max(1) as u64;
    let steps_per_epoch = (r.steps / epochs).max(1);
    match r.epoch_allocs.last() {
        Some(&a) => a as f64 / steps_per_epoch as f64,
        None => 0.0,
    }
}

/// All model weights as bit patterns, for exact comparisons.
fn weight_bits(p: &AdaptiveCostPredictor) -> Vec<u32> {
    p.plan_emb
        .params()
        .into_iter()
        .chain(p.cost_head.params())
        .chain(p.dom_head.params())
        .flat_map(|prm| prm.value.data.iter().map(|v| v.to_bits()))
        .collect()
}

/// Runs the benchmark and writes `BENCH_train.json` into the current
/// directory.
pub fn run(scale: Scale) {
    println!("Training hot-path benchmark — fig7 project, serial vs pool\n");
    let configured = mcsim_par::threads();
    let parallel_threads = configured.max(MIN_PARALLEL_THREADS);
    if configured < MIN_PARALLEL_THREADS {
        eprintln!(
            "note: pool configured with {configured} thread(s); \
             parallel leg forced to {parallel_threads}"
        );
    }

    let profile = scaled_eval_profile(1, scale);
    let cfg = scaled_pipeline_config(scale);
    eprintln!("preparing the fig7 evaluation project...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    eprintln!(
        "training set: {} samples, {} DA candidates, {} epochs",
        prepared.train_samples.len(),
        prepared.da_candidates.len(),
        cfg.train_cfg.epochs
    );

    // Each leg trains a fresh predictor from the same seed (mirroring
    // `train_loam`) under its own thread count.
    let leg = |name: &'static str, threads: usize| -> Leg {
        eprintln!("{name} ({threads} thread(s))...");
        let prev = mcsim_par::set_threads(threads);
        let mut p = AdaptiveCostPredictor::new(cfg.seed ^ 0x10a0, true);
        let report = train(
            &mut p,
            &prepared.train_samples,
            &prepared.da_candidates,
            prepared.mean_env,
            &cfg.train_cfg,
        );
        mcsim_par::set_threads(prev);
        Leg {
            name,
            threads,
            report,
            weights: weight_bits(&p),
        }
    };

    let ws_serial = leg("workspace_serial", 1);
    let ws_parallel = leg("workspace_pool", parallel_threads);

    // Determinism: the engine must be bit-identical at any thread count.
    assert_eq!(
        ws_serial.weights, ws_parallel.weights,
        "serial and parallel weights diverged"
    );
    println!("weights bit-identical across 1 / {parallel_threads} threads ✓\n");

    let mut t = Table::new([
        "leg",
        "threads",
        "train (s)",
        "speedup",
        "allocs/step (warm)",
    ]);
    let serial_s = ws_serial.report.seconds;
    for l in [&ws_serial, &ws_parallel] {
        t.row([
            l.name.to_string(),
            l.threads.to_string(),
            format!("{:.3}", l.report.seconds),
            format!("{:.2}x", serial_s / l.report.seconds.max(1e-9)),
            format!("{:.1}", steady_allocs_per_step(&l.report)),
        ]);
    }
    println!("{}", t.render());

    bench_report(scale, &[ws_serial, ws_parallel]).write("BENCH_train.json");
}

/// The legs as a [`BenchReport`] at the widest leg's thread count.
fn bench_report(scale: Scale, legs: &[Leg]) -> BenchReport {
    let threads = legs.iter().map(|l| l.threads).max().unwrap_or(1);
    let mut report = BenchReport::new("train", scale, threads);
    for l in legs {
        let r = &l.report;
        report
            .push_row(l.name)
            .time("train", r.seconds)
            .work("threads", l.threads as u64)
            .work("epochs", r.epoch_allocs.len() as u64)
            .work("steps", r.steps)
            .work(
                "allocs_last_epoch",
                r.epoch_allocs.last().copied().unwrap_or(0),
            );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(name: &'static str, threads: usize, secs: f64) -> Leg {
        Leg {
            name,
            threads,
            report: TrainReport {
                cost_loss: vec![0.5, 0.4],
                domain_loss: vec![0.7, 0.6],
                seconds: secs,
                epoch_seconds: vec![secs / 2.0, secs / 2.0],
                epoch_allocs: vec![100, 0],
                steps: 20,
                workers: threads,
            },
            weights: Vec::new(),
        }
    }

    #[test]
    fn bench_report_has_one_row_per_leg() {
        let legs = [
            leg("workspace_serial", 1, 2.0),
            leg("workspace_pool", 4, 1.0),
        ];
        let r = bench_report(Scale::Small, &legs);
        assert_eq!(r.bench, "train");
        assert_eq!(r.scale, "small");
        assert_eq!(r.threads, 4);
        assert_eq!(r.rows.len(), 2);
        let pool = r.row("workspace_pool").expect("pool row");
        assert_eq!(pool.time["train"], 1.0);
        assert_eq!(pool.work["threads"], 4);
        assert_eq!(pool.work["epochs"], 2);
        assert_eq!(pool.work["steps"], 20);
        assert_eq!(pool.work["allocs_last_epoch"], 0);
        let serial = r.row("workspace_serial").expect("serial row");
        assert_eq!(serial.work["threads"], 1);
        assert_eq!(serial.time["train"] / pool.time["train"], 2.0);
    }

    #[test]
    fn steady_allocs_use_the_last_epoch() {
        let l = leg("x", 1, 1.0);
        // 2 epochs, 20 steps → 10 steps/epoch; last epoch had 0 allocs.
        assert_eq!(steady_allocs_per_step(&l.report), 0.0);
    }
}
