//! The training contract, pinned by goldens.
//!
//! `train` folds fixed-boundary microbatch slots in slot order and draws
//! every random number on the driving thread, so its final weights and
//! per-epoch losses are a pure function of the inputs: bit-identical at any
//! thread count, with every kernel forced onto its parallel path, and when
//! called from inside a pool worker. The goldens below are FNV-1a digests of
//! every weight's bit pattern plus the exact loss bits; the supervised
//! Transformer and GCN baselines are pinned the same way.

use loam_core::predictor::train::{train, TrainConfig, TrainSample};
use loam_core::{AdaptiveCostPredictor, GcnPredictor, TransformerPredictor};
use mcsim_catalog::EnvMetrics;
use mcsim_plan::{Operator, PlanTree};
use std::sync::Mutex;
use tinynn::Param;

/// The pool size and work gate are process-wide; tests that set them run
/// one at a time.
static POOL_KNOBS: Mutex<()> = Mutex::new(());

/// Golden digest of the DANN-trained weights (`dann_cfg` on `make_samples(48)`
/// and `make_candidates(12)`).
const DANN_WEIGHTS: u64 = 0xe247_67a7_6d0c_b404;
/// Golden per-epoch `cost_loss` bits of the same run.
const DANN_COST_LOSS: [u64; 3] = [
    0x3ff4_a3a7_eaaa_aaab,
    0x3ff2_7792_6555_5555,
    0x3fec_cfea_3555_5555,
];
/// Golden per-epoch `domain_loss` bits of the same run.
const DANN_DOMAIN_LOSS: [u64; 3] = [
    0x3fe7_dcaf_c000_0000,
    0x3fe7_5786_6000_0000,
    0x3fe6_c753_0000_0000,
];
/// Golden digest of `TransformerPredictor::fit` on `baseline_samples()`.
const TRANSFORMER_WEIGHTS: u64 = 0x3bd5_9cef_82fb_855f;
/// Golden digest of `GcnPredictor::fit` on `baseline_samples()`.
const GCN_WEIGHTS: u64 = 0xaeac_bfb6_bab5_ed6d;

/// Synthetic workload: chains of varying depth with a cost that depends on
/// plan size and the (deterministic) environment.
fn make_samples(n: usize) -> Vec<TrainSample> {
    (0..n)
        .map(|i| {
            let chain = 2 + (i % 5);
            let mut plan = PlanTree::new();
            let mut cur = plan.leaf(Operator::table_scan((i % 7) as u32, 1, 1, vec![0]));
            for _ in 0..chain {
                cur = plan.unary(Operator::Limit { n: 10 }, cur);
            }
            let s = plan.unary(Operator::Sink, cur);
            plan.set_root(s);
            let idle = 0.1 + 0.8 * ((i as f64 * 0.37).fract());
            let env = EnvMetrics::new(idle, 0.05, 4.0, 0.5);
            let mult = 1.0 + 1.5 * (1.0 - idle);
            TrainSample {
                plan,
                stage_envs: vec![env],
                cost: 100.0 * (chain + 2) as f64 * mult,
            }
        })
        .collect()
}

/// Candidate plans for the adversarial (DANN) branch: simple chains that
/// differ in shape from the training plans.
fn make_candidates(n: usize) -> Vec<PlanTree> {
    (0..n)
        .map(|i| {
            let mut plan = PlanTree::new();
            let mut cur = plan.leaf(Operator::table_scan((i % 3) as u32, 1, 1, vec![0]));
            for _ in 0..(1 + i % 4) {
                cur = plan.unary(Operator::Limit { n: 5 }, cur);
            }
            let s = plan.unary(Operator::Sink, cur);
            plan.set_root(s);
            plan
        })
        .collect()
}

fn dann_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        adaptive: true,
        seed: 0xd5eed,
        ..TrainConfig::default()
    }
}

/// FNV-1a over the little-endian bit patterns of every weight.
fn weights_digest<'a>(params: impl IntoIterator<Item = &'a Param>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in params {
        for v in &p.value.data {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn loss_bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// One DANN training run: the golden-comparable outcome plus the number of
/// threads that ran its microbatch slots.
fn train_dann() -> ((u64, Vec<u64>, Vec<u64>), usize) {
    let mut p = AdaptiveCostPredictor::new(7, true);
    let report = train(
        &mut p,
        &make_samples(48),
        &make_candidates(12),
        EnvMetrics::default(),
        &dann_cfg(),
    );
    let params = p
        .plan_emb
        .params()
        .into_iter()
        .chain(p.cost_head.params())
        .chain(p.dom_head.params());
    (
        (
            weights_digest(params),
            loss_bits(&report.cost_loss),
            loss_bits(&report.domain_loss),
        ),
        report.workers,
    )
}

fn dann_golden() -> (u64, Vec<u64>, Vec<u64>) {
    (
        DANN_WEIGHTS,
        DANN_COST_LOSS.to_vec(),
        DANN_DOMAIN_LOSS.to_vec(),
    )
}

/// Runs `f` at `threads` pool threads with every kernel's work gate forced
/// open, restoring both knobs afterwards.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev_work = mcsim_par::set_min_parallel_work(1);
    let out = mcsim_par::with_threads(threads, f);
    mcsim_par::set_min_parallel_work(prev_work);
    out
}

/// Two runs with the same seed produce identical loss curves, and the curve
/// does not change across thread counts 1, 2, and 8 even with the work gate
/// forced open (every kernel takes its parallel path).
#[test]
fn same_seed_same_losses_at_any_thread_count() {
    let _knobs = POOL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let samples = make_samples(60);
    let cfg = TrainConfig {
        epochs: 4,
        adaptive: false,
        seed: 0xd5eed,
        ..TrainConfig::default()
    };
    let run = || {
        let mut p = AdaptiveCostPredictor::new(7, true);
        let report = train(&mut p, &samples, &[], EnvMetrics::default(), &cfg);
        assert_eq!(report.cost_loss.len(), 4);
        loss_bits(&report.cost_loss)
    };
    let reference = at_threads(1, run);
    assert_eq!(reference, at_threads(1, run), "same seed must replay");
    for threads in [2usize, 8] {
        assert_eq!(
            reference,
            at_threads(threads, run),
            "loss curve changed at {threads} threads"
        );
    }
}

/// The adaptive (DANN) run reproduces the golden weights and loss bits at
/// 1, 2 and 8 threads; the default batch of 16 fills all 8 slots, so every
/// pool thread runs slots.
#[test]
fn dann_training_matches_the_golden_at_any_thread_count() {
    let _knobs = POOL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 2, 8] {
        let (outcome, workers) = at_threads(threads, train_dann);
        assert_eq!(outcome, dann_golden(), "at {threads} threads");
        assert_eq!(workers, threads);
    }
}

/// Called from a pool worker, `train` runs its slots inline on the calling
/// thread instead of spawning a nested layer of threads, and still
/// reproduces the golden.
#[test]
fn training_on_a_pool_worker_runs_inline() {
    let _knobs = POOL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let (outcome, workers) = at_threads(4, || {
        let _worker = mcsim_par::enter_worker();
        train_dann()
    });
    assert_eq!(workers, 1, "nested training must not fan out");
    assert_eq!(outcome, dann_golden());
}

/// Samples for the supervised baselines.
fn baseline_samples() -> Vec<TrainSample> {
    make_samples(40)
}

/// The Transformer and GCN baselines reproduce their golden fitted weights.
#[test]
fn baseline_fits_match_their_goldens() {
    let samples = baseline_samples();
    let cfg = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    let tr = weights_digest(TransformerPredictor::fit(&samples, &cfg).params());
    let gcn = weights_digest(GcnPredictor::fit(&samples, &cfg).params());
    assert_eq!(tr, TRANSFORMER_WEIGHTS, "Transformer fitted weights");
    assert_eq!(gcn, GCN_WEIGHTS, "GCN fitted weights");
}
