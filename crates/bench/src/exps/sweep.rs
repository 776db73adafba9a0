//! The `experiments sweep` subcommand: a deterministic scenario-matrix
//! harness.
//!
//! LOAM's headline claim is robustness across *environments*; the one-off
//! `experiments` subcommands each probe a single axis. This module turns
//! them into a matrix: a declarative plain-text spec expands into a job
//! grid over {cluster size × tenant count × fault multiplier × arrival
//! profile}, every job runs a reproducible
//! optimize → gate → execute → serve pass (a [`ServeSession`] over the
//! once-trained pipeline) with a seed derived by
//! [`seed_stream`]`(sweep_seed, job_index)`, once per `axis.threads` pool
//! size, and the whole matrix is emitted as **one canonical-JSON**
//! [`SweepReport`] (sorted keys, fixed float formatting, per-cell metrics
//! + config hashes + a runbook manifest) to `BENCH_sweep.json`.
//!
//! Determinism is the contract, not a nicety:
//!
//! * expansion is a pure function of the spec — same spec + seed ⇒
//!   byte-identical job grid (property-tested);
//! * every cell metric is a deterministic quantity (counts, exact cost
//!   sums, the decision-log digest) — wall-clock never enters the report,
//!   so reruns and thread counts cannot move a byte;
//! * the threads axis is the *replication* dimension: each job reruns at
//!   every pool size with the same seed, and the replicas' metrics must
//!   agree bit-for-bit (`runbook.thread_invariant` — the harness checks
//!   its own determinism claim on every run);
//! * the runbook manifest carries every cell's seed and config, so a sweep
//!   replays byte-for-byte from the report alone ([`replay`]).
//!
//! `experiments compare` diffs sweep reports cell by cell through the same
//! engine as every other report ([`SweepReport::gated`] maps cells to
//! rows; see [`compare`](crate::exps::compare)), so CI gates on a whole
//! scenario matrix instead of a single benchmark.
//!
//! # Spec format
//!
//! Plain text, `key = value` per line, `#` comments:
//!
//! ```text
//! mode = grid                 # or: lhs (seeded Latin hypercube)
//! samples = 12                # lhs only: number of jobs
//! seed = 48879                # master sweep seed
//! requests = 32               # arrival-trace length per cell
//! batch_size = 16             # serving batch width per cell
//! axis.machines = 8,16        # grid: value list; lhs: list or lo..hi
//! axis.tenants = 4,8
//! axis.fault_scale = 0.0,1.0
//! axis.arrival = poisson      # subset of poisson,bursty,diurnal
//! axis.threads = 1,2          # pool sizes every job is replicated at
//! ```
//!
//! Grid mode takes the cross-product of the workload axis value lists
//! (axes in alphabetical order, later axes fastest). LHS mode draws
//! `samples` jobs: each numeric axis is split into `samples` strata, a
//! seeded permutation assigns one stratum per job, and integer axes place
//! each stratum at a distinct value (validation requires an axis capable
//! of separating all samples, so jobs are pairwise distinct by
//! construction). Either way, cells = jobs × `axis.threads`.

use crate::canon;
use crate::exps::compare::{Gated, GatedRow, Metric};
use crate::report::Table;
use crate::scale::{scaled_eval_profile, Scale};
use loam_core::inference::EnvStrategy;
use loam_core::pipeline::{
    evaluate_candidates, prepare_project, train_loam, EvaluatedQuery, PipelineConfig,
    PreparedProject,
};
use loam_core::predictor::AdaptiveCostPredictor;
use loam_core::TrainConfig;
use mcsim_catalog::ProjectId;
use mcsim_exec::seed_stream;
use mcsim_serve::{ArrivalProfile, RequestOutcome, ServeConfig, ServeReport, ServeSession};
use serde::{Deserialize, Serialize};

/// The embedded quick spec (CI smoke and the checked-in
/// `BENCH_sweep.json`): a small grid, two thread counts.
pub const QUICK_SPEC: &str = include_str!("../../specs/quick.sweep");

/// The embedded full spec: a seeded Latin-hypercube over all five axes.
pub const FULL_SPEC: &str = include_str!("../../specs/full.sweep");

// ------------------------------------------------------------------ spec

/// Expansion mode of a sweep spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Cross-product of the axis value lists.
    Grid,
    /// Seeded Latin-hypercube sampling of `samples` cells.
    Lhs,
}

/// One numeric axis: an explicit value list or a sampling range.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Explicit values (the only grid form).
    Values(Vec<f64>),
    /// Inclusive sampling range `lo..hi` (LHS only).
    Range(f64, f64),
}

/// A parsed, validated sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Expansion mode.
    pub mode: Mode,
    /// LHS cell count (0 in grid mode).
    pub samples: usize,
    /// Master sweep seed; job `i` runs at `seed_stream(seed, i)`.
    pub seed: u64,
    /// Arrival-trace length per cell.
    pub requests: usize,
    /// Serving batch width per cell.
    pub batch_size: usize,
    /// Machines per per-request execution cluster.
    pub machines: Axis,
    /// Tenants the arrival trace is drawn over.
    pub tenants: Axis,
    /// Fault-injection multiplier of the per-request executors.
    pub fault_scale: Axis,
    /// Arrival shapes (subset of `poisson`, `bursty`, `diurnal`).
    pub arrival: Vec<String>,
    /// Pool sizes the cells run at.
    pub threads: Vec<usize>,
}

const ARRIVAL_NAMES: [&str; 3] = ["poisson", "bursty", "diurnal"];

impl SweepSpec {
    /// Parses and validates the plain-text spec format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending line or
    /// constraint.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec {
            mode: Mode::Grid,
            samples: 0,
            seed: 0x5eed_0bb1,
            requests: 48,
            batch_size: 16,
            machines: Axis::Values(vec![8.0]),
            tenants: Axis::Values(vec![4.0]),
            fault_scale: Axis::Values(vec![0.0]),
            arrival: vec!["poisson".to_string()],
            threads: vec![1],
        };
        let mut samples_set = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: {what}: `{value}`", lineno + 1);
            match key {
                "mode" => {
                    spec.mode = match value {
                        "grid" => Mode::Grid,
                        "lhs" => Mode::Lhs,
                        _ => return Err(bad("mode must be `grid` or `lhs`")),
                    }
                }
                "samples" => {
                    spec.samples = value.parse().map_err(|_| bad("invalid sample count"))?;
                    samples_set = true;
                }
                "seed" => spec.seed = value.parse().map_err(|_| bad("invalid seed"))?,
                "requests" => {
                    spec.requests = value.parse().map_err(|_| bad("invalid request count"))?
                }
                "batch_size" => {
                    spec.batch_size = value.parse().map_err(|_| bad("invalid batch size"))?
                }
                "axis.machines" => spec.machines = parse_axis(value).map_err(|e| bad(&e))?,
                "axis.tenants" => spec.tenants = parse_axis(value).map_err(|e| bad(&e))?,
                "axis.fault_scale" => spec.fault_scale = parse_axis(value).map_err(|e| bad(&e))?,
                "axis.arrival" => {
                    spec.arrival = value.split(',').map(|s| s.trim().to_string()).collect()
                }
                "axis.threads" => {
                    spec.threads = value
                        .split(',')
                        .map(|s| s.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad("invalid thread list"))?
                }
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        if spec.mode == Mode::Grid && samples_set {
            return Err("`samples` is only valid in lhs mode".to_string());
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.requests == 0 || self.batch_size == 0 {
            return Err("requests and batch_size must be >= 1".to_string());
        }
        if self.arrival.is_empty() || self.threads.is_empty() {
            return Err("axis.arrival and axis.threads must be non-empty".to_string());
        }
        for a in &self.arrival {
            if !ARRIVAL_NAMES.contains(&a.as_str()) {
                return Err(format!(
                    "unknown arrival `{a}` (expected one of {})",
                    ARRIVAL_NAMES.join(", ")
                ));
            }
        }
        if has_duplicates(&self.arrival) || has_duplicates(&self.threads) {
            return Err("axis values must be distinct".to_string());
        }
        if self.threads.iter().any(|&t| t == 0 || t > 256) {
            return Err("axis.threads values must be in 1..=256".to_string());
        }
        for (name, axis, integral, min) in [
            ("machines", &self.machines, true, 1.0),
            ("tenants", &self.tenants, true, 1.0),
            ("fault_scale", &self.fault_scale, false, 0.0),
        ] {
            match axis {
                Axis::Values(vs) => {
                    if vs.is_empty() {
                        return Err(format!("axis.{name} must be non-empty"));
                    }
                    if has_duplicates(&vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()) {
                        return Err(format!("axis.{name} values must be distinct"));
                    }
                    for &v in vs {
                        if !v.is_finite() || v < min || (integral && v.fract() != 0.0) {
                            return Err(format!("axis.{name}: invalid value {v}"));
                        }
                    }
                }
                Axis::Range(lo, hi) => {
                    if self.mode == Mode::Grid {
                        return Err(format!(
                            "axis.{name}: ranges (`lo..hi`) are only valid in lhs mode"
                        ));
                    }
                    if !lo.is_finite() || !hi.is_finite() || *lo < min || hi < lo {
                        return Err(format!("axis.{name}: invalid range {lo}..{hi}"));
                    }
                    if integral && (lo.fract() != 0.0 || hi.fract() != 0.0) {
                        return Err(format!("axis.{name}: range endpoints must be integers"));
                    }
                }
            }
        }
        if self.mode == Mode::Lhs {
            if self.samples == 0 {
                return Err("lhs mode requires `samples >= 1`".to_string());
            }
            if self.samples > 1 && !self.lhs_separates() {
                return Err(format!(
                    "lhs with {} samples needs a separating axis: an integer range \
                     spanning >= samples values, or a non-degenerate fault_scale range",
                    self.samples
                ));
            }
        }
        Ok(())
    }

    /// True when some numeric axis is guaranteed to give every LHS cell a
    /// distinct value, making jobs pairwise distinct by construction.
    fn lhs_separates(&self) -> bool {
        let n = self.samples as f64;
        let int_separates = |a: &Axis| matches!(a, Axis::Range(lo, hi) if hi - lo + 1.0 >= n);
        int_separates(&self.machines)
            || int_separates(&self.tenants)
            || matches!(&self.fault_scale, Axis::Range(lo, hi) if hi > lo)
    }

    /// The normalized spec echo embedded in (and hashed into) the report.
    pub fn echo(&self) -> SpecEcho {
        let axis_str = |a: &Axis| match a {
            Axis::Values(vs) => vs.iter().map(|v| num_str(*v)).collect::<Vec<_>>().join(","),
            Axis::Range(lo, hi) => format!("{}..{}", num_str(*lo), num_str(*hi)),
        };
        SpecEcho {
            mode: match self.mode {
                Mode::Grid => "grid".to_string(),
                Mode::Lhs => "lhs".to_string(),
            },
            samples: self.samples as u64,
            seed: self.seed,
            requests: self.requests as u64,
            batch_size: self.batch_size as u64,
            axes: vec![
                AxisEcho::new("arrival", self.arrival.join(",")),
                AxisEcho::new("fault_scale", axis_str(&self.fault_scale)),
                AxisEcho::new("machines", axis_str(&self.machines)),
                AxisEcho::new("tenants", axis_str(&self.tenants)),
                AxisEcho::new(
                    "threads",
                    self.threads
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ],
        }
    }
}

/// Integral values render without a decimal point in spec echoes
/// (`8`, not `8.0`); everything else uses the canonical float form.
fn num_str(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{v:.0}")
    } else {
        canon::fmt_f64(v)
    }
}

fn parse_axis(value: &str) -> Result<Axis, String> {
    if let Some((lo, hi)) = value.split_once("..") {
        let lo: f64 = lo.trim().parse().map_err(|_| "invalid range".to_string())?;
        let hi: f64 = hi.trim().parse().map_err(|_| "invalid range".to_string())?;
        return Ok(Axis::Range(lo, hi));
    }
    let vs: Result<Vec<f64>, _> = value.split(',').map(|s| s.trim().parse::<f64>()).collect();
    vs.map(Axis::Values)
        .map_err(|_| "invalid value list".into())
}

fn has_duplicates<T: PartialEq>(vs: &[T]) -> bool {
    vs.iter()
        .enumerate()
        .any(|(i, v)| vs[..i].iter().any(|w| w == v))
}

// ------------------------------------------------------------ job matrix

/// One job's semantic configuration — the four workload axes. The threads
/// axis deliberately lives *outside* the job: a job is one seeded
/// experiment, and each job runs once per `axis.threads` value **with the
/// same seed**, so thread-replica cells must produce identical metrics
/// (the harness's determinism self-check, recorded as
/// `runbook.thread_invariant`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Arrival shape (`poisson`, `bursty`, `diurnal`).
    pub arrival: String,
    /// Fault-injection multiplier.
    pub fault_scale: f64,
    /// Machines per per-request execution cluster.
    pub machines: u64,
    /// Tenant count of the arrival trace.
    pub tenants: u64,
}

/// One cell's configuration: a job's semantic axes plus the pool size the
/// replica ran at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Arrival shape (`poisson`, `bursty`, `diurnal`).
    pub arrival: String,
    /// Fault-injection multiplier.
    pub fault_scale: f64,
    /// Machines per per-request execution cluster.
    pub machines: u64,
    /// Tenant count of the arrival trace.
    pub tenants: u64,
    /// Pool size the cell ran at (the replication dimension).
    pub threads: u64,
}

impl CellConfig {
    fn of(job: &JobConfig, threads: u64) -> CellConfig {
        CellConfig {
            arrival: job.arrival.clone(),
            fault_scale: job.fault_scale,
            machines: job.machines,
            tenants: job.tenants,
            threads,
        }
    }
}

/// One expanded job: a semantic configuration plus its derived seed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Position in the expanded matrix (row-major for grids, sample index
    /// for LHS).
    pub index: u64,
    /// `seed_stream(sweep_seed, index)` — pairwise distinct across jobs.
    pub seed: u64,
    /// The semantic configuration.
    pub config: JobConfig,
}

/// Expands a validated spec into its job matrix. Pure: the same spec
/// always yields the same jobs, byte for byte.
pub fn expand(spec: &SweepSpec) -> Result<Vec<JobSpec>, String> {
    spec.validate()?;
    let configs = match spec.mode {
        Mode::Grid => expand_grid(spec),
        Mode::Lhs => expand_lhs(spec),
    };
    Ok(configs
        .into_iter()
        .enumerate()
        .map(|(i, config)| JobSpec {
            index: i as u64,
            seed: seed_stream(spec.seed, i as u64),
            config,
        })
        .collect())
}

fn axis_values(a: &Axis) -> &[f64] {
    match a {
        Axis::Values(vs) => vs,
        Axis::Range(..) => unreachable!("grid axes are validated to be value lists"),
    }
}

/// Cross-product in alphabetical axis order (arrival, fault_scale,
/// machines, tenants), later axes fastest.
fn expand_grid(spec: &SweepSpec) -> Vec<JobConfig> {
    let mut out = Vec::new();
    for arrival in &spec.arrival {
        for &fault_scale in axis_values(&spec.fault_scale) {
            for &machines in axis_values(&spec.machines) {
                for &tenants in axis_values(&spec.tenants) {
                    out.push(JobConfig {
                        arrival: arrival.clone(),
                        fault_scale,
                        machines: machines as u64,
                        tenants: tenants as u64,
                    });
                }
            }
        }
    }
    out
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (seed_stream(seed, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Latin-hypercube expansion: each numeric axis is split into `samples`
/// strata; a per-axis seeded permutation assigns cell `j` stratum
/// `perm[j]`. Integer axes place strata at evenly-spaced distinct values;
/// float axes jitter inside the stratum with a seeded uniform draw (so
/// values stay strictly inside `[lo, hi)`); categorical axes map strata
/// onto the value list round-robin.
fn expand_lhs(spec: &SweepSpec) -> Vec<JobConfig> {
    let n = spec.samples;
    let axis_seed = |tag: u64| seed_stream(spec.seed ^ 0x5eed_a715, tag);
    let perm_of = |tag: u64| permutation(n, axis_seed(tag));

    let int_axis = |a: &Axis, tag: u64| -> Vec<u64> {
        let perm = perm_of(tag);
        match a {
            Axis::Values(vs) => perm.iter().map(|&s| vs[s % vs.len()] as u64).collect(),
            Axis::Range(lo, hi) => perm
                .iter()
                .map(|&s| {
                    if n == 1 {
                        ((lo + hi) / 2.0).round() as u64
                    } else {
                        (lo + (s as f64 * (hi - lo) / (n - 1) as f64).round()) as u64
                    }
                })
                .collect(),
        }
    };
    let float_axis = |a: &Axis, tag: u64| -> Vec<f64> {
        let perm = perm_of(tag);
        match a {
            Axis::Values(vs) => perm.iter().map(|&s| vs[s % vs.len()]).collect(),
            Axis::Range(lo, hi) => perm
                .iter()
                .enumerate()
                .map(|(j, &s)| {
                    // A seeded jitter inside stratum `s`: exact dyadic
                    // rational in [0, 1), so the draw is bit-stable.
                    let u = (seed_stream(axis_seed(tag ^ 0xf2ac), j as u64) >> 11) as f64
                        * (1.0 / (1u64 << 53) as f64);
                    lo + (s as f64 + u) * (hi - lo) / n as f64
                })
                .collect(),
        }
    };

    let machines = int_axis(&spec.machines, 1);
    let tenants = int_axis(&spec.tenants, 2);
    let fault = float_axis(&spec.fault_scale, 3);
    let arrival_perm = perm_of(4);
    (0..n)
        .map(|j| JobConfig {
            arrival: spec.arrival[arrival_perm[j] % spec.arrival.len()].clone(),
            fault_scale: fault[j],
            machines: machines[j],
            tenants: tenants[j],
        })
        .collect()
}

// ------------------------------------------------------------- reporting

/// Normalized spec echo, embedded in the report and hashed into
/// `spec_hash`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecEcho {
    /// `grid` or `lhs`.
    pub mode: String,
    /// LHS cell count (0 for grids).
    pub samples: u64,
    /// Master sweep seed.
    pub seed: u64,
    /// Arrival-trace length per cell.
    pub requests: u64,
    /// Serving batch width per cell.
    pub batch_size: u64,
    /// Axes in alphabetical order with normalized value strings.
    pub axes: Vec<AxisEcho>,
}

/// One normalized axis line of the spec echo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisEcho {
    /// Axis name.
    pub name: String,
    /// Normalized value list (`8,16`) or range (`8..64`).
    pub values: String,
}

impl AxisEcho {
    fn new(name: &str, values: String) -> AxisEcho {
        AxisEcho {
            name: name.to_string(),
            values,
        }
    }
}

/// Deterministic metrics of one cell: counts, exact cost sums, and the
/// decision-log digest. Wall-clock never appears here — that is what
/// makes the whole report bit-stable across reruns and thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Arrivals in the cell's trace.
    pub requests: u64,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Admitted requests whose default plan failed too.
    pub failed: u64,
    /// Batched forwards issued.
    pub batches: u64,
    /// Served requests resolved below a clean steered/default serve.
    pub degraded: u64,
    /// Fault-injected retries survived.
    pub total_retries: u64,
    /// Total observed CPU cost of completed requests (exact f64 sum in
    /// arrival order).
    pub total_cost: f64,
    /// CPU cost burnt by killed attempts.
    pub total_wasted_cost: f64,
    /// completed / admitted.
    pub completion_rate: f64,
    /// shed / requests.
    pub shed_rate: f64,
    /// Hex digest of the decision log
    /// ([`ServeReport::decision_digest`]).
    pub decision_hash: String,
}

/// One cell of a sweep report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Matrix position.
    pub index: u64,
    /// The job's derived seed.
    pub seed: u64,
    /// The swept configuration.
    pub config: CellConfig,
    /// Canonical hash of `config` — the key `compare` matches cells by.
    pub config_hash: String,
    /// The deterministic metrics.
    pub metrics: CellMetrics,
    /// Canonical hash of `metrics`.
    pub metrics_hash: String,
}

/// The reproducibility manifest: everything needed to replay the sweep
/// without the spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Runbook {
    /// Hash of (spec_hash, seeds) — the sweep's identity.
    pub id: String,
    /// Number of semantic jobs (distinct seeds).
    pub jobs: u64,
    /// Number of cells (jobs × thread replicas).
    pub cells: u64,
    /// Master sweep seed.
    pub sweep_seed: u64,
    /// Per-job seeds, in matrix order.
    pub seeds: Vec<u64>,
    /// Artifacts this manifest describes.
    pub artifacts: Vec<String>,
    /// True when every group of cells differing only in `threads`
    /// produced identical metrics — the harness's determinism
    /// self-check.
    pub thread_invariant: bool,
}

/// The whole scenario matrix as one canonical-JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Always `sweep`.
    pub bench: String,
    /// Scale the pipeline context was prepared at.
    pub scale: String,
    /// Normalized spec echo.
    pub spec: SpecEcho,
    /// Canonical hash of `spec`.
    pub spec_hash: String,
    /// One cell per job, in matrix order.
    pub cells: Vec<SweepCell>,
    /// The reproducibility manifest.
    pub runbook: Runbook,
}

impl SweepReport {
    /// The `compare` gate's view: one row per cell keyed by `config_hash`,
    /// with costs and shed rate lower-is-better, completion rate
    /// higher-is-better, and the decision digest exact.
    pub fn gated(&self) -> Gated {
        let rows = self
            .cells
            .iter()
            .map(|c| {
                let m = &c.metrics;
                let metrics = [
                    ("total_cost", Metric::Lower(m.total_cost)),
                    ("total_wasted_cost", Metric::Lower(m.total_wasted_cost)),
                    ("shed_rate", Metric::Lower(m.shed_rate)),
                    ("completion_rate", Metric::Higher(m.completion_rate)),
                    ("decision_hash", Metric::Exact(m.decision_hash.clone())),
                ];
                GatedRow {
                    name: c.config_hash.clone(),
                    metrics: metrics.map(|(k, v)| (k.to_string(), v)).into(),
                }
            })
            .collect();
        Gated {
            bench: self.bench.clone(),
            scale: self.scale.clone(),
            rows,
        }
    }
}

fn metrics_of(report: &ServeReport) -> CellMetrics {
    let degraded = report
        .decision_log
        .iter()
        .filter(|r| match r.outcome {
            RequestOutcome::Served { resolution, .. } => resolution.is_degraded(),
            RequestOutcome::Shed => false,
        })
        .count() as u64;
    CellMetrics {
        requests: report.requests as u64,
        shed: report.shed as u64,
        admitted: report.admitted as u64,
        completed: report.completed as u64,
        failed: report.failed as u64,
        batches: report.batches as u64,
        degraded,
        total_retries: u64::from(report.total_retries),
        total_cost: report.total_cost,
        total_wasted_cost: report.total_wasted_cost,
        completion_rate: report.completion_rate(),
        shed_rate: report.shed_rate(),
        decision_hash: canon::hex16(report.decision_digest()),
    }
}

// --------------------------------------------------------------- running

/// The once-trained pipeline context every cell serves against. Preparing
/// it is the expensive part of a sweep; tests share one across runs.
pub struct SweepContext {
    prepared: PreparedProject,
    predictor: AdaptiveCostPredictor,
    evaluated: Vec<EvaluatedQuery>,
    strategy: EnvStrategy,
}

/// A pipeline configuration small enough that training is a footnote next
/// to the matrix itself (mirrors the chaos/serve benchmarks).
fn sweep_pipeline_config(scale: Scale) -> PipelineConfig {
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

impl SweepContext {
    /// Prepares, trains, and evaluates the pipeline once. Deterministic at
    /// any thread count (the training-determinism guarantee).
    pub fn prepare(scale: Scale) -> SweepContext {
        let profile = scaled_eval_profile(1, scale);
        let cfg = sweep_pipeline_config(scale);
        let prepared =
            prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
        let predictor = train_loam(&prepared, &cfg).expect("LOAM training failed");
        let evaluated = evaluate_candidates(&prepared, &cfg).expect("candidate evaluation failed");
        let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
        SweepContext {
            prepared,
            predictor,
            evaluated,
            strategy,
        }
    }
}

fn arrival_profile(name: &str) -> Result<ArrivalProfile, String> {
    // Shared rate constants across shapes (the serve benchmark's values),
    // so the arrival axis varies *shape*, not offered load.
    match name {
        "poisson" => Ok(ArrivalProfile::Poisson { rate_qps: 64.0 }),
        "bursty" => Ok(ArrivalProfile::Bursty {
            rate_qps: 64.0,
            burst_factor: 8.0,
            burst_fraction: 0.25,
        }),
        "diurnal" => Ok(ArrivalProfile::Diurnal {
            rate_qps: 64.0,
            amplitude: 0.6,
            period_s: 4.0,
        }),
        other => Err(format!("unknown arrival profile `{other}`")),
    }
}

/// Per-cell serving knobs shared by fresh runs and runbook replays.
#[derive(Debug, Clone, Copy)]
struct CellRunParams {
    requests: usize,
    batch_size: usize,
}

/// One cell ready to run: a job replica pinned to a pool size.
#[derive(Debug, Clone)]
struct CellSpec {
    index: u64,
    seed: u64,
    config: CellConfig,
}

fn run_cell(
    ctx: &SweepContext,
    params: CellRunParams,
    cell: &CellSpec,
) -> Result<SweepCell, String> {
    let cfg = ServeConfig::builder()
        .arrival(arrival_profile(&cell.config.arrival)?)
        .tenants(cell.config.tenants as usize)
        .requests(params.requests)
        .batch_size(params.batch_size)
        .machines(cell.config.machines as usize)
        .fault_scale(cell.config.fault_scale)
        .warmup_ticks(2)
        .strategy(ctx.strategy)
        .seed(cell.seed)
        .build()
        .map_err(|e| format!("cell {}: invalid serve config: {e:?}", cell.index))?;
    let session =
        ServeSession::new(cfg).map_err(|e| format!("cell {}: session: {e:?}", cell.index))?;
    let report = session
        .run(
            &ctx.predictor,
            &ctx.evaluated,
            &ctx.prepared.project.catalog,
            None,
        )
        .map_err(|e| format!("cell {}: serving failed: {e:?}", cell.index))?;
    let metrics = metrics_of(&report);
    Ok(SweepCell {
        index: cell.index,
        seed: cell.seed,
        config: cell.config.clone(),
        config_hash: canon::hash_of(&cell.config),
        metrics_hash: canon::hash_of(&metrics),
        metrics,
    })
}

/// Runs every cell, grouped by thread count: each group executes under
/// [`mcsim_par::with_threads`] at its declared pool size, cells fanned out
/// through the gated pool (nested fan-outs inside a cell run inline).
/// Results return in matrix order regardless of grouping.
fn run_cells(
    ctx: &SweepContext,
    params: CellRunParams,
    cells: &[CellSpec],
) -> Result<Vec<SweepCell>, String> {
    let mut thread_counts: Vec<u64> = cells.iter().map(|c| c.config.threads).collect();
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let mut out: Vec<Option<SweepCell>> = Vec::with_capacity(cells.len());
    out.resize_with(cells.len(), || None);
    for t in thread_counts {
        let group: Vec<(usize, &CellSpec)> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.config.threads == t)
            .collect();
        let results: Vec<(usize, Result<SweepCell, String>)> =
            mcsim_par::with_threads(t as usize, || {
                mcsim_par::ThreadPool::global().parallel_map_gated(
                    &group,
                    // Each cell serves a whole trace against its own
                    // cluster — always worth a fan-out slot.
                    usize::MAX / group.len().max(1),
                    |(pos, cell)| (*pos, run_cell(ctx, params, cell)),
                )
            });
        for (pos, r) in results {
            out[pos] = Some(r?);
        }
    }
    Ok(out
        .into_iter()
        .map(|c| c.expect("every cell ran exactly once"))
        .collect())
}

/// True when every group of cells differing only in `threads` produced
/// identical metrics.
fn thread_invariant(cells: &[SweepCell]) -> bool {
    let mut groups: std::collections::HashMap<String, &str> = std::collections::HashMap::new();
    for c in cells {
        let key = canon::hash_of(&CellConfig {
            threads: 0,
            ..c.config.clone()
        });
        match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != c.metrics_hash {
                    return false;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(&c.metrics_hash);
            }
        }
    }
    true
}

fn assemble(scale_name: String, echo: SpecEcho, cells: Vec<SweepCell>) -> SweepReport {
    let spec_hash = canon::hash_of(&echo);
    let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
    let mut distinct = seeds.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let runbook = Runbook {
        id: canon::hex16(canon::fnv1a64(
            canon::canonical_of(&(spec_hash.clone(), seeds.clone())).as_bytes(),
        )),
        jobs: distinct.len() as u64,
        cells: cells.len() as u64,
        sweep_seed: echo.seed,
        seeds,
        artifacts: vec!["BENCH_sweep.json".to_string()],
        thread_invariant: thread_invariant(&cells),
    };
    SweepReport {
        bench: "sweep".to_string(),
        scale: scale_name,
        spec: echo,
        spec_hash,
        cells,
        runbook,
    }
}

/// Expands the spec and runs the whole matrix against a prepared context.
///
/// # Errors
///
/// Returns a message when the spec fails validation or a cell fails to
/// serve.
pub fn run_sweep(
    ctx: &SweepContext,
    scale: Scale,
    spec: &SweepSpec,
) -> Result<SweepReport, String> {
    let jobs = expand(spec)?;
    // Cells = jobs × thread replicas, job-major with replicas adjacent.
    // Every replica of a job reuses the job's seed — by construction the
    // replicas are reruns of the same experiment at different pool sizes.
    let cells: Vec<CellSpec> = jobs
        .iter()
        .flat_map(|job| {
            spec.threads
                .iter()
                .enumerate()
                .map(move |(ti, &t)| CellSpec {
                    index: job.index * spec.threads.len() as u64 + ti as u64,
                    seed: job.seed,
                    config: CellConfig::of(&job.config, t as u64),
                })
        })
        .collect();
    let cells = run_cells(
        ctx,
        CellRunParams {
            requests: spec.requests,
            batch_size: spec.batch_size,
        },
        &cells,
    )?;
    Ok(assemble(
        format!("{scale:?}").to_lowercase(),
        spec.echo(),
        cells,
    ))
}

/// Replays a sweep from its own report: jobs are reconstructed from the
/// runbook's cells (config + seed), never from the spec, so a report is a
/// self-contained reproduction recipe. A replay of an untampered report
/// is byte-identical to the original.
///
/// # Errors
///
/// Returns a message when the report's spec echo or a cell is invalid.
pub fn replay(ctx: &SweepContext, report: &SweepReport) -> Result<SweepReport, String> {
    let cells: Vec<CellSpec> = report
        .cells
        .iter()
        .map(|c| CellSpec {
            index: c.index,
            seed: c.seed,
            config: c.config.clone(),
        })
        .collect();
    let cells = run_cells(
        ctx,
        CellRunParams {
            requests: report.spec.requests as usize,
            batch_size: report.spec.batch_size as usize,
        },
        &cells,
    )?;
    Ok(SweepReport {
        bench: report.bench.clone(),
        scale: report.scale.clone(),
        spec: report.spec.clone(),
        spec_hash: report.spec_hash.clone(),
        runbook: assemble(report.scale.clone(), report.spec.clone(), cells.clone()).runbook,
        cells,
    })
}

/// The `experiments sweep` subcommand: parses the spec (a `--spec` file,
/// or the embedded quick/full spec), runs the matrix, prints the cell
/// table, and writes canonical JSON to `BENCH_sweep.json`.
pub fn run(scale: Scale, quick: bool, spec_path: Option<&str>) {
    println!("Sweep — deterministic scenario matrix over a once-trained pipeline\n");
    let text = match spec_path {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("sweep: cannot read spec `{p}`: {e}");
            std::process::exit(2);
        }),
        None => (if quick { QUICK_SPEC } else { FULL_SPEC }).to_string(),
    };
    let spec = SweepSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("sweep: invalid spec: {e}");
        std::process::exit(2);
    });
    let jobs = expand(&spec).expect("validated specs expand");
    eprintln!(
        "matrix: {} jobs x {} thread replica(s) = {} cells ({} mode), seed {}; \
         preparing + training the pipeline...",
        jobs.len(),
        spec.threads.len(),
        jobs.len() * spec.threads.len(),
        match spec.mode {
            Mode::Grid => "grid",
            Mode::Lhs => "lhs",
        },
        spec.seed
    );
    let ctx = SweepContext::prepare(scale);
    let started = std::time::Instant::now();
    let report = run_sweep(&ctx, scale, &spec).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(2);
    });
    let wall = started.elapsed().as_secs_f64();

    let mut t = Table::new([
        "cell",
        "arrival",
        "fault",
        "machines",
        "tenants",
        "threads",
        "completed",
        "degraded",
        "shed",
        "cost",
        "decisions",
    ]);
    for c in &report.cells {
        t.row([
            c.index.to_string(),
            c.config.arrival.clone(),
            format!("{:.2}", c.config.fault_scale),
            c.config.machines.to_string(),
            c.config.tenants.to_string(),
            c.config.threads.to_string(),
            format!("{}/{}", c.metrics.completed, c.metrics.admitted),
            c.metrics.degraded.to_string(),
            c.metrics.shed.to_string(),
            format!("{:.0}", c.metrics.total_cost),
            c.metrics.decision_hash[..8].to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "runbook {} over {} jobs / {} cells (spec {}): thread_invariant={}, wall {:.1}s",
        report.runbook.id,
        report.runbook.jobs,
        report.runbook.cells,
        report.spec_hash,
        report.runbook.thread_invariant,
        wall
    );

    let path = "BENCH_sweep.json";
    match std::fs::write(path, canon::canonical_file(&report)) {
        Ok(()) => println!("wrote {path} (canonical JSON; bit-identical across reruns)"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_and_full_specs_parse_and_expand() {
        let quick = SweepSpec::parse(QUICK_SPEC).expect("quick spec parses");
        let jobs = expand(&quick).expect("quick spec expands");
        assert!(!jobs.is_empty());
        assert_eq!(quick.mode, Mode::Grid);
        let full = SweepSpec::parse(FULL_SPEC).expect("full spec parses");
        let jobs = expand(&full).expect("full spec expands");
        assert_eq!(full.mode, Mode::Lhs);
        assert_eq!(jobs.len(), full.samples);
    }

    #[test]
    fn grid_expansion_is_the_ordered_cross_product() {
        let spec = SweepSpec::parse(
            "mode = grid\nseed = 7\naxis.machines = 8,16\naxis.tenants = 4,8\n\
             axis.fault_scale = 0.0,1.0\naxis.arrival = poisson\naxis.threads = 1,2\n",
        )
        .expect("spec parses");
        let jobs = expand(&spec).expect("expands");
        // The job matrix covers the workload axes only; threads replicates.
        assert_eq!(jobs.len(), 2 * 2 * 2);
        // tenants is the fastest axis, machines slower, fault_scale slowest.
        assert_eq!(jobs[0].config.tenants, 4);
        assert_eq!(jobs[1].config.tenants, 8);
        assert_eq!(jobs[0].config.machines, 8);
        assert_eq!(jobs[2].config.machines, 16);
        assert_eq!(jobs[0].config.fault_scale, 0.0);
        assert_eq!(jobs[4].config.fault_scale, 1.0);
        // Indices are dense and seeds derived per index.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i as u64);
            assert_eq!(j.seed, mcsim_exec::seed_stream(7, i as u64));
        }
    }

    #[test]
    fn spec_validation_rejects_bad_input() {
        for (text, what) in [
            ("mode = warp\n", "bad mode"),
            ("nonsense\n", "no equals"),
            ("axis.machines = 8,8\n", "duplicate values"),
            ("axis.machines = 2.5\n", "fractional machines"),
            ("mode = grid\nsamples = 4\n", "samples in grid mode"),
            ("mode = grid\naxis.machines = 8..16\n", "range in grid mode"),
            ("mode = lhs\n", "lhs without samples"),
            (
                "mode = lhs\nsamples = 4\naxis.machines = 8,16\n",
                "lhs without a separating axis",
            ),
            ("axis.arrival = warp\n", "unknown arrival"),
            ("axis.threads = 0\n", "zero threads"),
            ("requests = 0\n", "zero requests"),
        ] {
            assert!(SweepSpec::parse(text).is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn lhs_is_stratified_in_bounds_and_duplicate_free() {
        let spec = SweepSpec::parse(
            "mode = lhs\nsamples = 9\nseed = 1234\naxis.machines = 8..64\n\
             axis.tenants = 2..16\naxis.fault_scale = 0.0..2.0\n\
             axis.arrival = poisson,bursty,diurnal\naxis.threads = 1,2,4\n",
        )
        .expect("spec parses");
        let jobs = expand(&spec).expect("expands");
        assert_eq!(jobs.len(), 9);
        for j in &jobs {
            assert!((8..=64).contains(&j.config.machines));
            assert!((2..=16).contains(&j.config.tenants));
            assert!(j.config.fault_scale >= 0.0 && j.config.fault_scale < 2.0);
        }
        // The separating axis gives every job a distinct machine count.
        let mut machines: Vec<u64> = jobs.iter().map(|j| j.config.machines).collect();
        machines.sort_unstable();
        machines.dedup();
        assert_eq!(machines.len(), jobs.len());
    }

    #[test]
    fn echo_hash_is_stable_under_reparse() {
        let spec = SweepSpec::parse(QUICK_SPEC).expect("parses");
        let echo = spec.echo();
        let json = canon::canonical_of(&echo);
        let back: SpecEcho = serde_json::from_str(&json).expect("echo round-trips");
        assert_eq!(back, echo);
        assert_eq!(canon::hash_of(&back), canon::hash_of(&echo));
    }
}
