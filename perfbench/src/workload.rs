//! Set-up and measured phases of the two workloads.
//!
//! Both workloads run the same phases — train, evaluate, steer, serve — so
//! every run reports every end-to-end metric. What differs is where the
//! time goes: `steer` spends most of its run steering fresh queries,
//! `serve` serving recurring traffic. Training repeats through the run in
//! both.

use crate::{fnv1a, splitmix64};
use loam_bench::scale::{scaled_eval_profile, Scale};
use loam_core::pipeline::{
    evaluate_candidates, evaluate_model, evaluate_native, prepare_project, train_loam,
    EvaluatedQuery, PipelineConfig, PreparedProject,
};
use loam_core::{
    validate_deployment, AdaptiveCostPredictor, EnvStrategy, GateConfig, InferWs, PlanExplorer,
    RobustConfig, RobustServer, TrainConfig,
};
use mcsim_catalog::{ProjectId, ProjectProfile, QuerySpec};
use mcsim_optimizer::NativeOptimizer;
use mcsim_plan::PlanTree;
use mcsim_serve::{ArrivalProfile, ServeConfig, ServeReport, ServeSession};
use std::time::Instant;

/// The evaluation project every workload runs on: P2, the project with the
/// largest improvement space.
pub const PROJECT: usize = 2;

/// First held-out day of the small-scale split (25 training days).
const HELD_OUT_DAY: i64 = 25;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop per-query steering: explore, score, guard.
    Steer,
    /// Recurring Poisson traffic through `ServeSession::run`.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "steer" => Some(Workload::Steer),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// Shares of `--seconds` spent training, steering and serving.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::Steer => [0.2, 0.55, 0.25],
            Workload::Serve => [0.2, 0.3, 0.5],
        }
    }
}

/// Everything a workload is built from. [`Spec::new`] is the benchmark's
/// size; tests shrink it.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// The project profile (P2 at the harness's small scale).
    pub profile: ProjectProfile,
    /// Pipeline configuration at the default pipeline seed: the project,
    /// its history and the trained model are one instance, so the quality
    /// metrics move only when the code's arithmetic does.
    pub pipeline: PipelineConfig,
    /// Fresh held-out queries the steer phase cycles through.
    pub stream_len: usize,
    /// Requests per serving session.
    pub serve_requests: usize,
    /// Seed of the serving arrivals and per-request executors.
    pub serve_seed: u64,
    /// Seed that picks and orders the steer stream.
    pub stream_seed: u64,
}

impl Spec {
    /// The benchmark's spec for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let profile = scaled_eval_profile(PROJECT, Scale::Small);
        // The reduced model `experiments serve` trains at small scale, so
        // one training takes about a second and repeats through the run.
        let pipeline = PipelineConfig {
            train_days: 6,
            test_days: 2,
            max_train: 120,
            max_test: 12,
            eval_rounds: 3,
            da_queries: 12,
            train_cfg: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            ..PipelineConfig::default()
        };
        Spec {
            workload,
            profile,
            pipeline,
            stream_len: 1024,
            serve_requests: 2048,
            serve_seed: splitmix64(seed ^ 0x5e12),
            stream_seed: splitmix64(seed ^ 0x57ee),
        }
    }
}

/// One call of `train_loam`, timed.
#[derive(Debug, Clone, Copy)]
pub struct Training {
    /// Training samples × epochs.
    pub work: f64,
    /// Wall seconds of the call.
    pub seconds: f64,
    /// Heap allocations during the call.
    pub allocs: u64,
}

/// A workload's inputs, built during set-up.
pub struct Inputs {
    /// The prepared project: catalog, history, training samples, DA
    /// candidates, held-out test queries.
    pub prepared: PreparedProject,
    /// The model trained during set-up.
    pub model: AdaptiveCostPredictor,
    /// Its training.
    pub training: Training,
    /// The flighting-evaluated test templates.
    pub evaluated: Vec<EvaluatedQuery>,
    /// The queries the steer phase cycles through.
    pub stream: Vec<QuerySpec>,
}

/// Builds the inputs of `spec`. Each call into a layer runs inside a
/// benchmark span named after the function, so a traced run attributes the
/// program's own spans to it.
pub fn setup(spec: &Spec) -> Result<Inputs, String> {
    let prepared = {
        let _s = mcsim_obs::span("prepare_project");
        prepare_project(&spec.profile, ProjectId(PROJECT as u32), &spec.pipeline)
            .map_err(|e| format!("prepare_project: {e}"))?
    };
    let stream = fresh_stream(&prepared, spec.stream_len, spec.stream_seed);
    let (model, training) = timed_train(&prepared, &spec.pipeline)?;
    let evaluated = flight(&prepared, &spec.pipeline)?;
    Ok(Inputs {
        prepared,
        model,
        training,
        evaluated,
        stream,
    })
}

/// `n` held-out queries from day 25 on, in a seeded order.
fn fresh_stream(prepared: &PreparedProject, n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut pool = Vec::new();
    let mut day = HELD_OUT_DAY;
    while pool.len() < 2 * n && day < HELD_OUT_DAY + 365 {
        pool.extend(prepared.project.workload_for_day(day));
        day += 1;
    }
    // Seeded Fisher-Yates, then the first `n`.
    let mut state = seed;
    for i in (1..pool.len()).rev() {
        state = splitmix64(state);
        pool.swap(i, (state % (i as u64 + 1)) as usize);
    }
    pool.truncate(n);
    pool
}

fn timed_train(
    prepared: &PreparedProject,
    cfg: &PipelineConfig,
) -> Result<(AdaptiveCostPredictor, Training), String> {
    let _s = mcsim_obs::span("train_loam");
    let allocs = tinynn::alloc_probe::allocation_count();
    let t = Instant::now();
    let model = train_loam(prepared, cfg).map_err(|e| format!("train_loam: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    let work = (prepared.train_samples.len() * cfg.train_cfg.epochs) as f64;
    let training = Training {
        work,
        seconds,
        allocs: tinynn::alloc_probe::allocation_count() - allocs,
    };
    Ok((model, training))
}

/// Trains the model again and checks that the result scores exactly as
/// the set-up model did.
fn retrain(
    inputs: &Inputs,
    cfg: &PipelineConfig,
    strategy: &EnvStrategy,
    out: &mut Outcome,
) -> Result<(), String> {
    out.attempted += 1;
    let (model, training) = timed_train(&inputs.prepared, cfg)?;
    out.trainings.push(training);
    let cost = evaluate_model(&model, strategy, &inputs.evaluated)
        .map_err(|e| format!("evaluate_model: {e}"))?
        .avg_cost;
    let first = out.mean_cost.0;
    out.check(cost.to_bits() == first.to_bits(), || {
        format!("retrained model's mean cost {cost} != set-up model's {first}")
    });
    Ok(())
}

fn flight(prepared: &PreparedProject, cfg: &PipelineConfig) -> Result<Vec<EvaluatedQuery>, String> {
    let _s = mcsim_obs::span("evaluate_candidates");
    evaluate_candidates(prepared, cfg).map_err(|e| format!("evaluate_candidates: {e}"))
}

/// How long the measured phases run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Timed runs: after evaluation, training, steering and serving
    /// alternate in slices (one training, 97 queries or one session), each
    /// until its share of the seconds is spent, so all three sample the
    /// whole run.
    Seconds(f64),
    /// Traced runs and tests: one pass over the steer stream, then
    /// `sessions` serving sessions, then the featurization and gate probes
    /// — the same work on every run at a seed.
    Fixed {
        /// Serving sessions.
        sessions: usize,
    },
}

/// Pool size of the steer and serve phases. On a shared 2-vCPU host a
/// second worker makes both slower and noisier: the explorer fans its nine
/// knob settings out to freshly spawned scoped threads on every query, and
/// a fan-out waits for whichever vCPU the host is holding back. One thread
/// is also the faster setting there. Set-up, training and evaluation keep
/// the default pool.
pub const CLIENT_THREADS: usize = 1;

/// Pool size of the extra serving session that checks decisions do not
/// depend on the pool size.
const CHECK_THREADS: usize = 2;

/// Queries steered per slice. Prime, so slice boundaries move through the
/// stream from pass to pass: the first queries after a serving session or
/// a training run with cold caches, and no query is always among them.
const STEER_SLICE: usize = 97;

/// The measured phases' results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The measured `train_loam` calls (timed runs).
    pub trainings: Vec<Training>,
    /// Mean replayed CPU cost of LOAM's picks and of the native default
    /// plans over the evaluated test queries.
    pub mean_cost: (f64, f64),
    /// LOAM's mean replayed cost ÷ the native default plan's.
    pub cost_ratio: f64,
    /// Relative expected deviance of LOAM's picks from the oracle.
    pub deviance_rel: f64,
    /// Per-query explore + score + guard latency in seconds, in the order
    /// the queries were steered.
    pub steer_latency_s: Vec<f64>,
    /// The same latencies grouped by position in the steer stream: one
    /// reading per pass.
    pub steer_by_query: Vec<Vec<f64>>,
    /// Seconds in `PlanExplorer::explore`.
    pub explore_s: f64,
    /// Seconds in `RobustServer::score_batch_into`.
    pub score_s: f64,
    /// Seconds in `RobustServer::resolve_scored`.
    pub guard_s: f64,
    /// Candidate plans scored.
    pub plans_scored: u64,
    /// Queries steered off their default plan.
    pub steered: u64,
    /// Queries whose prediction degraded to the default plan.
    pub fallbacks: u64,
    /// Digest of (query id, chosen index) over the first pass of the
    /// steer stream.
    pub steer_digest: u64,
    /// One report per timed serving session.
    pub serve: Vec<ServeReport>,
    /// Wall seconds of each timed session's `ServeSession::run` call,
    /// gate validation included.
    pub serve_call_s: Vec<f64>,
    /// The extra session at pool size 2 that checks the digest.
    pub serve_check: Option<ServeReport>,
    /// Fixed budget: seconds featurizing the first pass's candidate sets.
    pub featurize_s: f64,
    /// Fixed budget: plans featurized by that probe.
    pub featurized_plans: u64,
    /// Fixed budget: seconds of one deployment-gate validation.
    pub gate_s: f64,
    /// Operations attempted: trainings, evaluated queries, steered
    /// queries, served requests and output checks.
    pub attempted: u64,
    /// Operations failed: errors, fallbacks, shed or failed requests and
    /// failed output checks.
    pub failed: u64,
    /// Failed output checks, described.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }
}

/// Called before the steer phase (`"steer"`), before the serve phase
/// (`"serve"`) and after it (`"end"`) in a fixed-budget run; the traced
/// run takes a snapshot at each.
pub type Mark<'a> = &'a mut dyn FnMut(&'static str);

/// Runs the measured phases over `inputs`.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    budget: Budget,
    mark: Mark<'_>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prepared = &inputs.prepared;
    let cfg = &spec.pipeline;
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);

    let model = &inputs.model;
    let evaluated = &inputs.evaluated;
    let (loam, native) = {
        let _s = mcsim_obs::span("evaluate_model");
        (
            evaluate_model(model, &strategy, evaluated)
                .map_err(|e| format!("evaluate_model: {e}"))?,
            evaluate_native(evaluated).map_err(|e| format!("evaluate_native: {e}"))?,
        )
    };
    out.mean_cost = (loam.avg_cost, native.avg_cost);
    out.cost_ratio = loam.avg_cost / native.avg_cost;
    out.deviance_rel = loam.deviance.relative;
    out.attempted += evaluated.len() as u64;
    let (ratio, dev) = (out.cost_ratio, out.deviance_rel);
    out.check(ratio.is_finite() && ratio > 0.0 && dev.is_finite(), || {
        format!("quality metrics not finite: cost_ratio {ratio}, deviance_rel {dev}")
    });

    // --- steer and serve
    let server = RobustServer::new(strategy, RobustConfig::default())
        .map_err(|e| format!("RobustServer::new: {e}"))?;
    let mut steerer = Steerer::new(model, &server, prepared, &inputs.stream);
    let server_cfg = serve_config(spec, strategy)?;
    let serving = Serving {
        cfg: server_cfg,
        model,
        evaluated,
        catalog: &prepared.project.catalog,
    };
    // Steering and serving run on a pool of one thread (see
    // `CLIENT_THREADS`); training keeps the default pool, and the extra
    // check session below runs on two threads.
    let client =
        |f: &mut dyn FnMut() -> Result<(), String>| mcsim_par::with_threads(CLIENT_THREADS, f);
    match budget {
        Budget::Seconds(s) => {
            let shares = spec.workload.shares();
            let mut spent = [0.0; 3];
            // Each slice goes to whichever phase is furthest behind its
            // share; every phase must finish at least one full unit.
            while (0..3).any(|i| spent[i] < s * shares[i])
                || out.trainings.is_empty()
                || steerer.pass == 0
                || out.serve.is_empty()
            {
                let phase = (0..3)
                    .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
                    .expect("three phases");
                let t = Instant::now();
                match phase {
                    0 => retrain(inputs, cfg, &strategy, &mut out)?,
                    1 => client(&mut || {
                        steerer.step(STEER_SLICE, &mut out);
                        Ok(())
                    })?,
                    _ => client(&mut || serving.session(&mut out).map(drop))?,
                }
                spent[phase] += t.elapsed().as_secs_f64();
            }
        }
        Budget::Fixed { sessions } => {
            mark("steer");
            client(&mut || {
                steerer.step(inputs.stream.len(), &mut out);
                Ok(())
            })?;
            mark("serve");
            for _ in 0..sessions {
                client(&mut || serving.session(&mut out).map(drop))?;
            }
        }
    }
    // One more session at pool size 2, kept apart from the timed ones.
    let two = mcsim_par::with_threads(CHECK_THREADS, || serving.session(&mut out))?;
    out.serve_check = out.serve.pop();
    out.serve_call_s.pop();
    let first = out.serve[0].decision_digest();
    let same = out.serve.iter().all(|r| r.decision_digest() == first);
    out.check(same, || {
        "serve decision digests differ across sessions".into()
    });
    out.check(two == first, || {
        format!("serve digest at pool size {CHECK_THREADS} {two:016x} != {first:016x}")
    });
    mark("end");

    if let Budget::Fixed { .. } = budget {
        probe_featurize(model, &server, &steerer.first_pass, &mut out);
        let _s = mcsim_obs::span("validate");
        let t = Instant::now();
        std::hint::black_box(validate_deployment(
            model,
            &strategy,
            evaluated,
            &GateConfig::default(),
        ));
        out.gate_s = t.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// Closed loop, one client: each query is explored, scored and guarded
/// before the next starts. The stream cycles; every complete pass must
/// choose exactly as the first.
struct Steerer<'a> {
    model: &'a AdaptiveCostPredictor,
    server: &'a RobustServer,
    optimizer: NativeOptimizer<'a>,
    explorer: PlanExplorer,
    stream: &'a [QuerySpec],
    ws: InferWs,
    costs: Vec<f64>,
    pos: usize,
    pass: usize,
    choices: Vec<u64>,
    /// The first pass's candidate sets, for the featurization probe.
    first_pass: Vec<Vec<PlanTree>>,
}

impl<'a> Steerer<'a> {
    fn new(
        model: &'a AdaptiveCostPredictor,
        server: &'a RobustServer,
        prepared: &'a PreparedProject,
        stream: &'a [QuerySpec],
    ) -> Steerer<'a> {
        Steerer {
            model,
            server,
            optimizer: NativeOptimizer::new(&prepared.project.catalog),
            explorer: PlanExplorer::new(Default::default()),
            stream,
            ws: InferWs::new(),
            costs: Vec::new(),
            pos: 0,
            pass: 0,
            choices: Vec::with_capacity(2 * stream.len()),
            first_pass: Vec::with_capacity(stream.len()),
        }
    }

    /// Steers the next `n` queries of the stream.
    fn step(&mut self, n: usize, out: &mut Outcome) {
        for _ in 0..n {
            let q = &self.stream[self.pos];
            let t0 = Instant::now();
            let set = self.explorer.explore(&self.optimizer, q);
            let t1 = Instant::now();
            let refs = set.plans();
            self.server
                .score_batch_into(self.model, &refs, None, &mut self.ws, &mut self.costs);
            let t2 = Instant::now();
            let (choice, degraded) =
                self.server
                    .resolve_scored(&refs, &self.costs, set.default_idx, None, q.id);
            let t3 = Instant::now();

            out.explore_s += (t1 - t0).as_secs_f64();
            out.score_s += (t2 - t1).as_secs_f64();
            out.guard_s += (t3 - t2).as_secs_f64();
            let latency = (t3 - t0).as_secs_f64();
            out.steer_latency_s.push(latency);
            if self.pass == 0 {
                out.steer_by_query.push(Vec::new());
            }
            out.steer_by_query[self.pos].push(latency);
            out.plans_scored += refs.len() as u64;
            out.attempted += 1;
            if degraded.is_some() {
                out.fallbacks += 1;
                out.failed += 1;
            } else if choice != set.default_idx {
                out.steered += 1;
            }
            self.choices.extend([q.id, choice as u64]);
            if self.pass == 0 {
                self.first_pass
                    .push(set.candidates.into_iter().map(|c| c.plan).collect());
            }

            self.pos += 1;
            if self.pos == self.stream.len() {
                let digest = fnv1a(self.choices.drain(..));
                if self.pass == 0 {
                    out.steer_digest = digest;
                } else {
                    let (first, pass) = (out.steer_digest, self.pass);
                    out.check(digest == first, || {
                        format!("steer pass {pass} digest {digest:016x} != first {first:016x}")
                    });
                }
                self.pos = 0;
                self.pass += 1;
            }
        }
    }
}

/// Times featurization alone over the candidate sets — the call the
/// uncached scoring path makes — so the forward's share of scoring can be
/// separated from it.
fn probe_featurize(
    model: &AdaptiveCostPredictor,
    server: &RobustServer,
    sets: &[Vec<PlanTree>],
    out: &mut Outcome,
) {
    let mut x = tinynn::Mat::default();
    let mut tree = tinynn::TreeStructure::default();
    let mut bounds = Vec::new();
    let env = server.strategy().env_source();
    let _s = mcsim_obs::span("featurize_forest_into");
    let t = Instant::now();
    for set in sets {
        let refs: Vec<&PlanTree> = set.iter().collect();
        model
            .featurizer
            .featurize_forest_into(&refs, env.clone(), &mut x, &mut tree, &mut bounds);
        std::hint::black_box(&x);
        out.featurized_plans += refs.len() as u64;
    }
    out.featurize_s = t.elapsed().as_secs_f64();
}

/// The serving configuration: 8 tenants of Poisson traffic over the
/// evaluated templates, batch 32, both caches on, chaos-bench faults (1×).
fn serve_config(spec: &Spec, strategy: EnvStrategy) -> Result<ServeConfig, String> {
    ServeConfig::builder()
        .arrival(ArrivalProfile::Poisson { rate_qps: 64.0 })
        .tenants(8)
        .requests(spec.serve_requests)
        .batch_size(32)
        .machines(8)
        .warmup_ticks(2)
        .fault_scale(1.0)
        .strategy(strategy)
        .seed(spec.serve_seed)
        .build()
        .map_err(|e| format!("serve config: {e}"))
}

/// Fresh serving sessions over the evaluated templates.
struct Serving<'a> {
    cfg: ServeConfig,
    model: &'a AdaptiveCostPredictor,
    evaluated: &'a [EvaluatedQuery],
    catalog: &'a mcsim_catalog::Catalog,
}

impl Serving<'_> {
    /// One session with cold caches, appended to `out`; counts its
    /// requests and checks that the report accounts for every one. Returns
    /// its decision digest.
    fn session(&self, out: &mut Outcome) -> Result<u64, String> {
        let session =
            ServeSession::new(self.cfg.clone()).map_err(|e| format!("serve session: {e}"))?;
        let _s = mcsim_obs::span("ServeSession::run");
        let t = Instant::now();
        let report = session
            .run(self.model, self.evaluated, self.catalog, None)
            .map_err(|e| format!("ServeSession::run: {e}"))?;
        out.serve_call_s.push(t.elapsed().as_secs_f64());
        out.attempted += report.requests as u64;
        out.failed += (report.shed + report.failed) as u64;
        let accounted = report.completed + report.failed + report.shed == report.requests;
        out.check(accounted, || {
            "serve report does not account for every request".into()
        });
        let digest = report.decision_digest();
        out.serve.push(report);
        Ok(digest)
    }
}
