//! The parallel-compute benchmark: runs the fig5+fig7 experiment subset
//! twice — once pinned to a single thread (the serial baseline) and once on
//! the default pool — and reports wall-clock per phase plus the speedup,
//! both as a table and as a `BENCH_parallel.json` [`BenchReport`] whose
//! rows carry each phase's `serial` and `pool` seconds.

use crate::exps::{common, fig5};
use crate::report::{BenchReport, Table};
use crate::scale::Scale;
use loam_core::pipeline::evaluate_model;

/// Wall-clock seconds of each phase of the fig5+fig7 subset.
struct PhaseTimes {
    /// (phase name, seconds) in execution order.
    phases: Vec<(&'static str, f64)>,
}

impl PhaseTimes {
    fn total(&self) -> f64 {
        self.phases.iter().map(|p| p.1).sum()
    }
}

/// Runs the fig5 load sweep, the fig7 project context (prepare + train +
/// replay), and the fig7 model evaluation, timing each phase under whatever
/// thread count is currently configured.
fn run_phases(scale: Scale) -> PhaseTimes {
    let mut phases = Vec::new();

    let t = std::time::Instant::now();
    let sweep = fig5::sweep(scale);
    phases.push(("fig5_sweep", t.elapsed().as_secs_f64()));
    // Consume the sweep so the work cannot be considered dead.
    assert!(sweep.iter().map(|s| s.3).sum::<f64>().is_finite());

    let t = std::time::Instant::now();
    let run = common::run_project(1, scale);
    phases.push(("fig7_context", t.elapsed().as_secs_f64()));

    let t = std::time::Instant::now();
    let report =
        evaluate_model(&run.loam, &run.strategy, &run.evaluated).expect("model evaluation failed");
    phases.push(("fig7_eval", t.elapsed().as_secs_f64()));
    assert_eq!(report.per_query.len(), run.evaluated.len());

    PhaseTimes { phases }
}

/// The two legs as a [`BenchReport`] at the pool leg's thread count. A
/// report at one thread is degenerate: both legs ran serially, so the
/// serial/pool ratio means nothing.
fn bench_report(
    scale: Scale,
    parallel_threads: usize,
    serial: &PhaseTimes,
    parallel: &PhaseTimes,
) -> BenchReport {
    let mut report = BenchReport::new("parallel", scale, parallel_threads);
    for ((name, s), (_, p)) in serial.phases.iter().zip(&parallel.phases) {
        report.push_row(*name).time("serial", *s).time("pool", *p);
    }
    report
}

/// Runs the benchmark and writes `BENCH_parallel.json` into the current
/// directory.
pub fn run(scale: Scale) {
    println!("Parallel-compute benchmark — fig5+fig7 subset, serial vs pool\n");
    // The pool-configured count (--threads / MCSIM_PAR_THREADS), unless the
    // pool sits at a single thread — then the parallel leg defaults to the
    // machine's available parallelism, so an unconfigured run still
    // exercises the pool instead of silently producing a degenerate 1-vs-1
    // report.
    let configured = mcsim_par::threads();
    let parallel_threads = if configured > 1 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    if parallel_threads != configured {
        eprintln!(
            "note: pool configured with {configured} thread(s); parallel leg \
             defaulted to the machine's {parallel_threads}"
        );
    }
    let serial_threads = 1;
    if parallel_threads == serial_threads {
        eprintln!(
            "warning: both legs will run with {serial_threads} thread(s) — the speedup \
             column is meaningless and BENCH_parallel.json will record `threads: 1`; \
             pass --threads N or set MCSIM_PAR_THREADS"
        );
    }

    eprintln!("serial baseline ({serial_threads} thread)...");
    let prev = mcsim_par::set_threads(serial_threads);
    let serial = run_phases(scale);

    eprintln!("parallel run ({parallel_threads} threads)...");
    mcsim_par::set_threads(parallel_threads);
    let parallel = run_phases(scale);
    mcsim_par::set_threads(prev);

    let mut t = Table::new(["phase", "serial (s)", "parallel (s)", "speedup"]);
    for ((name, s), (_, p)) in serial.phases.iter().zip(&parallel.phases) {
        t.row([
            name.to_string(),
            format!("{s:.3}"),
            format!("{p:.3}"),
            format!("{:.2}x", s / p.max(1e-9)),
        ]);
    }
    t.row([
        "total".to_string(),
        format!("{:.3}", serial.total()),
        format!("{:.3}", parallel.total()),
        format!("{:.2}x", serial.total() / parallel.total().max(1e-9)),
    ]);
    println!("{}", t.render());
    println!("threads: serial={serial_threads}, parallel={parallel_threads}");

    let path = "BENCH_parallel.json";
    if parallel_threads == serial_threads && existing_is_nondegenerate(path) {
        eprintln!(
            "refusing to overwrite the non-degenerate {path} with a degenerate \
             1-vs-1 run; pass --threads N or set MCSIM_PAR_THREADS to regenerate it"
        );
        return;
    }
    bench_report(scale, parallel_threads, &serial, &parallel).write(path);
}

/// True when `path` holds a parseable report whose pool leg ran on more
/// than one thread. Missing or malformed files are treated as degenerate
/// (and may therefore be overwritten freely).
fn existing_is_nondegenerate(path: &str) -> bool {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<BenchReport>(&s).ok())
        .is_some_and(|r| r.threads > 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_keeps_both_legs_per_phase() {
        let serial = PhaseTimes {
            phases: vec![("a", 2.0), ("b", 4.0)],
        };
        let parallel = PhaseTimes {
            phases: vec![("a", 1.0), ("b", 2.0)],
        };
        let r = bench_report(Scale::Small, 8, &serial, &parallel);
        assert_eq!(r.bench, "parallel");
        assert_eq!(r.scale, "small");
        assert_eq!(r.threads, 8);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].name, "a");
        assert_eq!(r.rows[0].time["serial"], 2.0);
        assert_eq!(r.rows[0].time["pool"], 1.0);
        assert_eq!(r.rows[1].time["serial"] / r.rows[1].time["pool"], 2.0);
    }

    /// The overwrite guard recognizes a non-degenerate report and treats
    /// missing/garbage/single-thread files as fair game.
    #[test]
    fn overwrite_guard_classifies_existing_reports() {
        let dir = std::env::temp_dir().join("mcsim-parallel-guard-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let times = PhaseTimes {
            phases: vec![("a", 2.0)],
        };
        let good = p("good.json");
        bench_report(Scale::Small, 4, &times, &times).write(&good);
        assert!(existing_is_nondegenerate(&good));

        let degen = p("degen.json");
        bench_report(Scale::Small, 1, &times, &times).write(&degen);
        assert!(!existing_is_nondegenerate(&degen));

        let junk = p("junk.json");
        std::fs::write(&junk, "not json").unwrap();
        assert!(!existing_is_nondegenerate(&junk));

        assert!(!existing_is_nondegenerate(&p("missing.json")));
    }
}
