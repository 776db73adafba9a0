//! End-to-end determinism of the scenario-matrix sweep harness.
//!
//! One tiny sweep (2 workload jobs × 2 thread replicas, 8 requests per
//! cell), three guarantees:
//!
//! 1. the whole `SweepReport` is **bit-identical** when the ambient pool
//!    runs at 1, 2, and 8 threads — canonical JSON included;
//! 2. replaying the sweep from its own runbook manifest (cells' seeds +
//!    configs, never the spec) reproduces the report byte for byte;
//! 3. the in-report thread-invariance self-check passes: replicas of the
//!    same job at different pool sizes agree on every metric.
//!
//! Everything runs inside a single `#[test]` so the expensive
//! prepare/train context is built once and the global pool override is
//! never raced by a sibling test.

use loam_bench::canon::canonical_file;
use loam_bench::exps::sweep::{run_sweep, SweepContext, SweepSpec};
use loam_bench::Scale;

const SPEC: &str = "\
mode = grid
seed = 20260808
requests = 8
batch_size = 4
axis.machines = 8
axis.tenants = 4
axis.fault_scale = 0.0,1.0
axis.arrival = poisson
axis.threads = 1,2
";

#[test]
fn sweep_is_bit_identical_across_thread_counts_and_replays_from_runbook() {
    let spec = SweepSpec::parse(SPEC).expect("spec parses");
    let ctx = SweepContext::prepare(Scale::Small);

    // The same sweep under three different ambient pool sizes. The
    // harness pins each cell's pool itself, so the ambient override must
    // be invisible in the bytes.
    let mut renders = Vec::new();
    for ambient in [1usize, 2, 8] {
        let report = mcsim_par::with_threads(ambient, || {
            run_sweep(&ctx, Scale::Small, &spec).expect("sweep runs")
        });
        assert!(
            report.runbook.thread_invariant,
            "thread replicas must agree at ambient pool {ambient}"
        );
        renders.push(canonical_file(&report));
    }
    assert_eq!(renders[0], renders[1], "1-thread vs 2-thread sweep drifted");
    assert_eq!(renders[0], renders[2], "1-thread vs 8-thread sweep drifted");

    // Replay from the report alone: parse the canonical bytes back (as a
    // consumer of BENCH_sweep.json would), rebuild every cell from the
    // runbook's seeds and configs, and demand the identical document.
    let report: loam_bench::exps::sweep::SweepReport =
        serde_json::from_str(&renders[0]).expect("canonical report reparses");
    assert_eq!(report.runbook.jobs, 2);
    assert_eq!(report.runbook.cells, 4);
    let replayed = loam_bench::exps::sweep::replay(&ctx, &report).expect("runbook replay runs");
    assert_eq!(
        canonical_file(&replayed),
        renders[0],
        "runbook replay must reproduce the report byte for byte"
    );
}
