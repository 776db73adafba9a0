//! The checked-in `BENCH_*.json` reports at the repository root: every one
//! parses, is canonical on disk, compares clean against itself, and still
//! shows the headline result it was checked in for.

use loam_bench::canon;
use loam_bench::exps::compare::{self, EXIT_OK};
use loam_bench::exps::sweep::SweepReport;
use loam_bench::BenchReport;

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Headline assertions, read from the report's rows.
fn check_headline(r: &BenchReport) {
    let row = |name: &str| {
        r.row(name)
            .unwrap_or_else(|| panic!("BENCH_{}.json: no `{name}` row", r.bench))
    };
    match r.bench.as_str() {
        "chaos" => {
            let x1 = row("fault_x1");
            let rate = x1.work["completed"] as f64 / x1.work["queries"] as f64;
            assert!(rate >= 0.99, "chaos completion at 1x is {rate:.3}");
        }
        "exec" => {
            let ten_k = row("exec_10k");
            let speedup = ten_k.time["dense"] / ten_k.time["event"];
            assert!(
                speedup >= 20.0,
                "event engine must be >= 20x dense at 10k machines, got {speedup:.1}x"
            );
            let h = row("headline");
            assert!(h.work["machines"] >= 10_000);
            assert!(h.work["queries"] >= 1_000_000);
            assert!(h.work["completed"] > 0);
        }
        "infer" => {
            let base = row("single_scalar").time["pass"];
            let best = row("batched_sparse_simd_cached");
            let speedup = base / best.time["pass"];
            assert!(
                speedup >= 5.0,
                "batched+SIMD+cached speedup {speedup:.2}x is below the 5x target"
            );
            assert_eq!(
                best.work["allocs_per_pass"], 0,
                "warm cached scoring must be allocation-free"
            );
        }
        "parallel" => {
            assert!(r.threads > 1, "the checked-in report must not be 1-vs-1");
            assert!(row("fig7_context").time["pool"] > 0.0);
        }
        "serve" => {
            let qps = |name: &str| {
                let p = row(name);
                p.work["completed"] as f64 / p.time["wall"]
            };
            let ratio = qps("batched") / qps("single");
            assert!(
                ratio >= 2.0,
                "checked-in report must show >= 2x QPS, got {ratio:.2}x"
            );
        }
        "train" => {
            for leg in ["workspace_serial", "workspace_pool"] {
                assert_eq!(row(leg).work["allocs_last_epoch"], 0, "{leg}");
            }
        }
        other => panic!("unexpected benchmark `{other}`"),
    }
}

#[test]
fn checked_in_reports_are_canonical_and_self_consistent() {
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(repo_root()).expect("repo root is readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("report is readable");
        let canonical = if name == "BENCH_sweep.json" {
            let r: SweepReport = serde_json::from_str(&text).expect("sweep report parses");
            canon::canonical_file(&r)
        } else {
            let r: BenchReport =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert_eq!(format!("BENCH_{}.json", r.bench), name);
            check_headline(&r);
            canon::canonical_file(&r)
        };
        assert!(canonical == text, "{name} is not canonical on disk");
        let p = path.to_str().expect("utf8 path");
        assert_eq!(compare::run(p, p, 0.0), EXIT_OK, "{name} against itself");
        seen.push(name.to_string());
    }
    seen.sort();
    assert_eq!(
        seen,
        [
            "BENCH_chaos.json",
            "BENCH_exec.json",
            "BENCH_infer.json",
            "BENCH_parallel.json",
            "BENCH_serve.json",
            "BENCH_sweep.json",
            "BENCH_train.json",
        ]
    );
}
