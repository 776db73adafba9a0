//! The `experiments compare` subcommand: a regression gate over two
//! `BENCH_*.json` reports.
//!
//! One diff engine serves every report. Both sides are reduced to
//! [`Gated`] rows, rows are matched by name, and each metric of a matched
//! row is gated by its direction ([`Metric`]):
//!
//! * [`Metric::Lower`] regresses when it rises by more than the threshold
//!   percentage (wall-clock seconds, costs, shed rate);
//! * [`Metric::Higher`] regresses when it falls by more than the threshold
//!   percentage (completion rate);
//! * [`Metric::Exact`] regresses on any change, at any threshold
//!   (deterministic work counts, decision digests).
//!
//! A [`BenchReport`] gates each row's `time` lower-is-better and its
//! `work` exactly. A sweep report feeds the same engine through
//! [`SweepReport::gated`], one row per cell keyed by `config_hash`.
//!
//! Exit codes are typed: [`EXIT_OK`] = within threshold,
//! [`EXIT_REGRESSION`] = a metric regressed, [`EXIT_PARSE`] = unreadable
//! or malformed input, [`EXIT_DEGENERATE`] = structurally incomparable
//! reports (different `bench`, no shared row, or a row or metric on one
//! side only). Degenerate outranks regression.

use super::sweep::SweepReport;
use crate::report::{BenchReport, Table};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;

/// Exit code: every metric stayed within the threshold.
pub const EXIT_OK: i32 = 0;
/// Exit code: at least one metric regressed past its gate.
pub const EXIT_REGRESSION: i32 = 1;
/// Exit code: a report could not be read or parsed.
pub const EXIT_PARSE: i32 = 2;
/// Exit code: the reports are structurally incomparable.
pub const EXIT_DEGENERATE: i32 = 3;

/// One gated metric value, tagged with the direction it regresses in.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Lower is better: gated on relative increase.
    Lower(f64),
    /// Higher is better: gated on relative decrease.
    Higher(f64),
    /// Must match exactly.
    Exact(String),
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Lower(x) | Metric::Higher(x) => write!(f, "{x}"),
            Metric::Exact(s) => f.write_str(s),
        }
    }
}

/// A named row of gated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedRow {
    /// The key rows are matched by.
    pub name: String,
    /// Metric name → gated value.
    pub metrics: BTreeMap<String, Metric>,
}

/// A report reduced to what the gate reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Gated {
    /// Report kind; reports of different kinds are incomparable.
    pub bench: String,
    /// Scale the report was produced at.
    pub scale: String,
    /// The gated rows.
    pub rows: Vec<GatedRow>,
}

impl BenchReport {
    /// The gate's view: `time.*` lower-is-better, `work.*` exact.
    pub fn gated(&self) -> Gated {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let time = r
                    .time
                    .iter()
                    .map(|(k, &s)| (format!("time.{k}"), Metric::Lower(s)));
                let work = r
                    .work
                    .iter()
                    .map(|(k, n)| (format!("work.{k}"), Metric::Exact(n.to_string())));
                GatedRow {
                    name: r.name.clone(),
                    metrics: time.chain(work).collect(),
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

/// One compared metric of a matched row.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Row name.
    pub row: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub old: Metric,
    /// New value.
    pub new: Metric,
    /// Percent change ((new − old) / old × 100); NaN for exact metrics.
    pub delta_pct: f64,
    /// Whether the metric breached its gate.
    pub regressed: bool,
}

/// Every gate breach of one matched row.
#[derive(Debug, Clone)]
pub struct RowRegression {
    /// Row name.
    pub row: String,
    /// Human-readable breaches.
    pub issues: Vec<String>,
}

/// The comparison outcome.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Rows present in both reports.
    pub matched: usize,
    /// Matched rows whose metrics are all equal.
    pub identical: usize,
    /// Rows (`row`) or metrics (`row metric`) only the baseline has.
    pub missing_in_new: Vec<String>,
    /// Rows or metrics only the new report has.
    pub missing_in_old: Vec<String>,
    /// Every metric both sides carry, in baseline row order.
    pub deltas: Vec<Delta>,
    /// One entry per matched row that breached a gate.
    pub regressions: Vec<RowRegression>,
}

impl Comparison {
    /// Whether the reports are structurally incomparable: nothing matched,
    /// or a row or metric exists on one side only.
    pub fn is_degenerate(&self) -> bool {
        self.matched == 0 || !self.missing_in_new.is_empty() || !self.missing_in_old.is_empty()
    }

    /// The typed exit code this comparison maps to.
    pub fn exit_code(&self) -> i32 {
        if self.is_degenerate() {
            EXIT_DEGENERATE
        } else if self.regressions.is_empty() {
            EXIT_OK
        } else {
            EXIT_REGRESSION
        }
    }
}

/// Gates one metric: the percent change and whether it breached.
fn gate(old: &Metric, new: &Metric, threshold_pct: f64) -> (f64, bool) {
    let pct = |o: f64, n: f64| 100.0 * (n - o) / o.abs().max(1e-9);
    match (old, new) {
        (Metric::Lower(o), Metric::Lower(n)) => {
            let d = pct(*o, *n);
            (d, d > threshold_pct)
        }
        (Metric::Higher(o), Metric::Higher(n)) => {
            let d = pct(*o, *n);
            (d, -d > threshold_pct)
        }
        (o, n) => (f64::NAN, o != n),
    }
}

/// Compares two gated reports at a regression threshold (percent).
pub fn compare(old: &Gated, new: &Gated, threshold_pct: f64) -> Comparison {
    let mut cmp = Comparison::default();
    let find = |g: &'_ Gated, name: &str| g.rows.iter().position(|r| r.name == name);
    for nr in &new.rows {
        if find(old, &nr.name).is_none() {
            cmp.missing_in_old.push(nr.name.clone());
        }
    }
    for or in &old.rows {
        let Some(i) = find(new, &or.name) else {
            cmp.missing_in_new.push(or.name.clone());
            continue;
        };
        let nr = &new.rows[i];
        cmp.matched += 1;
        let mut identical = true;
        for k in nr.metrics.keys().filter(|k| !or.metrics.contains_key(*k)) {
            cmp.missing_in_old.push(format!("{} {k}", or.name));
            identical = false;
        }
        let mut issues = Vec::new();
        for (k, o) in &or.metrics {
            let Some(n) = nr.metrics.get(k) else {
                cmp.missing_in_new.push(format!("{} {k}", or.name));
                identical = false;
                continue;
            };
            identical &= o == n;
            let (delta_pct, regressed) = gate(o, n, threshold_pct);
            if regressed {
                issues.push(if delta_pct.is_nan() {
                    format!("{k} drift ({o} -> {n})")
                } else {
                    format!("{k} {delta_pct:+.1}%")
                });
            }
            cmp.deltas.push(Delta {
                row: or.name.clone(),
                metric: k.clone(),
                old: o.clone(),
                new: n.clone(),
                delta_pct,
                regressed,
            });
        }
        if identical {
            cmp.identical += 1;
        }
        if !issues.is_empty() {
            cmp.regressions.push(RowRegression {
                row: or.name.clone(),
                issues,
            });
        }
    }
    cmp
}

/// Reads and parses a report of either kind, dispatched on its `bench`
/// field. Errors are strings so the caller can decide the exit code.
pub fn load(path: &str) -> Result<Gated, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse `{path}`: {e:?}"))?;
    let is_sweep = match &v {
        Value::Map(m) => m
            .iter()
            .any(|(k, v)| k == "bench" && *v == Value::Str("sweep".into())),
        _ => false,
    };
    let gated = if is_sweep {
        SweepReport::from_value(&v).map(|r| r.gated())
    } else {
        BenchReport::from_value(&v).map(|r| r.gated())
    };
    gated.map_err(|e| format!("cannot parse `{path}`: {e}"))
}

/// The full subcommand: loads both reports, prints every changed metric,
/// and returns the process exit code ([`EXIT_OK`], [`EXIT_REGRESSION`],
/// [`EXIT_PARSE`], or [`EXIT_DEGENERATE`]).
pub fn run(old_path: &str, new_path: &str, threshold_pct: f64) -> i32 {
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return EXIT_PARSE;
        }
    };
    println!(
        "comparing {old_path} ({} at {}, {} rows) -> {new_path} ({} at {}, {} rows), \
         threshold {threshold_pct:.0}%",
        old.bench,
        old.scale,
        old.rows.len(),
        new.bench,
        new.scale,
        new.rows.len()
    );
    if old.bench != new.bench {
        eprintln!(
            "degenerate: different benchmarks ({} vs {})",
            old.bench, new.bench
        );
        return EXIT_DEGENERATE;
    }
    let cmp = compare(&old, &new, threshold_pct);
    let mut t = Table::new(["row", "metric", "old", "new", "delta", ""]);
    for d in cmp.deltas.iter().filter(|d| d.old != d.new) {
        t.row([
            d.row.clone(),
            d.metric.clone(),
            d.old.to_string(),
            d.new.to_string(),
            if d.delta_pct.is_nan() {
                "changed".to_string()
            } else {
                format!("{:+.1}%", d.delta_pct)
            },
            if d.regressed { "REGRESSED" } else { "" }.to_string(),
        ]);
    }
    if cmp.identical < cmp.matched {
        println!("{}", t.render());
    }
    println!(
        "{} matched row(s): {} identical, {} changed",
        cmp.matched,
        cmp.identical,
        cmp.matched - cmp.identical
    );
    if cmp.matched == 0 {
        eprintln!("degenerate: no row matched between the reports");
    }
    for (missing, side) in [
        (&cmp.missing_in_new, new_path),
        (&cmp.missing_in_old, old_path),
    ] {
        if !missing.is_empty() {
            eprintln!(
                "degenerate: {} row(s)/metric(s) missing from {side}: {}",
                missing.len(),
                missing.join(", ")
            );
        }
    }
    if !cmp.is_degenerate() {
        if cmp.regressions.is_empty() {
            println!("ok: no metric breached its gate at {threshold_pct:.0}%");
        } else {
            for r in &cmp.regressions {
                eprintln!("  {}: {}", r.row, r.issues.join(", "));
            }
            eprintln!(
                "regression: {} row(s) breached the {threshold_pct:.0}% threshold",
                cmp.regressions.len()
            );
        }
    }
    cmp.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn report(phase_s: f64, total_s: f64) -> Gated {
        let mut r = BenchReport::new("parallel", Scale::Small, 8);
        r.push_row("fig7_context").time("pool", phase_s);
        r.push_row("total").time("pool", total_s);
        r.gated()
    }

    #[test]
    fn within_threshold_passes_and_regression_is_flagged() {
        let old = report(10.0, 12.0);
        let ok = compare(&old, &report(11.0, 13.0), 25.0);
        assert!(ok.regressions.is_empty(), "{:?}", ok.regressions);
        let bad = compare(&old, &report(14.0, 16.0), 25.0);
        let rows: Vec<&str> = bad.regressions.iter().map(|r| r.row.as_str()).collect();
        assert_eq!(rows, vec!["fig7_context", "total"]);
        // One delta per compared metric.
        assert_eq!(bad.deltas.len(), 2);
        assert!(bad.deltas[0].delta_pct > 25.0);
    }

    #[test]
    fn speedups_are_not_regressions() {
        let old = report(10.0, 12.0);
        let fast = compare(&old, &report(5.0, 6.0), 25.0);
        assert!(fast.regressions.is_empty());
        assert!(fast.deltas.iter().all(|d| d.delta_pct < 0.0));
    }

    #[test]
    fn parse_errors_are_typed_not_panics() {
        assert!(load("/nonexistent/BENCH.json").is_err());
    }

    /// Work counts parse out of the schema and gate exactly: a self-diff
    /// is clean, and any drift regresses at any threshold.
    #[test]
    fn work_counts_parse_and_gate_exactly() {
        let json = r#"{"bench":"exec","scale":"small","threads":1,
            "rows":[{"name":"exec_10k","time":{"dense":40.0,"event":1.0},
                     "work":{"machines":10000,"queries":1000}}]}"#;
        let r: BenchReport = serde_json::from_str(json).expect("exec schema parses");
        let row = r.row("exec_10k").expect("exec_10k row");
        assert_eq!(row.work["machines"], 10_000);
        assert_eq!(row.work["queries"], 1_000);
        assert_eq!(row.time["event"], 1.0);
        let cmp = compare(&r.gated(), &r.gated(), 25.0);
        assert_eq!(cmp.exit_code(), EXIT_OK);
        assert_eq!(cmp.identical, 1);
        let mut drifted = r.clone();
        drifted.rows[0].work.insert("queries".into(), 1_001);
        let cmp = compare(&r.gated(), &drifted.gated(), 1e9);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        assert!(cmp.regressions[0].issues[0].contains("work.queries"));
    }

    #[test]
    fn unshared_rows_and_metrics_are_degenerate() {
        let mut base = BenchReport::new("chaos", Scale::Small, 1);
        base.push_row("fault_x0")
            .time("wall", 1.0)
            .work("queries", 12);
        base.push_row("fault_x1")
            .time("wall", 1.0)
            .work("queries", 12);
        // A baseline row missing from the new report.
        let mut fewer = base.clone();
        fewer.rows.pop();
        let cmp = compare(&base.gated(), &fewer.gated(), 25.0);
        assert_eq!(cmp.exit_code(), EXIT_DEGENERATE);
        assert_eq!(cmp.missing_in_new, vec!["fault_x1"]);
        // A metric on one side only.
        let mut extra = base.clone();
        extra.rows[0].work("retries", 0);
        let cmp = compare(&base.gated(), &extra.gated(), 25.0);
        assert_eq!(cmp.missing_in_old, vec!["fault_x0 work.retries"]);
        assert_eq!(cmp.exit_code(), EXIT_DEGENERATE);
        // No shared row at all.
        let mut other = BenchReport::new("chaos", Scale::Small, 1);
        other.push_row("fault_x4").time("wall", 1.0);
        assert_eq!(
            compare(&base.gated(), &other.gated(), 25.0).exit_code(),
            EXIT_DEGENERATE
        );
    }

    fn repo_file(name: &str) -> String {
        format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
    }

    /// Two checked-in reports of different benchmarks share nothing a
    /// gate could read.
    #[test]
    fn different_checked_in_benchmarks_are_degenerate() {
        let code = run(
            &repo_file("BENCH_parallel.json"),
            &repo_file("BENCH_chaos.json"),
            50.0,
        );
        assert_eq!(code, EXIT_DEGENERATE);
    }

    #[test]
    fn malformed_reports_exit_parse_without_panicking() {
        let good = std::fs::read_to_string(repo_file("BENCH_chaos.json")).expect("checked in");
        let dir = std::env::temp_dir().join(format!("cmp-malformed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let good_path = dir.join("good.json");
        std::fs::write(&good_path, &good).expect("write");
        let good_path = good_path.to_str().expect("utf8 path");
        let cases = [
            ("truncated", good[..good.len() / 2].to_string()),
            (
                "wrong_type",
                good.replacen("\"threads\":1", "\"threads\":\"one\"", 1),
            ),
            ("array", "[1,2,3]".to_string()),
        ];
        for (name, text) in cases {
            assert_ne!(text, good, "{name}: the case must differ from the report");
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, text).expect("write");
            let path = path.to_str().expect("utf8 path");
            assert_eq!(run(good_path, path, 25.0), EXIT_PARSE, "{name} as new");
            assert_eq!(run(path, good_path, 25.0), EXIT_PARSE, "{name} as baseline");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------- sweep diff

    use crate::canon;
    use crate::exps::sweep::{CellConfig, CellMetrics, Runbook, SpecEcho, SweepCell};

    fn sweep_cell(machines: u64, total_cost: f64, decisions: &str) -> SweepCell {
        let config = CellConfig {
            arrival: "poisson".into(),
            fault_scale: 0.0,
            machines,
            tenants: 4,
            threads: 1,
        };
        let metrics = CellMetrics {
            requests: 32,
            shed: 2,
            admitted: 30,
            completed: 30,
            failed: 0,
            batches: 2,
            degraded: 1,
            total_retries: 0,
            total_cost,
            total_wasted_cost: 0.0,
            completion_rate: 1.0,
            shed_rate: 0.0625,
            decision_hash: decisions.to_string(),
        };
        SweepCell {
            index: 0,
            seed: 7,
            config_hash: canon::hash_of(&config),
            metrics_hash: canon::hash_of(&metrics),
            config,
            metrics,
        }
    }

    fn sweep_report(cells: Vec<SweepCell>) -> SweepReport {
        SweepReport {
            bench: "sweep".into(),
            scale: "small".into(),
            spec: SpecEcho {
                mode: "grid".into(),
                samples: 0,
                seed: 7,
                requests: 32,
                batch_size: 16,
                axes: vec![],
            },
            spec_hash: "0".repeat(16),
            runbook: Runbook {
                id: "0".repeat(16),
                jobs: cells.len() as u64,
                cells: cells.len() as u64,
                sweep_seed: 7,
                seeds: cells.iter().map(|c| c.seed).collect(),
                artifacts: vec!["BENCH_sweep.json".into()],
                thread_invariant: true,
            },
            cells,
        }
    }

    fn compare_sweeps(old: &SweepReport, new: &SweepReport, threshold_pct: f64) -> Comparison {
        compare(&old.gated(), &new.gated(), threshold_pct)
    }

    #[test]
    fn identical_sweeps_compare_clean() {
        let r = sweep_report(vec![sweep_cell(8, 100.0, "aa"), sweep_cell(16, 90.0, "bb")]);
        let cmp = compare_sweeps(&r, &r, 10.0);
        assert_eq!(cmp.exit_code(), EXIT_OK);
        assert_eq!(cmp.matched, 2);
        assert_eq!(cmp.identical, 2);
        assert!(cmp.regressions.is_empty());
    }

    #[test]
    fn cost_breach_past_threshold_is_a_regression() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        let new = sweep_report(vec![sweep_cell(8, 125.0, "aa")]);
        // +25% cost: clean at a 30% threshold, regressed at 10%.
        assert_eq!(compare_sweeps(&old, &new, 30.0).exit_code(), EXIT_OK);
        let cmp = compare_sweeps(&old, &new, 10.0);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].issues[0].contains("total_cost"));
    }

    #[test]
    fn decision_hash_drift_regresses_at_any_threshold() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        let new = sweep_report(vec![sweep_cell(8, 100.0, "bb")]);
        let cmp = compare_sweeps(&old, &new, 1e9);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        assert!(cmp.regressions[0].issues[0].contains("decision_hash"));
    }

    #[test]
    fn missing_cells_are_degenerate_and_outrank_regressions() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa"), sweep_cell(16, 90.0, "bb")]);
        let new = sweep_report(vec![sweep_cell(8, 500.0, "aa")]);
        let cmp = compare_sweeps(&old, &new, 10.0);
        assert!(cmp.is_degenerate());
        assert_eq!(cmp.exit_code(), EXIT_DEGENERATE);
        assert_eq!(cmp.missing_in_new.len(), 1);
        // The matched cell's cost breach is still recorded for the diff
        // table even though the exit code is the degenerate one.
        assert_eq!(cmp.regressions.len(), 1);
        // Nothing matched at all is degenerate too.
        let disjoint = sweep_report(vec![sweep_cell(64, 10.0, "cc")]);
        assert_eq!(
            compare_sweeps(&old, &disjoint, 10.0).exit_code(),
            EXIT_DEGENERATE
        );
    }

    #[test]
    fn mixed_report_kinds_exit_degenerate() {
        let dir = std::env::temp_dir();
        let sweep_path = dir.join("cmp_mixed_sweep.json");
        let timing_path = dir.join("cmp_mixed_timing.json");
        let sweep = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        std::fs::write(&sweep_path, canon::canonical_of(&sweep)).expect("write sweep");
        let mut timing = BenchReport::new("parallel", Scale::Small, 2);
        timing.push_row("fig5_sweep").time("pool", 1.0);
        std::fs::write(&timing_path, canon::canonical_file(&timing)).expect("write timing");
        let code = run(
            sweep_path.to_str().expect("utf8 path"),
            timing_path.to_str().expect("utf8 path"),
            25.0,
        );
        assert_eq!(code, EXIT_DEGENERATE);
        // Two sweeps through the same entry point take the sweep mapping.
        let code = run(
            sweep_path.to_str().expect("utf8 path"),
            sweep_path.to_str().expect("utf8 path"),
            25.0,
        );
        assert_eq!(code, EXIT_OK);
        let _ = std::fs::remove_file(&sweep_path);
        let _ = std::fs::remove_file(&timing_path);
    }

    #[test]
    fn completion_drop_and_shed_rise_are_gated() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        let mut worse = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        worse.cells[0].metrics.completion_rate = 0.5;
        worse.cells[0].metrics.shed_rate = 0.4;
        worse.cells[0].metrics_hash = canon::hash_of(&worse.cells[0].metrics);
        let cmp = compare_sweeps(&old, &worse, 10.0);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        let issues = cmp.regressions[0].issues.join("; ");
        assert!(issues.contains("completion_rate"), "{issues}");
        assert!(issues.contains("shed_rate"), "{issues}");
        // Improvements never regress.
        let mut better = sweep_report(vec![sweep_cell(8, 50.0, "aa")]);
        better.cells[0].metrics.shed_rate = 0.0;
        better.cells[0].metrics_hash = canon::hash_of(&better.cells[0].metrics);
        assert_eq!(compare_sweeps(&old, &better, 10.0).exit_code(), EXIT_OK);
    }
}
