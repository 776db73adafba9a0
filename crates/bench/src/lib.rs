//! # loam-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! LOAM paper, plus shared helpers (scaled project profiles, model zoo,
//! reporting utilities) and criterion micro-benchmarks.

pub mod canon;
pub mod exps;
pub mod report;
pub mod scale;

pub use report::{fmt_row, metrics_json, BenchReport, BenchRow, Table};
pub use scale::{scaled_eval_profile, scaled_pipeline_config, Scale};
