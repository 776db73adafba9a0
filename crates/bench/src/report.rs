//! Experiment output: aligned text tables and the one `BENCH_*.json`
//! report schema every benchmark writes.

use crate::canon;
use crate::scale::Scale;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) -> &mut Self {
        self.rows.push(row.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_line = |cells: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{:<width$}  ", cell, width = w));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_line(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_line(row));
            out.push('\n');
        }
        out
    }
}

/// A benchmark report: the one schema behind every `BENCH_*.json` except
/// the sweep's. Written only as canonical JSON ([`BenchReport::write`]), so
/// rerunning a benchmark moves exactly the bytes whose values moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Benchmark id (`chaos`, `exec`, `infer`, `parallel`, `serve`, `train`).
    pub bench: String,
    /// Scale the report was produced at.
    pub scale: String,
    /// Pool size of the run's widest leg (1 when everything ran serially).
    pub threads: u64,
    /// One row per measured leg, phase or level.
    pub rows: Vec<BenchRow>,
}

/// One measured leg of a benchmark. `experiments compare` gates `time`
/// lower-is-better within its threshold and `work` exactly; ratios such
/// as speedups or QPS are derived from these where they are printed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Row name, the key rows are matched by.
    pub name: String,
    /// Wall-clock seconds per metric.
    pub time: BTreeMap<String, f64>,
    /// Deterministic counts per metric: a rerun with the same flags must
    /// reproduce every one of them.
    pub work: BTreeMap<String, u64>,
}

impl BenchReport {
    /// An empty report for `bench` at `scale`.
    pub fn new(bench: &str, scale: Scale, threads: usize) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            scale: format!("{scale:?}").to_lowercase(),
            threads: threads as u64,
            rows: Vec::new(),
        }
    }

    /// Appends an empty row and returns it for filling.
    pub fn push_row(&mut self, name: impl Into<String>) -> &mut BenchRow {
        self.rows.push(BenchRow {
            name: name.into(),
            time: BTreeMap::new(),
            work: BTreeMap::new(),
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// The row called `name`, if present.
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Writes the report to `path` as canonical JSON.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, canon::canonical_file(self)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

impl BenchRow {
    /// Records `seconds` under `metric`, rounded to the nanosecond so the
    /// canonical rendering stays short.
    pub fn time(&mut self, metric: &str, seconds: f64) -> &mut BenchRow {
        self.time
            .insert(metric.to_string(), (seconds * 1e9).round() / 1e9);
        self
    }

    /// Records a deterministic count under `metric`.
    pub fn work(&mut self, metric: &str, count: u64) -> &mut BenchRow {
        self.work.insert(metric.to_string(), count);
        self
    }
}

/// Wraps a [`mcsim_obs::MetricsSnapshot`] in a JSON document tagged with the
/// experiment id and scale, ready to pipe into downstream tooling:
///
/// ```json
/// {"experiment":"fig6","scale":"small","metrics":{"counters":{...},...}}
/// ```
pub fn metrics_json(
    experiment: &str,
    scale: &str,
    snapshot: &mcsim_obs::MetricsSnapshot,
) -> String {
    format!(
        "{{\"experiment\":\"{experiment}\",\"scale\":\"{scale}\",\"metrics\":{}}}",
        snapshot.to_json()
    )
}

/// Formats a float compactly: integers under 1k exactly, thousands with
/// separators, tiny values with precision.
pub fn fmt_row(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn bench_report_round_trips_canonically() {
        let mut r = BenchReport::new("demo", Scale::Small, 2);
        r.push_row("b")
            .time("wall", 0.123_456_789_4)
            .work("plans", 7);
        r.push_row("a").work("n", 0);
        let text = canon::canonical_file(&r);
        assert!(
            text.starts_with(r#"{"bench":"demo","rows":[{"name":"b","time":{"wall":0.123456789}"#)
        );
        let back: BenchReport = serde_json::from_str(&text).expect("parses");
        assert_eq!(canon::canonical_file(&back), text);
        assert_eq!(back.row("b").map(|b| b.work["plans"]), Some(7));
        assert!(back.row("c").is_none());
    }

    #[test]
    fn fmt_row_scales() {
        assert_eq!(fmt_row(1234567.0), "1234567");
        assert_eq!(fmt_row(12.34), "12.3");
        assert_eq!(fmt_row(0.1234), "0.123");
        assert_eq!(fmt_row(f64::NAN), "-");
    }
}
