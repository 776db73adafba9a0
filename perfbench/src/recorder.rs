//! The benchmark's own `mcsim-obs` recorder for the traced run.
//!
//! It keeps what the per-layer metrics need and the bundled
//! `InMemoryRecorder` does not: the last value of each histogram (the
//! final epoch's losses) and exact sums, next to counters and per-path
//! span totals. Snapshots subtract, so a phase reads its own deltas.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Count, sum and last value of one observed series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Series {
    /// Observations.
    pub count: u64,
    /// Sum of the observed values.
    pub sum: f64,
    /// The most recent value.
    pub last: f64,
}

impl Series {
    /// Mean of the observations, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything recorded up to one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    series: BTreeMap<&'static str, Series>,
    /// Span path → (completions, total seconds).
    spans: BTreeMap<String, (u64, f64)>,
}

impl Snapshot {
    /// The counter's total, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The series by name, empty when never observed.
    pub fn series(&self, name: &str) -> Series {
        self.series.get(name).copied().unwrap_or_default()
    }

    /// Total seconds and completions of every span whose own name is
    /// `name`, at any nesting depth.
    pub fn span(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .fold((0, 0.0), |(n, s), (_, &(c, t))| (n + c, s + t))
    }

    /// Self time of the spans named `name`: their total minus the time of
    /// their direct children.
    pub fn span_self(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|(path, _)| {
                let mut parts = path.rsplit('/');
                parts.next();
                parts.next() == Some(name)
            })
            .map(|(_, &(_, t))| t)
            .sum();
        self.span(name).1 - children
    }

    /// Total seconds of spans named `child` directly under a span named
    /// `parent`.
    pub fn span_under(&self, parent: &str, child: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| {
                let mut parts = path.rsplit('/');
                parts.next() == Some(child) && parts.next() == Some(parent)
            })
            .map(|(_, &(_, t))| t)
            .sum()
    }

    /// What was recorded after `earlier` was taken. Series keep their
    /// latest `last` value.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k, v - earlier.counter(k)))
            .collect();
        let series = self
            .series
            .iter()
            .map(|(&k, s)| {
                let e = earlier.series(k);
                (
                    k,
                    Series {
                        count: s.count - e.count,
                        sum: s.sum - e.sum,
                        last: s.last,
                    },
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, &(c, t))| {
                let (ec, et) = earlier.spans.get(k).copied().unwrap_or((0, 0.0));
                (k.clone(), (c - ec, t - et))
            })
            .collect();
        Snapshot {
            counters,
            series,
            spans,
        }
    }
}

/// A thread-safe recorder collecting a [`Snapshot`].
#[derive(Debug, Default)]
pub struct BenchRecorder {
    inner: Mutex<Snapshot>,
}

impl BenchRecorder {
    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Snapshot> {
        // Every update below leaves the maps valid, so a poisoned lock
        // still holds usable data.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl mcsim_obs::Recorder for BenchRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut inner = self.lock();
        let s = inner.series.entry(name).or_default();
        s.count += 1;
        s.sum += value;
        s.last = value;
    }

    fn span_complete(&self, path: &str, _name: &'static str, seconds: f64) {
        let mut inner = self.lock();
        match inner.spans.get_mut(path) {
            Some(e) => {
                e.0 += 1;
                e.1 += seconds;
            }
            None => {
                inner.spans.insert(path.to_string(), (1, seconds));
            }
        }
    }
}
