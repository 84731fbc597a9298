//! Order statistics over samples, and wall-clock timing.

use std::time::Instant;

/// The `p`-quantile of `samples` (nearest rank on the sorted samples);
/// 0.0 for an empty set.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The median of `samples`; 0.0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds of host wall clock since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed wall milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its `BENCHMARK.json` name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records a metric. A value that cannot be represented (a ratio over
    /// an empty count) is recorded as zero rather than as invalid JSON.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name: name.into(), value, unit });
    }
}
