//! Minimal, dependency-free stand-in for `criterion`.
//!
//! Implements the API the workspace's benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], and the
//! `criterion_group!` / `criterion_main!` macros — over plain
//! `std::time::Instant` wall-clock measurement (median of `sample_size`
//! samples after a short calibration).
//!
//! `TAAMR_BENCH_FAST=1` shrinks the per-sample time budget ~10× so quick
//! runs finish fast.

use std::fmt;
use std::time::{Duration, Instant};

/// Drives one benchmark's measurement loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Identifies a benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{parameter}", name.into()) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Things usable as a benchmark name.
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

fn fast_mode() -> bool {
    std::env::var("TAAMR_BENCH_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Measures `ns/iter` for one closure: calibrate an iteration count that
/// fills the per-sample budget, then take the median of `sample_size` runs.
fn measure<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, mut routine: F) {
    let budget = if fast_mode() {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(20)
    };

    // Calibration: grow the iteration count until one sample fills the budget.
    let mut iters: u64 = 1;
    let mut per_iter_ns: f64;
    loop {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        routine(&mut b);
        per_iter_ns = b.elapsed.as_nanos() as f64 / iters as f64;
        if b.elapsed >= budget || iters >= 1 << 20 {
            break;
        }
        let target = (budget.as_nanos() as f64 / per_iter_ns.max(1.0)).ceil() as u64;
        iters = target.clamp(iters * 2, iters * 16).max(1);
    }

    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size.max(1) {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        routine(&mut b);
        samples.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];

    println!(
        "{name:<40} time: {median:>12.1} ns/iter  ({} samples x {iters} iters)",
        samples.len()
    );
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, routine: F) -> &mut Self {
        measure(name, self.sample_size, routine);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_size: self.sample_size, _criterion: self }
    }

    pub fn final_summary(&mut self) {}
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        measure(&full, self.sample_size, routine);
        self
    }

    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        measure(&full, self.sample_size, |b| routine(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Re-export used by benches that call `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function, mirroring upstream's two forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                let mut criterion: $crate::Criterion = $config;
                $target(&mut criterion);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` that runs each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("grp");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::from_parameter(8), &8usize, |b, &n| {
            b.iter(|| (0..n).sum::<usize>())
        });
        group.bench_function("named", |b| b.iter(|| black_box(2) * 2));
        group.finish();
    }

    criterion_group!(benches, quick);

    criterion_group!(
        name = configured;
        config = Criterion::default().sample_size(2);
        targets = quick
    );

    #[test]
    fn harness_runs() {
        std::env::set_var("TAAMR_BENCH_FAST", "1");
        benches();
        configured();
    }
}
