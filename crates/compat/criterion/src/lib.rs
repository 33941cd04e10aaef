//! A minimal, dependency-free stand-in for the parts of `criterion` the
//! benchmark targets use: `criterion_group!` / `criterion_main!`,
//! `Criterion::benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `sample_size`, and `measurement_time`.
//!
//! The build environment has no access to a crates registry, so instead of
//! statistical analysis this shim performs a simple warm-up plus a fixed
//! number of timed iterations and prints median / min / max per benchmark.
//! That keeps `cargo bench` runnable (and the bench targets compiling under
//! `cargo build --benches`). The gated timings of the paper's algorithms
//! come from `phom-bench`'s `tables --json` smoke and `bench_gate`; the
//! serving stack is measured by the separate `servebench` package.

use std::time::{Duration, Instant};

/// Benchmark identifier combining a function name and an input parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id from a bare parameter (mirrors `criterion`'s API).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

/// The per-iteration timing handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
}

impl Bencher {
    /// Times `f`, recording `target_samples` samples after one warm-up.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        std::hint::black_box(f()); // warm-up
        for _ in 0..self.target_samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t0.elapsed());
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.clamp(1, 50);
        self
    }

    /// Accepted for API compatibility; the shim keys everything off
    /// `sample_size` alone.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            target_samples: self.sample_size,
        };
        f(&mut b);
        self.report(&id.into_benchmark_id().name, &mut b.samples);
        self
    }

    /// Runs one benchmark parameterized by an input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            target_samples: self.sample_size,
        };
        f(&mut b, input);
        self.report(&id.name, &mut b.samples);
        self
    }

    fn report(&mut self, bench: &str, samples: &mut [Duration]) {
        samples.sort();
        let (median, min, max) = match samples.len() {
            0 => (Duration::ZERO, Duration::ZERO, Duration::ZERO),
            n => (samples[n / 2], samples[0], samples[n - 1]),
        };
        let _ = &self.criterion;
        println!(
            "{}/{}: median {:?}  (min {:?}, max {:?}, {} samples)",
            self.name,
            bench,
            median,
            min,
            max,
            samples.len()
        );
    }

    /// Ends the group (printing happens eagerly; nothing left to do).
    pub fn finish(&mut self) {}
}

/// Conversions accepted where `criterion` takes a benchmark id.
pub trait IntoBenchmarkId {
    /// The normalized id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self }
    }
}

/// The top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Reads CLI configuration (accepted and ignored by the shim).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Re-export so `use criterion::black_box` keeps working.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(10));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 50), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_and_bencher_run() {
        benches();
    }
}
