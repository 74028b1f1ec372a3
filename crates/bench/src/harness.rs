//! In-tree micro-benchmark harness with a criterion-shaped API.
//!
//! The workspace builds with no registry access, so the `[[bench]]`
//! targets run on this shim instead of the criterion crate. It keeps the
//! subset of the API the benches use — `Criterion::bench_function`,
//! `benchmark_group`/`sample_size`/`bench_with_input`/`finish`,
//! `BenchmarkId::from_parameter`, `Bencher::iter`, and the
//! `criterion_group!`/`criterion_main!` macros — backed by plain
//! `std::time::Instant` sampling (warm-up, then timed samples; the median
//! is reported). Statistical machinery (outlier analysis, regression
//! tracking) is intentionally out of scope.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// How long to spin before measuring, and roughly how long each recorded
/// sample should take. Overridable through `SSA_BENCH_FAST=1`, which the
/// repo's verify script uses to smoke-test bench targets quickly.
fn budget() -> (Duration, Duration, usize) {
    if std::env::var_os("SSA_BENCH_FAST").is_some() {
        (Duration::from_millis(5), Duration::from_millis(5), 5)
    } else {
        (Duration::from_millis(120), Duration::from_millis(40), 20)
    }
}

/// Summary statistics of one benchmark in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub median_ns: f64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    pub samples: usize,
    pub iters_per_sample: u64,
}

/// Time one closure: warm up, pick an iteration count per sample, then
/// record `samples` timed batches. Returns per-iteration statistics.
pub fn measure<O>(mut f: impl FnMut() -> O, sample_target: Duration, samples: usize) -> Stats {
    let (warmup, _, _) = budget();
    // Warm-up, also yielding a first throughput estimate.
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup || warm_iters == 0 {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
    let iters = ((sample_target.as_secs_f64() / per_iter).ceil() as u64).max(1);

    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        times.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median_ns = times[times.len() / 2];
    let mean_ns = times.iter().sum::<f64>() / times.len() as f64;
    Stats {
        median_ns,
        mean_ns,
        min_ns: times[0],
        max_ns: times[times.len() - 1],
        samples,
        iters_per_sample: iters,
    }
}

/// Time two closures side by side: warm both up, then record `samples`
/// batches of each, alternating which one runs first, so drift in the
/// machine's load lands on both alike. Returns the median nanoseconds
/// per iteration of `a` and of `b`.
pub fn measure_interleaved<A, B>(
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
    sample_target: Duration,
    samples: usize,
) -> (f64, f64) {
    let (warmup, _, _) = budget();
    let iters_for = |f: &mut dyn FnMut()| -> u64 {
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < warmup || warm_iters == 0 {
            f();
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        ((sample_target.as_secs_f64() / per_iter).ceil() as u64).max(1)
    };
    let iters_a = iters_for(&mut || {
        std::hint::black_box(a());
    });
    let iters_b = iters_for(&mut || {
        std::hint::black_box(b());
    });
    let batch = |f: &mut dyn FnMut(), iters: u64| -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / iters as f64
    };
    let (mut times_a, mut times_b) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for i in 0..samples {
        let mut run_a = || times_a.push(batch(&mut || drop(std::hint::black_box(a())), iters_a));
        let mut run_b = || times_b.push(batch(&mut || drop(std::hint::black_box(b())), iters_b));
        if i % 2 == 0 {
            run_a();
            run_b();
        } else {
            run_b();
            run_a();
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|x, y| x.total_cmp(y));
        v[v.len() / 2]
    };
    (median(times_a), median(times_b))
}

fn human(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Identifies one benchmark within a group, mirroring criterion's type.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    pub fn from_parameter(p: impl Display) -> BenchmarkId {
        BenchmarkId {
            text: p.to_string(),
        }
    }

    pub fn new(name: impl Display, p: impl Display) -> BenchmarkId {
        BenchmarkId {
            text: format!("{name}/{p}"),
        }
    }
}

/// Passed to the closure under test; `iter` runs and times it.
pub struct Bencher<'a> {
    stats: &'a mut Option<Stats>,
    sample_target: Duration,
    samples: usize,
}

impl Bencher<'_> {
    pub fn iter<O>(&mut self, f: impl FnMut() -> O) {
        *self.stats = Some(measure(f, self.sample_target, self.samples));
    }
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    fn run_one(&mut self, label: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
        let (_, sample_target, default_samples) = budget();
        let samples = samples.min(default_samples).max(3);
        let mut stats = None;
        f(&mut Bencher {
            stats: &mut stats,
            sample_target,
            samples,
        });
        match stats {
            Some(s) => println!(
                "{label:<44} time: [{} {} {}]  ({} samples × {} iters)",
                human(s.min_ns),
                human(s.median_ns),
                human(s.max_ns),
                s.samples,
                s.iters_per_sample,
            ),
            None => println!("{label:<44} (no measurement recorded)"),
        }
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let (_, _, samples) = budget();
        self.run_one(name, samples, f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let (_, _, samples) = budget();
        BenchmarkGroup {
            c: self,
            name: name.into(),
            samples,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Criterion requires ≥ 10; accept anything ≥ 1 here.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    pub fn bench_function(
        &mut self,
        name: impl Display,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, name);
        self.c.run_one(&label, self.samples, f);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.text);
        self.c.run_one(&label, self.samples, |b| f(b, input));
        self
    }

    pub fn finish(&mut self) {}
}

/// Bundle benchmark functions under a name, like criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point running every group, honoring a substring filter argument
/// the same way `cargo bench -- <filter>` reaches criterion (coarsely: any
/// non-flag argument must be a substring of the group fn's name to run it).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let filters: Vec<String> = std::env::args()
                .skip(1)
                .filter(|a| !a.starts_with('-'))
                .collect();
            $(
                let name = stringify!($group);
                if filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())) {
                    $group();
                }
            )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_stats() {
        let s = measure(
            || std::hint::black_box(2_u64).pow(10),
            Duration::from_millis(1),
            5,
        );
        assert_eq!(s.samples, 5);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert!(s.median_ns > 0.0);
    }

    #[test]
    fn group_api_shape_works() {
        std::env::set_var("SSA_BENCH_FAST", "1");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.sample_size(4);
        g.bench_with_input(BenchmarkId::from_parameter(3), &3, |b, &n| b.iter(|| n * 2));
        g.finish();
    }
}
