//! Offline stand-in for the part of `criterion` 0.5 that this workspace's
//! benches call: `Criterion::benchmark_group`, `bench_function` /
//! `bench_with_input`, `Bencher::{iter, iter_with_setup}`, `BenchmarkId`,
//! `black_box` and the `criterion_group!` / `criterion_main!` macros.
//!
//! The container has no registry, so `scripts/offline-env.sh` patches
//! `criterion` to this crate. It prints one mean per benchmark — the batch
//! is doubled until it runs for 100 ms — and does no statistics; with
//! `--test` on the command line every routine runs once.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Shortest batch a mean is reported from.
const MEASURE_FOR: Duration = Duration::from_millis(100);

/// The benchmark runner.
#[derive(Debug)]
pub struct Criterion {
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            quick: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            criterion: self,
        }
    }
}

/// A group of benchmarks reported under one name.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// The fewest iterations a mean is reported from.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    /// Runs and reports one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Display,
        mut routine: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            quick: self.criterion.quick,
            min_iters: self.sample_size,
            mean: None,
        };
        routine(&mut bencher);
        match bencher.mean {
            Some(mean) => println!("{}/{id}: {mean:?}/iter", self.name),
            None => println!("{}/{id}: ok", self.name),
        }
        self
    }

    /// Runs and reports one benchmark over `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Display,
        input: &I,
        mut routine: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| routine(b, input))
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times one routine.
#[derive(Debug)]
pub struct Bencher {
    quick: bool,
    min_iters: u64,
    mean: Option<Duration>,
}

impl Bencher {
    /// Times `routine`, a whole batch per clock reading.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.measure(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Times `routine` on a fresh `setup()` value each iteration; the setup
    /// is outside the timed region.
    pub fn iter_with_setup<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        self.measure(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                spent += start.elapsed();
            }
            spent
        });
    }

    /// Doubles the batch until it runs for [`MEASURE_FOR`]; one iteration
    /// and no report under `--test`.
    fn measure(&mut self, mut batch: impl FnMut(u64) -> Duration) {
        if self.quick {
            batch(1);
            return;
        }
        let mut iters = self.min_iters.max(1);
        loop {
            let spent = batch(iters);
            if spent >= MEASURE_FOR {
                self.mean = Some(spent.div_f64(iters as f64));
                return;
            }
            iters *= 2;
        }
    }
}

/// A benchmark name with a parameter.
#[derive(Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Defines `fn $group()` running each target with a default [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
