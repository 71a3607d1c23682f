//! Measurement substrate for the SSL-processing anatomy reproduction.
//!
//! The original paper measured cycles on a 2.26 GHz Pentium 4 with
//! Oprofile/VTune sampling and `rdtsc`. This crate provides the in-process
//! equivalents used throughout the workspace:
//!
//! * [`Cycles`] — a cycle count at the paper's reference frequency
//!   ([`REF_HZ`]), converted from wall-clock time.
//! * [`Stopwatch`] and the [`measure`]/[`measure_min`]/[`measure_spread`]
//!   helpers — `rdtsc` style interval measurement.
//! * [`PhaseSet`] — named-phase accumulation used for every breakdown table
//!   in the paper (handshake steps, cipher phases, RSA steps, hash phases).
//! * [`counters`] — a thread-local per-function call/work-unit registry, the
//!   substitute for VTune's function-level sampling (Table 8).
//! * [`Table`] — plain-text table rendering shared by all experiments.
//!
//! # Examples
//!
//! ```
//! use sslperf_profile::{measure, PhaseSet};
//!
//! let mut phases = PhaseSet::new();
//! let (_, c) = measure(|| (0..1000u64).sum::<u64>());
//! phases.add("sum", c);
//! assert_eq!(phases.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
mod cycles;
mod phase;
mod table;

pub use cycles::{Cycles, REF_HZ};
pub use phase::{Phase, PhaseSet};
pub use table::{Align, Table};

use std::time::Instant;

/// An interval timer that reports elapsed time in reference-frequency cycles.
///
/// This is the software stand-in for the paper's "read timestamp instruction"
/// (`rdtsc`) methodology (§3.2).
///
/// # Examples
///
/// ```
/// use sslperf_profile::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let elapsed = sw.elapsed();
/// assert!(elapsed.get() < u64::MAX);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Returns the cycles elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Cycles {
        Cycles::from_duration(self.start.elapsed())
    }
}

/// Runs `f` once and returns its result along with the elapsed cycles.
///
/// # Examples
///
/// ```
/// use sslperf_profile::measure;
///
/// let (value, cycles) = measure(|| 2 + 2);
/// assert_eq!(value, 4);
/// let _ = cycles;
/// ```
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cycles) {
    let sw = Stopwatch::start();
    let value = f();
    (value, sw.elapsed())
}

/// Runs `f` `iters` times and returns the *average* cycles per run.
///
/// Averaging over many iterations amortizes timer granularity; use this for
/// kernels that complete in well under a microsecond (single cipher blocks,
/// hash compression functions).
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn measure_avg(iters: u32, mut f: impl FnMut()) -> Cycles {
    assert!(iters > 0, "measure_avg requires at least one iteration");
    let sw = Stopwatch::start();
    for _ in 0..iters {
        f();
    }
    Cycles::new(sw.elapsed().get() / u64::from(iters))
}

/// Runs `f` in `samples` batches of `iters` iterations each and returns the
/// **minimum** per-iteration cycle count across batches.
///
/// Taking the minimum of several batches filters out scheduler noise, the
/// standard technique for stable microbenchmark numbers on a busy host.
///
/// # Panics
///
/// Panics if `samples` or `iters` is zero.
pub fn measure_min(samples: u32, iters: u32, f: impl FnMut()) -> Cycles {
    assert!(samples > 0 && iters > 0, "measure_min requires at least one sample and iteration");
    Cycles::new(per_iteration(samples, iters, f).into_iter().min().unwrap_or(0))
}

/// The median and quartiles of a set of timing samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    /// Lower quartile.
    pub q1: Cycles,
    /// Median.
    pub median: Cycles,
    /// Upper quartile.
    pub q3: Cycles,
}

impl Spread {
    /// The interquartile range, `q3 − q1`.
    #[must_use]
    pub fn iqr(&self) -> Cycles {
        self.q3.saturating_sub(self.q1)
    }
}

/// Runs `f` in `samples` batches of `iters` iterations each, as
/// [`measure_min`] does, and returns the median and quartiles of the
/// per-iteration cycle counts instead of their minimum: the middle of the
/// distribution and how wide it is, for comparing two arms of an ablation.
///
/// # Panics
///
/// Panics if `samples` or `iters` is zero.
///
/// # Examples
///
/// ```
/// use sslperf_profile::measure_spread;
///
/// let s = measure_spread(5, 100, || {
///     std::hint::black_box((0..100u64).sum::<u64>());
/// });
/// assert!(s.q1 <= s.median && s.median <= s.q3);
/// ```
pub fn measure_spread(samples: u32, iters: u32, f: impl FnMut()) -> Spread {
    assert!(samples > 0 && iters > 0, "measure_spread requires at least one sample and iteration");
    let mut sorted = per_iteration(samples, iters, f);
    sorted.sort_unstable();
    // Nearest rank on the sorted samples.
    let at = |q: usize| Cycles::new(sorted[(sorted.len() - 1) * q / 4]);
    Spread { q1: at(1), median: at(2), q3: at(3) }
}

/// Per-iteration cycles of `samples` batches of `iters` runs of `f`.
fn per_iteration(samples: u32, iters: u32, mut f: impl FnMut()) -> Vec<u64> {
    (0..samples)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..iters {
                f();
            }
            sw.elapsed().get() / u64::from(iters)
        })
        .collect()
}

/// Prevents the compiler from optimizing away a computed value.
///
/// Thin re-export-style wrapper over [`std::hint::black_box`] so dependent
/// crates don't need to import `std::hint` everywhere.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn measure_returns_value() {
        let (v, c) = measure(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(c.get() < Cycles::from_duration(Duration::from_secs(10)).get());
    }

    #[test]
    fn measure_avg_divides_by_iters() {
        let c = measure_avg(10, || {
            black_box((0..100u64).sum::<u64>());
        });
        // The average of 10 iterations must be far below the total of a
        // 10-iteration run measured as one interval.
        let (_, total) = measure(|| {
            for _ in 0..10 {
                black_box((0..100u64).sum::<u64>());
            }
        });
        assert!(c.get() <= total.get().max(1) * 10);
    }

    #[test]
    fn measure_min_not_greater_than_avg() {
        let work = || {
            black_box((0..1000u64).fold(0u64, |a, b| a.wrapping_add(b * b)));
        };
        let min = measure_min(5, 100, work);
        let avg = measure_avg(100, work);
        // min-of-batches is at most a small factor above the plain average
        // (equality modulo noise); it must never be wildly larger.
        assert!(min.get() <= avg.get().saturating_mul(10).max(1000));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn measure_avg_zero_iters_panics() {
        let _ = measure_avg(0, || {});
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b.get() >= a.get());
    }
}
