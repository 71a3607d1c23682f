//! Lock-cheap metrics primitives for live serving measurements.
//!
//! The paper's anatomy tables are built offline from per-connection phase
//! ledgers; turning them into a *live* view of a running server needs
//! aggregation that every shard, worker, and crypto thread can write to
//! concurrently without serializing on a lock — and, on the record path,
//! without allocating (the zero-copy pipeline's alloc-budget proof must
//! survive instrumentation). Two primitives cover it:
//!
//! - [`Counter`]: a monotonic `AtomicU64`.
//! - [`Histogram`]: a log-linear latency histogram — power-of-two octaves
//!   split into eight linear sub-buckets, so p50/p95/p99 come from bucket
//!   counts (≤ 12.5% relative error) with no samples stored and every
//!   `record` just one index computation plus three `fetch_add`s.
//!
//! Both are `Sync`, allocation-free after construction, and use
//! `Relaxed` ordering: the consumers are statistical snapshots, not
//! synchronization points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
///
/// # Examples
///
/// ```
/// use sslperf_metrics::Counter;
///
/// let c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two octave, as a bit count: 2³ = 8
/// sub-buckets bound the quantile error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count: values below [`SUB`] get exact unit buckets; each octave
/// `2^k..2^(k+1)` for k in 3..=63 contributes [`SUB`] buckets.
const BUCKETS: usize = SUB as usize + (64 - SUB_BITS as usize) * SUB as usize;

/// Which bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB;
    ((msb - SUB_BITS) as usize) * SUB as usize + SUB as usize + sub as usize
}

/// The largest value a bucket holds (inclusive) — what quantiles report.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let k = index - SUB as usize;
    let shift = (k as u32) / SUB as u32;
    let sub = (k as u64) % SUB;
    // The -1 binds to the bucket width before the add: the top octave's
    // last bucket ends exactly at u64::MAX and must not overflow past it.
    ((SUB + sub) << shift) + ((1u64 << shift) - 1)
}

/// A log-linear latency histogram: concurrent writers, sample-free
/// quantiles.
///
/// Values (cycle counts, byte counts — any `u64`) land in one of
/// a fixed bucket count (`BUCKETS`); recording is an index computation plus three
/// relaxed `fetch_add`s, so the record path stays lock- and
/// allocation-free. Quantiles are read from a [`HistogramSnapshot`] and
/// report the bucket's upper bound, overestimating by at most 12.5%.
///
/// # Examples
///
/// ```
/// use sslperf_metrics::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 100);
/// assert!(snap.p50() >= 50 && snap.p50() <= 57);
/// assert!(snap.p50() <= snap.p95() && snap.p95() <= snap.p99());
/// ```
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records the same observation `n` times with one set of atomic adds —
    /// a batch of jobs sharing an amortized per-job cost records the cost
    /// once, weighted by the batch size.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v * n, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating only at `u64::MAX` totals).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts for quantile queries.
    /// Concurrent recording keeps running; the snapshot is internally
    /// consistent enough for statistics (relaxed reads, no lock).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s buckets, with quantile queries.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Observations in the snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation ever recorded (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds `other`'s observations to this snapshot, bucket by bucket, so
    /// the quantiles of the merge are those of one histogram that had
    /// recorded both.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean, or 0 for an empty snapshot.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`. Returns 0
    /// for an empty snapshot. Monotone in `q` by construction, so
    /// `p50 <= p95 <= p99` always holds within one snapshot.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without going through floats for the common q values.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        // A sorted sweep of small values plus sub-bucket boundaries from
        // every octave: indices must never decrease as values grow.
        let mut values: Vec<u64> = (0..4096u64).collect();
        for shift in 3..64u32 {
            for off in 0..9u64 {
                values.push((1u64 << shift).saturating_add(off << (shift - 3)));
            }
        }
        values.push(u64::MAX);
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "v={v} i={i}");
            assert!(i >= last, "index must not decrease: v={v} i={i} last={last}");
            last = i;
        }
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn bucket_upper_bounds_contain_their_values() {
        for v in (0..10_000u64).chain([1 << 20, 1 << 40, u64::MAX >> 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v, "upper({i}) must bound {v}");
            // The bound is tight: within 12.5% (exact below SUB).
            let upper = bucket_upper(i);
            assert!(upper - v <= v / 8 + 1, "v={v} upper={upper}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn quantiles_are_ordered_and_close() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Within the 12.5% bucket error of the true quantiles.
        assert!((500..=563).contains(&p50), "p50={p50}");
        assert!((950..=1000).contains(&p95), "p95={p95}");
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.mean(), 500);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(500, 4);
        a.record_n(9, 0); // no-op
        for _ in 0..4 {
            b.record(500);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.count(), sb.count());
        assert_eq!(sa.sum(), sb.sum());
        assert_eq!(sa.max(), sb.max());
        assert_eq!(sa.p50(), sb.p50());
        assert_eq!(sa.p99(), sb.p99());
    }

    #[test]
    fn merged_snapshots_equal_one_histogram_of_both() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in (1..=300u64).map(|v| v * 7) {
            let half = if v % 2 == 0 { &a } else { &b };
            half.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let whole = both.snapshot();
        assert_eq!(merged.counts, whole.counts);
        assert_eq!(
            (merged.count(), merged.sum(), merged.max()),
            (whole.count(), whole.sum(), whole.max())
        );
        let mut empty = Histogram::new().snapshot();
        empty.merge(&whole);
        assert_eq!((empty.p50(), empty.p99()), (whole.p50(), whole.p99()));
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count(), s.sum(), s.max()), (0, 0, 0));
        assert_eq!((s.p50(), s.p99(), s.mean()), (0, 0, 0));
    }

    #[test]
    fn single_value_quantiles() {
        let h = Histogram::new();
        h.record(77);
        let s = h.snapshot();
        assert_eq!(s.p50(), s.p99());
        // max() caps the reported quantile at the true extreme.
        assert_eq!(s.p99(), 77);
    }

    #[test]
    fn quantile_caps_at_observed_max() {
        let h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.snapshot().p99(), 1_000_000, "upper bound clamped to max");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().count(), 4000);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn every_value_lands_in_a_bounding_bucket(v in any::<u64>()) {
                let i = bucket_index(v);
                prop_assert!(i < BUCKETS);
                prop_assert!(bucket_upper(i) >= v);
                if i > 0 {
                    prop_assert!(bucket_upper(i - 1) < v);
                }
            }

            #[test]
            fn quantile_is_monotone(values in prop::collection::vec(any::<u64>(), 1..200)) {
                let h = Histogram::new();
                for &v in &values {
                    h.record(v);
                }
                let s = h.snapshot();
                let qs: Vec<u64> =
                    [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0].iter().map(|&q| s.quantile(q)).collect();
                for w in qs.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                prop_assert!(s.quantile(1.0) <= s.max());
            }
        }
    }
}
