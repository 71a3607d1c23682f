//! Closed-loop socket runs: C blocking clients against the in-process
//! server, each sending its next transaction only after the previous one
//! completed, while the main thread marks slice boundaries.

use crate::client::{Client, TxSample};
use crate::procfs::{process_cpu_ms, CpuMs};
use crate::stats::{median, sorted, supported_tail};
use crate::workload::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What the main thread reads at a slice boundary; `completed` counts
/// verified transactions.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub cpu: CpuMs,
    pub completed: u64,
}

/// One measured window: every client's samples plus the marks at both
/// ends of every slice.
#[derive(Debug, Default)]
pub struct Window {
    pub per_client: Vec<Vec<TxSample>>,
    pub slices: Vec<(Mark, Mark)>,
}

/// Runs a fixed number of transactions per client (warm-up, and the first
/// full handshakes that hand resuming clients their sessions).
pub fn run_count(clients: &mut [Client<'_>], tx_per_client: usize) -> Vec<Vec<TxSample>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || (0..tx_per_client).map(|_| client.transact()).collect())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Runs the closed loop for `duration`, cut into `slices` equal slices.
pub fn run_window(clients: &mut [Client<'_>], duration: Duration, slices: usize) -> Window {
    let completed = AtomicU64::new(0);
    let barrier = Barrier::new(clients.len() + 1);
    let mark = |completed: &AtomicU64| Mark {
        at: Instant::now(),
        cpu: process_cpu_ms(),
        // Relaxed: a statistic, nothing is published through it.
        completed: completed.load(Ordering::Relaxed),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (completed, barrier) = (&completed, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + duration;
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let sample = client.transact();
                        if sample.ok {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        barrier.wait();
        let mut marks = vec![mark(&completed)];
        let start = marks[0].at;
        for k in 1..=slices {
            let boundary = start + duration.mul_f64(k as f64 / slices as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            marks.push(mark(&completed));
        }
        let per_client = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        Window { per_client, slices: marks.windows(2).map(|pair| (pair[0], pair[1])).collect() }
    })
}

/// A window's value of one metric beside the same metric of each slice.
#[derive(Debug, Clone)]
pub struct Sliced {
    pub value: f64,
    pub slices: Vec<f64>,
    /// Samples behind `value`.
    pub n: usize,
}

/// The end-to-end numbers of one window.
#[derive(Debug, Clone)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// Median of the per-slice rates.
    pub tx_per_s: Sliced,
    /// Over every sample of the window.
    pub lat_p50_ms: Sliced,
    pub lat_tail_ms: Sliced,
    /// The percentile `lat_tail_ms` reports: 99 when the window has ten
    /// samples beyond it.
    pub lat_tail_percentile: f64,
    pub hs_p50_ms: Sliced,
    /// Window user-mode CPU time over window transactions.
    pub cpu_ms_per_tx: Sliced,
    /// Window kernel CPU time over window transactions.
    pub sys_cpu_ms_per_tx: f64,
    pub turnaround_p50_us: f64,
    /// Median latency of the session-id and ticket halves (0 when the
    /// window has none).
    pub id_lat_p50_ms: f64,
    pub ticket_lat_p50_ms: f64,
    pub samples: usize,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Window {
    /// Appends another window of the same clients (the traced run
    /// interleaves its traced and untraced slices).
    pub fn merge(&mut self, other: Window) {
        if self.per_client.is_empty() {
            self.per_client = other.per_client;
        } else {
            for (mine, theirs) in self.per_client.iter_mut().zip(other.per_client) {
                mine.extend(theirs);
            }
        }
        self.slices.extend(other.slices);
    }

    /// Verified transactions per second over all slices together.
    pub fn overall_rate(&self) -> f64 {
        let done: u64 = self.slices.iter().map(|(from, to)| to.completed - from.completed).sum();
        let secs: f64 = self.slices.iter().map(|(from, to)| (to.at - from.at).as_secs_f64()).sum();
        done as f64 / secs.max(f64::MIN_POSITIVE)
    }

    /// Condenses the window. Only verified transactions carry latencies;
    /// failed ones count against `attempted`.
    pub fn summarize(&self) -> Summary {
        let all: Vec<&TxSample> = self.per_client.iter().flatten().collect();
        let good: Vec<&TxSample> = all.iter().copied().filter(|s| s.ok).collect();
        let lat = |of: &dyn Fn(&TxSample) -> u64, in_: &[&TxSample]| {
            sorted(in_.iter().map(|s| ms(of(s))).collect())
        };
        let total = |s: &TxSample| s.total_ns;
        let hs = |s: &TxSample| s.hs_ns;

        let mut rate = Vec::new();
        let mut cpu = Vec::new();
        let mut slice_p50 = Vec::new();
        let mut slice_tail = Vec::new();
        let mut slice_hs = Vec::new();
        let (mut all_cpu, mut all_sys, mut all_done) = (0.0, 0.0, 0.0);
        for &(from, to) in &self.slices {
            let done = (to.completed - from.completed) as f64;
            rate.push(done / (to.at - from.at).as_secs_f64());
            cpu.push((to.cpu.user - from.cpu.user) / done.max(1.0));
            all_cpu += to.cpu.user - from.cpu.user;
            all_sys += to.cpu.sys - from.cpu.sys;
            all_done += done;
            let inside: Vec<&TxSample> =
                good.iter().copied().filter(|s| s.end > from.at && s.end <= to.at).collect();
            let totals = lat(&total, &inside);
            slice_p50.push(median(&totals));
            slice_tail.push(supported_tail(&totals, 99.0).1);
            slice_hs.push(median(&lat(&hs, &inside)));
        }

        let totals = lat(&total, &good);
        let (lat_tail_percentile, tail) = supported_tail(&totals, 99.0);
        let by_path = |path: Path| {
            let of: Vec<&TxSample> = good.iter().copied().filter(|s| s.path == path).collect();
            median(&lat(&total, &of))
        };
        let turnaround =
            sorted(good.iter().map(|s| s.turnaround_ns as f64 / 1e3).collect::<Vec<_>>());
        Summary {
            attempted: all.len() as u64,
            failed: (all.len() - good.len()) as u64,
            tx_per_s: Sliced {
                value: median(&sorted(rate.clone())),
                slices: rate,
                n: totals.len(),
            },
            lat_p50_ms: Sliced { value: median(&totals), slices: slice_p50, n: totals.len() },
            lat_tail_ms: Sliced { value: tail, slices: slice_tail, n: totals.len() },
            lat_tail_percentile,
            hs_p50_ms: Sliced {
                value: median(&lat(&hs, &good)),
                slices: slice_hs,
                n: totals.len(),
            },
            cpu_ms_per_tx: Sliced {
                value: all_cpu / all_done.max(1.0),
                slices: cpu,
                n: totals.len(),
            },
            sys_cpu_ms_per_tx: all_sys / all_done.max(1.0),
            turnaround_p50_us: median(&turnaround),
            id_lat_p50_ms: by_path(Path::Id),
            ticket_lat_p50_ms: by_path(Path::Ticket),
            samples: totals.len(),
        }
    }
}
