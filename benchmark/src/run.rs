//! The two kinds of run: the untraced end-to-end window, and the traced
//! run that produces every per-layer metric.

use crate::client::{Client, TxSample};
use crate::kernels::{self, ProbePlan};
use crate::procfs::peak_rss_mib;
use crate::replay;
use crate::report::{Check, HostProbes, Metric, Record};
use crate::socket_run::{run_count, run_window, Window};
use crate::span::{to_jsonl, Recorder, Span};
use crate::stats::spread;
use crate::workload::{client_count, generate_key, start_server, Workload};
use sslperf_core::hashes::Sha1;
use sslperf_core::net::EventLoopServer;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// How a run of `seconds` seconds spends them.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: u64,
    /// Times the server is set up so that `setup_s` is a median, not one
    /// draw.
    pub setup_rounds: usize,
    /// First transactions counted into `setup_s`: enough for anything
    /// built lazily on first use to show, few enough that set-up time
    /// does not become a second throughput metric.
    pub setup_tx: usize,
    /// Warm-up transactions in all (the first `setup_tx` included), split
    /// over the clients.
    pub warmup_tx: usize,
    /// Slices the measured window is cut into.
    pub slices: usize,
    pub probe: ProbePlan,
    /// In-memory transactions the traced run replays.
    pub replay_tx: usize,
}

/// Kernel probes in [`kernels::run_all`], for sizing their batches.
const PROBES: f64 = 37.0;
/// Share of a traced run's seconds spent in kernel probes, and in the
/// four interleaved socket slices.
const PROBE_SHARE: f64 = 0.35;
const SOCKET_SHARE: f64 = 0.40;

impl Plan {
    /// The plan for a run of `seconds`; `smoke` shrinks everything that is
    /// counted rather than timed so a whole run takes about a second.
    pub fn new(seconds: u64, smoke: bool) -> Plan {
        let trials = if smoke { 3 } else { 15 };
        let batch = (seconds as f64 * PROBE_SHARE / (PROBES * trials as f64)).min(0.020);
        Plan {
            seconds,
            setup_rounds: if smoke { 1 } else { 5 },
            setup_tx: if smoke { 4 } else { 40 },
            warmup_tx: if smoke { 20 } else { 200 },
            // Six slices of at least three seconds; fewer when the window
            // is shorter than that allows, never fewer than two.
            slices: ((seconds / 3) as usize).clamp(2, 6),
            probe: ProbePlan { trials, batch: Duration::from_secs_f64(batch) },
            replay_tx: if smoke { 20 } else { 200 },
        }
    }
}

/// The host-noise guard: SHA-1 over 64 MiB, a fixed amount of work whose
/// time before and after a run should agree. Timed in four quarters and
/// reported as four times the median quarter, so that one preemption
/// during the spin does not read as a slower host.
fn calibration_ms() -> f64 {
    let block = vec![0x5au8; 1 << 20];
    let mut sha = Sha1::new();
    let quarters: Vec<f64> = (0..4)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..16 {
                sha.update(black_box(&block));
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    black_box(sha.finalize());
    4.0 * spread(&quarters).median
}

/// How late a sleeping thread wakes, in microseconds: a parked thread is
/// handed a timestamp over a channel and reports how old it was on
/// arrival; median of 40 hand-offs a millisecond apart. This is what tells
/// the host's two states apart (about 10 us, or 70 to 80 us for minutes
/// after the guest kept both CPUs busy), and every wake-up a transaction
/// waits for pays it.
fn wake_latency_us() -> f64 {
    let (ping_tx, ping_rx) = mpsc::channel::<Instant>();
    let (pong_tx, pong_rx) = mpsc::channel::<f64>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for sent in ping_rx {
                if pong_tx.send(sent.elapsed().as_secs_f64() * 1e6).is_err() {
                    break;
                }
            }
        });
        let late: Vec<f64> = (0..40)
            .map(|_| {
                // Long enough for the other thread to be asleep again.
                std::thread::sleep(Duration::from_millis(1));
                ping_tx.send(Instant::now()).expect("the probe thread is alive");
                pong_rx.recv().expect("the probe thread answers")
            })
            .collect();
        drop(ping_tx);
        spread(&late).median
    })
}

/// The two host probes, taken together before and after a run.
fn host_probes() -> HostProbes {
    HostProbes { calib_ms: calibration_ms(), wake_us: wake_latency_us() }
}

/// Clients for `server` after their first `tx` transactions in all: every
/// client holds the sessions its path needs.
fn started_clients<'w>(
    workload: &'w Workload,
    server: &EventLoopServer,
    expected: &'w [u8],
    seed: u64,
    tx: usize,
) -> (Vec<Client<'w>>, Vec<Vec<TxSample>>) {
    let count = client_count();
    let mut clients: Vec<Client<'w>> = (0..count)
        .map(|i| Client::new(workload, server.local_addr(), expected, seed, i, count))
        .collect();
    // At least two each: a lone client alternating between id and ticket
    // needs one full handshake per path before it can resume.
    let first = run_count(&mut clients, tx.div_ceil(count).max(2));
    (clients, first)
}

/// Runs the rest of the warm-up and appends its samples to `so_far`.
fn finish_warmup(clients: &mut [Client<'_>], so_far: &mut [Vec<TxSample>], plan: Plan) {
    let rest = plan.warmup_tx.saturating_sub(plan.setup_tx).div_ceil(clients.len());
    for (mine, more) in so_far.iter_mut().zip(run_count(clients, rest)) {
        mine.extend(more);
    }
}

/// Checks the server's counters against what the clients saw. The server
/// counts a connection slightly after the client is done with it, so the
/// comparison polls briefly.
fn reconcile(server: &EventLoopServer, samples: &[&TxSample]) -> Check {
    let verified = samples.iter().filter(|s| s.ok).count() as u64;
    let resumed = samples.iter().filter(|s| s.ok && s.resumed).count() as u64;
    let want = (verified - resumed, resumed, verified);
    let stats = server.stats();
    let seen = || (stats.full_handshakes(), stats.resumed_handshakes(), stats.transactions());
    let deadline = Instant::now() + Duration::from_secs(2);
    while seen() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    Check {
        name: "server_counters_reconcile",
        ok: seen() == want && samples.iter().all(|s| s.ok),
        detail: format!(
            "server (full, resumed, transactions) = {:?}, clients verified {:?} of {} attempted",
            seen(),
            want,
            samples.len()
        ),
    }
}

fn failure_check(attempted: u64, failed: u64, first_error: Option<&str>) -> Check {
    Check {
        name: "bodies_and_resume_flags",
        ok: failed == 0,
        detail: match first_error {
            Some(e) => format!("{failed} of {attempted} failed, first: {e}"),
            None => format!("{attempted} responses byte-equal to synthesize_document, resume flags as the workload demands"),
        },
    }
}

/// The untraced run: set up, warm up, measure one window in slices, and
/// report every end-to-end metric.
pub fn end_to_end(workload: &Workload, seed: u64, plan: Plan) -> Record {
    let run_started = Instant::now();
    let host_before = host_probes();
    let expected = workload.expected_body();

    // Set-up is key generation, server start and the first transactions.
    // Each one draws its own key from the seed, so the median is over
    // prime searches of different luck as well as over host noise.
    let set_up = |round: usize| {
        let started = Instant::now();
        let server = start_server(generate_key(seed, round), seed, false);
        let (clients, first) = started_clients(workload, &server, &expected, seed, plan.setup_tx);
        (started.elapsed().as_secs_f64(), server, clients, first)
    };
    let (first_setup_s, server, mut clients, mut warmup) = set_up(0);
    let mut setup_s = vec![first_setup_s];
    finish_warmup(&mut clients, &mut warmup, plan);

    let window = run_window(&mut clients, Duration::from_secs(plan.seconds), plan.slices);
    let summary = window.summarize();
    let every: Vec<&TxSample> = warmup.iter().chain(&window.per_client).flatten().collect();
    let reconciled = reconcile(&server, &every);
    server.shutdown();
    // Read before the remaining set-ups: every extra server started in
    // this process churns the heap and would smear the window's peak.
    let peak_rss = peak_rss_mib();
    let host_after = host_probes();
    for round in 1..plan.setup_rounds {
        let (seconds, server, _, _) = set_up(round);
        setup_s.push(seconds);
        server.shutdown();
    }

    let doc_mib = workload.doc_size as f64 / MIB;
    let metrics = vec![
        Metric::sliced("tx_per_s", &summary.tx_per_s, 1.0),
        Metric::sliced("cpu_ms_per_tx", &summary.cpu_ms_per_tx, 1.0),
        // Verified document bytes: the rate of verified transactions
        // times the document size.
        Metric::sliced("goodput_mib_s", &summary.tx_per_s, doc_mib),
        Metric::spread("setup_s", spread(&setup_s)),
        Metric::plain("peak_rss_mib", peak_rss),
    ];
    let checks = vec![
        failure_check(
            every.len() as u64,
            every.iter().filter(|s| !s.ok).count() as u64,
            every.iter().find_map(|s| s.error.as_deref()),
        ),
        reconciled,
        Check {
            name: "latency_samples",
            ok: plan.seconds < crate::metrics::RUN_SECONDS || summary.samples >= 1000,
            detail: format!("{} verified latency samples in the window", summary.samples),
        },
    ];
    Record {
        workload: workload.name,
        traced: false,
        seed,
        seconds: plan.seconds,
        clients: clients.len(),
        attempted: summary.attempted,
        failed: summary.failed,
        metrics,
        checks,
        host: (host_before, host_after),
        wall_s: run_started.elapsed().as_secs_f64(),
    }
}

/// The server's crypto-pool, session-cache and ticket counters at one
/// instant.
#[derive(Debug, Clone, Copy)]
struct PoolAndStoreCounters {
    jobs: u64,
    batches: u64,
    queue_wait_cycles: u64,
    exec_cycles: u64,
    cache_hits: u64,
    cache_misses: u64,
    tickets_accepted: u64,
    tickets_refused: u64,
}

impl PoolAndStoreCounters {
    fn of(server: &EventLoopServer) -> Self {
        let (stats, cache) = (server.stats(), server.session_cache());
        PoolAndStoreCounters {
            jobs: stats.crypto_jobs(),
            batches: stats.crypto_batches(),
            queue_wait_cycles: stats.crypto_queue_wait().get(),
            exec_cycles: stats.crypto_exec().get(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            tickets_accepted: stats.tickets_accepted(),
            tickets_refused: stats.tickets_rejected() + stats.tickets_expired(),
        }
    }

    fn since(&self, earlier: &Self) -> Self {
        PoolAndStoreCounters {
            jobs: self.jobs - earlier.jobs,
            batches: self.batches - earlier.batches,
            queue_wait_cycles: self.queue_wait_cycles - earlier.queue_wait_cycles,
            exec_cycles: self.exec_cycles - earlier.exec_cycles,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            tickets_accepted: self.tickets_accepted - earlier.tickets_accepted,
            tickets_refused: self.tickets_refused - earlier.tickets_refused,
        }
    }
}

/// `part / whole`, 0 when there is no whole.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    }
}

/// Transactions per source whose spans are written to the trace file.
const TRACE_FILE_TX: usize = 50;

fn first_transactions(spans: &[Span], limit: usize) -> &[Span] {
    let mut seen = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if !seen.contains(&span.tx) {
            if seen.len() == limit {
                return &spans[..i];
            }
            seen.push(span.tx);
        }
    }
    spans
}

/// The traced run: kernel probes, the in-memory traced transaction, then
/// untraced and traced socket slices interleaved on two servers that
/// differ only in the anatomy registry. Reports every per-layer metric
/// and writes the spans to `trace_file`.
pub fn traced(workload: &Workload, seed: u64, plan: Plan, trace_file: &Path) -> Record {
    let run_started = Instant::now();
    let host_before = host_probes();
    let expected = workload.expected_body();
    let key = generate_key(seed, 0);

    let readings = kernels::run_all(plan.probe);
    let replayed = replay::run(workload, key.clone(), seed, plan.replay_tx);

    let plain_server = start_server(key.clone(), seed, false);
    let traced_server = start_server(key, seed, true);
    let (mut plain_clients, plain_warmup) =
        started_clients(workload, &plain_server, &expected, seed, plan.warmup_tx / 2);
    let (mut traced_clients, traced_warmup) =
        started_clients(workload, &traced_server, &expected, seed, plan.warmup_tx / 2);
    let epoch = Instant::now();
    for client in &mut traced_clients {
        client.rec = Recorder::enabled(epoch);
    }
    // Untraced, traced, traced, untraced: a drift over the run lands on
    // both sides alike.
    let slice = Duration::from_secs_f64(plan.seconds as f64 * SOCKET_SHARE / 4.0);
    let (mut plain, mut watched) = (Window::default(), Window::default());
    let counters_before = PoolAndStoreCounters::of(&plain_server);
    plain.merge(run_window(&mut plain_clients, slice, 1));
    watched.merge(run_window(&mut traced_clients, slice, 1));
    watched.merge(run_window(&mut traced_clients, slice, 1));
    plain.merge(run_window(&mut plain_clients, slice, 1));

    let (plain_summary, watched_summary) = (plain.summarize(), watched.summarize());
    let plain_all: Vec<&TxSample> =
        plain_warmup.iter().chain(&plain.per_client).flatten().collect();
    let watched_all: Vec<&TxSample> =
        traced_warmup.iter().chain(&watched.per_client).flatten().collect();
    let mut checks = vec![
        reconcile(&plain_server, &plain_all),
        Check {
            name: "traced_server_counters_reconcile",
            ..reconcile(&traced_server, &watched_all)
        },
    ];

    // Counter movement over the untraced slices only: warm-up's first
    // full handshakes are not part of what a resumed workload measures.
    let moved = PoolAndStoreCounters::of(&plain_server).since(&counters_before);
    let per_job_us = |cycles: u64| ratio(cycles, moved.jobs) * 1e6 / sslperf_core::profile::REF_HZ;
    let server_errors = [&plain_server, &traced_server]
        .iter()
        .map(|s| s.stats().errors() + s.stats().timeouts())
        .sum::<u64>();

    let mut metrics: Vec<Metric> =
        readings.into_iter().map(|r| Metric::spread(r.name, r.value)).collect();
    let n = replayed.transactions;
    let replay_metric = |name, value| Metric { n: Some(n), ..Metric::plain(name, value) };
    metrics.extend([
        replay_metric("ssl.engine.tx_us", replayed.tx_us),
        replay_metric("ssl.engine.server_feed_us", replayed.server_feed_us),
        replay_metric("ssl.engine.kx_exec_us", replayed.kx_exec_us),
        replay_metric("ssl.engine.server_seal_us", replayed.server_seal_us),
        replay_metric("ssl.engine.server_open_us", replayed.server_open_us),
        replay_metric("ssl.engine.client_us", replayed.client_us),
        replay_metric("ssl.engine.allocs_per_tx", replayed.allocs_per_tx),
        replay_metric("ssl.engine.unattributed_pct", replayed.unattributed_pct),
        replay_metric("websim.http.respond_us", replayed.respond_us),
    ]);
    for decl in crate::metrics::PER_LAYER.iter().filter(|m| m.name.starts_with("ssl.ledger.")) {
        let step = decl.name.trim_start_matches("ssl.ledger.").trim_end_matches("_us");
        metrics
            .push(replay_metric(decl.name, replayed.ledger_us.get(step).copied().unwrap_or(0.0)));
    }
    metrics.extend([
        Metric::plain(
            "net.eventloop.residual_ms",
            plain_summary.lat_p50_ms.value - replayed.tx_us / 1e3,
        ),
        Metric::plain("net.eventloop.turnaround_p50_us", watched_summary.turnaround_p50_us),
        Metric::plain("net.server_errors", server_errors as f64),
        Metric::plain("net.sys_cpu_ms_per_tx", plain_summary.sys_cpu_ms_per_tx),
        Metric::plain(
            "loadgen.cpu_share",
            replayed.client_us / replayed.tx_us.max(f64::MIN_POSITIVE),
        ),
        Metric::sliced("loadgen.lat_p50_ms", &plain_summary.lat_p50_ms, 1.0),
        Metric::sliced("loadgen.lat_p99_ms", &plain_summary.lat_tail_ms, 1.0).with_note(format!(
            "p{:.2} of {} samples",
            plain_summary.lat_tail_percentile, plain_summary.samples
        )),
        Metric::sliced("loadgen.hs_p50_ms", &plain_summary.hs_p50_ms, 1.0),
        Metric::plain("loadgen.id_lat_p50_ms", plain_summary.id_lat_p50_ms),
        Metric::plain("loadgen.ticket_lat_p50_ms", plain_summary.ticket_lat_p50_ms),
        Metric::plain(
            "trace.overhead_pct",
            (1.0 - watched.overall_rate() / plain.overall_rate().max(f64::MIN_POSITIVE)) * 100.0,
        )
        .with_note(format!(
            "untraced {:.1} tx/s, traced {:.1} tx/s",
            plain.overall_rate(),
            watched.overall_rate()
        )),
        Metric::plain("net.cryptopool.queue_wait_us", per_job_us(moved.queue_wait_cycles)),
        Metric::plain("net.cryptopool.exec_us", per_job_us(moved.exec_cycles)),
        Metric::plain("net.cryptopool.batch_mean", ratio(moved.jobs, moved.batches)),
        Metric::plain(
            "net.cache.hit_ratio",
            ratio(moved.cache_hits, moved.cache_hits + moved.cache_misses),
        ),
        Metric::plain(
            "ssl.ticket.accept_ratio",
            ratio(moved.tickets_accepted, moved.tickets_accepted + moved.tickets_refused),
        ),
    ]);

    let sockets: Vec<&TxSample> = plain_all.iter().chain(&watched_all).copied().collect();
    checks.push(failure_check(
        (sockets.len() + n) as u64,
        (sockets.iter().filter(|s| !s.ok).count() + replayed.failed) as u64,
        sockets.iter().find_map(|s| s.error.as_deref()),
    ));
    checks.push(Check {
        name: "replay_decomposes",
        ok: replayed.sum_mismatch_ns == 0 && replayed.unattributed_pct <= 5.0,
        detail: format!(
            "span self times sum to the {n} transactions' wall time (mismatch {} ns); \
             unattributed {:.2} % (limit 5 %)",
            replayed.sum_mismatch_ns, replayed.unattributed_pct
        ),
    });
    plain_server.shutdown();
    traced_server.shutdown();

    let mut text = to_jsonl("replay", first_transactions(&replayed.spans, TRACE_FILE_TX));
    for client in traced_clients {
        text.push_str(&to_jsonl("socket", first_transactions(client.rec.spans(), TRACE_FILE_TX)));
    }
    let written = std::fs::write(trace_file, text);
    checks.push(Check {
        name: "trace_file_written",
        ok: written.is_ok(),
        detail: match written {
            Ok(()) => trace_file.display().to_string(),
            Err(e) => format!("{}: {e}", trace_file.display()),
        },
    });

    let mut record = Record {
        workload: workload.name,
        traced: true,
        seed,
        seconds: plan.seconds,
        clients: client_count(),
        attempted: plain_summary.attempted + watched_summary.attempted + n as u64,
        failed: plain_summary.failed + watched_summary.failed + replayed.failed as u64,
        metrics,
        checks,
        host: (host_before, host_probes()),
        wall_s: run_started.elapsed().as_secs_f64(),
    };
    let drift = record.calib_drift_pct();
    record.metrics.push(Metric::plain("host.calib_ms", host_before.calib_ms));
    record.metrics.push(Metric::plain("host.calib_drift_pct", drift));
    record.metrics.push(Metric::plain("host.wake_us", host_before.wake_us));
    record
}
