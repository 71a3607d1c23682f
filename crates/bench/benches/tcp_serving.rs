//! Real-socket serving workloads: full and resumed HTTPS transactions
//! against the `sslperf-net` event-loop server, steady-state bulk records,
//! and a blocking-baseline-vs-event-loop concurrency comparison. The
//! in-memory `table1_webserver` benches time the same anatomy without a
//! kernel socket in the loop; the delta is the serving substrate's
//! overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use sslperf_core::experiments::BlockingBaseline;
use sslperf_core::prelude::*;
use sslperf_core::ssl::{ClientSession, RecordBuffer};
use sslperf_core::websim::http::{HttpRequest, HttpResponse};
use sslperf_core::websim::loadgen::{run_event_load, EventLoadOptions};
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

const FILE_SIZE: usize = 1024;

/// One shared server for every bench in this target.
fn server() -> &'static EventLoopServer {
    static SERVER: OnceLock<EventLoopServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut rng = SslRng::from_seed(b"bench-tcp-server");
        let key = RsaPrivateKey::generate(1024, &mut rng).expect("keygen");
        EventLoopServer::start(key, "bench.sslperf.test", &ServerOptions::default())
            .expect("server start")
    })
}

/// Connects, handshakes (resuming when a session is given), fetches one
/// document, and closes; returns the session for later resumption.
fn transaction(addr: SocketAddr, seed: u64, session: Option<&ClientSession>) -> ClientSession {
    let rng = SslRng::from_seed(format!("bench-tcp-client-{seed}").as_bytes());
    let mut client = match session {
        Some(s) => SslClient::resuming(s.clone(), rng),
        None => SslClient::new(CipherSuite::RsaDesCbc3Sha, rng),
    };
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket.set_nodelay(true).expect("nodelay");
    client.handshake_transport(&mut socket).expect("handshake");
    let request = HttpRequest::get(&format!("/doc_{FILE_SIZE}.bin"));
    let mut buf = RecordBuffer::with_record_capacity();
    client.send_buffered(&mut socket, &request.to_bytes(), &mut buf).expect("request");
    let mut body = Vec::new();
    let response = loop {
        let range = client.recv_buffered(&mut socket, &mut buf).expect("response record");
        body.extend_from_slice(&buf.as_slice()[range]);
        if let Ok(response) = HttpResponse::parse(&body) {
            break response;
        }
    };
    assert_eq!(response.body().len(), FILE_SIZE);
    let session = client.session().expect("established");
    client.close_transport(&mut socket).expect("close");
    session
}

fn bench_full_transaction(c: &mut Criterion) {
    let addr = server().local_addr();
    let mut group = c.benchmark_group("tcp_serving/full");
    group.sample_size(10);
    group.bench_function("handshake+1KB", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(transaction(addr, seed, None));
        });
    });
    group.finish();
}

fn bench_resumed_transaction(c: &mut Criterion) {
    let addr = server().local_addr();
    let session = transaction(addr, 999_999, None);
    let mut group = c.benchmark_group("tcp_serving/resumed");
    group.sample_size(20);
    group.bench_function("resume+1KB", |b| {
        let mut seed = 1_000_000u64;
        b.iter(|| {
            seed += 1;
            black_box(transaction(addr, seed, Some(&session)));
        });
    });
    group.finish();
}

/// Steady-state bulk serving on one live connection: 64 KiB documents
/// (four records each way at most), no handshake in the loop, so the
/// record pipeline's cost shows up directly instead of hiding under the
/// handshake.
fn bench_bulk_records(c: &mut Criterion) {
    const BULK_SIZE: usize = 65536;
    let addr = server().local_addr();
    let mut group = c.benchmark_group("tcp_serving/bulk");
    group.sample_size(30);

    let request = HttpRequest::get(&format!("/doc_{BULK_SIZE}.bin")).to_bytes();

    group.bench_function("64KB buffered zero-copy", |b| {
        let mut client =
            SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"bench-tcp-bulk-2"));
        let mut socket = TcpStream::connect(addr).expect("connect");
        socket.set_nodelay(true).expect("nodelay");
        client.handshake_transport(&mut socket).expect("handshake");
        let mut tx_buf = RecordBuffer::with_record_capacity();
        let mut rx_buf = RecordBuffer::with_record_capacity();
        let mut body = Vec::new();
        b.iter(|| {
            client.send_buffered(&mut socket, &request, &mut tx_buf).expect("request");
            body.clear();
            loop {
                let range =
                    client.recv_buffered(&mut socket, &mut rx_buf).expect("response record");
                body.extend_from_slice(&rx_buf.as_slice()[range]);
                if let Ok(response) = HttpResponse::parse(&body) {
                    assert_eq!(response.body().len(), BULK_SIZE);
                    break;
                }
            }
            black_box(body.len());
        });
        client.close_transport(&mut socket).expect("close");
    });

    group.finish();
}

/// Blocking baseline vs event loop under rising concurrency: the same
/// batch of concurrent full-handshake transactions (driven by the
/// single-threaded event load generator) against both, with the
/// connection count at 1×, 8×, and 64× the server's thread count. The
/// baseline serializes everything beyond its worker count, so its batch
/// time grows with connections while the event loop's shards keep every
/// socket in flight — the architectural gap the sans-io engine buys.
fn bench_concurrency(c: &mut Criterion) {
    const THREADS: usize = 2;
    // A 512-bit key keeps the 128-handshake batches affordable; both
    // servers pay the identical per-handshake cost, so the comparison holds.
    let mut rng = SslRng::from_seed(b"bench-tcp-concurrency");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let options = ServerOptions { shards: THREADS, ..ServerOptions::default() };
    let pool =
        BlockingBaseline::start(key.clone(), "bench.sslperf.test", THREADS).expect("pool start");
    let event_loop =
        EventLoopServer::start(key, "bench.sslperf.test", &options).expect("event-loop start");

    let mut group = c.benchmark_group("tcp_serving/concurrency");
    group.sample_size(10);
    for multiplier in [1usize, 8, 64] {
        let connections = THREADS * multiplier;
        for (mode, addr) in [("pool", pool.local_addr()), ("event_loop", event_loop.local_addr())] {
            let load = EventLoadOptions {
                connections,
                file_size: FILE_SIZE,
                protocol: Protocol::Ssl3,
                suite: CipherSuite::RsaDesCbc3Sha,
                // The pool can only establish `workers` connections at a
                // time, so the all-at-once barrier would deadlock it; let
                // both servers take the batch at their natural concurrency.
                hold_until_all_established: false,
                deadline: Duration::from_secs(120),
            };
            group.bench_function(format!("{mode}/{connections}conn"), |b| {
                b.iter(|| {
                    let report = run_event_load(addr, &load).expect("event load");
                    assert_eq!(report.transactions, connections);
                    black_box(report.transactions);
                });
            });
        }
    }
    group.finish();
    pool.shutdown();
    event_loop.shutdown();
}

/// Crypto-offload ablation at 64× concurrency: the same 128-connection
/// full-handshake batch against the blocking baseline (inline RSA), the
/// event-loop server decrypting inline on its shards, and the event-loop
/// server handing decryptions to 1, 2, and 4 crypto workers. Inline, a
/// shard serialises every queued handshake behind the ~90% RSA step;
/// offloaded, the shard keeps sweeping while workers decrypt, so tail
/// handshake latency (p99) drops as workers are added. Each arm's
/// measured percentiles and throughput go to stderr — those are the
/// numbers recorded in EXPERIMENTS.md.
fn bench_crypto_offload(c: &mut Criterion) {
    const THREADS: usize = 2;
    const CONNECTIONS: usize = THREADS * 64;
    let mut rng = SslRng::from_seed(b"bench-tcp-offload");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let load = EventLoadOptions {
        connections: CONNECTIONS,
        file_size: FILE_SIZE,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        // Keep the pool arm runnable with THREADS workers (see
        // bench_concurrency); every arm still opens all sockets at once.
        hold_until_all_established: false,
        deadline: Duration::from_secs(120),
    };

    let mut group = c.benchmark_group("tcp_serving/crypto_offload");
    group.sample_size(10);
    // (label, event loop?, crypto workers)
    let arms: [(&str, bool, usize); 5] = [
        ("pool_inline", false, 0),
        ("event_loop_inline", true, 0),
        ("event_loop_1w", true, 1),
        ("event_loop_2w", true, 2),
        ("event_loop_4w", true, 4),
    ];
    for (label, event_loop, crypto_workers) in arms {
        let options = ServerOptions { shards: THREADS, crypto_workers, ..ServerOptions::default() };
        let (addr, _pool_server, el_server);
        if event_loop {
            let server = EventLoopServer::start(key.clone(), "bench.sslperf.test", &options)
                .expect("event-loop start");
            addr = server.local_addr();
            el_server = Some(server);
            _pool_server = None;
        } else {
            let server = BlockingBaseline::start(key.clone(), "bench.sslperf.test", THREADS)
                .expect("pool start");
            addr = server.local_addr();
            _pool_server = Some(server);
            el_server = None;
        }

        // One measured run per arm: its percentiles are the ablation table.
        let report = run_event_load(addr, &load).expect("event load");
        let hs = &report.handshake_latency;
        eprintln!(
            "crypto_offload/{label}/{CONNECTIONS}conn: {:.1} tx/s, handshake p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms{}",
            report.transactions_per_second(),
            hs.p50.as_secs_f64() * 1e3,
            hs.p95.as_secs_f64() * 1e3,
            hs.p99.as_secs_f64() * 1e3,
            el_server
                .as_ref()
                .map(|s| format!(
                    ", {} jobs, queue depth max {}",
                    s.stats().crypto_jobs(),
                    s.stats().crypto_queue_depth_max()
                ))
                .unwrap_or_default(),
        );

        group.bench_function(format!("{label}/{CONNECTIONS}conn"), |b| {
            b.iter(|| {
                let report = run_event_load(addr, &load).expect("event load");
                assert_eq!(report.transactions, CONNECTIONS);
                black_box(report.handshake_latency.p99);
            });
        });
        if let Some(server) = el_server {
            server.shutdown();
        }
        if let Some(server) = _pool_server {
            server.shutdown();
        }
    }
    group.finish();
}

/// Batched-RSA ablation: the event-loop server with 2 crypto workers
/// under a saturating all-at-once handshake burst, with the pool's batch
/// collector capped at 1, 2, 4, and 8 jobs per batch. One shard keeps
/// submission concentrated so the crypto queue actually backs up — the
/// regime where the collector finds siblings to combine. Each arm's
/// throughput, handshake percentiles, and amortized cycles per RSA
/// decrypt (total pool execution cycles over jobs executed) go to stderr;
/// those are the numbers recorded in EXPERIMENTS.md and `BENCH_6.json`.
fn bench_batch_rsa(c: &mut Criterion) {
    const CONNECTIONS: usize = 64;
    let mut rng = SslRng::from_seed(b"bench-tcp-batch");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let load = EventLoadOptions {
        connections: CONNECTIONS,
        file_size: FILE_SIZE,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        // The barrier opens every socket before any transacts: all 64
        // ClientKeyExchanges land together and the crypto queue saturates.
        hold_until_all_established: true,
        deadline: Duration::from_secs(120),
    };

    let mut group = c.benchmark_group("tcp_serving/batch_rsa");
    group.sample_size(10);
    for batch_max in [1usize, 2, 4, 8] {
        let options = ServerOptions::builder()
            .shards(1)
            .crypto_workers(2)
            .batch_max(batch_max)
            .build()
            .expect("valid batch configuration");
        let server = EventLoopServer::start(key.clone(), "bench.sslperf.test", &options)
            .expect("event-loop start");
        let addr = server.local_addr();

        // One measured run per arm: its percentiles and the pool's cycle
        // accounting are the ablation table.
        let report = run_event_load(addr, &load).expect("event load");
        let stats = server.stats();
        let jobs = stats.crypto_jobs().max(1);
        let hs = &report.handshake_latency;
        eprintln!(
            "batch_rsa/b{batch_max}/{CONNECTIONS}conn: {:.1} tx/s, handshake p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms, \
             {} jobs in {} batches ({} batched), {} kc/decrypt amortized",
            report.transactions_per_second(),
            hs.p50.as_secs_f64() * 1e3,
            hs.p95.as_secs_f64() * 1e3,
            hs.p99.as_secs_f64() * 1e3,
            stats.crypto_jobs(),
            stats.crypto_batches(),
            stats.crypto_batched_jobs(),
            stats.crypto_exec().get() / jobs / 1000,
        );

        group.bench_function(format!("b{batch_max}/{CONNECTIONS}conn"), |b| {
            b.iter(|| {
                let report = run_event_load(addr, &load).expect("event load");
                assert_eq!(report.transactions, CONNECTIONS);
                black_box(report.handshake_latency.p99);
            });
        });
        server.shutdown();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_full_transaction,
    bench_resumed_transaction,
    bench_bulk_records,
    bench_concurrency,
    bench_crypto_offload,
    bench_batch_rsa
);
criterion_main!(benches);
