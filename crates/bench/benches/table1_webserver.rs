//! Table 1 / Figure 2 workloads: full HTTPS transactions at the paper's
//! request file sizes, plus the resumed-session variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sslperf_bench::{handshake, server_config};
use sslperf_core::prelude::*;
use std::hint::black_box;

fn bench_transactions(c: &mut Criterion) {
    let config = server_config();
    let server = SecureWebServer::new(config, CipherSuite::RsaDesCbc3Sha);
    let mut group = c.benchmark_group("table1_fig2/transaction");
    group.sample_size(10);
    for size in [1024usize, 2048, 4096, 8192, 16_384, 32_768] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size / 1024), &size, |b, &size| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                config.clear_session_cache();
                black_box(server.run_with_session(size, seed, None).expect("transaction"));
            });
        });
    }
    group.finish();
}

fn bench_resumed_transaction(c: &mut Criterion) {
    let config = server_config();
    let server = SecureWebServer::new(config, CipherSuite::RsaDesCbc3Sha);
    config.clear_session_cache();
    let (client, _) = handshake(config, CipherSuite::RsaDesCbc3Sha, 99);
    let session = client.machine().session().expect("established");
    let mut group = c.benchmark_group("table1_fig2/transaction_resumed");
    group.sample_size(20);
    group.bench_function("1k", |b| {
        let mut seed = 1000u64;
        b.iter(|| {
            seed += 1;
            let report =
                server.run_with_session(1024, seed, Some(session.clone())).expect("transaction");
            assert!(report.resumed);
            black_box(report);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_transactions, bench_resumed_transaction);
criterion_main!(benches);
