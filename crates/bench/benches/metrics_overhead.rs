//! Cost of the server's always-on registry, isolated: the per-record
//! recording calls the serving loops make on every transaction, the
//! per-handshake ledger ingestion, and the snapshot/render on the
//! exposition path. Recording sits on the steady-state record path of
//! every server, so its budget is "a handful of relaxed atomic adds" —
//! these benches pin that claim to a number next to a transaction's cost
//! (`cpu_ms_per_tx` of `benchmark/run.sh --workload full_rsa1024`).

use criterion::{criterion_group, criterion_main, Criterion};
use sslperf_core::net::ServerStats;
use sslperf_core::profile::Cycles;
use sslperf_core::ssl::{HandshakeLedger, Protocol, SERVER_STEP_NAMES};
use std::hint::black_box;

/// A plausibly shaped full-handshake ledger (cycle values in the range a
/// 1024-bit software handshake actually produces).
fn ledger() -> HandshakeLedger {
    HandshakeLedger {
        protocol: Protocol::Ssl3,
        resumed: false,
        steps: std::array::from_fn(|i| (SERVER_STEP_NAMES[i], Cycles::new(40_000 + i as u64))),
        total: Cycles::new(2_600_000),
        crypto: Cycles::new(2_300_000),
        kx_queue_wait: Cycles::new(90_000),
        kx_exec: Cycles::new(1_900_000),
        ticket_issued: false,
        ticket_accepted: false,
        ticket_rejected: false,
        ticket_expired: false,
    }
}

fn bench_record_path(c: &mut Criterion) {
    let stats = ServerStats::default();
    let mut group = c.benchmark_group("metrics/record");
    group.bench_function("open+seal+response", |b| {
        b.iter(|| {
            stats.note_record_open(black_box(1024), Cycles::new(30_000), Cycles::new(24_000));
            stats.note_record_seal(black_box(1024), Cycles::new(31_000), Cycles::new(25_000));
            stats.note_response(Cycles::new(4_000));
        });
    });
    group.finish();
}

fn bench_handshake_ingest(c: &mut Criterion) {
    let stats = ServerStats::default();
    let full = ledger();
    let resumed = HandshakeLedger { resumed: true, ..ledger() };
    let mut group = c.benchmark_group("metrics/handshake");
    group.bench_function("full_ledger", |b| {
        b.iter(|| stats.note_handshake(black_box(&full)));
    });
    group.bench_function("resumed_ledger", |b| {
        b.iter(|| stats.note_handshake(black_box(&resumed)));
    });
    group.finish();
}

fn bench_snapshot_render(c: &mut Criterion) {
    let stats = ServerStats::default();
    for _ in 0..1000 {
        stats.note_handshake(&ledger());
        stats.note_record_open(1024, Cycles::new(30_000), Cycles::new(24_000));
        stats.note_record_seal(1024, Cycles::new(31_000), Cycles::new(25_000));
        stats.note_response(Cycles::new(4_000));
    }
    let mut group = c.benchmark_group("metrics/exposition");
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(stats.snapshot()));
    });
    let snapshot = stats.snapshot();
    group.bench_function("render", |b| {
        b.iter(|| black_box(snapshot.render()));
    });
    group.finish();
}

criterion_group!(benches, bench_record_path, bench_handshake_ingest, bench_snapshot_render);
criterion_main!(benches);
