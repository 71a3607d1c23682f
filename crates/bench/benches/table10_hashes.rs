//! Table 10 workloads: the hash phases and the MAC constructions built on
//! them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sslperf_core::prelude::*;
use sslperf_core::ssl::mac as ssl3_mac;
use std::hint::black_box;

/// SHA-1 on the portable kernel, which is what Tables 10 and 11 measure:
/// they are the paper's software anatomy, and on the CPU's SHA unit SHA-1
/// outruns MD5 (`ablate_sha_unit` in `ablations.rs` has that comparison).
fn sha1_portable(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::portable();
    h.update(data);
    h.finalize()
}

/// Table 10: Init / Update / Final at the paper's 1024-byte input.
fn bench_phases(c: &mut Criterion) {
    let data = vec![0x6bu8; 1024];
    let mut group = c.benchmark_group("table10/phases_1k");
    group.bench_function("md5_init", |b| b.iter(|| black_box(Md5::new())));
    group.bench_function("md5_update", |b| {
        b.iter(|| {
            let mut h = Md5::new();
            h.update(black_box(&data));
            black_box(h)
        });
    });
    group.bench_function("md5_full", |b| b.iter(|| black_box(Md5::digest(black_box(&data)))));
    group.bench_function("sha1_init", |b| b.iter(|| black_box(Sha1::portable())));
    group.bench_function("sha1_update", |b| {
        b.iter(|| {
            let mut h = Sha1::portable();
            h.update(black_box(&data));
            black_box(h)
        });
    });
    group.bench_function("sha1_full", |b| b.iter(|| black_box(sha1_portable(black_box(&data)))));
    group.finish();
}

/// Table 11's hash throughput column.
fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("table11/hash_throughput");
    for size in [1024usize, 16_384, 65_536] {
        let data = vec![0x11u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("MD5", size), &data, |b, data| {
            b.iter(|| black_box(Md5::digest(black_box(data))));
        });
        group.bench_with_input(BenchmarkId::new("SHA-1", size), &data, |b, data| {
            b.iter(|| black_box(sha1_portable(black_box(data))));
        });
    }
    group.finish();
}

/// The record-layer MACs: SSLv3's concatenation MAC vs HMAC.
fn bench_macs(c: &mut Criterion) {
    let data = vec![0x77u8; 1024];
    let secret = [0x2fu8; 20];
    let mut group = c.benchmark_group("table10/macs_1k");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("ssl3_mac_sha1", |b| {
        b.iter(|| black_box(ssl3_mac::compute(HashAlg::Sha1, &secret, 1, 23, black_box(&data))));
    });
    group.bench_function("ssl3_mac_md5", |b| {
        b.iter(|| black_box(ssl3_mac::compute(HashAlg::Md5, &secret, 1, 23, black_box(&data))));
    });
    group.bench_function("hmac_sha1", |b| {
        b.iter(|| black_box(Hmac::mac(HashAlg::Sha1, &secret, black_box(&data))));
    });
    group.finish();
}

/// The SSLv3 key-derivation cascade (handshake steps 5–6).
fn bench_kdf(c: &mut Criterion) {
    use sslperf_core::ssl::kdf;
    let mut group = c.benchmark_group("table2/kdf");
    group.bench_function("master_secret", |b| {
        b.iter(|| black_box(kdf::master_secret(black_box(&[1u8; 48]), &[2u8; 32], &[3u8; 32])));
    });
    group.bench_function("key_block_104", |b| {
        b.iter(|| black_box(kdf::key_block(black_box(&[1u8; 48]), &[2u8; 32], &[3u8; 32], 104)));
    });
    // The successor construction, for comparison: TLS 1.0's HMAC-based PRF
    // over the same 104-byte key block.
    group.bench_function("tls1_prf_104", |b| {
        b.iter(|| {
            black_box(kdf::tls1_prf(black_box(&[1u8; 48]), b"key expansion", &[2u8; 64], 104))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_phases, bench_throughput, bench_macs, bench_kdf);
criterion_main!(benches);
