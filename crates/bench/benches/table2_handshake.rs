//! Table 2/3 workloads: the full server-side handshake, its RSA-dominated
//! step 5 in isolation, and the abbreviated (resumed) handshake.

use criterion::{criterion_group, criterion_main, Criterion};
use sslperf_bench::{establish, handshake, key, server_config};
use sslperf_core::prelude::*;
use std::hint::black_box;

fn bench_full_handshake(c: &mut Criterion) {
    let config = server_config();
    let mut group = c.benchmark_group("table2/handshake");
    group.sample_size(20);
    for suite in [CipherSuite::RsaDesCbc3Sha, CipherSuite::RsaRc4Md5, CipherSuite::RsaAes128Sha] {
        group.bench_function(suite.name(), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                config.clear_session_cache();
                black_box(handshake(config, suite, seed));
            });
        });
    }
    group.finish();
}

fn bench_resumed_handshake(c: &mut Criterion) {
    let config = server_config();
    config.clear_session_cache();
    let (client, _) = handshake(config, CipherSuite::RsaDesCbc3Sha, 7777);
    let session = client.machine().session().expect("established");
    let mut group = c.benchmark_group("table2/handshake_resumed");
    group.sample_size(30);
    group.bench_function("DES-CBC3-SHA", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let client = SslClient::resuming(
                session.clone(),
                SslRng::from_seed(format!("resume-{seed}").as_bytes()),
            );
            let (client, server) = establish(config, client, format!("rsrv-{seed}").as_bytes());
            assert!(server.machine().resumed());
            black_box((client, server));
        });
    });
    group.finish();
}

/// Step 5 in isolation: the RSA pre-master decryption the paper charges
/// 18563 of 18941 kcycles.
fn bench_premaster_decrypt(c: &mut Criterion) {
    let key = key(1024);
    let mut rng = SslRng::from_seed(b"premaster");
    let mut pre_master = vec![3u8, 0];
    pre_master.extend(rng.bytes(46));
    let cipher = key.public_key().encrypt_pkcs1(&pre_master, &mut rng).expect("fits");
    let mut group = c.benchmark_group("table2/step5");
    group.sample_size(30);
    group.bench_function("rsa_private_decryption_1024", |b| {
        b.iter(|| black_box(key.decrypt_pkcs1(black_box(&cipher)).expect("decrypts")));
    });
    group.finish();
}

criterion_group!(benches, bench_full_handshake, bench_resumed_handshake, bench_premaster_decrypt);
criterion_main!(benches);
