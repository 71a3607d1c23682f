//! Design-choice ablations (DESIGN.md §6): each bench pair quantifies one
//! decision the paper motivates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sslperf_bench::{handshake, key, server_config};
use sslperf_core::bignum::{Bn, MontCtx};
use sslperf_core::prelude::*;
use sslperf_core::ssl::mac as ssl3_mac;
use std::hint::black_box;

/// §4.1: session re-negotiation avoids the RSA private operation.
fn ablate_resume(c: &mut Criterion) {
    let config = server_config();
    let mut group = c.benchmark_group("ablate_resume");
    group.sample_size(20);
    group.bench_function("full_handshake", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            config.clear_session_cache();
            black_box(handshake(config, CipherSuite::RsaDesCbc3Sha, seed));
        });
    });
    group.bench_function("resumed_handshake", |b| {
        config.clear_session_cache();
        let (client, _) = handshake(config, CipherSuite::RsaDesCbc3Sha, 31337);
        let session = client.session().expect("established");
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut client = SslClient::resuming(
                session.clone(),
                SslRng::from_seed(format!("ar-{seed}").as_bytes()),
            );
            let mut server =
                SslServer::new(config, SslRng::from_seed(format!("as-{seed}").as_bytes()));
            let f1 = client.hello().expect("hello");
            let f2 = server.process_client_hello(&f1).expect("flight");
            let f3 = client.process_server_flight(&f2).expect("flight");
            let _ = server.process_client_flight(&f3).expect("done");
            black_box((client, server));
        });
    });
    group.finish();
}

/// Table 7's trend: decrypt cost grows superlinearly with key size.
fn ablate_key_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_key_size");
    group.sample_size(20);
    for bits in [512usize, 1024, 2048] {
        let key = key(bits);
        let mut rng = SslRng::from_seed(format!("aks-{bits}").as_bytes());
        let cipher = key.public_key().encrypt_pkcs1(b"msg", &mut rng).expect("fits");
        group.bench_with_input(BenchmarkId::from_parameter(bits), &cipher, |b, cipher| {
            b.iter(|| black_box(key.decrypt_pkcs1(black_box(cipher)).expect("decrypts")));
        });
    }
    group.finish();
}

/// CRT vs plain exponentiation (the ~4× CRT win OpenSSL relies on).
fn ablate_crt(c: &mut Criterion) {
    let key = key(1024);
    let c_bn = Bn::from_u64(0x1234_5678_9abc_def1);
    let mut group = c.benchmark_group("ablate_crt");
    group.sample_size(20);
    group.bench_function("crt", |b| {
        b.iter(|| black_box(key.raw_decrypt(black_box(&c_bn)).expect("in range")));
    });
    group.bench_function("no_crt", |b| {
        b.iter(|| black_box(key.raw_decrypt_no_crt(black_box(&c_bn)).expect("in range")));
    });
    group.finish();
}

/// Montgomery window width 1–6 (why `BN_mod_exp_mont` uses a window).
fn ablate_window(c: &mut Criterion) {
    let n = key(1024).modulus().clone();
    let ctx = MontCtx::new(&n).expect("odd modulus");
    let base = Bn::from_u64(0xdead_beef_cafe_babe);
    let exp = key(1024).exponent().clone();
    let mut group = c.benchmark_group("ablate_window");
    group.sample_size(10);
    for window in 1u32..=6 {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| black_box(ctx.mod_exp_window(black_box(&base), &exp, w)));
        });
    }
    group.bench_function("square_and_multiply_no_mont", |b| {
        b.iter(|| black_box(base.mod_exp_simple(black_box(&exp), &n)));
    });
    group.finish();
}

/// A base that never changes: ffdhe2048 key generation's `2^x mod p` with
/// a 256-bit exponent on the window ladder (what `agree` must run, its
/// base being the peer's) against the fixed-base comb (what `generate`
/// runs).
fn ablate_fixed_base(c: &mut Criterion) {
    let p = Bn::from_hex(sslperf_core::ssl::dhe::FFDHE2048_P_HEX).expect("ffdhe2048 prime");
    let ctx = MontCtx::new(&p).expect("odd modulus");
    let g = Bn::from_u64(2);
    let comb = ctx.fixed_base_comb(&g, 256);
    let exp = Bn::from_bytes_be(&SslRng::from_seed(b"ablate-fixed-base").bytes(32));
    let mut group = c.benchmark_group("ablate_fixed_base");
    group.sample_size(20);
    group.bench_function("window_ladder", |b| {
        b.iter(|| black_box(ctx.mod_exp(black_box(&g), black_box(&exp))));
    });
    group.bench_function("comb", |b| {
        b.iter(|| black_box(comb.pow(black_box(&exp))));
    });
    group.finish();
}

/// §6.2(2): fused Te-table rounds vs textbook per-byte rounds — the
/// software version of the paper's table-lookup hardware unit.
fn ablate_fused_round(c: &mut Criterion) {
    let aes = Aes::new(&[9u8; 16]).expect("key");
    let mut group = c.benchmark_group("ablate_fused_round");
    group.throughput(Throughput::Bytes(16));
    group.bench_function("fused_tables", |b| {
        let mut block = [0x5au8; 16];
        b.iter(|| {
            aes.encrypt_block(&mut block);
            black_box(&block);
        });
    });
    group.bench_function("textbook", |b| {
        let mut block = [0x5au8; 16];
        b.iter(|| {
            aes.encrypt_block_textbook(&mut block);
            black_box(&block);
        });
    });
    group.finish();
}

/// §6.2's round unit for the hashes: the portable SHA-1/SHA-256 block
/// operation against the kernel `new()` detects (the CPU's SHA unit where
/// it has one; the same portable loop otherwise) over one 16 KiB record.
fn ablate_sha_unit(c: &mut Criterion) {
    use sslperf_core::hashes::Sha256;
    let data = vec![0x42u8; 16_384];
    let mut group = c.benchmark_group("ablate_sha_unit");
    group.throughput(Throughput::Bytes(16_384));
    // The two hashes share no trait, only the shape of their API.
    macro_rules! bench_kernels {
        ($name:literal, $ty:ident) => {
            for init in [$ty::portable, $ty::new] {
                group.bench_function(format!("{}_{}", $name, init().backend_name()), |b| {
                    b.iter(|| {
                        let mut h = init();
                        h.update(black_box(&data));
                        black_box(h.finalize())
                    });
                });
            }
        };
    }
    bench_kernels!("sha1", Sha1);
    bench_kernels!("sha256", Sha256);
    group.finish();
}

/// §6.2's round unit kept busy: CBC over one 16 KiB record one block at a
/// time through the trait's default (`per_block`) against the cipher's own
/// `encrypt_cbc`/`decrypt_cbc` — on AES-NI the fused kernel, chain held in
/// a register and eight decrypt blocks in flight; on the table backend the
/// same default, so its two arms are a control.
fn ablate_cbc_chain(c: &mut Criterion) {
    use sslperf_core::ciphers::PerBlock;
    let aes = Aes::new(&[8u8; 16]).expect("key");
    let name = aes.backend_name();
    let per_block = PerBlock(aes.clone());
    let mut group = c.benchmark_group("ablate_cbc_chain");
    group.throughput(Throughput::Bytes(16_384));
    for (arm, cipher) in [("per_block", &per_block as &dyn BlockCipher), ("cbc", &aes)] {
        let mut data = vec![0x42u8; 16_384];
        let mut iv = [0u8; 16];
        group.bench_function(format!("encrypt_{arm}_{name}"), |b| {
            b.iter(|| cipher.encrypt_cbc(&mut iv, black_box(&mut data)));
        });
        group.bench_function(format!("decrypt_{arm}_{name}"), |b| {
            b.iter(|| cipher.decrypt_cbc(&mut iv, black_box(&mut data)));
        });
    }
    group.finish();
}

/// §6.2's two round units at once: a record's SHA-1 MAC update and its
/// AES-CBC encryption in turn (`sequential`: `Sha1::update`, then
/// `encrypt_cbc`) against one stitched pass (`update_and_encrypt_cbc`, then
/// `encrypt_cbc` on what it left), each from the 7 bytes the 71-byte SSLv3
/// MAC prefix leaves buffered, on one 16 KiB fragment and on 64 B, where no
/// whole grain follows the buffered block and nothing is stitched. Arms are
/// labelled by the AES and SHA backends; without both units the stitched
/// arm runs the sequential path, a control.
fn ablate_stitched_seal(c: &mut Criterion) {
    let aes = Aes::new(&[8u8; 16]).expect("key");
    let mut primed = Sha1::new();
    primed.update(&[0x36; 71]);
    let label = format!("{}_{}", aes.backend_name(), primed.backend_name());
    let mut group = c.benchmark_group("ablate_stitched_seal");
    for (size_name, size) in [("16k", 16_384usize), ("64b", 64)] {
        group.throughput(Throughput::Bytes(size as u64));
        let mut data = vec![0x42u8; size];
        let mut iv = [0u8; 16];
        group.bench_function(format!("sequential_{size_name}_{label}"), |b| {
            b.iter(|| {
                let mut h = primed.clone();
                h.update(black_box(&data));
                aes.encrypt_cbc(&mut iv, &mut data);
                black_box(h.finalize())
            });
        });
        group.bench_function(format!("stitched_{size_name}_{label}"), |b| {
            b.iter(|| {
                let mut h = primed.clone();
                let done = match aes.ni_encrypt_schedule() {
                    Some(schedule) => {
                        h.update_and_encrypt_cbc(schedule, &mut iv, black_box(&mut data))
                    }
                    None => {
                        h.update(black_box(&data));
                        0
                    }
                };
                aes.encrypt_cbc(&mut iv, &mut data[done..]);
                black_box(h.finalize())
            });
        });
    }
    group.finish();
}

/// Table 11's slowest cipher with its CBC decrypt blocks two in flight:
/// 3DES-CBC one block at a time through the trait's default (`per_block`)
/// against `Des3`'s own `encrypt_cbc`/`decrypt_cbc` (`cbc`), on a 1 KiB
/// response and a 16 KiB record. Encryption chains, so its two arms differ
/// only by the word-level loop; decryption keeps two independent blocks
/// in flight.
fn ablate_des3_cbc(c: &mut Criterion) {
    use sslperf_core::ciphers::PerBlock;
    let key: Vec<u8> = (1..=24).collect();
    let des3 = Des3::new(&key).expect("key");
    let per_block = PerBlock(des3.clone());
    let mut group = c.benchmark_group("ablate_des3_cbc");
    for (size_name, size) in [("1k", 1024usize), ("16k", 16_384)] {
        group.throughput(Throughput::Bytes(size as u64));
        for (arm, cipher) in [("per_block", &per_block as &dyn BlockCipher), ("cbc", &des3)] {
            let mut data = vec![0x42u8; size];
            let mut iv = [0u8; 8];
            group.bench_function(format!("encrypt_{arm}_{size_name}"), |b| {
                b.iter(|| cipher.encrypt_cbc(&mut iv, black_box(&mut data)));
            });
            group.bench_function(format!("decrypt_{arm}_{size_name}"), |b| {
                b.iter(|| cipher.decrypt_cbc(&mut iv, black_box(&mut data)));
            });
        }
    }
    group.finish();
}

/// §6.2(3): the crypto-engine argument — MAC and encryption of a record
/// serially vs overlapped on two threads.
fn ablate_crypto_engine(c: &mut Criterion) {
    let data = vec![0x42u8; 16_384];
    let secret = [0x2fu8; 20];
    let mut group = c.benchmark_group("ablate_crypto_engine");
    group.throughput(Throughput::Bytes(16_384));
    group.sample_size(20);
    group.bench_function("serial_mac_then_encrypt", |b| {
        let mut cbc = Cbc::new(Aes::new(&[8u8; 16]).expect("key"), vec![0u8; 16]).expect("iv");
        b.iter(|| {
            let tag = ssl3_mac::compute(HashAlg::Sha1, &secret, 1, 23, &data);
            let mut buf = data.clone();
            buf.extend_from_slice(&tag);
            buf.resize(buf.len().div_ceil(16) * 16, 0);
            cbc.encrypt(&mut buf).expect("aligned");
            black_box(buf);
        });
    });
    group.bench_function("parallel_mac_and_encrypt", |b| {
        let mut cbc = Cbc::new(Aes::new(&[8u8; 16]).expect("key"), vec![0u8; 16]).expect("iv");
        b.iter(|| {
            // The engine overlaps MAC with the encryption of the data part,
            // then encrypts the trailing MAC+padding (paper Figure 6).
            let (tag, encrypted_data) = std::thread::scope(|s| {
                let mac_task = s.spawn(|| ssl3_mac::compute(HashAlg::Sha1, &secret, 1, 23, &data));
                let mut buf = data.clone();
                cbc.encrypt(&mut buf).expect("aligned");
                (mac_task.join().expect("mac thread"), buf)
            });
            let mut tail = tag.to_vec();
            tail.resize(tail.len().div_ceil(16) * 16, 0);
            cbc.encrypt(&mut tail).expect("aligned");
            let mut buf = encrypted_data;
            buf.extend_from_slice(&tail);
            black_box(buf);
        });
    });
    group.finish();
}

/// §6.2(1): three-operand logical instructions — static instruction-count
/// savings on the hash kernels, reported once as bench "throughput".
fn ablate_three_operand(c: &mut Criterion) {
    use sslperf_core::isasim::kernels;
    let md5 = kernels::md5::program();
    let sha1 = kernels::sha1::program();
    println!(
        "ablate_three_operand: md5 block {} instrs, {} fusable mov+alu pairs ({:.1}% savings)",
        md5.len(),
        md5.fusable_mov_alu_pairs(),
        md5.fusable_mov_alu_pairs() as f64 * 100.0 / md5.len() as f64
    );
    println!(
        "ablate_three_operand: sha1 block {} instrs, {} fusable mov+alu pairs ({:.1}% savings)",
        sha1.len(),
        sha1.fusable_mov_alu_pairs(),
        sha1.fusable_mov_alu_pairs() as f64 * 100.0 / sha1.len() as f64
    );
    let mut group = c.benchmark_group("ablate_three_operand");
    group.bench_function("analyze_md5", |b| {
        b.iter(|| black_box(kernels::md5::program().fusable_mov_alu_pairs()));
    });
    group.finish();
}

criterion_group!(
    benches,
    ablate_resume,
    ablate_key_size,
    ablate_crt,
    ablate_window,
    ablate_fixed_base,
    ablate_fused_round,
    ablate_sha_unit,
    ablate_cbc_chain,
    ablate_stitched_seal,
    ablate_des3_cbc,
    ablate_crypto_engine,
    ablate_three_operand
);
criterion_main!(benches);
