//! The faster kernel of every selectable pair is in fact the faster one.
//!
//! Each kernel family keeps a paper-faithful reference beside the unit that
//! replaced it on the serving path: u32 Montgomery limbs beside u64, two
//! scalar u64 exponentiations beside the IFMA CRT pair, the AES tables
//! beside AES-NI, the portable SHA compression beside the SHA extensions. The differential tests prove each pair computes the same
//! bytes; these prove the ordering the selection rests on, inside one
//! process, by pinning each side explicitly rather than trusting what the
//! constructors pick from the CPU. Every
//! comparison is a best-of-[`SAMPLES`] minimum against a best-of-
//! [`SAMPLES`] minimum and asserts nothing but `fast < slow`: a margin
//! would be a benchmark, and `benchmark/` is the benchmark. A case whose
//! hardware unit the CPU lacks prints why it is skipped, as the KATs do.

use sslperf::bignum::{generate_prime, Bn, EntropySource, LimbWidth, MontCtx};
use sslperf::ciphers::AesBackend;
use sslperf::hashes::Sha256;
use sslperf::prelude::*;
use sslperf::ssl::{BulkCipher, ContentType, RecordBuffer, RecordLayer, MAX_FRAGMENT};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Timed runs per side; the minimum is compared.
const SAMPLES: usize = 8;

/// One timing comparison at a time: libtest runs this file's tests on
/// parallel threads, and a sibling saturating the other core is the one
/// disturbance a minimum over a few samples cannot shed.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fastest of [`SAMPLES`] runs of `work`, after one untimed warm-up.
fn best_of(mut work: impl FnMut()) -> Duration {
    work();
    (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed()
        })
        .min()
        .expect("SAMPLES is positive")
}

fn assert_faster(what: &str, fast: Duration, slow: Duration) {
    assert!(fast < slow, "{what}: {fast:?} is not below {slow:?}");
}

/// The same 1024-bit key on u32 limbs and on u64 limbs, in that order.
fn key_on_both_widths() -> [RsaPrivateKey; 2] {
    let base =
        RsaPrivateKey::generate(1024, &mut SslRng::from_seed(b"kernel-speed-key")).expect("keygen");
    [LimbWidth::U32, LimbWidth::U64].map(|limbs| {
        let mut key = base.clone();
        key.set_limb_width(limbs);
        key
    })
}

#[test]
fn u64_limbs_decrypt_faster_than_u32() {
    let _serial = serial();
    let [narrow, wide] = key_on_both_widths().map(|key| {
        let cipher = key
            .public_key()
            .encrypt_pkcs1(b"kernel-speed-pm", &mut SslRng::from_seed(b"kernel-speed-pad"))
            .expect("encrypt");
        best_of(|| {
            key.decrypt_pkcs1(&cipher).expect("decrypt");
        })
    });
    assert_faster("RSA-1024 CRT decrypt, u64 limbs vs u32", wide, narrow);
}

#[test]
fn u64_limbs_square_faster_than_u32() {
    let _serial = serial();
    let [narrow, wide] = key_on_both_widths().map(|key| {
        let ctx = MontCtx::with_limb_width(key.modulus(), key.limb_width()).expect("odd modulus");
        let seed = ctx.to_mont(&Bn::from_u64(0xA5A5_5A5A_3C3C_C3C3));
        // The modexp inner loop is squaring-dominated; 256 back to back is
        // one 512-bit CRT half's worth.
        best_of(|| {
            let mut a = seed.clone();
            for _ in 0..256 {
                a = ctx.mont_sqr(&a);
            }
            std::hint::black_box(a);
        })
    });
    assert_faster("256 Montgomery squarings mod 2^1024, u64 limbs vs u32", wide, narrow);
}

#[test]
fn ifma_crt_pair_decrypts_faster_than_scalar_u64() {
    #[cfg(target_arch = "x86_64")]
    let ifma = is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512vl");
    #[cfg(not(target_arch = "x86_64"))]
    let ifma = false;
    if !ifma {
        println!("skipped: this CPU has no avx512ifma, the scalar u64 kernel is the only one");
        return;
    }
    let _serial = serial();
    // The two halves of an RSA-1024 private operation, on u64 contexts:
    // `mod_exp_pair` takes the IFMA kernel, `mod_exp` the scalar one.
    let mut rng = SslRng::from_seed(b"kernel-speed-crt");
    let [p, q] = [(); 2].map(|()| {
        MontCtx::with_limb_width(&generate_prime(512, &mut rng), LimbWidth::U64).expect("odd")
    });
    let c = rng.next_bn_below(&p.modulus().mul(q.modulus()));
    let (dp, dq) = (rng.next_bn_below(p.modulus()), rng.next_bn_below(q.modulus()));
    let pair = best_of(|| {
        std::hint::black_box(p.mod_exp_pair(&c, &dp, &q, &c, &dq));
    });
    let scalar = best_of(|| {
        std::hint::black_box((p.mod_exp(&c, &dp), q.mod_exp(&c, &dq)));
    });
    assert_faster("RSA-1024 CRT halves, IFMA pair vs two scalar u64 mod_exps", pair, scalar);
}

/// Best time to seal one full AES128-SHA record on the given round unit.
fn seal_16k(backend: AesBackend) -> Duration {
    let suite = CipherSuite::RsaAes128Sha;
    let mut rng = SslRng::from_seed(b"kernel-speed-aes");
    let aes = Aes::with_backend(&rng.bytes(suite.key_len()), backend).expect("backend resolved");
    let cbc = Cbc::new(aes, rng.bytes(suite.iv_len())).expect("aes-cbc");
    let mut records = RecordLayer::new();
    let mac = rng.bytes(suite.mac_alg().output_len());
    records.activate_write(BulkCipher::AesCbc(cbc), suite.mac_alg(), mac);
    let payload = vec![0xA5u8; MAX_FRAGMENT];
    let mut out = RecordBuffer::with_record_capacity();
    best_of(|| {
        records.seal_into(ContentType::ApplicationData, &payload, &mut out).expect("seal");
    })
}

#[test]
fn aes_ni_seals_a_record_faster_than_the_tables() {
    if !Aes::ni_available() {
        println!("skipped: this CPU has no AES-NI, the tables are the only round unit");
        return;
    }
    let _serial = serial();
    let (ni, table) = (seal_16k(AesBackend::Ni), seal_16k(AesBackend::Table));
    assert_faster("16 KiB AES128-SHA record seal, AES-NI vs tables", ni, table);
}

#[test]
fn sha_unit_hashes_faster_than_the_portable_compression() {
    if Sha1::new().backend_name() != "ni" {
        println!("skipped: this CPU has no SHA extensions, the portable kernel is the only one");
        return;
    }
    let _serial = serial();
    let data = vec![0xA5u8; MAX_FRAGMENT];
    let sha1 = |start: fn() -> Sha1| {
        best_of(|| {
            let mut h = start();
            h.update(&data);
            std::hint::black_box(h.finalize());
        })
    };
    assert_faster("SHA-1 over 16 KiB, unit vs portable", sha1(Sha1::new), sha1(Sha1::portable));
    let sha256 = |start: fn() -> Sha256| {
        best_of(|| {
            let mut h = start();
            h.update(&data);
            std::hint::black_box(h.finalize());
        })
    };
    assert_faster(
        "SHA-256 over 16 KiB, unit vs portable",
        sha256(Sha256::new),
        sha256(Sha256::portable),
    );
}
