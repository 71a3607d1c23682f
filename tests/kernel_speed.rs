//! The faster kernel of every selectable pair is in fact the faster one.
//!
//! Each kernel family keeps a paper-faithful reference beside the unit that
//! replaced it on the serving path: u32 Montgomery limbs beside u64, the
//! AES tables beside AES-NI, the portable SHA compression beside the SHA
//! extensions. The differential tests prove each pair computes the same
//! bytes; these prove the ordering the selection rests on, inside one
//! process, by pinning each side explicitly — so they hold whatever
//! `SSLPERF_LIMBS` / `SSLPERF_AES` make the process default. Every
//! comparison is a best-of-[`SAMPLES`] minimum against a best-of-
//! [`SAMPLES`] minimum and asserts nothing but `fast < slow`: a margin
//! would be a benchmark, and `benchmark/` is the benchmark. A case whose
//! hardware unit the CPU lacks prints why it is skipped, as the KATs do.

use sslperf::bignum::{Bn, LimbWidth, MontCtx};
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
