//! Kernel probes: each layer's hot operations timed alone, on one thread,
//! with fixed inputs that do not depend on the run's seed. A probe's value
//! is the median of `trials` timed batches; the quartile spread is stored
//! beside it.

use crate::stats::{spread, Spread};
use sslperf_core::bignum::{Bn, MontCtx};
use sslperf_core::ciphers::{Aes, Cbc, Des3, Rc4};
use sslperf_core::hashes::{HashAlg, Hmac, Md5, Sha1, Sha256};
use sslperf_core::net::{CryptoPool, ServerStats, ShardedSessionCache};
use sslperf_core::rng::SslRng;
use sslperf_core::rsa::{BatchCipher, RsaPrivateKey};
use sslperf_core::ssl::cache::{CachedSession, SessionCache};
use sslperf_core::ssl::dhe::{self, DheKeyPair, FFDHE2048_P_HEX};
use sslperf_core::ssl::{
    kdf, tls13, CipherSuite, ContentType, CryptoJob, RecordBuffer, RecordLayer, ServerConfig,
    TicketKeyring, MAX_FRAGMENT,
};
use sslperf_core::websim::http::synthesize_document;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// How long and how often each probe is timed.
#[derive(Debug, Clone, Copy)]
pub struct ProbePlan {
    pub trials: usize,
    pub batch: Duration,
}

/// One probe's reading in its declared unit.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub value: Spread,
}

/// Times `run(iters)`, which performs `iters` operations and returns the
/// time the measured part took, in batches sized to last `plan.batch`.
/// Returns seconds per operation.
fn probe(plan: ProbePlan, mut run: impl FnMut(usize) -> Duration) -> Spread {
    let once = run(1).max(Duration::from_nanos(1));
    let iters = (plan.batch.as_secs_f64() / once.as_secs_f64()).ceil().clamp(1.0, 1e7) as usize;
    let per_op: Vec<f64> =
        (0..plan.trials).map(|_| run(iters).as_secs_f64() / iters as f64).collect();
    spread(&per_op)
}

/// Times a self-contained operation.
fn time(plan: ProbePlan, mut op: impl FnMut()) -> Spread {
    probe(plan, |iters| {
        let started = Instant::now();
        for _ in 0..iters {
            op();
        }
        started.elapsed()
    })
}

fn scaled(s: Spread, factor: f64) -> Spread {
    Spread { median: s.median * factor, iqr: s.iqr * factor, n: s.n }
}

/// Seconds per operation over `bytes` bytes → MiB/s (spread propagated to
/// first order).
fn throughput(s: Spread, bytes: usize) -> Spread {
    let rate = bytes as f64 / MIB / s.median;
    Spread { median: rate, iqr: rate * s.iqr / s.median, n: s.n }
}

fn fixed_rng(tag: &str) -> SslRng {
    SslRng::from_seed(format!("sslperf-benchmark-probe-{tag}").as_bytes())
}

/// A value below an odd modulus with its top bit set, in plain form.
fn below(rng: &mut SslRng, bytes: usize) -> Bn {
    let mut buf = rng.bytes(bytes);
    buf[0] &= 0x7f;
    Bn::from_bytes_be(&buf)
}

/// An odd number with its top bit set.
fn odd_modulus(rng: &mut SslRng, bytes: usize) -> Bn {
    let mut buf = rng.bytes(bytes);
    buf[0] |= 0x80;
    buf[bytes - 1] |= 1;
    Bn::from_bytes_be(&buf)
}

fn bignum_probes(plan: ProbePlan, out: &mut Vec<Reading>) {
    let mut rng = fixed_rng("bignum");
    let ctx = MontCtx::new(&odd_modulus(&mut rng, 128)).expect("odd modulus");
    let (a, b) = (ctx.to_mont(&below(&mut rng, 128)), ctx.to_mont(&below(&mut rng, 128)));
    let mul = time(plan, || {
        black_box(ctx.mont_mul(black_box(&a), black_box(&b)));
    });
    out.push(Reading { name: "bignum.mont_mul_1024_ns", value: scaled(mul, 1e9) });
    let sqr = time(plan, || {
        black_box(ctx.mont_sqr(black_box(&a)));
    });
    out.push(Reading { name: "bignum.mont_sqr_1024_ns", value: scaled(sqr, 1e9) });

    // One CRT half of an RSA-1024 private operation.
    let ctx = MontCtx::new(&odd_modulus(&mut rng, 64)).expect("odd modulus");
    let (base, exp) = (below(&mut rng, 64), odd_modulus(&mut rng, 64));
    let half = time(plan, || {
        black_box(ctx.mod_exp(black_box(&base), black_box(&exp)));
    });
    out.push(Reading { name: "bignum.mod_exp_512_us", value: scaled(half, 1e6) });

    // Full-width exponent over the ffdhe2048 prime, no CRT.
    let p = Bn::from_hex(FFDHE2048_P_HEX).expect("ffdhe2048 prime");
    let ctx = MontCtx::new(&p).expect("odd modulus");
    let (base, exp) = (below(&mut rng, 256), odd_modulus(&mut rng, 256));
    let wide = time(plan, || {
        black_box(ctx.mod_exp(black_box(&base), black_box(&exp)));
    });
    out.push(Reading { name: "bignum.mod_exp_2048_us", value: scaled(wide, 1e6) });
}

fn rsa_probes(plan: ProbePlan, key: &RsaPrivateKey, out: &mut Vec<Reading>) {
    let mut rng = fixed_rng("rsa");
    let pre_master = rng.bytes(48);
    let cipher = key.public_key().encrypt_pkcs1(&pre_master, &mut rng).expect("encrypt");
    // Warm the blinding cache so no timed call pays one-time setup.
    assert_eq!(key.decrypt_pkcs1(&cipher).expect("decrypt"), pre_master);

    let decrypt = time(plan, || {
        black_box(key.decrypt_pkcs1(black_box(&cipher)).expect("decrypt"));
    });
    out.push(Reading { name: "rsa.decrypt_1024_us", value: scaled(decrypt, 1e6) });
    let encrypt = time(plan, || {
        black_box(key.public_key().encrypt_pkcs1(&pre_master, &mut rng).expect("encrypt"));
    });
    out.push(Reading { name: "rsa.encrypt_1024_us", value: scaled(encrypt, 1e6) });
    let sign = time(plan, || {
        black_box(key.sign_pkcs1(HashAlg::Sha256, black_box(&pre_master)).expect("sign"));
    });
    out.push(Reading { name: "rsa.sign_1024_us", value: scaled(sign, 1e6) });

    let items: Vec<BatchCipher> = (0..4).map(|_| BatchCipher::new(cipher.clone())).collect();
    let batch = time(plan, || {
        for plain in key.decrypt_batch(black_box(&items), &mut rng) {
            black_box(plain.expect("batched decrypt"));
        }
    });
    // Per decrypt, so it reads beside rsa.decrypt_1024_us.
    out.push(Reading { name: "rsa.decrypt_batch4_1024_us", value: scaled(batch, 1e6 / 4.0) });

    // Key generation time depends on where the prime search lands, so
    // every trial generates the same two keys.
    let keygen: Vec<f64> = (0..plan.trials.min(5))
        .map(|_| {
            let started = Instant::now();
            for tag in ["keygen-a", "keygen-b"] {
                black_box(RsaPrivateKey::generate(1024, &mut fixed_rng(tag)).expect("keygen"));
            }
            started.elapsed().as_secs_f64() * 1e3 / 2.0
        })
        .collect();
    out.push(Reading { name: "rsa.keygen_1024_ms", value: spread(&keygen) });
}

fn cipher_probes(plan: ProbePlan, out: &mut Vec<Reading>) {
    let mut rng = fixed_rng("ciphers");
    let mut buf = rng.bytes(MAX_FRAGMENT);
    let (key16, key24) = (rng.bytes(16), rng.bytes(24));

    let mut aes = Cbc::new(Aes::new(&key16).expect("aes key"), rng.bytes(16)).expect("aes iv");
    let enc = time(plan, || aes.encrypt(black_box(&mut buf)).expect("aligned"));
    out.push(Reading {
        name: "ciphers.aes128_cbc_enc_mib_s",
        value: throughput(enc, MAX_FRAGMENT),
    });
    let dec = time(plan, || aes.decrypt(black_box(&mut buf)).expect("aligned"));
    out.push(Reading {
        name: "ciphers.aes128_cbc_dec_mib_s",
        value: throughput(dec, MAX_FRAGMENT),
    });

    let mut des3 = Cbc::new(Des3::new(&key24).expect("3des key"), rng.bytes(8)).expect("3des iv");
    let enc = time(plan, || des3.encrypt(black_box(&mut buf)).expect("aligned"));
    out.push(Reading { name: "ciphers.des3_cbc_enc_mib_s", value: throughput(enc, MAX_FRAGMENT) });
    let dec = time(plan, || des3.decrypt(black_box(&mut buf)).expect("aligned"));
    out.push(Reading { name: "ciphers.des3_cbc_dec_mib_s", value: throughput(dec, MAX_FRAGMENT) });

    let mut rc4 = Rc4::new(&key16).expect("rc4 key");
    let stream = time(plan, || rc4.process(black_box(&mut buf)));
    out.push(Reading { name: "ciphers.rc4_mib_s", value: throughput(stream, MAX_FRAGMENT) });

    let setup = time(plan, || {
        black_box(Aes::new(black_box(&key16)).expect("aes key"));
    });
    out.push(Reading { name: "ciphers.aes128_key_setup_ns", value: scaled(setup, 1e9) });
}

fn hash_probes(plan: ProbePlan, out: &mut Vec<Reading>) {
    let mut rng = fixed_rng("hashes");
    let buf = rng.bytes(MAX_FRAGMENT);
    let md5 = time(plan, || {
        black_box(Md5::digest(black_box(&buf)));
    });
    out.push(Reading { name: "hashes.md5_mib_s", value: throughput(md5, MAX_FRAGMENT) });
    let sha1 = time(plan, || {
        black_box(Sha1::digest(black_box(&buf)));
    });
    out.push(Reading { name: "hashes.sha1_mib_s", value: throughput(sha1, MAX_FRAGMENT) });
    let sha256 = time(plan, || {
        black_box(Sha256::digest(black_box(&buf)));
    });
    out.push(Reading { name: "hashes.sha256_mib_s", value: throughput(sha256, MAX_FRAGMENT) });

    let key = rng.bytes(20);
    let small = time(plan, || {
        black_box(Hmac::mac(HashAlg::Sha1, &key, black_box(&buf[..64])));
    });
    out.push(Reading { name: "hashes.hmac_sha1_64b_ns", value: scaled(small, 1e9) });
    let large = time(plan, || {
        black_box(Hmac::mac(HashAlg::Sha1, &key, black_box(&buf)));
    });
    out.push(Reading { name: "hashes.hmac_sha1_16k_us", value: scaled(large, 1e6) });
    let secret = rng.bytes(32);
    let label = time(plan, || {
        black_box(tls13::expand_label(black_box(&secret), "key", b"", 16));
    });
    out.push(Reading { name: "hashes.hkdf_expand_label_ns", value: scaled(label, 1e9) });

    let mut fill = vec![0u8; 4096];
    let rand = time(plan, || rng.fill_bytes(black_box(&mut fill)));
    out.push(Reading { name: "rng.fill_mib_s", value: throughput(rand, 4096) });
}

/// A write-side and a read-side record layer sharing one suite's keys.
fn record_pair(suite: CipherSuite, rng: &mut SslRng) -> (RecordLayer, RecordLayer) {
    let (key, iv) = (rng.bytes(suite.key_len()), rng.bytes(suite.iv_len()));
    let mac = rng.bytes(suite.mac_alg().output_len());
    let mut writer = RecordLayer::new();
    writer.activate_write(
        suite.new_cipher(&key, &iv).expect("cipher"),
        suite.mac_alg(),
        mac.clone(),
    );
    let mut reader = RecordLayer::new();
    reader.activate_read(suite.new_cipher(&key, &iv).expect("cipher"), suite.mac_alg(), mac);
    (writer, reader)
}

fn record_probes(plan: ProbePlan, out: &mut Vec<Reading>) {
    let mut rng = fixed_rng("record");
    let payload = rng.bytes(MAX_FRAGMENT);
    let seal_probe = |writer: &mut RecordLayer, payload: &[u8]| {
        let mut buf = RecordBuffer::with_record_capacity();
        time(plan, || {
            writer
                .seal_into(ContentType::ApplicationData, black_box(payload), &mut buf)
                .expect("seal");
        })
    };
    // Records open only in the order they were sealed (sequence numbers,
    // CBC chaining), so each batch seals its records untimed first.
    let open_probe = |writer: &mut RecordLayer, reader: &mut RecordLayer| {
        probe(plan, |iters| {
            let mut sealed: Vec<RecordBuffer> = (0..iters)
                .map(|_| {
                    let mut buf = RecordBuffer::with_record_capacity();
                    writer
                        .seal_into(ContentType::ApplicationData, &payload, &mut buf)
                        .expect("seal");
                    buf
                })
                .collect();
            let started = Instant::now();
            for buf in &mut sealed {
                black_box(reader.open_in_place(buf).expect("open"));
            }
            started.elapsed()
        })
    };

    let (mut writer, mut reader) = record_pair(CipherSuite::RsaAes128Sha, &mut rng);
    let open = open_probe(&mut writer, &mut reader);
    out.push(Reading { name: "ssl.record.open_16k_aes128sha_us", value: scaled(open, 1e6) });
    let seal = seal_probe(&mut writer, &payload);
    out.push(Reading { name: "ssl.record.seal_16k_aes128sha_us", value: scaled(seal, 1e6) });
    let small = seal_probe(&mut writer, &payload[..64]);
    out.push(Reading { name: "ssl.record.seal_64b_aes128sha_ns", value: scaled(small, 1e9) });

    let (mut writer, mut reader) = record_pair(CipherSuite::RsaDesCbc3Sha, &mut rng);
    let open = open_probe(&mut writer, &mut reader);
    out.push(Reading { name: "ssl.record.open_16k_des3sha_us", value: scaled(open, 1e6) });
    let seal = seal_probe(&mut writer, &payload);
    out.push(Reading { name: "ssl.record.seal_16k_des3sha_us", value: scaled(seal, 1e6) });

    let (mut writer, _) = record_pair(CipherSuite::RsaRc4Md5, &mut rng);
    let seal = seal_probe(&mut writer, &payload);
    out.push(Reading { name: "ssl.record.seal_16k_rc4md5_us", value: scaled(seal, 1e6) });
}

fn session_probes(plan: ProbePlan, out: &mut Vec<Reading>) {
    let mut rng = fixed_rng("session");
    let suite = CipherSuite::RsaDesCbc3Sha;
    let (pre_master, client_random, server_random) = (rng.bytes(48), rng.bytes(32), rng.bytes(32));
    let derive = time(plan, || {
        let master = kdf::master_secret(black_box(&pre_master), &client_random, &server_random);
        black_box(kdf::key_block(&master, &server_random, &client_random, suite.key_block_len()));
    });
    out.push(Reading { name: "ssl.kdf.master_and_keyblock_us", value: scaled(derive, 1e6) });

    let keyring = TicketKeyring::new(b"sslperf-benchmark-probe-tickets");
    let session = CachedSession { master: rng.bytes(48), suite };
    let ticket = keyring.seal(&session);
    let seal = time(plan, || {
        black_box(keyring.seal(black_box(&session)));
    });
    out.push(Reading { name: "ssl.ticket.seal_us", value: scaled(seal, 1e6) });
    let open = time(plan, || {
        black_box(keyring.open(black_box(&ticket)).expect("fresh ticket"));
    });
    out.push(Reading { name: "ssl.ticket.open_us", value: scaled(open, 1e6) });

    let peer = DheKeyPair::generate(&mut rng);
    let peer_public = dhe::validate_public(peer.public()).expect("valid public value");
    let keygen = time(plan, || {
        black_box(DheKeyPair::generate(&mut rng));
    });
    out.push(Reading { name: "ssl.dhe.keygen_us", value: scaled(keygen, 1e6) });
    let pair = DheKeyPair::generate(&mut rng);
    let agree = time(plan, || {
        black_box(pair.agree(black_box(&peer_public)));
    });
    out.push(Reading { name: "ssl.dhe.agree_us", value: scaled(agree, 1e6) });

    // The server's cache geometry; ids cycle so inserts replace in place
    // once every id is present and lookups always hit.
    let cache = ShardedSessionCache::new(8, 1024);
    let ids: Vec<Vec<u8>> = (0..4096).map(|_| rng.bytes(32)).collect();
    let mut next = 0usize;
    let insert = probe(plan, |iters| {
        let entries: Vec<_> =
            (0..iters).map(|i| (ids[(next + i) % ids.len()].clone(), session.clone())).collect();
        next += iters;
        let started = Instant::now();
        for (id, session) in entries {
            cache.store(id, session);
        }
        started.elapsed()
    });
    out.push(Reading { name: "net.cache.insert_ns", value: scaled(insert, 1e9) });
    for id in &ids {
        cache.store(id.clone(), session.clone());
    }
    let mut next = 0usize;
    let lookup = time(plan, || {
        next = (next + 1) % ids.len();
        black_box(cache.lookup(&ids[next]).expect("stored above"));
    });
    out.push(Reading { name: "net.cache.lookup_hit_ns", value: scaled(lookup, 1e9) });
}

/// Submits one small job at a time to an idle one-engine pool: the reply
/// time minus the job's own execution is what the pool hand-off costs.
fn pool_probe(plan: ProbePlan, key: &RsaPrivateKey, out: &mut Vec<Reading>) {
    const JOBS_PER_TRIAL: usize = 20;
    let config = Arc::new(ServerConfig::new(key.clone(), "probe.sslperf.test").expect("config"));
    let pool = CryptoPool::start(1, config, Arc::new(ServerStats::default()));
    let (reply_tx, reply_rx) = mpsc::channel();
    let rng = fixed_rng("pool");
    let per_job: Vec<f64> = (0..plan.trials)
        .map(|_| {
            let mut overhead = Duration::ZERO;
            for _ in 0..JOBS_PER_TRIAL {
                // Let the worker get back to waiting: the probe is of an
                // idle pool, not of one caught mid-loop.
                std::thread::sleep(Duration::from_micros(200));
                let job = CryptoJob::new_bulk(vec![0u8; 64], rng.clone());
                let started = Instant::now();
                assert!(pool.try_submit(0, job, &reply_tx).is_ok(), "an idle pool accepts a job");
                let reply = reply_rx.recv().expect("pool reply");
                overhead += started.elapsed().saturating_sub(reply.done.exec().to_duration());
            }
            overhead.as_secs_f64() * 1e6 / JOBS_PER_TRIAL as f64
        })
        .collect();
    pool.shutdown();
    out.push(Reading { name: "net.cryptopool.roundtrip_idle_us", value: spread(&per_job) });
}

/// Runs every kernel probe.
pub fn run_all(plan: ProbePlan) -> Vec<Reading> {
    let key = RsaPrivateKey::generate(1024, &mut fixed_rng("key")).expect("keygen");
    let mut out = Vec::new();
    bignum_probes(plan, &mut out);
    rsa_probes(plan, &key, &mut out);
    cipher_probes(plan, &mut out);
    hash_probes(plan, &mut out);
    record_probes(plan, &mut out);
    session_probes(plan, &mut out);
    pool_probe(plan, &key, &mut out);
    let path = "/doc_1048576.bin";
    let synth = time(plan, || {
        black_box(synthesize_document(black_box(path), 1 << 20));
    });
    out.push(Reading { name: "websim.http.synthesize_1m_us", value: scaled(synth, 1e6) });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_seconds_per_operation() {
        let plan = ProbePlan { trials: 5, batch: Duration::from_millis(2) };
        let s = probe(plan, |iters| Duration::from_micros(10) * iters as u32);
        assert!((s.median - 10e-6).abs() < 1e-9, "{s:?}");
        assert_eq!(s.n, 5);
        let rate = throughput(Spread { median: 1e-3, iqr: 1e-4, n: 5 }, 1 << 20);
        assert!((rate.median - 1000.0).abs() < 1e-9 && (rate.iqr - 100.0).abs() < 1e-9);
    }
}
