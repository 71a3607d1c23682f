//! DESIGN.md §6's design-choice ablations and the recording budget of the
//! server's registry.
//!
//! Each ablation prices one decision the paper argues for — session
//! resumption (§4.1), CRT and windowed Montgomery exponentiation (Tables
//! 7–8), the round-lookup unit and three-operand logical instructions
//! (§6.2), parallel crypto engines (§6.2(3)) — by timing its arms side by
//! side. The arms that are not the serving path (textbook AES, per-block
//! CBC, portable SHA, the sequential seal, no-CRT decryption, windows 1–6,
//! the thread-overlapped MAC) are reference code no benchmark workload
//! runs, so this is where they are measured.
//!
//! Every timed arm reports the median and interquartile range of its
//! per-iteration time over repeated samples ([`measure_spread`]). The five
//! structural ablations also print the deterministic counts their timings
//! rest on: bignum kernel calls from [`counters`], keyed by the counter of
//! whichever kernel the CPU and limb width picked; the RSA private
//! operations a full and a resumed handshake book; and the fusable
//! `mov`+ALU pairs of the simulated hash kernels.

use crate::experiments::handshake::establish;
use crate::experiments::ExperimentError;
use crate::Context;
use sslperf_bignum::{Bn, FixedBaseComb, LimbWidth, MontCtx};
use sslperf_ciphers::{Aes, AesBackend, BlockCipher, Cbc, Des3, PerBlock};
use sslperf_hashes::{HashAlg, Sha1, Sha256};
use sslperf_isasim::kernels;
use sslperf_net::ServerStats;
use sslperf_profile::counters::{self, Snapshot};
use sslperf_profile::{black_box, measure, measure_spread, Align, Cycles, Spread, Table};
use sslperf_rng::SslRng;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::mac as ssl3_mac;
use sslperf_ssl::{
    CipherSuite, ClientSession, HandshakeLedger, Protocol, ServerConfig, SslClient, SslError,
    SERVER_STEP_NAMES,
};
use std::fmt;

/// The shortest a sample may run: an arm's batch repeats its operation
/// until one sample takes at least this long, so the timer's resolution
/// and a stray wake-up stay small against it.
const SAMPLE_TARGET: Cycles = Cycles::new(452_000); // 200 µs at REF_HZ

/// One full SSL record, the payload of the bulk-cipher ablations.
const RECORD: usize = 16_384;

/// The bignum counters an exponentiation books, one kernel's names each:
/// the u64 kernel's Montgomery products, the IFMA kernel's (one call per
/// product of both CRT halves at once), and the u32 path's OpenSSL names —
/// products, Montgomery reductions, and the plain path's divisions.
const BIGNUM_COUNTERS: [&str; 7] =
    ["mont_mul64", "mont_sqr64", "amm52x10_x2", "BN_mul", "BN_sqr", "BN_from_montgomery", "BN_div"];

/// One arm of an ablation.
#[derive(Debug)]
pub struct Arm {
    /// What this arm runs.
    pub name: String,
    /// Bytes one iteration processes, for arms that report a rate.
    pub bytes: Option<usize>,
    /// Time per iteration across the samples.
    pub time: Spread,
    /// The deterministic counts behind a structural ablation's arm.
    pub counted: Option<String>,
}

impl Arm {
    fn bytes(mut self, bytes: usize) -> Self {
        self.bytes = Some(bytes);
        self
    }

    fn counted(mut self, counted: String) -> Self {
        self.counted = Some(counted);
        self
    }
}

/// One ablation: the arms it compares.
#[derive(Debug)]
pub struct Ablation {
    /// The group's name (`ablate_window`, `metrics/record`, ...).
    pub name: &'static str,
    /// The decision it prices.
    pub question: &'static str,
    /// Its arms, in the order they are compared.
    pub arms: Vec<Arm>,
}

/// Every ablation of DESIGN.md §6, then the registry's recording budget.
#[derive(Debug)]
pub struct Ablations {
    /// Samples behind each arm's median and IQR.
    pub samples: u32,
    /// The ablations, in order.
    pub groups: Vec<Ablation>,
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for group in &self.groups {
            let rated = group.arms.iter().any(|arm| arm.bytes.is_some());
            let counted = group.arms.iter().any(|arm| arm.counted.is_some());
            let mut t = Table::new(&format!("{}: {}", group.name, group.question));
            let mut columns =
                vec![("Arm", Align::Left), ("Median", Align::Right), ("IQR", Align::Right)];
            if rated {
                columns.push(("MB/s", Align::Right));
            }
            if counted {
                columns.push(("Counted", Align::Left));
            }
            t.columns(&columns);
            for arm in &group.arms {
                let mut row = vec![arm.name.clone(), time(arm.time.median), time(arm.time.iqr())];
                if rated {
                    let secs = arm.time.median.to_duration().as_secs_f64();
                    row.push(match arm.bytes {
                        Some(bytes) if secs > 0.0 => format!("{:.1}", bytes as f64 / secs / 1e6),
                        _ => String::new(),
                    });
                }
                if counted {
                    row.push(arm.counted.clone().unwrap_or_default());
                }
                t.row(&row);
            }
            writeln!(f, "{t}")?;
        }
        writeln!(
            f,
            "Times are per iteration: median and IQR over {} samples. Counted columns are \
             deterministic and do not depend on the host's load.",
            self.samples
        )
    }
}

/// A duration in the unit that suits it.
fn time(cycles: Cycles) -> String {
    format!("{:.2?}", cycles.to_duration())
}

/// Times arms with a fixed number of samples each.
struct Timer {
    samples: u32,
}

impl Timer {
    /// Times `f`: one warm-up call sizes the batch so a sample lasts at
    /// least [`SAMPLE_TARGET`], then the samples run.
    fn arm(&self, name: impl Into<String>, mut f: impl FnMut()) -> Arm {
        let ((), once) = measure(&mut f);
        let iters = (SAMPLE_TARGET.get() / once.get().max(1)).clamp(1, 100_000) as u32;
        Arm {
            name: name.into(),
            bytes: None,
            time: measure_spread(self.samples, iters, f),
            counted: None,
        }
    }
}

/// Runs every ablation.
///
/// Samples per arm grow with the context's iterations: 8 in quick mode, 40
/// at the paper's settings.
///
/// # Errors
///
/// Propagates key-generation, cipher and handshake failures.
pub fn ablations(ctx: &Context) -> Result<Ablations, ExperimentError> {
    let timer = Timer { samples: (4 * ctx.iterations()).clamp(8, 40) as u32 };
    let mut groups = vec![
        resume(&timer, ctx.server_config(), ctx.suite())?,
        key_size(&timer, ctx)?,
        crt(&timer, ctx.key_1024())?,
        window(&timer, ctx.key_1024())?,
        fixed_base(&timer)?,
        fused_round(&timer)?,
        sha_unit(&timer),
        cbc_chain(&timer)?,
        stitched_seal(&timer)?,
        des3_cbc(&timer)?,
        crypto_engine(&timer)?,
        three_operand(&timer),
    ];
    groups.extend(metrics(&timer));
    Ok(Ablations { samples: timer.samples, groups })
}

/// The nonzero [`BIGNUM_COUNTERS`] of `snap`, as `name calls` pairs.
fn bignum_calls(snap: &Snapshot) -> String {
    let calls: Vec<String> = BIGNUM_COUNTERS
        .iter()
        .filter(|name| snap.calls(name) > 0)
        .map(|name| format!("{name} {}", snap.calls(name)))
        .collect();
    calls.join(" · ")
}

/// What a full and a resumed handshake each book: `(the server's ledger
/// says resumed, RSA private operations)`, with the session the full one
/// left in `config`'s cache.
fn resume_counts(
    config: &ServerConfig,
    suite: CipherSuite,
) -> Result<([(bool, u64); 2], ClientSession), ExperimentError> {
    config.clear_session_cache();
    let fresh = SslClient::new(suite, SslRng::from_seed(b"ablate-resume-full"));
    let (full, snap) = counters::counted(|| establish(config, fresh, b"ablate-resume-s1"));
    let (client, server) = full?;
    let full = (server.machine().ledger().resumed, snap.calls("rsa_private_op"));
    let session = client.machine().session().ok_or(SslError::NotReady("no session"))?;
    let resuming = SslClient::resuming(session.clone(), SslRng::from_seed(b"ablate-resume-again"));
    let (resumed, snap) = counters::counted(|| establish(config, resuming, b"ablate-resume-s2"));
    let (_, server) = resumed?;
    Ok(([full, (server.machine().ledger().resumed, snap.calls("rsa_private_op"))], session))
}

/// §4.1: session re-negotiation avoids the RSA private operation.
fn resume(
    timer: &Timer,
    config: &ServerConfig,
    suite: CipherSuite,
) -> Result<Ablation, ExperimentError> {
    let ([full, resumed], session) = resume_counts(config, suite)?;
    let counted = |(resumed, rsa): (bool, u64)| {
        format!("rsa_private_op {rsa}, ledger resumed: {}", if resumed { "yes" } else { "no" })
    };
    let mut seed = 0u64;
    // Resumed first: the full arm clears the cache the session sits in.
    let resumed_arm = timer
        .arm("resumed_handshake", || {
            seed += 1;
            let rng = SslRng::from_seed(format!("ar-{seed}").as_bytes());
            let client = SslClient::resuming(session.clone(), rng);
            black_box(establish(config, client, format!("ars-{seed}").as_bytes()).is_ok());
        })
        .counted(counted(resumed));
    let full_arm = timer
        .arm("full_handshake", || {
            seed += 1;
            config.clear_session_cache();
            let client = SslClient::new(suite, SslRng::from_seed(format!("af-{seed}").as_bytes()));
            black_box(establish(config, client, format!("afs-{seed}").as_bytes()).is_ok());
        })
        .counted(counted(full));
    config.clear_session_cache();
    Ok(Ablation {
        name: "ablate_resume",
        question: "§4.1 session resumption skips the RSA private operation",
        arms: vec![full_arm, resumed_arm],
    })
}

/// Table 7's trend: decryption cost grows superlinearly with key size.
fn key_size(timer: &Timer, ctx: &Context) -> Result<Ablation, ExperimentError> {
    let key_2048 = RsaPrivateKey::generate(2048, &mut ctx.rng("ablate-key-2048"))?;
    let mut arms = Vec::new();
    for key in [ctx.key_512(), ctx.key_1024(), &key_2048] {
        let bits = key.modulus().bit_len();
        let mut rng = ctx.rng(&format!("ablate-key-size-{bits}"));
        let cipher = key.public_key().encrypt_pkcs1(b"msg", &mut rng)?;
        key.decrypt_pkcs1(&cipher)?;
        arms.push(timer.arm(format!("decrypt_{bits}"), || {
            black_box(key.decrypt_pkcs1(black_box(&cipher)).is_ok());
        }));
    }
    Ok(Ablation {
        name: "ablate_key_size",
        question: "Table 7's trend: RSA decryption by key size",
        arms,
    })
}

/// The bignum calls of a CRT and a plain private operation on `key`.
fn crt_counts(key: &RsaPrivateKey, c: &Bn) -> Result<[Snapshot; 2], ExperimentError> {
    let (crt, with) = counters::counted(|| key.raw_decrypt(c));
    let (plain, without) = counters::counted(|| key.raw_decrypt_no_crt(c));
    crt?;
    plain?;
    Ok([with, without])
}

/// CRT vs plain exponentiation: the ~4× CRT win OpenSSL relies on.
fn crt(timer: &Timer, key: &RsaPrivateKey) -> Result<Ablation, ExperimentError> {
    let c = Bn::from_u64(0x1234_5678_9abc_def1);
    let [with, without] = crt_counts(key, &c)?;
    let arms = vec![
        timer
            .arm("crt", || {
                black_box(key.raw_decrypt(black_box(&c)).is_ok());
            })
            .counted(bignum_calls(&with)),
        timer
            .arm("no_crt", || {
                black_box(key.raw_decrypt_no_crt(black_box(&c)).is_ok());
            })
            .counted(bignum_calls(&without)),
    ];
    Ok(Ablation {
        name: "ablate_crt",
        question: "RSA-1024 private operation with and without CRT",
        arms,
    })
}

/// The bignum calls of `base^exp mod ctx` on the window ladder at widths
/// 1–6 (index `w − 1`), and of the plain square-and-multiply without
/// Montgomery form.
fn window_counts(ctx: &MontCtx, base: &Bn, exp: &Bn) -> (Vec<Snapshot>, Snapshot) {
    let windows = (1..=6).map(|w| counters::counted(|| ctx.mod_exp_window(base, exp, w)).1);
    let plain = counters::counted(|| base.mod_exp_simple(exp, ctx.modulus())).1;
    (windows.collect(), plain)
}

/// Montgomery window width 1–6: why `BN_mod_exp_mont` uses a window.
fn window(timer: &Timer, key: &RsaPrivateKey) -> Result<Ablation, ExperimentError> {
    let n = key.modulus();
    let ctx = MontCtx::new(n)?;
    let base = Bn::from_u64(0xdead_beef_cafe_babe);
    let exp = key.exponent();
    let (windows, plain) = window_counts(&ctx, &base, exp);
    let mut arms: Vec<Arm> = (1..=6)
        .zip(&windows)
        .map(|(w, snap)| {
            timer
                .arm(format!("window_{w}"), || {
                    black_box(ctx.mod_exp_window(black_box(&base), exp, w));
                })
                .counted(bignum_calls(snap))
        })
        .collect();
    arms.push(
        timer
            .arm("square_and_multiply_no_mont", || {
                black_box(base.mod_exp_simple(black_box(exp), n));
            })
            .counted(bignum_calls(&plain)),
    );
    Ok(Ablation {
        name: "ablate_window",
        question: "Montgomery window width, RSA-1024 private exponent d mod N",
        arms,
    })
}

/// The ffdhe2048 group's key generation, `2^x mod p` with a 256-bit `x`,
/// on one limb width.
struct Ffdhe2048 {
    ctx: MontCtx,
    g: Bn,
    comb: FixedBaseComb,
    x: Bn,
}

impl Ffdhe2048 {
    fn new(limbs: LimbWidth) -> Result<Self, ExperimentError> {
        let p = Bn::from_hex(sslperf_ssl::dhe::FFDHE2048_P_HEX)?;
        let ctx = MontCtx::with_limb_width(&p, limbs)?;
        let g = Bn::from_u64(2);
        let comb = ctx.fixed_base_comb(&g, 256);
        let x = Bn::from_bytes_be(&SslRng::from_seed(b"ablate-fixed-base").bytes(32));
        Ok(Ffdhe2048 { ctx, g, comb, x })
    }

    /// The bignum calls of one key generation on the window ladder and on
    /// the fixed-base comb.
    fn counts(&self) -> [Snapshot; 2] {
        let ladder = counters::counted(|| self.ctx.mod_exp(&self.g, &self.x)).1;
        let comb = counters::counted(|| self.comb.pow(&self.x)).1;
        [ladder, comb]
    }
}

/// A base that never changes: ffdhe2048 key generation's `2^x mod p` on
/// the window ladder (what `agree` must run, its base being the peer's)
/// against the fixed-base comb (what `generate` runs).
fn fixed_base(timer: &Timer) -> Result<Ablation, ExperimentError> {
    let group = Ffdhe2048::new(LimbWidth::U64)?;
    let [ladder, comb] = group.counts();
    let arms = vec![
        timer
            .arm("window_ladder", || {
                black_box(group.ctx.mod_exp(black_box(&group.g), black_box(&group.x)));
            })
            .counted(bignum_calls(&ladder)),
        timer
            .arm("comb", || {
                black_box(group.comb.pow(black_box(&group.x)));
            })
            .counted(bignum_calls(&comb)),
    ];
    Ok(Ablation {
        name: "ablate_fixed_base",
        question: "ffdhe2048 keygen, 256-bit exponent: window ladder vs fixed-base comb",
        arms,
    })
}

/// §6.2(2): fused Te-table rounds vs textbook per-byte rounds — the
/// software version of the paper's table-lookup hardware unit. Both arms
/// run on the table backend, whatever round unit the CPU has.
fn fused_round(timer: &Timer) -> Result<Ablation, ExperimentError> {
    let aes = Aes::with_backend(&[9u8; 16], AesBackend::Table)?;
    let mut block = [0x5au8; 16];
    let fused = timer.arm("fused_tables", || {
        aes.encrypt_block(&mut block);
        black_box(&block);
    });
    let textbook = timer.arm("textbook", || {
        aes.encrypt_block_textbook(&mut block);
        black_box(&block);
    });
    Ok(Ablation {
        name: "ablate_fused_round",
        question: "§6.2(2) round lookup: fused tables vs textbook AES, one block",
        arms: vec![fused.bytes(16), textbook.bytes(16)],
    })
}

/// §6.2's round unit for the hashes: the portable SHA-1/SHA-256 block
/// operation against the kernel `new()` detects (the CPU's SHA unit where
/// it has one; the same portable loop otherwise) over one 16 KiB record.
fn sha_unit(timer: &Timer) -> Ablation {
    let data = vec![0x42u8; RECORD];
    let mut arms = Vec::new();
    for init in [Sha1::portable, Sha1::new] {
        arms.push(
            timer
                .arm(format!("sha1_{}", init().backend_name()), || {
                    let mut h = init();
                    h.update(black_box(&data));
                    black_box(h.finalize());
                })
                .bytes(RECORD),
        );
    }
    for init in [Sha256::portable, Sha256::new] {
        arms.push(
            timer
                .arm(format!("sha256_{}", init().backend_name()), || {
                    let mut h = init();
                    h.update(black_box(&data));
                    black_box(h.finalize());
                })
                .bytes(RECORD),
        );
    }
    Ablation {
        name: "ablate_sha_unit",
        question: "§6.2 hash round unit: portable kernel vs the detected one, 16 KiB",
        arms,
    }
}

/// One encrypt and one decrypt arm of `cipher` in CBC over `size` bytes,
/// labelled `{op}_{arm}{suffix}`.
fn cbc_arms(
    timer: &Timer,
    arm: &str,
    suffix: &str,
    cipher: &dyn BlockCipher,
    size: usize,
) -> [Arm; 2] {
    let mut data = vec![0x42u8; size];
    let mut iv = vec![0u8; cipher.block_len()];
    let encrypt = timer.arm(format!("encrypt_{arm}{suffix}"), || {
        cipher.encrypt_cbc(&mut iv, black_box(&mut data));
    });
    let decrypt = timer.arm(format!("decrypt_{arm}{suffix}"), || {
        cipher.decrypt_cbc(&mut iv, black_box(&mut data));
    });
    [encrypt.bytes(size), decrypt.bytes(size)]
}

/// §6.2's round unit kept busy: CBC over one 16 KiB record one block at a
/// time through the trait's default (`per_block`) against the cipher's own
/// `encrypt_cbc`/`decrypt_cbc` — on AES-NI the fused kernel, chain held in
/// a register and eight decrypt blocks in flight; on the table backend the
/// same default, so its two arms are a control.
fn cbc_chain(timer: &Timer) -> Result<Ablation, ExperimentError> {
    let aes = Aes::new(&[8u8; 16])?;
    let suffix = format!("_{}", aes.backend_name());
    let per_block = PerBlock(aes.clone());
    let mut arms = Vec::new();
    arms.extend(cbc_arms(timer, "per_block", &suffix, &per_block, RECORD));
    arms.extend(cbc_arms(timer, "cbc", &suffix, &aes, RECORD));
    Ok(Ablation {
        name: "ablate_cbc_chain",
        question: "§6.2 round unit kept busy: AES-128-CBC per block vs the cipher's own, 16 KiB",
        arms,
    })
}

/// §6.2's two round units at once: a record's SHA-1 MAC update and its
/// AES-CBC encryption in turn (`sequential`) against one stitched pass
/// (`update_and_encrypt_cbc`, then `encrypt_cbc` on what it left), each
/// from the 7 bytes the 71-byte SSLv3 MAC prefix leaves buffered, on one
/// 16 KiB fragment and on 64 B, where no whole grain follows the buffered
/// block and nothing is stitched. Arms are labelled by the AES and SHA
/// backends; without both units the stitched arm runs the sequential
/// path, a control.
fn stitched_seal(timer: &Timer) -> Result<Ablation, ExperimentError> {
    let aes = Aes::new(&[8u8; 16])?;
    let mut primed = Sha1::new();
    primed.update(&[0x36; 71]);
    let label = format!("{}_{}", aes.backend_name(), primed.backend_name());
    let mut arms = Vec::new();
    for (size_name, size) in [("16k", RECORD), ("64b", 64)] {
        let mut data = vec![0x42u8; size];
        let mut iv = [0u8; 16];
        let sequential = timer.arm(format!("sequential_{size_name}_{label}"), || {
            let mut h = primed.clone();
            h.update(black_box(&data));
            aes.encrypt_cbc(&mut iv, &mut data);
            black_box(h.finalize());
        });
        let stitched = timer.arm(format!("stitched_{size_name}_{label}"), || {
            let mut h = primed.clone();
            let done = match aes.ni_encrypt_schedule() {
                Some(schedule) => h.update_and_encrypt_cbc(schedule, &mut iv, black_box(&mut data)),
                None => {
                    h.update(black_box(&data));
                    0
                }
            };
            aes.encrypt_cbc(&mut iv, &mut data[done..]);
            black_box(h.finalize());
        });
        arms.extend([sequential.bytes(size), stitched.bytes(size)]);
    }
    Ok(Ablation {
        name: "ablate_stitched_seal",
        question: "§6.2 two units at once: SHA-1 MAC then AES-CBC vs one stitched pass",
        arms,
    })
}

/// Table 11's slowest cipher with its CBC decrypt blocks two in flight:
/// 3DES-CBC one block at a time through the trait's default (`per_block`)
/// against `Des3`'s own `encrypt_cbc`/`decrypt_cbc` (`cbc`), on a 1 KiB
/// response and a 16 KiB record. Encryption chains, so its two arms differ
/// only by the word-level loop; decryption keeps two independent blocks
/// in flight.
fn des3_cbc(timer: &Timer) -> Result<Ablation, ExperimentError> {
    let key: Vec<u8> = (1..=24).collect();
    let des3 = Des3::new(&key)?;
    let per_block = PerBlock(des3.clone());
    let mut arms = Vec::new();
    for (size_name, size) in [("1k", 1024), ("16k", RECORD)] {
        let suffix = format!("_{size_name}");
        arms.extend(cbc_arms(timer, "per_block", &suffix, &per_block, size));
        arms.extend(cbc_arms(timer, "cbc", &suffix, &des3, size));
    }
    Ok(Ablation {
        name: "ablate_des3_cbc",
        question: "3DES-CBC per block vs two decrypt blocks in flight",
        arms,
    })
}

/// §6.2(3): the crypto-engine argument — MAC and encryption of a record
/// serially vs overlapped on two threads.
fn crypto_engine(timer: &Timer) -> Result<Ablation, ExperimentError> {
    let data = vec![0x42u8; RECORD];
    let secret = [0x2fu8; 20];
    let mac = || ssl3_mac::compute(HashAlg::Sha1, &secret, 1, 23, &data);
    let mut cbc = Cbc::new(Aes::new(&[8u8; 16])?, vec![0u8; 16])?;
    let serial = timer.arm("serial_mac_then_encrypt", || {
        let mut buf = data.clone();
        buf.extend_from_slice(&mac());
        buf.resize(buf.len().div_ceil(16) * 16, 0);
        black_box(cbc.encrypt(&mut buf).is_ok());
        black_box(buf);
    });
    let parallel = timer.arm("parallel_mac_and_encrypt", || {
        // The engine overlaps the MAC with the encryption of the data
        // part, then encrypts the trailing MAC and padding (Figure 6).
        let (tag, mut buf) = std::thread::scope(|s| {
            let mac_task = s.spawn(mac);
            let mut buf = data.clone();
            black_box(cbc.encrypt(&mut buf).is_ok());
            (mac_task.join().expect("the MAC thread does not panic"), buf)
        });
        let mut tail = tag;
        tail.resize(tail.len().div_ceil(16) * 16, 0);
        black_box(cbc.encrypt(&mut tail).is_ok());
        buf.extend_from_slice(&tail);
        black_box(buf);
    });
    Ok(Ablation {
        name: "ablate_crypto_engine",
        question: "§6.2(3) parallel engines: SHA-1 MAC and AES-CBC in turn vs on two threads",
        arms: vec![serial.bytes(RECORD), parallel.bytes(RECORD)],
    })
}

/// `(static instructions, fusable mov+ALU pairs)` of the simulated MD5 and
/// SHA-1 block operations.
fn three_operand_counts() -> [(usize, usize); 2] {
    let count =
        |program: sslperf_isasim::ir::Program| (program.len(), program.fusable_mov_alu_pairs());
    [count(kernels::md5::program()), count(kernels::sha1::program())]
}

/// §6.2(1): three-operand logical instructions — the `mov rd, rs ; alu
/// rd, x` pairs one instruction would replace in the hash block
/// operations (fully unrolled, so static equals dynamic).
fn three_operand(timer: &Timer) -> Ablation {
    let [md5, sha1] = three_operand_counts();
    let counted = |(len, pairs): (usize, usize)| {
        format!(
            "{len} instrs, {pairs} fusable mov+alu pairs ({:.1}% fewer)",
            pairs as f64 * 100.0 / len as f64
        )
    };
    let arms = vec![
        timer
            .arm("analyze_md5", || {
                black_box(kernels::md5::program().fusable_mov_alu_pairs());
            })
            .counted(counted(md5)),
        timer
            .arm("analyze_sha1", || {
                black_box(kernels::sha1::program().fusable_mov_alu_pairs());
            })
            .counted(counted(sha1)),
    ];
    Ablation {
        name: "ablate_three_operand",
        question: "§6.2(1) three-operand logical ops: fusable pairs in the hash kernels",
        arms,
    }
}

/// A plausibly shaped full-handshake ledger (cycle values in the range a
/// 1024-bit software handshake produces).
fn ledger() -> HandshakeLedger {
    HandshakeLedger {
        protocol: Protocol::Ssl3,
        resumed: false,
        steps: std::array::from_fn(|i| (SERVER_STEP_NAMES[i], Cycles::new(40_000 + i as u64))),
        total: Cycles::new(2_600_000),
        crypto: Cycles::new(2_300_000),
        in_call: Cycles::new(700_000),
        kx_queue_wait: Cycles::new(90_000),
        kx_exec: Cycles::new(1_900_000),
        ticket_issued: false,
        ticket_accepted: false,
        ticket_rejected: false,
        ticket_expired: false,
    }
}

/// The registry's recording budget (§3b Metrics): the per-record calls
/// every serving loop makes on every transaction, the per-handshake ledger
/// ingestion, and, on the exposition path only, a snapshot of the registry
/// those arms filled and its rendering.
fn metrics(timer: &Timer) -> [Ablation; 3] {
    let stats = ServerStats::default();
    let record = timer.arm("open+seal+response", || {
        stats.note_record_open(black_box(1024), Cycles::new(30_000), Cycles::new(24_000));
        stats.note_record_seal(black_box(1024), Cycles::new(31_000), Cycles::new(25_000));
        stats.note_response(Cycles::new(4_000));
    });
    let full = ledger();
    let resumed = HandshakeLedger { resumed: true, ..ledger() };
    let handshake = vec![
        timer.arm("full_ledger", || stats.note_handshake(black_box(&full))),
        timer.arm("resumed_ledger", || stats.note_handshake(black_box(&resumed))),
    ];
    let snapshot = stats.snapshot();
    let exposition = vec![
        timer.arm("snapshot", || {
            black_box(stats.snapshot());
        }),
        timer.arm("render", || {
            black_box(snapshot.render());
        }),
    ];
    [
        Ablation {
            name: "metrics/record",
            question: "registry cost on the record path, per transaction",
            arms: vec![record],
        },
        Ablation {
            name: "metrics/handshake",
            question: "registry cost per handshake ledger",
            arms: handshake,
        },
        Ablation {
            name: "metrics/exposition",
            question: "registry snapshot and /metrics rendering",
            arms: exposition,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;

    /// Montgomery multiplies on the window ladder, whichever of the u64 or
    /// u32 kernels the limb width picked.
    fn multiplies(snap: &Snapshot) -> u64 {
        snap.calls("mont_mul64") + snap.calls("BN_mul")
    }

    /// Every product a Montgomery kernel booked.
    fn products(snap: &Snapshot) -> u64 {
        ["mont_mul64", "mont_sqr64", "amm52x10_x2", "BN_mul", "BN_sqr"]
            .iter()
            .map(|name| snap.calls(name))
            .sum()
    }

    #[test]
    fn wider_window_books_fewer_multiplies() {
        let key = ctx().key_1024();
        let base = Bn::from_u64(0xdead_beef_cafe_babe);
        for limbs in [LimbWidth::U64, LimbWidth::U32] {
            let mont = MontCtx::with_limb_width(key.modulus(), limbs).expect("odd modulus");
            let (windows, plain) = window_counts(&mont, &base, key.exponent());
            assert!(
                multiplies(&windows[3]) < multiplies(&windows[0]),
                "window 4 {} vs window 1 {}",
                bignum_calls(&windows[3]),
                bignum_calls(&windows[0])
            );
            // The plain path multiplies and divides; it never reduces in
            // Montgomery form.
            assert_eq!(plain.calls("BN_from_montgomery") + plain.calls("mont_sqr64"), 0);
            assert!(plain.calls("BN_div") > 0, "{}", bignum_calls(&plain));
        }
    }

    #[test]
    fn comb_books_fewer_products_than_the_ladder() {
        for limbs in [LimbWidth::U64, LimbWidth::U32] {
            let [ladder, comb] = Ffdhe2048::new(limbs).expect("ffdhe2048").counts();
            assert!(
                products(&comb) > 0 && products(&comb) < products(&ladder),
                "comb {} vs ladder {}",
                bignum_calls(&comb),
                bignum_calls(&ladder)
            );
        }
    }

    #[test]
    fn resumed_handshake_books_no_rsa_private_op() {
        // A config of its own: other tests clear the shared context's cache.
        let config =
            ServerConfig::new(ctx().key_512().clone(), "ablations.sslperf.test").expect("config");
        let ([full, resumed], _) =
            resume_counts(&config, CipherSuite::RsaDesCbc3Sha).expect("handshakes");
        assert_eq!(full, (false, 1), "(ledger resumed, rsa_private_op) of the full handshake");
        assert_eq!(resumed, (true, 0), "(ledger resumed, rsa_private_op) of the resumed one");
    }

    #[test]
    fn hash_kernels_have_fusable_pairs() {
        for (len, pairs) in three_operand_counts() {
            assert!(pairs > 0 && pairs < len, "{pairs} fusable pairs of {len} instructions");
        }
    }

    #[test]
    fn every_group_renders_every_arm() {
        let ctx = Context::quick();
        let report = ablations(&ctx).expect("ablations");
        let rendered = report.to_string();
        assert_eq!(report.groups.len(), 15);
        for group in &report.groups {
            assert!(rendered.contains(group.name), "{} missing", group.name);
            for arm in &group.arms {
                assert!(rendered.contains(&arm.name), "{}/{} missing", group.name, arm.name);
                assert!(arm.time.q1 <= arm.time.median && arm.time.median <= arm.time.q3);
            }
        }
    }
}
