//! Tables 7 and 8: the anatomy of RSA decryption.

use crate::experiments::{pct, ExperimentError};
use crate::Context;
use sslperf_bignum::words::{bn_add_words, bn_mul_add_words, bn_mul_words, bn_sub_words};
use sslperf_profile::{black_box, counters, measure_min, Align, PhaseSet, Table};
use sslperf_rsa::{RsaPrivateKey, STEP_NAMES};
use std::fmt;

pub use sslperf_rsa::STEP_NAMES as TABLE7_STEPS;

/// The paper's Table 7 percentages for the computation step.
pub const PAPER_COMPUTATION_PERCENT: (f64, f64) = (97.01, 98.85);

/// Per-step RSA decryption breakdown at two key sizes.
#[derive(Debug)]
pub struct Table7 {
    /// Accumulated steps for the 512-bit key.
    pub steps_512: PhaseSet,
    /// Accumulated steps for the 1024-bit key.
    pub steps_1024: PhaseSet,
    /// Decryptions accumulated per key.
    pub runs: usize,
}

impl Table7 {
    /// The computation step's share for the 1024-bit key (paper: 98.85%).
    #[must_use]
    pub fn computation_percent_1024(&self) -> f64 {
        self.steps_1024.percent("computation")
    }
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&format!(
            "Table 7. Execution time breakdown for RSA decryption (avg over {} runs)",
            self.runs
        ));
        t.columns(&[
            ("Step", Align::Right),
            ("Functionality", Align::Left),
            ("512b cycles", Align::Right),
            ("512b %", Align::Right),
            ("1024b cycles", Align::Right),
            ("1024b %", Align::Right),
        ]);
        let n = self.runs.max(1) as u64;
        for (i, name) in STEP_NAMES.iter().enumerate() {
            t.row(&[
                &(i + 1).to_string(),
                *name,
                &(self.steps_512.cycles(name).get() / n).to_string(),
                &pct(self.steps_512.percent(name)),
                &(self.steps_1024.cycles(name).get() / n).to_string(),
                &pct(self.steps_1024.percent(name)),
            ]);
        }
        t.row(&[
            "",
            "Total",
            &(self.steps_512.total().get() / n).to_string(),
            "100",
            &(self.steps_1024.total().get() / n).to_string(),
            "100",
        ]);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: computation {}% (512b) and {}% (1024b).",
            PAPER_COMPUTATION_PERCENT.0, PAPER_COMPUTATION_PERCENT.1
        )
    }
}

fn accumulate_steps(
    ctx: &Context,
    key: &RsaPrivateKey,
    label: &str,
    runs: usize,
) -> Result<PhaseSet, ExperimentError> {
    let mut rng = ctx.rng(&format!("table7-{label}"));
    let mut steps = PhaseSet::new();
    let message = b"pre-master secret for the RSA decryption anatomy experiment!!!";
    let cipher = key.public_key().encrypt_pkcs1(&message[..32], &mut rng)?;
    // Warm the key's blinding cache so the measurement reflects the steady
    // state the paper profiles (OpenSSL creates blinding once per key).
    let mut warmup = PhaseSet::new();
    let _ = key.decrypt_instrumented(&cipher, &mut rng, &mut warmup);
    for _ in 0..runs {
        let plain = key.decrypt_instrumented(&cipher, &mut rng, &mut steps)?;
        debug_assert_eq!(plain, &message[..32]);
    }
    Ok(steps)
}

/// Runs the Table 7 experiment on the context's 512- and 1024-bit keys.
///
/// # Errors
///
/// Propagates RSA failures from the measured decryptions.
pub fn table7(ctx: &Context) -> Result<Table7, ExperimentError> {
    let runs = ctx.iterations().max(3);
    Ok(Table7 {
        steps_512: accumulate_steps(ctx, ctx.key_512(), "512", runs)?,
        steps_1024: accumulate_steps(ctx, ctx.key_1024(), "1024", runs)?,
        runs,
    })
}

/// Per-function attribution of an RSA decryption (the paper's Table 8).
#[derive(Debug)]
pub struct Table8 {
    /// `(function, attributed cycles, percent of total)`, descending.
    pub rows: Vec<(String, f64, f64)>,
    /// Total decryption cycles the attribution was normalized to.
    pub total_cycles: f64,
}

impl Table8 {
    /// The percentage attributed to one function (0.0 if absent).
    #[must_use]
    pub fn percent(&self, function: &str) -> f64 {
        self.rows.iter().find(|(n, _, _)| n == function).map_or(0.0, |(_, _, p)| *p)
    }
}

impl fmt::Display for Table8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 8. Top functions in RSA decryption (1024-bit key)");
        t.columns(&[("Function", Align::Left), ("%", Align::Right)]);
        for (name, _, percent) in self.rows.iter().take(10) {
            t.row(&[name.as_str(), &pct(*percent)]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: bn_mul_add_words 47.0%, bn_sub_words 22.6%,\n\
             BN_from_montgomery 9.5%, bn_add_words 4.9%."
        )
    }
}

/// Measured per-word cycle costs of the leaf word kernels and the glue
/// around them.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// `bn_mul_add_words` cycles per word.
    pub mul_add: f64,
    /// `bn_mul_words` cycles per word.
    pub mul: f64,
    /// `bn_add_words` cycles per word.
    pub add: f64,
    /// `bn_sub_words` cycles per word.
    pub sub: f64,
    /// `BN_mul` *exclusive* cycles per word: the schoolbook driver's loop,
    /// carry stores and allocation beyond the inner word kernel.
    pub mul_glue: f64,
    /// `BN_from_montgomery` exclusive cycles per word: the reduction
    /// driver's carry ripple, compare and conditional final subtract.
    pub redc_glue: f64,
}

/// Calibrates the leaf kernels (direct measurement on 32-word operands)
/// and the wrapper glue (whole-operation measurement minus the attributed
/// inner-kernel time — the inclusive/exclusive split a sampling profiler
/// performs).
///
/// # Errors
///
/// Propagates bignum failures from the Montgomery setup.
pub fn calibrate(ctx: &Context) -> Result<KernelCosts, ExperimentError> {
    const WORDS: usize = 32;
    let a: Vec<u32> = (0..WORDS as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let b: Vec<u32> = (0..WORDS as u32).map(|i| i.wrapping_mul(0x85eb_ca6b)).collect();
    let mut r = vec![0u32; WORDS];
    let per_word = |cycles: u64| cycles as f64 / WORDS as f64;
    let mul_add = per_word(
        measure_min(5, 500, || {
            black_box(bn_mul_add_words(&mut r, &a, 0x1234_5677));
        })
        .get(),
    );
    let mul = per_word(
        measure_min(5, 500, || {
            black_box(bn_mul_words(&mut r, &a, 0x1234_5677));
        })
        .get(),
    );
    let add = per_word(
        measure_min(5, 500, || {
            black_box(bn_add_words(&mut r, &a, &b));
        })
        .get(),
    );
    let sub = per_word(
        measure_min(5, 500, || {
            black_box(bn_sub_words(&mut r, &b, &a));
        })
        .get(),
    );
    // BN_mul exclusive: a 32×32 product runs 32 bn_mul_add_words calls of
    // 32 words each; everything beyond that is the driver's own work.
    let x = sslperf_bignum::Bn::from_words(&a);
    let y = sslperf_bignum::Bn::from_words(&b);
    let mul_total = measure_min(5, 200, || {
        black_box(x.mul(&y));
    })
    .get() as f64;
    let mul_glue = (mul_total - (WORDS * WORDS) as f64 * mul_add).max(0.0) / WORDS as f64;

    // BN_from_montgomery exclusive: one reduction mod the 1024-bit modulus
    // runs 32 inner bn_mul_add_words passes of 32 words. Calibrated on the
    // u32 kernels — the family Table 8 attributes.
    let mont = sslperf_bignum::MontCtx::with_limb_width(
        ctx.key_1024().modulus(),
        sslperf_bignum::LimbWidth::U32,
    )?;
    let v = sslperf_bignum::Bn::from_words(&a);
    let redc_total = measure_min(5, 200, || {
        black_box(mont.from_mont(&v));
    })
    .get() as f64;
    let redc_glue = (redc_total - (WORDS * WORDS) as f64 * mul_add).max(0.0) / WORDS as f64;

    Ok(KernelCosts { mul_add, mul, add, sub, mul_glue, redc_glue })
}

/// Runs the Table 8 experiment: counts every bignum function during a real
/// 1024-bit decryption, prices the leaf word kernels with [`calibrate`],
/// prices wrapper functions at a measured per-call overhead, and normalizes
/// against the measured total.
///
/// # Errors
///
/// Propagates RSA failures from the measured decryptions.
pub fn table8(ctx: &Context) -> Result<Table8, ExperimentError> {
    // Table 8 reconstructs the paper's VTune profile of 32-bit x86 OpenSSL,
    // so the experiment always runs on the paper-faithful u32 kernels —
    // not on the u64 limbs the serving paths use.
    let mut key = ctx.key_1024().clone();
    key.set_limb_width(sslperf_bignum::LimbWidth::U32);
    let key = &key;
    let mut rng = ctx.rng("table8");
    let cipher = key.public_key().encrypt_pkcs1(b"table8 probe message", &mut rng)?;

    // Count one decryption (counting overhead does not matter here).
    let mut scratch = PhaseSet::new();
    let mut rng2 = ctx.rng("table8-run");
    let (counted, snapshot) =
        counters::counted(|| key.decrypt_instrumented(&cipher, &mut rng2, &mut scratch));
    counted?;

    // Time one decryption without counting.
    let rng3 = ctx.rng("table8-run"); // same seed → same blinding path
    let total = measure_min(3, 1, || {
        let mut phases = PhaseSet::new();
        black_box(key.decrypt_instrumented(&cipher, &mut rng3.clone(), &mut phases)).ok();
    })
    .get() as f64;

    let costs = calibrate(ctx)?;
    // Per-call overhead for thin wrappers (allocation + bookkeeping),
    // measured as the cost of cloning a 32-word vector.
    let wrapper_call = {
        let v = vec![0u32; 32];
        measure_min(5, 1000, || {
            black_box(v.clone());
        })
        .get() as f64
    };

    let mut rows: Vec<(String, f64)> = Vec::new();
    let leaf = |name: &str, per_unit: f64, rows: &mut Vec<(String, f64)>| {
        let units = snapshot.units(name) as f64;
        if units > 0.0 {
            rows.push((name.to_owned(), units * per_unit));
        }
    };
    leaf("bn_mul_add_words", costs.mul_add, &mut rows);
    leaf("bn_mul_words", costs.mul, &mut rows);
    leaf("bn_add_words", costs.add, &mut rows);
    leaf("bn_sub_words", costs.sub, &mut rows);
    // Glue-bearing drivers, priced at their measured exclusive per-word cost.
    leaf("BN_mul", costs.mul_glue, &mut rows);
    leaf("BN_from_montgomery", costs.redc_glue, &mut rows);
    let mut attributed: f64 = rows.iter().map(|(_, c)| c).sum();
    // Thin wrapper functions: counted calls × measured per-call overhead.
    for wrapper in [
        "BN_usub",
        "BN_copy",
        "BN_sqr",
        "BN_div",
        "BN_mod_exp",
        "BN_CTX_start",
        "OPENSSL_cleanse",
        "blinding_setup",
        "blinding_convert",
        "rsa_private_op",
        "pkcs1_parse",
    ] {
        let calls = snapshot.calls(wrapper) as f64;
        if calls > 0.0 {
            let cycles = calls * wrapper_call;
            attributed += cycles;
            rows.push((wrapper.to_owned(), cycles));
        }
    }
    // Anything unattributed (loop overheads, carries, allocator) is real
    // time the profiler would spread over callers; report it explicitly.
    let remainder = (total - attributed).max(0.0);
    rows.push(("(unattributed)".to_owned(), remainder));
    let denom: f64 = total.max(attributed);
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let rows = rows
        .into_iter()
        .map(|(name, cycles)| {
            let percent = cycles * 100.0 / denom;
            (name, cycles, percent)
        })
        .collect();
    Ok(Table8 { rows, total_cycles: denom })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;

    #[test]
    fn table7_computation_dominates_both_keys() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t7 = table7(ctx()).expect("table7");
                // The larger key must also cost more in absolute cycles.
                t7.steps_512.percent("computation") > 50.0
                    && t7.computation_percent_1024() > 60.0
                    && t7.steps_1024.cycles("computation") > t7.steps_512.cycles("computation")
            }),
            "the computation step must dominate at both key sizes"
        );
        assert!(table7(ctx()).expect("table7").to_string().contains("data_to_bn"));
    }

    #[test]
    fn calibration_orders_kernels_sensibly() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let c = calibrate(ctx()).expect("calibrate");
                // Noise margin: mul-add must never be dramatically cheaper
                // than a plain add.
                c.mul_add > 0.0 && c.sub > 0.0 && c.mul_add > c.add * 0.5
            }),
            "multiply-accumulate must not be dramatically cheaper than plain add"
        );
    }

    #[test]
    fn table8_mul_add_words_on_top() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t8 = table8(ctx()).expect("table8");
                let top_real = t8
                    .rows
                    .iter()
                    .find(|(n, _, _)| n != "(unattributed)")
                    .expect("at least one attributed row");
                top_real.0 == "bn_mul_add_words" && t8.percent("bn_mul_add_words") > 20.0
            }),
            "bn_mul_add_words must top the attribution"
        );
        assert!(table8(ctx()).expect("table8").to_string().contains("bn_mul_add_words"));
    }
}
