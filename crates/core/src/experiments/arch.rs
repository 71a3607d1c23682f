//! Tables 9, 11 and 12: architectural characteristics of the crypto
//! operations, via the ISA simulator plus native throughput measurement.

use crate::experiments::ExperimentError;
use crate::Context;
use sslperf_ciphers::{Aes, BlockCipher, Des, Des3, Rc4};
use sslperf_hashes::{Md5, Sha1};
use sslperf_isasim::{kernels, InstrMix, RunStats};
use sslperf_profile::{black_box, counters, measure_min, Align, PhaseSet, Table, REF_HZ};
use std::fmt;

/// The algorithms of Tables 11 and 12, in paper column order.
pub const ALGORITHMS: [&str; 7] = ["AES", "DES", "3DES", "RC4", "RSA", "MD5", "SHA-1"];

/// Table 9: the instruction body of `bn_mul_add_words`.
#[derive(Debug)]
pub struct Table9 {
    /// The assembly listing.
    pub listing: String,
}

impl fmt::Display for Table9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 9. Instructions in bn_mul_add_words()")?;
        writeln!(f, "===========================================")?;
        write!(f, "{}", self.listing)
    }
}

/// Produces Table 9 from the IR kernel (identical to the paper's listing).
#[must_use]
pub fn table9() -> Table9 {
    Table9 { listing: kernels::bn::table9_body().listing() }
}

/// One algorithm's Table 11 row.
#[derive(Debug, Clone)]
pub struct ArchRow {
    /// Algorithm name.
    pub name: &'static str,
    /// Cycles per instruction (ISA cost model).
    pub cpi: f64,
    /// Instructions per processed byte (ISA simulation).
    pub path_length: f64,
    /// Measured native throughput in MB/s at the reference frequency.
    pub throughput_mbps: f64,
    /// The dynamic instruction mix (feeds Table 12).
    pub mix: InstrMix,
}

/// Table 11: CPI, path length and throughput per algorithm.
#[derive(Debug)]
pub struct Table11 {
    /// One row per algorithm, in [`ALGORITHMS`] order.
    pub rows: Vec<ArchRow>,
}

impl Table11 {
    /// Finds a row by algorithm name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&ArchRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for Table11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 11. Characteristics for crypto operations");
        let mut cols = vec![("Metric", Align::Left)];
        for name in ALGORITHMS {
            cols.push((name, Align::Right));
        }
        t.columns(&cols);
        let by_name = |name: &str| self.row(name).expect("all rows present");
        let mut cpi_row = vec!["CPI (model)".to_owned()];
        let mut pl_row = vec!["Path length (instr/byte)".to_owned()];
        let mut tp_row = vec!["Throughput (MB/s)".to_owned()];
        for name in ALGORITHMS {
            let r = by_name(name);
            cpi_row.push(format!("{:.2}", r.cpi));
            pl_row.push(if r.path_length >= 1000.0 {
                format!("{:.0}", r.path_length)
            } else {
                format!("{:.1}", r.path_length)
            });
            tp_row.push(if r.throughput_mbps < 1.0 {
                format!("{:.3}", r.throughput_mbps)
            } else {
                format!("{:.1}", r.throughput_mbps)
            });
        }
        t.row(&cpi_row);
        t.row(&pl_row);
        t.row(&tp_row);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: CPI 0.52–0.77; path length AES 50 < DES 69 < 3DES 194,\n\
             RSA 61457, hashes 12–14; throughput RC4 > MD5 > SHA-1 > AES > DES > 3DES ≫ RSA."
        )
    }
}

fn throughput(bytes: usize, cycles: u64) -> f64 {
    // MB/s at the reference clock: bytes / (cycles / REF_HZ) / 1e6.
    bytes as f64 * REF_HZ / cycles as f64 / 1e6
}

fn native_bulk_throughput(ctx: &Context, name: &str) -> Result<f64, ExperimentError> {
    let s = (ctx.iterations() as u32).clamp(2, 8);
    let size = 64 * 1024;
    let mut buf = vec![0x42u8; size];
    let cycles = match name {
        "AES" => {
            let aes = Aes::new(&[7u8; 16])?;
            measure_min(s, 1, || {
                for b in buf.chunks_exact_mut(16) {
                    aes.encrypt_block(b);
                }
            })
        }
        "DES" => {
            let des = Des::new(&[7u8; 8])?;
            measure_min(s, 1, || {
                for b in buf.chunks_exact_mut(8) {
                    des.encrypt_block(b);
                }
            })
        }
        "3DES" => {
            let des3 = Des3::new(&[7u8; 24])?;
            measure_min(s, 1, || {
                for b in buf.chunks_exact_mut(8) {
                    des3.encrypt_block(b);
                }
            })
        }
        "RC4" => {
            let mut rc4 = Rc4::new(&[7u8; 16])?;
            measure_min(s, 1, || {
                rc4.process(&mut buf);
            })
        }
        "MD5" => measure_min(s, 1, || {
            black_box(Md5::digest(&buf));
        }),
        // Pinned to the portable kernel for the reason `rsa_arch_row` pins
        // u32 limbs: Table 11 reconstructs the paper's software profile
        // (the row's path length and CPI come from simulating the scalar
        // 80-step loop), and on the SHA unit this row would outrun MD5 and
        // measure an instruction the model does not price.
        "SHA-1" => measure_min(s, 1, || {
            let mut h = Sha1::portable();
            h.update(&buf);
            black_box(h.finalize());
        }),
        _ => unreachable!("RSA handled separately"),
    };
    Ok(throughput(size, cycles.get()))
}

/// Builds the composite RSA instruction profile: counts the word-kernel
/// calls of a real 1024-bit decryption, then prices each kernel with a
/// linear model fitted from two IR simulations (setup + per-word cost).
fn rsa_arch_row(ctx: &Context) -> Result<ArchRow, ExperimentError> {
    // Table 11 reconstructs the paper's 32-bit x86 profile (path length
    // 61457 instr/byte comes from the u32 word kernels), so the counted
    // decryption is pinned to the u32 limb width like Table 8 — the u64
    // serving default would route the work through kernels this model
    // does not price. The clone also gives the run a fresh blinding
    // cache, keeping the counted call profile deterministic.
    let mut key = ctx.key_1024().clone();
    key.set_limb_width(sslperf_bignum::LimbWidth::U32);
    let key = &key;
    let mut rng = ctx.rng("arch-rsa");
    let cipher = key.public_key().encrypt_pkcs1(b"probe", &mut rng)?;
    let mut scratch = PhaseSet::new();
    let mut rng2 = ctx.rng("arch-rsa-run");
    let (counted, snap) =
        counters::counted(|| key.decrypt_instrumented(&cipher, &mut rng2, &mut scratch));
    counted?;

    let mut total = RunStats::default();
    // Linear model per kernel: stats(n words) = setup + n * per_word.
    let fit = |large: &RunStats, small: &RunStats, lw: u64, sw: u64| -> (f64, f64) {
        let per_word = (large.instructions - small.instructions) as f64 / (lw - sw) as f64;
        let setup = small.instructions as f64 - sw as f64 * per_word;
        (setup.max(0.0), per_word)
    };
    let a32: Vec<u32> = (0..32u32).map(|i| i.wrapping_mul(0x9e37_79b9) | 1).collect();
    let a4: Vec<u32> = a32[..4].to_vec();
    let r32 = vec![0x5aa5_a55au32; 32];
    let r4 = r32[..4].to_vec();

    let mut account = |name: &str, large: RunStats, small: RunStats, lw: u64, sw: u64| {
        let calls = snap.calls(name);
        let units = snap.units(name);
        if calls == 0 {
            return;
        }
        let (setup, per_word) = fit(&large, &small, lw, sw);
        let instructions = setup * calls as f64 + per_word * units as f64;
        // Scale the large run's stats (mix and cycles) to the computed
        // instruction total — the mix shape is word-loop dominated.
        let factor = instructions / large.instructions as f64;
        let mut scaled = large;
        scaled.instructions = instructions.round() as u64;
        scaled.cycles *= factor;
        // Rescale the histogram.
        let mut mix = InstrMix::new();
        for (mnemonic, count) in scaled.mix.iter() {
            mix.record_n(mnemonic, (count as f64 * factor).round() as u64);
        }
        scaled.mix = mix;
        total.merge(&scaled);
    };

    let (ma_large, _, _) = kernels::bn::simulate_mul_add(&r32, &a32, 0x1234_5677);
    let (ma_small, _, _) = kernels::bn::simulate_mul_add(&r4, &a4, 0x1234_5677);
    account("bn_mul_add_words", ma_large.stats, ma_small.stats, 32, 4);
    let (sub_large, _, _) = kernels::bn::simulate_sub(&a32, &r32);
    let (sub_small, _, _) = kernels::bn::simulate_sub(&a4, &r4);
    account("bn_sub_words", sub_large.stats, sub_small.stats, 32, 4);
    let (add_large, _, _) = kernels::bn::simulate_add(&a32, &r32);
    let (add_small, _, _) = kernels::bn::simulate_add(&a4, &r4);
    account("bn_add_words", add_large.stats, add_small.stats, 32, 4);

    // Native throughput: decrypt the 128-byte ciphertext.
    let s = (ctx.iterations() as u32).clamp(2, 6);
    let cycles = measure_min(s, 1, || {
        black_box(key.decrypt_pkcs1(&cipher)).ok();
    });
    let bytes = key.modulus_bytes();
    Ok(ArchRow {
        name: "RSA",
        cpi: total.cpi(),
        path_length: total.instructions as f64 / bytes as f64,
        throughput_mbps: throughput(bytes, cycles.get()),
        mix: total.mix,
    })
}

/// Runs the Table 11 experiment.
///
/// # Errors
///
/// Propagates cipher construction and RSA failures.
pub fn table11(ctx: &Context) -> Result<Table11, ExperimentError> {
    let mut rows = Vec::new();
    // Symmetric and hash kernels: simulate enough payload for stable rates.
    let aes = kernels::aes::simulate(8);
    rows.push(ArchRow {
        name: "AES",
        cpi: aes.cpi(),
        path_length: aes.instructions as f64 / (8.0 * 16.0),
        throughput_mbps: native_bulk_throughput(ctx, "AES")?,
        mix: aes.mix,
    });
    let des = kernels::des::simulate_des(8);
    rows.push(ArchRow {
        name: "DES",
        cpi: des.cpi(),
        path_length: des.instructions as f64 / (8.0 * 8.0),
        throughput_mbps: native_bulk_throughput(ctx, "DES")?,
        mix: des.mix,
    });
    let des3 = kernels::des::simulate_des3(8);
    rows.push(ArchRow {
        name: "3DES",
        cpi: des3.cpi(),
        path_length: des3.instructions as f64 / (8.0 * 8.0),
        throughput_mbps: native_bulk_throughput(ctx, "3DES")?,
        mix: des3.mix,
    });
    let rc4 = kernels::rc4::simulate(b"archkey", 512);
    rows.push(ArchRow {
        name: "RC4",
        cpi: rc4.cpi(),
        path_length: rc4.instructions as f64 / 512.0,
        throughput_mbps: native_bulk_throughput(ctx, "RC4")?,
        mix: rc4.mix,
    });
    rows.push(rsa_arch_row(ctx)?);
    let md5 = kernels::md5::simulate(8);
    rows.push(ArchRow {
        name: "MD5",
        cpi: md5.cpi(),
        path_length: md5.instructions as f64 / (8.0 * 64.0),
        throughput_mbps: native_bulk_throughput(ctx, "MD5")?,
        mix: md5.mix,
    });
    let sha1 = kernels::sha1::simulate(8);
    rows.push(ArchRow {
        name: "SHA-1",
        cpi: sha1.cpi(),
        path_length: sha1.instructions as f64 / (8.0 * 64.0),
        throughput_mbps: native_bulk_throughput(ctx, "SHA-1")?,
        mix: sha1.mix,
    });
    // Keep paper column order.
    let order = |name: &str| ALGORITHMS.iter().position(|n| *n == name).unwrap_or(usize::MAX);
    rows.sort_by_key(|r| order(r.name));
    Ok(Table11 { rows })
}

/// Table 12: the top-ten dynamic instructions per algorithm.
#[derive(Debug)]
pub struct Table12 {
    /// Reuses the Table 11 rows (mix field).
    pub rows: Vec<ArchRow>,
}

impl Table12 {
    /// The top-ten mix for one algorithm.
    #[must_use]
    pub fn top_ten(&self, name: &str) -> Vec<(&'static str, f64)> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.mix.top(10)).unwrap_or_default()
    }
}

impl fmt::Display for Table12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 12. Top ten instructions for crypto operations (%)");
        let mut cols = vec![("#", Align::Right)];
        for name in ALGORITHMS {
            cols.push((name, Align::Left));
        }
        t.columns(&cols);
        let tops: Vec<Vec<(&str, f64)>> =
            ALGORITHMS.iter().map(|name| self.top_ten(name)).collect();
        for rank in 0..10 {
            let mut row = vec![format!("{}", rank + 1)];
            for top in &tops {
                row.push(top.get(rank).map_or_else(String::new, |(m, p)| format!("{m} {p:.1}")));
            }
            t.row(&row);
        }
        let mut totals = vec!["Σ".to_owned()];
        for top in &tops {
            let sum: f64 = top.iter().map(|(_, p)| p).sum();
            totals.push(format!("{sum:.1}"));
        }
        t.row(&totals);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: movl tops every column except DES/3DES (xorl); RSA is\n\
             addl/adcl/mull-heavy; SHA-1 shows bswap."
        )
    }
}

/// Runs the Table 12 experiment (shares the Table 11 simulations).
///
/// # Errors
///
/// Propagates cipher construction and RSA failures.
pub fn table12(ctx: &Context) -> Result<Table12, ExperimentError> {
    Ok(Table12 { rows: table11(ctx)?.rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;

    #[test]
    fn table9_matches_paper_listing() {
        let t9 = table9();
        for fragment in ["movl 0x8(%ebx), %eax", "mull %ebp", "adcl $0x0, %edx", "movl %edx, %esi"]
        {
            assert!(t9.listing.contains(fragment), "missing {fragment}:\n{}", t9.listing);
        }
        assert!(t9.to_string().contains("Table 9"));
    }

    #[test]
    fn table11_path_length_ordering() {
        let _serial = crate::test_ctx::timing_lock();
        let t11 = table11(ctx()).expect("table11");
        let pl = |n: &str| t11.row(n).expect("row").path_length;
        assert!(pl("AES") < pl("DES"), "AES shorter than DES per byte");
        assert!(pl("DES") < pl("3DES"), "DES shorter than 3DES");
        assert!(pl("RSA") > 1000.0, "RSA path length is thousands of instr/byte");
        assert!(pl("MD5") < pl("SHA-1"), "MD5 is the shortest hash");
    }

    #[test]
    fn table11_throughput_ordering() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t11 = table11(ctx()).expect("table11");
                let tp = |n: &str| t11.row(n).expect("row").throughput_mbps;
                tp("RC4") > tp("3DES")
                    && tp("AES") > tp("3DES")
                    && tp("MD5") > tp("SHA-1")
                    && tp("RSA") < 5.0
            }),
            "throughput ordering: RC4 > 3DES, AES > 3DES, MD5 > SHA-1, RSA tiny"
        );
    }

    #[test]
    fn table11_cpi_range_sane() {
        let _serial = crate::test_ctx::timing_lock();
        let t11 = table11(ctx()).expect("table11");
        for row in &t11.rows {
            assert!(
                (0.3..2.5).contains(&row.cpi),
                "{}: CPI {} outside plausible band",
                row.name,
                row.cpi
            );
        }
        // RSA has the worst CPI (multiplier-bound), as in the paper.
        let rsa = t11.row("RSA").expect("row").cpi;
        let md5 = t11.row("MD5").expect("row").cpi;
        assert!(rsa > md5, "RSA CPI {rsa} must exceed MD5 {md5}");
    }

    #[test]
    fn table12_column_leaders() {
        let _serial = crate::test_ctx::timing_lock();
        let t12 = table12(ctx()).expect("table12");
        assert_eq!(t12.top_ten("RC4")[0].0, "movl");
        assert_eq!(t12.top_ten("AES")[0].0, "movl");
        let des_top = t12.top_ten("DES")[0].0;
        assert!(des_top == "xorl" || des_top == "movl", "DES leader {des_top}");
        let rsa_top: Vec<&str> = t12.top_ten("RSA").iter().map(|(m, _)| *m).collect();
        assert!(rsa_top.contains(&"adcl"), "RSA carries: {rsa_top:?}");
        assert!(rsa_top.contains(&"mull"), "RSA multiplies: {rsa_top:?}");
        let sha_top: Vec<&str> = t12.top_ten("SHA-1").iter().map(|(m, _)| *m).collect();
        assert!(sha_top.contains(&"bswap"), "SHA-1 big-endian loads: {sha_top:?}");
        assert!(t12.to_string().contains("Table 12"));
    }
}
