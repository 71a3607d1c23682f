//! Figure 3 and Tables 4–6: the anatomy of the symmetric ciphers.

use crate::experiments::{pct, ExperimentError};
use crate::Context;
use sslperf_ciphers::characteristics::{characteristics, Algorithm};
use sslperf_ciphers::{Aes, AesBackend, BlockCipher, Des, Des3, Rc4};
use sslperf_profile::{black_box, measure_min, Align, Table};
use std::fmt;

/// Data sizes for Figure 3 (bytes).
pub const FIG3_SIZES: [usize; 6] = [1024, 2048, 4096, 8192, 16_384, 32_768];

fn samples(ctx: &Context) -> u32 {
    (ctx.iterations() as u32).clamp(2, 10)
}

/// Key-setup share of an encryption operation at several data sizes.
#[derive(Debug)]
pub struct Fig3 {
    /// `(algorithm, data size, key-setup percent)` points.
    pub points: Vec<(Algorithm, usize, f64)>,
}

impl Fig3 {
    /// The key-setup share for one `(algorithm, size)` pair, if measured.
    #[must_use]
    pub fn setup_percent(&self, alg: Algorithm, size: usize) -> Option<f64> {
        self.points.iter().find(|(a, s, _)| *a == alg && *s == size).map(|(_, _, p)| *p)
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Figure 3. Key setup share of encryption vs data size (%)");
        let mut cols = vec![("Size (KB)".to_owned(), Align::Right)];
        for alg in Algorithm::ALL {
            cols.push((alg.name().to_owned(), Align::Right));
        }
        let col_refs: Vec<(&str, Align)> = cols.iter().map(|(n, a)| (n.as_str(), *a)).collect();
        t.columns(&col_refs);
        for &size in &FIG3_SIZES {
            let mut row = vec![format!("{}", size / 1024)];
            for alg in Algorithm::ALL {
                row.push(self.setup_percent(alg, size).map_or_else(String::new, pct));
            }
            t.row(&row);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: RC4 ≈ 28.5% at 1 KB (big state-table init), block ciphers\n\
             1.0–3.6% at 1 KB; all fall below ~5% by 8 KB."
        )
    }
}

/// Measures the cheapest stable cost of a key setup and of encrypting
/// `size` bytes, returning setup/(setup+kernel) in percent. AES runs on the
/// table rounds, the paper's kernel, whatever round unit the CPU has.
fn setup_share(ctx: &Context, alg: Algorithm, size: usize) -> Result<f64, ExperimentError> {
    let s = samples(ctx);
    let key16 = [0x5au8; 16];
    let key8 = [0x5au8; 8];
    let key24 = [0x5au8; 24];
    // Validate each key once up front; the timing closures cannot
    // propagate, so they discard the (now known-absent) error.
    let setup = match alg {
        Algorithm::Aes => {
            Aes::with_backend(&key16, AesBackend::Table)?;
            measure_min(s, 20, || {
                black_box(Aes::with_backend(&key16, AesBackend::Table).ok());
            })
        }
        Algorithm::Des => {
            Des::new(&key8)?;
            measure_min(s, 20, || {
                black_box(Des::new(&key8).ok());
            })
        }
        Algorithm::TripleDes => {
            Des3::new(&key24)?;
            measure_min(s, 20, || {
                black_box(Des3::new(&key24).ok());
            })
        }
        Algorithm::Rc4 => {
            Rc4::new(&key16)?;
            measure_min(s, 20, || {
                black_box(Rc4::new(&key16).ok());
            })
        }
    };
    let mut buf = vec![0x33u8; size];
    let kernel = match alg {
        Algorithm::Aes => {
            let aes = Aes::with_backend(&key16, AesBackend::Table)?;
            measure_min(s, 2, || {
                for block in buf.chunks_exact_mut(16) {
                    aes.encrypt_block(block);
                }
            })
        }
        Algorithm::Des => {
            let des = Des::new(&key8)?;
            measure_min(s, 2, || {
                for block in buf.chunks_exact_mut(8) {
                    des.encrypt_block(block);
                }
            })
        }
        Algorithm::TripleDes => {
            let des3 = Des3::new(&key24)?;
            measure_min(s, 2, || {
                for block in buf.chunks_exact_mut(8) {
                    des3.encrypt_block(block);
                }
            })
        }
        Algorithm::Rc4 => {
            let mut rc4 = Rc4::new(&key16)?;
            measure_min(s, 2, || {
                rc4.process(&mut buf);
            })
        }
    };
    let setup_cycles = setup.get() as f64;
    Ok(setup_cycles * 100.0 / (setup_cycles + kernel.get() as f64))
}

/// Runs the Figure 3 experiment.
///
/// # Errors
///
/// Propagates cipher construction failures.
pub fn fig3(ctx: &Context) -> Result<Fig3, ExperimentError> {
    let mut points = Vec::new();
    for alg in Algorithm::ALL {
        for &size in &FIG3_SIZES {
            points.push((alg, size, setup_share(ctx, alg, size)?));
        }
    }
    Ok(Fig3 { points })
}

/// The static Table 4 (derived from the implementations).
#[derive(Debug)]
pub struct Table4;

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 4. Important data structures and characteristics");
        t.columns(&[
            ("", Align::Left),
            ("AES", Align::Right),
            ("DES", Align::Right),
            ("3DES", Align::Right),
            ("RC4", Align::Right),
        ]);
        let c: Vec<_> = Algorithm::ALL.iter().map(|a| characteristics(*a)).collect();
        let row = |label: &str, values: Vec<String>| {
            let mut cells = vec![label.to_owned()];
            cells.extend(values);
            cells
        };
        t.row(&row("Block Size (bits)", c.iter().map(|x| x.block_bits.to_string()).collect()));
        t.row(&row("Key Size (bits)", c.iter().map(|x| x.key_bits.to_string()).collect()));
        t.row(&row(
            "Key Schedule",
            c.iter()
                .map(|x| {
                    x.key_schedule.map_or_else(|| "n/a".to_owned(), |(n, b)| format!("{n},{b}b"))
                })
                .collect(),
        ));
        t.row(&row(
            "Tables",
            c.iter().map(|x| format!("{},{},{}b", x.tables.0, x.tables.1, x.tables.2)).collect(),
        ));
        t.row(&row("Rounds", c.iter().map(|x| x.rounds.to_string()).collect()));
        t.row(&row("Table Lookups", c.iter().map(|x| x.lookups_per_round.to_string()).collect()));
        write!(f, "{t}")
    }
}

/// Returns the (static) Table 4.
#[must_use]
pub fn table4() -> Table4 {
    Table4
}

/// AES block-operation breakdown for 128 and 256-bit keys (Table 5).
#[derive(Debug)]
pub struct Table5 {
    /// `(part name, cycles-128, cycles-256)` rows.
    pub parts: Vec<(&'static str, f64, f64)>,
}

impl Table5 {
    fn total(&self, key256: bool) -> f64 {
        self.parts.iter().map(|(_, a, b)| if key256 { *b } else { *a }).sum()
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 5. AES execution time breakdown (per block)");
        t.columns(&[
            ("Functionality", Align::Left),
            ("128b cycles", Align::Right),
            ("128b %", Align::Right),
            ("256b cycles", Align::Right),
            ("256b %", Align::Right),
        ]);
        let (t128, t256) = (self.total(false), self.total(true));
        for (name, c128, c256) in &self.parts {
            t.row(&[
                *name,
                &format!("{c128:.0}"),
                &pct(c128 * 100.0 / t128),
                &format!("{c256:.0}"),
                &pct(c256 * 100.0 / t256),
            ]);
        }
        t.row(&["Total", &format!("{t128:.0}"), "100", &format!("{t256:.0}"), "100"]);
        writeln!(f, "{t}")?;
        writeln!(f, "Paper anchors: main rounds 71% (128b) and 78% (256b) of the block op.")
    }
}

/// Runs the Table 5 experiment: times the three parts of the AES block
/// operation separately for both key sizes.
///
/// # Errors
///
/// Propagates cipher construction failures.
pub fn table5(ctx: &Context) -> Result<Table5, ExperimentError> {
    let s = samples(ctx);
    let iters = 2000;
    let measure_parts = |key: &[u8]| -> Result<(f64, f64, f64), ExperimentError> {
        let aes = Aes::new(key)?;
        let block = [0x7eu8; 16];
        let state = aes.add_initial_round_key(&block);
        let after_rounds = aes.main_rounds(state);
        let mut out = [0u8; 16];
        let part1 = measure_min(s, iters, || {
            black_box(aes.add_initial_round_key(black_box(&block)));
        });
        let part2 = measure_min(s, iters, || {
            black_box(aes.main_rounds(black_box(state)));
        });
        let part3 = measure_min(s, iters, || {
            aes.final_round(black_box(after_rounds), &mut out);
            black_box(&out);
        });
        Ok((part1.get() as f64, part2.get() as f64, part3.get() as f64))
    };
    let (a1, a2, a3) = measure_parts(&[0x11; 16])?;
    let (b1, b2, b3) = measure_parts(&[0x22; 32])?;
    Ok(Table5 {
        parts: vec![
            ("Map block to state, add initial round key", a1, b1),
            ("Main rounds", a2, b2),
            ("Last round and map state to bytes", a3, b3),
        ],
    })
}

/// DES/3DES block-operation breakdown (Table 6).
#[derive(Debug)]
pub struct Table6 {
    /// `(part, DES cycles, 3DES cycles)` rows.
    pub parts: Vec<(&'static str, f64, f64)>,
}

impl Table6 {
    fn total(&self, triple: bool) -> f64 {
        self.parts.iter().map(|(_, d, t)| if triple { *t } else { *d }).sum()
    }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 6. DES/3DES execution time breakdown (per block)");
        t.columns(&[
            ("Functionality", Align::Left),
            ("DES cycles", Align::Right),
            ("DES %", Align::Right),
            ("3DES cycles", Align::Right),
            ("3DES %", Align::Right),
        ]);
        let (td, t3) = (self.total(false), self.total(true));
        for (name, des, des3) in &self.parts {
            t.row(&[
                *name,
                &format!("{des:.0}"),
                &pct(des * 100.0 / td),
                &format!("{des3:.0}"),
                &pct(des3 * 100.0 / t3),
            ]);
        }
        t.row(&["Total", &format!("{td:.0}"), "100", &format!("{t3:.0}"), "100"]);
        writeln!(f, "{t}")?;
        writeln!(f, "Paper anchors: substitution 74.7% (DES) and 89.1% (3DES).")
    }
}

/// Runs the Table 6 experiment: times IP, the substitution rounds, and FP.
///
/// # Errors
///
/// Propagates cipher construction failures.
pub fn table6(ctx: &Context) -> Result<Table6, ExperimentError> {
    let s = samples(ctx);
    let iters = 2000;
    let block = *b"DESperf!";
    let des = Des::new(&[0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1])?;
    let key24: Vec<u8> = (0..24).collect();
    let des3 = Des3::new(&key24)?;
    let (l, r) = Des::initial_permutation(&block);
    let (dl, dr) = des.substitution_rounds(l, r, false);
    let (tl, tr) = des3.substitution_rounds(l, r, false);
    let mut out = [0u8; 8];

    let ip = measure_min(s, iters, || {
        black_box(Des::initial_permutation(black_box(&block)));
    });
    let des_rounds = measure_min(s, iters, || {
        black_box(des.substitution_rounds(black_box(l), black_box(r), false));
    });
    let des3_rounds = measure_min(s, iters, || {
        black_box(des3.substitution_rounds(black_box(l), black_box(r), false));
    });
    let fp_des = measure_min(s, iters, || {
        Des::final_permutation(black_box(dl), black_box(dr), &mut out);
        black_box(&out);
    });
    let fp_des3 = measure_min(s, iters, || {
        Des::final_permutation(black_box(tl), black_box(tr), &mut out);
        black_box(&out);
    });

    Ok(Table6 {
        parts: vec![
            ("IP", ip.get() as f64, ip.get() as f64),
            ("Substitution", des_rounds.get() as f64, des3_rounds.get() as f64),
            ("FP", fp_des.get() as f64, fp_des3.get() as f64),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;
    use sslperf_profile::counters;

    #[test]
    fn fig3_rc4_setup_heaviest_at_1kb() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let f3 = fig3(ctx()).expect("fig3");
                assert!(f3.to_string().contains("RC4"));
                let rc4 = f3.setup_percent(Algorithm::Rc4, 1024).expect("measured");
                [Algorithm::Aes, Algorithm::Des, Algorithm::TripleDes]
                    .into_iter()
                    .all(|alg| rc4 > f3.setup_percent(alg, 1024).expect("measured"))
            }),
            "RC4 key setup must exceed every block cipher's at 1 KB"
        );
    }

    /// One Figure 3 operation — key setup, then the kernel over `size`
    /// bytes — under counters: the key-setup calls and the kernel's work
    /// units (blocks, or bytes for RC4).
    fn setup_calls_and_work(alg: Algorithm, size: usize) -> (u64, u64) {
        let mut buf = vec![0x33u8; size];
        let ((), snap) = counters::counted(|| match alg {
            Algorithm::Aes => {
                let aes = Aes::new(&[0x5a; 16]).expect("key");
                buf.chunks_exact_mut(16).for_each(|block| aes.encrypt_block(block));
            }
            Algorithm::Des => {
                let des = Des::new(&[0x5a; 8]).expect("key");
                buf.chunks_exact_mut(8).for_each(|block| des.encrypt_block(block));
            }
            Algorithm::TripleDes => {
                let des3 = Des3::new(&[0x5a; 24]).expect("key");
                buf.chunks_exact_mut(8).for_each(|block| des3.encrypt_block(block));
            }
            Algorithm::Rc4 => Rc4::new(&[0x5a; 16]).expect("key").process(&mut buf),
        });
        let (setup, work) = match alg {
            Algorithm::Aes => ("aes_key_setup", "aes_block"),
            Algorithm::Des => ("des_key_setup", "des_block"),
            Algorithm::TripleDes => ("des_key_setup", "des3_block"),
            Algorithm::Rc4 => ("rc4_key_setup", "rc4_bytes"),
        };
        (snap.calls(setup), snap.units(work))
    }

    /// Figure 3's shape from counters, not a clock: an operation pays its
    /// key setup once whatever the data size (3DES's one setup expands
    /// three DES schedules), while its kernel work grows exactly 32× from
    /// 1 KB to 32 KB, so the setup share must fall. The timed shares stay
    /// in `paper_report`.
    #[test]
    fn fig3_share_decreases_with_size() {
        for alg in Algorithm::ALL {
            let (setup_1k, work_1k) = setup_calls_and_work(alg, 1024);
            let (setup_32k, work_32k) = setup_calls_and_work(alg, 32_768);
            let schedules = if alg == Algorithm::TripleDes { 3 } else { 1 };
            assert_eq!((setup_1k, setup_32k), (schedules, schedules), "{}", alg.name());
            assert!(work_1k > 0, "{}", alg.name());
            assert_eq!(work_32k, 32 * work_1k, "{}", alg.name());
        }
    }

    #[test]
    fn table4_renders_paper_values() {
        let rendered = table4().to_string();
        assert!(rendered.contains("4,256,32b"), "AES tables: {rendered}");
        assert!(rendered.contains("8,64,32b"), "DES SP tables");
        assert!(rendered.contains("1,256,8b"), "RC4 state table");
    }

    /// Table 5's structure from the round counter, not a clock: part 2 of
    /// an AES block is Nr − 1 main rounds, 9 for a 128-bit key and 13 for a
    /// 256-bit key, between one initial key addition and one last round.
    /// The "main rounds dominate" wall-time reading stays in `paper_report`.
    #[test]
    fn table5_main_rounds_dominate() {
        let main_rounds = |key: &[u8]| {
            let aes = Aes::new(key).expect("aes");
            let state = aes.add_initial_round_key(&[0x7e; 16]);
            let (_, snap) = counters::counted(|| aes.main_rounds(state));
            assert_eq!(snap.calls("aes_round"), 1, "one main-round pass per block");
            snap.units("aes_round")
        };
        assert_eq!(main_rounds(&[0x11; 16]), 9);
        assert_eq!(main_rounds(&[0x22; 32]), 13);
        assert!(table5(ctx()).expect("table5").to_string().contains("Main rounds"));
    }

    /// Table 6's structure from the round counter, not a clock: a DES block
    /// is one IP, 16 substitution rounds and one FP; 3DES keeps the single
    /// IP/FP and runs exactly three times the rounds. The "> 50 % of DES"
    /// wall-time reading stays in `paper_report`.
    #[test]
    fn table6_substitution_dominates_and_triples() {
        let rounds_per_block = |cipher: &dyn BlockCipher| {
            let (_, snap) = counters::counted(|| {
                let mut block = *b"DESperf!";
                cipher.encrypt_block(&mut block);
                cipher.decrypt_block(&mut block);
            });
            assert_eq!(snap.calls("des_round"), 2, "one substitution pass per block");
            snap.units("des_round") / 2
        };
        let des = Des::new(&[0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1]).expect("des");
        let des3 = Des3::new(&(0..24).collect::<Vec<u8>>()).expect("3des");
        assert_eq!(rounds_per_block(&des), 16);
        assert_eq!(rounds_per_block(&des3), 48);
        assert!(table6(ctx()).expect("table6").to_string().contains("Substitution"));
    }
}
