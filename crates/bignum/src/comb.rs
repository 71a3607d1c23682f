//! Fixed-base exponentiation with a Lim–Lee comb.
//!
//! When the base and the modulus never change — `2^x mod p` in every
//! ffdhe2048 key generation — the squarings of a square-and-multiply ladder
//! compute the same powers of the base every time. The comb precomputes them
//! once: the exponent is read as [`ROWS`] rows of `cols` bits, the table
//! holds the product of `base^(2^(row·cols))` for every subset of rows, and
//! an exponentiation walks the columns from the top, squaring once and
//! multiplying by the entry the column's bits select. That is `cols − 1`
//! squarings and at most `cols` multiplications — 31 + 32 for a 256-bit
//! exponent, against ~330 operations for the window ladder.

use crate::mont64::pack;
use crate::{Bn, MontCtx};

/// Rows of the comb. Eight makes the table 2⁸ entries (64 KiB at 2048 bits)
/// and the walk one byte-wide lookup per column.
const ROWS: usize = 8;

/// The comb's table in the limb width of the context that built it.
#[derive(Debug, Clone)]
enum Table {
    /// One Montgomery-form [`Bn`] per entry.
    U32(Vec<Bn>),
    /// Entries of `k` limbs each, back to back.
    U64(Vec<u64>),
}

/// A precomputed table for raising one base to many exponents modulo one
/// modulus, built by [`MontCtx::fixed_base_comb`].
///
/// # Examples
///
/// ```
/// use sslperf_bignum::{Bn, MontCtx};
///
/// let ctx = MontCtx::new(&Bn::from_u64(1_000_003))?;
/// let comb = ctx.fixed_base_comb(&Bn::from_u64(2), 64);
/// let x = Bn::from_u64(0x1234_5678_9abc_def0);
/// assert_eq!(comb.pow(&x), ctx.mod_exp(&Bn::from_u64(2), &x));
/// # Ok::<(), sslperf_bignum::BnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixedBaseComb {
    ctx: MontCtx,
    /// Exponent bits per row.
    cols: usize,
    table: Table,
}

impl MontCtx {
    /// Precomputes the comb for `base` and exponents of up to
    /// `max_exp_bits` bits: `2^8` Montgomery-form entries in this context's
    /// limb width, costing about `7·⌈max_exp_bits/8⌉` squarings and 247
    /// multiplications.
    #[must_use]
    pub fn fixed_base_comb(&self, base: &Bn, max_exp_bits: usize) -> FixedBaseComb {
        let cols = max_exp_bits.div_ceil(ROWS).max(1);
        // entries[u] for u in [2^row, 2^(row+1)) is entries[u - 2^row] times
        // the row's own power of the base.
        let mut entries = Vec::with_capacity(1 << ROWS);
        entries.push(self.to_mont(&Bn::one()));
        let mut row_power = self.to_mont(base);
        for row in 0..ROWS {
            if row != 0 {
                for _ in 0..cols {
                    row_power = self.mont_sqr(&row_power);
                }
            }
            entries.push(row_power.clone());
            for u in 1..1 << row {
                entries.push(self.mont_mul(&entries[u], &row_power));
            }
        }
        let table = match self.engine64() {
            None => Table::U32(entries),
            Some(m) => {
                let mut limbs = vec![0u64; entries.len() * m.k()];
                for (entry, out) in entries.iter().zip(limbs.chunks_exact_mut(m.k())) {
                    pack(entry, out);
                }
                Table::U64(limbs)
            }
        };
        FixedBaseComb { ctx: self.clone(), cols, table }
    }
}

impl FixedBaseComb {
    /// The longest exponent, in bits, this table can raise its base to.
    #[must_use]
    pub fn max_exp_bits(&self) -> usize {
        ROWS * self.cols
    }

    /// Computes `base^exp mod n` — the same value as [`MontCtx::mod_exp`].
    ///
    /// # Panics
    ///
    /// Panics if `exp` is longer than [`FixedBaseComb::max_exp_bits`]: the
    /// table has no row for the excess bits, so the caller sized it wrong.
    #[must_use]
    pub fn pow(&self, exp: &Bn) -> Bn {
        assert!(
            exp.bit_len() <= self.max_exp_bits(),
            "exponent of {} bits exceeds the comb's {}",
            exp.bit_len(),
            self.max_exp_bits()
        );
        // Column `col` selects the entry whose row set is bit `row·cols + col`
        // of the exponent for every row, row 0 in the low bit.
        let index = |col: usize| {
            (0..ROWS)
                .rev()
                .fold(0, |idx, row| (idx << 1) | usize::from(exp.bit(row * self.cols + col)))
        };
        match &self.table {
            Table::U64(table) => {
                let m = self.ctx.engine64().expect("a u64 table comes from a u64 context");
                m.walk(table, self.cols, 1, index)
            }
            Table::U32(table) => {
                let mut acc = table[0].clone();
                for col in (0..self.cols).rev() {
                    if col != self.cols - 1 {
                        acc = self.ctx.mont_sqr(&acc);
                    }
                    let idx = index(col);
                    if idx != 0 {
                        acc = self.ctx.mont_mul(&acc, &table[idx]);
                    }
                }
                self.ctx.from_mont(&acc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LimbWidth;

    #[test]
    fn comb_matches_the_ladder_on_both_widths() {
        let n = Bn::from_hex("c0ffee0000000000000000000000000000000000000000000000000000000061")
            .unwrap();
        let base = Bn::from_u64(2);
        for width in [LimbWidth::U32, LimbWidth::U64] {
            let ctx = MontCtx::with_limb_width(&n, width).unwrap();
            // 61 bits rounds up to eight 8-bit rows.
            let comb = ctx.fixed_base_comb(&base, 61);
            assert_eq!(comb.max_exp_bits(), 64);
            for exp in ["0", "1", "2", "ff", "8000000000000000", "ffffffffffffffff", "123456789ab"]
            {
                let exp = Bn::from_hex(exp).unwrap();
                assert_eq!(comb.pow(&exp), ctx.mod_exp(&base, &exp), "{width:?} exp {exp:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the comb's 64")]
    fn overlong_exponent_panics() {
        let ctx = MontCtx::new(&Bn::from_u64(1_000_003)).unwrap();
        let comb = ctx.fixed_base_comb(&Bn::from_u64(2), 64);
        let _ = comb.pow(&Bn::one().shl(64));
    }
}
