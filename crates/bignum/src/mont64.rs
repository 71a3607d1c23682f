//! The 64-bit-limb Montgomery engine behind [`MontCtx`](crate::MontCtx)'s
//! [`LimbWidth::U64`](crate::LimbWidth::U64) path.
//!
//! Two kernels do all the work, both over `u128` accumulators:
//!
//! * a **coarsely-integrated multiply** (CIOS): for every limb of `b` one
//!   pass accumulates `a·bᵢ` and one pass adds `m·n` and shifts a limb down,
//!   so the double-width product is never materialized and the running value
//!   stays `k + 1` limbs;
//! * a **square-then-reduce**: the upper triangle of cross products doubled,
//!   the diagonal added, then `k` reduction passes whose carry-outs chain
//!   through one running bit instead of rippling.
//!
//! Each is written once over slices. [`Mont64::mul`] and [`Mont64::sqr`]
//! instantiate that one source at the limb counts the serving workloads
//! run — 8 (an RSA-1024 CRT half), 16 (the RSA-1024 modulus), 32
//! (ffdhe2048) — where constant trip counts let the compiler drop the bounds
//! checks and unroll, and at the dynamic length for every other modulus. The
//! choice reads the modulus's limb count; nothing selects it from outside.
//!
//! Values in this domain are *fixed-length* `k`-limb slices (no
//! normalization), and every buffer an exponentiation needs — window table,
//! accumulators, the square's double-width scratch — is stack workspace, so
//! [`Mont64::mod_exp`] allocates only the [`Bn`] it returns.

use crate::Bn;
use sslperf_profile::counters;

/// Workspace limbs for one Montgomery operation or one table walk at up to
/// 32 limbs: two packed operands or accumulators, the result and the
/// square's double-width scratch.
const OP_LIMBS: usize = 5 * 32;

/// Workspace limbs for a windowed exponentiation's table at up to 32 limbs:
/// the widest (6-bit, 64-entry) table and the packed base.
const EXP_LIMBS: usize = (64 + 1) * 32;

/// Runs `f` over `limbs` zeroed limbs of workspace: on the stack when they
/// fit the serving widths' budgets, on the heap for wider moduli.
fn with_workspace<R>(limbs: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    if limbs <= OP_LIMBS {
        f(&mut [0u64; OP_LIMBS][..limbs])
    } else if limbs <= EXP_LIMBS {
        f(&mut [0u64; EXP_LIMBS][..limbs])
    } else {
        f(&mut vec![0u64; limbs])
    }
}

/// `a·b + c + d` as `(low, high)` limbs. Cannot overflow:
/// `(2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸ − 1`.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, d: u64) -> (u64, u64) {
    let t = u128::from(a) * u128::from(b) + u128::from(c) + u128::from(d);
    (t as u64, (t >> 64) as u64)
}

/// The value `top·2^(64k) + out` is below `2n`; brings it below `n` with at
/// most one subtraction.
#[inline(always)]
fn final_sub(out: &mut [u64], top: u64, n: &[u64]) {
    let ge = top != 0
        || out.iter().rev().zip(n.iter().rev()).find(|(x, y)| x != y).is_none_or(|(x, y)| x > y);
    if ge {
        let mut borrow = false;
        for (t, &nj) in out.iter_mut().zip(n) {
            let (d, b1) = t.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *t = d;
            borrow = b1 | b2;
        }
        debug_assert_eq!(borrow, top != 0, "u - n must fit k limbs");
    }
}

/// Coarsely-integrated Montgomery multiply: `out = a·b·R⁻¹ mod n`.
/// `out` must not alias an operand; all four slices are `n.len()` limbs.
#[inline(always)]
fn mul_kernel(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
    let k = n.len();
    let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
    out.fill(0);
    // The running value is out[0..k] plus this (k+1)-th limb.
    let mut top = 0u64;
    for &bi in b {
        let mut carry = 0u64;
        for (t, &aj) in out.iter_mut().zip(a) {
            (*t, carry) = mac(aj, bi, *t, carry);
        }
        let (tk, over) = top.overflowing_add(carry);
        // Add m·n, which zeroes limb 0, and shift one limb down.
        let m = out[0].wrapping_mul(n0);
        let (_, mut carry) = mac(m, n[0], out[0], 0);
        for j in 1..k {
            (out[j - 1], carry) = mac(m, n[j], out[j], carry);
        }
        let (lo, over2) = tk.overflowing_add(carry);
        out[k - 1] = lo;
        top = u64::from(over) + u64::from(over2);
    }
    final_sub(out, top, n);
}

/// Montgomery reduction of the double-width value in `t` (`2k` limbs,
/// clobbered): `out = t·R⁻¹ mod n`.
#[inline(always)]
fn reduce_kernel(out: &mut [u64], t: &mut [u64], n: &[u64], n0: u64) {
    let k = n.len();
    let (out, t) = (&mut out[..k], &mut t[..2 * k]);
    // Pass i's carry-out belongs at limb i+k+1, which is exactly where
    // pass i+1 deposits its own: one running bit, no ripple.
    let mut top = 0u64;
    for i in 0..k {
        let m = t[i].wrapping_mul(n0);
        let mut carry = 0u64;
        for (tj, &nj) in t[i..i + k].iter_mut().zip(n) {
            (*tj, carry) = mac(m, nj, *tj, carry);
        }
        let (s, o1) = t[i + k].overflowing_add(carry);
        let (s, o2) = s.overflowing_add(top);
        t[i + k] = s;
        top = u64::from(o1 | o2);
    }
    out.copy_from_slice(&t[k..]);
    final_sub(out, top, n);
}

/// Square-then-reduce: `out = a²·R⁻¹ mod n`, with `t` (`2k` limbs) as the
/// double-width scratch.
#[inline(always)]
fn sqr_kernel(out: &mut [u64], a: &[u64], t: &mut [u64], n: &[u64], n0: u64) {
    let k = n.len();
    let (a, t) = (&a[..k], &mut t[..2 * k]);
    // Upper triangle: row i adds a[i]·a[i+1..] at limb 2i+1; its carry
    // lands in t[i+k], which no earlier row has reached.
    t.fill(0);
    for i in 0..k - 1 {
        let mut carry = 0u64;
        for j in i + 1..k {
            (t[i + j], carry) = mac(a[j], a[i], t[i + j], carry);
        }
        t[i + k] = carry;
    }
    // t = 2·t + Σ a[i]²·2^(128i), one limb pair per diagonal term.
    let (mut shifted_out, mut carry) = (0u64, 0u64);
    for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
        let lo = (pair[0] << 1) | shifted_out;
        let hi = (pair[1] << 1) | (pair[0] >> 63);
        shifted_out = pair[1] >> 63;
        let (d_lo, d_hi) = mac(ai, ai, 0, 0);
        let s = u128::from(lo) + u128::from(d_lo) + u128::from(carry);
        pair[0] = s as u64;
        let s = u128::from(hi) + u128::from(d_hi) + (s >> 64);
        pair[1] = s as u64;
        carry = (s >> 64) as u64;
    }
    debug_assert_eq!((shifted_out, carry), (0, 0), "a² always fits 2k limbs");
    reduce_kernel(out, t, n, n0);
}

/// The kernels with every slice length a compile-time constant.
mod fixed {
    fn arr<const K: usize>(s: &[u64]) -> &[u64; K] {
        s.try_into().expect("operand has the modulus's limb count")
    }

    fn arr_mut<const K: usize>(s: &mut [u64]) -> &mut [u64; K] {
        s.try_into().expect("operand has the modulus's limb count")
    }

    pub(super) fn mul<const K: usize>(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
        super::mul_kernel(arr_mut::<K>(out), arr::<K>(a), arr::<K>(b), arr::<K>(n), n0);
    }

    pub(super) fn sqr<const K: usize>(
        out: &mut [u64],
        a: &[u64],
        t: &mut [u64],
        n: &[u64],
        n0: u64,
    ) {
        super::sqr_kernel(arr_mut::<K>(out), arr::<K>(a), t, arr::<K>(n), n0);
    }
}

/// Montgomery arithmetic modulo an odd `n` over `k` 64-bit limbs, with
/// `R = 2^(64k)`.
#[derive(Debug, Clone)]
pub(crate) struct Mont64 {
    /// The modulus as `k` little-endian limbs.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0: u64,
    /// `R² mod n`: multiplying by it enters Montgomery form.
    rr: Vec<u64>,
    /// `R mod n`: the Montgomery form of one.
    one: Vec<u64>,
}

impl Mont64 {
    pub(crate) fn new(n: &Bn) -> Self {
        let k = n.word_len().div_ceil(2);
        let mut limbs = vec![0u64; k];
        pack(n, &mut limbs);
        // Newton iteration for the inverse of n mod 2^64: six doublings of
        // precision starting from the trivial inverse mod 2.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(limbs[0].wrapping_mul(inv), 1);
        let mut m = Mont64 { n: limbs, n0: inv.wrapping_neg(), rr: vec![0; k], one: vec![0; k] };
        pack(&Bn::one().shl(128 * k).mod_op(n), &mut m.rr);
        pack(&Bn::one().shl(64 * k).mod_op(n), &mut m.one);
        m
    }

    /// Limb count of the modulus, and of every value in this domain.
    pub(crate) fn k(&self) -> usize {
        self.n.len()
    }

    /// `out = a·b·R⁻¹ mod n`; `out` must not alias an operand.
    pub(crate) fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        counters::count("mont_mul64", self.k() as u64);
        match self.k() {
            8 => fixed::mul::<8>(out, a, b, &self.n, self.n0),
            16 => fixed::mul::<16>(out, a, b, &self.n, self.n0),
            32 => fixed::mul::<32>(out, a, b, &self.n, self.n0),
            _ => mul_kernel(out, a, b, &self.n, self.n0),
        }
    }

    /// `out = a²·R⁻¹ mod n`, with `t` (`2k` limbs) as scratch.
    pub(crate) fn sqr(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        counters::count("mont_sqr64", self.k() as u64);
        match self.k() {
            8 => fixed::sqr::<8>(out, a, t, &self.n, self.n0),
            16 => fixed::sqr::<16>(out, a, t, &self.n, self.n0),
            32 => fixed::sqr::<32>(out, a, t, &self.n, self.n0),
            _ => sqr_kernel(out, a, t, &self.n, self.n0),
        }
    }

    /// Leaves Montgomery form: `out = a·R⁻¹ mod n`, with `t` (`2k` limbs)
    /// as scratch. Once per exponentiation, so not width-specialised.
    pub(crate) fn leave(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        let k = self.k();
        t[..k].copy_from_slice(a);
        t[k..2 * k].fill(0);
        reduce_kernel(out, t, &self.n, self.n0);
    }

    /// Packs `a` (below `n`) and runs `op(out, a, scratch)` on it, where
    /// `scratch` is `3k` limbs; returns `out` as a [`Bn`].
    fn unary(&self, a: &Bn, op: impl FnOnce(&mut [u64], &[u64], &mut [u64])) -> Bn {
        let k = self.k();
        with_workspace(5 * k, |work| {
            let (out, rest) = work.split_at_mut(k);
            let (a64, scratch) = rest.split_at_mut(k);
            pack(a, a64);
            op(out, a64, scratch);
            unpack(out)
        })
    }

    /// [`Mont64::mul`] on [`Bn`] operands below `n`.
    pub(crate) fn mul_bn(&self, a: &Bn, b: &Bn) -> Bn {
        self.unary(a, |out, a64, scratch| {
            pack(b, &mut scratch[..self.k()]);
            self.mul(out, a64, &scratch[..self.k()]);
        })
    }

    /// [`Mont64::sqr`] on a [`Bn`] operand below `n`.
    pub(crate) fn sqr_bn(&self, a: &Bn) -> Bn {
        self.unary(a, |out, a64, scratch| self.sqr(out, a64, scratch))
    }

    /// `a·R mod n` for `a` below `n`.
    pub(crate) fn enter_bn(&self, a: &Bn) -> Bn {
        self.unary(a, |out, a64, _| self.mul(out, a64, &self.rr))
    }

    /// `a·R⁻¹ mod n` for `a` below `n`.
    pub(crate) fn leave_bn(&self, a: &Bn) -> Bn {
        self.unary(a, |out, a64, scratch| self.leave(out, a64, scratch))
    }

    /// Fixed-window `base^exp mod n` for `base` below `n` and `exp > 0`.
    pub(crate) fn mod_exp(&self, base: &Bn, exp: &Bn, window: usize) -> Bn {
        counters::count("BN_mod_exp", exp.bit_len() as u64);
        let k = self.k();
        let table_len = 1usize << window;
        with_workspace((table_len + 1) * k, |work| {
            let (table, base64) = work.split_at_mut(table_len * k);
            // table[0] = 1·R, table[1] = g = base·R, table[i] = table[i-1]·g.
            table[..k].copy_from_slice(&self.one);
            pack(base, base64);
            self.mul(&mut table[k..2 * k], base64, &self.rr);
            for i in 2..table_len {
                let (lo, hi) = table.split_at_mut(i * k);
                self.mul(&mut hi[..k], &lo[(i - 1) * k..], &lo[k..2 * k]);
            }
            self.walk(table, exp.bit_len().div_ceil(window), window, |chunk| {
                (0..window)
                    .rev()
                    .fold(0, |idx, b| (idx << 1) | usize::from(exp.bit(chunk * window + b)))
            })
        })
    }

    /// The left-to-right walk every table-driven exponentiation shares:
    /// starting from one, for each step from `steps − 1` down to 0,
    /// `squarings` squarings (none before the first step) and then a
    /// multiplication by the `k`-limb Montgomery-form entry `index(step)`
    /// of `table`, skipped when that index is 0. Returns the result out of
    /// Montgomery form.
    pub(crate) fn walk(
        &self,
        table: &[u64],
        steps: usize,
        squarings: usize,
        index: impl Fn(usize) -> usize,
    ) -> Bn {
        let k = self.k();
        with_workspace(4 * k, |work| {
            let (mut acc, rest) = work.split_at_mut(k);
            let (mut tmp, t) = rest.split_at_mut(k);
            acc.copy_from_slice(&self.one);
            for step in (0..steps).rev() {
                if step != steps - 1 {
                    for _ in 0..squarings {
                        self.sqr(tmp, acc, t);
                        std::mem::swap(&mut acc, &mut tmp);
                    }
                }
                let idx = index(step);
                if idx != 0 {
                    self.mul(tmp, acc, &table[idx * k..(idx + 1) * k]);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            self.leave(tmp, acc, t);
            unpack(tmp)
        })
    }
}

/// Packs a value into exactly `out.len()` little-endian 64-bit limbs.
///
/// # Panics
///
/// Panics if `a` is wider than `out`.
pub(crate) fn pack(a: &Bn, out: &mut [u64]) {
    out.fill(0);
    for (i, &w) in a.words.iter().enumerate() {
        out[i / 2] |= u64::from(w) << (32 * (i % 2));
    }
}

/// Unpacks fixed-length limbs back into a normalized [`Bn`].
fn unpack(limbs: &[u64]) -> Bn {
    let mut bn = Bn { words: limbs.iter().flat_map(|&v| [v as u32, (v >> 32) as u32]).collect() };
    bn.normalize();
    bn
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A modulus of exactly `k` limbs: all-ones except a random-looking
    /// middle, odd, top bit set.
    fn modulus(k: usize) -> Bn {
        let mut words = vec![u32::MAX; 2 * k];
        for (i, w) in words.iter_mut().enumerate().skip(1).take(2 * k - 2) {
            *w = 0x9e37_79b9u32.wrapping_mul(i as u32 + 1);
        }
        Bn::from_words(&words)
    }

    #[test]
    fn kernels_match_plain_modular_arithmetic_at_every_instantiation() {
        // 8, 16, 32 run the constant-width instantiations; the rest run the
        // dynamic one, including k = 1 where the square has no cross terms.
        for k in [1usize, 2, 3, 7, 8, 9, 16, 17, 32, 33] {
            let n = modulus(k);
            let m = Mont64::new(&n);
            assert_eq!(m.k(), k);
            let n_minus_1 = n.sub(&Bn::one());
            let mixed = Bn::from_words(&vec![0xdead_beef; 2 * k]).mod_op(&n);
            for a in [&Bn::zero(), &Bn::one(), &n_minus_1, &mixed] {
                let am = m.enter_bn(a);
                assert_eq!(&m.leave_bn(&am), a, "round trip, k = {k}");
                assert_eq!(m.leave_bn(&m.sqr_bn(&am)), a.mod_mul(a, &n), "square, k = {k}");
                for b in [&Bn::one(), &n_minus_1, &mixed] {
                    let bm = m.enter_bn(b);
                    assert_eq!(
                        m.leave_bn(&m.mul_bn(&am, &bm)),
                        a.mod_mul(b, &n),
                        "product, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn exponentiation_matches_the_oracle_beyond_the_stack_workspace() {
        // 40 limbs at a 6-bit window needs (64 + 1)·40 limbs: the heap arm.
        let n = modulus(40);
        let m = Mont64::new(&n);
        let base = Bn::from_words(&[0x1234_5678; 70]);
        let exp = Bn::from_words(&[0xfedc_ba98; 3]);
        for window in [1, 4, 6] {
            assert_eq!(m.mod_exp(&base, &exp, window), base.mod_exp_simple(&exp, &n));
        }
    }

    #[test]
    fn one_counter_per_operation() {
        let n = modulus(8);
        let m = Mont64::new(&n);
        let (_, snap) = counters::counted(|| {
            let _ = m.mod_exp(&Bn::from_u64(3), &Bn::from_u64(0b1011), 1);
        });
        // 1-bit window over 0b1011: base·R, a squaring per bit below the
        // leading one, a multiplication per set bit.
        assert_eq!(snap.calls("mont_sqr64"), 3);
        assert_eq!(snap.calls("mont_mul64"), 1 + 3);
        assert_eq!(snap.units("mont_sqr64"), 3 * 8);
    }
}
