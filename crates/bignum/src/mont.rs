//! Montgomery multiplication and modular exponentiation.
//!
//! RSA's "computation" step (97–99% of decryption in the paper's Table 7) is
//! modular exponentiation. Like OpenSSL's `BN_mod_exp_mont`, the
//! implementation converts into Montgomery form once, then performs every
//! multiplication as *full product + Montgomery reduction*, where the
//! reduction is itself a loop of [`bn_mul_add_words`] calls followed by a
//! conditional [`bn_sub_words`] — reproducing the function mix of Table 8.
//!
//! [`bn_mul_add_words`]: crate::words::bn_mul_add_words
//! [`bn_sub_words`]: crate::words::bn_sub_words

use crate::mont64::Mont64;
use crate::words::{bn_mul_add_words, bn_sub_words};
use crate::{default_limb_width, Bn, BnError, LimbWidth};
use sslperf_profile::counters;

/// Precomputed context for arithmetic modulo an odd number `n`.
///
/// # Examples
///
/// ```
/// use sslperf_bignum::{Bn, MontCtx};
///
/// let n = Bn::from_u64(1_000_003);
/// let ctx = MontCtx::new(&n)?;
/// let r = ctx.mod_exp(&Bn::from_u64(2), &Bn::from_u64(20));
/// assert_eq!(r, Bn::from_u64((1 << 20) % 1_000_003));
/// # Ok::<(), sslperf_bignum::BnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MontCtx {
    n: Bn,
    /// `-n⁻¹ mod 2³²` — the per-word reduction multiplier.
    n0: u32,
    /// `R² mod n` with `R = 2^(32k)`, used to enter Montgomery form.
    rr: Bn,
    /// Word length of `n`.
    k: usize,
    /// The 64-bit-limb engine; present exactly when `limbs == U64`.
    m64: Option<Mont64>,
    /// Which limb width this context's arithmetic runs on.
    limbs: LimbWidth,
}

impl MontCtx {
    /// Builds a context for the odd modulus `n > 1` on the process-default
    /// limb width ([`default_limb_width`]).
    ///
    /// # Errors
    ///
    /// Returns [`BnError::EvenModulus`] if `n` is even, zero or one.
    pub fn new(n: &Bn) -> Result<Self, BnError> {
        Self::with_limb_width(n, default_limb_width())
    }

    /// Builds a context on an explicit limb width — the hook the
    /// differential tests and the kernel bench use to force the
    /// paper-faithful u32 path or the raw-speed u64 path in-process.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::EvenModulus`] if `n` is even, zero or one.
    pub fn with_limb_width(n: &Bn, limbs: LimbWidth) -> Result<Self, BnError> {
        if !n.is_odd() || n.is_one() {
            return Err(BnError::EvenModulus);
        }
        counters::count("BN_CTX_start", 1);
        let k = n.word_len();
        // Newton iteration for the inverse of n mod 2^32: five doublings of
        // precision starting from the trivial inverse mod 2.
        let mut inv: u32 = 1;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(n.words[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n.words[0].wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();
        let rr = Bn::one().shl(64 * k).mod_op(n);
        let m64 = match limbs {
            LimbWidth::U32 => None,
            LimbWidth::U64 => Some(Mont64::new(n)),
        };
        Ok(MontCtx { n: n.clone(), n0, rr, k, m64, limbs })
    }

    /// The limb width this context's arithmetic runs on.
    #[must_use]
    pub fn limb_width(&self) -> LimbWidth {
        self.limbs
    }

    /// The modulus this context reduces by.
    #[must_use]
    pub fn modulus(&self) -> &Bn {
        &self.n
    }

    /// The 64-bit-limb engine, when this context runs on it.
    pub(crate) fn engine64(&self) -> Option<&Mont64> {
        self.m64.as_ref()
    }

    /// Montgomery reduction of a double-width value: returns `t·R⁻¹ mod n`.
    ///
    /// This is OpenSSL's `BN_from_montgomery` (Table 8, ~9% of RSA).
    fn redc(&self, t: &mut Vec<u32>) -> Bn {
        counters::count("BN_from_montgomery", self.k as u64);
        t.resize(2 * self.k + 1, 0);
        for i in 0..self.k {
            let m = t[i].wrapping_mul(self.n0);
            let carry = bn_mul_add_words(&mut t[i..i + self.k], &self.n.words, m);
            // Ripple the carry into the words above the window.
            let mut c = u64::from(carry);
            let mut idx = i + self.k;
            while c != 0 {
                let s = u64::from(t[idx]) + c;
                t[idx] = s as u32;
                c = s >> 32;
                idx += 1;
            }
        }
        let mut u = Bn { words: t[self.k..].to_vec() };
        u.normalize();
        if u >= self.n {
            // Conditional final subtraction — the bn_sub_words hot spot.
            let minuend = u.words.clone();
            let mut words = vec![0u32; minuend.len()];
            let mut n_words = self.n.words.clone();
            n_words.resize(minuend.len(), 0);
            let borrow = bn_sub_words(&mut words, &minuend, &n_words);
            debug_assert_eq!(borrow, 0);
            u = Bn { words };
            u.normalize();
        }
        u
    }

    /// Multiplies two Montgomery-form values: returns `a·b·R⁻¹ mod n`.
    #[must_use]
    pub fn mont_mul(&self, a: &Bn, b: &Bn) -> Bn {
        if let Some(m) = &self.m64 {
            return m.mul_bn(a, b);
        }
        let prod = a.mul(b);
        let mut t = prod.words;
        self.redc(&mut t)
    }

    /// Squares a Montgomery-form value.
    #[must_use]
    pub fn mont_sqr(&self, a: &Bn) -> Bn {
        if let Some(m) = &self.m64 {
            return m.sqr_bn(a);
        }
        let prod = a.sqr();
        let mut t = prod.words;
        self.redc(&mut t)
    }

    /// Converts `a` (reduced mod n by the caller or not) into Montgomery
    /// form: `a·R mod n`.
    #[must_use]
    pub fn to_mont(&self, a: &Bn) -> Bn {
        let reduced = if a >= &self.n { a.mod_op(&self.n) } else { a.clone() };
        if let Some(m) = &self.m64 {
            return m.enter_bn(&reduced);
        }
        self.mont_mul(&reduced, &self.rr)
    }

    /// Converts a Montgomery-form value back to the ordinary domain.
    #[must_use]
    pub fn from_mont(&self, a: &Bn) -> Bn {
        if let Some(m) = &self.m64 {
            return m.leave_bn(a);
        }
        let mut t = a.words.clone();
        self.redc(&mut t)
    }

    /// Computes `base^exp mod n`, sizing the window to the exponent
    /// (OpenSSL's `BN_window_bits_for_exponent_size`): a 17-bit RSA public
    /// exponent squares and multiplies bit by bit instead of paying for a
    /// 16-entry table.
    #[must_use]
    pub fn mod_exp(&self, base: &Bn, exp: &Bn) -> Bn {
        self.mod_exp_window(base, exp, window_bits(exp.bit_len()))
    }

    /// Computes `base^exp mod n` with a caller-chosen window width
    /// (1–6 bits) — the explicit-width door for the window ablation and
    /// for any experiment that must pin OpenSSL's 4 bits.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or greater than 6.
    #[must_use]
    pub fn mod_exp_window(&self, base: &Bn, exp: &Bn, window: u32) -> Bn {
        assert!((1..=6).contains(&window), "window must be 1..=6");
        if exp.is_zero() {
            return if self.n.is_one() { Bn::zero() } else { Bn::one() };
        }
        if self.m64.is_some() {
            return self.mod_exp_u64(base, exp, window as usize);
        }
        counters::count("BN_mod_exp", exp.bit_len() as u64);
        let g = self.to_mont(base);
        // Table of g^0 .. g^(2^w - 1) in Montgomery form.
        let table_len = 1usize << window;
        let mut table = Vec::with_capacity(table_len);
        table.push(self.to_mont(&Bn::one()));
        table.push(g.clone());
        for i in 2..table_len {
            table.push(self.mont_mul(&table[i - 1], &g));
        }

        let bits = exp.bit_len();
        let chunks = bits.div_ceil(window as usize);
        let mut acc = table[0].clone(); // one, in Montgomery form
        for chunk_idx in (0..chunks).rev() {
            if chunk_idx != chunks - 1 {
                for _ in 0..window {
                    acc = self.mont_sqr(&acc);
                }
            }
            let mut idx = 0usize;
            for b in (0..window as usize).rev() {
                let bit_pos = chunk_idx * window as usize + b;
                idx = (idx << 1) | usize::from(exp.bit(bit_pos));
            }
            if idx != 0 {
                acc = self.mont_mul(&acc, &table[idx]);
            }
        }
        self.from_mont(&acc)
    }
}

/// Reusable work buffers for the u32 path's Montgomery arithmetic — the
/// batch-friendly face of [`MontCtx`].
///
/// On [`LimbWidth::U32`] every [`MontCtx::mod_exp`] call allocates a fresh
/// double-width product buffer per multiplication (~1300 of them for an
/// RSA-half exponent) plus its window table. A batched caller — the RSA
/// batch-decrypt path, which runs the same-modulus exponentiation once per
/// job — passes one `MontScratch` instead and [`MontCtx::mod_exp_scratch`]
/// reuses these buffers across every multiplication *and* across every
/// exponentiation sharing the scratch, leaving one allocation per result.
/// The buffers grow to the largest modulus seen and are modulus-agnostic,
/// so a single scratch serves both CRT halves (`mod p`, then `mod q`). A
/// [`LimbWidth::U64`] context works on the stack and leaves the scratch
/// untouched, so one scratch still serves a mixed batch.
///
/// # Examples
///
/// ```
/// use sslperf_bignum::{Bn, MontCtx, MontScratch};
///
/// let n = Bn::from_u64(1_000_003);
/// let ctx = MontCtx::new(&n)?;
/// let mut scratch = MontScratch::new();
/// let base = Bn::from_u64(2);
/// let exp = Bn::from_u64(20);
/// assert_eq!(ctx.mod_exp_scratch(&base, &exp, &mut scratch), ctx.mod_exp(&base, &exp));
/// # Ok::<(), sslperf_bignum::BnError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct MontScratch {
    /// Double-width product buffer fed to the reduction.
    prod: Vec<u32>,
    /// Destination for the conditional final subtraction.
    diff: Vec<u32>,
    /// The modulus zero-padded to the minuend's length.
    npad: Vec<u32>,
    /// Diagonal-terms buffer for the dedicated squaring.
    sqtmp: Vec<u32>,
    /// The 2^w-entry window table, entries overwritten in place.
    table: Vec<Bn>,
    /// Ping-pong accumulators for the square-and-multiply loop.
    acc: Bn,
    acc2: Bn,
}

impl MontScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl MontCtx {
    /// Schoolbook product of `a` and `b` written into `prod` (resized, no
    /// allocation once grown).
    fn mul_buf(a: &Bn, b: &Bn, prod: &mut Vec<u32>) {
        counters::count("BN_mul", a.words.len() as u64);
        prod.clear();
        prod.resize(a.words.len() + b.words.len(), 0);
        for (i, &w) in b.words.iter().enumerate() {
            let carry = bn_mul_add_words(&mut prod[i..i + a.words.len()], &a.words, w);
            prod[i + a.words.len()] = carry;
        }
    }

    /// Montgomery reduction of the double-width value in `t`, result
    /// written into `out` — the allocation-free twin of [`MontCtx::redc`].
    fn redc_buf(&self, t: &mut Vec<u32>, out: &mut Bn, diff: &mut Vec<u32>, npad: &mut Vec<u32>) {
        counters::count("BN_from_montgomery", self.k as u64);
        t.resize(2 * self.k + 1, 0);
        for i in 0..self.k {
            let m = t[i].wrapping_mul(self.n0);
            let carry = bn_mul_add_words(&mut t[i..i + self.k], &self.n.words, m);
            let mut c = u64::from(carry);
            let mut idx = i + self.k;
            while c != 0 {
                let s = u64::from(t[idx]) + c;
                t[idx] = s as u32;
                c = s >> 32;
                idx += 1;
            }
        }
        out.words.clear();
        out.words.extend_from_slice(&t[self.k..]);
        out.normalize();
        if *out >= self.n {
            diff.clear();
            diff.resize(out.words.len(), 0);
            npad.clear();
            npad.extend_from_slice(&self.n.words);
            npad.resize(out.words.len(), 0);
            let borrow = bn_sub_words(diff, &out.words, npad);
            debug_assert_eq!(borrow, 0);
            std::mem::swap(&mut out.words, diff);
            out.normalize();
        }
    }

    /// `a·b·R⁻¹ mod n` into `out`, using only the given buffers.
    fn mont_mul_buf(
        &self,
        a: &Bn,
        b: &Bn,
        out: &mut Bn,
        prod: &mut Vec<u32>,
        diff: &mut Vec<u32>,
        npad: &mut Vec<u32>,
    ) {
        Self::mul_buf(a, b, prod);
        self.redc_buf(prod, out, diff, npad);
    }

    /// Dedicated squaring of `a` written into `prod` — the allocation-free
    /// face of [`Bn::sqr`]'s `bn_sqr_normal`.
    fn sqr_buf(a: &Bn, prod: &mut Vec<u32>, sqtmp: &mut Vec<u32>) {
        counters::count("BN_sqr", a.words.len() as u64);
        prod.clear();
        prod.resize(2 * a.words.len(), 0);
        sqtmp.clear();
        sqtmp.resize(2 * a.words.len(), 0);
        Bn::sqr_into(&a.words, prod, sqtmp);
    }

    /// `a²·R⁻¹ mod n` into `out`, using only the given buffers.
    #[allow(clippy::too_many_arguments)]
    fn mont_sqr_buf(
        &self,
        a: &Bn,
        out: &mut Bn,
        prod: &mut Vec<u32>,
        diff: &mut Vec<u32>,
        npad: &mut Vec<u32>,
        sqtmp: &mut Vec<u32>,
    ) {
        Self::sqr_buf(a, prod, sqtmp);
        self.redc_buf(prod, out, diff, npad);
    }

    /// The 64-bit-limb windowed exponentiation: one conversion into the
    /// u64 Montgomery domain, the whole ladder on the fused kernels, one
    /// conversion back. Callers have already handled the zero exponent.
    fn mod_exp_u64(&self, base: &Bn, exp: &Bn, window: usize) -> Bn {
        let m = self.m64.as_ref().expect("u64 engine present");
        if base >= &self.n {
            m.mod_exp(&base.mod_op(&self.n), exp, window)
        } else {
            m.mod_exp(base, exp, window)
        }
    }

    /// Computes `base^exp mod n` exactly as [`MontCtx::mod_exp`] does —
    /// same window policy, same value — reusing `scratch` for every
    /// intermediate buffer of the u32 path. In steady state the only
    /// allocation is the returned result, which is what makes batched RSA
    /// decryption's repeated same-modulus exponentiations cheap to
    /// interleave.
    #[must_use]
    pub fn mod_exp_scratch(&self, base: &Bn, exp: &Bn, scratch: &mut MontScratch) -> Bn {
        if exp.is_zero() {
            return if self.n.is_one() { Bn::zero() } else { Bn::one() };
        }
        let window = window_bits(exp.bit_len()) as usize;
        if self.m64.is_some() {
            return self.mod_exp_u64(base, exp, window);
        }
        counters::count("BN_mod_exp", exp.bit_len() as u64);
        let MontScratch { prod, diff, npad, sqtmp, table, acc, acc2, .. } = scratch;
        let table_len = 1usize << window;
        if table.len() < table_len {
            table.resize_with(table_len, Bn::zero);
        }
        // table[0] = 1·R, table[1] = g = base·R, table[i] = table[i-1]·g.
        let one_mont = self.to_mont(&Bn::one());
        table[0].copy_from(&one_mont);
        let g = self.to_mont(base);
        table[1].copy_from(&g);
        for i in 2..table_len {
            let (lo, hi) = table.split_at_mut(i);
            self.mont_mul_buf(&lo[i - 1], &g, &mut hi[0], prod, diff, npad);
        }

        let bits = exp.bit_len();
        let chunks = bits.div_ceil(window);
        acc.copy_from(&table[0]);
        for chunk_idx in (0..chunks).rev() {
            if chunk_idx != chunks - 1 {
                for _ in 0..window {
                    self.mont_sqr_buf(acc, acc2, prod, diff, npad, sqtmp);
                    std::mem::swap(acc, acc2);
                }
            }
            let mut idx = 0usize;
            for b in (0..window).rev() {
                let bit_pos = chunk_idx * window + b;
                idx = (idx << 1) | usize::from(exp.bit(bit_pos));
            }
            if idx != 0 {
                self.mont_mul_buf(acc, &table[idx], acc2, prod, diff, npad);
                std::mem::swap(acc, acc2);
            }
        }
        prod.clear();
        prod.extend_from_slice(&acc.words);
        self.redc_buf(prod, acc2, diff, npad);
        acc2.clone()
    }
}

/// The window width, in bits, that keeps table build plus multiplications
/// smallest for an exponent of `exp_bits` bits — the one policy behind
/// [`MontCtx::mod_exp`] and [`MontCtx::mod_exp_scratch`].
fn window_bits(exp_bits: usize) -> u32 {
    match exp_bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

impl Bn {
    /// Computes `self^exp mod m` via a throwaway Montgomery context for odd
    /// `m`, falling back to binary square-and-multiply for even moduli.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn mod_exp(&self, exp: &Bn, m: &Bn) -> Bn {
        assert!(!m.is_zero(), "zero modulus");
        if m.is_one() {
            return Bn::zero();
        }
        match MontCtx::new(m) {
            Ok(ctx) => ctx.mod_exp(self, exp),
            Err(_) => self.mod_exp_simple(exp, m),
        }
    }

    /// Plain left-to-right square-and-multiply `self^exp mod m`.
    ///
    /// Kept as the correctness oracle for the Montgomery path and as the
    /// no-Montgomery baseline in the ablation benches.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn mod_exp_simple(&self, exp: &Bn, m: &Bn) -> Bn {
        assert!(!m.is_zero(), "zero modulus");
        if m.is_one() {
            return Bn::zero();
        }
        let base = self.mod_op(m);
        let mut acc = Bn::one();
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mod_mul(&acc, m);
            if exp.bit(i) {
                acc = acc.mod_mul(&base, m);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bn(s: &str) -> Bn {
        Bn::from_hex(s).unwrap()
    }

    #[test]
    fn rejects_even_or_trivial_modulus() {
        assert!(MontCtx::new(&Bn::from_u64(10)).is_err());
        assert!(MontCtx::new(&Bn::zero()).is_err());
        assert!(MontCtx::new(&Bn::one()).is_err());
        assert!(MontCtx::new(&Bn::from_u64(9)).is_ok());
    }

    #[test]
    fn mont_round_trip() {
        let n = bn("fffffffffffffffffffffffffffffff1");
        let ctx = MontCtx::new(&n).unwrap();
        for v in ["0", "1", "deadbeef", "fffffffffffffffffffffffffffffff0"] {
            let a = bn(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a.mod_op(&n), "value {v}");
        }
    }

    #[test]
    fn mont_mul_matches_mod_mul() {
        let n = bn("f000000000000000000000000000000d");
        let ctx = MontCtx::new(&n).unwrap();
        let a = bn("123456789abcdef0123456789abcdef");
        let b = bn("fedcba9876543210fedcba987654321");
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let got = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn mod_exp_small_cases() {
        let n = Bn::from_u64(497); // 7 * 71, odd composite
        let ctx = MontCtx::new(&n).unwrap();
        assert_eq!(ctx.mod_exp(&Bn::from_u64(4), &Bn::from_u64(13)), Bn::from_u64(445));
        assert_eq!(ctx.mod_exp(&Bn::from_u64(4), &Bn::zero()), Bn::one());
        assert_eq!(ctx.mod_exp(&Bn::zero(), &Bn::from_u64(5)), Bn::zero());
        assert_eq!(ctx.mod_exp(&Bn::one(), &bn("ffffffffffffffff")), Bn::one());
    }

    #[test]
    fn fermat_little_theorem() {
        // p prime → a^(p-1) ≡ 1 (mod p)
        let p = bn("ffffffffffffffc5"); // 2^64 - 59, prime
        let ctx = MontCtx::new(&p).unwrap();
        for a in ["2", "3", "deadbeef", "123456789abcdef"] {
            let a = bn(a);
            assert_eq!(ctx.mod_exp(&a, &p.sub(&Bn::one())), Bn::one(), "base {a:?}");
        }
    }

    #[test]
    fn montgomery_matches_simple_exponentiation() {
        let n = bn("c0ffee0000000000000000000000000000000000000000000000000000000061");
        let ctx = MontCtx::new(&n).unwrap();
        let base = bn("123456789abcdef");
        let exp = bn("fedcba9876543210");
        assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_simple(&exp, &n));
    }

    #[test]
    fn all_window_widths_agree() {
        let n = bn("fffffffffffffffffffffffffffffff1");
        let ctx = MontCtx::new(&n).unwrap();
        let base = bn("abcdef0123456789");
        let exp = bn("10001");
        let reference = ctx.mod_exp_window(&base, &exp, 1);
        for w in 2..=6 {
            assert_eq!(ctx.mod_exp_window(&base, &exp, w), reference, "window {w}");
        }
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn window_zero_panics() {
        let ctx = MontCtx::new(&Bn::from_u64(9)).unwrap();
        let _ = ctx.mod_exp_window(&Bn::one(), &Bn::one(), 0);
    }

    #[test]
    fn bn_mod_exp_even_modulus_falls_back() {
        let m = Bn::from_u64(100);
        assert_eq!(Bn::from_u64(7).mod_exp(&Bn::from_u64(3), &m), Bn::from_u64(43));
        assert_eq!(Bn::from_u64(7).mod_exp(&Bn::from_u64(0), &m), Bn::one());
        assert_eq!(Bn::from_u64(7).mod_exp(&Bn::from_u64(3), &Bn::one()), Bn::zero());
    }

    #[test]
    fn exponent_larger_than_modulus_bits() {
        let n = Bn::from_u64(101);
        let ctx = MontCtx::new(&n).unwrap();
        let exp = bn("123456789abcdef0123456789abcdef0");
        assert_eq!(ctx.mod_exp(&Bn::from_u64(3), &exp), Bn::from_u64(3).mod_exp_simple(&exp, &n));
    }

    #[test]
    fn scratch_exponentiation_matches_allocating_path() {
        let n = bn("c0ffee0000000000000000000000000000000000000000000000000000000061");
        let ctx = MontCtx::new(&n).unwrap();
        let mut scratch = MontScratch::new();
        for (base, exp) in [
            ("2", "10001"),
            ("123456789abcdef", "fedcba9876543210"),
            ("0", "5"),
            ("1", "ffffffffffffffff"),
            ("deadbeef", "0"),
        ] {
            let base = bn(base);
            let exp = bn(exp);
            assert_eq!(
                ctx.mod_exp_scratch(&base, &exp, &mut scratch),
                ctx.mod_exp(&base, &exp),
                "base {base:?} exp {exp:?}"
            );
        }
    }

    #[test]
    fn one_scratch_serves_multiple_moduli() {
        // The batch decrypt path interleaves mod-p and mod-q halves through
        // one scratch; buffers must not leak state across moduli.
        let p = bn("ffffffffffffffc5");
        let q = bn("fffffffffffffffffffffffffffffff1");
        let ctx_p = MontCtx::new(&p).unwrap();
        let ctx_q = MontCtx::new(&q).unwrap();
        let mut scratch = MontScratch::new();
        let base = bn("123456789abcdef");
        let exp = bn("abcdef123");
        for _ in 0..3 {
            assert_eq!(
                ctx_p.mod_exp_scratch(&base, &exp, &mut scratch),
                ctx_p.mod_exp(&base, &exp)
            );
            assert_eq!(
                ctx_q.mod_exp_scratch(&base, &exp, &mut scratch),
                ctx_q.mod_exp(&base, &exp)
            );
        }
    }

    #[test]
    fn counters_see_hot_functions() {
        use sslperf_profile::counters;
        let n = bn("fffffffffffffffffffffffffffffff1");
        // The paper-faithful u32 path attributes to the OpenSSL names …
        let ctx32 = MontCtx::with_limb_width(&n, LimbWidth::U32).unwrap();
        let (_, snap) = counters::counted(|| {
            let _ = ctx32.mod_exp(&bn("12345"), &bn("10001"));
        });
        assert!(snap.calls("bn_mul_add_words") > 0);
        assert!(snap.calls("BN_from_montgomery") > 0);
        assert_eq!(snap.calls("mont_sqr64"), 0);
        // … and the u64 path to one counter per fused operation, never
        // mixing: e = 65537 is 16 squarings and, on the 1-bit window its
        // length selects, base·R plus one multiply per set bit.
        let ctx64 = MontCtx::with_limb_width(&n, LimbWidth::U64).unwrap();
        let (_, snap) = counters::counted(|| {
            let _ = ctx64.mod_exp(&bn("12345"), &bn("10001"));
        });
        assert_eq!(snap.calls("mont_sqr64"), 16);
        assert_eq!(snap.calls("mont_mul64"), 3);
        assert_eq!(snap.units("mont_mul64"), 3 * 2);
        assert_eq!(snap.calls("bn_mul_add_words"), 0);
        assert_eq!(snap.calls("BN_from_montgomery"), 0);
    }

    #[test]
    fn limb_widths_agree_on_every_operation() {
        let n = bn("c0ffee0000000000000000000000000000000000000000000000000000000061");
        let ctx32 = MontCtx::with_limb_width(&n, LimbWidth::U32).unwrap();
        let ctx64 = MontCtx::with_limb_width(&n, LimbWidth::U64).unwrap();
        assert_eq!(ctx32.limb_width(), LimbWidth::U32);
        assert_eq!(ctx64.limb_width(), LimbWidth::U64);
        let a = bn("123456789abcdef0fedcba9876543210");
        let b = bn("deadbeefcafebabe0123456789abcdef");
        // Domain round trip and plain-domain results must be bit-identical.
        assert_eq!(ctx32.from_mont(&ctx32.to_mont(&a)), ctx64.from_mont(&ctx64.to_mont(&a)));
        let m32 = (ctx32.to_mont(&a), ctx32.to_mont(&b));
        let m64 = (ctx64.to_mont(&a), ctx64.to_mont(&b));
        assert_eq!(
            ctx32.from_mont(&ctx32.mont_mul(&m32.0, &m32.1)),
            ctx64.from_mont(&ctx64.mont_mul(&m64.0, &m64.1))
        );
        assert_eq!(
            ctx32.from_mont(&ctx32.mont_sqr(&m32.0)),
            ctx64.from_mont(&ctx64.mont_sqr(&m64.0))
        );
        for exp in ["0", "1", "2", "10001", "fedcba9876543210fedcba9876543210"] {
            let exp = bn(exp);
            assert_eq!(ctx32.mod_exp(&a, &exp), ctx64.mod_exp(&a, &exp), "exp {exp:?}");
        }
    }

    #[test]
    fn u64_engine_handles_single_limb_moduli() {
        // k64 = 1: the smallest fixed-width shape, where the carry ripple
        // in the reduction has no headroom.
        for n in ["9", "ffffffffffffffc5", "fffffffb"] {
            let n = bn(n);
            let ctx32 = MontCtx::with_limb_width(&n, LimbWidth::U32).unwrap();
            let ctx64 = MontCtx::with_limb_width(&n, LimbWidth::U64).unwrap();
            let base = bn("123456789");
            let exp = bn("abcdef");
            assert_eq!(ctx32.mod_exp(&base, &exp), ctx64.mod_exp(&base, &exp), "modulus {n:?}");
        }
    }

    #[test]
    fn scratch_serves_both_widths_interleaved() {
        let n = bn("fffffffffffffffffffffffffffffff1");
        let ctx32 = MontCtx::with_limb_width(&n, LimbWidth::U32).unwrap();
        let ctx64 = MontCtx::with_limb_width(&n, LimbWidth::U64).unwrap();
        let mut scratch = MontScratch::new();
        let base = bn("123456789abcdef");
        let exp = bn("abcdef123");
        let want = ctx32.mod_exp(&base, &exp);
        for _ in 0..3 {
            assert_eq!(ctx32.mod_exp_scratch(&base, &exp, &mut scratch), want);
            assert_eq!(ctx64.mod_exp_scratch(&base, &exp, &mut scratch), want);
        }
    }
}
