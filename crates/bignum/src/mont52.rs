//! Both RSA-1024 CRT halves in one AVX-512 IFMA loop — OpenSSL's RSAZ "x2"
//! kernel shape at 512-bit moduli.
//!
//! The paper closes on parallel crypto engines; this module applies the
//! idea to vector lanes. A 512-bit residue is ten 52-bit limbs held in one
//! 512-bit and one 256-bit register, and `VPMADD52LUQ`/`VPMADD52HUQ` add
//! the low and high 52 bits of eight (four) limb products per instruction.
//! Two things live here:
//!
//! * an **almost-Montgomery multiply** (AMM) with `R = 2^520`: for each limb
//!   `bᵢ` the accumulator gains `a·bᵢ + yᵢ·n` and shifts down one limb, with
//!   lane 0 tracked exactly in a scalar register (OpenSSL's `amm52x20_x2`
//!   scheme), then one carry normalisation. Its inputs and outputs stay
//!   below `2n`, which `4n < R` guarantees, so no operation ends in a
//!   conditional subtraction. Every multiply advances **two independent
//!   moduli** — the `p` and `q` halves of a CRT decryption — in one loop, so
//!   the two dependency chains hide each other's latency;
//! * a **lockstep fixed-window walk**: 5-bit windows over both exponents at
//!   once, a squaring chain and a multiplication for every window whatever
//!   its value, and each table entry read through a masked scan of the whole
//!   table (as OpenSSL's `ossl_extract_multiplier_2x20_win5` does). The
//!   private exponents therefore choose no branch, no operation count and
//!   no address; only the walk's length, the wider of the moduli and the
//!   exponents, is visible.
//!
//! This module is the crate's single island of `unsafe`: unaligned
//! loads and stores over exactly-sized limb arrays and the one call into
//! `#[target_feature]` code, behind a safe wrapper that checks the CPU
//! itself. The scalar kernels in `mont64.rs` and `mont.rs` are the
//! reference every test compares this one against.

#![allow(unsafe_code)]

use crate::Bn;
use sslperf_profile::counters;
use std::arch::x86_64::{
    __m256i, __m512i, _mm256_add_epi64, _mm256_alignr_epi64, _mm256_and_si256,
    _mm256_cmpeq_epi64_mask, _mm256_cmpgt_epu64_mask, _mm256_loadu_si256, _mm256_madd52hi_epu64,
    _mm256_madd52lo_epu64, _mm256_mask_blend_epi64, _mm256_mask_sub_epi64, _mm256_set1_epi64x,
    _mm256_setzero_si256, _mm256_srli_epi64, _mm256_storeu_si256, _mm512_add_epi64,
    _mm512_alignr_epi64, _mm512_and_si512, _mm512_castsi256_si512, _mm512_castsi512_si128,
    _mm512_castsi512_si256, _mm512_cmpeq_epi64_mask, _mm512_cmpgt_epu64_mask,
    _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
    _mm512_mask_blend_epi64, _mm512_mask_set1_epi64, _mm512_mask_sub_epi64, _mm512_set1_epi64,
    _mm512_setzero_si512, _mm512_srli_epi64, _mm512_storeu_si512, _mm_cvtsi128_si64,
};

/// Limbs of one residue: `10 × 52 = 520` bits, so `R = 2^520` and any
/// modulus below `2^518` keeps the almost-Montgomery bound `4n < R`.
const LIMBS: usize = 10;

/// Lanes one residue occupies: eight in a 512-bit register, four in a
/// 256-bit one; lanes 10 and 11 stay zero.
const LANES: usize = 12;

const MASK52: u64 = (1 << 52) - 1;

/// Window width of the walk, and its table of `2^WINDOW` powers.
const WINDOW: usize = 5;
const TABLE_LEN: usize = 1 << WINDOW;

/// One residue's limbs, least significant first.
type Limbs = [u64; LANES];

/// The `p` and `q` halves, advanced in lockstep.
type Pair = [Limbs; 2];

/// Whether this CPU has the 52-bit integer multiply-add (`avx512ifma`) and
/// the 256-bit forms of it and of the AVX-512 moves (`avx512vl`). The
/// standard library probes CPUID once per process and answers from its
/// cache afterwards.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512ifma")
}

/// An odd modulus below `2^512` prepared for the kernel.
#[derive(Debug, Clone)]
pub(crate) struct Mont52 {
    /// The modulus.
    n: Limbs,
    /// `-n⁻¹ mod 2⁵²`, the per-limb reduction multiplier.
    k0: u64,
    /// `R² mod n`: one AMM by it enters the Montgomery domain.
    rr: Limbs,
    /// `R mod n`: one, in the Montgomery domain.
    one: Limbs,
    /// Bit length of the modulus.
    bits: usize,
}

impl Mont52 {
    /// Prepares the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or 512 bits are too few for it: the callers
    /// hand over 8-limb moduli of an odd-modulus context only.
    pub(crate) fn new(n: &Bn) -> Self {
        assert!(n.is_odd() && n.bit_len() <= 512, "an odd modulus of at most 512 bits");
        let n0 = u64::from(n.words[0]) | n.words.get(1).map_or(0, |&w| u64::from(w) << 32);
        // Newton iteration for the inverse of n mod 2^64: six doublings of
        // precision starting from the trivial inverse mod 2.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        Mont52 {
            n: to_limbs(n),
            k0: inv.wrapping_neg() & MASK52,
            rr: to_limbs(&Bn::one().shl(2 * 52 * LIMBS).mod_op(n)),
            one: to_limbs(&Bn::one().shl(52 * LIMBS).mod_op(n)),
            bits: n.bit_len(),
        }
    }
}

/// `(baseᵢ^expᵢ mod nᵢ)` for both moduli, in one lockstep walk. Each base
/// must be below its modulus.
///
/// # Panics
///
/// Panics if the CPU lacks the unit ([`available`]) or a base is not
/// reduced.
pub(crate) fn mod_exp_pair(m: [&Mont52; 2], base: [&Bn; 2], exp: [&Bn; 2]) -> [Bn; 2] {
    assert!(available(), "IFMA kernel selected without the `avx512ifma` CPU feature");
    let bits = m[0].bits.max(m[1].bits).max(exp[0].bit_len()).max(exp[1].bit_len());
    let base = [0, 1].map(|t| {
        assert!(base[t].bit_len() <= m[t].bits, "base must be below its modulus");
        let limbs = to_limbs(base[t]);
        assert!(limbs.iter().rev().lt(m[t].n.iter().rev()), "base must be below its modulus");
        limbs
    });
    // SAFETY: `available` just verified every feature `exp_pair` enables.
    let r = unsafe { exp_pair(m, &base, exp, bits.div_ceil(WINDOW)) };
    [from_limbs(&r[0]), from_limbs(&r[1])]
}

/// `a` (below `2^520`) as ten 52-bit limbs.
fn to_limbs(a: &Bn) -> Limbs {
    let mut out = [0u64; LANES];
    let (mut acc, mut have, mut limb) = (0u128, 0usize, 0usize);
    for &w in &a.words {
        acc |= u128::from(w) << have;
        have += 32;
        while have >= 52 {
            out[limb] = acc as u64 & MASK52;
            (acc, have, limb) = (acc >> 52, have - 52, limb + 1);
        }
    }
    if have > 0 {
        out[limb] = acc as u64;
    }
    out
}

/// Normalised limbs back into a [`Bn`].
fn from_limbs(limbs: &Limbs) -> Bn {
    let mut words = Vec::with_capacity(2 * LIMBS);
    let (mut acc, mut have) = (0u128, 0usize);
    for &l in &limbs[..LIMBS] {
        acc |= u128::from(l) << have;
        have += 52;
        while have >= 32 {
            words.push(acc as u32);
            (acc, have) = (acc >> 32, have - 32);
        }
    }
    words.push(acc as u32);
    Bn::from_words(&words)
}

/// The `WINDOW` exponent bits starting at bit `pos`. Reads the words at a
/// position the walk fixes, never branching on their values.
fn window(exp: &Bn, pos: usize) -> u64 {
    let word = |i: usize| u64::from(exp.words.get(i).copied().unwrap_or(0));
    let (i, shift) = (pos / 32, pos % 32);
    ((word(i) | word(i + 1) << 32) >> shift) & (TABLE_LEN as u64 - 1)
}

/// `r mod n` for normalised `r ≤ n`: subtracts `n` and keeps the
/// difference by mask when it did not borrow.
fn final_sub(r: &Limbs, n: &Limbs) -> Limbs {
    let mut d = [0u64; LANES];
    let mut borrow = 0u64;
    for ((di, &ri), &ni) in d.iter_mut().zip(r).zip(n).take(LIMBS) {
        let t = ri.wrapping_sub(ni).wrapping_sub(borrow);
        *di = t & MASK52;
        borrow = t >> 63;
    }
    let keep_r = borrow.wrapping_neg();
    let mut out = [0u64; LANES];
    for ((o, &ri), &di) in out.iter_mut().zip(r).zip(&d) {
        *o = (ri & keep_r) | (di & !keep_r);
    }
    out
}

/// One residue's lanes as a 512-bit and a 256-bit register.
#[target_feature(enable = "avx512f,avx512vl")]
fn load(a: &Limbs) -> (__m512i, __m256i) {
    let p = a.as_ptr();
    // SAFETY: `a` is 12 readable `u64`s: the unaligned 64-byte load at
    // offset 0 and the 32-byte load at lane 8 tile it exactly.
    unsafe { (_mm512_loadu_si512(p.cast()), _mm256_loadu_si256(p.add(8).cast())) }
}

/// Stores a residue's two registers, lane order as in memory.
#[target_feature(enable = "avx512f,avx512vl")]
fn store(lo: __m512i, hi: __m256i) -> Limbs {
    let mut out = [0u64; LANES];
    let p = out.as_mut_ptr();
    // SAFETY: `out` is 12 writable `u64`s: the unaligned 64-byte store at
    // offset 0 and the 32-byte store at lane 8 tile it exactly.
    unsafe {
        _mm512_storeu_si512(p.cast(), lo);
        _mm256_storeu_si256(p.add(8).cast(), hi);
    }
    out
}

/// Almost-Montgomery multiply of both halves: `outᵢ ≡ aᵢ·bᵢ·R⁻¹ (mod nᵢ)`
/// with `outᵢ < 2nᵢ` for `aᵢ, bᵢ < 2nᵢ`, every limb below `2^52`.
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn amm(a: &Pair, b: &Pair, m: [&Mont52; 2]) -> Pair {
    counters::count("amm52x10_x2", LIMBS as u64);
    let av = [load(&a[0]), load(&a[1])];
    let nv = [load(&m[0].n), load(&m[1].n)];
    let mut lo = [_mm512_setzero_si512(); 2];
    let mut hi = [_mm256_setzero_si256(); 2];
    // Lane 0 of each accumulator, exactly: the vector lane 0 is discarded
    // by every shift, so the scalar carries its full-width products.
    let mut x0 = [0u64; 2];
    for (&b0, &b1) in b[0][..LIMBS].iter().zip(&b[1][..LIMBS]) {
        for (t, bi) in [b0, b1].into_iter().enumerate() {
            let acc = u128::from(x0[t]) + u128::from(a[t][0]) * u128::from(bi);
            let y = (acc as u64).wrapping_mul(m[t].k0) & MASK52;
            let acc = acc + u128::from(m[t].n[0]) * u128::from(y);
            let (bv, yv) = (_mm512_set1_epi64(bi as i64), _mm512_set1_epi64(y as i64));
            let (bh, yh) = (_mm512_castsi512_si256(bv), _mm512_castsi512_si256(yv));
            let ((a_lo, a_hi), (n_lo, n_hi)) = (av[t], nv[t]);
            lo[t] = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(lo[t], a_lo, bv), n_lo, yv);
            hi[t] = _mm256_madd52lo_epu64(_mm256_madd52lo_epu64(hi[t], a_hi, bh), n_hi, yh);
            // Shift one limb down, dropping lane 0: its exact value, a
            // multiple of 2^52, is `acc`, whose carry joins the new lane 0.
            lo[t] = _mm512_alignr_epi64::<1>(_mm512_castsi256_si512(hi[t]), lo[t]);
            hi[t] = _mm256_alignr_epi64::<1>(_mm256_setzero_si256(), hi[t]);
            x0[t] = (acc >> 52) as u64 + _mm_cvtsi128_si64(_mm512_castsi512_si128(lo[t])) as u64;
            // The high halves land one limb up, i.e. at the shifted lanes.
            lo[t] = _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(lo[t], a_lo, bv), n_lo, yv);
            hi[t] = _mm256_madd52hi_epu64(_mm256_madd52hi_epu64(hi[t], a_hi, bh), n_hi, yh);
        }
    }
    [normalize(lo[0], hi[0], x0[0]), normalize(lo[1], hi[1], x0[1])]
}

/// Brings redundant limbs (lane 0 from `x0`) back below `2^52`: one
/// vector carry step, then the single-bit carries rippled through runs of
/// all-ones limbs by an addition on lane masks.
#[target_feature(enable = "avx512f,avx512vl")]
fn normalize(lo: __m512i, hi: __m256i, x0: u64) -> Limbs {
    let lo = _mm512_mask_set1_epi64(lo, 1, x0 as i64);
    let (mask, mask_h) = (_mm512_set1_epi64(MASK52 as i64), _mm256_set1_epi64x(MASK52 as i64));
    let (c_lo, c_hi) = (_mm512_srli_epi64::<52>(lo), _mm256_srli_epi64::<52>(hi));
    // Carries one lane up: [0, c0..c6] and [c7, c8, c9, c10].
    let up_lo = _mm512_alignr_epi64::<7>(c_lo, _mm512_setzero_si512());
    let up_hi = _mm256_alignr_epi64::<3>(c_hi, _mm512_extracti64x4_epi64::<1>(c_lo));
    let lo = _mm512_add_epi64(_mm512_and_si512(lo, mask), up_lo);
    let hi = _mm256_add_epi64(_mm256_and_si256(hi, mask_h), up_hi);
    // Generate (above the mask) and propagate (equal to it) per lane; the
    // carry into each lane is ((g << 1) + p) ^ p.
    let g = u32::from(_mm512_cmpgt_epu64_mask(lo, mask))
        | u32::from(_mm256_cmpgt_epu64_mask(hi, mask_h)) << 8;
    let p = u32::from(_mm512_cmpeq_epi64_mask(lo, mask))
        | u32::from(_mm256_cmpeq_epi64_mask(hi, mask_h)) << 8;
    let carry = ((g << 1).wrapping_add(p)) ^ p;
    // lane − (2^52 − 1) ≡ lane + 1 (mod 2^52) where a carry enters.
    let lo = _mm512_and_si512(_mm512_mask_sub_epi64(lo, carry as u8, lo, mask), mask);
    let hi = _mm256_and_si256(_mm256_mask_sub_epi64(hi, (carry >> 8) as u8, hi, mask_h), mask_h);
    store(lo, hi)
}

/// Table entry `idx[t]` for each half, read through a masked scan of every
/// entry so the address stream is the same for any index.
#[target_feature(enable = "avx512f,avx512vl")]
fn select(table: &[Pair; TABLE_LEN], idx: [u64; 2]) -> Pair {
    let mut out = [[0u64; LANES]; 2];
    for (t, o) in out.iter_mut().enumerate() {
        let want = _mm512_set1_epi64(idx[t] as i64);
        let (mut lo, mut hi) = (_mm512_setzero_si512(), _mm256_setzero_si256());
        for (i, entry) in table.iter().enumerate() {
            let hit = _mm512_cmpeq_epi64_mask(_mm512_set1_epi64(i as i64), want);
            let (e_lo, e_hi) = load(&entry[t]);
            lo = _mm512_mask_blend_epi64(hit, lo, e_lo);
            hi = _mm256_mask_blend_epi64(hit, hi, e_hi);
        }
        *o = store(lo, hi);
    }
    out
}

/// The lockstep walk: builds both 32-entry tables, then for each of
/// `steps` windows (most significant first) five squarings and one
/// multiplication by the masked-scan entry, and finally leaves the
/// Montgomery domain.
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn exp_pair(m: [&Mont52; 2], base: &Pair, exp: [&Bn; 2], steps: usize) -> Pair {
    let mut table = [[[0u64; LANES]; 2]; TABLE_LEN];
    table[0] = [m[0].one, m[1].one];
    table[1] = amm(base, &[m[0].rr, m[1].rr], m);
    for i in 2..TABLE_LEN {
        table[i] = amm(&table[i - 1], &table[1], m);
    }
    let windows = |step: usize| [window(exp[0], WINDOW * step), window(exp[1], WINDOW * step)];
    let mut acc = select(&table, windows(steps - 1));
    for step in (0..steps - 1).rev() {
        for _ in 0..WINDOW {
            acc = amm(&acc, &acc, m);
        }
        acc = amm(&acc, &select(&table, windows(step)), m);
    }
    let mut one = [[0u64; LANES]; 2];
    (one[0][0], one[1][0]) = (1, 1);
    let r = amm(&acc, &one, m);
    [final_sub(&r[0], &m[0].n), final_sub(&r[1], &m[1].n)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LimbWidth, MontCtx};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Whether the kernel can run here; prints the one skip line if not.
    fn ifma_or_skip() -> bool {
        let here = available();
        if !here {
            println!("skipped: this CPU has no avx512ifma, mod_exp_pair is two scalar mod_exps");
        }
        here
    }

    fn bn(s: &str) -> Bn {
        Bn::from_hex(s).unwrap()
    }

    /// Two odd 512-bit moduli, as an RSA-1024 key's `p` and `q` are.
    fn moduli() -> [MontCtx; 2] {
        let p = "f7e75fdc469067ffdc4e847c51f452df2f1d5d3d1b5e3d9a2ba0a8bb3ac4e1dc\
                 33fa1eb3a1c7c1f0a2f5e5d6c2b3a4f5e6d7c8b9a0f1e2d3c4b5a69788796a5b";
        let q = "c2b1a09f8e7d6c5b4a39281706f5e4d3c2b1a09f8e7d6c5b4a3928170615f4e3\
                 8f7e6d5c4b3a29180716253443526170809fa0b1c2d3e4f5061728394a5b6c7d";
        [p, q].map(|n| MontCtx::with_limb_width(&bn(n), LimbWidth::U64).unwrap())
    }

    /// `mod_exp_pair` against the scalar u64 kernel and the
    /// square-and-multiply oracle, for one pair of inputs.
    fn check(ctx: &[MontCtx; 2], base: [&Bn; 2], exp: [&Bn; 2]) {
        let got = ctx[0].mod_exp_pair(base[0], exp[0], &ctx[1], base[1], exp[1]);
        for (t, r) in [got.0, got.1].iter().enumerate() {
            let scalar = ctx[t].mod_exp(base[t], exp[t]);
            assert_eq!(r, &scalar, "half {t}: base {:?} exp {:?}", base[t], exp[t]);
            let oracle = base[t].mod_exp_simple(exp[t], ctx[t].modulus());
            assert_eq!(r, &oracle, "half {t}: base {:?} exp {:?}", base[t], exp[t]);
        }
    }

    #[test]
    fn pair_matches_scalar_kernel_and_oracle_on_edges() {
        if !ifma_or_skip() {
            return;
        }
        let ctx = moduli();
        let [n0, n1] = [ctx[0].modulus(), ctx[1].modulus()];
        let ones = Bn::one().shl(512).sub(&Bn::one());
        let bases = [
            [Bn::zero(), Bn::zero()],
            [Bn::one(), Bn::one()],
            [n0.sub(&Bn::one()), n1.sub(&Bn::one())],
            [n0.add(&Bn::from_u64(5)), n1.clone()],
            [ones.shl(300), n1.mul(n0).add(&Bn::from_u64(7))],
            [bn("123456789abcdef0fedcba9876543210"), bn("deadbeefcafebabe")],
        ];
        let exps = [
            [Bn::zero(), Bn::zero()],
            [Bn::one(), Bn::one()],
            [ones.clone(), ones.clone()],
            [Bn::zero(), ones.clone()],
            // Unequal lengths, as dP and dQ usually are.
            [n0.sub(&Bn::from_u64(2)), bn("fedcba9876543210fedcba98765")],
            [Bn::one().shl(511), Bn::from_u64(65537)],
            // Longer than the moduli: the walk widens to the exponent.
            [ones.shl(64).add(&Bn::one()), Bn::from_u64(3)],
        ];
        for base in &bases {
            for exp in &exps {
                check(&ctx, [&base[0], &base[1]], [&exp[0], &exp[1]]);
            }
        }
        // A modulus with a square factor, 9·x: n divides (3x)^e for e ≥ 2,
        // so the walk can end on n itself, which the final subtraction
        // must map to 0.
        let x = n1.shr(4).add(&Bn::from_u64(u64::from(n1.shr(4).is_odd()) ^ 1));
        let square = MontCtx::with_limb_width(&x.mul(&Bn::from_u64(9)), LimbWidth::U64).unwrap();
        let ctx = [square, ctx[0].clone()];
        let base = x.mul(&Bn::from_u64(3));
        for exp in [Bn::from_u64(2), Bn::from_u64(3), ones] {
            check(&ctx, [&base, &base], [&exp, &exp]);
        }
    }

    /// Redundant lanes as one value: `Σ laneᵢ·2^(52i)`.
    fn lanes_value(lanes: &Limbs) -> Bn {
        lanes.iter().rev().fold(Bn::zero(), |acc, &l| acc.shl(52).add(&Bn::from_u64(l)))
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    fn normalize_lanes(lanes: &Limbs) -> Limbs {
        let (lo, hi) = load(lanes);
        normalize(lo, hi, lanes[0])
    }

    #[test]
    fn normalize_ripples_carries_through_all_ones_limbs() {
        if !ifma_or_skip() {
            return;
        }
        let ones = MASK52;
        // A carry generated in one lane must cross every all-ones lane
        // above it, within and across the two registers.
        let cases: [Limbs; 3] = [
            [1 << 53, ones - 1, ones, ones, 7, 0, 0, 0, 0, 0, 0, 0],
            [5, 9, 0, 0, 0, 3 << 52, ones - 2, ones, ones, 5, 0, 0],
            [(1 << 60) + 11, 1 << 58, ones, 1 << 52, ones, ones, ones, ones, 1 << 55, 42, 0, 0],
        ];
        for lanes in &cases {
            // SAFETY: `ifma_or_skip` verified every feature `normalize_lanes`
            // enables.
            let got = unsafe { normalize_lanes(lanes) };
            assert!(got.iter().all(|&l| l <= MASK52), "{got:x?}");
            assert_eq!(from_limbs(&got), lanes_value(lanes), "{lanes:x?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn pair_matches_scalar_kernel_on_random_512_bit_moduli(
            n in vec(any::<u32>(), 32..=32),
            base in vec(any::<u32>(), 0..20),
            exp in vec(any::<u32>(), 0..17),
            other_exp in vec(any::<u32>(), 0..17),
        ) {
            if !available() {
                return Ok(());
            }
            // Two odd moduli with the top bit set, from one draw.
            let halves = [&n[..16], &n[16..]].map(|w| {
                let mut w = w.to_vec();
                w[0] |= 1;
                w[15] |= 1 << 31;
                MontCtx::with_limb_width(&Bn::from_words(&w), LimbWidth::U64).unwrap()
            });
            let (base, exp, other_exp) =
                (Bn::from_words(&base), Bn::from_words(&exp), Bn::from_words(&other_exp));
            let other_base = base.add(&Bn::from_u64(0x9e37_79b9));
            let got = halves[0].mod_exp_pair(&base, &exp, &halves[1], &other_base, &other_exp);
            prop_assert_eq!(got.0, halves[0].mod_exp(&base, &exp));
            prop_assert_eq!(got.1, halves[1].mod_exp(&other_base, &other_exp));
        }
    }

    #[test]
    fn pair_books_the_same_amm_count_for_every_exponent() {
        if !ifma_or_skip() {
            return;
        }
        let ctx = moduli();
        let base = bn("123456789abcdef0fedcba9876543210");
        let top = Bn::one().shl(511);
        let random = ctx[0].modulus().sub(&bn("9e3779b97f4a7c15f39cc0605cedc834"));
        let pairs = [
            // All-zero windows below the leading bit.
            [top.clone(), top.clone()],
            // One set bit, in different windows.
            [Bn::one().shl(300), Bn::one().shl(7)],
            [random.clone(), top.clone()],
            [random.clone(), random.shr(1)],
            [Bn::zero(), Bn::one()],
        ];
        let counts: Vec<_> = pairs
            .iter()
            .map(|[e, f]| {
                let (_, snap) = counters::counted(|| {
                    let _ = ctx[0].mod_exp_pair(&base, e, &ctx[1], &base, f);
                });
                assert_eq!(snap.calls("mont_mul64") + snap.calls("mont_sqr64"), 0);
                (snap.calls("amm52x10_x2"), snap.units("amm52x10_x2"))
            })
            .collect();
        // 512 bits are 103 windows: base·R, 30 table products, 102 × (5
        // squarings + 1 product), and one to leave the domain.
        assert_eq!(counts[0], (1 + 30 + 102 * 6 + 1, 10 * 644));
        assert!(counts.iter().all(|&c| c == counts[0]), "counts differ: {counts:?}");
    }
}
