//! The hardware compression unit: x86-64 SHA extensions.
//!
//! The paper's §6.2 answer to "91–92 % of a hash is the Update block
//! operation" (Table 10) is a dedicated round unit per algorithm. On x86-64
//! that unit exists as instructions: `SHA1RNDS4` runs four SHA-1 steps and
//! `SHA256RNDS2` two SHA-256 rounds, with `SHA1MSG1/2`, `SHA1NEXTE` and
//! `SHA256MSG1/2` computing the message schedule. Both kernels here take a
//! whole run of blocks and keep the chaining state in registers across it.
//!
//! This module is the crate's single island of `unsafe` — three unaligned
//! load/store helpers over exactly-sized arrays and the two calls into
//! `#[target_feature]` code — kept behind safe wrappers that check the CPU
//! themselves. The portable functions in `sha1.rs`/`sha256.rs` are the
//! reference every test compares these kernels against.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

/// Whether this CPU has the SHA unit (`sha`) and the byte shuffles the
/// kernels feed it with (`ssse3`). The standard library probes CPUID once
/// per process and answers from its cache afterwards.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha") && is_x86_feature_detected!("ssse3")
}

/// Runs the SHA-1 block operation over `blocks`, in order.
///
/// # Panics
///
/// Panics if the CPU lacks the unit.
pub(crate) fn sha1_compress(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    assert!(available(), "SHA unit selected without the `sha` CPU feature");
    // SAFETY: the `sha` and `ssse3` features were just verified.
    unsafe { sha1_impl(state, blocks) }
}

/// Runs the SHA-256 block operation over `blocks`, in order.
///
/// # Panics
///
/// Panics if the CPU lacks the unit.
pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    assert!(available(), "SHA unit selected without the `sha` CPU feature");
    // SAFETY: the `sha` and `ssse3` features were just verified.
    unsafe { sha256_impl(state, blocks) }
}

/// The four 16-byte quarters of one block, bytes as they lie in memory.
#[inline(always)]
fn load_block(block: &[u8; 64]) -> [__m128i; 4] {
    let p = block.as_ptr();
    // SAFETY: `block` is 64 readable bytes, which the four unaligned
    // 16-byte loads at offsets 0, 16, 32 and 48 tile exactly.
    unsafe {
        [
            _mm_loadu_si128(p.cast()),
            _mm_loadu_si128(p.add(16).cast()),
            _mm_loadu_si128(p.add(32).cast()),
            _mm_loadu_si128(p.add(48).cast()),
        ]
    }
}

/// Four words as one vector, `words[0]` in lane 0.
#[inline(always)]
fn load_words(words: &[u32; 4]) -> __m128i {
    // SAFETY: `words` is exactly 16 readable bytes; the load is unaligned.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

/// The four lanes of `v`, lane 0 first.
#[inline(always)]
fn store_words(v: __m128i) -> [u32; 4] {
    let mut words = [0u32; 4];
    // SAFETY: `words` is exactly 16 writable bytes; the store is unaligned.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) };
    words
}

/// Four SHA-1 steps with round function `$f` on message words `$w`: folds
/// the previous group's `a` (held in `$e`) into the words as the new `e`,
/// and leaves this group's incoming `abcd` in `$e` for the next one.
macro_rules! sha1_group {
    ($f:literal, $abcd:ident, $e:ident, $w:expr) => {{
        let e_in = _mm_sha1nexte_epu32($e, $w);
        $e = $abcd;
        $abcd = _mm_sha1rnds4_epu32::<$f>($abcd, e_in);
    }};
}

/// The SHA-1 schedule, four words at a time: `$w0..$w3` hold `W[t-16..t]`;
/// afterwards `$w0` holds `W[t..t+4]`.
macro_rules! sha1_schedule {
    ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
        $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
    };
}

#[target_feature(enable = "sha,ssse3")]
fn sha1_impl(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    // The unit reads big-endian words with the first in the highest lane.
    let flip = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|w| w as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e = _mm_set_epi32(e, 0, 0, 0);

    for block in blocks {
        let (abcd_in, e_in) = (abcd, e);
        let [q0, q1, q2, q3] = load_block(block);
        let mut w0 = _mm_shuffle_epi8(q0, flip);
        let mut w1 = _mm_shuffle_epi8(q1, flip);
        let mut w2 = _mm_shuffle_epi8(q2, flip);
        let mut w3 = _mm_shuffle_epi8(q3, flip);

        // Steps 0–3 take `e` as it is; every later group derives its `e`
        // from the `a` of four steps earlier via SHA1NEXTE.
        let e0 = _mm_add_epi32(e, w0);
        e = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        sha1_group!(0, abcd, e, w1);
        sha1_group!(0, abcd, e, w2);
        sha1_group!(0, abcd, e, w3);
        sha1_schedule!(w0, w1, w2, w3);
        sha1_group!(0, abcd, e, w0);

        sha1_schedule!(w1, w2, w3, w0);
        sha1_group!(1, abcd, e, w1);
        sha1_schedule!(w2, w3, w0, w1);
        sha1_group!(1, abcd, e, w2);
        sha1_schedule!(w3, w0, w1, w2);
        sha1_group!(1, abcd, e, w3);
        sha1_schedule!(w0, w1, w2, w3);
        sha1_group!(1, abcd, e, w0);
        sha1_schedule!(w1, w2, w3, w0);
        sha1_group!(1, abcd, e, w1);

        sha1_schedule!(w2, w3, w0, w1);
        sha1_group!(2, abcd, e, w2);
        sha1_schedule!(w3, w0, w1, w2);
        sha1_group!(2, abcd, e, w3);
        sha1_schedule!(w0, w1, w2, w3);
        sha1_group!(2, abcd, e, w0);
        sha1_schedule!(w1, w2, w3, w0);
        sha1_group!(2, abcd, e, w1);
        sha1_schedule!(w2, w3, w0, w1);
        sha1_group!(2, abcd, e, w2);

        sha1_schedule!(w3, w0, w1, w2);
        sha1_group!(3, abcd, e, w3);
        sha1_schedule!(w0, w1, w2, w3);
        sha1_group!(3, abcd, e, w0);
        sha1_schedule!(w1, w2, w3, w0);
        sha1_group!(3, abcd, e, w1);
        sha1_schedule!(w2, w3, w0, w1);
        sha1_group!(3, abcd, e, w2);
        sha1_schedule!(w3, w0, w1, w2);
        sha1_group!(3, abcd, e, w3);

        // Feed-forward: `e` holds step 76's `a`, which is the final `e`
        // before its rotate; SHA1NEXTE rotates it and adds the saved one.
        e = _mm_sha1nexte_epu32(e, e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);
    }

    let [d, c, b, a] = store_words(abcd);
    *state = [a, b, c, d, store_words(e)[3]];
}

/// Four SHA-256 rounds on message words `$w` plus round constants `$k`.
macro_rules! sha256_group {
    ($abef:ident, $cdgh:ident, $w:expr, $k:expr) => {{
        let wk = _mm_add_epi32($w, load_words($k));
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }};
}

/// The SHA-256 schedule, four words at a time: `$w0..$w3` hold
/// `W[t-16..t]`; afterwards `$w0` holds `W[t..t+4]`.
macro_rules! sha256_schedule {
    ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
        $w0 = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8::<4>($w3, $w2)),
            $w3,
        );
    };
}

#[target_feature(enable = "sha,ssse3")]
fn sha256_impl(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let flip = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let (k, _) = crate::sha256::K.as_chunks::<4>();
    // SHA256RNDS2 wants the state split as (a, b, e, f) and (c, d, g, h).
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let [q0, q1, q2, q3] = load_block(block);
        let mut w0 = _mm_shuffle_epi8(q0, flip);
        let mut w1 = _mm_shuffle_epi8(q1, flip);
        let mut w2 = _mm_shuffle_epi8(q2, flip);
        let mut w3 = _mm_shuffle_epi8(q3, flip);

        sha256_group!(abef, cdgh, w0, &k[0]);
        sha256_group!(abef, cdgh, w1, &k[1]);
        sha256_group!(abef, cdgh, w2, &k[2]);
        sha256_group!(abef, cdgh, w3, &k[3]);
        for k in k[4..].as_chunks::<4>().0 {
            sha256_schedule!(w0, w1, w2, w3);
            sha256_group!(abef, cdgh, w0, &k[0]);
            sha256_schedule!(w1, w2, w3, w0);
            sha256_group!(abef, cdgh, w1, &k[1]);
            sha256_schedule!(w2, w3, w0, w1);
            sha256_group!(abef, cdgh, w2, &k[2]);
            sha256_schedule!(w3, w0, w1, w2);
            sha256_group!(abef, cdgh, w3, &k[3]);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let [f, e, b, a] = store_words(abef);
    let [h, g, d, c] = store_words(cdgh);
    *state = [a, b, c, d, e, f, g, h];
}
