//! Property-based tests over the core data structures and invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use sslperf::bignum::Bn;
use sslperf::prelude::*;

fn bn_from(words: &[u32]) -> Bn {
    Bn::from_words(words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- bignum ring axioms ----

    #[test]
    fn add_commutes(a in vec(any::<u32>(), 0..8), b in vec(any::<u32>(), 0..8)) {
        let (a, b) = (bn_from(&a), bn_from(&b));
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_then_sub_is_identity(a in vec(any::<u32>(), 0..8), b in vec(any::<u32>(), 0..8)) {
        let (a, b) = (bn_from(&a), bn_from(&b));
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_commutes_and_distributes(
        a in vec(any::<u32>(), 0..6),
        b in vec(any::<u32>(), 0..6),
        c in vec(any::<u32>(), 0..6),
    ) {
        let (a, b, c) = (bn_from(&a), bn_from(&b), bn_from(&c));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn division_reconstructs(a in vec(any::<u32>(), 0..10), b in vec(1u32.., 1..6)) {
        let (a, b) = (bn_from(&a), bn_from(&b));
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let product = Bn::from_u64(a).mul(&Bn::from_u64(b));
        let expect = u128::from(a) * u128::from(b);
        let got = u128::from_str_radix(&product.to_hex(), 16).expect("hex parses");
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn mod_exp_matches_naive(base in any::<u64>(), exp in 0u32..64, modulus in 3u64..1_000_000) {
        let m = Bn::from_u64(modulus | 1); // odd
        let got = Bn::from_u64(base).mod_exp(&Bn::from_u64(u64::from(exp)), &m);
        let expect = Bn::from_u64(base).mod_exp_simple(&Bn::from_u64(u64::from(exp)), &m);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn bytes_round_trip(bytes in vec(any::<u8>(), 0..64)) {
        let bn = Bn::from_bytes_be(&bytes);
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        prop_assert_eq!(bn.to_bytes_be(), &bytes[skip..]);
    }

    // ---- ciphers ----

    #[test]
    fn aes_round_trips(key in vec(any::<u8>(), 16..=16), block in vec(any::<u8>(), 16..=16)) {
        let aes = Aes::new(&key).expect("16-byte key");
        let mut buf: [u8; 16] = block.clone().try_into().expect("16 bytes");
        aes.encrypt_block(&mut buf);
        aes.decrypt_block(&mut buf);
        prop_assert_eq!(buf.to_vec(), block);
    }

    #[test]
    fn des3_round_trips(key in vec(any::<u8>(), 24..=24), block in vec(any::<u8>(), 8..=8)) {
        let des3 = Des3::new(&key).expect("24-byte key");
        let mut buf: [u8; 8] = block.clone().try_into().expect("8 bytes");
        des3.encrypt_block(&mut buf);
        des3.decrypt_block(&mut buf);
        prop_assert_eq!(buf.to_vec(), block);
    }

    #[test]
    fn cbc_round_trips(
        key in vec(any::<u8>(), 16..=16),
        iv in vec(any::<u8>(), 16..=16),
        blocks in 1usize..8,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..blocks * 16).map(|i| seed.wrapping_add(i as u8)).collect();
        let mut enc = Cbc::new(Aes::new(&key).expect("key"), iv.clone()).expect("iv");
        let mut dec = Cbc::new(Aes::new(&key).expect("key"), iv).expect("iv");
        let mut buf = data.clone();
        enc.encrypt(&mut buf).expect("aligned");
        dec.decrypt(&mut buf).expect("aligned");
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn rc4_is_involutive(key in vec(any::<u8>(), 1..64), data in vec(any::<u8>(), 0..256)) {
        let mut a = Rc4::new(&key).expect("key");
        let mut b = Rc4::new(&key).expect("key");
        let mut buf = data.clone();
        a.process(&mut buf);
        b.process(&mut buf);
        prop_assert_eq!(buf, data);
    }

    // ---- hashes ----

    #[test]
    fn streaming_equals_oneshot(data in vec(any::<u8>(), 0..512), cut in any::<prop::sample::Index>()) {
        let split = cut.index(data.len() + 1);
        let mut md5 = Md5::new();
        md5.update(&data[..split]);
        md5.update(&data[split..]);
        prop_assert_eq!(md5.finalize(), Md5::digest(&data));
        let mut sha = Sha1::new();
        sha.update(&data[..split]);
        sha.update(&data[split..]);
        prop_assert_eq!(sha.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn hmac_is_deterministic_and_keyed(
        key in vec(any::<u8>(), 0..100),
        data in vec(any::<u8>(), 0..200),
    ) {
        let a = Hmac::mac(HashAlg::Sha1, &key, &data);
        let b = Hmac::mac(HashAlg::Sha1, &key, &data);
        prop_assert_eq!(&a, &b);
        let mut other_key = key.clone();
        other_key.push(1);
        prop_assert_ne!(a, Hmac::mac(HashAlg::Sha1, &other_key, &data));
    }

    // ---- record layer ----

    // Payloads reach past two full fragments, so the multi-record split
    // is covered; the wire is opened record by record, walking the record
    // headers.
    #[test]
    fn record_layer_round_trips_any_payload(
        payload in vec(any::<u8>(), 0..40_000),
        suite_idx in 0usize..6,
    ) {
        use sslperf::ssl::{ContentType, RecordBuffer, RecordLayer, MAX_FRAGMENT, RECORD_HEADER_LEN};

        let suite = CipherSuite::ALL[suite_idx];
        let key = vec![0x42u8; suite.key_len()];
        let iv = vec![0x17u8; suite.iv_len()];
        let mac = vec![0x5au8; suite.mac_alg().output_len()];
        let mut tx = RecordLayer::new();
        tx.activate_write(suite.new_cipher(&key, &iv).expect("cipher"), suite.mac_alg(), mac.clone());
        let mut rx = RecordLayer::new();
        rx.activate_read(suite.new_cipher(&key, &iv).expect("cipher"), suite.mac_alg(), mac);
        let mut wire = RecordBuffer::new();
        tx.seal_into(ContentType::ApplicationData, &payload, &mut wire).expect("seal");

        let mut rest = wire.as_slice();
        let mut record = RecordBuffer::new();
        let mut glued = Vec::new();
        let mut records = 0;
        while !rest.is_empty() {
            let len = RECORD_HEADER_LEN + usize::from(u16::from_be_bytes([rest[3], rest[4]]));
            record.clear();
            record.extend_from_slice(&rest[..len]);
            rest = &rest[len..];
            let (ct, range) = rx.open_in_place(&mut record).expect("open");
            prop_assert_eq!(ct, ContentType::ApplicationData);
            glued.extend_from_slice(&record.as_slice()[range]);
            records += 1;
        }
        prop_assert_eq!(records, payload.len().div_ceil(MAX_FRAGMENT).max(1));
        prop_assert_eq!(glued, payload);
    }

    // ---- SSLv3 KDF ----

    #[test]
    fn kdf_output_deterministic_and_sensitive(
        secret in vec(any::<u8>(), 1..64),
        r1 in vec(any::<u8>(), 32..=32),
        r2 in vec(any::<u8>(), 32..=32),
    ) {
        let a = sslperf::ssl::kdf::derive(&secret, &r1, &r2, 64);
        prop_assert_eq!(&a, &sslperf::ssl::kdf::derive(&secret, &r1, &r2, 64));
        let mut secret2 = secret.clone();
        secret2[0] ^= 1;
        prop_assert_ne!(a, sslperf::ssl::kdf::derive(&secret2, &r1, &r2, 64));
    }

    // ---- adversarial bignum shapes ----
    //
    // The random-word generators above rarely produce the operand shapes
    // that break schoolbook division and Montgomery reduction in practice:
    // divisors longer than dividends, limbs of all ones (maximum carry
    // propagation), and operands straddling word boundaries (2^32k ± ε).
    // These strategies construct exactly those shapes.

    /// Divisor one word longer than the dividend: the quotient must be
    /// zero and the remainder the dividend itself, with no scratch-space
    /// under/overflow in the normalisation step.
    #[test]
    fn division_by_longer_divisor_is_identity(
        a in vec(any::<u32>(), 0..6),
        extra in 1u32..,
    ) {
        let dividend = bn_from(&a);
        let mut wider = a.clone();
        wider.push(extra); // strictly one word longer, top word nonzero
        let divisor = bn_from(&wider);
        prop_assume!(!divisor.is_zero());
        let (q, r) = dividend.div_rem(&divisor);
        prop_assert!(q.is_zero(), "quotient must be zero: {}", q.to_hex());
        prop_assert_eq!(r, dividend);
    }

    /// All-ones limbs everywhere: dividend and divisor both 2^32k - 1
    /// shapes, the maximum-carry stress for the trial-digit loop.
    #[test]
    fn division_survives_all_ones_limbs(a_len in 1usize..10, b_len in 1usize..6) {
        let a = bn_from(&vec![u32::MAX; a_len]);
        let b = bn_from(&vec![u32::MAX; b_len]);
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        // (2^(32k)-1) mod (2^(32j)-1) = 2^(32*(k mod j))-1: check against
        // the closed form.
        let expect_r = bn_from(&vec![u32::MAX; a_len % b_len]);
        prop_assert_eq!(a.mod_op(&b), expect_r);
    }

    /// Operands straddling word boundaries (2^32k ± ε for tiny ε): the
    /// shapes where a sloppy normalisation or borrow drops a limb.
    #[test]
    fn division_at_word_boundaries_reconstructs(
        k in 1usize..8,
        j in 1usize..5,
        eps_a in 0u32..3,
        eps_b in 1u32..3,
        sign_a in any::<bool>(),
        sign_b in any::<bool>(),
    ) {
        let boundary = |words: usize, eps: u32, plus: bool| {
            let mut v = vec![0u32; words];
            v.push(1); // 2^(32*words)
            let base = bn_from(&v);
            let eps = Bn::from_u64(u64::from(eps));
            if plus { base.add(&eps) } else { base.sub(&eps) }
        };
        let a = boundary(k, eps_a, sign_a);
        let b = boundary(j, eps_b, sign_b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        // Word-sized divisor path must agree with the general path.
        let (qw, rw) = a.div_rem_word(3);
        prop_assert_eq!(qw.mul(&Bn::from_u64(3)).add(&Bn::from_u64(u64::from(rw))), a);
        prop_assert_eq!(a.mod_word(3), rw);
    }

    /// Montgomery multiply equals plain modular multiply on adversarial
    /// moduli: all-ones limbs (2^32k - 1 is odd) and boundary+1 shapes.
    #[test]
    fn mont_mul_matches_mod_mul_on_adversarial_moduli(
        n_len in 1usize..6,
        a in vec(any::<u32>(), 0..6),
        b in vec(any::<u32>(), 0..6),
        boundary_modulus in any::<bool>(),
    ) {
        use sslperf::bignum::MontCtx;
        let n = if boundary_modulus {
            // 2^(32k) + 1: odd, single high limb, zeros in between.
            let mut v = vec![1u32];
            v.extend(std::iter::repeat_n(0, n_len.saturating_sub(1)));
            v.push(1);
            bn_from(&v)
        } else {
            bn_from(&vec![u32::MAX; n_len]) // 2^(32k) - 1: odd, all ones
        };
        prop_assume!(!n.is_one());
        let ctx = MontCtx::new(&n).expect("odd modulus");
        let (a, b) = (bn_from(&a).mod_op(&n), bn_from(&b).mod_op(&n));
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        prop_assert_eq!(ctx.from_mont(&ctx.mont_mul(&am, &bm)), a.mod_mul(&b, &n));
        prop_assert_eq!(ctx.from_mont(&ctx.mont_sqr(&am)), a.mod_mul(&a, &n));
        // Round trip: to_mont then from_mont is the identity on residues.
        prop_assert_eq!(ctx.from_mont(&am), a);
    }

    /// Montgomery exponentiation (square-and-multiply and windowed) agrees
    /// with the naive oracle on the same adversarial moduli.
    #[test]
    fn mont_exp_matches_naive_on_adversarial_moduli(
        n_len in 1usize..4,
        base in vec(any::<u32>(), 0..4),
        exp in vec(any::<u32>(), 0..3),
        window in 2u32..6,
    ) {
        use sslperf::bignum::MontCtx;
        let n = bn_from(&vec![u32::MAX; n_len]);
        prop_assume!(!n.is_one());
        let ctx = MontCtx::new(&n).expect("odd modulus");
        let base = bn_from(&base).mod_op(&n);
        let exp = bn_from(&exp);
        let expect = base.mod_exp_simple(&exp, &n);
        prop_assert_eq!(ctx.mod_exp(&base, &exp), expect.clone());
        prop_assert_eq!(ctx.mod_exp_window(&base, &exp, window), expect);
    }
}

// ---- u32 vs u64 Montgomery differentials ----
//
// The u64 path runs one fused multiply and one square-then-reduce over
// 64-bit limbs, instantiated at 8, 16 and 32 limbs and at the dynamic
// length for every other width; the u32 family stays compiled for the
// paper's Table 8 attribution. The two must compute identical big integers
// on every operand shape; these tests pin them to each other and to `Bn`
// as the algebraic oracle, over the adversarial shapes that break carry
// chains in practice (all-ones limbs, word-boundary ±ε, length skew).

/// Builds an adversarial limb vector from raw generated words: shape 0
/// keeps them as-is, shape 1 is all-ones limbs of the same length
/// (maximum carry propagation), shape 2 is the word boundary 2^32k + ε
/// (a lone high limb over a zero run).
fn shaped_limbs(shape: usize, raw: &[u32], eps: u32) -> Vec<u32> {
    match shape {
        0 => raw.to_vec(),
        1 => vec![u32::MAX; raw.len()],
        _ => {
            let mut v = vec![0u32; raw.len()];
            v[0] = eps;
            v.push(1);
            v
        }
    }
}

/// The limb counts of the fused-kernel differential: 8, 16 and 32 run the
/// constant-width instantiations, the rest the dynamic one (1 has no cross
/// products to square, 33 is the first width past the widest instantiation).
const KERNEL_LIMBS: [usize; 8] = [1, 3, 8, 12, 16, 24, 32, 33];

/// An odd modulus of exactly `limbs` 64-bit limbs cut from `raw`: shape 0
/// is all-ones limbs, shape 1 random with the top bit set, shape 2 random
/// under a top limb of 1 (the smallest modulus of that limb count).
fn kernel_modulus(shape: usize, limbs: usize, raw: &[u32]) -> Bn {
    let mut words = raw[..2 * limbs].to_vec();
    match shape {
        0 => words.fill(u32::MAX),
        1 => words[2 * limbs - 1] |= 1 << 31,
        _ => {
            words[2 * limbs - 1] = 0;
            words[2 * limbs - 2] = 1;
        }
    }
    words[0] |= 1;
    bn_from(&words)
}

/// A residue mod `n` by shape: 0, 1, n − 1, all-ones limbs of `n`'s own
/// width (reduced), or the raw words (reduced).
fn kernel_operand(shape: usize, n: &Bn, raw: &[u32]) -> Bn {
    match shape {
        0 => Bn::zero(),
        1 => Bn::one(),
        2 => n.sub(&Bn::one()),
        3 => bn_from(&vec![u32::MAX; n.word_len().next_multiple_of(2)]).mod_op(n),
        _ => bn_from(&raw[..n.word_len()]).mod_op(n),
    }
}

/// The ffdhe2048 group's context and its comb for `g = 2` on one limb
/// width, built once per width for the whole test binary.
fn ffdhe2048_comb(
    width: sslperf::bignum::LimbWidth,
) -> &'static (sslperf::bignum::MontCtx, sslperf::bignum::FixedBaseComb) {
    use sslperf::bignum::{FixedBaseComb, LimbWidth, MontCtx};
    use std::sync::OnceLock;
    static COMBS: [OnceLock<(MontCtx, FixedBaseComb)>; 2] = [OnceLock::new(), OnceLock::new()];
    COMBS[usize::from(width == LimbWidth::U64)].get_or_init(|| {
        let p = Bn::from_hex(sslperf::ssl::dhe::FFDHE2048_P_HEX).expect("ffdhe2048 prime");
        let ctx = MontCtx::with_limb_width(&p, width).expect("odd modulus");
        let comb = ctx.fixed_base_comb(&Bn::from_u64(2), 256);
        (ctx, comb)
    })
}

/// Comb and ladder agree on `exp` under both limb widths, and the widths
/// agree with each other.
fn comb_matches_ladder(exp: &Bn) -> Result<(), proptest::test_runner::TestCaseError> {
    use sslperf::bignum::LimbWidth;
    let g = Bn::from_u64(2);
    let (ctx32, comb32) = ffdhe2048_comb(LimbWidth::U32);
    let (ctx64, comb64) = ffdhe2048_comb(LimbWidth::U64);
    let want = ctx32.mod_exp(&g, exp);
    prop_assert!(comb32.pow(exp) == want, "u32 comb differs at exp {}", exp.to_hex());
    prop_assert!(comb64.pow(exp) == want, "u64 comb differs at exp {}", exp.to_hex());
    prop_assert!(ctx64.mod_exp(&g, exp) == want, "u64 ladder differs at exp {}", exp.to_hex());
    Ok(())
}

/// The comb's corner exponents: 1, the pinned top bit alone, every bit
/// set, one bit in every row of a column (table index 255), and a lone
/// bit in each row at the first and last column (indices 1, 2, 4, … 128).
#[test]
fn fixed_base_comb_matches_ladder_on_corner_exponents() {
    let bit = |i: usize| Bn::one().shl(i);
    let mut exps = vec![Bn::one(), bit(255), bit(256).sub(&Bn::one())];
    for col in [0, 1, 15, 31] {
        exps.push((0..8).fold(Bn::zero(), |e, row| e.add(&bit(32 * row + col))));
    }
    for row in 0..8 {
        exps.extend([bit(32 * row), bit(32 * row + 31)]);
    }
    for exp in &exps {
        comb_matches_ladder(exp).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dedicated squaring equals general multiplication on the shapes that
    /// stress the cross-product carry cells.
    #[test]
    fn bn_sqr_matches_mul_on_adversarial_shapes(
        shape in 0usize..3,
        raw in vec(any::<u32>(), 1..8),
        eps in 0u32..3,
    ) {
        let a = bn_from(&shaped_limbs(shape, &raw, eps));
        prop_assert_eq!(a.sqr(), a.mul(&a));
    }

    /// The whole Montgomery engine across widths: `to_mont`/`from_mont`
    /// round trips, `mont_mul`, `mont_sqr`, `mod_exp`, and every window
    /// size agree between `LimbWidth::U32` and `LimbWidth::U64` on
    /// adversarial moduli — all-ones, boundary 2^32k + 1 (odd limb counts
    /// exercise the u64 engine's padded top limb), and random odd.
    #[test]
    fn mont_engine_agrees_across_limb_widths(
        shape in 0usize..3,
        n_words in vec(any::<u32>(), 1..7),
        a in vec(any::<u32>(), 0..7),
        b in vec(any::<u32>(), 0..7),
        exp in vec(any::<u32>(), 0..4),
        window in 1u32..6,
    ) {
        use sslperf::bignum::{LimbWidth, MontCtx};
        let n = match shape {
            0 => bn_from(&vec![u32::MAX; n_words.len()]),
            1 => {
                let mut v = vec![1u32];
                v.extend(std::iter::repeat_n(0, n_words.len() - 1));
                v.push(1);
                bn_from(&v)
            }
            _ => {
                let mut v = n_words.clone();
                v[0] |= 1;
                bn_from(&v)
            }
        };
        prop_assume!(!n.is_one());
        let c32 = MontCtx::with_limb_width(&n, LimbWidth::U32).expect("odd modulus");
        let c64 = MontCtx::with_limb_width(&n, LimbWidth::U64).expect("odd modulus");
        let a = bn_from(&a).mod_op(&n);
        let b = bn_from(&b).mod_op(&n);
        let exp = bn_from(&exp);

        // Montgomery residues differ across widths when R differs (odd
        // u32 limb counts round up to a larger u64 R), so every
        // comparison goes through each context's own from_mont.
        let (a32, b32) = (c32.to_mont(&a), c32.to_mont(&b));
        let (a64, b64) = (c64.to_mont(&a), c64.to_mont(&b));
        prop_assert_eq!(c32.from_mont(&a32), a.clone());
        prop_assert_eq!(c64.from_mont(&a64), a.clone());
        prop_assert_eq!(
            c32.from_mont(&c32.mont_mul(&a32, &b32)),
            c64.from_mont(&c64.mont_mul(&a64, &b64)));
        prop_assert_eq!(
            c32.from_mont(&c32.mont_sqr(&a32)),
            c64.from_mont(&c64.mont_sqr(&a64)));
        prop_assert_eq!(c32.mod_exp(&a, &exp), c64.mod_exp(&a, &exp));
        prop_assert_eq!(
            c32.mod_exp_window(&a, &exp, window),
            c64.mod_exp_window(&a, &exp, window));
    }

    /// The fused u64 multiply, square-then-reduce and exponentiation
    /// against the u32 path and the `Bn` oracle at every instantiation
    /// ([`KERNEL_LIMBS`]), on moduli and operands that saturate the carry
    /// chains: all-ones limbs, 0, 1 and n − 1.
    #[test]
    fn fused_u64_kernels_agree_with_u32_at_every_width(
        limbs_sel in 0usize..KERNEL_LIMBS.len(),
        n_shape in 0usize..3,
        a_shape in 0usize..5,
        b_shape in 0usize..5,
        raw_n in vec(any::<u32>(), 66..=66),
        raw_a in vec(any::<u32>(), 66..=66),
        raw_b in vec(any::<u32>(), 66..=66),
        exp in vec(any::<u32>(), 0..3),
    ) {
        use sslperf::bignum::{LimbWidth, MontCtx};
        let limbs = KERNEL_LIMBS[limbs_sel];
        let n = kernel_modulus(n_shape, limbs, &raw_n);
        prop_assume!(!n.is_one());
        prop_assert_eq!(n.word_len().div_ceil(2), limbs);
        let c32 = MontCtx::with_limb_width(&n, LimbWidth::U32).expect("odd modulus");
        let c64 = MontCtx::with_limb_width(&n, LimbWidth::U64).expect("odd modulus");
        let a = kernel_operand(a_shape, &n, &raw_a);
        let b = kernel_operand(b_shape, &n, &raw_b);
        let exp = bn_from(&exp);

        let (a64, b64) = (c64.to_mont(&a), c64.to_mont(&b));
        prop_assert_eq!(c64.from_mont(&a64), a.clone());
        let product = c64.from_mont(&c64.mont_mul(&a64, &b64));
        prop_assert_eq!(product.clone(), a.mod_mul(&b, &n));
        prop_assert_eq!(product, c32.from_mont(&c32.mont_mul(&c32.to_mont(&a), &c32.to_mont(&b))));
        let square = c64.from_mont(&c64.mont_sqr(&a64));
        prop_assert_eq!(square.clone(), a.mod_mul(&a, &n));
        prop_assert_eq!(square, c32.from_mont(&c32.mont_sqr(&c32.to_mont(&a))));
        prop_assert_eq!(c64.mod_exp(&a, &exp), c32.mod_exp(&a, &exp));
    }

    /// The fixed-base comb against the window ladder for ffdhe2048 key
    /// generation's `2^x mod p`, over exponents of every length the table
    /// serves, under both limb widths.
    #[test]
    fn fixed_base_comb_matches_ladder(
        bits in 1usize..=256,
        raw in vec(any::<u32>(), 8..=8),
    ) {
        let exp = bn_from(&raw).mod_op(&Bn::one().shl(bits - 1)).add(&Bn::one().shl(bits - 1));
        prop_assert_eq!(exp.bit_len(), bits);
        comb_matches_ladder(&exp)?;
    }

    /// AES backends in lockstep: the auto-resolved cipher, the forced
    /// table rounds, and (when the CPU has it) forced AES-NI encrypt and
    /// decrypt byte-identically for every key size.
    #[test]
    fn aes_backends_agree_on_every_key_size(
        key_sel in 0usize..3,
        key in vec(any::<u8>(), 32..=32),
        block in vec(any::<u8>(), 16..=16),
    ) {
        use sslperf::ciphers::AesBackend;
        let key = &key[..[16, 24, 32][key_sel]];
        let table = Aes::with_backend(key, AesBackend::Table).expect("table backend");
        let auto = Aes::new(key).expect("auto backend");
        let mut expect: [u8; 16] = block.clone().try_into().expect("16 bytes");
        table.encrypt_block(&mut expect);

        let mut via_auto: [u8; 16] = block.clone().try_into().expect("16 bytes");
        auto.encrypt_block(&mut via_auto);
        prop_assert_eq!(via_auto, expect);
        auto.decrypt_block(&mut via_auto);
        prop_assert_eq!(via_auto.to_vec(), block.clone());

        if Aes::ni_available() {
            let hw = Aes::with_backend(key, AesBackend::Ni).expect("ni backend");
            let mut via_ni: [u8; 16] = block.clone().try_into().expect("16 bytes");
            hw.encrypt_block(&mut via_ni);
            prop_assert_eq!(via_ni, expect);
            hw.decrypt_block(&mut via_ni);
            prop_assert_eq!(via_ni.to_vec(), block);
        }
    }

    /// The fused CBC kernel (AES-NI's override of `encrypt_cbc` /
    /// `decrypt_cbc`) against the trait's per-block default on the same
    /// cipher, for every key size, 0–40 blocks (every remainder of the
    /// 8-block decrypt group) and a random split into two calls, so the
    /// chain must carry across calls exactly as in one.
    #[test]
    fn fused_cbc_matches_per_block_default(
        key_sel in 0usize..3,
        key in vec(any::<u8>(), 32..=32),
        iv in vec(any::<u8>(), 16..=16),
        data in vec(any::<u8>(), 0..=40 * 16),
        cut in any::<prop::sample::Index>(),
    ) {
        let aes = Aes::new(&key[..[16, 24, 32][key_sel]]).expect("key");
        let per_block = sslperf::ciphers::PerBlock(aes.clone());
        let data = &data[..data.len() / 16 * 16];
        let cut = cut.index(data.len() / 16 + 1) * 16;
        let run = |cipher: &dyn BlockCipher, decrypt: bool, cut: usize| {
            let (mut chain, mut buf) = (iv.clone(), data.to_vec());
            let (head, tail) = buf.split_at_mut(cut);
            for part in [head, tail] {
                if decrypt {
                    cipher.decrypt_cbc(&mut chain, part);
                } else {
                    cipher.encrypt_cbc(&mut chain, part);
                }
            }
            (chain, buf)
        };
        for decrypt in [false, true] {
            let reference = run(&per_block, decrypt, data.len());
            prop_assert_eq!(run(&aes, decrypt, data.len()), reference.clone());
            prop_assert_eq!(run(&aes, decrypt, cut), reference);
        }
    }

    /// SHA kernels in lockstep: the kernel `new()` detects (the SHA unit
    /// where the CPU has one), fed in three pieces so a buffered head, a
    /// multi-block run and a tail all occur, against the portable kernel
    /// one-shot. The keyed constructions are hand-rolled over
    /// `Sha1::portable()` and compared with `ssl::mac::compute` and
    /// `Hmac::mac`, which run on the detected kernel as every caller does.
    #[test]
    fn sha_unit_agrees_with_portable_kernel(
        data in vec(any::<u8>(), 0..=4096),
        cut_a in any::<prop::sample::Index>(),
        cut_b in any::<prop::sample::Index>(),
        key in vec(any::<u8>(), 0..100),
        seq in any::<u64>(),
    ) {
        use sslperf::hashes::Sha256;
        static WHY_SKIPPED: std::sync::Once = std::sync::Once::new();
        if Sha1::new().backend_name() != "ni" {
            // Still a valid streaming property, but not a cross-kernel one.
            WHY_SKIPPED.call_once(|| eprintln!(
                "skipped: SHA unit absent (no `sha` extension), comparing portable to itself"
            ));
        }
        let (a, b) = (cut_a.index(data.len() + 1), cut_b.index(data.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        let pieces = [&data[..a], &data[a..b], &data[b..]];

        let (mut unit, mut reference) = (Sha1::new(), Sha1::portable());
        pieces.iter().for_each(|p| unit.update(p));
        reference.update(&data);
        prop_assert_eq!(unit.finalize(), reference.finalize());

        let (mut unit, mut reference) = (Sha256::new(), Sha256::portable());
        pieces.iter().for_each(|p| unit.update(p));
        reference.update(&data);
        prop_assert_eq!(unit.finalize(), reference.finalize());

        let sha1_portable = |parts: &[&[u8]]| {
            let mut h = Sha1::portable();
            parts.iter().for_each(|p| h.update(p));
            h.finalize()
        };
        // SSLv3 MAC: hash(secret ‖ pad2 ‖ hash(secret ‖ pad1 ‖ seq ‖ type ‖ len ‖ data)).
        let len = (data.len() as u16).to_be_bytes();
        let inner = sha1_portable(&[&key, &[0x36; 40], &seq.to_be_bytes(), &[23], &len, &data]);
        let ssl3 = sha1_portable(&[&key, &[0x5c; 40], &inner]);
        prop_assert_eq!(
            sslperf::ssl::mac::compute(HashAlg::Sha1, &key, seq, 23, &data),
            ssl3.to_vec()
        );
        // HMAC: hash((K ^ opad) ‖ hash((K ^ ipad) ‖ data)), K zero-padded
        // to the block (hashed first when longer than it).
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..20].copy_from_slice(&sha1_portable(&[&key]));
        } else {
            block[..key.len()].copy_from_slice(&key);
        }
        let inner = sha1_portable(&[&block.map(|k| k ^ 0x36), &data]);
        let hmac = sha1_portable(&[&block.map(|k| k ^ 0x5c), &inner]);
        prop_assert_eq!(Hmac::mac(HashAlg::Sha1, &key, &data), hmac.to_vec());
    }

    /// The stitched seal kernel against its two halves run in turn:
    /// `Sha1::update_and_encrypt_cbc` after 0–63 buffered bytes must leave
    /// the digest `Sha1::update` leaves, and the ciphertext and IV
    /// `Aes::encrypt_cbc` leaves on the prefix it reports, for AES-128,
    /// -192 and -256 and 0–1200 bytes — and stitch every whole grain past
    /// the buffered block when the hasher is on the SHA unit.
    #[test]
    fn stitched_seal_matches_update_then_encrypt_cbc(
        buffered in 0usize..64,
        key_sel in 0usize..3,
        key in vec(any::<u8>(), 32..=32),
        iv in vec(any::<u8>(), 16..=16),
        prefix in vec(any::<u8>(), 63..=63),
        data in vec(any::<u8>(), 0..=1200),
    ) {
        use sslperf::ciphers::AesBackend;
        if !Aes::ni_available() {
            return Ok(());
        }
        let aes = Aes::with_backend(&key[..[16, 24, 32][key_sel]], AesBackend::Ni).expect("ni");
        let schedule = aes.ni_encrypt_schedule().expect("ni backend");
        let mut fused = Sha1::new();
        fused.update(&prefix[..buffered]);
        let mut reference = fused.clone();

        let (mut fused_iv, mut fused_data) = (iv.clone(), data.clone());
        let n = fused.update_and_encrypt_cbc(schedule, &mut fused_iv, &mut fused_data);
        let whole_grains = data.len().saturating_sub((64 - buffered) % 64) / 64 * 64;
        let want = if fused.backend_name() == "ni" { whole_grains } else { 0 };
        prop_assert_eq!(n, want);

        reference.update(&data);
        let (mut reference_iv, mut reference_data) = (iv.clone(), data.clone());
        aes.encrypt_cbc(&mut reference_iv, &mut reference_data[..n]);
        prop_assert_eq!(fused_data, reference_data);
        prop_assert_eq!(fused_iv, reference_iv);
        prop_assert_eq!(fused.finalize(), reference.finalize());
    }
}

// ---- batched RSA decryption ----

/// One deterministic 512-bit key shared by every batch case (keygen per
/// case would dominate the runtime).
fn batch_key() -> &'static sslperf::rsa::RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<sslperf::rsa::RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = SslRng::from_seed(b"proptest-batch-key");
        sslperf::rsa::RsaPrivateKey::generate(512, &mut rng).expect("keygen")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `decrypt_batch` is byte-identical to sequential `decrypt_pkcs1` at
    /// every batch size the collector can form (1..=8), including mixed
    /// batches where one corrupted ciphertext must fail alone — every
    /// other slot still decrypts to its exact plaintext.
    #[test]
    fn batched_decrypt_matches_sequential(
        size in 1usize..=8,
        corrupt_sel in 0usize..16,
        seed in any::<u64>(),
    ) {
        use sslperf::rsa::BatchCipher;
        let key = batch_key();
        let mut rng = SslRng::from_seed(format!("pt-batch-enc-{seed}").as_bytes());
        let plains: Vec<Vec<u8>> =
            (0..size).map(|i| format!("pre-master-{seed}-{i}").into_bytes()).collect();
        let mut ciphers: Vec<Vec<u8>> = plains
            .iter()
            .map(|m| key.public_key().encrypt_pkcs1(m, &mut rng).expect("encrypt"))
            .collect();
        // Selector below `size` corrupts that slot; the upper half of the
        // range leaves the batch clean.
        let corrupt = (corrupt_sel < size).then_some(corrupt_sel);
        if let Some(i) = corrupt {
            // Flip low bits: the value stays in range, the padding breaks.
            let last = ciphers[i].len() - 1;
            ciphers[i][last] ^= 0x5a;
        }

        let items: Vec<BatchCipher> =
            ciphers.iter().map(|c| BatchCipher::new(c.clone())).collect();
        let mut batch_rng = SslRng::from_seed(format!("pt-batch-rng-{seed}").as_bytes());
        let batched = key.decrypt_batch(&items, &mut batch_rng);
        prop_assert_eq!(batched.len(), size);

        for (i, result) in batched.iter().enumerate() {
            // The oracle: the solo path on the identical (possibly
            // corrupted) ciphertext.
            let sequential = key.decrypt_pkcs1(&ciphers[i]);
            prop_assert_eq!(result, &sequential);
            if corrupt != Some(i) {
                // A good slot must survive a corrupt sibling.
                prop_assert_eq!(result.as_deref(), Ok(&plains[i][..]));
            }
        }
    }
}

// ---- session-ticket sealing ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seal/open round-trips the exact session state for every suite and
    /// master-secret length, across one key rotation (the previous key
    /// stays accepted).
    #[test]
    fn ticket_seal_open_round_trips(
        suite_idx in 0usize..CipherSuite::ALL.len(),
        master in vec(any::<u8>(), 1..=64),
        rotate in any::<bool>(),
        seed in vec(any::<u8>(), 1..16),
    ) {
        use sslperf::ssl::CachedSession;
        let keyring = TicketKeyring::new(&seed);
        let session = CachedSession { master, suite: CipherSuite::ALL[suite_idx] };
        let ticket = keyring.seal(&session);
        if rotate {
            keyring.rotate();
        }
        let opened = keyring.open(&ticket);
        prop_assert_eq!(opened, Ok(session));
    }

    /// A bit flipped anywhere in the ticket — key id, IV, ciphertext, or
    /// MAC — rejects as `Invalid`: the same clean full-handshake fallback
    /// as any other bad ticket, never a distinguishable outcome.
    #[test]
    fn ticket_bit_flip_anywhere_rejects(
        suite_idx in 0usize..CipherSuite::ALL.len(),
        master in vec(any::<u8>(), 1..=64),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        use sslperf::ssl::{CachedSession, TicketError};
        let keyring = TicketKeyring::new(b"pt-ticket-flip");
        let session = CachedSession { master, suite: CipherSuite::ALL[suite_idx] };
        let mut ticket = keyring.seal(&session);
        let at = flip_byte.index(ticket.len());
        ticket[at] ^= 1 << flip_bit;
        prop_assert_eq!(keyring.open(&ticket), Err(TicketError::Invalid));
    }

    /// Every proper prefix of a ticket rejects as `Invalid` — truncation
    /// can never crash the opener or sneak past the MAC.
    #[test]
    fn ticket_truncation_rejects(
        master in vec(any::<u8>(), 1..=64),
        cut in any::<prop::sample::Index>(),
    ) {
        use sslperf::ssl::{CachedSession, TicketError};
        let keyring = TicketKeyring::new(b"pt-ticket-cut");
        let session = CachedSession { master, suite: CipherSuite::RsaDesCbc3Sha };
        let ticket = keyring.seal(&session);
        let len = cut.index(ticket.len()); // strictly shorter than the ticket
        prop_assert_eq!(keyring.open(&ticket[..len]), Err(TicketError::Invalid));
    }

    /// An authentic ticket past its lifetime rejects as `Expired` — the
    /// caller's fallback is the same silent full handshake, but the
    /// handshake's ledger flags it separately for the metrics split.
    #[test]
    fn ticket_expiry_rejects(
        suite_idx in 0usize..CipherSuite::ALL.len(),
        master in vec(any::<u8>(), 1..=48),
    ) {
        use sslperf::ssl::{CachedSession, TicketError};
        use std::time::Duration;
        let keyring = TicketKeyring::with_schedule(b"pt-ticket-old", Duration::ZERO, None);
        let session = CachedSession { master, suite: CipherSuite::ALL[suite_idx] };
        let ticket = keyring.seal(&session);
        // A zero lifetime expires the ticket as soon as the clock advances.
        std::thread::sleep(Duration::from_millis(2));
        prop_assert_eq!(keyring.open(&ticket), Err(TicketError::Expired));
    }

    /// Two rotations retire a ticket's key entirely (current + previous
    /// acceptance window): an authentic ticket under a forgotten key id
    /// rejects as `Invalid`, indistinguishable from tampering.
    #[test]
    fn ticket_unknown_key_id_rejects(
        suite_idx in 0usize..CipherSuite::ALL.len(),
        master in vec(any::<u8>(), 1..=48),
    ) {
        use sslperf::ssl::{CachedSession, TicketError};
        let keyring = TicketKeyring::new(b"pt-ticket-rot");
        let session = CachedSession { master, suite: CipherSuite::ALL[suite_idx] };
        let ticket = keyring.seal(&session);
        keyring.rotate();
        keyring.rotate();
        prop_assert_eq!(keyring.open(&ticket), Err(TicketError::Invalid));
    }
}

// ---- the session cache against an exact-LRU model ----

/// The reference the cache must match: per shard, the live sessions from
/// least to most recently used, evicting the front past `capacity`.
struct LruModel {
    shards: Vec<Vec<(Vec<u8>, sslperf::ssl::CachedSession)>>,
    capacity: usize,
    zero_ttl: bool,
    hits: u64,
    misses: u64,
    expired: u64,
}

impl LruModel {
    fn store(&mut self, shard: usize, id: Vec<u8>, session: sslperf::ssl::CachedSession) {
        let entries = &mut self.shards[shard];
        entries.retain(|(live, _)| *live != id);
        entries.push((id, session));
        if entries.len() > self.capacity {
            entries.remove(0);
        }
    }

    fn lookup(&mut self, shard: usize, id: &[u8]) -> Option<sslperf::ssl::CachedSession> {
        if id.is_empty() {
            return None;
        }
        let entries = &mut self.shards[shard];
        let Some(at) = entries.iter().position(|(live, _)| live == id) else {
            self.misses += 1;
            return None;
        };
        let entry = entries.remove(at);
        if self.zero_ttl {
            self.misses += 1;
            self.expired += 1;
            return None;
        }
        self.hits += 1;
        let session = entry.1.clone();
        entries.push(entry);
        Some(session)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random stores (re-stores of live ids included), lookups, empty-id
    /// lookups and clears, on 1–4 shards of 1–8 sessions, with no TTL or a
    /// zero one: every lookup, `len`, shard length and counter matches an
    /// exact-LRU model after every operation.
    #[test]
    fn session_cache_matches_exact_lru_model(
        shards in 1usize..=4,
        capacity in 1usize..=8,
        zero_ttl in any::<bool>(),
        id_lens in vec(0usize..=32, 1..12),
        ops in vec(any::<u32>(), 0..160),
    ) {
        use sslperf::ssl::{CachedSession, SessionCache, ShardedSessionCache};
        use std::time::Duration;
        let ttl = zero_ttl.then_some(Duration::ZERO);
        let cache = ShardedSessionCache::with_ttl(shards, capacity, ttl);
        let mut model = LruModel {
            shards: vec![Vec::new(); shards],
            capacity,
            zero_ttl,
            hits: 0,
            misses: 0,
            expired: 0,
        };
        // A small pool of ids, so stores replace and lookups hit.
        let ids: Vec<Vec<u8>> = id_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        for op in ops {
            let id = &ids[(op >> 4) as usize % ids.len()];
            match op % 16 {
                0..=7 => {
                    let session = CachedSession {
                        master: vec![(op >> 8) as u8; 48],
                        suite: CipherSuite::ALL[(op >> 16) as usize % CipherSuite::ALL.len()],
                    };
                    model.store(cache.shard_index(id), id.clone(), session.clone());
                    cache.store(id.clone(), session);
                }
                8..=13 => {
                    let want = model.lookup(cache.shard_index(id), id);
                    prop_assert_eq!(cache.lookup(id), want);
                }
                14 => {
                    prop_assert_eq!(cache.lookup(&[]), None);
                }
                _ => {
                    model.shards.iter_mut().for_each(Vec::clear);
                    cache.clear();
                }
            }
            for (s, entries) in model.shards.iter().enumerate() {
                prop_assert_eq!(cache.shard_len(s), entries.len());
            }
            prop_assert_eq!(cache.len(), model.shards.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(
                (cache.hits(), cache.misses(), cache.expired()),
                (model.hits, model.misses, model.expired)
            );
        }
    }
}

// ---- streamed responses ----

/// Pulls `stream` dry through fills whose lengths cycle through `cuts`.
fn drain_stream(mut stream: sslperf::websim::http::ResponseStream, cuts: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stream.remaining());
    let mut buf = vec![0u8; 20_000];
    for &cut in cuts.iter().cycle() {
        let n = stream.fill(&mut buf[..cut]);
        out.extend_from_slice(&buf[..n]);
        if n < cut {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streaming form of a response is byte-equal to the serialized
    /// one, however the pulls are sized: at the document's 256-byte period,
    /// where head + body straddles the first record fragment, and at the
    /// benchmark's sizes; for owned bodies (a 404, an exposition) too.
    #[test]
    fn response_stream_equals_serialized_response(cuts in vec(1usize..=20_000, 1..48)) {
        use sslperf::websim::http::{synthesize_document, HttpResponse, ResponseStream};
        // The head of a document with a five-digit Content-Length.
        let head = HttpResponse::ok(vec![0; 10_000]).to_bytes().len() - 10_000;
        let sizes =
            [0, 1, 255, 256, 257, 16_383 - head, 16_384 - head, 16_385 - head, 40_000, 1 << 20];
        for size in sizes {
            let path = format!("/doc_{size}.bin");
            let whole = HttpResponse::ok(synthesize_document(&path, size)).to_bytes();
            let streamed = drain_stream(ResponseStream::document(&path, size), &cuts);
            prop_assert!(streamed == whole, "{}-byte document, cuts {:?}", size, cuts);
        }
        let exposition: Vec<u8> = (0..3_000u32).map(|i| (i * 7) as u8).collect();
        for owned in [HttpResponse::not_found(), HttpResponse::ok(exposition)] {
            let whole = owned.to_bytes();
            prop_assert!(drain_stream(owned.into(), &cuts) == whole, "cuts {:?}", cuts);
        }
    }
}
