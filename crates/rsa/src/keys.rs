//! RSA key types, generation and the raw modular-exponentiation operations.

use crate::{Blinding, RsaError};
use sslperf_bignum::{generate_prime, Bn, EntropySource, LimbWidth, MontCtx};
use sslperf_profile::counters;

/// An RSA public key `(N, e)`.
///
/// # Examples
///
/// ```
/// use sslperf_rng::SslRng;
/// use sslperf_rsa::RsaPrivateKey;
///
/// let mut rng = SslRng::from_seed(b"pub-key-doc");
/// let key = RsaPrivateKey::generate(512, &mut rng)?;
/// let public = key.public_key();
/// assert_eq!(public.modulus_bytes(), 64);
/// # Ok::<(), sslperf_rsa::RsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    n: Bn,
    e: Bn,
    pub(crate) mont_n: MontCtx,
}

impl RsaPublicKey {
    pub(crate) fn from_parts(n: Bn, e: Bn) -> Result<Self, RsaError> {
        let mont_n = MontCtx::new(&n).map_err(|_| RsaError::KeyGeneration)?;
        Ok(RsaPublicKey { n, e, mont_n })
    }

    /// The modulus `N`.
    #[must_use]
    pub fn modulus(&self) -> &Bn {
        &self.n
    }

    /// The public exponent `e`.
    #[must_use]
    pub fn exponent(&self) -> &Bn {
        &self.e
    }

    /// Modulus length in whole bytes (the PKCS #1 block length `k`).
    #[must_use]
    pub fn modulus_bytes(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The raw public operation `m^e mod N`.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::CiphertextOutOfRange`] if `m >= N`.
    pub fn raw_encrypt(&self, m: &Bn) -> Result<Bn, RsaError> {
        if m >= &self.n {
            return Err(RsaError::CiphertextOutOfRange);
        }
        counters::count("rsa_public_op", 1);
        Ok(self.mont_n.mod_exp(m, &self.e))
    }
}

/// An RSA private key with CRT parameters, cached Montgomery contexts and
/// a cached blinding state (like OpenSSL's `RSA->blinding`, set up once per
/// key rather than per operation).
#[derive(Debug)]
pub struct RsaPrivateKey {
    pub(crate) public: RsaPublicKey,
    pub(crate) d: Bn,
    pub(crate) p: Bn,
    pub(crate) q: Bn,
    /// `d mod (p-1)`.
    pub(crate) dp: Bn,
    /// `d mod (q-1)`.
    pub(crate) dq: Bn,
    /// `q⁻¹·R mod p`: Garner's coefficient in `mont_p`'s Montgomery form,
    /// so one Montgomery product applies it.
    pub(crate) qinv_mont: Bn,
    pub(crate) mont_p: MontCtx,
    pub(crate) mont_q: MontCtx,
    pub(crate) blinding: std::sync::Mutex<Option<Blinding>>,
}

impl Clone for RsaPrivateKey {
    fn clone(&self) -> Self {
        RsaPrivateKey {
            public: self.public.clone(),
            d: self.d.clone(),
            p: self.p.clone(),
            q: self.q.clone(),
            dp: self.dp.clone(),
            dq: self.dq.clone(),
            qinv_mont: self.qinv_mont.clone(),
            mont_p: self.mont_p.clone(),
            mont_q: self.mont_q.clone(),
            // The blinding cache is per-instance state, re-created lazily.
            blinding: std::sync::Mutex::new(None),
        }
    }
}

impl RsaPrivateKey {
    /// Generates a key with a modulus of exactly `bits` bits and `e = 65537`.
    ///
    /// Deterministic given the RNG seed, which keeps the experiments
    /// reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::KeyGeneration`] if parameter construction fails
    /// (retries internally on the common `gcd(e, φ) ≠ 1` case).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 32` (too small even for toy keys).
    pub fn generate<R: EntropySource>(bits: usize, rng: &mut R) -> Result<Self, RsaError> {
        assert!(bits >= 32, "key must be at least 32 bits");
        let e = Bn::from_u64(65537);
        for _attempt in 0..64 {
            let p = generate_prime(bits - bits / 2, rng);
            let q = generate_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let (p, q) = if p > q { (p, q) } else { (q, p) };
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.sub(&Bn::one());
            let q1 = q.sub(&Bn::one());
            let phi = p1.mul(&q1);
            if !e.gcd(&phi).is_one() {
                continue;
            }
            let d = e.mod_inverse(&phi).map_err(|_| RsaError::KeyGeneration)?;
            let dp = d.mod_op(&p1);
            let dq = d.mod_op(&q1);
            let qinv = q.mod_inverse(&p).map_err(|_| RsaError::KeyGeneration)?;
            let mont_p = MontCtx::new(&p).map_err(|_| RsaError::KeyGeneration)?;
            let mont_q = MontCtx::new(&q).map_err(|_| RsaError::KeyGeneration)?;
            let qinv_mont = mont_p.to_mont(&qinv);
            let public = RsaPublicKey::from_parts(n, e.clone())?;
            return Ok(RsaPrivateKey {
                public,
                d,
                p,
                q,
                dp,
                dq,
                qinv_mont,
                mont_p,
                mont_q,
                blinding: std::sync::Mutex::new(None),
            });
        }
        Err(RsaError::KeyGeneration)
    }

    /// The public half of the key.
    #[must_use]
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The modulus `N`.
    #[must_use]
    pub fn modulus(&self) -> &Bn {
        &self.public.n
    }

    /// Modulus length in whole bytes.
    #[must_use]
    pub fn modulus_bytes(&self) -> usize {
        self.public.modulus_bytes()
    }

    /// The private exponent `d`.
    #[must_use]
    pub fn exponent(&self) -> &Bn {
        &self.d
    }

    /// The raw private operation `c^d mod N` using the Chinese Remainder
    /// Theorem — OpenSSL's `rsa_private_decryption`, the paper's
    /// *computation* step.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::CiphertextOutOfRange`] if `c >= N`.
    pub fn raw_decrypt(&self, c: &Bn) -> Result<Bn, RsaError> {
        if c >= &self.public.n {
            return Err(RsaError::CiphertextOutOfRange);
        }
        Ok(self.crt(c))
    }

    /// `c^d mod N` for `c < N` by the Chinese Remainder Theorem — the one
    /// CRT path behind [`RsaPrivateKey::raw_decrypt`] and
    /// [`RsaPrivateKey::decrypt_batch`]: both halves through
    /// [`MontCtx::mod_exp_pair`], then Garner's recombination with one
    /// Montgomery product mod `p`.
    pub(crate) fn crt(&self, c: &Bn) -> Bn {
        counters::count("rsa_private_op", 1);
        // m1 = c^dP mod p ; m2 = c^dQ mod q
        let (m1, m2) = self.mont_p.mod_exp_pair(c, &self.dp, &self.mont_q, c, &self.dq);
        // h = qInv (m1 - m2) mod p ; m = m2 + h q
        let h = self.mont_p.mont_mul(&self.qinv_mont, &m1.mod_sub(&m2, &self.p));
        m2.add(&h.mul(&self.q))
    }

    /// The raw private operation without CRT (`c^d mod N` directly), kept as
    /// the baseline arm of `paper_report`'s CRT ablation (~4× slower).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::CiphertextOutOfRange`] if `c >= N`.
    pub fn raw_decrypt_no_crt(&self, c: &Bn) -> Result<Bn, RsaError> {
        if c >= &self.public.n {
            return Err(RsaError::CiphertextOutOfRange);
        }
        counters::count("rsa_private_op", 1);
        Ok(self.public.mont_n.mod_exp(c, &self.d))
    }

    /// Rebuilds every cached Montgomery context (`mod p`, `mod q`, `mod N`)
    /// and the Montgomery-form coefficient on the given limb width, so all subsequent decryptions with this key
    /// run on that kernel family.
    ///
    /// Keys are born on [`LimbWidth::U64`] (what [`MontCtx::new`] builds);
    /// this is the per-key override the differential tests, the flight pins and the
    /// kernel-speed tests use to compare the paper-faithful u32 path against the
    /// raw-speed u64 path in one process. The cached blinding state is
    /// dropped and re-derived lazily.
    ///
    /// # Panics
    ///
    /// Never in practice: the moduli were accepted by `MontCtx` at key
    /// construction and do not change.
    pub fn set_limb_width(&mut self, limbs: LimbWidth) {
        // R can differ between the widths, so Garner's coefficient leaves
        // the old Montgomery form and enters the new one.
        let qinv = self.mont_p.from_mont(&self.qinv_mont);
        self.mont_p = MontCtx::with_limb_width(&self.p, limbs).expect("p stays odd");
        self.qinv_mont = self.mont_p.to_mont(&qinv);
        self.mont_q = MontCtx::with_limb_width(&self.q, limbs).expect("q stays odd");
        self.public.mont_n = MontCtx::with_limb_width(&self.public.n, limbs).expect("n stays odd");
        *self.blinding.lock().expect("blinding lock poisoned") = None;
    }

    /// The limb width this key's Montgomery contexts run on.
    #[must_use]
    pub fn limb_width(&self) -> LimbWidth {
        self.mont_p.limb_width()
    }

    /// Creates a fresh blinding context for this key.
    ///
    /// # Errors
    ///
    /// Propagates [`RsaError::KeyGeneration`] if a blinding factor cannot be
    /// inverted (vanishingly rare; retried internally).
    pub fn new_blinding<R: EntropySource>(&self, rng: &mut R) -> Result<Blinding, RsaError> {
        Blinding::new(&self.public, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_keys::{rsa1024, rsa512};
    use sslperf_rng::SslRng;

    #[test]
    fn generated_key_shape() {
        let key = rsa512();
        assert_eq!(key.modulus().bit_len(), 512);
        assert_eq!(key.modulus_bytes(), 64);
        assert_eq!(key.public_key().exponent(), &Bn::from_u64(65537));
        assert!(key.p > key.q);
        assert_eq!(key.p.mul(&key.q), *key.modulus());
    }

    #[test]
    fn encrypt_decrypt_round_trip_raw() {
        let key = rsa512();
        for m in [0u64, 1, 42, 0xdead_beef] {
            let m = Bn::from_u64(m);
            let c = key.public_key().raw_encrypt(&m).unwrap();
            assert_eq!(key.raw_decrypt(&c).unwrap(), m);
        }
    }

    #[test]
    fn crt_equals_plain_exponentiation() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"crt-check");
        for _ in 0..5 {
            let c = rng.next_bn_below(key.modulus());
            assert_eq!(key.raw_decrypt(&c).unwrap(), key.raw_decrypt_no_crt(&c).unwrap());
        }
    }

    #[test]
    fn crt_pair_equals_plain_exponentiation_rsa1024() {
        // 512-bit halves: on a CPU with avx512ifma both run in the IFMA
        // pair kernel, elsewhere in two scalar exponentiations.
        let key = rsa1024();
        let mut rng = SslRng::from_seed(b"crt-pair-check");
        for _ in 0..8 {
            let c = rng.next_bn_below(key.modulus());
            assert_eq!(key.raw_decrypt(&c).unwrap(), key.raw_decrypt_no_crt(&c).unwrap());
        }
    }

    #[test]
    fn euler_identity() {
        // (m^e)^d == m for random m — full RSA correctness.
        let key = rsa1024();
        let mut rng = SslRng::from_seed(b"euler");
        for _ in 0..3 {
            let m = rng.next_bn_below(key.modulus());
            let c = key.public_key().raw_encrypt(&m).unwrap();
            assert_eq!(key.raw_decrypt(&c).unwrap(), m);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let key = rsa512();
        let too_big = key.modulus().clone();
        assert_eq!(key.public_key().raw_encrypt(&too_big), Err(RsaError::CiphertextOutOfRange));
        assert_eq!(key.raw_decrypt(&too_big), Err(RsaError::CiphertextOutOfRange));
        assert_eq!(key.raw_decrypt_no_crt(&too_big), Err(RsaError::CiphertextOutOfRange));
    }

    #[test]
    fn determinism_of_generation() {
        let mut rng1 = SslRng::from_seed(b"same-seed");
        let mut rng2 = SslRng::from_seed(b"same-seed");
        let k1 = RsaPrivateKey::generate(256, &mut rng1).unwrap();
        let k2 = RsaPrivateKey::generate(256, &mut rng2).unwrap();
        assert_eq!(k1.modulus(), k2.modulus());
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let mut rng1 = SslRng::from_seed(b"seed-one");
        let mut rng2 = SslRng::from_seed(b"seed-two");
        let k1 = RsaPrivateKey::generate(256, &mut rng1).unwrap();
        let k2 = RsaPrivateKey::generate(256, &mut rng2).unwrap();
        assert_ne!(k1.modulus(), k2.modulus());
    }

    #[test]
    fn counters_attribute_private_op() {
        let mut key = rsa512().clone();
        key.set_limb_width(LimbWidth::U32);
        let (_, snap) = counters::counted(|| {
            let _ = key.raw_decrypt(&Bn::from_u64(12345)).unwrap();
        });
        assert_eq!(snap.calls("rsa_private_op"), 1);
        assert!(snap.calls("bn_mul_add_words") > 100, "CRT exponentiation is word-kernel heavy");
        key.set_limb_width(LimbWidth::U64);
        let (_, snap) = counters::counted(|| {
            let _ = key.raw_decrypt(&Bn::from_u64(12345)).unwrap();
        });
        // Two 256-bit CRT halves: a fused squaring per exponent bit, each
        // counted once with the half's four limbs as its units.
        assert!(snap.calls("mont_sqr64") > 500, "u64 CRT rides the fused kernels");
        assert_eq!(snap.units("mont_sqr64"), 4 * snap.calls("mont_sqr64"));
        assert!(snap.calls("mont_mul64") > 50);
    }

    #[test]
    fn limb_widths_decrypt_identically() {
        let base = rsa512();
        let mut k32 = base.clone();
        k32.set_limb_width(LimbWidth::U32);
        let mut k64 = base.clone();
        k64.set_limb_width(LimbWidth::U64);
        assert_eq!(k32.limb_width(), LimbWidth::U32);
        assert_eq!(k64.limb_width(), LimbWidth::U64);
        let mut rng = SslRng::from_seed(b"limb-diff");
        for _ in 0..4 {
            let c = rng.next_bn_below(base.modulus());
            assert_eq!(k32.raw_decrypt(&c).unwrap(), k64.raw_decrypt(&c).unwrap());
            assert_eq!(k32.raw_decrypt_no_crt(&c).unwrap(), k64.raw_decrypt_no_crt(&c).unwrap());
        }
    }
}
