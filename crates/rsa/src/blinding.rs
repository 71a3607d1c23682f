//! RSA decryption blinding (the paper's Table 7, step 3).
//!
//! The paper cites Brumley & Boneh's remote timing attack as the reason
//! OpenSSL blinds: before exponentiation the ciphertext is multiplied by
//! `r^e mod N` for a random `r`, and afterwards the result by `r⁻¹ mod N`,
//! so the private exponentiation runs on a value the attacker cannot
//! correlate with the wire ciphertext.
//!
//! Both factors are kept in the Montgomery form of the key's `mod N`
//! context, so blinding, unblinding and each rotation are one Montgomery
//! product — no conversion in or out, no long division.

use crate::{RsaError, RsaPublicKey};
use sslperf_bignum::{Bn, EntropySource, MontCtx};
use sslperf_profile::counters;

/// A reusable blinding context `(A = r^e mod N, Aᵢ = r⁻¹ mod N)`.
///
/// Like OpenSSL's `BN_BLINDING`, the factors are squared after each use so
/// consecutive decryptions use different masks without a fresh inversion.
#[derive(Debug, Clone)]
pub struct Blinding {
    /// Arithmetic mod `N`: the public key's Montgomery context.
    mont: MontCtx,
    /// `r^e·R mod N` — multiplied into the ciphertext.
    factor: Bn,
    /// `r⁻¹·R mod N` — multiplied into the recovered plaintext.
    unblind: Bn,
}

impl Blinding {
    /// Draws a random `r` coprime to `N` and prepares the factor pair.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::KeyGeneration`] if no invertible `r` is found in
    /// a reasonable number of draws (practically impossible for real keys).
    pub fn new<R: EntropySource>(public: &RsaPublicKey, rng: &mut R) -> Result<Self, RsaError> {
        counters::count("blinding_setup", 1);
        for _ in 0..32 {
            let r = rng.next_bn_below(public.modulus());
            if r.is_zero() {
                continue;
            }
            let Ok(unblind) = r.mod_inverse(public.modulus()) else {
                continue;
            };
            let mont = public.mont_n.clone();
            let factor = mont.to_mont(&public.raw_encrypt(&r)?);
            let unblind = mont.to_mont(&unblind);
            return Ok(Blinding { mont, factor, unblind });
        }
        Err(RsaError::KeyGeneration)
    }

    /// Masks a ciphertext `c < N`: returns `c · r^e mod N`.
    #[must_use]
    pub fn blind(&self, c: &Bn) -> Bn {
        counters::count("blinding_convert", 1);
        self.mont.mont_mul(c, &self.factor)
    }

    /// Unmasks a plaintext `m < N`: returns `m · r⁻¹ mod N`, then squares the stored
    /// factors so the next call uses a fresh mask.
    #[must_use = "the unblinded plaintext is the result of the decryption"]
    pub fn unblind(&mut self, m: &Bn) -> Bn {
        let result = self.unblind_shared(m);
        self.rotate();
        result
    }

    /// Unmasks a plaintext **without** rotating the factors, so several
    /// values blinded under the same mask — a batch sharing one blinding
    /// acquisition — can all be unmasked; call [`Blinding::rotate`] once
    /// when the batch is done.
    #[must_use = "the unblinded plaintext is the result of the decryption"]
    pub fn unblind_shared(&self, m: &Bn) -> Bn {
        counters::count("blinding_convert", 1);
        self.mont.mont_mul(m, &self.unblind)
    }

    /// Squares the stored factors so the next use gets a fresh mask —
    /// OpenSSL's `BN_BLINDING_update`, split out of [`Blinding::unblind`]
    /// for batch use (one rotation per batch, not per job).
    pub fn rotate(&mut self) {
        self.factor = self.mont.mont_sqr(&self.factor);
        self.unblind = self.mont.mont_sqr(&self.unblind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_keys::rsa512;
    use sslperf_rng::SslRng;

    #[test]
    fn blinding_preserves_decryption() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"blinding");
        let mut blinding = key.new_blinding(&mut rng).unwrap();
        for v in [5u64, 1234, 0xffff_ffff] {
            let m = Bn::from_u64(v);
            let c = key.public_key().raw_encrypt(&m).unwrap();
            let c_blinded = blinding.blind(&c);
            let m_blinded = key.raw_decrypt(&c_blinded).unwrap();
            assert_eq!(blinding.unblind(&m_blinded), m, "value {v}");
        }
    }

    #[test]
    fn masks_differ_between_uses() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"masks");
        let mut blinding = key.new_blinding(&mut rng).unwrap();
        let c = Bn::from_u64(777);
        let first = blinding.blind(&c);
        let _ = blinding.unblind(&Bn::from_u64(1)); // rotates the factors
        let second = blinding.blind(&c);
        assert_ne!(first, second, "factor must rotate after use");
    }

    #[test]
    fn montgomery_factors_give_the_plain_modular_products() {
        let key = rsa512();
        let n = key.modulus();
        let mut rng = SslRng::from_seed(b"mont-blinding");
        let mut blinding = key.new_blinding(&mut rng).unwrap();
        let c = rng.next_bn_below(n);
        for _ in 0..3 {
            let factor = blinding.mont.from_mont(&blinding.factor);
            let unblind = blinding.mont.from_mont(&blinding.unblind);
            // (r^e)·(r⁻¹)^e = 1: the pair still masks and unmasks together.
            let e = key.public_key().exponent();
            assert!(factor.mod_mul(&unblind.mod_exp(e, n), n).is_one());
            assert_eq!(blinding.blind(&c), c.mod_mul(&factor, n));
            assert_eq!(blinding.unblind_shared(&c), c.mod_mul(&unblind, n));
            blinding.rotate();
            assert_eq!(blinding.mont.from_mont(&blinding.factor), factor.mod_mul(&factor, n));
            assert_eq!(blinding.mont.from_mont(&blinding.unblind), unblind.mod_mul(&unblind, n));
        }
    }

    #[test]
    fn blinded_value_actually_masked() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"masked");
        let blinding = key.new_blinding(&mut rng).unwrap();
        let c = Bn::from_u64(42);
        assert_ne!(blinding.blind(&c), c);
    }
}
