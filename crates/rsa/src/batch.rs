//! Batched RSA decryption: several private-key operations per entry.
//!
//! Every job in a batch was encrypted under the key's own public exponent
//! (one server key has one), so there is no combined exponentiation to
//! share — Fiat / Shacham–Boneh batching needs distinct pairwise-coprime
//! exponents over one modulus, which SSL traffic never supplies (see
//! EXPERIMENTS.md §batch-rsa). What a batch amortizes instead is the
//! blinding acquisition: one for the whole batch (a cache-miss blinding
//! setup costs a modular inversion plus a full public exponentiation) and
//! one factor rotation at the end. Each job then runs the key's one CRT
//! path, the same as [`RsaPrivateKey::raw_decrypt`].
//!
//! Error isolation: one bad ciphertext (out of range, bad padding) fails
//! only its own slot; sibling jobs complete normally. Blinding still
//! cancels out of every plaintext, so batched results are byte-identical
//! to sequential ones.

use crate::{pkcs1, RsaError, RsaPrivateKey};
use sslperf_bignum::{Bn, EntropySource};
use sslperf_profile::counters;

/// One ciphertext in a batch, encrypted under the key's public exponent.
#[derive(Debug, Clone)]
pub struct BatchCipher {
    cipher: Vec<u8>,
}

impl BatchCipher {
    /// A ciphertext under the key's own public exponent.
    #[must_use]
    pub fn new(cipher: Vec<u8>) -> Self {
        BatchCipher { cipher }
    }

    /// The ciphertext bytes.
    #[must_use]
    pub fn cipher(&self) -> &[u8] {
        &self.cipher
    }
}

impl RsaPrivateKey {
    /// Decrypts a batch of PKCS #1 ciphertexts, one result slot per item,
    /// in item order, sharing one blinding acquisition across the batch —
    /// see the module docs. A failing item (out-of-range ciphertext, bad
    /// padding) occupies only its own slot; siblings decrypt normally.
    ///
    /// `rng` seeds the blinding draw when the key's blinding cache is cold,
    /// exactly like [`RsaPrivateKey::decrypt_instrumented`]; blinding
    /// cancels out of the plaintexts, so batched output is byte-identical
    /// to sequential decryption.
    pub fn decrypt_batch<R: EntropySource>(
        &self,
        items: &[BatchCipher],
        rng: &mut R,
    ) -> Vec<Result<Vec<u8>, RsaError>> {
        if items.is_empty() {
            return Vec::new();
        }
        counters::count("rsa_batch", 1);
        // One blinding acquisition for the whole batch (the contended
        // `guard.take()` happens once, and a cache miss pays the setup —
        // inversion plus public exponentiation — once, not per job).
        let cached = self.blinding.lock().unwrap_or_else(|e| e.into_inner()).take();
        let mut blinding = match cached {
            Some(b) => Ok(b),
            None => self.new_blinding(rng),
        };

        // Per item: data→bn, range check, blind, the CRT exponentiation,
        // unblind under the shared factor (rotation happens once, below),
        // bn→data and PKCS #1 block parsing.
        let results = items
            .iter()
            .map(|item| {
                let c = Bn::from_bytes_be(&item.cipher);
                if &c >= self.modulus() {
                    return Err(RsaError::CiphertextOutOfRange);
                }
                let b = blinding.as_ref().map_err(|e| *e)?;
                let m = b.unblind_shared(&self.crt(&b.blind(&c)));
                pkcs1::parse_type2(&m.to_bytes_be_padded(self.modulus_bytes()))
            })
            .collect();

        // One rotation per batch keeps consecutive batches under distinct
        // masks; the rotated state goes back to the key's cache.
        if let Ok(b) = &mut blinding {
            b.rotate();
        }
        *self.blinding.lock().unwrap_or_else(|e| e.into_inner()) = blinding.ok();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_keys::rsa512;
    use sslperf_rng::SslRng;

    fn pkcs1_cipher(key: &RsaPrivateKey, msg: &[u8], rng: &mut SslRng) -> Vec<u8> {
        key.public_key().encrypt_pkcs1(msg, rng).unwrap()
    }

    #[test]
    fn shared_batch_matches_sequential() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"batch-shared");
        for size in 1..=8usize {
            let msgs: Vec<Vec<u8>> =
                (0..size).map(|i| format!("pre-master-{size}-{i}").into_bytes()).collect();
            let items: Vec<BatchCipher> =
                msgs.iter().map(|m| BatchCipher::new(pkcs1_cipher(key, m, &mut rng))).collect();
            let got = key.decrypt_batch(&items, &mut rng);
            for (i, (msg, result)) in msgs.iter().zip(&got).enumerate() {
                assert_eq!(result.as_ref().unwrap(), msg, "size {size} item {i}");
                assert_eq!(
                    result.as_ref().unwrap(),
                    &key.decrypt_pkcs1(items[i].cipher()).unwrap(),
                    "batched != sequential, size {size} item {i}"
                );
            }
        }
    }

    #[test]
    fn corrupt_item_fails_alone() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"batch-corrupt");
        let good: Vec<Vec<u8>> = (0..3).map(|i| format!("ok-{i}").into_bytes()).collect();
        let mut items: Vec<BatchCipher> =
            good.iter().map(|m| BatchCipher::new(pkcs1_cipher(key, m, &mut rng))).collect();
        // Slot 1: a raw encryption of a small value — valid RSA, garbage
        // PKCS#1 padding.
        let raw = key.public_key().raw_encrypt(&Bn::from_u64(7)).unwrap();
        items.insert(1, BatchCipher::new(raw.to_bytes_be_padded(key.modulus_bytes())));
        // Slot 3: ciphertext >= N — rejected before the computation.
        items.insert(3, BatchCipher::new(key.modulus().to_bytes_be_padded(key.modulus_bytes())));
        let got = key.decrypt_batch(&items, &mut rng);
        assert_eq!(got[0].as_ref().unwrap(), &good[0]);
        assert_eq!(got[1], Err(RsaError::Padding));
        assert_eq!(got[2].as_ref().unwrap(), &good[1]);
        assert_eq!(got[3], Err(RsaError::CiphertextOutOfRange));
        assert_eq!(got[4].as_ref().unwrap(), &good[2]);
    }

    #[test]
    fn batch_leaves_connection_rng_untouched_by_cached_blinding() {
        // With a warm blinding cache the batch must not draw from the rng
        // at all — the byte-identical-flights invariant depends on it.
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"batch-rng-warm");
        let cipher = pkcs1_cipher(key, b"warmup", &mut rng);
        // Warm the cache.
        let _ = key.decrypt_batch(&[BatchCipher::new(cipher.clone())], &mut rng);
        let mut a = SslRng::from_seed(b"probe");
        let mut b = SslRng::from_seed(b"probe");
        let _ = key.decrypt_batch(&[BatchCipher::new(cipher)], &mut a);
        assert_eq!(a.next_u64(), b.next_u64(), "warm-cache batch advanced the rng");
    }

    #[test]
    fn empty_batch_is_empty() {
        let key = rsa512();
        let mut rng = SslRng::from_seed(b"empty");
        assert!(key.decrypt_batch(&[], &mut rng).is_empty());
    }
}
