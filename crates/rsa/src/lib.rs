//! RSA as used by SSL v3, mirroring OpenSSL 0.9.7's structure.
//!
//! The paper partitions RSA decryption into six steps (Table 7): *Init*,
//! *data→bn*, *blinding*, *computation*, *bn→data* and *block parsing* —
//! and shows the computation (CRT Montgomery exponentiation) at 97–99%.
//! This crate implements that exact pipeline:
//!
//! * [`RsaPrivateKey::generate`] — Miller–Rabin prime generation, e = 65537,
//!   CRT parameters, cached Montgomery contexts.
//! * [`RsaPrivateKey::raw_decrypt`] — CRT exponentiation
//!   (`m₁ = c^dP mod p`, `m₂ = c^dQ mod q`, Garner recombination), with a
//!   non-CRT variant for the ablation bench.
//! * [`Blinding`] — Kocher-style timing-attack blinding (the paper's step 3,
//!   citing Brumley & Boneh).
//! * [`pkcs1`] — PKCS #1 v1.5 block formats (the paper's step 6 parses
//!   these).
//! * [`RsaPrivateKey::decrypt_instrumented`] — the six-step pipeline with a
//!   per-step [`PhaseSet`], feeding the Table 7 experiment.
//! * [`x509`] — a miniature certificate (issue/verify), standing in for the
//!   "X509 functions" the paper charges to handshake step 3.
//!
//! # Examples
//!
//! ```
//! use sslperf_rng::SslRng;
//! use sslperf_rsa::RsaPrivateKey;
//!
//! let mut rng = SslRng::from_seed(b"doc-example");
//! let key = RsaPrivateKey::generate(512, &mut rng)?;
//! let secret = b"48-byte pre-master secret simulated here!!!!!!!";
//! let cipher = key.public_key().encrypt_pkcs1(secret, &mut rng)?;
//! assert_eq!(key.decrypt_pkcs1(&cipher)?, secret);
//! # Ok::<(), sslperf_rsa::RsaError>(())
//! ```
//!
//! # Security
//!
//! Performance-study code: no constant-time guarantees, PKCS#1 v1.5 padding
//! oracle not mitigated. Never use for real secrets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod blinding;
mod decrypt;
mod keys;
pub mod pkcs1;
pub mod x509;

pub use batch::BatchCipher;
pub use blinding::Blinding;
pub use decrypt::STEP_NAMES;
pub use keys::{RsaPrivateKey, RsaPublicKey};
// `RsaPrivateKey::set_limb_width` takes this; re-export so callers of the
// key API don't need a direct bignum dependency.
pub use sslperf_bignum::LimbWidth;
pub use sslperf_profile::PhaseSet;

use std::fmt;

/// Errors from RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the modulus under the required padding.
    MessageTooLong,
    /// Ciphertext is not smaller than the modulus.
    CiphertextOutOfRange,
    /// PKCS #1 block parsing failed (bad type byte, missing separator or
    /// short padding).
    Padding,
    /// Signature did not verify.
    BadSignature,
    /// Key generation failed to produce usable parameters.
    KeyGeneration,
    /// Requested key size is too small to hold any padded message.
    KeyTooSmall,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            RsaError::MessageTooLong => "message too long for modulus",
            RsaError::CiphertextOutOfRange => "ciphertext out of range",
            RsaError::Padding => "invalid PKCS#1 padding",
            RsaError::BadSignature => "signature verification failed",
            RsaError::KeyGeneration => "key generation failed",
            RsaError::KeyTooSmall => "modulus too small",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for RsaError {}

#[cfg(test)]
pub(crate) mod test_keys {
    //! Shared deterministic test keys (generation is the slow part of the
    //! test suite, so each size is generated once).

    use crate::RsaPrivateKey;
    use sslperf_rng::SslRng;
    use std::sync::OnceLock;

    pub fn rsa512() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = SslRng::from_seed(b"test-key-512");
            RsaPrivateKey::generate(512, &mut rng).expect("keygen")
        })
    }

    pub fn rsa1024() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = SslRng::from_seed(b"test-key-1024");
            RsaPrivateKey::generate(1024, &mut rng).expect("keygen")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(RsaError::Padding.to_string(), "invalid PKCS#1 padding");
        assert_eq!(RsaError::MessageTooLong.to_string(), "message too long for modulus");
    }
}
