//! RFC 5869 HKDF: extract-and-expand key derivation over [`Hmac`].
//!
//! TLS 1.3's key schedule (RFC 8446 §7.1) is a tree of HKDF-Extract and
//! HKDF-Expand calls; the protocol-specific `ExpandLabel` framing lives in
//! the SSL crate, while the generic two-phase construction lives here next
//! to the HMAC it is built on.

use crate::{HashAlg, Hmac};

/// Longest digest of any [`HashAlg`] (SHA-256); sizes the stack buffers.
const MAX_HASH_LEN: usize = 32;

/// `HKDF-Extract(salt, ikm)`: concentrates possibly-weak input keying
/// material into one pseudorandom key of [`HashAlg::output_len`] bytes.
///
/// An empty `salt` is treated as the RFC's default all-zero string of hash
/// length.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::{hkdf, HashAlg};
///
/// let prk = hkdf::extract(HashAlg::Sha256, b"salt", b"input keying material");
/// assert_eq!(prk.len(), 32);
/// ```
#[must_use]
pub fn extract(alg: HashAlg, salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    let zero_salt = [0u8; MAX_HASH_LEN];
    let salt = if salt.is_empty() { &zero_salt[..alg.output_len()] } else { salt };
    Hmac::mac(alg, salt, ikm)
}

/// `HKDF-Expand(prk, info, out_len)`: stretches a pseudorandom key into
/// `out_len` bytes of output keying material.
///
/// # Panics
///
/// Panics if `out_len > 255 * HashLen`, the RFC 5869 ceiling.
#[must_use]
pub fn expand(alg: HashAlg, prk: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    let hash_len = alg.output_len();
    assert!(out_len <= 255 * hash_len, "HKDF-Expand output too long");
    let mut okm = vec![0u8; out_len];
    let keyed = Hmac::new(alg, prk);
    let mut block = [0u8; MAX_HASH_LEN];
    let mut prev_len = 0;
    for (i, chunk) in okm.chunks_mut(hash_len).enumerate() {
        let mut mac = keyed.clone();
        mac.update(&block[..prev_len]);
        mac.update(info);
        mac.update(&[i as u8 + 1]);
        mac.finalize_into(&mut block[..hash_len]);
        prev_len = hash_len;
        chunk.copy_from_slice(&block[..chunk.len()]);
    }
    okm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 5869 appendix A, test case 1 (basic SHA-256). The full
    /// three-case suite lives in `tests/known_answer.rs`.
    #[test]
    fn rfc5869_case_1() {
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let prk = extract(HashAlg::Sha256, &salt, &[0x0b; 22]);
        assert_eq!(hex(&prk), "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = expand(HashAlg::Sha256, &prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// Empty salt falls back to the all-zero string of hash length.
    #[test]
    fn empty_salt_is_zero_block() {
        let a = extract(HashAlg::Sha256, b"", b"ikm");
        let b = extract(HashAlg::Sha256, &[0u8; 32], b"ikm");
        assert_eq!(a, b);
    }

    #[test]
    fn expand_multi_block_and_truncation() {
        let prk = extract(HashAlg::Sha1, b"salt", b"ikm");
        let long = expand(HashAlg::Sha1, &prk, b"info", 61);
        let short = expand(HashAlg::Sha1, &prk, b"info", 16);
        assert_eq!(long.len(), 61);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    #[should_panic(expected = "output too long")]
    fn expand_rejects_oversize() {
        let _ = expand(HashAlg::Sha256, &[0u8; 32], b"", 255 * 32 + 1);
    }
}
