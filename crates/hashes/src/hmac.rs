//! RFC 2104 HMAC over either hash algorithm.

use crate::block::BLOCK_LEN;
use crate::{HashAlg, Hasher};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A keyed message-authentication code: `H((K ^ opad) || H((K ^ ipad) || m))`.
///
/// SSL v3 proper uses an older concatenation MAC (implemented in
/// `sslperf-ssl`), but HMAC is the construction TLS adopted.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::{HashAlg, Hmac};
///
/// let mut mac = Hmac::new(HashAlg::Sha1, b"key");
/// mac.update(b"message");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 20);
/// assert_eq!(tag, Hmac::mac(HashAlg::Sha1, b"key", b"message"));
/// ```
#[derive(Debug, Clone)]
pub struct Hmac {
    inner: Hasher,
    outer: Hasher,
}

impl Hmac {
    /// Creates an HMAC instance keyed with `key`.
    ///
    /// Keys longer than the 64-byte block are first hashed, per RFC 2104.
    #[must_use]
    pub fn new(alg: HashAlg, key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Hasher::new(alg);
            h.update(key);
            h.finalize_into(&mut key_block[..alg.output_len()]);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Hasher::new(alg);
        inner.update(&key_block.map(|b| b ^ IPAD));
        let mut outer = Hasher::new(alg);
        outer.update(&key_block.map(|b| b ^ OPAD));
        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the authentication tag.
    #[must_use]
    pub fn finalize(self) -> Vec<u8> {
        let alg = self.inner.alg();
        let mut tag = vec![0u8; alg.output_len()];
        self.finalize_into(&mut tag);
        tag
    }

    /// Like [`Hmac::finalize`], but writes the tag into `out` without heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is exactly [`HashAlg::output_len`] bytes.
    pub fn finalize_into(self, out: &mut [u8]) {
        let alg = self.inner.alg();
        let mut inner_digest = [0u8; 32];
        let inner_digest = &mut inner_digest[..alg.output_len()];
        self.inner.finalize_into(inner_digest);
        let mut outer = self.outer;
        outer.update(inner_digest);
        outer.finalize_into(out);
    }

    /// One-shot convenience: MAC of `data` under `key`.
    #[must_use]
    pub fn mac(alg: HashAlg, key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Hmac::new(alg, key);
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2202 test cases 1–3 for both algorithms.
    #[test]
    fn rfc2202_md5() {
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Md5, &[0x0b; 16], b"Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Md5, b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Md5, &[0xaa; 16], &[0xdd; 50])),
            "56be34521d144c88dbb8c733f0e8b3f6"
        );
    }

    #[test]
    fn rfc2202_sha1() {
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Sha1, &[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Sha1, b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Sha1, &[0xaa; 20], &[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    /// RFC 2202 case 6: key longer than the block size is hashed first.
    #[test]
    fn long_key_is_hashed() {
        assert_eq!(
            hex(&Hmac::mac(
                HashAlg::Sha1,
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut m = Hmac::new(HashAlg::Md5, b"k");
        m.update(b"ab");
        m.update(b"cd");
        assert_eq!(m.finalize(), Hmac::mac(HashAlg::Md5, b"k", b"abcd"));
    }

    #[test]
    fn finalize_into_matches_finalize() {
        for alg in [HashAlg::Md5, HashAlg::Sha1] {
            let mut m = Hmac::new(alg, b"key");
            m.update(b"message");
            let mut tag = vec![0u8; alg.output_len()];
            m.clone().finalize_into(&mut tag);
            assert_eq!(tag, m.finalize());
        }
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(
            Hmac::mac(HashAlg::Sha1, b"k1", b"data"),
            Hmac::mac(HashAlg::Sha1, b"k2", b"data")
        );
    }
}
