//! The SSL v3 keyed MAC (the pre-HMAC concatenation construction).
//!
//! `MAC = hash(secret ‖ pad₂ ‖ hash(secret ‖ pad₁ ‖ seq ‖ type ‖ len ‖ data))`
//! with 48 pad bytes for MD5 and 40 for SHA-1. Every data record the paper
//! measures carries one of these (the `mac` rows of Table 2).

use sslperf_hashes::{HashAlg, Hasher, Sha1};
use sslperf_profile::counters;

const PAD1: [u8; 48] = [0x36; 48];
const PAD2: [u8; 48] = [0x5c; 48];

/// Largest MAC the record layer handles (SHA-256's 32 bytes); sizes the
/// stack buffers in [`compute_into`] and [`verify`].
pub const MAX_MAC_LEN: usize = 32;

/// Pad length for the SSLv3 MAC: 48 bytes for MD5, 40 for SHA-1. SHA-256
/// postdates SSLv3, so its 32-byte pad is our extension of the pattern
/// (block minus digest length), used only if a suite ever MACs with it.
#[must_use]
pub fn pad_len(alg: HashAlg) -> usize {
    match alg {
        HashAlg::Md5 => 48,
        HashAlg::Sha1 => 40,
        HashAlg::Sha256 => 32,
    }
}

/// Computes the SSLv3 record MAC.
///
/// `seq` is the 64-bit record sequence number, `content_type` the record
/// type byte, and `data` the compressed fragment.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::HashAlg;
/// use sslperf_ssl::mac::compute;
///
/// let tag = compute(HashAlg::Sha1, b"secret-mac-key-twenty", 0, 23, b"hello");
/// assert_eq!(tag.len(), 20);
/// ```
#[must_use]
pub fn compute(alg: HashAlg, secret: &[u8], seq: u64, content_type: u8, data: &[u8]) -> Vec<u8> {
    let mut tag = vec![0u8; alg.output_len()];
    compute_into(alg, secret, seq, content_type, data, &mut tag);
    tag
}

/// Computes the SSLv3 record MAC into a caller-provided slice, without heap
/// allocation — the primitive behind the record layer's in-place pipeline.
///
/// # Panics
///
/// Panics unless `tag` is exactly [`HashAlg::output_len`] bytes.
pub fn compute_into(
    alg: HashAlg,
    secret: &[u8],
    seq: u64,
    content_type: u8,
    data: &[u8],
    tag: &mut [u8],
) {
    counters::count("ssl3_mac", data.len() as u64);
    let mut inner = Hasher::new(alg);
    absorb_header(alg, secret, seq, content_type, data.len(), |part| inner.update(part));
    inner.update(data);
    let mut inner_digest = [0u8; MAX_MAC_LEN];
    let inner_digest = &mut inner_digest[..alg.output_len()];
    inner.finalize_into(inner_digest);
    outer_into(alg, secret, inner_digest, tag);
}

/// Computes the SHA-1 record MAC of `data` into `tag` as [`compute_into`]
/// does while AES-CBC-encrypting a prefix of `data` in the same pass
/// ([`Sha1::update_and_encrypt_cbc`], with `schedule` and `iv` as it takes
/// them). Returns how many leading bytes of `data` are now ciphertext — a
/// multiple of 64, possibly 0; the caller encrypts the rest of the record
/// on from `iv` once `tag` is in place.
pub(crate) fn compute_into_stitched(
    secret: &[u8],
    seq: u64,
    content_type: u8,
    data: &mut [u8],
    tag: &mut [u8],
    schedule: &[u8],
    iv: &mut [u8],
) -> usize {
    counters::count("ssl3_mac", data.len() as u64);
    let mut inner = Sha1::new();
    absorb_header(HashAlg::Sha1, secret, seq, content_type, data.len(), |part| inner.update(part));
    let encrypted = inner.update_and_encrypt_cbc(schedule, iv, data);
    outer_into(HashAlg::Sha1, secret, &inner.finalize(), tag);
    encrypted
}

/// Feeds the inner hash everything before the data:
/// `secret ‖ pad₁ ‖ seq ‖ type ‖ length`.
fn absorb_header(
    alg: HashAlg,
    secret: &[u8],
    seq: u64,
    content_type: u8,
    data_len: usize,
    mut update: impl FnMut(&[u8]),
) {
    update(secret);
    update(&PAD1[..pad_len(alg)]);
    update(&seq.to_be_bytes());
    update(&[content_type]);
    update(&(data_len as u16).to_be_bytes());
}

/// The outer hash, `hash(secret ‖ pad₂ ‖ inner_digest)`, into `tag`.
fn outer_into(alg: HashAlg, secret: &[u8], inner_digest: &[u8], tag: &mut [u8]) {
    let mut outer = Hasher::new(alg);
    outer.update(secret);
    outer.update(&PAD2[..pad_len(alg)]);
    outer.update(inner_digest);
    outer.finalize_into(tag);
}

/// Verifies a record MAC in constant time.
///
/// The tag comparison XOR-folds every byte before a single final check, so
/// the time taken is independent of *where* a forged tag first differs —
/// the remote-timing side channel a short-circuiting `==` would leak. A
/// wrong-length tag is still rejected up front: the length is public
/// (it is on the wire), so that branch reveals nothing.
#[must_use]
pub fn verify(
    alg: HashAlg,
    secret: &[u8],
    seq: u64,
    content_type: u8,
    data: &[u8],
    tag: &[u8],
) -> bool {
    if tag.len() != alg.output_len() {
        return false;
    }
    let mut expected = [0u8; MAX_MAC_LEN];
    let expected = &mut expected[..alg.output_len()];
    compute_into(alg, secret, seq, content_type, data, expected);
    ct_eq(expected, tag)
}

/// Constant-time slice equality for equal-length inputs: accumulates the
/// XOR of every byte pair and compares the fold once at the end.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    // black_box keeps the optimizer from reintroducing an early exit.
    sslperf_profile::black_box(diff) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_is_deterministic_and_keyed() {
        let a = compute(HashAlg::Sha1, b"key1", 5, 23, b"data");
        let b = compute(HashAlg::Sha1, b"key1", 5, 23, b"data");
        let c = compute(HashAlg::Sha1, b"key2", 5, 23, b"data");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_input_field_matters() {
        let base = compute(HashAlg::Sha1, b"k", 1, 23, b"data");
        assert_ne!(base, compute(HashAlg::Sha1, b"k", 2, 23, b"data"), "sequence");
        assert_ne!(base, compute(HashAlg::Sha1, b"k", 1, 22, b"data"), "content type");
        assert_ne!(base, compute(HashAlg::Sha1, b"k", 1, 23, b"Data"), "data");
    }

    #[test]
    fn output_lengths() {
        assert_eq!(compute(HashAlg::Md5, b"k", 0, 23, b"x").len(), 16);
        assert_eq!(compute(HashAlg::Sha1, b"k", 0, 23, b"x").len(), 20);
    }

    #[test]
    fn pad_lengths_match_ssl3_spec() {
        assert_eq!(pad_len(HashAlg::Md5), 48);
        assert_eq!(pad_len(HashAlg::Sha1), 40);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = compute(HashAlg::Md5, b"secret", 9, 23, b"payload");
        assert!(verify(HashAlg::Md5, b"secret", 9, 23, b"payload", &tag));
        assert!(!verify(HashAlg::Md5, b"secret", 9, 23, b"payloaX", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!verify(HashAlg::Md5, b"secret", 9, 23, b"payload", &bad));
    }

    #[test]
    fn compute_into_matches_compute() {
        for alg in [HashAlg::Md5, HashAlg::Sha1] {
            let mut tag = vec![0u8; alg.output_len()];
            compute_into(alg, b"secret", 7, 23, b"payload", &mut tag);
            assert_eq!(tag, compute(alg, b"secret", 7, 23, b"payload"));
        }
    }

    #[test]
    fn verify_rejects_wrong_length_tag() {
        let tag = compute(HashAlg::Sha1, b"k", 0, 23, b"x");
        assert!(!verify(HashAlg::Sha1, b"k", 0, 23, b"x", &tag[..19]));
    }

    #[test]
    fn empty_data_allowed() {
        let tag = compute(HashAlg::Sha1, b"k", 0, 23, b"");
        assert_eq!(tag.len(), 20);
    }
}
