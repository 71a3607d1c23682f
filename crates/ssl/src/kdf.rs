//! SSL v3 key derivation: the MD5/SHA-1 cascade.
//!
//! Both derivations the paper describes — pre-master → master (handshake
//! step 5) and master → key block (step 6a, `gen_key_block`) — are the same
//! construction:
//!
//! ```text
//! block_i = MD5(secret ‖ SHA1(salt_i ‖ secret ‖ rand1 ‖ rand2))
//! salt_1 = "A", salt_2 = "BB", salt_3 = "CCC", …
//! ```

use sslperf_hashes::{Md5, Sha1};
use sslperf_profile::counters;

/// Runs the SSLv3 derivation cascade, producing `out_len` bytes.
///
/// # Panics
///
/// Panics if `out_len` requires more than 26 cascade rounds (the salt
/// alphabet is A–Z, which caps the output at 416 bytes — far above any
/// suite's key-block need).
#[must_use]
pub fn derive(secret: &[u8], rand1: &[u8], rand2: &[u8], out_len: usize) -> Vec<u8> {
    let rounds = out_len.div_ceil(16);
    assert!(rounds <= 26, "SSLv3 KDF output capped at 416 bytes");
    counters::count("ssl3_kdf", out_len as u64);
    let mut out = Vec::with_capacity(rounds * 16);
    for i in 0..rounds {
        let salt_char = b'A' + i as u8;
        let salt = vec![salt_char; i + 1];
        let mut sha = Sha1::new();
        sha.update(&salt);
        sha.update(secret);
        sha.update(rand1);
        sha.update(rand2);
        let sha_digest = sha.finalize();
        let mut md5 = Md5::new();
        md5.update(secret);
        md5.update(&sha_digest);
        out.extend_from_slice(&md5.finalize());
    }
    out.truncate(out_len);
    out
}

/// Derives the 48-byte master secret from the pre-master secret and the
/// hello randoms (the paper's `gen_master_secret`).
#[must_use]
pub fn master_secret(pre_master: &[u8], client_random: &[u8], server_random: &[u8]) -> Vec<u8> {
    counters::count("gen_master_secret", 1);
    derive(pre_master, client_random, server_random, 48)
}

/// Derives the key block from the master secret (the paper's
/// `gen_key_block`). Note the random order flips relative to
/// [`master_secret`]: server random first.
#[must_use]
pub fn key_block(master: &[u8], server_random: &[u8], client_random: &[u8], len: usize) -> Vec<u8> {
    counters::count("gen_key_block", 1);
    derive(master, server_random, client_random, len)
}

/// The TLS 1.0 PRF (RFC 2246 §5), included as the successor construction
/// OpenSSL shipped alongside SSLv3 (§3.1 notes the library supports both):
/// `PRF(secret, label, seed) = P_MD5(S1, ...) xor P_SHA1(S2, ...)`.
///
/// Kept as the successor construction for comparison; SSL v3 connections in
/// this crate use [`fn@derive`].
#[must_use]
pub fn tls1_prf(secret: &[u8], label: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
    use sslperf_hashes::{HashAlg, Hmac};
    counters::count("tls1_prf", out_len as u64);
    let half = secret.len().div_ceil(2);
    let s1 = &secret[..half];
    let s2 = &secret[secret.len() - half..];
    let mut label_seed = label.to_vec();
    label_seed.extend_from_slice(seed);

    let p_hash = |alg: HashAlg, key: &[u8]| -> Vec<u8> {
        let mut out = Vec::with_capacity(out_len);
        // A(1) = HMAC(key, seed); A(i) = HMAC(key, A(i-1)).
        let mut a = Hmac::mac(alg, key, &label_seed);
        while out.len() < out_len {
            let mut h = Hmac::new(alg, key);
            h.update(&a);
            h.update(&label_seed);
            out.extend_from_slice(&h.finalize());
            a = Hmac::mac(alg, key, &a);
        }
        out.truncate(out_len);
        out
    };

    let md5_part = p_hash(HashAlg::Md5, s1);
    let sha_part = p_hash(HashAlg::Sha1, s2);
    md5_part.iter().zip(&sha_part).map(|(a, b)| a ^ b).collect()
}

/// The parsed key block: MAC secrets, cipher keys and IVs for both
/// directions, in the SSLv3 layout order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMaterial {
    /// Client-write MAC secret.
    pub client_mac: Vec<u8>,
    /// Server-write MAC secret.
    pub server_mac: Vec<u8>,
    /// Client-write cipher key.
    pub client_key: Vec<u8>,
    /// Server-write cipher key.
    pub server_key: Vec<u8>,
    /// Client-write IV (empty for stream ciphers).
    pub client_iv: Vec<u8>,
    /// Server-write IV (empty for stream ciphers).
    pub server_iv: Vec<u8>,
}

impl KeyMaterial {
    /// Slices a raw key block into its six parts.
    ///
    /// # Panics
    ///
    /// Panics if `block` is shorter than the layout requires.
    #[must_use]
    pub fn parse(block: &[u8], mac_len: usize, key_len: usize, iv_len: usize) -> Self {
        let need = 2 * mac_len + 2 * key_len + 2 * iv_len;
        assert!(block.len() >= need, "key block too short: {} < {need}", block.len());
        let mut offset = 0;
        let mut take = |n: usize| {
            let part = block[offset..offset + n].to_vec();
            offset += n;
            part
        };
        KeyMaterial {
            client_mac: take(mac_len),
            server_mac: take(mac_len),
            client_key: take(key_len),
            server_key: take(key_len),
            client_iv: take(iv_len),
            server_iv: take(iv_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_lengths() {
        for len in [0usize, 1, 15, 16, 17, 48, 104, 416] {
            assert_eq!(derive(b"secret", b"r1", b"r2", len).len(), len);
        }
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn derive_over_cap_panics() {
        let _ = derive(b"s", b"a", b"b", 417);
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = master_secret(b"pre", &[1; 32], &[2; 32]);
        let b = master_secret(b"pre", &[1; 32], &[2; 32]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48);
    }

    #[test]
    fn inputs_matter() {
        let base = master_secret(b"pre", &[1; 32], &[2; 32]);
        assert_ne!(base, master_secret(b"prf", &[1; 32], &[2; 32]));
        assert_ne!(base, master_secret(b"pre", &[3; 32], &[2; 32]));
        assert_ne!(base, master_secret(b"pre", &[1; 32], &[4; 32]));
    }

    #[test]
    fn prefix_property() {
        // Longer outputs extend shorter ones (cascade rounds are appended).
        let short = derive(b"s", b"x", b"y", 16);
        let long = derive(b"s", b"x", b"y", 48);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn random_order_flips_between_master_and_key_block() {
        // Both wrappers feed `derive`, so with identical literal argument
        // order the streams agree; the protocol-level flip (master uses
        // client-random first, key block server-random first) therefore
        // yields different bytes when the same randoms are passed.
        let m1 = master_secret(b"pre", b"AAAA", b"BBBB");
        let same_order = key_block(b"pre", b"AAAA", b"BBBB", 48);
        let flipped = key_block(b"pre", b"BBBB", b"AAAA", 48);
        assert_eq!(m1, same_order, "identical derive inputs, identical stream");
        assert_ne!(m1, flipped, "the protocol's flipped random order changes the stream");
    }

    #[test]
    fn key_material_layout() {
        let block: Vec<u8> = (0..104u8).collect();
        let km = KeyMaterial::parse(&block, 20, 24, 8);
        assert_eq!(km.client_mac, (0..20).collect::<Vec<u8>>());
        assert_eq!(km.server_mac, (20..40).collect::<Vec<u8>>());
        assert_eq!(km.client_key, (40..64).collect::<Vec<u8>>());
        assert_eq!(km.server_key, (64..88).collect::<Vec<u8>>());
        assert_eq!(km.client_iv, (88..96).collect::<Vec<u8>>());
        assert_eq!(km.server_iv, (96..104).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "key block too short")]
    fn short_key_block_panics() {
        let _ = KeyMaterial::parse(&[0u8; 10], 20, 24, 8);
    }

    #[test]
    fn tls1_prf_properties() {
        // RFC 2246 structural properties: length-exact, deterministic, and
        // sensitive to every input.
        let base = tls1_prf(b"master", b"key expansion", b"seed", 104);
        assert_eq!(base.len(), 104);
        assert_eq!(base, tls1_prf(b"master", b"key expansion", b"seed", 104));
        assert_ne!(base, tls1_prf(b"mastes", b"key expansion", b"seed", 104));
        assert_ne!(base, tls1_prf(b"master", b"key expansioo", b"seed", 104));
        assert_ne!(base, tls1_prf(b"master", b"key expansion", b"seee", 104));
        // Prefix property (P_hash streams).
        let short = tls1_prf(b"master", b"key expansion", b"seed", 16);
        assert_eq!(&base[..16], &short[..]);
        // Odd-length secrets split with one shared byte.
        let odd = tls1_prf(&[1, 2, 3], b"l", b"s", 32);
        assert_eq!(odd.len(), 32);
    }

    #[test]
    fn stream_cipher_empty_ivs() {
        let block = vec![7u8; 64];
        let km = KeyMaterial::parse(&block, 16, 16, 0);
        assert!(km.client_iv.is_empty());
        assert!(km.server_iv.is_empty());
    }
}
