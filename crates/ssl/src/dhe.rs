//! Finite-field ephemeral Diffie-Hellman over the RFC 7919 ffdhe2048 group.
//!
//! The TLS 1.3-style machine's `key_share` exchange runs here: each side
//! draws an ephemeral exponent, publishes `g^x mod p` (a fixed 256-byte
//! big-endian encoding) and derives the shared secret `Y^x mod p` with the
//! same Montgomery kernels (`crates/bignum`) the RSA path uses — so the
//! paper's Table 7/8 "computation" accounting applies unchanged, just with
//! two 2048-bit exponentiations per handshake instead of one CRT
//! decryption. The two are not the same algorithm: `g^x` has the same base
//! in every handshake, so it walks a fixed-base comb precomputed once per
//! process (31 squarings + ≤ 32 multiplications), while `Y^x` has a fresh
//! base each time and runs the window ladder (~330 operations).
//!
//! RFC 7919 fixes the group, so there are no parameters to negotiate and
//! no small-subgroup surprises beyond the range check in
//! [`validate_public`]: the group is a safe-prime group (`p = 2q + 1`),
//! and rejecting `Y ∉ [2, p-2]` rules out the order-1 and order-2
//! elements.

use std::sync::OnceLock;

use sslperf_bignum::{Bn, FixedBaseComb, MontCtx};
use sslperf_profile::counters;
use sslperf_rng::SslRng;

use crate::SslError;

/// The RFC 7919 appendix A.1 ffdhe2048 prime, most significant digit first.
pub const FFDHE2048_P_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFADF85458A2BB4A9AAFDC5620273D3CF1",
    "D8B9C583CE2D3695A9E13641146433FBCC939DCE249B3EF9",
    "7D2FE363630C75D8F681B202AEC4617AD3DF1ED5D5FD6561",
    "2433F51F5F066ED0856365553DED1AF3B557135E7F57C935",
    "984F0C70E0E68B77E2A689DAF3EFE8721DF158A136ADE735",
    "30ACCA4F483A797ABC0AB182B324FB61D108A94BB2C8E3FB",
    "B96ADAB760D7F4681D4F42A3DE394DF4AE56EDE76372BB19",
    "0B07A7C8EE0A6D709E02FCE1CDF7E2ECC03404CD28342F61",
    "9172FE9CE98583FF8E4F1232EEF28183C3FE3B1B4C6FAD73",
    "3BB5FCBC2EC22005C58EF1837D1683B2C6F34A26C1B2EFFA",
    "886B423861285C97FFFFFFFFFFFFFFFF",
);

/// Wire length of a public value or shared secret: the 2048-bit modulus,
/// big-endian, left-padded with zeros.
pub const FFDHE2048_LEN: usize = 256;

/// The group generator, `g = 2`.
pub const FFDHE2048_G: u64 = 2;

/// Ephemeral exponent length in bytes. 256 bits doubles the ~112-bit
/// security the 2048-bit group offers (RFC 7919 §5.2 recommends at least
/// twice the target strength).
const EXPONENT_LEN: usize = 32;

struct Group {
    p_minus_2: Bn,
    ctx: MontCtx,
    /// Powers of the generator for exponents of [`EXPONENT_LEN`] bytes.
    g_comb: FixedBaseComb,
}

fn group() -> &'static Group {
    static GROUP: OnceLock<Group> = OnceLock::new();
    GROUP.get_or_init(|| {
        let p = Bn::from_hex(FFDHE2048_P_HEX).expect("ffdhe2048 prime literal");
        let p_minus_2 = p.sub(&Bn::from_u64(2));
        let ctx = MontCtx::new(&p).expect("odd modulus");
        let g_comb = ctx.fixed_base_comb(&Bn::from_u64(FFDHE2048_G), 8 * EXPONENT_LEN);
        Group { p_minus_2, ctx, g_comb }
    })
}

/// Parses and range-checks a peer public value.
///
/// Accepts exactly [`FFDHE2048_LEN`] bytes encoding `Y ∈ [2, p-2]`; the
/// excluded endpoints are the identity and the order-2 element `p-1`,
/// which would collapse the shared secret to 1 or ±1.
pub fn validate_public(bytes: &[u8]) -> Result<Bn, SslError> {
    if bytes.len() != FFDHE2048_LEN {
        return Err(SslError::Decode("dhe public must be 256 bytes"));
    }
    let y = Bn::from_bytes_be(bytes);
    let two = Bn::from_u64(2);
    if y < two || y > group().p_minus_2 {
        return Err(SslError::Decode("dhe public out of range"));
    }
    Ok(y)
}

/// An ephemeral key pair: secret exponent plus encoded public value.
/// `Debug` shows only the public half; the exponent stays out of logs.
#[derive(Clone)]
pub struct DheKeyPair {
    x: Bn,
    public: Vec<u8>,
}

impl std::fmt::Debug for DheKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DheKeyPair").field("public", &self.public).finish_non_exhaustive()
    }
}

impl DheKeyPair {
    /// Draws a fresh 256-bit exponent from `rng` and computes
    /// `g^x mod p`. The top exponent bit is pinned so every key pair
    /// costs the same number of squarings — the anatomy ledger should
    /// not see data-dependent exponentiation lengths.
    #[must_use]
    pub fn generate(rng: &mut SslRng) -> Self {
        counters::count("dhe_mod_exp", 1);
        let mut buf = [0u8; EXPONENT_LEN];
        rng.fill_bytes(&mut buf);
        buf[0] |= 0x80;
        let x = Bn::from_bytes_be(&buf);
        let public = group().g_comb.pow(&x).to_bytes_be_padded(FFDHE2048_LEN);
        DheKeyPair { x, public }
    }

    /// The encoded public value `g^x mod p` (always 256 bytes).
    #[must_use]
    pub fn public(&self) -> &[u8] {
        &self.public
    }

    /// Computes the shared secret `Y^x mod p` against a validated peer
    /// public value, encoded like the public value (256 bytes, padded).
    #[must_use]
    pub fn agree(&self, peer: &Bn) -> Vec<u8> {
        counters::count("dhe_mod_exp", 1);
        group().ctx.mod_exp(peer, &self.x).to_bytes_be_padded(FFDHE2048_LEN)
    }
}

/// The result of one side's complete key-exchange computation: its own
/// public value and the agreed shared secret. This is what a
/// [`crate::CryptoJob`] returns when the exponentiation is offloaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DheAgreed {
    /// Our encoded public value, to go into the hello `key_share`.
    pub public: Vec<u8>,
    /// The 256-byte shared secret feeding HKDF-Extract.
    pub shared: Vec<u8>,
}

/// Generates an ephemeral key pair and agrees against a validated peer
/// public value in one step — the unit of work a TLS 1.3 server's
/// [`crate::CryptoJob`] executes, mirroring how `RsaPrivateKey::decrypt` is
/// the unit for SSLv3.
#[must_use]
pub fn agree_ephemeral(rng: &mut SslRng, peer: &Bn) -> DheAgreed {
    let pair = DheKeyPair::generate(rng);
    let shared = pair.agree(peer);
    DheAgreed { public: pair.public, shared }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_agrees_both_ways() {
        let mut rng_a = SslRng::from_seed(b"dhe-side-a");
        let mut rng_b = SslRng::from_seed(b"dhe-side-b");
        let a = DheKeyPair::generate(&mut rng_a);
        let b = DheKeyPair::generate(&mut rng_b);
        let shared_a = a.agree(&validate_public(b.public()).expect("b public"));
        let shared_b = b.agree(&validate_public(a.public()).expect("a public"));
        assert_eq!(shared_a, shared_b);
        assert_eq!(shared_a.len(), FFDHE2048_LEN);
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let a = DheKeyPair::generate(&mut SslRng::from_seed(b"dhe-det"));
        let b = DheKeyPair::generate(&mut SslRng::from_seed(b"dhe-det"));
        assert_eq!(a.public(), b.public());
    }

    #[test]
    fn rejects_degenerate_publics() {
        let zero = vec![0u8; FFDHE2048_LEN];
        assert!(validate_public(&zero).is_err(), "0");
        let mut one = vec![0u8; FFDHE2048_LEN];
        one[FFDHE2048_LEN - 1] = 1;
        assert!(validate_public(&one).is_err(), "1");
        let p_minus_1 = {
            let p = Bn::from_hex(FFDHE2048_P_HEX).expect("p");
            p.sub(&Bn::from_u64(1)).to_bytes_be_padded(FFDHE2048_LEN)
        };
        assert!(validate_public(&p_minus_1).is_err(), "p-1");
        assert!(validate_public(&[0u8; 255]).is_err(), "short");
        let two = {
            let mut v = vec![0u8; FFDHE2048_LEN];
            v[FFDHE2048_LEN - 1] = 2;
            v
        };
        assert!(validate_public(&two).is_ok(), "g itself is in range");
    }

    #[test]
    fn agree_ephemeral_round_trip() {
        let b = DheKeyPair::generate(&mut SslRng::from_seed(b"dhe-peer"));
        let peer = validate_public(b.public()).expect("b public");
        let agreed = agree_ephemeral(&mut SslRng::from_seed(b"dhe-self"), &peer);
        let shared_b = b.agree(&validate_public(&agreed.public).expect("public"));
        assert_eq!(agreed.shared, shared_b);
    }
}
