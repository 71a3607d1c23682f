//! Multi-precision integer arithmetic mirroring OpenSSL's `BN` library.
//!
//! The paper attributes ~97% of RSA decryption to multi-precision
//! "computation" (Table 7) and names the hot functions — `bn_mul_add_words`,
//! `bn_sub_words`, `BN_from_montgomery`, `bn_add_words` … (Table 8). To
//! reproduce those results the arithmetic here keeps OpenSSL's structure:
//!
//! * numbers are little-endian arrays of **32-bit words** (the paper analyzes
//!   32-bit x86 code);
//! * all O(n²) work funnels through the word kernels in [`words`], which
//!   carry the OpenSSL names and report call/word counts to
//!   [`sslperf_profile::counters`];
//! * modular exponentiation uses Montgomery multiplication
//!   ([`MontCtx`]) with a sliding window, like `BN_mod_exp_mont`.
//!
//! Montgomery contexts additionally carry a raw-speed engine over **64-bit
//! limbs** with `u128` accumulators — one fused multiply and one
//! square-then-reduce, instantiated at the limb counts the serving
//! workloads run. [`MontCtx::new`] builds on it;
//! [`MontCtx::with_limb_width`] with [`LimbWidth::U32`] keeps the
//! paper-faithful u32 path selectable per context, so the profile counters
//! can still reconstruct Table 8. A base that never changes gets a
//! [`FixedBaseComb`] instead of a ladder.
//!
//! The two halves of an RSA-1024 CRT private operation go through
//! [`MontCtx::mod_exp_pair`]: on a CPU with the AVX-512 integer FMA unit
//! both run in one radix-2^52 loop whose operation count and table
//! addresses do not depend on the exponents — the crate's one `unsafe`
//! island, behind a wrapper that checks the CPU — and elsewhere they are
//! two [`MontCtx::mod_exp`] calls.
//!
//! # Examples
//!
//! ```
//! use sslperf_bignum::Bn;
//!
//! let a = Bn::from_u64(1 << 40);
//! let b = Bn::from_u64(1 << 20);
//! assert_eq!(a.mul(&b), Bn::from_hex("1000000000000000").unwrap());
//! let (q, r) = a.div_rem(&b);
//! assert_eq!(q, Bn::from_u64(1 << 20));
//! assert!(r.is_zero());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod comb;
mod div;
mod gcd;
mod mont;
#[cfg(target_arch = "x86_64")]
mod mont52;
mod mont64;
mod prime;
pub mod words;

pub use comb::FixedBaseComb;
pub use gcd::ExtendedGcd;
pub use mont::MontCtx;
pub use prime::{generate_prime, is_probable_prime, EntropySource};

use std::cmp::Ordering;
use std::fmt;

/// Limb width of a Montgomery arithmetic engine.
///
/// [`LimbWidth::U32`] is the paper-faithful layout (32-bit x86 words, Table
/// 8/9 counter attribution); [`LimbWidth::U64`] is the raw-speed layout
/// (64-bit limbs, `u128` accumulators, one quarter the inner-loop steps).
/// Both produce bit-identical results — pinned by the differential proptests
/// and the wire-flight pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimbWidth {
    /// 32-bit words, `u64` accumulators — the paper's profile subject.
    U32,
    /// 64-bit limbs, `u128` accumulators — the raw-speed default.
    U64,
}

impl LimbWidth {
    /// Short lowercase name ("u32" / "u64"), as used in reports and test
    /// messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LimbWidth::U32 => "u32",
            LimbWidth::U64 => "u64",
        }
    }
}

/// Errors returned by fallible `Bn` operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnError {
    /// Division or modular reduction by zero.
    DivideByZero,
    /// The operand has no modular inverse (gcd with the modulus is not 1).
    NoInverse,
    /// A hex string contained a non-hexadecimal character.
    ParseHex,
    /// The modulus for a Montgomery context must be odd and nonzero.
    EvenModulus,
}

impl fmt::Display for BnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            BnError::DivideByZero => "division by zero",
            BnError::NoInverse => "operand has no modular inverse",
            BnError::ParseHex => "invalid hexadecimal digit",
            BnError::EvenModulus => "montgomery modulus must be odd and nonzero",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for BnError {}

/// An arbitrary-precision unsigned integer stored as little-endian 32-bit
/// words.
///
/// The representation is always *normalized*: no trailing zero words, and
/// zero is the empty word vector.
///
/// # Examples
///
/// ```
/// use sslperf_bignum::Bn;
///
/// let n = Bn::from_bytes_be(&[0x01, 0x00]); // 256
/// assert_eq!(n.to_u64(), Some(256));
/// assert_eq!(n.bit_len(), 9);
/// assert_eq!(n.to_bytes_be(), vec![0x01, 0x00]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bn {
    pub(crate) words: Vec<u32>,
}

impl Bn {
    /// The value zero.
    #[must_use]
    pub fn zero() -> Self {
        Bn { words: Vec::new() }
    }

    /// The value one.
    #[must_use]
    pub fn one() -> Self {
        Bn { words: vec![1] }
    }

    /// Creates a value from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        let mut bn = Bn { words: vec![v as u32, (v >> 32) as u32] };
        bn.normalize();
        bn
    }

    /// Creates a value from little-endian words (the internal layout).
    #[must_use]
    pub fn from_words(words: &[u32]) -> Self {
        let mut bn = Bn { words: words.to_vec() };
        bn.normalize();
        bn
    }

    /// Parses a big-endian hexadecimal string (case-insensitive, no prefix).
    ///
    /// # Errors
    ///
    /// Returns [`BnError::ParseHex`] on any non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, BnError> {
        let mut bn = Bn::zero();
        for ch in s.chars() {
            let digit = ch.to_digit(16).ok_or(BnError::ParseHex)?;
            bn = bn.shl(4);
            if digit != 0 {
                bn = bn.add(&Bn::from_u64(u64::from(digit)));
            }
        }
        Ok(bn)
    }

    /// Converts a big-endian byte string into an integer — OpenSSL's
    /// `BN_bin2bn`, the paper's *data→bn* step (Table 7, step 2).
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut words = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut iter = bytes.rchunks(4);
        for chunk in &mut iter {
            let mut w = 0u32;
            for &b in chunk {
                w = (w << 8) | u32::from(b);
            }
            words.push(w);
        }
        let mut bn = Bn { words };
        bn.normalize();
        bn
    }

    /// Serializes to a minimal big-endian byte string — OpenSSL's
    /// `BN_bn2bin`, the paper's *bn→data* step (Table 7, step 5). Zero
    /// serializes to an empty vector.
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in self.words.iter().rev() {
            out.extend_from_slice(&w.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.split_off(skip)
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    #[must_use]
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let bytes = self.to_bytes_be();
        assert!(bytes.len() <= len, "value needs {} bytes, got {len}", bytes.len());
        let mut out = vec![0u8; len - bytes.len()];
        out.extend_from_slice(&bytes);
        out
    }

    /// Renders as lowercase big-endian hex ("0" for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, w) in self.words.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{w:x}"));
            } else {
                s.push_str(&format!("{w:08x}"));
            }
        }
        s
    }

    /// Returns the value as `u64` if it fits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.words.len() {
            0 => Some(0),
            1 => Some(u64::from(self.words[0])),
            2 => Some(u64::from(self.words[0]) | (u64::from(self.words[1]) << 32)),
            _ => None,
        }
    }

    /// True when the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// True when the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.words.len() == 1 && self.words[0] == 1
    }

    /// True when the lowest bit is set.
    #[must_use]
    pub fn is_odd(&self) -> bool {
        self.words.first().is_some_and(|w| w & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.words.last() {
            None => 0,
            Some(top) => (self.words.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Number of significant 32-bit words.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Returns bit `i` (little-endian numbering; out of range is 0).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.words.get(i / 32).is_some_and(|w| (w >> (i % 32)) & 1 == 1)
    }

    /// A borrowed view of the little-endian words.
    #[must_use]
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }

    /// Copies another value into this one, reusing the allocation —
    /// OpenSSL's `BN_copy` (visible in the paper's Table 8).
    pub fn copy_from(&mut self, other: &Bn) {
        sslperf_profile::counters::count("BN_copy", other.words.len() as u64);
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    pub(crate) fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl Ord for Bn {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.words.len().cmp(&other.words.len()) {
            Ordering::Equal => {
                for (a, b) in self.words.iter().rev().zip(other.words.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl PartialOrd for Bn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u32> for Bn {
    fn from(v: u32) -> Self {
        Bn::from_u64(u64::from(v))
    }
}

impl From<u64> for Bn {
    fn from(v: u64) -> Self {
        Bn::from_u64(v)
    }
}

impl fmt::Debug for Bn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bn(0x{})", self.to_hex())
    }
}

impl fmt::Display for Bn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for Bn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Bn::zero().is_zero());
        assert!(Bn::one().is_one());
        assert!(!Bn::zero().is_one());
        assert_eq!(Bn::zero().bit_len(), 0);
        assert_eq!(Bn::one().bit_len(), 1);
        assert_eq!(Bn::zero(), Bn::default());
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            assert_eq!(Bn::from_u64(v).to_u64(), Some(v));
        }
        let big = Bn::from_hex("10000000000000000").unwrap(); // 2^64
        assert_eq!(big.to_u64(), None);
    }

    #[test]
    fn bytes_round_trip() {
        let cases: &[&[u8]] = &[&[], &[1], &[0x12, 0x34], &[0xff; 13], &[1, 0, 0, 0, 0]];
        for &bytes in cases {
            let bn = Bn::from_bytes_be(bytes);
            let back = bn.to_bytes_be();
            // Leading zeros are dropped in the minimal form.
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            assert_eq!(back, &bytes[skip..]);
        }
    }

    #[test]
    fn padded_bytes() {
        let bn = Bn::from_u64(0x1234);
        assert_eq!(bn.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
        assert_eq!(Bn::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "value needs")]
    fn padded_bytes_too_small_panics() {
        let _ = Bn::from_u64(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_round_trip() {
        for s in ["0", "1", "ff", "deadbeef", "123456789abcdef0fedcba9876543210"] {
            let bn = Bn::from_hex(s).unwrap();
            assert_eq!(bn.to_hex(), *s);
        }
        assert_eq!(Bn::from_hex("00ff").unwrap().to_hex(), "ff");
        assert!(Bn::from_hex("xyz").is_err());
    }

    #[test]
    fn ordering() {
        let a = Bn::from_u64(5);
        let b = Bn::from_u64(500);
        let c = Bn::from_hex("ffffffffffffffffff").unwrap();
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&Bn::from_u64(5)), Ordering::Equal);
    }

    #[test]
    fn bits() {
        let bn = Bn::from_u64(0b1010);
        assert!(!bn.bit(0));
        assert!(bn.bit(1));
        assert!(!bn.bit(2));
        assert!(bn.bit(3));
        assert!(!bn.bit(1000));
        assert!(!Bn::from_u64(6).is_odd());
        assert!(Bn::from_u64(7).is_odd());
    }

    #[test]
    fn normalization_strips_zero_words() {
        let bn = Bn::from_words(&[1, 0, 0]);
        assert_eq!(bn.word_len(), 1);
        assert_eq!(bn, Bn::one());
    }

    #[test]
    fn copy_from_reuses() {
        let src = Bn::from_hex("abcdef0123456789").unwrap();
        let mut dst = Bn::from_u64(7);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn display_formats() {
        let bn = Bn::from_u64(0xbeef);
        assert_eq!(format!("{bn}"), "0xbeef");
        assert_eq!(format!("{bn:?}"), "Bn(0xbeef)");
        assert_eq!(format!("{bn:x}"), "beef");
        assert_eq!(format!("{}", Bn::zero()), "0x0");
    }

    #[test]
    fn error_display() {
        assert_eq!(BnError::DivideByZero.to_string(), "division by zero");
        assert_eq!(BnError::ParseHex.to_string(), "invalid hexadecimal digit");
    }
}
