//! FIPS 46-3 DES and Triple-DES (EDE).
//!
//! The block operation keeps the paper's three-part structure (Table 6):
//! an *initial permutation*, 16 (or 3×16) *substitution rounds* built on
//! eight fused SP tables (S-box + P permutation, 8 lookups per round), and a
//! *final permutation*. Like OpenSSL's `des_encrypt3`, 3DES shares a single
//! IP/FP pair around the 48 rounds.

use crate::{BlockCipher, CipherError};
use sslperf_profile::counters;
use std::sync::OnceLock;

/// Initial permutation (FIPS 46-3), 1-based bit numbers from the MSB.
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (the inverse of [`IP`]).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Key permutation PC-1: 64 key bits → 56 (drops parity).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Key permutation PC-2: 56 → 48 subkey bits.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-shift schedule for the 16 key-schedule rounds.
const SHIFTS: [u32; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The P permutation applied to the 32-bit S-box output.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// The eight S-boxes, each 4 rows × 16 columns (FIPS 46-3).
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies a 1-based-from-MSB bit permutation: output bit `i` (MSB first)
/// is input bit `table[i]` of an `in_width`-bit value.
fn permute(input: u64, in_width: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out = (out << 1) | ((input >> (in_width - u32::from(src))) & 1);
    }
    out
}

/// Fused SP tables: `sp[i][v]` is `P(S_i(v))` positioned in the 32-bit
/// Feistel output.
fn sp_tables() -> &'static [[u32; 64]; 8] {
    static SP: OnceLock<[[u32; 64]; 8]> = OnceLock::new();
    SP.get_or_init(|| {
        let mut sp = [[0u32; 64]; 8];
        for (i, sbox) in SBOX.iter().enumerate() {
            #[allow(clippy::needless_range_loop)] // v is the S-box input value
            for v in 0..64usize {
                let row = ((v >> 5) & 1) * 2 + (v & 1);
                let col = (v >> 1) & 0xf;
                let s = u64::from(sbox[row * 16 + col]);
                // S_i's nibble occupies bits 4i+1..4i+4 of the pre-P word.
                let positioned = s << (28 - 4 * i);
                sp[i][v] = permute(positioned, 32, &P) as u32;
            }
        }
        sp
    })
}

pub(crate) fn ip_table() -> &'static [u8; 64] {
    &IP
}

pub(crate) fn fp_table() -> &'static [u8; 64] {
    &FP
}

pub(crate) fn sp_tables_for_analysis() -> &'static [[u32; 64]; 8] {
    sp_tables()
}

/// One 16-round key schedule, stored as eight 6-bit chunks per round.
type KeySchedule = [[u8; 8]; 16];

fn key_schedule(key: &[u8; 8]) -> KeySchedule {
    counters::count("des_key_setup", 1);
    let key64 = u64::from_be_bytes(*key);
    let key56 = permute(key64, 64, &PC1);
    let mut c = (key56 >> 28) as u32 & 0x0fff_ffff;
    let mut d = key56 as u32 & 0x0fff_ffff;
    let mut ks = [[0u8; 8]; 16];
    for (r, round_key) in ks.iter_mut().enumerate() {
        c = ((c << SHIFTS[r]) | (c >> (28 - SHIFTS[r]))) & 0x0fff_ffff;
        d = ((d << SHIFTS[r]) | (d >> (28 - SHIFTS[r]))) & 0x0fff_ffff;
        let cd = (u64::from(c) << 28) | u64::from(d);
        let subkey = permute(cd, 56, &PC2);
        for (i, chunk) in round_key.iter_mut().enumerate() {
            *chunk = ((subkey >> (42 - 6 * i)) & 0x3f) as u8;
        }
    }
    ks
}

/// The Feistel function: expansion (as rotated 6-bit windows), subkey XOR,
/// eight SP-table lookups, XOR-combine.
fn feistel(r: u32, subkey: &[u8; 8]) -> u32 {
    let sp = sp_tables();
    let t = r.rotate_right(1);
    let mut f = 0u32;
    for (i, &k) in subkey.iter().enumerate() {
        let chunk = ((t.rotate_left(4 * i as u32) >> 26) & 0x3f) as u8 ^ k;
        f ^= sp[i][chunk as usize];
    }
    f
}

/// Runs 16 Feistel rounds (reversed subkeys when `decrypt`) and applies the
/// end-of-cipher half swap.
fn rounds(mut l: u32, mut r: u32, ks: &KeySchedule, decrypt: bool) -> (u32, u32) {
    for i in 0..16 {
        let subkey = if decrypt { &ks[15 - i] } else { &ks[i] };
        let f = feistel(r, subkey);
        let next_r = l ^ f;
        l = r;
        r = next_r;
    }
    (r, l)
}

/// Single DES (56-bit key in 8 bytes; parity bits ignored).
///
/// # Examples
///
/// ```
/// use sslperf_ciphers::{BlockCipher, Des};
///
/// let des = Des::new(&0x133457799BBCDFF1u64.to_be_bytes())?;
/// let mut block = 0x0123456789ABCDEFu64.to_be_bytes();
/// des.encrypt_block(&mut block);
/// assert_eq!(u64::from_be_bytes(block), 0x85E813540F0AB405);
/// # Ok::<(), sslperf_ciphers::CipherError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Des {
    ks: KeySchedule,
}

impl Des {
    /// Block length in bytes.
    pub const BLOCK_LEN: usize = 8;

    /// Builds the 16-round key schedule (the paper's *key setup* phase).
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidKeyLen`] unless `key` is 8 bytes.
    pub fn new(key: &[u8]) -> Result<Self, CipherError> {
        let key: &[u8; 8] =
            key.try_into().map_err(|_| CipherError::InvalidKeyLen { got: key.len() })?;
        Ok(Des { ks: key_schedule(key) })
    }

    /// The sixteen round subkeys as 6-bit chunks — exposed for the
    /// ISA-level analysis kernels.
    #[must_use]
    pub fn round_subkeys(&self) -> &[[u8; 8]; 16] {
        &self.ks
    }

    /// Part 1 of the block operation: the initial permutation (Table 6).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not 8 bytes.
    #[must_use]
    pub fn initial_permutation(block: &[u8]) -> (u32, u32) {
        let v = u64::from_be_bytes(block.try_into().expect("DES block must be 8 bytes"));
        let p = permute(v, 64, &IP);
        ((p >> 32) as u32, p as u32)
    }

    /// Part 2: the 16 substitution rounds (counted as `des_round`, one call
    /// of 16 units).
    #[must_use]
    pub fn substitution_rounds(&self, l: u32, r: u32, decrypt: bool) -> (u32, u32) {
        counters::count("des_round", 16);
        rounds(l, r, &self.ks, decrypt)
    }

    /// Part 3: the final permutation, storing back to bytes.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not 8 bytes.
    pub fn final_permutation(l: u32, r: u32, out: &mut [u8]) {
        let v = (u64::from(l) << 32) | u64::from(r);
        let p = permute(v, 64, &FP);
        out.copy_from_slice(&p.to_be_bytes());
    }
}

impl BlockCipher for Des {
    fn block_len(&self) -> usize {
        Self::BLOCK_LEN
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        counters::count("des_block", 1);
        let (l, r) = Des::initial_permutation(block);
        let (l, r) = self.substitution_rounds(l, r, false);
        Des::final_permutation(l, r, block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        counters::count("des_block", 1);
        let (l, r) = Des::initial_permutation(block);
        let (l, r) = self.substitution_rounds(l, r, true);
        Des::final_permutation(l, r, block);
    }
}

/// Triple DES in EDE mode with a 24-byte key (three independent subkeys).
///
/// Matches OpenSSL's `des_encrypt3`: one initial and one final permutation
/// around 3×16 substitution rounds, which is why the paper's Table 6 shows
/// 3DES's IP/FP costs equal to DES's while substitution triples.
///
/// # Examples
///
/// ```
/// use sslperf_ciphers::{BlockCipher, Des3};
///
/// let des3 = Des3::new(&[0x23; 24])?;
/// let mut block = *b"8 bytes!";
/// des3.encrypt_block(&mut block);
/// des3.decrypt_block(&mut block);
/// assert_eq!(&block, b"8 bytes!");
/// # Ok::<(), sslperf_ciphers::CipherError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Des3 {
    ks1: KeySchedule,
    ks2: KeySchedule,
    ks3: KeySchedule,
}

impl Des3 {
    /// Block length in bytes.
    pub const BLOCK_LEN: usize = 8;

    /// Builds the three key schedules from a 24-byte (3×8) key.
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidKeyLen`] unless `key` is 24 bytes.
    pub fn new(key: &[u8]) -> Result<Self, CipherError> {
        if key.len() != 24 {
            return Err(CipherError::InvalidKeyLen { got: key.len() });
        }
        let k = |i: usize| -> [u8; 8] { key[8 * i..8 * i + 8].try_into().expect("8 bytes") };
        Ok(Des3 { ks1: key_schedule(&k(0)), ks2: key_schedule(&k(1)), ks3: key_schedule(&k(2)) })
    }

    /// Part 2 of the 3DES block operation: all 48 substitution rounds
    /// (E-D-E when encrypting, D-E-D reversed when decrypting), counted as
    /// one `des_round` call of 48 units.
    #[must_use]
    pub fn substitution_rounds(&self, l: u32, r: u32, decrypt: bool) -> (u32, u32) {
        counters::count("des_round", 48);
        if decrypt {
            let (l, r) = rounds(l, r, &self.ks3, true);
            let (l, r) = rounds(l, r, &self.ks2, false);
            rounds(l, r, &self.ks1, true)
        } else {
            let (l, r) = rounds(l, r, &self.ks1, false);
            let (l, r) = rounds(l, r, &self.ks2, true);
            rounds(l, r, &self.ks3, false)
        }
    }
}

impl BlockCipher for Des3 {
    fn block_len(&self) -> usize {
        Self::BLOCK_LEN
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        counters::count("des3_block", 1);
        let (l, r) = Des::initial_permutation(block);
        let (l, r) = self.substitution_rounds(l, r, false);
        Des::final_permutation(l, r, block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        counters::count("des3_block", 1);
        let (l, r) = Des::initial_permutation(block);
        let (l, r) = self.substitution_rounds(l, r, true);
        Des::final_permutation(l, r, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_inverts_ip() {
        for v in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef, 0xdead_beef_cafe_babe] {
            let ip = permute(v, 64, &IP);
            let back = permute(ip, 64, &FP);
            assert_eq!(back, v, "value {v:#x}");
        }
    }

    /// The classic worked example (used in countless DES tutorials and
    /// consistent with FIPS 46-3).
    #[test]
    fn known_vector_walkthrough_key() {
        let des = Des::new(&0x1334_5779_9BBC_DFF1u64.to_be_bytes()).unwrap();
        let mut block = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        des.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x85E8_1354_0F0A_B405);
        des.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x0123_4567_89AB_CDEF);
    }

    /// From the NBS/NIST validation set.
    #[test]
    fn known_vector_zero_plaintext() {
        let des = Des::new(&0x0E32_9232_EA6D_0D73u64.to_be_bytes()).unwrap();
        let mut block = 0x8787_8787_8787_8787u64.to_be_bytes();
        des.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0);
    }

    #[test]
    fn parity_bits_are_ignored() {
        // Keys differing only in parity bits (LSB of each byte) must agree.
        let k1 = [0x12u8, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0];
        let mut k2 = k1;
        for b in &mut k2 {
            *b ^= 1;
        }
        let d1 = Des::new(&k1).unwrap();
        let d2 = Des::new(&k2).unwrap();
        let mut b1 = *b"testblok";
        let mut b2 = *b"testblok";
        d1.encrypt_block(&mut b1);
        d2.encrypt_block(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn des3_with_equal_keys_is_des() {
        let key8 = [0x42u8, 0x17, 0x99, 0x03, 0xfe, 0xdc, 0x55, 0xaa];
        let mut key24 = Vec::new();
        for _ in 0..3 {
            key24.extend_from_slice(&key8);
        }
        let des = Des::new(&key8).unwrap();
        let des3 = Des3::new(&key24).unwrap();
        let mut a = *b"payload!";
        let mut b = *b"payload!";
        des.encrypt_block(&mut a);
        des3.encrypt_block(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn des3_round_trip_independent_keys() {
        let key: Vec<u8> = (1..=24).collect();
        let des3 = Des3::new(&key).unwrap();
        for pattern in [0x00u8, 0xff, 0x3c] {
            let mut block = [pattern; 8];
            des3.encrypt_block(&mut block);
            assert_ne!(block, [pattern; 8]);
            des3.decrypt_block(&mut block);
            assert_eq!(block, [pattern; 8]);
        }
    }

    #[test]
    fn phased_api_equals_encrypt_block() {
        let des = Des::new(&[0x13u8, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1]).unwrap();
        let input = *b"ABCDEFGH";
        let (l, r) = Des::initial_permutation(&input);
        let (l, r) = des.substitution_rounds(l, r, false);
        let mut composed = [0u8; 8];
        Des::final_permutation(l, r, &mut composed);
        let mut direct = input;
        des.encrypt_block(&mut direct);
        assert_eq!(composed, direct);
    }

    #[test]
    fn invalid_key_lengths() {
        assert!(Des::new(&[0u8; 7]).is_err());
        assert!(Des::new(&[0u8; 9]).is_err());
        assert!(Des3::new(&[0u8; 16]).is_err());
        assert!(Des3::new(&[0u8; 23]).is_err());
    }

    #[test]
    fn complementation_property() {
        // DES(~k, ~p) == ~DES(k, p)
        let key = 0x0123_4567_89ab_cdefu64;
        let pt = 0x4e6f_7720_6973_2074u64;
        let des = Des::new(&key.to_be_bytes()).unwrap();
        let mut ct = pt.to_be_bytes();
        des.encrypt_block(&mut ct);
        let des_c = Des::new(&(!key).to_be_bytes()).unwrap();
        let mut ct_c = (!pt).to_be_bytes();
        des_c.encrypt_block(&mut ct_c);
        assert_eq!(u64::from_be_bytes(ct_c), !u64::from_be_bytes(ct));
    }

    #[test]
    fn counts_key_setup() {
        let (_, snap) = counters::counted(|| {
            let _ = Des3::new(&[1u8; 24]).unwrap();
        });
        assert_eq!(snap.calls("des_key_setup"), 3);
    }
}
