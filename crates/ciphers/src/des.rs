//! FIPS 46-3 DES and Triple-DES (EDE).
//!
//! The block operation keeps the paper's three-part structure (Table 6):
//! an *initial permutation*, 16 (or 3×16) *substitution rounds* built on
//! eight fused SP tables (S-box + P permutation, 8 lookups per round), and a
//! *final permutation*. Like OpenSSL's `des_encrypt3`, 3DES shares a single
//! IP/FP pair around the 48 rounds.
//!
//! The kernel has `des_encrypt3`'s shape too. IP and FP are five
//! `PERM_OP` bit-group swaps each, not 64 single-bit moves. Between them
//! both halves stay rotated right by one bit, so E costs no rotate of its
//! own: the even S-box inputs already sit at bits 26/18/10/2 and the odd
//! ones at the same bits one rotate by four later. Each round's subkey is
//! packed to match as two words, and the SP tables are pre-rotated so their
//! output lands in the rotated half. CBC works on `u64` words, and its
//! decryption keeps two independent blocks in flight.

use crate::{BlockCipher, CipherError};
use sslperf_profile::counters;

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
/// is input bit `table[i]` of an `in_width`-bit value. The key schedule's
/// PC-1 and PC-2 and the SP tables' P use it; the block path uses [`ip`]
/// and [`fp`].
const fn permute(input: u64, in_width: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((input >> (in_width - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// Fused SP tables: `SP[i][v]` is `P(S_i(v))` positioned in the 32-bit
/// Feistel output. The analysis kernels load these.
static SP: [[u32; 64]; 8] = sp_tables(0);

/// [`SP`] rotated right by one bit, the form the rounds' rotated halves
/// need. Both tables are built at compile time.
static SP_ROR1: [[u32; 64]; 8] = sp_tables(1);

const fn sp_tables(ror: u32) -> [[u32; 64]; 8] {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut v = 0;
        while v < 64 {
            let row = ((v >> 5) & 1) * 2 + (v & 1);
            let col = (v >> 1) & 0xf;
            // S_i's nibble occupies bits 4i+1..4i+4 of the pre-P word.
            let s = (SBOX[i][row * 16 + col] as u64) << (28 - 4 * i);
            sp[i][v] = (permute(s, 32, &P) as u32).rotate_right(ror);
            v += 1;
        }
        i += 1;
    }
    sp
}

pub(crate) fn ip_table() -> &'static [u8; 64] {
    &IP
}

pub(crate) fn fp_table() -> &'static [u8; 64] {
    &FP
}

pub(crate) fn sp_tables_for_analysis() -> &'static [[u32; 64]; 8] {
    &SP
}

/// OpenSSL's `PERM_OP`: swaps the bits of `b` that `mask` selects with the
/// bits of `a` that sit `n` places above them.
#[inline(always)]
fn perm_op(a: &mut u32, b: &mut u32, n: u32, mask: u32) {
    let t = ((*a >> n) ^ *b) & mask;
    *b ^= t;
    *a ^= t << n;
}

/// The initial permutation as five bit-group swaps, returning the halves
/// (L0, R0) each rotated right by one bit, the form the rounds keep.
#[inline(always)]
fn ip(block: u64) -> (u32, u32) {
    let (mut l, mut r) = ((block >> 32) as u32, block as u32);
    perm_op(&mut l, &mut r, 4, 0x0f0f_0f0f);
    perm_op(&mut l, &mut r, 16, 0x0000_ffff);
    perm_op(&mut r, &mut l, 2, 0x3333_3333);
    perm_op(&mut r, &mut l, 8, 0x00ff_00ff);
    perm_op(&mut l, &mut r, 1, 0x5555_5555);
    (l.rotate_right(1), r.rotate_right(1))
}

/// The final permutation: [`ip`]'s swaps undone in reverse order, from
/// rotated halves.
#[inline(always)]
fn fp(l: u32, r: u32) -> u64 {
    let (mut l, mut r) = (l.rotate_left(1), r.rotate_left(1));
    perm_op(&mut l, &mut r, 1, 0x5555_5555);
    perm_op(&mut r, &mut l, 8, 0x00ff_00ff);
    perm_op(&mut r, &mut l, 2, 0x3333_3333);
    perm_op(&mut l, &mut r, 16, 0x0000_ffff);
    perm_op(&mut l, &mut r, 4, 0x0f0f_0f0f);
    (u64::from(l) << 32) | u64::from(r)
}

/// One 16-round key schedule: per round, the eight 6-bit subkey chunks
/// packed into two words as [`feistel`] XORs them. Decryption walks it
/// backwards.
type KeySchedule = [[u32; 2]; 16];

/// PC-1 by key byte: `PC1_BYTES[i][b >> 1]` is key byte `i`'s share of
/// C‖D (its parity bit, the LSB, is dropped). Built at compile time.
static PC1_BYTES: [[u64; 128]; 8] = pc1_tables();

const fn pc1_tables() -> [[u64; 128]; 8] {
    let mut t = [[0u64; 128]; 8];
    let mut i = 0;
    while i < 8 {
        let mut v = 0;
        while v < 128 {
            t[i][v] = permute((v as u64) << (57 - 8 * i), 64, &PC1);
            v += 1;
        }
        i += 1;
    }
    t
}

/// Where each 6-bit chunk of a 28-bit key half starts; the last chunk
/// holds the half's low four bits.
const HALF_CHUNK_SHIFTS: [u32; 5] = [22, 16, 10, 4, 0];

/// PC-2 and [`feistel`]'s packing by 6-bit chunk of a rotated key half:
/// `PC2_CHUNKS[k][v]` is chunk `k % 5` of C (`k < 5`) or of D holding `v`,
/// as its bits of the two round-key words. A round key is the OR of ten
/// lookups. Built at compile time.
static PC2_CHUNKS: [[[u32; 2]; 64]; 10] = pc2_tables();

const fn pc2_tables() -> [[[u32; 2]; 64]; 10] {
    let mut t = [[[0u32; 2]; 64]; 10];
    let mut k = 0;
    while k < 10 {
        let half_shift = if k < 5 { 28 } else { 0 };
        let mask = if k % 5 == 4 { 0xf } else { 0x3f };
        let mut v = 0;
        while v < 64 {
            let cd = ((v & mask) as u64) << (HALF_CHUNK_SHIFTS[k % 5] + half_shift);
            let subkey = permute(cd, 56, &PC2);
            let mut i = 0;
            while i < 8 {
                let chunk = ((subkey >> (42 - 6 * i)) & 0x3f) as u32;
                t[k][v][i % 2] |= chunk << (26 - 8 * (i / 2));
                i += 1;
            }
            v += 1;
        }
        k += 1;
    }
    t
}

/// The key schedule in OpenSSL's `DES_set_key` shape: PC-1 as eight byte
/// lookups, then per round the two 28-bit rotations and PC-2 as ten chunk
/// lookups, emitting the packed schedule directly.
fn key_schedule(key: &[u8; 8]) -> KeySchedule {
    counters::count("des_key_setup", 1);
    let cd = (0..8).fold(0u64, |cd, i| cd | PC1_BYTES[i][usize::from(key[i] >> 1)]);
    let (mut c, mut d) = ((cd >> 28) as u32, cd as u32 & 0x0fff_ffff);
    let mut ks = [[0u32; 2]; 16];
    for (round, k) in ks.iter_mut().enumerate() {
        c = ((c << SHIFTS[round]) | (c >> (28 - SHIFTS[round]))) & 0x0fff_ffff;
        d = ((d << SHIFTS[round]) | (d >> (28 - SHIFTS[round]))) & 0x0fff_ffff;
        for (j, &shift) in HALF_CHUNK_SHIFTS.iter().enumerate() {
            let from_c = PC2_CHUNKS[j][(c >> shift & 0x3f) as usize];
            let from_d = PC2_CHUNKS[j + 5][(d >> shift & 0x3f) as usize];
            k[0] |= from_c[0] | from_d[0];
            k[1] |= from_c[1] | from_d[1];
        }
    }
    ks
}

/// FIPS 46-3's key schedule one bit at a time (PC-1, the rotations,
/// PC-2): each round's 48-bit subkey as eight 6-bit chunks, one per
/// S-box. The reference [`key_schedule`] is tested against.
#[cfg(test)]
fn subkey_chunks(key: &[u8; 8]) -> [[u8; 8]; 16] {
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

/// Packs each round's chunks: the even ones at bits 26/18/10/2 of the
/// first word, the odd ones at the same bits of the second.
#[cfg(test)]
fn pack(chunks: &[[u8; 8]; 16]) -> KeySchedule {
    chunks.map(|c| {
        let word =
            |odd: usize| (0..4).fold(0u32, |w, j| w | u32::from(c[2 * j + odd]) << (26 - 8 * j));
        [word(0), word(1)]
    })
}

/// The Feistel function on a half kept rotated right by one bit. E and the
/// subkey XOR are two word XORs, the even S-box inputs landing at bits
/// 26/18/10/2 of `u` and the odd ones at the same bits of `w`; then eight
/// SP lookups, whose output comes out rotated to match.
#[inline(always)]
fn feistel(r: u32, k: &[u32; 2]) -> u32 {
    let u = r ^ k[0];
    let w = r.rotate_left(4) ^ k[1];
    SP_ROR1[0][(u >> 26) as usize]
        ^ SP_ROR1[2][(u >> 18 & 0x3f) as usize]
        ^ SP_ROR1[4][(u >> 10 & 0x3f) as usize]
        ^ SP_ROR1[6][(u >> 2 & 0x3f) as usize]
        ^ SP_ROR1[1][(w >> 26) as usize]
        ^ SP_ROR1[3][(w >> 18 & 0x3f) as usize]
        ^ SP_ROR1[5][(w >> 10 & 0x3f) as usize]
        ^ SP_ROR1[7][(w >> 2 & 0x3f) as usize]
}

/// Sixteen rounds over `N` independent blocks' rotated halves, ending with
/// the end-of-cipher half swap. `DECRYPT` walks the schedule backwards; it
/// is fixed at compile time, so no round branches on the direction.
#[inline(always)]
fn sixteen_rounds<const DECRYPT: bool, const N: usize>(
    mut l: [u32; N],
    mut r: [u32; N],
    ks: &KeySchedule,
) -> ([u32; N], [u32; N]) {
    for round in 0..16 {
        let k = &ks[if DECRYPT { 15 - round } else { round }];
        for i in 0..N {
            let next_r = l[i] ^ feistel(r[i], k);
            l[i] = r[i];
            r[i] = next_r;
        }
    }
    (r, l)
}

/// What DES and 3DES plug into the one block core.
trait Core {
    /// Counter each block books once: `des_block` or `des3_block`.
    const BLOCK: &'static str;
    /// Rounds per block, booked as one `des_round` call.
    const ROUNDS: u64;
    /// All substitution rounds over `N` blocks' rotated halves.
    fn rounds<const DECRYPT: bool, const N: usize>(
        &self,
        l: [u32; N],
        r: [u32; N],
    ) -> ([u32; N], [u32; N]);
}

/// IP, the rounds and FP over `N` independent blocks, booking each block's
/// counters.
#[inline(always)]
fn crypt<K: Core, const DECRYPT: bool, const N: usize>(cipher: &K, blocks: [u64; N]) -> [u64; N] {
    let (mut l, mut r) = ([0u32; N], [0u32; N]);
    for (i, &block) in blocks.iter().enumerate() {
        counters::count(K::BLOCK, 1);
        counters::count("des_round", K::ROUNDS);
        (l[i], r[i]) = ip(block);
    }
    let (l, r) = cipher.rounds::<DECRYPT, N>(l, r);
    std::array::from_fn(|i| fp(l[i], r[i]))
}

/// The phased API's rounds: one direction branch per call, none per round.
fn phased_rounds<K: Core>(cipher: &K, l: u32, r: u32, decrypt: bool) -> (u32, u32) {
    counters::count("des_round", K::ROUNDS);
    let ([l], [r]) = if decrypt {
        cipher.rounds::<true, 1>([l], [r])
    } else {
        cipher.rounds::<false, 1>([l], [r])
    };
    (l, r)
}

/// `bytes` as one block; any other length breaks the caller's contract.
fn one_block<'a>(bytes: &'a mut [u8], what: &str) -> &'a mut [u8; 8] {
    let len = bytes.len();
    match bytes.try_into() {
        Ok(block) => block,
        Err(_) => panic!("{what} must be 8 bytes, got {len}"),
    }
}

fn crypt_block<K: Core, const DECRYPT: bool>(cipher: &K, block: &mut [u8]) {
    let block = one_block(block, "DES block");
    let [out] = crypt::<K, DECRYPT, 1>(cipher, [u64::from_be_bytes(*block)]);
    *block = out.to_be_bytes();
}

/// `data` as whole blocks and `iv` as one, or the CBC contract's panic.
fn cbc_blocks<'a, 'b>(
    iv: &'a mut [u8],
    data: &'b mut [u8],
) -> (&'a mut [u8; 8], &'b mut [[u8; 8]]) {
    let iv = one_block(iv, "CBC chaining vector");
    let (blocks, tail) = data.as_chunks_mut::<8>();
    assert!(tail.is_empty(), "CBC data must be whole blocks");
    (iv, blocks)
}

/// CBC encryption on `u64` words, one block in flight: each block's input
/// is the previous block's output.
fn encrypt_cbc<K: Core>(cipher: &K, iv: &mut [u8], data: &mut [u8]) {
    let (iv, blocks) = cbc_blocks(iv, data);
    let mut chain = u64::from_be_bytes(*iv);
    for block in blocks {
        [chain] = crypt::<K, false, 1>(cipher, [u64::from_be_bytes(*block) ^ chain]);
        *block = chain.to_be_bytes();
    }
    *iv = chain.to_be_bytes();
}

/// CBC decryption on `u64` words, two blocks in flight: ciphertext is all
/// known up front, so only the final XOR reaches back a block. Every pair
/// is read before it is written, so decrypting in place is sound.
fn decrypt_cbc<K: Core>(cipher: &K, iv: &mut [u8], data: &mut [u8]) {
    let (iv, blocks) = cbc_blocks(iv, data);
    let mut prev = u64::from_be_bytes(*iv);
    let (pairs, odd) = blocks.as_chunks_mut::<2>();
    for [a, b] in pairs {
        let c = [u64::from_be_bytes(*a), u64::from_be_bytes(*b)];
        let [p0, p1] = crypt::<K, true, 2>(cipher, c);
        *a = (p0 ^ prev).to_be_bytes();
        *b = (p1 ^ c[0]).to_be_bytes();
        prev = c[1];
    }
    for block in odd {
        let c = u64::from_be_bytes(*block);
        let [p] = crypt::<K, true, 1>(cipher, [c]);
        *block = (p ^ prev).to_be_bytes();
        prev = c;
    }
    *iv = prev.to_be_bytes();
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

    /// The sixteen round subkeys as 6-bit chunks, unpacked from the
    /// schedule — exposed for the ISA-level analysis kernels.
    #[must_use]
    pub fn round_subkeys(&self) -> [[u8; 8]; 16] {
        self.ks.map(|k| std::array::from_fn(|i| (k[i % 2] >> (26 - 8 * (i / 2))) as u8 & 0x3f))
    }

    /// Part 1 of the block operation: the initial permutation (Table 6).
    /// The halves come back in the rounds' working form, each rotated
    /// right by one bit; only [`Des::final_permutation`] reads them.
    #[must_use]
    pub fn initial_permutation(block: &[u8; 8]) -> (u32, u32) {
        ip(u64::from_be_bytes(*block))
    }

    /// Part 2: the 16 substitution rounds (counted as `des_round`, one call
    /// of 16 units).
    #[must_use]
    pub fn substitution_rounds(&self, l: u32, r: u32, decrypt: bool) -> (u32, u32) {
        phased_rounds(self, l, r, decrypt)
    }

    /// Part 3: the final permutation, storing back to bytes.
    pub fn final_permutation(l: u32, r: u32, out: &mut [u8; 8]) {
        *out = fp(l, r).to_be_bytes();
    }
}

impl Core for Des {
    const BLOCK: &'static str = "des_block";
    const ROUNDS: u64 = 16;

    #[inline(always)]
    fn rounds<const DECRYPT: bool, const N: usize>(
        &self,
        l: [u32; N],
        r: [u32; N],
    ) -> ([u32; N], [u32; N]) {
        sixteen_rounds::<DECRYPT, N>(l, r, &self.ks)
    }
}

impl BlockCipher for Des {
    fn block_len(&self) -> usize {
        Self::BLOCK_LEN
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        crypt_block::<Self, false>(self, block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        crypt_block::<Self, true>(self, block);
    }

    fn encrypt_cbc(&self, iv: &mut [u8], data: &mut [u8]) {
        encrypt_cbc(self, iv, data);
    }

    fn decrypt_cbc(&self, iv: &mut [u8], data: &mut [u8]) {
        decrypt_cbc(self, iv, data);
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
    /// K1, K2 reversed, K3: encryption walks the 48 rounds forwards (E-D-E)
    /// and decryption backwards (D-E-D).
    ks: [KeySchedule; 3],
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
        let ([k1, k2, k3], []) = key.as_chunks::<8>() else {
            return Err(CipherError::InvalidKeyLen { got: key.len() });
        };
        let [ks1, mut ks2, ks3] = [k1, k2, k3].map(key_schedule);
        ks2.reverse();
        Ok(Des3 { ks: [ks1, ks2, ks3] })
    }

    /// Part 2 of the 3DES block operation: all 48 substitution rounds
    /// (E-D-E when encrypting, D-E-D reversed when decrypting), counted as
    /// one `des_round` call of 48 units.
    #[must_use]
    pub fn substitution_rounds(&self, l: u32, r: u32, decrypt: bool) -> (u32, u32) {
        phased_rounds(self, l, r, decrypt)
    }
}

impl Core for Des3 {
    const BLOCK: &'static str = "des3_block";
    const ROUNDS: u64 = 48;

    /// Three passes; each one's closing half swap is the next one's
    /// opening swap, as between OpenSSL's three `des_encrypt2` calls.
    #[inline(always)]
    fn rounds<const DECRYPT: bool, const N: usize>(
        &self,
        l: [u32; N],
        r: [u32; N],
    ) -> ([u32; N], [u32; N]) {
        let [first, second, third] = if DECRYPT { [2, 1, 0] } else { [0, 1, 2] };
        let (l, r) = sixteen_rounds::<DECRYPT, N>(l, r, &self.ks[first]);
        let (l, r) = sixteen_rounds::<DECRYPT, N>(l, r, &self.ks[second]);
        sixteen_rounds::<DECRYPT, N>(l, r, &self.ks[third])
    }
}

impl BlockCipher for Des3 {
    fn block_len(&self) -> usize {
        Self::BLOCK_LEN
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        crypt_block::<Self, false>(self, block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        crypt_block::<Self, true>(self, block);
    }

    fn encrypt_cbc(&self, iv: &mut [u8], data: &mut [u8]) {
        encrypt_cbc(self, iv, data);
    }

    fn decrypt_cbc(&self, iv: &mut [u8], data: &mut [u8]) {
        decrypt_cbc(self, iv, data);
    }
}

#[cfg(test)]
mod oracle {
    //! The FIPS 46-3 bit-table DES the kernel replaced, kept as the
    //! reference it is tested against: IP and FP as 64 single-bit moves,
    //! unrotated halves, and a Feistel function that cuts its eight 6-bit
    //! windows one rotate at a time and XORs the subkey a chunk at a time.

    use super::{permute, subkey_chunks, BlockCipher, FP, IP, SP};

    type Chunks = [[u8; 8]; 16];

    fn feistel(r: u32, subkey: &[u8; 8]) -> u32 {
        let t = r.rotate_right(1);
        let mut f = 0u32;
        for (i, &k) in subkey.iter().enumerate() {
            let chunk = ((t.rotate_left(4 * i as u32) >> 26) & 0x3f) as u8 ^ k;
            f ^= SP[i][chunk as usize];
        }
        f
    }

    /// 16 rounds (reversed subkeys when `decrypt`) and the half swap.
    fn rounds(mut l: u32, mut r: u32, ks: &Chunks, decrypt: bool) -> (u32, u32) {
        for i in 0..16 {
            let subkey = if decrypt { &ks[15 - i] } else { &ks[i] };
            let next_r = l ^ feistel(r, subkey);
            l = r;
            r = next_r;
        }
        (r, l)
    }

    /// One block through IP, each `(schedule, decrypt)` pass, and FP.
    fn block(passes: &[(&Chunks, bool)], block: &mut [u8]) {
        let v = u64::from_be_bytes(block.try_into().unwrap());
        let p = permute(v, 64, &IP);
        let (mut l, mut r) = ((p >> 32) as u32, p as u32);
        for &(ks, decrypt) in passes {
            (l, r) = rounds(l, r, ks, decrypt);
        }
        let out = permute((u64::from(l) << 32) | u64::from(r), 64, &FP);
        block.copy_from_slice(&out.to_be_bytes());
    }

    /// DES (an 8-byte key) or EDE 3DES (24 bytes) one block at a time; the
    /// trait's per-block CBC default chains it.
    pub(super) struct Reference(Vec<Chunks>);

    impl Reference {
        pub(super) fn new(key: &[u8]) -> Self {
            Reference(key.chunks_exact(8).map(|k| subkey_chunks(k.try_into().unwrap())).collect())
        }
    }

    impl BlockCipher for Reference {
        fn block_len(&self) -> usize {
            8
        }

        fn encrypt_block(&self, b: &mut [u8]) {
            match &self.0[..] {
                [k] => block(&[(k, false)], b),
                [k1, k2, k3] => block(&[(k1, false), (k2, true), (k3, false)], b),
                _ => unreachable!("one or three keys"),
            }
        }

        fn decrypt_block(&self, b: &mut [u8]) {
            match &self.0[..] {
                [k] => block(&[(k, true)], b),
                [k1, k2, k3] => block(&[(k3, true), (k2, false), (k1, true)], b),
                _ => unreachable!("one or three keys"),
            }
        }
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
    fn round_subkeys_unpack_the_packed_schedule() {
        let key = [0x13u8, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1];
        assert_eq!(Des::new(&key).unwrap().round_subkeys(), subkey_chunks(&key));
    }

    /// The table-driven schedule is the FIPS bit-permutation one, packed,
    /// over 10 000 random keys and the weak and semi-weak keys (whose
    /// round keys the reference confirms: a weak key's sixteen are equal).
    #[test]
    fn key_schedule_matches_bit_permutation_reference() {
        const WEAK: [u64; 4] = [
            0x0101_0101_0101_0101,
            0xfefe_fefe_fefe_fefe,
            0xe0e0_e0e0_f1f1_f1f1,
            0x1f1f_1f1f_0e0e_0e0e,
        ];
        const SEMI_WEAK: [u64; 12] = [
            0x011f_011f_010e_010e,
            0x1f01_1f01_0e01_0e01,
            0x01e0_01e0_01f1_01f1,
            0xe001_e001_f101_f101,
            0x01fe_01fe_01fe_01fe,
            0xfe01_fe01_fe01_fe01,
            0x1fe0_1fe0_0ef1_0ef1,
            0xe01f_e01f_f10e_f10e,
            0x1ffe_1ffe_0efe_0efe,
            0xfe1f_fe1f_fe0e_fe0e,
            0xe0fe_e0fe_f1fe_f1fe,
            0xfee0_fee0_fef1_fef1,
        ];
        for key in WEAK {
            let ks = key_schedule(&key.to_be_bytes());
            assert!(ks.iter().all(|k| *k == ks[0]), "weak key {key:#018x}");
        }
        let mut rng = proptest::test_runner::TestRng::deterministic("des::key_schedule");
        let random = (0..10_000).map(|_| rng.next_u64());
        for key in WEAK.into_iter().chain(SEMI_WEAK).chain(random) {
            let key = key.to_be_bytes();
            assert_eq!(key_schedule(&key), pack(&subkey_chunks(&key)), "key {key:02x?}");
        }
    }

    #[test]
    fn counts_key_setup() {
        let (_, snap) = counters::counted(|| {
            let _ = Des3::new(&[1u8; 24]).unwrap();
        });
        assert_eq!(snap.calls("des_key_setup"), 3);
    }

    /// The swap networks are the FIPS tables, in the rounds' rotated form.
    #[test]
    fn swap_networks_match_bit_tables() {
        let mut rng = proptest::test_runner::TestRng::deterministic("des::ip_fp");
        let values = [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef, 1 << 63];
        for v in values.into_iter().chain((0..1000).map(|_| rng.next_u64())) {
            let p = permute(v, 64, &IP);
            let (l, r) = ip(v);
            assert_eq!(
                (l.rotate_left(1), r.rotate_left(1)),
                ((p >> 32) as u32, p as u32),
                "{v:#x}"
            );
            let (l, r) = ((v >> 32) as u32, v as u32);
            assert_eq!(fp(l.rotate_right(1), r.rotate_right(1)), permute(v, 64, &FP), "{v:#x}");
        }
    }

    /// Kernel CBC against the reference's per-block chaining, each
    /// direction as two calls split after `split` blocks so the IV carries
    /// between them.
    fn check_cbc(kernel: &dyn BlockCipher, key: &[u8], iv: [u8; 8], data: &[u8], split: usize) {
        let reference = oracle::Reference::new(key);
        let (mut want, mut want_iv) = (data.to_vec(), iv);
        reference.encrypt_cbc(&mut want_iv, &mut want);
        let (mut got, mut got_iv) = (data.to_vec(), iv);
        let (a, b) = got.split_at_mut(8 * split);
        kernel.encrypt_cbc(&mut got_iv, a);
        kernel.encrypt_cbc(&mut got_iv, b);
        assert_eq!((&got, got_iv), (&want, want_iv), "encrypt, {} blocks", data.len() / 8);

        let (mut back, mut back_iv) = (want.clone(), iv);
        reference.decrypt_cbc(&mut back_iv, &mut back);
        assert_eq!((&back[..], back_iv), (data, want_iv), "reference round trip");
        let (mut got, mut got_iv) = (want, iv);
        let (a, b) = got.split_at_mut(8 * split);
        kernel.decrypt_cbc(&mut got_iv, a);
        kernel.decrypt_cbc(&mut got_iv, b);
        assert_eq!((&got[..], got_iv), (data, want_iv), "decrypt, {} blocks", data.len() / 8);
    }

    /// Every whole-block length up to 2 KiB, odd block counts (the tail
    /// after the two-in-flight loop) included: DES, 3DES with independent
    /// keys, and 3DES with K1 = K2 = K3.
    #[test]
    fn cbc_matches_reference_at_every_length() {
        let mut rng = proptest::test_runner::TestRng::deterministic("des::cbc_lengths");
        let mut bytes = |n: usize| (0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
        let key8 = bytes(8);
        let key24 = bytes(24);
        let equal = [&key8[..], &key8, &key8].concat();
        let des = Des::new(&key8).unwrap();
        let triples = [(Des3::new(&key24).unwrap(), key24), (Des3::new(&equal).unwrap(), equal)];
        for blocks in 0..=256 {
            let data = bytes(8 * blocks);
            let iv: [u8; 8] = bytes(8).try_into().unwrap();
            let split = usize::from(data.first().copied().unwrap_or(0)) % (blocks + 1);
            check_cbc(&des, &key8, iv, &data, split);
            for (des3, key) in &triples {
                check_cbc(des3, key, iv, &data, split);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random keys, IVs, lengths and split points; `which` picks DES,
        /// 3DES, or 3DES with its three keys equal.
        #[test]
        fn cbc_matches_reference_on_random_keys(
            which in 0usize..3,
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 24..=24),
            iv in proptest::collection::vec(proptest::prelude::any::<u8>(), 8..=8),
            blocks in 0usize..=256,
            split in proptest::prelude::any::<usize>(),
            fill in proptest::prelude::any::<u8>(),
        ) {
            let key = match which {
                0 => key[..8].to_vec(),
                1 => key,
                _ => key[..8].repeat(3),
            };
            let kernel: Box<dyn BlockCipher> = if which == 0 {
                Box::new(Des::new(&key).unwrap())
            } else {
                Box::new(Des3::new(&key).unwrap())
            };
            let data: Vec<u8> = (0..8 * blocks).map(|i| (i as u8).wrapping_mul(0x9d) ^ fill).collect();
            check_cbc(&*kernel, &key, iv.try_into().unwrap(), &data, split % (blocks + 1));
        }
    }

    /// The CBC override and the trait's per-block default write the same
    /// bytes, call after call.
    #[test]
    fn cbc_override_matches_per_block_default() {
        let key: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(37)).collect();
        let mut fast = crate::Cbc::new(Des3::new(&key).unwrap(), vec![0x5a; 8]).unwrap();
        let mut slow =
            crate::Cbc::new(crate::PerBlock(Des3::new(&key).unwrap()), vec![0x5a; 8]).unwrap();
        for blocks in [0usize, 1, 2, 3, 7, 128, 129] {
            let data: Vec<u8> = (0..8 * blocks).map(|i| (i * 7) as u8).collect();
            let (mut a, mut b) = (data.clone(), data.clone());
            fast.encrypt(&mut a).unwrap();
            slow.encrypt(&mut b).unwrap();
            assert_eq!((&a, fast.iv()), (&b, slow.iv()), "encrypt, {blocks} blocks");
            fast.decrypt(&mut a).unwrap();
            slow.decrypt(&mut b).unwrap();
            assert_eq!((&a, fast.iv()), (&b, slow.iv()), "decrypt, {blocks} blocks");
        }
    }

    /// One CBC call over N blocks books what N `encrypt_block` calls book:
    /// N block calls and N `des_round` calls of 16 (DES) or 48 (3DES).
    #[test]
    fn cbc_books_the_same_counters_as_single_blocks() {
        let des = Des::new(&[0x13; 8]).unwrap();
        let des3 = Des3::new(&[0x31; 24]).unwrap();
        let cases: [(&dyn BlockCipher, &str, u64); 2] =
            [(&des, "des_block", 16), (&des3, "des3_block", 48)];
        for (cipher, block_counter, rounds) in cases {
            for n in [0u64, 1, 2, 3, 8, 129] {
                let mut data = vec![0x77u8; 8 * n as usize];
                let (_, singles) = counters::counted(|| {
                    data.chunks_exact_mut(8).for_each(|b| cipher.encrypt_block(b));
                });
                let mut iv = [0u8; 8];
                let (_, enc) = counters::counted(|| cipher.encrypt_cbc(&mut iv, &mut data));
                let (_, dec) = counters::counted(|| cipher.decrypt_cbc(&mut iv, &mut data));
                for snap in [&enc, &dec] {
                    assert_eq!(snap.calls(block_counter), n, "{block_counter} x {n}");
                    assert_eq!(snap.units(block_counter), n, "{block_counter} x {n}");
                    assert_eq!(snap.calls("des_round"), n, "{block_counter} x {n}");
                    assert_eq!(snap.units("des_round"), rounds * n, "{block_counter} x {n}");
                    assert_eq!(snap, &singles, "{block_counter} x {n}");
                }
            }
        }
    }
}
