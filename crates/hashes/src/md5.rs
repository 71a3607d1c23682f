//! RFC 1321 MD5 message digest.

use crate::block::{BlockBuffer, BLOCK_LEN};
use sslperf_profile::counters;

/// Per-round sine-derived constants `T[i] = floor(2^32 * |sin(i+1)|)`.
const T: [u32; 64] = [
    0xd76a_a478,
    0xe8c7_b756,
    0x2420_70db,
    0xc1bd_ceee,
    0xf57c_0faf,
    0x4787_c62a,
    0xa830_4613,
    0xfd46_9501,
    0x6980_98d8,
    0x8b44_f7af,
    0xffff_5bb1,
    0x895c_d7be,
    0x6b90_1122,
    0xfd98_7193,
    0xa679_438e,
    0x49b4_0821,
    0xf61e_2562,
    0xc040_b340,
    0x265e_5a51,
    0xe9b6_c7aa,
    0xd62f_105d,
    0x0244_1453,
    0xd8a1_e681,
    0xe7d3_fbc8,
    0x21e1_cde6,
    0xc337_07d6,
    0xf4d5_0d87,
    0x455a_14ed,
    0xa9e3_e905,
    0xfcef_a3f8,
    0x676f_02d9,
    0x8d2a_4c8a,
    0xfffa_3942,
    0x8771_f681,
    0x6d9d_6122,
    0xfde5_380c,
    0xa4be_ea44,
    0x4bde_cfa9,
    0xf6bb_4b60,
    0xbebf_bc70,
    0x289b_7ec6,
    0xeaa1_27fa,
    0xd4ef_3085,
    0x0488_1d05,
    0xd9d4_d039,
    0xe6db_99e5,
    0x1fa2_7cf8,
    0xc4ac_5665,
    0xf429_2244,
    0x432a_ff97,
    0xab94_23a7,
    0xfc93_a039,
    0x655b_59c3,
    0x8f0c_cc92,
    0xffef_f47d,
    0x8584_5dd1,
    0x6fa8_7e4f,
    0xfe2c_e6e0,
    0xa301_4314,
    0x4e08_11a1,
    0xf753_7e82,
    0xbd3a_f235,
    0x2ad7_d2bb,
    0xeb86_d391,
];

/// Left-rotate amounts per round.
const S: [[u32; 4]; 4] = [[7, 12, 17, 22], [5, 9, 14, 20], [4, 11, 16, 23], [6, 10, 15, 21]];

const INIT_STATE: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

/// Streaming MD5 hasher (RFC 1321).
///
/// The API mirrors the Init/Update/Final structure the paper measures in
/// Table 10: [`Md5::new`] is *Init*, [`Md5::update`] runs the 64-byte block
/// operations, and [`Md5::finalize`] pads and produces the digest.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::Md5;
///
/// let mut h = Md5::new();
/// h.update(b"message ");
/// h.update(b"digest");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xf9);
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: BlockBuffer,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Digest length in bytes.
    pub const OUTPUT_LEN: usize = 16;
    /// Compression block length in bytes.
    pub const BLOCK_LEN: usize = BLOCK_LEN;

    /// Initializes the four 32-bit chaining registers (the *Init* phase).
    #[must_use]
    pub fn new() -> Self {
        Md5 { state: INIT_STATE, buffer: BlockBuffer::new() }
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 16] {
        let mut h = Md5::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`, running a block operation for each complete 64-byte
    /// block (the *Update* phase).
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.buffer.update(data, |blocks| compress_blocks(state, blocks));
    }

    /// Pads the message, runs the final block operation(s) and returns the
    /// 128-bit digest (the *Final* phase).
    #[must_use]
    pub fn finalize(self) -> [u8; 16] {
        let Md5 { mut state, buffer } = self;
        buffer.finish(u64::to_le_bytes, |blocks| compress_blocks(&mut state, blocks));
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Runs one block operation on an explicit chaining state — exposed for
    /// the ISA-level analysis kernels, which must validate their simulated
    /// compression against the native one.
    #[must_use]
    pub fn compress_block(mut state: [u32; 4], block: &[u8; 64]) -> [u32; 4] {
        compress_blocks(&mut state, block);
        state
    }
}

/// Runs the block operation over a run of whole blocks.
fn compress_blocks(state: &mut [u32; 4], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "partial block");
    counters::count("md5_block", blocks.len() as u64);
    blocks.iter().for_each(|block| compress(state, block));
}

/// The MD5 block operation: 4 rounds of 16 steps over one 64-byte block.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        m[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let rotate = S[i / 16][i % 4];
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(
            a.wrapping_add(f).wrapping_add(T[i]).wrapping_add(m[g]).rotate_left(rotate),
        );
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(
                hex(&Md5::digest(input)),
                *want,
                "input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1, 3, 63, 64, 65, 500] {
            let mut h = Md5::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Md5::digest(&data), "chunk size {chunk}");
        }
    }

    /// Every padding shape (pad fits / spills into a second block / exact
    /// block), one-shot against a byte at a time.
    #[test]
    fn boundary_lengths() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0xab).collect();
            let mut streamed = Md5::new();
            for byte in &data {
                streamed.update(std::slice::from_ref(byte));
            }
            assert_eq!(Md5::digest(&data), streamed.finalize(), "len {len}");
        }
    }

    #[test]
    fn counts_blocks() {
        let (_, snap) = counters::counted(|| Md5::digest(&[0u8; 640]));
        // 640 bytes data + padding = 11 blocks.
        assert_eq!(snap.units("md5_block"), 11);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Md5::digest(b"a"), Md5::digest(b"b"));
        assert_ne!(Md5::digest(b""), Md5::digest(&[0]));
    }
}
