//! FIPS 180-2 SHA-1 secure hash.

use crate::block::{BlockBuffer, BLOCK_LEN};
use crate::Kernel;
use sslperf_profile::counters;

const INIT_STATE: [u32; 5] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476, 0xc3d2_e1f0];

const K: [u32; 4] = [0x5a82_7999, 0x6ed9_eba1, 0x8f1b_bcdc, 0xca62_c1d6];

/// Streaming SHA-1 hasher (FIPS 180-2).
///
/// Mirrors the Init/Update/Final structure the paper measures in Table 10;
/// SHA-1 carries five chaining registers (one more than MD5, as §5.3 notes)
/// and an 80-step block operation, making it the more compute-intensive of
/// the two hashes.
///
/// [`Sha1::new`] runs the block operation on the CPU's SHA unit when it has
/// one and on the portable 80-step loop otherwise; [`Sha1::portable`] always
/// runs the loop. Digests are identical either way.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::Sha1;
///
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(digest[..4], [0xa9, 0x99, 0x3e, 0x36]);
///
/// let mut reference = Sha1::portable();
/// reference.update(b"abc");
/// assert_eq!(reference.finalize(), digest);
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    kernel: Kernel,
    buffer: BlockBuffer,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Digest length in bytes.
    pub const OUTPUT_LEN: usize = 20;
    /// Compression block length in bytes.
    pub const BLOCK_LEN: usize = BLOCK_LEN;

    /// Initializes the five 32-bit chaining registers (the *Init* phase),
    /// selecting the hardware compression unit if this CPU has one.
    #[must_use]
    pub fn new() -> Self {
        Sha1 { state: INIT_STATE, kernel: Kernel::detect(), buffer: BlockBuffer::new() }
    }

    /// Like [`Sha1::new`], but pinned to the portable software kernel
    /// whatever the CPU offers: the reference the hardware unit is tested
    /// against, and the kernel the paper's Table 10/11 rows measure.
    #[must_use]
    pub fn portable() -> Self {
        Sha1 { kernel: Kernel::Portable, ..Self::new() }
    }

    /// Name of the compression kernel in use: `"ni"` or `"portable"`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`, running an 80-step block operation per 64-byte block
    /// (the *Update* phase).
    pub fn update(&mut self, data: &[u8]) {
        let (kernel, state) = (self.kernel, &mut self.state);
        self.buffer.update(data, |blocks| compress_blocks(kernel, state, blocks));
    }

    /// Pads the message, runs the final block operation(s) and returns the
    /// 160-bit digest (the *Final* phase).
    #[must_use]
    pub fn finalize(self) -> [u8; 20] {
        let Sha1 { mut state, kernel, buffer } = self;
        buffer.finish(u64::to_be_bytes, |blocks| compress_blocks(kernel, &mut state, blocks));
        let mut out = [0u8; 20];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Runs one block operation of the portable kernel on an explicit
    /// chaining state — exposed for the ISA-level analysis kernels, which
    /// must validate their simulated compression against the native one.
    #[must_use]
    pub fn compress_block(mut state: [u32; 5], block: &[u8; 64]) -> [u32; 5] {
        counters::count("sha1_block", 1);
        compress(&mut state, block);
        state
    }
}

/// Runs the block operation over a run of whole blocks on `kernel` — the
/// one place the two kernels differ.
fn compress_blocks(kernel: Kernel, state: &mut [u32; 5], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "partial block");
    counters::count("sha1_block", blocks.len() as u64);
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Ni => crate::ni::sha1_compress(state, blocks),
        Kernel::Portable => blocks.iter().for_each(|block| compress(state, block)),
    }
}

/// The portable SHA-1 block operation: message schedule expansion + 80
/// steps.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let f = match i / 20 {
            0 => (b & c) | (!b & d),
            1 => b ^ c ^ d,
            2 => (b & c) | (b & d) | (c & d),
            _ => b ^ c ^ d,
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(K[i / 20])
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-2 appendix A + the empty string.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex(&Sha1::digest(input)), *want);
        }
    }

    /// FIPS 180-2: one million repetitions of "a".
    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for chunk in [1, 7, 64, 100] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha1::digest(&data), "chunk size {chunk}");
        }
    }

    /// Every padding shape (pad fits / spills into a second block / exact
    /// block) on the detected kernel, one-shot, against the portable kernel
    /// fed a byte at a time.
    #[test]
    fn boundary_lengths() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            let mut streamed = Sha1::portable();
            for byte in &data {
                streamed.update(std::slice::from_ref(byte));
            }
            assert_eq!(Sha1::digest(&data), streamed.finalize(), "len {len}");
        }
    }

    /// The unit total is the number of blocks whichever kernel runs them.
    #[test]
    fn counts_blocks() {
        for mut h in [Sha1::new(), Sha1::portable()] {
            let backend = h.backend_name();
            let (_, snap) = counters::counted(|| {
                h.update(&[0u8; 10]);
                h.update(&[0u8; 54 + 640]);
                h.finalize()
            });
            // 704 bytes of data + one padding block = 12 blocks.
            assert_eq!(snap.units("sha1_block"), 12, "{backend}");
        }
        let (_, snap) = counters::counted(|| Sha1::digest(&[0u8; 64]));
        // 64 bytes of data forces padding into a second block.
        assert_eq!(snap.units("sha1_block"), 2);
    }

    #[test]
    fn portable_stays_portable() {
        let mut h = Sha1::portable();
        assert_eq!(h.backend_name(), "portable");
        h.update(&[1u8; 200]);
        assert_eq!(h.backend_name(), "portable");
        let mut copy = h.clone();
        assert_eq!(copy.backend_name(), "portable");
        copy.update(&[2u8; 64]);
        h.update(&[2u8; 64]);
        assert_eq!(copy.backend_name(), "portable");
        assert_eq!(copy.finalize(), h.finalize());
    }

    #[test]
    fn new_selects_the_unit_exactly_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let expected = if crate::ni::available() { "ni" } else { "portable" };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = "portable";
        assert_eq!(Sha1::new().backend_name(), expected);
        assert_eq!(Sha1::default().backend_name(), expected);
    }
}
