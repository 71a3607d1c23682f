//! FIPS 180-2 SHA-256 secure hash.

use crate::block::{BlockBuffer, BLOCK_LEN};
use crate::Kernel;
use sslperf_profile::counters;

const INIT_STATE: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// The 64 round constants; the hardware kernel reads the same table.
#[rustfmt::skip]
pub(crate) const K: [u32; 64] = [
    0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5,
    0x3956_c25b, 0x59f1_11f1, 0x923f_82a4, 0xab1c_5ed5,
    0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3,
    0x72be_5d74, 0x80de_b1fe, 0x9bdc_06a7, 0xc19b_f174,
    0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc,
    0x2de9_2c6f, 0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da,
    0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7,
    0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967,
    0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc, 0x5338_0d13,
    0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85,
    0xa2bf_e8a1, 0xa81a_664b, 0xc24b_8b70, 0xc76c_51a3,
    0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070,
    0x19a4_c116, 0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5,
    0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3,
    0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208,
    0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7, 0xc671_78f2,
];

/// Streaming SHA-256 hasher (FIPS 180-2).
///
/// Added for the TLS 1.3-style protocol machine: its HKDF key schedule,
/// transcript hash and Finished MAC all run over SHA-256. The 2005 paper
/// predates it, so SHA-256 carries no Table 10 phase breakdown of its own,
/// but block compressions still report to [`sslperf_profile::counters`]
/// under `"sha256_block"` so anatomy passes can attribute the work.
///
/// [`Sha256::new`] runs the block operation on the CPU's SHA unit when it
/// has one and on the portable 64-round loop otherwise;
/// [`Sha256::portable`] always runs the loop. Digests are identical either
/// way.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
///
/// let mut reference = Sha256::portable();
/// reference.update(b"abc");
/// assert_eq!(reference.finalize(), digest);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    kernel: Kernel,
    buffer: BlockBuffer,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Digest length in bytes.
    pub const OUTPUT_LEN: usize = 32;
    /// Compression block length in bytes.
    pub const BLOCK_LEN: usize = BLOCK_LEN;

    /// Initializes the eight 32-bit chaining registers (the *Init* phase),
    /// selecting the hardware compression unit if this CPU has one.
    #[must_use]
    pub fn new() -> Self {
        Sha256 { state: INIT_STATE, kernel: Kernel::detect(), buffer: BlockBuffer::new() }
    }

    /// Like [`Sha256::new`], but pinned to the portable software kernel
    /// whatever the CPU offers: the reference the hardware unit is tested
    /// against.
    #[must_use]
    pub fn portable() -> Self {
        Sha256 { kernel: Kernel::Portable, ..Self::new() }
    }

    /// Name of the compression kernel in use: `"ni"` or `"portable"`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`, running a 64-round block operation per 64-byte block
    /// (the *Update* phase).
    pub fn update(&mut self, data: &[u8]) {
        let (kernel, state) = (self.kernel, &mut self.state);
        self.buffer.update(data, |blocks| compress_blocks(kernel, state, blocks));
    }

    /// Pads the message, runs the final block operation(s) and returns the
    /// 256-bit digest (the *Final* phase).
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let Sha256 { mut state, kernel, buffer } = self;
        buffer.finish(u64::to_be_bytes, |blocks| compress_blocks(kernel, &mut state, blocks));
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Runs the block operation over a run of whole blocks on `kernel` — the
/// one place the two kernels differ.
fn compress_blocks(kernel: Kernel, state: &mut [u32; 8], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "partial block");
    counters::count("sha256_block", blocks.len() as u64);
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Ni => crate::ni::sha256_compress(state, blocks),
        Kernel::Portable => blocks.iter().for_each(|block| compress(state, block)),
    }
}

/// The portable SHA-256 block operation: message schedule expansion + 64
/// rounds.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-2 appendix B + the empty string.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex(&Sha256::digest(input)), *want);
        }
    }

    /// FIPS 180-2: one million repetitions of "a".
    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for chunk in [1, 7, 64, 100] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk size {chunk}");
        }
    }

    /// Every padding shape (pad fits / spills into a second block / exact
    /// block) on the detected kernel, one-shot, against the portable kernel
    /// fed a byte at a time.
    #[test]
    fn boundary_lengths() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            let mut streamed = Sha256::portable();
            for byte in &data {
                streamed.update(std::slice::from_ref(byte));
            }
            assert_eq!(Sha256::digest(&data), streamed.finalize(), "len {len}");
        }
    }

    /// The unit total is the number of blocks whichever kernel runs them.
    #[test]
    fn counts_blocks() {
        for mut h in [Sha256::new(), Sha256::portable()] {
            let backend = h.backend_name();
            let (_, snap) = counters::counted(|| {
                h.update(&[0u8; 10]);
                h.update(&[0u8; 54 + 640]);
                h.finalize()
            });
            // 704 bytes of data + one padding block = 12 blocks.
            assert_eq!(snap.units("sha256_block"), 12, "{backend}");
        }
        let (_, snap) = counters::counted(|| Sha256::digest(&[0u8; 64]));
        // 64 bytes of data forces padding into a second block.
        assert_eq!(snap.units("sha256_block"), 2);
    }

    #[test]
    fn portable_stays_portable() {
        let mut h = Sha256::portable();
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
        assert_eq!(Sha256::new().backend_name(), expected);
        assert_eq!(Sha256::default().backend_name(), expected);
    }
}
