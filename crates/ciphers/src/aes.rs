//! FIPS 197 AES with the fused round-lookup tables the paper analyzes.
//!
//! The S-box and the `Te`/`Td` tables are *derived* at first use from the
//! GF(2⁸) field definition rather than hard-coded, then each encryption
//! round performs the 16 table lookups + XORs of the paper's Figure 5.
//!
//! The paper's §6.2(2) proposes a hardware table-lookup/round unit as the
//! fix for the AES kernel; modern x86 ships exactly that as AES-NI. The
//! cipher therefore carries two interchangeable round backends — the
//! portable fused tables above and an `AESENC`/`AESDEC` path selected via
//! [`AesBackend`] — which must be byte-identical on every block (the
//! differential tests in `tests/known_answer.rs` pin this).

use crate::{BlockCipher, CipherError};
use sslperf_profile::counters;
use std::sync::OnceLock;

/// GF(2⁸) multiplication modulo the AES polynomial x⁸+x⁴+x³+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// Multiplicative inverse in GF(2⁸) (0 maps to 0), by Fermat:
/// `a⁻¹ = a^254`.
fn gf_inv(a: u8) -> u8 {
    let mut result = 1u8;
    let mut base = a;
    let mut e = 254u32;
    while e > 0 {
        if e & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        e >>= 1;
    }
    result
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// Encryption tables: `te[j][x]` fuses SubBytes, ShiftRows and
    /// MixColumns for byte lane `j`.
    te: [[u32; 256]; 4],
    /// Decryption tables for the equivalent inverse cipher.
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        #[allow(clippy::needless_range_loop)] // x is the value being mapped, not just an index
        for x in 0..256usize {
            let b = gf_inv(x as u8);
            let s = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
            sbox[x] = s;
            inv_sbox[s as usize] = x as u8;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256usize {
            let s = sbox[x];
            // Column of MixColumns applied to s in lane 0: [2s, s, s, 3s].
            let e = (u32::from(gf_mul(s, 2)) << 24)
                | (u32::from(s) << 16)
                | (u32::from(s) << 8)
                | u32::from(gf_mul(s, 3));
            let si = inv_sbox[x];
            // InvMixColumns column: [14s, 9s, 13s, 11s].
            let d = (u32::from(gf_mul(si, 14)) << 24)
                | (u32::from(gf_mul(si, 9)) << 16)
                | (u32::from(gf_mul(si, 13)) << 8)
                | u32::from(gf_mul(si, 11));
            for j in 0..4 {
                te[j][x] = e.rotate_right(8 * j as u32);
                td[j][x] = d.rotate_right(8 * j as u32);
            }
        }
        Tables { sbox, inv_sbox, te, td }
    })
}

/// The four encryption lookup tables (`Te0`–`Te3`), exposed so the ISA
/// simulator can load the identical tables into its memory.
#[must_use]
pub(crate) fn te_tables() -> &'static [[u32; 256]; 4] {
    &tables().te
}

/// The forward S-box, exposed for the ISA simulator's final AES round.
#[must_use]
pub(crate) fn sbox_table() -> &'static [u8; 256] {
    &tables().sbox
}

/// Which implementation of the AES block rounds an [`Aes`] instance uses.
///
/// Both backends share the key schedule and produce byte-identical blocks;
/// they differ only in how a round executes — 16 `Te`/`Td` lookups versus
/// one `AESENC`/`AESDEC` instruction. This is the software analogue of the
/// paper's §6.2(2) "custom round unit" proposal, and the
/// `kernel-speed` experiment measures the gap between them. [`Aes::new`]
/// picks [`AesBackend::Ni`] exactly when the CPU has the unit; the tables
/// are reached by asking for [`AesBackend::Table`] per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesBackend {
    /// Require the hardware round unit (x86-64 `AESENC`/`AESDEC`).
    Ni,
    /// Require the portable fused-table software rounds.
    Table,
}

impl AesBackend {
    /// Stable lowercase name, as used in reports and by
    /// [`Aes::backend_name`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AesBackend::Ni => "ni",
            AesBackend::Table => "table",
        }
    }
}

/// Whether the hardware round unit exists on this CPU.
fn ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        ni::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

const RCON: [u32; 10] = [
    0x0100_0000,
    0x0200_0000,
    0x0400_0000,
    0x0800_0000,
    0x1000_0000,
    0x2000_0000,
    0x4000_0000,
    0x8000_0000,
    0x1b00_0000,
    0x3600_0000,
];

fn sub_word(w: u32) -> u32 {
    let t = tables();
    (u32::from(t.sbox[(w >> 24) as usize]) << 24)
        | (u32::from(t.sbox[((w >> 16) & 0xff) as usize]) << 16)
        | (u32::from(t.sbox[((w >> 8) & 0xff) as usize]) << 8)
        | u32::from(t.sbox[(w & 0xff) as usize])
}

/// AES-128/192/256 with fused-table rounds.
///
/// The block operation is exposed in the paper's three parts so the Table 5
/// experiment can time them separately:
/// [`Aes::add_initial_round_key`] (part 1), [`Aes::main_rounds`] (part 2)
/// and [`Aes::final_round`] (part 3); [`Aes::encrypt_block`] composes them.
///
/// # Examples
///
/// ```
/// use sslperf_ciphers::{Aes, BlockCipher};
///
/// let aes = Aes::new(&[0u8; 16])?;
/// let mut block = *b"sixteen byte msg";
/// let original = block;
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, original);
/// aes.decrypt_block(&mut block);
/// assert_eq!(block, original);
/// # Ok::<(), sslperf_ciphers::CipherError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    /// Encryption round keys, 4 words per round.
    ek: Vec<u32>,
    /// Decryption round keys (InvMixColumns-transformed).
    dk: Vec<u32>,
    /// `ek` flattened to the byte layout `AESENC` consumes (16 bytes per
    /// round key); empty unless the NI backend is active.
    ek_b: Vec<u8>,
    /// `dk` flattened for `AESDEC` — the equivalent-inverse-cipher schedule
    /// is exactly what the instruction expects; empty unless NI is active.
    dk_b: Vec<u8>,
    rounds: usize,
    /// True when block rounds run on the hardware unit.
    ni: bool,
}

impl Aes {
    /// Block length in bytes.
    pub const BLOCK_LEN: usize = 16;

    /// Expands `key` into round-key schedules (the paper's *key setup*
    /// phase). Accepts 16, 24 or 32-byte keys. Rounds run on AES-NI
    /// exactly when [`Aes::ni_available`], else on the tables.
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidKeyLen`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self, CipherError> {
        Self::with_backend(key, if ni_available() { AesBackend::Ni } else { AesBackend::Table })
    }

    /// Like [`Aes::new`] but with an explicit round [`AesBackend`].
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidKeyLen`] for bad key lengths and
    /// [`CipherError::BackendUnavailable`] when [`AesBackend::Ni`] is
    /// requested on a CPU without AES-NI.
    pub fn with_backend(key: &[u8], backend: AesBackend) -> Result<Self, CipherError> {
        let nk = match key.len() {
            16 => 4,
            24 => 6,
            32 => 8,
            got => return Err(CipherError::InvalidKeyLen { got }),
        };
        let ni = match backend {
            AesBackend::Ni => {
                if !ni_available() {
                    return Err(CipherError::BackendUnavailable);
                }
                true
            }
            AesBackend::Table => false,
        };
        counters::count("aes_key_setup", 1);
        let rounds = nk + 6;
        let total = 4 * (rounds + 1);
        let mut ek = Vec::with_capacity(total);
        for chunk in key.chunks_exact(4) {
            ek.push(u32::from_be_bytes(chunk.try_into().expect("4-byte chunk")));
        }
        for i in nk..total {
            let mut t = ek[i - 1];
            if i % nk == 0 {
                t = sub_word(t.rotate_left(8)) ^ RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                t = sub_word(t);
            }
            ek.push(ek[i - nk] ^ t);
        }

        // Equivalent-inverse-cipher decryption keys: reverse round order and
        // push all middle round keys through InvMixColumns.
        let t = tables();
        let mut dk = vec![0u32; total];
        for r in 0..=rounds {
            for c in 0..4 {
                let w = ek[4 * (rounds - r) + c];
                dk[4 * r + c] = if r == 0 || r == rounds {
                    w
                } else {
                    // InvMixColumns(w) via td ∘ sbox⁻¹ ∘ sbox = td[sbox[..]]
                    t.td[0][t.sbox[(w >> 24) as usize] as usize]
                        ^ t.td[1][t.sbox[((w >> 16) & 0xff) as usize] as usize]
                        ^ t.td[2][t.sbox[((w >> 8) & 0xff) as usize] as usize]
                        ^ t.td[3][t.sbox[(w & 0xff) as usize] as usize]
                };
            }
        }
        // AESENC/AESDEC take each 16-byte round key in state order, which
        // for FIPS 197 words is simply the big-endian bytes in sequence.
        let (ek_b, dk_b) = if ni {
            (
                ek.iter().flat_map(|w| w.to_be_bytes()).collect(),
                dk.iter().flat_map(|w| w.to_be_bytes()).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(Aes { ek, dk, ek_b, dk_b, rounds, ni })
    }

    /// Number of rounds (10/12/14 for 128/192/256-bit keys).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Name of the round backend actually in use: `"ni"` or `"table"`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        if self.ni {
            AesBackend::Ni.name()
        } else {
            AesBackend::Table.name()
        }
    }

    /// Whether this CPU has the hardware AES round unit at all.
    #[must_use]
    pub fn ni_available() -> bool {
        ni_available()
    }

    /// The expanded encryption round keys, 4 words per round — exposed for
    /// the ISA-level analysis kernels.
    #[must_use]
    pub fn round_keys(&self) -> &[u32] {
        &self.ek
    }

    /// The encryption schedule as `AESENC` consumes it — the `Nr + 1` round
    /// keys as 16 bytes each, in order — when the rounds run on AES-NI;
    /// `None` on the table backend. A kernel outside this crate that runs
    /// its own AES-NI rounds (the stitched record seal in
    /// `sslperf_hashes::Sha1::update_and_encrypt_cbc`) reads it from here.
    #[must_use]
    pub fn ni_encrypt_schedule(&self) -> Option<&[u8]> {
        self.ni.then_some(&self.ek_b[..])
    }

    /// Encrypts one block with the *textbook* round structure — per-byte
    /// SubBytes, ShiftRows and a gf-multiply MixColumns — instead of the
    /// fused `Te` tables.
    ///
    /// This is the software baseline for the paper's §6.2(2) argument that
    /// a table-lookup unit (or fused tables, in software) pays off; the
    /// `ablate_fused_round` ablation compares the two. Results are
    /// bit-identical to [`BlockCipher::encrypt_block`].
    ///
    /// # Panics
    ///
    /// Panics if `block` is not 16 bytes.
    pub fn encrypt_block_textbook(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        let t = tables();
        // State as a 4×4 column-major byte matrix: state[r][c] = byte of
        // word c, lane r.
        let mut state = [[0u8; 4]; 4];
        for c in 0..4 {
            for r in 0..4 {
                state[r][c] = block[4 * c + r];
            }
        }
        let add_round_key = |state: &mut [[u8; 4]; 4], rk: &[u32]| {
            for c in 0..4 {
                let bytes = rk[c].to_be_bytes();
                for r in 0..4 {
                    state[r][c] ^= bytes[r];
                }
            }
        };
        add_round_key(&mut state, &self.ek[..4]);
        for round in 1..=self.rounds {
            // SubBytes.
            for row in state.iter_mut() {
                for b in row.iter_mut() {
                    *b = t.sbox[*b as usize];
                }
            }
            // ShiftRows: row r rotates left by r.
            for (r, row) in state.iter_mut().enumerate() {
                row.rotate_left(r);
            }
            // MixColumns (skipped in the final round).
            if round != self.rounds {
                #[allow(clippy::needless_range_loop)] // column index spans all four rows
                for c in 0..4 {
                    let col = [state[0][c], state[1][c], state[2][c], state[3][c]];
                    state[0][c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
                    state[1][c] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
                    state[2][c] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
                    state[3][c] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
                }
            }
            add_round_key(&mut state, &self.ek[4 * round..4 * round + 4]);
        }
        for c in 0..4 {
            for r in 0..4 {
                block[4 * c + r] = state[r][c];
            }
        }
    }

    /// Part 1 of the block operation: load the byte block into the four
    /// cipher-state words and XOR the initial round key (Table 5, step 1).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not 16 bytes.
    #[must_use]
    pub fn add_initial_round_key(&self, block: &[u8]) -> [u32; 4] {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        let mut s = [0u32; 4];
        for (i, word) in s.iter_mut().enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
                ^ self.ek[i];
        }
        s
    }

    /// Part 2: the main rounds (9 for a 128-bit key, 13 for 256), each doing
    /// 16 table lookups, shifts and XORs (Table 5, step 2). Counted as
    /// `aes_round`, one call of Nr − 1 units.
    #[must_use]
    pub fn main_rounds(&self, mut s: [u32; 4]) -> [u32; 4] {
        counters::count("aes_round", (self.rounds - 1) as u64);
        let t = tables();
        for r in 1..self.rounds {
            let rk = &self.ek[4 * r..4 * r + 4];
            let mut out = [0u32; 4];
            for (c, o) in out.iter_mut().enumerate() {
                // Four basic operations per round, each indexing four tables
                // with bytes taken in left-rotate order (paper Figure 5).
                *o = t.te[0][(s[c] >> 24) as usize]
                    ^ t.te[1][((s[(c + 1) % 4] >> 16) & 0xff) as usize]
                    ^ t.te[2][((s[(c + 2) % 4] >> 8) & 0xff) as usize]
                    ^ t.te[3][(s[(c + 3) % 4] & 0xff) as usize]
                    ^ rk[c];
            }
            s = out;
        }
        s
    }

    /// Part 3: the last round (no MixColumns) and the store back to a byte
    /// array (Table 5, step 3).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not 16 bytes.
    pub fn final_round(&self, s: [u32; 4], out: &mut [u8]) {
        assert_eq!(out.len(), 16, "AES block must be 16 bytes");
        let t = tables();
        let rk = &self.ek[4 * self.rounds..4 * self.rounds + 4];
        for c in 0..4 {
            let w = (u32::from(t.sbox[(s[c] >> 24) as usize]) << 24)
                | (u32::from(t.sbox[((s[(c + 1) % 4] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(t.sbox[((s[(c + 2) % 4] >> 8) & 0xff) as usize]) << 8)
                | u32::from(t.sbox[(s[(c + 3) % 4] & 0xff) as usize]);
            out[4 * c..4 * c + 4].copy_from_slice(&(w ^ rk[c]).to_be_bytes());
        }
    }
}

impl BlockCipher for Aes {
    fn block_len(&self) -> usize {
        Self::BLOCK_LEN
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        counters::count("aes_block", 1);
        #[cfg(target_arch = "x86_64")]
        if self.ni {
            assert_eq!(block.len(), 16, "AES block must be 16 bytes");
            ni::encrypt(&self.ek_b, self.rounds, block);
            return;
        }
        let s = self.add_initial_round_key(block);
        let s = self.main_rounds(s);
        self.final_round(s, block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        counters::count("aes_block", 1);
        #[cfg(target_arch = "x86_64")]
        if self.ni {
            ni::decrypt(&self.dk_b, self.rounds, block);
            return;
        }
        let t = tables();
        let mut s = [0u32; 4];
        for (i, word) in s.iter_mut().enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
                ^ self.dk[i];
        }
        for r in 1..self.rounds {
            let rk = &self.dk[4 * r..4 * r + 4];
            let mut out = [0u32; 4];
            for (c, o) in out.iter_mut().enumerate() {
                *o = t.td[0][(s[c] >> 24) as usize]
                    ^ t.td[1][((s[(c + 3) % 4] >> 16) & 0xff) as usize]
                    ^ t.td[2][((s[(c + 2) % 4] >> 8) & 0xff) as usize]
                    ^ t.td[3][(s[(c + 1) % 4] & 0xff) as usize]
                    ^ rk[c];
            }
            s = out;
        }
        let rk = &self.dk[4 * self.rounds..4 * self.rounds + 4];
        for c in 0..4 {
            let w = (u32::from(t.inv_sbox[(s[c] >> 24) as usize]) << 24)
                | (u32::from(t.inv_sbox[((s[(c + 3) % 4] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(t.inv_sbox[((s[(c + 2) % 4] >> 8) & 0xff) as usize]) << 8)
                | u32::from(t.inv_sbox[(s[(c + 1) % 4] & 0xff) as usize]);
            block[4 * c..4 * c + 4].copy_from_slice(&(w ^ rk[c]).to_be_bytes());
        }
    }

    /// On AES-NI, one fused loop with the round keys and the chaining block
    /// held in registers; otherwise the per-block default.
    fn encrypt_cbc(&self, iv: &mut [u8], data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if self.ni {
            counters::count("aes_block", (data.len() / 16) as u64);
            ni::encrypt_cbc(&self.ek_b, self.rounds, iv, data);
            return;
        }
        crate::cbc::encrypt_per_block(self, iv, data);
    }

    /// On AES-NI, eight independent blocks in flight per group; otherwise
    /// the per-block default.
    fn decrypt_cbc(&self, iv: &mut [u8], data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if self.ni {
            counters::count("aes_block", (data.len() / 16) as u64);
            ni::decrypt_cbc(&self.dk_b, self.rounds, iv, data);
            return;
        }
        crate::cbc::decrypt_per_block(self, iv, data);
    }
}

/// The hardware round unit: one `AESENC`/`AESDEC` per round instead of 16
/// table lookups, per block or fused over a whole CBC slice. This module is
/// the crate's single island of `unsafe` — the `x86_64` load/store/round
/// intrinsics — kept behind safe wrappers whose callers only construct
/// NI-backed ciphers after [`available`](ni::available) returned true.
#[cfg(target_arch = "x86_64")]
mod ni {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_loadu_si128, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Blocks a CBC decrypt keeps in flight: `AESDEC` has a multi-cycle
    /// latency but issues every cycle, so eight independent blocks keep the
    /// unit busy.
    const LANES: usize = 8;

    /// CBC-encrypts `data` in place from `iv` with the byte-flattened
    /// schedule `rk`, leaving the last ciphertext block in `iv`.
    ///
    /// # Panics
    ///
    /// Panics if AES-NI is missing, `rounds` is not 10/12/14, `rk` is not
    /// `(rounds + 1) * 16` bytes, `iv` is not 16 bytes or `data` is not
    /// whole blocks.
    pub(super) fn encrypt_cbc(rk: &[u8], rounds: usize, iv: &mut [u8], data: &mut [u8]) {
        check_cbc(rk, rounds, iv, data);
        // SAFETY: `check_cbc` verified the feature and every length the
        // kernel's unaligned loads and stores rely on.
        unsafe {
            match rounds {
                10 => encrypt_cbc_impl::<10>(rk, iv, data),
                12 => encrypt_cbc_impl::<12>(rk, iv, data),
                _ => encrypt_cbc_impl::<14>(rk, iv, data),
            }
        }
    }

    /// CBC-decrypts `data` in place from `iv` with the equivalent-inverse
    /// schedule `rk`, leaving the last ciphertext block in `iv`.
    ///
    /// # Panics
    ///
    /// As [`encrypt_cbc`].
    pub(super) fn decrypt_cbc(rk: &[u8], rounds: usize, iv: &mut [u8], data: &mut [u8]) {
        check_cbc(rk, rounds, iv, data);
        // SAFETY: as in `encrypt_cbc`.
        unsafe {
            match rounds {
                10 => decrypt_cbc_impl::<10>(rk, iv, data),
                12 => decrypt_cbc_impl::<12>(rk, iv, data),
                _ => decrypt_cbc_impl::<14>(rk, iv, data),
            }
        }
    }

    fn check_cbc(rk: &[u8], rounds: usize, iv: &[u8], data: &[u8]) {
        assert!(available(), "NI cipher constructed without AES-NI");
        assert!(matches!(rounds, 10 | 12 | 14), "AES has 10, 12 or 14 rounds");
        assert_eq!(rk.len(), (rounds + 1) * 16);
        assert_eq!(iv.len(), 16, "CBC chaining vector must be one block");
        assert!(data.len().is_multiple_of(16), "CBC data must be whole blocks");
    }

    /// Loads the `R + 1` round keys into registers (slots past `R` stay
    /// zero and unused).
    ///
    /// # Safety
    ///
    /// Requires SSE2 (baseline on `x86_64`) and `rk.len() >= (R + 1) * 16`.
    #[target_feature(enable = "aes")]
    unsafe fn load_keys<const R: usize>(rk: &[u8]) -> [__m128i; 15] {
        let mut k = [_mm_setzero_si128(); 15];
        for (r, key) in k.iter_mut().enumerate().take(R + 1) {
            // SAFETY: caller guarantees rk holds R + 1 full keys.
            *key = unsafe { _mm_loadu_si128(rk.as_ptr().add(16 * r).cast()) };
        }
        k
    }

    /// # Safety
    ///
    /// Requires the `aes` target feature at runtime, `rk.len() >= (R + 1) *
    /// 16`, `iv.len() == 16` and `data.len()` a multiple of 16.
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_cbc_impl<const R: usize>(rk: &[u8], iv: &mut [u8], data: &mut [u8]) {
        // SAFETY: forwarded from the caller.
        let k = unsafe { load_keys::<R>(rk) };
        // SAFETY: caller guarantees iv is 16 bytes.
        let mut chain = unsafe { _mm_loadu_si128(iv.as_ptr().cast()) };
        for block in data.chunks_exact_mut(16) {
            // SAFETY: chunks_exact_mut yields 16-byte blocks.
            let p = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
            // Whitening the plaintext first leaves one XOR on the chain.
            let mut s = _mm_xor_si128(_mm_xor_si128(p, k[0]), chain);
            for key in &k[1..R] {
                s = _mm_aesenc_si128(s, *key);
            }
            chain = _mm_aesenclast_si128(s, k[R]);
            // SAFETY: as for the load.
            unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), chain) };
        }
        // SAFETY: caller guarantees iv is 16 bytes.
        unsafe { _mm_storeu_si128(iv.as_mut_ptr().cast(), chain) };
    }

    /// # Safety
    ///
    /// As [`encrypt_cbc_impl`], with `rk` the equivalent-inverse schedule.
    #[target_feature(enable = "aes")]
    unsafe fn decrypt_cbc_impl<const R: usize>(rk: &[u8], iv: &mut [u8], data: &mut [u8]) {
        // SAFETY: forwarded from the caller.
        let k = unsafe { load_keys::<R>(rk) };
        // SAFETY: caller guarantees iv is 16 bytes.
        let mut prev = unsafe { _mm_loadu_si128(iv.as_ptr().cast()) };
        let mut groups = data.chunks_exact_mut(16 * LANES);
        for group in &mut groups {
            // Every ciphertext block is read before any plaintext is
            // written back, so decrypting in place is sound.
            let mut c = [_mm_setzero_si128(); LANES];
            for (i, ci) in c.iter_mut().enumerate() {
                // SAFETY: the group is LANES whole blocks.
                *ci = unsafe { _mm_loadu_si128(group.as_ptr().add(16 * i).cast()) };
            }
            let mut s = c.map(|ci| _mm_xor_si128(ci, k[0]));
            for key in &k[1..R] {
                for si in &mut s {
                    *si = _mm_aesdec_si128(*si, *key);
                }
            }
            for (i, si) in s.iter_mut().enumerate() {
                let back = if i == 0 { prev } else { c[i - 1] };
                *si = _mm_xor_si128(_mm_aesdeclast_si128(*si, k[R]), back);
                // SAFETY: as for the loads.
                unsafe { _mm_storeu_si128(group.as_mut_ptr().add(16 * i).cast(), *si) };
            }
            prev = c[LANES - 1];
        }
        for block in groups.into_remainder().chunks_exact_mut(16) {
            // SAFETY: chunks_exact_mut yields 16-byte blocks.
            let c = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
            let mut s = _mm_xor_si128(c, k[0]);
            for key in &k[1..R] {
                s = _mm_aesdec_si128(s, *key);
            }
            s = _mm_xor_si128(_mm_aesdeclast_si128(s, k[R]), prev);
            // SAFETY: as for the load.
            unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), s) };
            prev = c;
        }
        // SAFETY: caller guarantees iv is 16 bytes.
        unsafe { _mm_storeu_si128(iv.as_mut_ptr().cast(), prev) };
    }

    /// Runtime check for the `aes` CPUID feature.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("aes")
    }

    /// Encrypts one 16-byte block with the byte-flattened schedule `rk`
    /// (`(rounds + 1) * 16` bytes).
    ///
    /// # Panics
    ///
    /// Panics if `block` or `rk` are too short or AES-NI is missing.
    pub(super) fn encrypt(rk: &[u8], rounds: usize, block: &mut [u8]) {
        assert!(available(), "NI cipher constructed without AES-NI");
        assert_eq!(block.len(), 16);
        assert_eq!(rk.len(), (rounds + 1) * 16);
        // SAFETY: the `aes` feature was just verified, and both slices are
        // long enough for every unaligned 16-byte load/store below.
        unsafe { encrypt_impl(rk, rounds, block) }
    }

    /// Decrypts one 16-byte block; `rk` is the equivalent-inverse-cipher
    /// schedule (first key = last encryption key, middle keys through
    /// InvMixColumns), which is precisely the form `AESDEC` consumes.
    ///
    /// # Panics
    ///
    /// Panics if `block` or `rk` are too short or AES-NI is missing.
    pub(super) fn decrypt(rk: &[u8], rounds: usize, block: &mut [u8]) {
        assert!(available(), "NI cipher constructed without AES-NI");
        assert_eq!(block.len(), 16);
        assert_eq!(rk.len(), (rounds + 1) * 16);
        // SAFETY: as in `encrypt` — feature verified, slice lengths checked.
        unsafe { decrypt_impl(rk, rounds, block) }
    }

    /// # Safety
    ///
    /// Requires the `aes` target feature at runtime, `block.len() == 16`
    /// and `rk.len() >= (rounds + 1) * 16`.
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_impl(rk: &[u8], rounds: usize, block: &mut [u8]) {
        let key = |r: usize| -> __m128i {
            // SAFETY: caller guarantees rk holds rounds + 1 full keys.
            unsafe { _mm_loadu_si128(rk.as_ptr().add(16 * r).cast()) }
        };
        // SAFETY: caller guarantees block is 16 bytes.
        let mut s = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        s = _mm_xor_si128(s, key(0));
        for r in 1..rounds {
            s = _mm_aesenc_si128(s, key(r));
        }
        s = _mm_aesenclast_si128(s, key(rounds));
        // SAFETY: caller guarantees block is 16 bytes.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), s) };
    }

    /// # Safety
    ///
    /// Requires the `aes` target feature at runtime, `block.len() == 16`
    /// and `rk.len() >= (rounds + 1) * 16`.
    #[target_feature(enable = "aes")]
    unsafe fn decrypt_impl(rk: &[u8], rounds: usize, block: &mut [u8]) {
        let key = |r: usize| -> __m128i {
            // SAFETY: caller guarantees rk holds rounds + 1 full keys.
            unsafe { _mm_loadu_si128(rk.as_ptr().add(16 * r).cast()) }
        };
        // SAFETY: caller guarantees block is 16 bytes.
        let mut s = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        s = _mm_xor_si128(s, key(0));
        for r in 1..rounds {
            s = _mm_aesdec_si128(s, key(r));
        }
        s = _mm_aesdeclast_si128(s, key(rounds));
        // SAFETY: caller guarantees block is 16 bytes.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), s) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_spot_values() {
        let t = tables();
        // Canonical S-box anchors.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        // Inverse really inverts.
        for x in 0..256usize {
            assert_eq!(t.inv_sbox[t.sbox[x] as usize] as usize, x);
        }
    }

    /// FIPS 197 appendix C.1: AES-128.
    #[test]
    fn fips197_aes128() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    /// FIPS 197 appendix C.2: AES-192.
    #[test]
    fn fips197_aes192() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.rounds(), 12);
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    /// FIPS 197 appendix C.3: AES-256.
    #[test]
    fn fips197_aes256() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.rounds(), 14);
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    /// FIPS 197 appendix B worked example (different key).
    #[test]
    fn fips197_appendix_b() {
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = from_hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn invalid_key_lengths_rejected() {
        for len in [0usize, 1, 15, 17, 23, 25, 31, 33, 64] {
            assert_eq!(
                Aes::new(&vec![0u8; len]).err(),
                Some(CipherError::InvalidKeyLen { got: len })
            );
        }
    }

    #[test]
    fn phased_api_equals_encrypt_block() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        let input = [0x42u8; 16];
        let mut composed = [0u8; 16];
        let s = aes.add_initial_round_key(&input);
        let s = aes.main_rounds(s);
        aes.final_round(s, &mut composed);
        let mut direct = input;
        aes.encrypt_block(&mut direct);
        assert_eq!(composed, direct);
    }

    #[test]
    fn round_trip_all_key_sizes() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let aes = Aes::new(&key).unwrap();
            for pattern in [0x00u8, 0xff, 0x5a] {
                let mut block = [pattern; 16];
                aes.encrypt_block(&mut block);
                aes.decrypt_block(&mut block);
                assert_eq!(block, [pattern; 16], "key {key_len} pattern {pattern:#x}");
            }
        }
    }

    #[test]
    fn textbook_rounds_match_fused_tables() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).map(|i| i.wrapping_mul(37)).collect();
            let aes = Aes::new(&key).unwrap();
            for seed in [0u8, 1, 0x80, 0xff] {
                let mut fused = [seed; 16];
                let mut textbook = [seed; 16];
                aes.encrypt_block(&mut fused);
                aes.encrypt_block_textbook(&mut textbook);
                assert_eq!(fused, textbook, "key {key_len} seed {seed:#x}");
            }
        }
    }

    #[test]
    fn forced_table_backend_still_passes_kats() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::with_backend(&key, AesBackend::Table).unwrap();
        assert_eq!(aes.backend_name(), "table");
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn ni_backend_passes_kats_when_available() {
        if !Aes::ni_available() {
            assert_eq!(
                Aes::with_backend(&[0u8; 16], AesBackend::Ni).err(),
                Some(CipherError::BackendUnavailable)
            );
            return;
        }
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::with_backend(&key, AesBackend::Ni).unwrap();
        assert_eq!(aes.backend_name(), "ni");
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn ni_and_table_agree_on_every_key_size() {
        if !Aes::ni_available() {
            return;
        }
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> =
                (0..key_len as u8).map(|i| i.wrapping_mul(0x9d).wrapping_add(3)).collect();
            let hw = Aes::with_backend(&key, AesBackend::Ni).unwrap();
            let sw = Aes::with_backend(&key, AesBackend::Table).unwrap();
            let mut block = [0u8; 16];
            for trial in 0u8..32 {
                for (i, b) in block.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(31).wrapping_add(trial.wrapping_mul(0x4f));
                }
                let mut h = block;
                let mut s = block;
                hw.encrypt_block(&mut h);
                sw.encrypt_block(&mut s);
                assert_eq!(h, s, "encrypt diverged: key {key_len} trial {trial}");
                hw.decrypt_block(&mut h);
                sw.decrypt_block(&mut s);
                assert_eq!(h, block, "ni round trip broke: key {key_len} trial {trial}");
                assert_eq!(s, block, "table round trip broke: key {key_len} trial {trial}");
            }
        }
    }

    #[test]
    fn new_uses_ni_exactly_when_the_cpu_has_it() {
        let aes = Aes::new(&[0u8; 16]).unwrap();
        let expected = if Aes::ni_available() { "ni" } else { "table" };
        assert_eq!(aes.backend_name(), expected);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(AesBackend::Ni.name(), "ni");
        assert_eq!(AesBackend::Table.name(), "table");
    }

    #[test]
    fn counts_key_setup_and_blocks() {
        let (_, snap) = counters::counted(|| {
            let aes = Aes::new(&[0u8; 16]).unwrap();
            let mut b = [0u8; 16];
            aes.encrypt_block(&mut b);
            aes.encrypt_block(&mut b);
        });
        assert_eq!(snap.calls("aes_key_setup"), 1);
        assert_eq!(snap.calls("aes_block"), 2);
    }

    #[test]
    fn cbc_counts_one_unit_per_block_on_every_path() {
        let aes = Aes::new(&[0x24u8; 16]).unwrap();
        let blocks_of = |cbc: &dyn Fn(&mut [u8], &mut [u8])| {
            let mut data = vec![0x5au8; 16_384];
            let (_, snap) = counters::counted(|| cbc(&mut [0u8; 16], &mut data));
            snap.units("aes_block")
        };
        let per_block = crate::PerBlock(aes.clone());
        assert_eq!(blocks_of(&|iv, d| aes.encrypt_cbc(iv, d)), 1024, "{}", aes.backend_name());
        assert_eq!(blocks_of(&|iv, d| aes.decrypt_cbc(iv, d)), 1024, "{}", aes.backend_name());
        assert_eq!(blocks_of(&|iv, d| per_block.encrypt_cbc(iv, d)), 1024);
        assert_eq!(blocks_of(&|iv, d| per_block.decrypt_cbc(iv, d)), 1024);
    }
}
