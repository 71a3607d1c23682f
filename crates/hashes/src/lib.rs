//! From-scratch MD5, SHA-1 and SHA-256 for the SSL-processing anatomy study.
//!
//! The paper (§5.3) partitions hashing into three phases — **Init**,
//! **Update** (64-byte block operations) and **Final** (padding + last
//! block) — and measures each. The implementations here expose exactly that
//! streaming structure:
//!
//! * [`Md5`] — RFC 1321, 128-bit digest.
//! * [`Sha1`] — FIPS 180-2, 160-bit digest.
//! * [`Sha256`] — FIPS 180-2, 256-bit digest (for the TLS 1.3-style
//!   machine's HKDF schedule and transcript hash).
//! * [`Hasher`]/[`HashAlg`] — run-time algorithm selection, as the SSL layer
//!   needs both digests side by side.
//! * [`Hmac`] — RFC 2104 keyed MAC over any of the hashes.
//! * [`hkdf`] — RFC 5869 extract-and-expand over [`Hmac`].
//!
//! Block compressions report to [`sslperf_profile::counters`] under the names
//! `"md5_block"`, `"sha1_block"` and `"sha256_block"` (one unit per 64-byte
//! block, one call per run of blocks) so profiling passes can attribute work
//! without timing individual calls.
//!
//! # Compression kernels
//!
//! Table 10 puts 91–92 % of a hash in the Update block operation, and the
//! paper's §6.2 answer is a dedicated round unit per algorithm. On x86-64
//! CPUs with the SHA extensions, [`Sha1::new`] and [`Sha256::new`] — and so
//! [`Hasher`], [`Hmac`], [`hkdf`] and every caller above them — run the
//! block operation on that unit (`SHA1RNDS4`/`SHA256RNDS2`), detected from
//! the CPU at run time; there is no environment variable, cargo feature or
//! option that selects it. Everywhere else they run the portable scalar
//! loops, which stay in the crate in three roles: the only kernel on CPUs
//! and targets without the extension, the reference every test compares
//! the unit against, and the paper-faithful software kernel that Table 10
//! and Table 11 measure — reachable explicitly through [`Sha1::portable`] /
//! [`Sha256::portable`]. The two kernels differ only inside one
//! `compress_blocks` function per hash; buffering, padding and the public
//! API are shared, and digests are identical. MD5 has no hardware unit.
//!
//! The unit's intrinsics are the crate's one island of `unsafe`: the
//! crate is `#![deny(unsafe_code)]` and only the x86-64-only `ni` module
//! carries the `allow`, behind safe wrappers that check the CPU themselves.
//!
//! # Examples
//!
//! ```
//! use sslperf_hashes::{Md5, Sha1};
//!
//! assert_eq!(
//!     hex::encode(Md5::digest(b"abc")),
//!     "900150983cd24fb0d6963f7d28e17f72"
//! );
//! assert_eq!(
//!     hex::encode(Sha1::digest(b"abc")),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d"
//! );
//! # mod hex { pub fn encode(b: impl AsRef<[u8]>) -> String {
//! #   b.as_ref().iter().map(|x| format!("{x:02x}")).collect() } }
//! ```
//!
//! # Security
//!
//! MD5 and SHA-1 are cryptographically broken. They are implemented here
//! solely to reproduce a 2005 performance study; never use them to protect
//! data.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod hkdf;
mod hmac;
mod md5;
#[cfg(target_arch = "x86_64")]
mod ni;
mod sha1;
mod sha256;

pub use hmac::Hmac;
pub use md5::Md5;
pub use sha1::Sha1;
pub use sha256::Sha256;

/// Which compression kernel a SHA hasher runs its block operation on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The scalar loops in `sha1.rs` / `sha256.rs`.
    Portable,
    /// The x86-64 SHA extensions (`ni.rs`).
    #[cfg(target_arch = "x86_64")]
    Ni,
}

impl Kernel {
    /// The hardware unit if this CPU has one, else the portable loops.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            return Kernel::Ni;
        }
        Kernel::Portable
    }

    const fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Ni => "ni",
        }
    }
}

/// The hash algorithms used by the SSL v3 and TLS 1.3-style machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// RFC 1321 MD5 (16-byte digest).
    Md5,
    /// FIPS 180-2 SHA-1 (20-byte digest).
    Sha1,
    /// FIPS 180-2 SHA-256 (32-byte digest).
    Sha256,
}

impl HashAlg {
    /// Digest length in bytes (16 for MD5, 20 for SHA-1, 32 for SHA-256).
    #[must_use]
    pub const fn output_len(self) -> usize {
        match self {
            HashAlg::Md5 => 16,
            HashAlg::Sha1 => 20,
            HashAlg::Sha256 => 32,
        }
    }

    /// Compression block length in bytes (64 for all three).
    #[must_use]
    pub const fn block_len(self) -> usize {
        block::BLOCK_LEN
    }

    /// Human-readable algorithm name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            HashAlg::Md5 => "MD5",
            HashAlg::Sha1 => "SHA-1",
            HashAlg::Sha256 => "SHA-256",
        }
    }
}

impl std::fmt::Display for HashAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Clone)]
enum HasherInner {
    Md5(Md5),
    Sha1(Sha1),
    Sha256(Sha256),
}

/// A streaming hasher whose algorithm is chosen at run time.
///
/// SSL v3 computes MD5 and SHA-1 digests in parallel over the same handshake
/// transcript, and the MAC algorithm depends on the negotiated cipher suite;
/// this type gives that code one concrete interface.
///
/// # Examples
///
/// ```
/// use sslperf_hashes::{HashAlg, Hasher};
///
/// let mut h = Hasher::new(HashAlg::Sha1);
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Hasher::digest(HashAlg::Sha1, b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Hasher {
    inner: HasherInner,
}

impl Hasher {
    /// Creates a hasher for `alg` (the paper's *Init* phase).
    #[must_use]
    pub fn new(alg: HashAlg) -> Self {
        let inner = match alg {
            HashAlg::Md5 => HasherInner::Md5(Md5::new()),
            HashAlg::Sha1 => HasherInner::Sha1(Sha1::new()),
            HashAlg::Sha256 => HasherInner::Sha256(Sha256::new()),
        };
        Hasher { inner }
    }

    /// Which algorithm this hasher runs.
    #[must_use]
    pub fn alg(&self) -> HashAlg {
        match self.inner {
            HasherInner::Md5(_) => HashAlg::Md5,
            HasherInner::Sha1(_) => HashAlg::Sha1,
            HasherInner::Sha256(_) => HashAlg::Sha256,
        }
    }

    /// Absorbs `data` (the paper's *Update* phase).
    pub fn update(&mut self, data: &[u8]) {
        match &mut self.inner {
            HasherInner::Md5(h) => h.update(data),
            HasherInner::Sha1(h) => h.update(data),
            HasherInner::Sha256(h) => h.update(data),
        }
    }

    /// Pads, runs the last block(s) and returns the digest (the paper's
    /// *Final* phase). The digest length is [`HashAlg::output_len`].
    #[must_use]
    pub fn finalize(self) -> Vec<u8> {
        match self.inner {
            HasherInner::Md5(h) => h.finalize().to_vec(),
            HasherInner::Sha1(h) => h.finalize().to_vec(),
            HasherInner::Sha256(h) => h.finalize().to_vec(),
        }
    }

    /// Like [`Hasher::finalize`], but writes the digest into `out` without
    /// heap allocation — the record layer's zero-copy MAC path depends on
    /// this.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is exactly [`HashAlg::output_len`] bytes.
    pub fn finalize_into(self, out: &mut [u8]) {
        match self.inner {
            HasherInner::Md5(h) => out.copy_from_slice(&h.finalize()),
            HasherInner::Sha1(h) => out.copy_from_slice(&h.finalize()),
            HasherInner::Sha256(h) => out.copy_from_slice(&h.finalize()),
        }
    }

    /// One-shot convenience: digest `data` with `alg`.
    #[must_use]
    pub fn digest(alg: HashAlg, data: &[u8]) -> Vec<u8> {
        let mut h = Hasher::new(alg);
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg_metadata() {
        assert_eq!(HashAlg::Md5.output_len(), 16);
        assert_eq!(HashAlg::Sha1.output_len(), 20);
        assert_eq!(HashAlg::Md5.block_len(), 64);
        assert_eq!(HashAlg::Sha1.to_string(), "SHA-1");
    }

    #[test]
    fn hasher_matches_concrete_types() {
        let data = b"the quick brown fox";
        assert_eq!(Hasher::digest(HashAlg::Md5, data), Md5::digest(data).to_vec());
        assert_eq!(Hasher::digest(HashAlg::Sha1, data), Sha1::digest(data).to_vec());
    }

    #[test]
    fn hasher_reports_alg() {
        assert_eq!(Hasher::new(HashAlg::Md5).alg(), HashAlg::Md5);
        assert_eq!(Hasher::new(HashAlg::Sha1).alg(), HashAlg::Sha1);
    }

    #[test]
    fn finalize_into_matches_finalize() {
        for alg in [HashAlg::Md5, HashAlg::Sha1] {
            let mut h = Hasher::new(alg);
            h.update(b"abc");
            let mut out = vec![0u8; alg.output_len()];
            h.clone().finalize_into(&mut out);
            assert_eq!(out, h.finalize());
        }
    }

    #[test]
    fn streaming_equals_oneshot_across_split_points() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0, 1, 63, 64, 65, 128, 200, 255] {
            let mut h = Hasher::new(HashAlg::Sha1);
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Hasher::digest(HashAlg::Sha1, &data), "split {split}");
        }
    }
}
