//! MD5-chained pseudo-random generator mirroring OpenSSL's `md_rand.c`.
//!
//! The paper's crypto-time breakdown has an "other" category that is mostly
//! random-number generation (`rand_pseudo_bytes` appears in handshake steps
//! 1 and 2 of Table 2). OpenSSL 0.9.7 generated randomness by chaining MD5
//! over an entropy pool; [`SslRng`] reproduces that structure — a pool of
//! [`POOL_LEN`] bytes, a rolling MD5 chaining value, and pool feedback on
//! every extraction — so the cost profile lands in the same place (MD5 block
//! operations).
//!
//! Determinism: seeding fully determines the output stream, which keeps every
//! experiment in this workspace reproducible.
//!
//! # Examples
//!
//! ```
//! use sslperf_rng::SslRng;
//!
//! let mut rng = SslRng::from_seed(b"experiment-42");
//! let a = rng.bytes(16);
//! let b = rng.bytes(16);
//! assert_ne!(a, b);
//!
//! let mut rng2 = SslRng::from_seed(b"experiment-42");
//! assert_eq!(a, rng2.bytes(16));
//! ```
//!
//! # Security
//!
//! This is a reproduction of a 2005-era design for performance study only;
//! it must not be used where cryptographic randomness matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sslperf_bignum::EntropySource;
use sslperf_hashes::Md5;
use sslperf_profile::counters;

/// Size of the entropy pool, matching OpenSSL's `STATE_SIZE`.
pub const POOL_LEN: usize = 1023;

/// An MD5-chained PRNG with an entropy pool (OpenSSL `md_rand` style).
#[derive(Debug, Clone)]
pub struct SslRng {
    pool: [u8; POOL_LEN],
    md: [u8; 16],
    counter: u64,
    index: usize,
}

impl SslRng {
    /// Creates a generator seeded from the system clock and a process-unique
    /// counter. Use [`SslRng::from_seed`] for reproducible streams.
    #[must_use]
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let unique = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let mut seed = Vec::with_capacity(16);
        seed.extend_from_slice(&nanos.to_le_bytes());
        seed.extend_from_slice(&unique.to_le_bytes());
        Self::from_seed(&seed)
    }

    /// Creates a generator whose entire output stream is determined by
    /// `seed`.
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut rng = SslRng { pool: [0; POOL_LEN], md: [0; 16], counter: 0, index: 0 };
        rng.add_entropy(seed);
        rng
    }

    /// Mixes additional entropy into the pool (OpenSSL's `RAND_add`).
    pub fn add_entropy(&mut self, data: &[u8]) {
        // Chain MD5 over (md || data chunk || pool window), XOR-feeding the
        // digest back into the pool, exactly the md_rand mixing shape.
        let mut offset = 0usize;
        for chunk in data.chunks(16).chain(std::iter::once(&[][..])) {
            let mut h = Md5::new();
            h.update(&self.md);
            h.update(chunk);
            let window_end = (offset + 16).min(POOL_LEN);
            h.update(&self.pool[offset..window_end]);
            h.update(&self.counter.to_le_bytes());
            self.md = h.finalize();
            for (i, b) in self.md.iter().enumerate() {
                self.pool[(offset + i) % POOL_LEN] ^= b;
            }
            offset = (offset + 16) % POOL_LEN;
            self.counter = self.counter.wrapping_add(1);
        }
    }

    /// Fills `buf` with pseudo-random bytes (OpenSSL's
    /// `RAND_pseudo_bytes`, the function visible in the paper's Table 2).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        counters::count("rand_pseudo_bytes", buf.len() as u64);
        for out in buf.chunks_mut(8) {
            // md = MD5(md || counter || pool window); emit half, feed back half.
            let mut h = Md5::new();
            h.update(&self.md);
            h.update(&self.counter.to_le_bytes());
            let window_end = (self.index + 16).min(POOL_LEN);
            h.update(&self.pool[self.index..window_end]);
            self.md = h.finalize();
            out.copy_from_slice(&self.md[..out.len()]);
            for i in 0..8 {
                self.pool[(self.index + i) % POOL_LEN] ^= self.md[8 + i];
            }
            self.index = (self.index + 8) % POOL_LEN;
            self.counter = self.counter.wrapping_add(1);
        }
    }

    /// Returns `n` pseudo-random bytes.
    #[must_use]
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        self.fill_bytes(&mut buf);
        buf
    }

    /// Returns a pseudo-random `u64`.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection sampling over the smallest covering bit mask (avoids
        // next_power_of_two, which overflows for bounds above 2⁶³).
        let mask = u64::MAX >> bound.leading_zeros();
        loop {
            let v = self.next_u64() & mask;
            if v < bound {
                return v;
            }
        }
    }
}

impl Default for SslRng {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropySource for SslRng {
    fn fill(&mut self, buf: &mut [u8]) {
        self.fill_bytes(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SslRng::from_seed(b"seed");
        let mut b = SslRng::from_seed(b"seed");
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SslRng::from_seed(b"seed-a");
        let mut b = SslRng::from_seed(b"seed-b");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn stream_does_not_repeat_quickly() {
        let mut rng = SslRng::from_seed(b"x");
        let first = rng.bytes(64);
        for _ in 0..10 {
            assert_ne!(rng.bytes(64), first);
        }
    }

    #[test]
    fn add_entropy_changes_stream() {
        let mut a = SslRng::from_seed(b"same");
        let mut b = SslRng::from_seed(b"same");
        b.add_entropy(b"more");
        assert_ne!(a.bytes(16), b.bytes(16));
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SslRng::from_seed(b"bound");
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_sizes_and_alignment() {
        let mut rng = SslRng::from_seed(b"sizes");
        for n in [0usize, 1, 7, 8, 9, 16, 1023, 1024, 4096] {
            assert_eq!(rng.bytes(n).len(), n);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut rng = SslRng::from_seed(b"uniform");
        let data = rng.bytes(1 << 16);
        let mut hist = [0u32; 256];
        for b in &data {
            hist[*b as usize] += 1;
        }
        let expected = (data.len() / 256) as f64;
        for (value, &count) in hist.iter().enumerate() {
            let deviation = (f64::from(count) - expected).abs() / expected;
            assert!(deviation < 0.5, "byte {value} count {count} vs {expected}");
        }
    }

    #[test]
    fn counts_rand_pseudo_bytes() {
        let mut rng = SslRng::from_seed(b"c");
        let (_, snap) = sslperf_profile::counters::counted(|| rng.bytes(28));
        assert_eq!(snap.calls("rand_pseudo_bytes"), 1);
        assert_eq!(snap.units("rand_pseudo_bytes"), 28);
    }

    #[test]
    fn entropy_source_impl_used_by_bignum() {
        use sslperf_bignum::{generate_prime, Bn};
        let mut rng = SslRng::from_seed(b"prime");
        let p = generate_prime(64, &mut rng);
        assert_eq!(p.bit_len(), 64);
        assert!(p > Bn::one());
    }

    #[test]
    fn new_instances_differ() {
        let mut a = SslRng::new();
        let mut b = SslRng::new();
        // Unique counter guarantees different seeds even with equal clocks.
        assert_ne!(a.bytes(16), b.bytes(16));
    }
}
