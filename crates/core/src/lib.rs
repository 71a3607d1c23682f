//! The experiment suite of *Anatomy and Performance of SSL Processing*
//! (Zhao, Iyer, Makineni, Bhuyan — ISPASS 2005), reproduced as a library.
//!
//! Every table and figure of the paper's evaluation is an entry point in
//! [`experiments`], running on the from-scratch substrates of this
//! workspace:
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Table 1 (web-server component breakdown) | [`experiments::webserver::table1`] |
//! | Figure 2 (crypto-library split vs file size) | [`experiments::webserver::fig2`] |
//! | Table 2 (10-step handshake anatomy) | [`experiments::handshake::table2`] |
//! | Table 3 (crypto share of the handshake) | [`experiments::handshake::table3`] |
//! | Figure 3 (key-setup share vs data size) | [`experiments::symmetric::fig3`] |
//! | Table 4 (cipher data structures) | [`experiments::symmetric::table4`] |
//! | Table 5 (AES block-op breakdown) | [`experiments::symmetric::table5`] |
//! | Table 6 (DES/3DES breakdown) | [`experiments::symmetric::table6`] |
//! | Table 7 (RSA decrypt step breakdown) | [`experiments::rsa::table7`] |
//! | Table 8 (top-ten functions in RSA) | [`experiments::rsa::table8`] |
//! | Table 9 (`bn_mul_add_words` body) | [`experiments::arch::table9`] |
//! | Table 10 (MD5/SHA-1 phase breakdown) | [`experiments::hashes::table10`] |
//! | Table 11 (CPI, path length, throughput) | [`experiments::arch::table11`] |
//! | Table 12 (top-ten instructions) | [`experiments::arch::table12`] |
//! | §4 loaded server (real sockets) | [`experiments::netload::loaded_server`] |
//!
//! Use [`experiments::run_report`] with an [`experiments::ExperimentId`]
//! to run a selection, or [`experiments::run_all_reports`] for the whole
//! paper.
//!
//! # Examples
//!
//! ```no_run
//! use sslperf_core::{experiments, Context};
//!
//! let ctx = Context::builder().key_bits(512).iterations(2).build()?;
//! let t6 = experiments::symmetric::table6(&ctx)?;
//! println!("{t6}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! (Marked `no_run` only because key generation takes a few seconds; the
//! test suite runs every experiment.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

// Re-export the substrates under stable names so downstream users need a
// single dependency.
pub use sslperf_bignum as bignum;
pub use sslperf_ciphers as ciphers;
pub use sslperf_hashes as hashes;
pub use sslperf_isasim as isasim;
pub use sslperf_net as net;
pub use sslperf_profile as profile;
pub use sslperf_rng as rng;
pub use sslperf_rsa as rsa;
pub use sslperf_ssl as ssl;
pub use sslperf_websim as websim;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::experiments::{ExperimentError, ExperimentId, Report};
    pub use crate::{Context, ContextBuilder, ContextError};
    pub use sslperf_ciphers::{Aes, BlockCipher, Cbc, Des, Des3, Rc4};
    pub use sslperf_hashes::{HashAlg, Hasher, Hmac, Md5, Sha1};
    pub use sslperf_net::{
        EventLoopServer, MetricsSnapshot, ServerFleet, ServerOptions, ServerStats,
        ShardedSessionCache,
    };
    pub use sslperf_profile::{Cycles, PhaseSet, Table};
    pub use sslperf_rng::SslRng;
    pub use sslperf_rsa::{RsaPrivateKey, RsaPublicKey};
    pub use sslperf_ssl::{
        CipherSuite, ClientConfig, ClientMachine, Protocol, ServerConfig, ServerMachine,
        SessionCache, SslClient, SslServer, TicketKeyring, TicketSessionStore, Tls13ClientMachine,
        Tls13ServerMachine,
    };
    pub use sslperf_websim::SecureWebServer;
}

use sslperf_rng::SslRng;
use sslperf_rsa::{RsaError, RsaPrivateKey};
use sslperf_ssl::{CipherSuite, ServerConfig, SslError};
use std::fmt;

/// Why a [`Context`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextError {
    /// The builder was given zero iterations.
    ZeroIterations,
    /// RSA key generation failed for the requested size.
    Rsa(RsaError),
    /// The shared server configuration could not be constructed.
    Ssl(SslError),
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::ZeroIterations => write!(f, "need at least one iteration"),
            ContextError::Rsa(e) => write!(f, "server key generation failed: {e}"),
            ContextError::Ssl(e) => write!(f, "server configuration failed: {e}"),
        }
    }
}

impl std::error::Error for ContextError {}

impl From<RsaError> for ContextError {
    fn from(e: RsaError) -> Self {
        ContextError::Rsa(e)
    }
}

impl From<SslError> for ContextError {
    fn from(e: SslError) -> Self {
        ContextError::Ssl(e)
    }
}

/// Configures and builds a [`Context`]; obtained from
/// [`Context::builder`].
///
/// Every knob has the paper's default: a 1024-bit server key, 10
/// measurement iterations, DES-CBC3-SHA, and a fixed key-generation seed
/// so runs are reproducible.
#[derive(Debug, Clone)]
pub struct ContextBuilder {
    key_bits: usize,
    iterations: usize,
    suite: CipherSuite,
    seed: Vec<u8>,
}

impl Default for ContextBuilder {
    fn default() -> Self {
        ContextBuilder {
            key_bits: 1024,
            iterations: 10,
            suite: CipherSuite::RsaDesCbc3Sha,
            seed: b"sslperf-context-server-key".to_vec(),
        }
    }
}

impl ContextBuilder {
    /// Server key size in bits (Table 7 always measures both 512 and
    /// 1024 regardless).
    #[must_use]
    pub fn key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Measurement repetitions per experiment.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Cipher suite under study.
    #[must_use]
    pub fn suite(mut self, suite: CipherSuite) -> Self {
        self.suite = suite;
        self
    }

    /// Seed for the deterministic key-generation RNG.
    #[must_use]
    pub fn seed(mut self, seed: &[u8]) -> Self {
        self.seed = seed.to_vec();
        self
    }

    /// Generates the RSA fixtures and the server configuration.
    ///
    /// # Errors
    ///
    /// [`ContextError::ZeroIterations`] when `iterations` is zero, and
    /// key-generation or configuration failures otherwise.
    pub fn build(self) -> Result<Context, ContextError> {
        if self.iterations == 0 {
            return Err(ContextError::ZeroIterations);
        }
        let mut rng = SslRng::from_seed(&self.seed);
        let key_512 = RsaPrivateKey::generate(512, &mut rng)?;
        let key_1024 = RsaPrivateKey::generate(1024, &mut rng)?;
        let server_key = match self.key_bits {
            512 => key_512.clone(),
            1024 => key_1024.clone(),
            bits => RsaPrivateKey::generate(bits, &mut rng)?,
        };
        let server_config = ServerConfig::new(server_key, "www.sslperf.test")?;
        Ok(Context {
            key_bits: self.key_bits,
            iterations: self.iterations,
            suite: self.suite,
            server_config,
            key_512,
            key_1024,
        })
    }
}

/// Shared experiment configuration and fixtures.
///
/// Construction generates the RSA server key (the expensive part), so build
/// one `Context` and pass it to every experiment.
#[derive(Debug)]
pub struct Context {
    key_bits: usize,
    iterations: usize,
    suite: CipherSuite,
    server_config: ServerConfig,
    key_512: RsaPrivateKey,
    key_1024: RsaPrivateKey,
}

impl Context {
    /// Starts configuring a context; see [`ContextBuilder`] for the knobs
    /// and defaults.
    #[must_use]
    pub fn builder() -> ContextBuilder {
        ContextBuilder::default()
    }

    /// The paper's configuration: RSA-1024, DES-CBC3-SHA, enough iterations
    /// for stable numbers.
    ///
    /// # Panics
    ///
    /// Panics if key generation fails (not observed in practice).
    #[must_use]
    pub fn paper() -> Self {
        Self::builder().build().expect("paper context")
    }

    /// A fast configuration for tests: RSA-512 server key, few iterations.
    ///
    /// # Panics
    ///
    /// Panics if key generation fails (not observed in practice).
    #[must_use]
    pub fn quick() -> Self {
        Self::builder().key_bits(512).iterations(2).build().expect("quick context")
    }

    /// The server key size in bits.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        self.key_bits
    }

    /// Measurement repetitions used by the experiments.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The cipher suite under study (the paper's DES-CBC3-SHA).
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// The shared SSL server configuration.
    #[must_use]
    pub fn server_config(&self) -> &ServerConfig {
        &self.server_config
    }

    /// The 512-bit RSA key (Table 7's first column).
    #[must_use]
    pub fn key_512(&self) -> &RsaPrivateKey {
        &self.key_512
    }

    /// The 1024-bit RSA key (Table 7's second column, Table 8).
    #[must_use]
    pub fn key_1024(&self) -> &RsaPrivateKey {
        &self.key_1024
    }

    /// A deterministic RNG derived from the context plus a label.
    #[must_use]
    pub fn rng(&self, label: &str) -> SslRng {
        SslRng::from_seed(format!("sslperf-{label}").as_bytes())
    }
}

#[cfg(test)]
pub(crate) mod test_ctx {
    use crate::Context;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// One shared quick context for the whole test suite (keygen is slow).
    pub fn ctx() -> &'static Context {
        static CTX: OnceLock<Context> = OnceLock::new();
        CTX.get_or_init(Context::quick)
    }

    /// Serializes timing-sensitive experiment tests: relative-throughput
    /// assertions (Table 11's orderings and friends) flake when other test
    /// threads saturate the cores mid-measurement. Poisoning is ignored —
    /// a failed timing test must not cascade into every other one.
    pub fn timing_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retries a noisy timing predicate a few times; real regressions fail
    /// consistently, scheduler blips do not.
    pub fn eventually(attempts: u32, mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..attempts {
            if f() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_accessors() {
        let ctx = test_ctx::ctx();
        assert_eq!(ctx.key_bits(), 512);
        assert!(ctx.iterations() >= 1);
        assert_eq!(ctx.suite().name(), "DES-CBC3-SHA");
        assert_eq!(ctx.key_512().modulus().bit_len(), 512);
        assert_eq!(ctx.key_1024().modulus().bit_len(), 1024);
    }

    #[test]
    fn builder_rejects_zero_iterations() {
        let err = Context::builder().iterations(0).build().expect_err("must fail");
        assert_eq!(err, ContextError::ZeroIterations);
        assert!(err.to_string().contains("iteration"));
    }

    #[test]
    fn rng_is_label_deterministic() {
        let ctx = test_ctx::ctx();
        let mut a = ctx.rng("x");
        let mut b = ctx.rng("x");
        let mut c = ctx.rng("y");
        assert_eq!(a.bytes(8), b.bytes(8));
        assert_ne!(a.bytes(8), c.bytes(8));
    }
}
