//! Shared fixtures for the benchmark harness.
//!
//! Each bench target in `benches/` regenerates the workload behind one (or
//! a group) of the paper's tables/figures:
//!
//! | Bench target | Paper artifact |
//! |---|---|
//! | `table1_webserver` | Table 1, Figure 2 (HTTPS transactions by file size) |
//! | `table2_handshake` | Tables 2–3 (full and resumed handshakes) |
//! | `table5_ciphers` | Figure 3, Tables 4–6 (key setup, block phases, bulk) |
//! | `table7_rsa` | Tables 7–8 (RSA decryption, key sizes, CRT, blinding) |
//! | `table10_hashes` | Table 10 (MD5/SHA-1 phases, MACs) |
//! | `table11_isasim` | Tables 9, 11, 12 (ISA simulation kernels) |
//! | `ablations` | DESIGN.md §6 design-choice ablations |
//! | `metrics_overhead` | cost of the live-anatomy recording calls |
//!
//! The printed *tables* themselves come from
//! `cargo run --release --example paper_report`; these benches provide the
//! Criterion timing series over the same in-process kernels. Nothing here
//! serves a socket: the loaded server is measured by `benchmark/` (the
//! grading instrument) and printed by the `core::experiments` serving
//! experiments.

#![forbid(unsafe_code)]

use sslperf_core::prelude::*;
use sslperf_core::ssl::{ClientEngine, Engine, ServerEngine};
use std::sync::OnceLock;

/// A deterministic RSA key of the given size, generated once per process.
///
/// # Panics
///
/// Panics if key generation fails (not observed).
#[must_use]
pub fn key(bits: usize) -> &'static RsaPrivateKey {
    static K512: OnceLock<RsaPrivateKey> = OnceLock::new();
    static K1024: OnceLock<RsaPrivateKey> = OnceLock::new();
    static K2048: OnceLock<RsaPrivateKey> = OnceLock::new();
    let cell = match bits {
        512 => &K512,
        1024 => &K1024,
        2048 => &K2048,
        other => panic!("no cached key of {other} bits"),
    };
    cell.get_or_init(|| {
        let mut rng = SslRng::from_seed(format!("bench-key-{bits}").as_bytes());
        RsaPrivateKey::generate(bits, &mut rng).expect("keygen")
    })
}

/// A server configuration around the 1024-bit bench key.
///
/// # Panics
///
/// Panics if certificate construction fails (not observed).
#[must_use]
pub fn server_config() -> &'static ServerConfig {
    static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
    CONFIG
        .get_or_init(|| ServerConfig::new(key(1024).clone(), "bench.sslperf.test").expect("config"))
}

/// Runs one full handshake against `config`, returning the established
/// pair.
///
/// # Panics
///
/// Panics if any flight fails.
#[must_use]
pub fn handshake(
    config: &ServerConfig,
    suite: CipherSuite,
    seed: u64,
) -> (ClientEngine, ServerEngine<'_>) {
    let client = SslClient::new(suite, SslRng::from_seed(format!("bench-c-{seed}").as_bytes()));
    establish(config, client, format!("bench-s-{seed}").as_bytes())
}

/// Drives `client` (fresh or resuming) through a handshake against a new
/// server seeded with `server_seed`, passing whole flights between the two
/// engines until both are established.
///
/// # Panics
///
/// Panics if any flight fails or the handshake does not complete.
#[must_use]
pub fn establish<'a>(
    config: &'a ServerConfig,
    client: SslClient,
    server_seed: &[u8],
) -> (ClientEngine, ServerEngine<'a>) {
    let mut client = Engine::new(client).expect("client hello");
    let mut server =
        Engine::new(SslServer::new(config, SslRng::from_seed(server_seed))).expect("server");
    // Two round trips: a resumed handshake's last flight is empty.
    for _ in 0..2 {
        server.feed_from(&mut client).expect("client flight");
        client.feed_from(&mut server).expect("server flight");
    }
    assert!(client.is_established() && server.is_established(), "handshake incomplete");
    (client, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_work() {
        assert_eq!(key(512).modulus().bit_len(), 512);
        let (c, s) = handshake(server_config(), CipherSuite::RsaRc4Md5, 1);
        assert!(c.is_established() && s.is_established());
    }
}
