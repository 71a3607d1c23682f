//! Real-socket SSL serving layer.
//!
//! The paper measures a loaded Apache/mod_ssl server; the in-memory
//! experiments in `sslperf-websim` reproduce its cost anatomy, and this
//! crate supplies the serving substrate: an event-driven server
//! ([`EventLoopServer`]) whose shard threads each multiplex many
//! non-blocking sockets through the sans-io
//! [`Engine`](sslperf_ssl::Engine), an optional pool of parallel
//! crypto engines ([`CryptoPool`]) that takes the
//! key-exchange operation off the shards, and a sharded LRU session cache
//! ([`ShardedSessionCache`]) that makes §4.1's session re-negotiation work
//! across connections. The cache is `sslperf-ssl`'s, re-exported: one
//! slab of fixed-size slots per shard with O(1) lookup, store and
//! eviction, 112 bytes per session at the default 8 × 1024 geometry that
//! [`ServerOptions`] and [`ServerConfig::new`](sslperf_ssl::ServerConfig::new)
//! share. [`ServerFleet`] runs several instances on one shared listening
//! socket, resuming each other's sessions through shared ticket keys.
//!
//! Every server records what it serves in one registry, [`ServerStats`]:
//! connections, transactions, ticket verdicts, crypto-pool batches and the
//! live handshake anatomy of the paper's Tables 1–3, always on, each fact
//! at one site. [`ServerStats::snapshot`] renders it;
//! [`ServerOptionsBuilder::metrics`] only decides whether `GET /metrics` serves
//! that rendering to clients.
//!
//! # Examples
//!
//! ```
//! use sslperf_net::{EventLoopServer, ServerOptions};
//! use sslperf_rng::SslRng;
//! use sslperf_rsa::RsaPrivateKey;
//! use sslperf_ssl::{CipherSuite, Engine, SslClient};
//! use std::net::TcpStream;
//!
//! let mut rng = SslRng::from_seed(b"net-doc");
//! let key = RsaPrivateKey::generate(512, &mut rng)?;
//! let server = EventLoopServer::start(key, "doc.example", &ServerOptions::default())?;
//!
//! let mut socket = TcpStream::connect(server.local_addr())?;
//! let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"c"));
//! let mut client = Engine::new(client)?;
//! while !client.is_established() {
//!     client.write_to(&mut socket)?;
//!     if client.read_from(&mut socket)? == 0 {
//!         return Err("server closed mid-handshake".into());
//!     }
//! }
//! client.queue_close_notify()?;
//! client.write_to(&mut socket)?;
//!
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cryptopool;
mod eventloop;
mod fleet;
mod metrics;
mod server;

pub use cryptopool::{CryptoPool, PoolReply, SubmitError};
pub use eventloop::EventLoopServer;
pub use fleet::ServerFleet;
pub use metrics::{MetricsSnapshot, ServerStats, StepSnapshot};
pub use server::{OptionsError, ServerOptions, ServerOptionsBuilder};
pub use sslperf_ssl::ShardedSessionCache;
