//! SSL v3 over caller-owned buffers, instrumented for the anatomy study.
//!
//! This crate implements the protocol whose server-side cost the paper
//! dissects: the record layer (fragmentation, SSLv3 MAC, CBC padding), the
//! session-negotiation handshake of Figure 1, the MD5+SHA-1 key-derivation
//! cascade, and the bulk-data phase — for the RSA cipher suites the paper
//! evaluates (`DES-CBC3-SHA` being the headline suite).
//!
//! The server state machine ([`SslServer`]) is partitioned into the exact
//! ten steps of the paper's Table 2 and records per-step latency and
//! per-crypto-function latency into [`sslperf_profile::PhaseSet`]s.
//!
//! Message flow follows OpenSSL's `ssltest` harness the paper used
//! (§3.2): client and server state machines in one process, each wrapped
//! in a sans-io [`Engine`], passing whole flights through memory rather
//! than sockets. [`Engine::new`] emits a client's hello; each
//! [`Engine::feed_from`] hands one engine the other's pending flight and
//! lets it produce the next.
//!
//! ```text
//! client                           server
//!   Engine::new(SslClient)  ─────▶  server.feed_from(&mut client)
//!   client.feed_from(&mut server) ◀─ (hello ‖ certificate ‖ done)
//!   (kx ‖ ccs ‖ finished)  ──────▶  server.feed_from(&mut client)
//!   client.feed_from(&mut server) ◀─ (ccs ‖ finished)
//!   seal()/open_next()     ◀─────▶  seal()/open_next()
//! ```
//!
//! Sockets drive the same engines: [`Engine::read_from`] and
//! [`Engine::write_to`] for a blocking `std::io` stream, [`Engine::feed`]
//! and [`Engine::output`] for an event loop.
//!
//! # Examples
//!
//! ```
//! use sslperf_rng::SslRng;
//! use sslperf_rsa::RsaPrivateKey;
//! use sslperf_ssl::{CipherSuite, Engine, ServerConfig, SslClient, SslServer};
//!
//! let mut rng = SslRng::from_seed(b"doc-handshake");
//! let key = RsaPrivateKey::generate(512, &mut rng)?;
//! let config = ServerConfig::new(key, "doc.example")?;
//!
//! let suite = CipherSuite::RsaDesCbc3Sha;
//! let mut client = Engine::new(SslClient::new(suite, SslRng::from_seed(b"c")))?;
//! let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"s")))?;
//!
//! server.feed_from(&mut client)?; // client hello
//! client.feed_from(&mut server)?; // hello ‖ certificate ‖ done
//! server.feed_from(&mut client)?; // kx ‖ ccs ‖ finished
//! client.feed_from(&mut server)?; // ccs ‖ finished
//! assert!(client.is_established() && server.is_established());
//!
//! client.seal(b"GET / HTTP/1.0\r\n\r\n")?;
//! server.feed_from(&mut client)?;
//! let range = server.open_next()?.expect("one whole record");
//! assert_eq!(&server.buffered()[range], b"GET / HTTP/1.0\r\n\r\n");
//! println!("{}", server.machine().steps()); // the paper's Table 2, live
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Security
//!
//! SSL v3 is broken (POODLE, weak MAC construction) and this implementation
//! is for performance reproduction only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod cache;
mod client;
pub mod dhe;
mod engine;
pub mod kdf;
mod ledger;
pub mod mac;
mod machine;
mod messages;
mod record;
mod server;
mod suites;
pub mod ticket;
pub mod tls13;
mod transcript;

pub use cache::{
    CachedSession, CachedSessionStore, IssuedTicket, SessionCache, SessionStore,
    ShardedSessionCache,
};
pub use client::{ClientSession, SslClient};
pub use engine::{
    ClientEngine, CryptoDone, CryptoJob, CryptoOp, CryptoOutput, Engine, EngineDriven, MachineStep,
    ServerEngine,
};
pub use ledger::HandshakeLedger;
pub use machine::{ClientConfig, ClientMachine, Protocol, ServerMachine};
pub use messages::{HandshakeType, SessionId};
pub use record::{
    ContentType, RecordBuffer, RecordLayer, MAX_FRAGMENT, MAX_RECORD_BODY, RECORD_HEADER_LEN,
};
pub use server::{ServerConfig, SslServer, SERVER_STEP_NAMES};
pub use suites::{BulkCipher, CipherSuite};
pub use ticket::{TicketError, TicketKeyring, TicketSessionStore};
pub use tls13::{Tls13ClientMachine, Tls13ServerMachine, TLS13_STEP_NAMES};

use sslperf_ciphers::CipherError;
use sslperf_rsa::RsaError;
use std::fmt;

/// The protocol version implemented here: SSL 3.0.
pub const VERSION: (u8, u8) = (3, 0);

/// Errors surfaced by the record layer and the handshake state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SslError {
    /// A record or message failed to parse.
    Decode(&'static str),
    /// Record MAC verification failed.
    MacMismatch,
    /// CBC padding was malformed.
    BadPadding,
    /// A message arrived that the state machine did not expect.
    UnexpectedMessage {
        /// What the state machine was waiting for.
        expected: &'static str,
    },
    /// The peer's finished hash did not match the transcript.
    BadFinished,
    /// The peer offered no mutually supported cipher suite.
    NoCommonCipher,
    /// An unsupported protocol version was offered.
    UnsupportedVersion {
        /// Major version received.
        major: u8,
        /// Minor version received.
        minor: u8,
    },
    /// An RSA operation failed.
    Rsa(RsaError),
    /// A symmetric cipher operation failed.
    Cipher(CipherError),
    /// The connection is not in a state that allows the operation.
    NotReady(&'static str),
    /// The peer sent an alert (including orderly `close_notify` closure).
    PeerAlert(alert::Alert),
    /// The underlying transport failed (stringified so the error type
    /// stays `Clone + Eq`).
    Io(String),
}

impl SslError {
    /// True when this is an I/O error caused by a socket read/write
    /// timeout (the slowloris guard in the serving layer), as opposed to a
    /// protocol violation or a hard transport failure.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(self, SslError::Io(what) if what.starts_with("timed out"))
    }
}

impl fmt::Display for SslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SslError::Decode(what) => write!(f, "malformed {what}"),
            SslError::MacMismatch => f.write_str("record MAC verification failed"),
            SslError::BadPadding => f.write_str("malformed CBC padding"),
            SslError::UnexpectedMessage { expected } => {
                write!(f, "unexpected message while waiting for {expected}")
            }
            SslError::BadFinished => f.write_str("finished hash mismatch"),
            SslError::NoCommonCipher => f.write_str("no common cipher suite"),
            SslError::UnsupportedVersion { major, minor } => {
                write!(f, "unsupported protocol version {major}.{minor}")
            }
            SslError::Rsa(e) => write!(f, "rsa failure: {e}"),
            SslError::Cipher(e) => write!(f, "cipher failure: {e}"),
            SslError::NotReady(what) => write!(f, "connection not ready: {what}"),
            SslError::PeerAlert(alert) => write!(f, "peer sent {alert}"),
            SslError::Io(what) => write!(f, "transport failure: {what}"),
        }
    }
}

impl std::error::Error for SslError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SslError::Rsa(e) => Some(e),
            SslError::Cipher(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<RsaError> for SslError {
    fn from(e: RsaError) -> Self {
        SslError::Rsa(e)
    }
}

#[doc(hidden)]
impl From<CipherError> for SslError {
    fn from(e: CipherError) -> Self {
        SslError::Cipher(e)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures: key generation dominates test time, so one server
    //! config is shared across the whole suite.

    use crate::ServerConfig;
    use sslperf_rng::SslRng;
    use sslperf_rsa::RsaPrivateKey;
    use std::sync::OnceLock;

    pub fn server_config() -> &'static ServerConfig {
        static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let mut rng = SslRng::from_seed(b"ssl-test-server-key");
            let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
            ServerConfig::new(key, "test.server").expect("config")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        assert_eq!(SslError::MacMismatch.to_string(), "record MAC verification failed");
        assert_eq!(
            SslError::UnexpectedMessage { expected: "finished" }.to_string(),
            "unexpected message while waiting for finished"
        );
        let err = SslError::Rsa(RsaError::Padding);
        assert!(err.source().is_some());
        assert!(SslError::MacMismatch.source().is_none());
    }

    #[test]
    fn version_is_ssl3() {
        assert_eq!(VERSION, (3, 0));
    }
}
