//! SSL v3 over in-memory transports, instrumented for the anatomy study.
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
//! Message flow is *flight-based*, like OpenSSL's `ssltest` harness the
//! paper used (§3.2): each call consumes one peer flight and produces the
//! next, with bytes moving through caller-owned buffers rather than sockets.
//!
//! ```text
//! client                         server
//!   hello()            ───────▶  process_client_hello()
//!   process_server_flight() ◀──  (hello ‖ certificate ‖ done)
//!   (kx ‖ ccs ‖ finished) ─────▶ process_client_flight()
//!   process_server_finish() ◀──  (ccs ‖ finished)
//!   seal_into()/open_in_place() ◀▶ seal_into()/open_in_place()
//! ```
//!
//! # Examples
//!
//! ```
//! use sslperf_rng::SslRng;
//! use sslperf_rsa::RsaPrivateKey;
//! use sslperf_ssl::{CipherSuite, RecordBuffer, ServerConfig, SslClient, SslServer};
//!
//! let mut rng = SslRng::from_seed(b"doc-handshake");
//! let key = RsaPrivateKey::generate(512, &mut rng)?;
//! let config = ServerConfig::new(key, "doc.example")?;
//!
//! let mut client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"c"));
//! let mut server = SslServer::new(&config, SslRng::from_seed(b"s"));
//!
//! let flight1 = client.hello()?;
//! let flight2 = server.process_client_hello(&flight1)?;
//! let flight3 = client.process_server_flight(&flight2)?;
//! let flight4 = server.process_client_flight(&flight3)?;
//! client.process_server_finish(&flight4)?;
//!
//! let mut record = RecordBuffer::new();
//! client.seal_into(b"GET / HTTP/1.0\r\n\r\n", &mut record)?;
//! let range = server.open_in_place(&mut record)?;
//! assert_eq!(&record.as_slice()[range], b"GET / HTTP/1.0\r\n\r\n");
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
pub mod mac;
mod machine;
mod messages;
mod record;
mod server;
mod suites;
pub mod ticket;
pub mod tls13;
mod transcript;
pub mod transport;

pub use cache::{
    CachedSession, CachedSessionStore, IssuedTicket, SessionCache, SessionStore, SimpleSessionCache,
};
pub use client::{ClientSession, SslClient};
pub use engine::{
    ClientEngine, CryptoDone, CryptoJob, CryptoOp, CryptoOutput, Engine, EngineDriven, MachineStep,
    ServerEngine,
};
pub use machine::{ClientConfig, ClientMachine, Protocol, ServerMachine};
pub use messages::{HandshakeType, SessionId};
pub use record::{ContentType, RecordBuffer, RecordLayer, MAX_FRAGMENT, MAX_RECORD_BODY};
pub use server::{HandshakeLedger, ServerConfig, SslServer, SERVER_STEP_NAMES};
pub use suites::{BulkCipher, CipherSuite};
pub use ticket::{TicketError, TicketKeyring, TicketSessionStore};
pub use tls13::{Tls13ClientMachine, Tls13ServerMachine, TLS13_STEP_NAMES};
pub use transport::{duplex_pair, read_record_into, DuplexTransport, Transport};

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
