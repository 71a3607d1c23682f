//! Protocol selection and version-dispatching machines.
//!
//! The workspace now carries two protocol machines on one sans-io engine:
//! the paper's SSLv3 server and the TLS 1.3-style 1-RTT machine of
//! [`crate::tls13`]. This module is the seam that lets one serving process
//! speak both: [`ServerMachine`] starts undecided, sniffs the version the
//! first ClientHello carries — `(3, 0)` or `(3, 4)`, the same bytes the
//! record header is stamped with — and becomes the matching machine for
//! the rest of the connection. [`ClientMachine`] is the mirror image,
//! fixed at construction by a [`ClientConfig`].

use crate::engine::{CryptoDone, EngineDriven, MachineStep, Sealed};
use crate::ledger::{HandshakeLedger, HandshakeRecorder};
use crate::record::RecordLayer;
use crate::server::ServerConfig;
use crate::tls13::{Tls13ClientMachine, Tls13ServerMachine};
use crate::{CipherSuite, SslClient, SslError, SslServer};
use sslperf_profile::Cycles;
use sslperf_rng::SslRng;
use sslperf_rsa::RsaPrivateKey;

/// The protocols a machine can speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// SSL 3.0: the paper's protocol — RSA key transport, CCS epochs,
    /// MD5+SHA-1 key derivation.
    Ssl3,
    /// The TLS 1.3-style 1-RTT handshake: ephemeral DHE key agreement,
    /// HKDF key schedule, encrypted handshake flight, no CCS.
    Tls13,
}

impl Protocol {
    /// Human-readable protocol name, as used in metrics and bench output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Ssl3 => "SSLv3",
            Protocol::Tls13 => "TLS1.3",
        }
    }

    /// The version bytes this protocol stamps on record headers and in
    /// its hello messages.
    #[must_use]
    pub fn wire_version(self) -> (u8, u8) {
        match self {
            Protocol::Ssl3 => crate::VERSION,
            Protocol::Tls13 => crate::tls13::WIRE_VERSION,
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Client-side connection parameters: which protocol to speak and which
/// cipher suite to offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    protocol: Protocol,
    suite: CipherSuite,
}

impl ClientConfig {
    /// A configuration speaking `protocol` and offering `suite`.
    #[must_use]
    pub fn new(protocol: Protocol, suite: CipherSuite) -> Self {
        ClientConfig { protocol, suite }
    }

    /// The protocol this client speaks.
    #[must_use]
    pub fn protocol(self) -> Protocol {
        self.protocol
    }

    /// The cipher suite this client offers.
    #[must_use]
    pub fn suite(self) -> CipherSuite {
        self.suite
    }
}

/// A protocol-generic client machine: either protocol's client behind one
/// [`EngineDriven`] type, so transport drivers (e.g. the load generator's
/// event-loop client) can be written once.
// Both variants are connection-sized (record buffers dominate either
// way), so boxing one would buy nothing but an indirection per poll.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ClientMachine {
    /// An SSLv3 client.
    V3(SslClient),
    /// A TLS 1.3-style client.
    T13(Tls13ClientMachine),
}

impl ClientMachine {
    /// Builds a fresh-handshake client for `config`'s protocol and suite.
    #[must_use]
    pub fn new(config: ClientConfig, rng: SslRng) -> Self {
        match config.protocol() {
            Protocol::Ssl3 => ClientMachine::V3(SslClient::new(config.suite(), rng)),
            Protocol::Tls13 => ClientMachine::T13(Tls13ClientMachine::new(config.suite(), rng)),
        }
    }

    /// The protocol this client speaks.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        match self {
            ClientMachine::V3(_) => Protocol::Ssl3,
            ClientMachine::T13(_) => Protocol::Tls13,
        }
    }
}

impl EngineDriven for ClientMachine {
    fn start(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        match self {
            ClientMachine::V3(m) => m.start(out),
            ClientMachine::T13(m) => m.start(out),
        }
    }

    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match self {
            ClientMachine::V3(m) => m.on_handshake_message(msg, out),
            ClientMachine::T13(m) => m.on_handshake_message(msg, out),
        }
    }

    fn on_change_cipher_spec(&mut self, body: &[u8]) -> Result<(), SslError> {
        match self {
            ClientMachine::V3(m) => m.on_change_cipher_spec(body),
            ClientMachine::T13(m) => m.on_change_cipher_spec(body),
        }
    }

    fn record_layer(&mut self) -> &mut RecordLayer {
        match self {
            ClientMachine::V3(m) => m.record_layer(),
            ClientMachine::T13(m) => m.record_layer(),
        }
    }

    fn handshake_done(&self) -> bool {
        match self {
            ClientMachine::V3(m) => m.handshake_done(),
            ClientMachine::T13(m) => m.handshake_done(),
        }
    }

    fn accepts_record_version(&self, major: u8, minor: u8) -> bool {
        match self {
            ClientMachine::V3(m) => m.accepts_record_version(major, minor),
            ClientMachine::T13(m) => m.accepts_record_version(major, minor),
        }
    }
}

/// A protocol-dispatching server machine.
///
/// Starts [`ServerMachine::Undecided`]: its record layer accepts any
/// record version, and the version bytes inside the first ClientHello
/// (identical to the record-header version for both protocols) pick the
/// machine. The chosen machine then owns the connection — record layer,
/// step ledger, key-exchange job — and the wire bytes it produces are
/// byte-identical to driving that machine directly, because the
/// dispatcher never writes and the inner machine is handed the untouched
/// hello message.
// Both dispatched variants are connection-sized (record buffers dominate
// either way), so boxing one would buy nothing but an indirection per poll.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServerMachine<'a> {
    /// No hello seen yet; holds what the eventual machine needs.
    Undecided {
        /// The shared server configuration (also the protocol allow-list).
        config: &'a ServerConfig,
        /// The connection rng, handed to the chosen machine.
        rng: SslRng,
        /// Version-agnostic record layer used only to open the first
        /// hello record.
        layer: RecordLayer,
        /// The step recorder whose clock the engine starts before opening
        /// the first hello; the chosen machine books into it.
        anatomy: HandshakeRecorder,
    },
    /// Dispatched to the SSLv3 machine.
    V3(SslServer<'a>),
    /// Dispatched to the TLS 1.3-style machine.
    T13(Tls13ServerMachine<'a>),
}

impl<'a> ServerMachine<'a> {
    /// A server connection that will speak whichever of `config`'s
    /// allowed protocols the client's first hello selects.
    #[must_use]
    pub fn new(config: &'a ServerConfig, rng: SslRng) -> Self {
        let mut layer = RecordLayer::new();
        layer.set_accept_any_version(true);
        ServerMachine::Undecided { config, rng, layer, anatomy: HandshakeRecorder::default() }
    }

    /// The dispatched protocol, `None` until the first hello arrives.
    #[must_use]
    pub fn protocol(&self) -> Option<Protocol> {
        match self {
            ServerMachine::Undecided { .. } => None,
            ServerMachine::V3(_) => Some(Protocol::Ssl3),
            ServerMachine::T13(_) => Some(Protocol::Tls13),
        }
    }

    /// The negotiated cipher suite (meaningful once established).
    ///
    /// # Panics
    ///
    /// Panics if no client hello has been dispatched yet.
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        match self {
            ServerMachine::Undecided { .. } => panic!("no protocol dispatched yet"),
            ServerMachine::V3(m) => m.suite(),
            ServerMachine::T13(m) => m.suite(),
        }
    }

    /// True when the handshake resumed a cached SSLv3 session (always
    /// false for TLS 1.3, which has no resumption here).
    #[must_use]
    pub fn resumed(&self) -> bool {
        match self {
            ServerMachine::V3(m) => m.resumed(),
            _ => false,
        }
    }

    /// Record-layer symmetric-crypto cycles accumulated so far.
    #[must_use]
    pub fn record_crypto_cycles(&self) -> Cycles {
        match self {
            ServerMachine::Undecided { .. } => Cycles::ZERO,
            ServerMachine::V3(m) => m.record_crypto_cycles(),
            ServerMachine::T13(m) => m.record_crypto_cycles(),
        }
    }

    /// The dispatched machine's handshake anatomy.
    ///
    /// # Panics
    ///
    /// Panics if no client hello has been dispatched yet.
    #[must_use]
    pub fn ledger(&self) -> HandshakeLedger {
        match self {
            ServerMachine::Undecided { .. } => panic!("no protocol dispatched yet"),
            ServerMachine::V3(m) => m.ledger(),
            ServerMachine::T13(m) => m.ledger(),
        }
    }

    /// The allowed protocol whose version bytes a ClientHello message
    /// body carries.
    fn hello_protocol(config: &ServerConfig, msg: &[u8]) -> Result<Protocol, SslError> {
        if msg.len() < 6 || msg[0] != 1 {
            return Err(SslError::UnexpectedMessage { expected: "client hello" });
        }
        let (major, minor) = (msg[4], msg[5]);
        let mut allowed = config.protocols().iter().copied();
        allowed
            .find(|p| p.wire_version() == (major, minor))
            .ok_or(SslError::UnsupportedVersion { major, minor })
    }
}

impl Sealed for ServerMachine<'_> {
    fn recorder(&mut self) -> Option<&mut HandshakeRecorder> {
        match self {
            ServerMachine::Undecided { anatomy, .. } => Some(anatomy),
            ServerMachine::V3(m) => m.recorder(),
            ServerMachine::T13(m) => m.recorder(),
        }
    }
}

impl EngineDriven for ServerMachine<'_> {
    fn start(&mut self, _out: &mut Vec<u8>) -> Result<(), SslError> {
        Ok(())
    }

    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match self {
            ServerMachine::Undecided { config, rng, anatomy, .. } => {
                // The hello's open, already on `anatomy`'s clock, is the
                // chosen protocol's `get_client_hello`.
                let (config, rng, anatomy) = (*config, rng.clone(), std::mem::take(anatomy));
                let mut machine = match Self::hello_protocol(config, msg)? {
                    Protocol::Ssl3 => {
                        Self::V3(SslServer::with_recorder(config, rng, anatomy.waiting_in(1)))
                    }
                    Protocol::Tls13 => {
                        Self::T13(Tls13ServerMachine::with_recorder(config, rng, anatomy))
                    }
                };
                let step = machine.on_handshake_message(msg, out);
                *self = machine;
                step
            }
            ServerMachine::V3(m) => m.on_handshake_message(msg, out),
            ServerMachine::T13(m) => m.on_handshake_message(msg, out),
        }
    }

    fn complete_crypto(&mut self, done: CryptoDone, out: &mut Vec<u8>) -> Result<(), SslError> {
        match self {
            ServerMachine::Undecided { .. } => Err(SslError::NotReady("no crypto pending")),
            ServerMachine::V3(m) => m.complete_crypto(done, out),
            ServerMachine::T13(m) => m.complete_crypto(done, out),
        }
    }

    fn crypto_key(&self) -> Option<&RsaPrivateKey> {
        match self {
            ServerMachine::Undecided { .. } => None,
            ServerMachine::V3(m) => m.crypto_key(),
            ServerMachine::T13(m) => m.crypto_key(),
        }
    }

    fn on_change_cipher_spec(&mut self, body: &[u8]) -> Result<(), SslError> {
        match self {
            ServerMachine::Undecided { .. } => {
                Err(SslError::UnexpectedMessage { expected: "client hello" })
            }
            ServerMachine::V3(m) => m.on_change_cipher_spec(body),
            ServerMachine::T13(m) => m.on_change_cipher_spec(body),
        }
    }

    fn record_layer(&mut self) -> &mut RecordLayer {
        match self {
            ServerMachine::Undecided { layer, .. } => layer,
            ServerMachine::V3(m) => m.record_layer(),
            ServerMachine::T13(m) => m.record_layer(),
        }
    }

    fn handshake_done(&self) -> bool {
        match self {
            ServerMachine::Undecided { .. } => false,
            ServerMachine::V3(m) => m.handshake_done(),
            ServerMachine::T13(m) => m.handshake_done(),
        }
    }

    fn accepts_record_version(&self, major: u8, minor: u8) -> bool {
        match self {
            ServerMachine::Undecided { config, .. } => {
                config.protocols().iter().any(|p| p.wire_version() == (major, minor))
            }
            ServerMachine::V3(m) => m.accepts_record_version(major, minor),
            ServerMachine::T13(m) => m.accepts_record_version(major, minor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::test_support::server_config;

    fn dispatching_pair(
        protocol: Protocol,
    ) -> (Engine<ClientMachine>, Engine<ServerMachine<'static>>) {
        let config = server_config();
        let client_cfg = ClientConfig::new(protocol, CipherSuite::RsaDesCbc3Sha);
        let client = Engine::new(ClientMachine::new(client_cfg, SslRng::from_seed(b"disp-client")))
            .expect("client");
        let server = Engine::new(ServerMachine::new(config, SslRng::from_seed(b"disp-server")))
            .expect("server");
        (client, server)
    }

    fn shuttle(client: &mut Engine<ClientMachine>, server: &mut Engine<ServerMachine<'_>>) {
        let mut wire = [0u8; 4096];
        for _ in 0..32 {
            if client.is_established() && server.is_established() {
                return;
            }
            let n = client.take_output(&mut wire);
            server.feed(&wire[..n]).expect("server feed");
            let n = server.take_output(&mut wire);
            client.feed(&wire[..n]).expect("client feed");
        }
        panic!("handshake did not converge");
    }

    #[test]
    fn one_server_machine_type_serves_both_protocols() {
        for protocol in [Protocol::Ssl3, Protocol::Tls13] {
            let (mut client, mut server) = dispatching_pair(protocol);
            shuttle(&mut client, &mut server);
            assert!(server.is_established(), "{protocol}");
            assert_eq!(server.machine().protocol(), Some(protocol));
            let ledger = server.machine().ledger();
            assert_eq!(ledger.protocol, protocol);
            assert!(ledger.total.get() > 0);

            client.seal(b"ping").expect("seal");
            let bytes = client.output().to_vec();
            let n = bytes.len();
            client.consume_output(n);
            server.feed(&bytes).expect("feed");
            let range = server.open_next().expect("open").expect("record");
            assert_eq!(&server.buffered()[range], b"ping");
        }
    }

    #[test]
    fn disallowed_protocol_is_refused_at_the_record_layer() {
        let config = server_config();
        let restricted = ServerConfig::new(config.key().clone(), "v3.only").expect("config");
        let restricted = restricted.with_protocols(&[Protocol::Ssl3]);
        let mut server =
            Engine::new(ServerMachine::new(&restricted, SslRng::from_seed(b"disp-strict")))
                .expect("server");
        // A TLS 1.3 record header must be refused before any parsing.
        let err = server.feed(&[22, 3, 4, 0, 4, 1, 0, 0, 0]).expect_err("accepted 1.3 record");
        assert_eq!(err, SslError::UnsupportedVersion { major: 3, minor: 4 });
    }

    #[test]
    fn protocol_names_and_wire_versions() {
        assert_eq!(Protocol::Ssl3.name(), "SSLv3");
        assert_eq!(Protocol::Tls13.name(), "TLS1.3");
        assert_eq!(Protocol::Ssl3.wire_version(), (3, 0));
        assert_eq!(Protocol::Tls13.wire_version(), (3, 4));
        assert_eq!(Protocol::Tls13.to_string(), "TLS1.3");
    }
}
