//! The SSL v3 client state machine.
//!
//! The handshake logic lives in per-message handlers driven by the sans-io
//! [`Engine`](crate::Engine): wrap a client with `Engine::new`, which emits
//! the hello, and the engine does the rest.

use crate::engine::{EngineDriven, MachineStep};
use crate::kdf::{self, KeyMaterial};
use crate::messages::{HandshakeMessage, SessionId};
use crate::record::{ContentType, RecordLayer};
use crate::transcript::{Transcript, SENDER_CLIENT, SENDER_SERVER};
use crate::{CipherSuite, SslError, VERSION};
use sslperf_profile::Cycles;
use sslperf_rng::SslRng;
use sslperf_rsa::{x509::Certificate, RsaPublicKey};

/// A resumable session handle returned by [`SslClient::session`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSession {
    id: Vec<u8>,
    master: Vec<u8>,
    suite: CipherSuite,
    /// The server-issued session ticket, when the ticket extension was
    /// negotiated — the client-held alternative to the server's id cache.
    ticket: Option<Vec<u8>>,
}

impl ClientSession {
    /// The server-assigned session id.
    #[must_use]
    pub fn id(&self) -> &[u8] {
        &self.id
    }

    /// The suite the session was negotiated with.
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// The held session ticket, if the server issued one.
    #[must_use]
    pub fn ticket(&self) -> Option<&[u8]> {
        self.ticket.as_deref()
    }

    /// A copy of this session offering a different id — what a stale or
    /// tampered client would present. The server must treat it as a cache
    /// miss and fall back to a full handshake.
    #[must_use]
    pub fn with_id(&self, id: Vec<u8>) -> Self {
        ClientSession {
            id,
            master: self.master.clone(),
            suite: self.suite,
            ticket: self.ticket.clone(),
        }
    }

    /// A copy of this session holding a different ticket — what a
    /// tampered or stale ticket-holder would present.
    #[must_use]
    pub fn with_ticket(&self, ticket: Option<Vec<u8>>) -> Self {
        ClientSession {
            id: self.id.clone(),
            master: self.master.clone(),
            suite: self.suite,
            ticket,
        }
    }
}

/// Where the client is in the handshake, holding what is valid there:
/// the key the server certificate proved, the finished hashes expected
/// from the server, and `ticket`, the server hello's extension echo
/// announcing a NewSessionTicket flight ahead of the server's CCS. Every
/// input runs with `Failed` in place of the state it took, so a handler
/// that returns an error leaves the machine there.
// One state per connection: boxing the key would only add an
// allocation per handshake.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum State {
    Start,
    AwaitServerHello,
    AwaitCertificate { ticket: bool },
    AwaitServerHelloDone { server_key: RsaPublicKey, ticket: bool },
    AwaitServerCcs { ticket: bool },
    AwaitServerFinished { expected: ([u8; 16], [u8; 20]) },
    Established,
    Failed,
}

/// One client-side SSL connection over caller-owned buffers.
#[derive(Debug)]
pub struct SslClient {
    rng: SslRng,
    records: RecordLayer,
    transcript: Transcript,
    state: State,
    offered: Vec<CipherSuite>,
    suite: CipherSuite,
    client_random: [u8; 32],
    server_random: [u8; 32],
    session_id: Vec<u8>,
    master: Vec<u8>,
    resume: Option<ClientSession>,
    resumed: bool,
    /// True when the client advertises the session-ticket extension in its
    /// hello. Off by default: the legacy hello stays byte-identical.
    tickets_enabled: bool,
    /// The ticket received on this connection, exported via
    /// [`SslClient::session`].
    fresh_ticket: Option<Vec<u8>>,
    /// The connection's key block, derived once when the first cipher
    /// switches and dropped when the handshake completes.
    key_material: Option<KeyMaterial>,
}

impl SslClient {
    /// A client offering a single cipher suite.
    #[must_use]
    pub fn new(suite: CipherSuite, rng: SslRng) -> Self {
        Self::with_suites(vec![suite], rng)
    }

    /// A client offering several suites in preference order.
    ///
    /// # Panics
    ///
    /// Panics if `suites` is empty.
    #[must_use]
    pub fn with_suites(suites: Vec<CipherSuite>, rng: SslRng) -> Self {
        assert!(!suites.is_empty(), "client must offer at least one suite");
        SslClient {
            rng,
            records: RecordLayer::new(),
            transcript: Transcript::new(),
            state: State::Start,
            suite: suites[0],
            offered: suites,
            client_random: [0; 32],
            server_random: [0; 32],
            session_id: Vec::new(),
            master: Vec::new(),
            resume: None,
            resumed: false,
            tickets_enabled: false,
            fresh_ticket: None,
            key_material: None,
        }
    }

    /// Enables the session-ticket extension on this client's hello: the
    /// server (when its store supports tickets) answers a full handshake
    /// with a NewSessionTicket, and the exported [`SslClient::session`]
    /// carries the blob for stateless resumption.
    #[must_use]
    pub fn with_tickets(mut self) -> Self {
        self.tickets_enabled = true;
        self
    }

    /// A client that will attempt to resume `session` — through its ticket
    /// when it holds one (the extension re-enables itself), through the
    /// server's id cache otherwise.
    #[must_use]
    pub fn resuming(session: ClientSession, rng: SslRng) -> Self {
        let mut client = Self::new(session.suite, rng);
        client.tickets_enabled = session.ticket.is_some();
        client.resume = Some(session);
        client
    }

    /// The negotiated suite (meaningful once established).
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// True once the handshake completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        matches!(self.state, State::Established)
    }

    /// True when the server accepted session resumption.
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// A handle for resuming this session later (only once established).
    /// Carries the ticket issued on this connection, or — on a
    /// ticket-based resumption, where the server does not re-issue — the
    /// still-valid ticket that was presented.
    #[must_use]
    pub fn session(&self) -> Option<ClientSession> {
        if !self.is_established() {
            return None;
        }
        let ticket = self.fresh_ticket.clone().or_else(|| {
            if self.resumed {
                self.resume.as_ref().and_then(|s| s.ticket.clone())
            } else {
                None
            }
        });
        Some(ClientSession {
            id: self.session_id.clone(),
            master: self.master.clone(),
            suite: self.suite,
            ticket,
        })
    }

    fn start_hello(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        let State::Start = std::mem::replace(&mut self.state, State::Failed) else {
            return Err(SslError::UnexpectedMessage { expected: "nothing (bad state)" });
        };
        self.rng.fill_bytes(&mut self.client_random);
        let offered_id =
            self.resume.as_ref().map_or_else(SessionId::empty, |s| SessionId::new(s.id.clone()));
        // Extension data: absent entirely for legacy clients, empty to
        // advertise support, the held blob to offer a stateless resume.
        let ticket = self
            .tickets_enabled
            .then(|| self.resume.as_ref().and_then(|s| s.ticket.clone()).unwrap_or_default());
        let hello = HandshakeMessage::ClientHello {
            random: self.client_random,
            session_id: offered_id,
            suites: self.offered.iter().map(|s| s.wire_id()).collect(),
            ticket,
        }
        .encode();
        self.transcript.absorb(&hello);
        self.records.seal_append(ContentType::Handshake, &hello, out)?;
        self.state = State::AwaitServerHello;
        Ok(())
    }

    fn on_server_hello(&mut self, msg: &[u8]) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::ServerHello { random, session_id, suite, ticket } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "server hello" });
        };
        if ticket && !self.tickets_enabled {
            return Err(SslError::UnexpectedMessage { expected: "no ticket extension" });
        }
        self.server_random = random;
        self.suite = CipherSuite::from_wire_id(suite)?;
        if !self.offered.contains(&self.suite) {
            return Err(SslError::NoCommonCipher);
        }
        self.transcript.absorb(msg);
        // The server resumes by echoing the non-empty id this client offered.
        let resumed = self
            .resume
            .as_ref()
            .filter(|offer| !offer.id.is_empty() && offer.id.as_slice() == session_id.as_bytes());
        self.resumed = resumed.is_some();
        self.session_id = session_id.as_bytes().to_vec();
        if let Some(offer) = resumed {
            // Server sends CCS ‖ finished right away under the cached master.
            self.master.clone_from(&offer.master);
            self.state = State::AwaitServerCcs { ticket };
        } else {
            self.state = State::AwaitCertificate { ticket };
        }
        Ok(())
    }

    fn on_certificate(&mut self, msg: &[u8], ticket: bool) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::Certificate { cert } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "certificate" });
        };
        self.transcript.absorb(msg);
        let certificate = Certificate::from_bytes(&cert)?;
        let server_key = certificate.public_key()?;
        // Self-signed chain: verify the signature with the embedded key.
        certificate.verify(&server_key)?;
        self.state = State::AwaitServerHelloDone { server_key, ticket };
        Ok(())
    }

    fn on_server_hello_done(
        &mut self,
        msg: &[u8],
        server_key: &RsaPublicKey,
        ticket: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        if decoded != HandshakeMessage::ServerHelloDone {
            return Err(SslError::UnexpectedMessage { expected: "server hello done" });
        }
        self.transcript.absorb(msg);

        // Client key exchange: 48-byte pre-master = version ‖ 46 random,
        // encrypted to the key proven by the certificate we just verified.
        let mut pre_master = vec![VERSION.0, VERSION.1];
        pre_master.extend(self.rng.bytes(46));
        let encrypted = server_key.encrypt_pkcs1(&pre_master, &mut self.rng)?;
        let kx = HandshakeMessage::ClientKeyExchange { encrypted_pre_master: encrypted }.encode();
        self.transcript.absorb(&kx);
        self.records.seal_append(ContentType::Handshake, &kx, out)?;
        self.master = kdf::master_secret(&pre_master, &self.client_random, &self.server_random);

        self.send_ccs_and_finished(out)?;
        self.state = State::AwaitServerCcs { ticket };
        Ok(())
    }

    /// The NewSessionTicket flight, arriving in plaintext just before the
    /// server's CCS when the extension was negotiated on a full handshake.
    /// Deliberately *not* absorbed into the transcript (the server mirrors
    /// this), so the finished hashes are unaffected.
    fn on_new_session_ticket(&mut self, msg: &[u8]) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::NewSessionTicket { ticket, .. } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "new session ticket" });
        };
        self.fresh_ticket = Some(ticket);
        self.state = State::AwaitServerCcs { ticket: false };
        Ok(())
    }

    fn on_server_ccs(&mut self, body: &[u8]) -> Result<(), SslError> {
        if body != [1] {
            return Err(SslError::UnexpectedMessage { expected: "change cipher spec" });
        }
        let suite = self.suite;
        let km = self.key_material();
        let read = suite.new_cipher(&km.server_key, &km.server_iv)?;
        let mac_key = km.server_mac.clone();
        self.records.activate_read(read, suite.mac_alg(), mac_key);
        // The server's finished covers the transcript as it stands now: ours
        // included on a full handshake, the hellos alone on a resumed one.
        let expected = self.transcript.finished_hashes(&SENDER_SERVER, &self.master);
        self.state = State::AwaitServerFinished { expected };
        Ok(())
    }

    fn on_server_finished(
        &mut self,
        msg: &[u8],
        expected: ([u8; 16], [u8; 20]),
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::Finished { md5_hash, sha_hash } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "server finished" });
        };
        if (md5_hash, sha_hash) != expected {
            return Err(SslError::BadFinished);
        }
        self.transcript.absorb(msg);
        if self.resumed {
            // Abbreviated handshake: the client answers CCS ‖ finished.
            self.send_ccs_and_finished(out)?;
        }
        self.key_material = None;
        self.state = State::Established;
        Ok(())
    }

    /// The connection's key block, derived on first use: by the client's
    /// cipher switch on a full handshake, by the server's on a resumed one.
    fn key_material(&mut self) -> &KeyMaterial {
        let suite = self.suite;
        self.key_material.get_or_insert_with(|| {
            let block = kdf::key_block(
                &self.master,
                &self.server_random,
                &self.client_random,
                suite.key_block_len(),
            );
            KeyMaterial::parse(
                &block,
                suite.mac_alg().output_len(),
                suite.key_len(),
                suite.iv_len(),
            )
        })
    }

    fn send_ccs_and_finished(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        self.records.seal_append(ContentType::ChangeCipherSpec, &[1], out)?;
        let suite = self.suite;
        let km = self.key_material();
        let write = suite.new_cipher(&km.client_key, &km.client_iv)?;
        let mac_key = km.client_mac.clone();
        self.records.activate_write(write, suite.mac_alg(), mac_key);
        let (md5_hash, sha_hash) = self.transcript.finished_hashes(&SENDER_CLIENT, &self.master);
        let fin = HandshakeMessage::Finished { md5_hash, sha_hash }.encode();
        self.transcript.absorb(&fin);
        self.records.seal_append(ContentType::Handshake, &fin, out)
    }
}

impl EngineDriven for SslClient {
    fn start(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        self.start_hello(out)
    }

    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        _open_cycles: Cycles,
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match std::mem::replace(&mut self.state, State::Failed) {
            State::AwaitServerHello => self.on_server_hello(msg),
            State::AwaitCertificate { ticket } => self.on_certificate(msg, ticket),
            State::AwaitServerHelloDone { server_key, ticket } => {
                self.on_server_hello_done(msg, &server_key, ticket, out)
            }
            State::AwaitServerFinished { expected } => self.on_server_finished(msg, expected, out),
            State::AwaitServerCcs { ticket: true } => self.on_new_session_ticket(msg),
            State::Start | State::AwaitServerCcs { ticket: false } | State::Established => {
                Err(SslError::UnexpectedMessage { expected: "change cipher spec" })
            }
            State::Failed => Err(SslError::NotReady("handshake not in progress")),
        }?;
        Ok(MachineStep::Continue)
    }

    fn on_change_cipher_spec(&mut self, body: &[u8], _open_cycles: Cycles) -> Result<(), SslError> {
        match std::mem::replace(&mut self.state, State::Failed) {
            State::AwaitServerCcs { ticket: false } => self.on_server_ccs(body),
            // RFC 5077: an announced NewSessionTicket comes before the CCS.
            State::AwaitServerCcs { ticket: true } => {
                Err(SslError::UnexpectedMessage { expected: "new session ticket" })
            }
            _ => Err(SslError::UnexpectedMessage { expected: "handshake message" }),
        }
    }

    fn record_layer(&mut self) -> &mut RecordLayer {
        &mut self.records
    }

    fn handshake_done(&self) -> bool {
        matches!(self.state, State::Established)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    #[should_panic(expected = "at least one suite")]
    fn empty_suite_list_panics() {
        let _ = SslClient::with_suites(vec![], SslRng::from_seed(b"x"));
    }

    #[test]
    fn out_of_order_calls_rejected() {
        let client = SslClient::new(CipherSuite::RsaRc4Md5, SslRng::from_seed(b"c"));
        assert!(client.session().is_none(), "no session before establishment");
        let mut engine = Engine::new(client).unwrap();
        assert_eq!(engine.seal(b"x"), Err(SslError::NotReady("handshake incomplete")));
        assert_eq!(engine.open_next(), Err(SslError::NotReady("handshake incomplete")));
        // The hello is sent once: a client that already sent it cannot
        // open another connection.
        assert!(Engine::new(engine.into_machine()).is_err(), "hello twice");
    }

    #[test]
    fn client_randoms_differ_between_connections() {
        let hello = |seed: &[u8]| {
            let client = SslClient::new(CipherSuite::RsaRc4Md5, SslRng::from_seed(seed));
            Engine::new(client).unwrap().output().to_vec()
        };
        assert_ne!(hello(b"one"), hello(b"two"));
    }
}
