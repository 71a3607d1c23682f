//! The SSL v3 client state machine.
//!
//! The handshake logic lives in per-message handlers driven by the sans-io
//! [`Engine`](crate::Engine); the flight-based `process_*` methods and the
//! blocking [`SslClient::handshake_transport`] driver are thin wrappers
//! over it, producing byte-identical wire traffic.

use crate::engine::{Engine, EngineDriven, MachineStep};
use crate::kdf::{self, KeyMaterial};
use crate::messages::{HandshakeMessage, SessionId};
use crate::record::{ContentType, RecordBuffer, RecordLayer};
use crate::transcript::{Transcript, SENDER_CLIENT, SENDER_SERVER};
use crate::transport::{read_record_into, Transport};
use crate::{CipherSuite, SslError, VERSION};
use sslperf_profile::Cycles;
use sslperf_rng::SslRng;
use sslperf_rsa::{x509::Certificate, RsaPublicKey};
use std::ops::Range;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    AwaitServerHello,
    AwaitCertificate,
    AwaitServerHelloDone,
    AwaitServerCcs,
    AwaitServerFinished,
    Established,
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
    expected_server_finished: Option<([u8; 16], [u8; 20])>,
    /// The verified key from the server certificate, held between the
    /// certificate and hello-done messages of a full handshake.
    server_key: Option<RsaPublicKey>,
    /// True when the client advertises the session-ticket extension in its
    /// hello. Off by default: the legacy hello stays byte-identical.
    tickets_enabled: bool,
    /// Set by the server hello's extension echo: a NewSessionTicket flight
    /// precedes the server's CCS.
    expect_ticket: bool,
    /// The ticket received on this connection, exported via
    /// [`SslClient::session`].
    fresh_ticket: Option<Vec<u8>>,
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
            expected_server_finished: None,
            server_key: None,
            tickets_enabled: false,
            expect_ticket: false,
            fresh_ticket: None,
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
        self.state == State::Established
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
        if self.state != State::Established {
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

    /// Produces the client hello flight.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::UnexpectedMessage`] if called twice.
    pub fn hello(&mut self) -> Result<Vec<u8>, SslError> {
        let mut out = Vec::new();
        self.start_hello(&mut out)?;
        Ok(out)
    }

    fn start_hello(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        if self.state != State::Start {
            return Err(SslError::UnexpectedMessage { expected: "nothing (bad state)" });
        }
        let random = self.rng.bytes(32);
        self.client_random.copy_from_slice(&random);
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

    /// Processes the server's reply to the hello.
    ///
    /// For a full handshake (hello ‖ certificate ‖ done) the reply is
    /// key-exchange ‖ change-cipher-spec ‖ finished, and
    /// [`SslClient::process_server_finish`] must follow. When the server
    /// resumed (hello ‖ CCS ‖ finished), the reply is the client's
    /// CCS ‖ finished and the connection is established on return.
    ///
    /// # Errors
    ///
    /// Returns decode, RSA, certificate or sequencing errors.
    pub fn process_server_flight(&mut self, flight: &[u8]) -> Result<Vec<u8>, SslError> {
        if self.state != State::AwaitServerHello {
            return Err(SslError::UnexpectedMessage { expected: "nothing (bad state)" });
        }
        let out = {
            let mut engine = Engine::attach(&mut *self);
            engine.feed_flight(flight)?;
            engine.drain_output()
        };
        match self.state {
            // Full handshake paused awaiting the server's CCS ‖ finished,
            // or resumed handshake complete — both are full flights.
            State::AwaitServerCcs | State::Established => Ok(out),
            _ => Err(SslError::Decode("record header")),
        }
    }

    /// Processes the server's final CCS ‖ finished flight of a full
    /// handshake.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::BadFinished`] on a transcript mismatch.
    pub fn process_server_finish(&mut self, flight: &[u8]) -> Result<(), SslError> {
        // Only valid mid-full-handshake: the client flight was sent (which
        // sets the expectation) and the server's CCS is still pending.
        if self.state != State::AwaitServerCcs || self.expected_server_finished.is_none() {
            return Err(SslError::UnexpectedMessage { expected: "nothing (bad state)" });
        }
        {
            let mut engine = Engine::attach(&mut *self);
            engine.feed_flight(flight)?;
        }
        if self.state != State::Established {
            return Err(SslError::Decode("record header"));
        }
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
        self.expect_ticket = ticket;
        self.server_random = random;
        self.suite = CipherSuite::from_wire_id(suite)?;
        if !self.offered.contains(&self.suite) {
            return Err(SslError::NoCommonCipher);
        }
        self.transcript.absorb(msg);
        let offered = self.resume.as_ref().map(|s| s.id.clone()).unwrap_or_default();
        self.resumed = !offered.is_empty() && offered == session_id.as_bytes();
        self.session_id = session_id.as_bytes().to_vec();
        if self.resumed {
            // Server sends CCS ‖ finished right away under the cached master.
            self.master = self.resume.clone().expect("resumed implies offer").master;
            self.state = State::AwaitServerCcs;
        } else {
            self.state = State::AwaitCertificate;
        }
        Ok(())
    }

    fn on_certificate(&mut self, msg: &[u8]) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::Certificate { cert } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "certificate" });
        };
        self.transcript.absorb(msg);
        let certificate = Certificate::from_bytes(&cert)?;
        let server_key = certificate.public_key()?;
        // Self-signed chain: verify the signature with the embedded key.
        certificate.verify(&server_key)?;
        self.server_key = Some(server_key);
        self.state = State::AwaitServerHelloDone;
        Ok(())
    }

    fn on_server_hello_done(&mut self, msg: &[u8], out: &mut Vec<u8>) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        if decoded != HandshakeMessage::ServerHelloDone {
            return Err(SslError::UnexpectedMessage { expected: "server hello done" });
        }
        self.transcript.absorb(msg);

        // Client key exchange: 48-byte pre-master = version ‖ 46 random,
        // encrypted to the key proven by the certificate we just verified.
        let server_key = self.server_key.take().expect("certificate precedes hello done");
        let mut pre_master = vec![VERSION.0, VERSION.1];
        pre_master.extend(self.rng.bytes(46));
        let encrypted = server_key.encrypt_pkcs1(&pre_master, &mut self.rng)?;
        let kx = HandshakeMessage::ClientKeyExchange { encrypted_pre_master: encrypted }.encode();
        self.transcript.absorb(&kx);
        self.records.seal_append(ContentType::Handshake, &kx, out)?;
        self.master = kdf::master_secret(&pre_master, &self.client_random, &self.server_random);

        self.send_ccs_and_finished(out)?;
        self.state = State::AwaitServerCcs;
        Ok(())
    }

    /// The NewSessionTicket flight, arriving in plaintext just before the
    /// server's CCS when the extension was negotiated on a full handshake.
    /// Deliberately *not* absorbed into the transcript (the server mirrors
    /// this), so the finished hashes are unaffected.
    fn on_new_session_ticket(&mut self, msg: &[u8]) -> Result<(), SslError> {
        if !self.expect_ticket {
            return Err(SslError::UnexpectedMessage { expected: "change cipher spec" });
        }
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::NewSessionTicket { ticket, .. } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "new session ticket" });
        };
        self.fresh_ticket = Some(ticket);
        self.expect_ticket = false;
        Ok(())
    }

    fn on_server_ccs(&mut self, body: &[u8]) -> Result<(), SslError> {
        if body != [1] {
            return Err(SslError::UnexpectedMessage { expected: "change cipher spec" });
        }
        let km = self.key_material();
        let read = self.suite.new_cipher(&km.server_key, &km.server_iv)?;
        self.records.activate_read(read, self.suite.mac_alg(), km.server_mac.clone());
        // In the resumed flow the server finishes first: expectation is the
        // transcript as it stands now.
        let expected = self
            .expected_server_finished
            .take()
            .unwrap_or_else(|| self.transcript.finished_hashes(&SENDER_SERVER, &self.master));
        self.expected_server_finished = Some(expected);
        self.state = State::AwaitServerFinished;
        Ok(())
    }

    fn on_server_finished(&mut self, msg: &[u8], out: &mut Vec<u8>) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::Finished { md5_hash, sha_hash } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "server finished" });
        };
        let expected = self.expected_server_finished.take().expect("set at CCS");
        if (md5_hash, sha_hash) != expected {
            return Err(SslError::BadFinished);
        }
        self.transcript.absorb(msg);
        if self.resumed {
            // Abbreviated handshake: the client answers CCS ‖ finished.
            self.send_ccs_and_finished(out)?;
        }
        self.state = State::Established;
        Ok(())
    }

    fn key_material(&self) -> KeyMaterial {
        let block = kdf::key_block(
            &self.master,
            &self.server_random,
            &self.client_random,
            self.suite.key_block_len(),
        );
        KeyMaterial::parse(
            &block,
            self.suite.mac_alg().output_len(),
            self.suite.key_len(),
            self.suite.iv_len(),
        )
    }

    fn send_ccs_and_finished(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        self.records.seal_append(ContentType::ChangeCipherSpec, &[1], out)?;
        let km = self.key_material();
        let write = self.suite.new_cipher(&km.client_key, &km.client_iv)?;
        self.records.activate_write(write, self.suite.mac_alg(), km.client_mac.clone());
        let (md5_hash, sha_hash) = self.transcript.finished_hashes(&SENDER_CLIENT, &self.master);
        let fin = HandshakeMessage::Finished { md5_hash, sha_hash }.encode();
        self.transcript.absorb(&fin);
        self.records.seal_append(ContentType::Handshake, &fin, out)?;
        // The server's finished covers the transcript including ours (full
        // handshake ordering).
        self.expected_server_finished =
            Some(self.transcript.finished_hashes(&SENDER_SERVER, &self.master));
        Ok(())
    }

    /// Encrypts application data into a reusable [`RecordBuffer`] without
    /// allocating (bulk-data phase, zero-copy path).
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] before the handshake completes.
    pub fn seal_into(&mut self, data: &[u8], out: &mut RecordBuffer) -> Result<(), SslError> {
        if self.state != State::Established {
            return Err(SslError::NotReady("handshake incomplete"));
        }
        self.records.seal_into(ContentType::ApplicationData, data, out)
    }

    /// Decrypts the single application-data record in `buf` in place,
    /// returning the range of `buf` holding the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] before the handshake completes,
    /// [`SslError::PeerAlert`] when the peer closed the session, or
    /// record-layer errors.
    pub fn open_in_place(&mut self, buf: &mut RecordBuffer) -> Result<Range<usize>, SslError> {
        if self.state != State::Established {
            return Err(SslError::NotReady("handshake incomplete"));
        }
        match self.records.open_in_place(buf)? {
            (ContentType::ApplicationData, range) => Ok(range),
            (ContentType::Alert, range) => {
                Err(SslError::PeerAlert(crate::alert::Alert::from_bytes(&buf.as_slice()[range])?))
            }
            _ => Err(SslError::UnexpectedMessage { expected: "application data" }),
        }
    }

    /// Ends the session with a `close_notify` alert record (the "End
    /// Session" arrow of the paper's Figure 1).
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] before the handshake completes.
    pub fn close(&mut self) -> Result<Vec<u8>, SslError> {
        if self.state != State::Established {
            return Err(SslError::NotReady("handshake incomplete"));
        }
        self.seal_alert(&crate::alert::Alert::close_notify())
    }

    /// Seals an alert record in whatever cipher state the connection is in
    /// — usable mid-handshake, so error paths can say why they are closing.
    ///
    /// # Errors
    ///
    /// Propagates record-layer failures.
    pub fn seal_alert(&mut self, alert: &crate::alert::Alert) -> Result<Vec<u8>, SslError> {
        let mut out = Vec::new();
        self.records.seal_append(ContentType::Alert, &alert.to_bytes(), &mut out)?;
        Ok(out)
    }

    /// Drives the whole client side of the handshake over a
    /// [`Transport`], attempting resumption when constructed with
    /// [`SslClient::resuming`]: one sans-io [`Engine`] fed one record per
    /// read, with replies flushed as soon as they are complete.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] on transport failures plus every error the
    /// flight-based methods can return.
    pub fn handshake_transport<T: Transport>(&mut self, transport: &mut T) -> Result<(), SslError> {
        let mut buf = RecordBuffer::new();
        let mut engine = Engine::new(&mut *self)?;
        engine.flush_to(transport)?;
        while !engine.is_established() {
            read_record_into(transport, &mut buf)?;
            engine.feed(buf.as_slice())?;
            engine.flush_to(transport)?;
        }
        Ok(())
    }

    /// Seals application data into the caller's [`RecordBuffer`] and writes
    /// the records to the transport — the zero-allocation send path when
    /// `buf` is reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] before the handshake completes and
    /// [`SslError::Io`] on transport failures.
    pub fn send_buffered<T: Transport>(
        &mut self,
        transport: &mut T,
        data: &[u8],
        buf: &mut RecordBuffer,
    ) -> Result<(), SslError> {
        self.seal_into(data, buf)?;
        transport.send(buf.as_slice())
    }

    /// Reads one record into the caller's [`RecordBuffer`], decrypts it in
    /// place and returns the plaintext range — the zero-allocation receive
    /// path when `buf` is reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::PeerAlert`] when the peer closed the session,
    /// [`SslError::Io`] on transport failures, or record-layer errors.
    pub fn recv_buffered<T: Transport>(
        &mut self,
        transport: &mut T,
        buf: &mut RecordBuffer,
    ) -> Result<Range<usize>, SslError> {
        read_record_into(transport, buf)?;
        self.open_in_place(buf)
    }

    /// Sends the `close_notify` alert over the transport.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] before the handshake completes and
    /// [`SslError::Io`] on transport failures.
    pub fn close_transport<T: Transport>(&mut self, transport: &mut T) -> Result<(), SslError> {
        let wire = self.close()?;
        transport.send(&wire)
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
        match self.state {
            State::AwaitServerHello => self.on_server_hello(msg),
            State::AwaitCertificate => self.on_certificate(msg),
            State::AwaitServerHelloDone => self.on_server_hello_done(msg, out),
            State::AwaitServerFinished => self.on_server_finished(msg, out),
            State::AwaitServerCcs => self.on_new_session_ticket(msg),
            State::Start | State::Established => {
                Err(SslError::UnexpectedMessage { expected: "change cipher spec" })
            }
        }?;
        Ok(MachineStep::Continue)
    }

    fn on_change_cipher_spec(&mut self, body: &[u8], _open_cycles: Cycles) -> Result<(), SslError> {
        if self.state != State::AwaitServerCcs {
            return Err(SslError::UnexpectedMessage { expected: "handshake message" });
        }
        self.on_server_ccs(body)
    }

    fn record_layer(&mut self) -> &mut RecordLayer {
        &mut self.records
    }

    fn handshake_done(&self) -> bool {
        self.state == State::Established
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one suite")]
    fn empty_suite_list_panics() {
        let _ = SslClient::with_suites(vec![], SslRng::from_seed(b"x"));
    }

    #[test]
    fn out_of_order_calls_rejected() {
        let mut client = SslClient::new(CipherSuite::RsaRc4Md5, SslRng::from_seed(b"c"));
        assert!(client.process_server_flight(&[]).is_err());
        assert!(client.process_server_finish(&[]).is_err());
        assert!(client.seal_into(b"x", &mut RecordBuffer::new()).is_err());
        let _ = client.hello().unwrap();
        assert!(client.hello().is_err(), "hello twice");
        assert!(client.session().is_none(), "no session before establishment");
    }

    #[test]
    fn client_randoms_differ_between_connections() {
        let mut c1 = SslClient::new(CipherSuite::RsaRc4Md5, SslRng::from_seed(b"one"));
        let mut c2 = SslClient::new(CipherSuite::RsaRc4Md5, SslRng::from_seed(b"two"));
        let h1 = c1.hello().unwrap();
        let h2 = c2.hello().unwrap();
        assert_ne!(h1, h2);
    }
}
