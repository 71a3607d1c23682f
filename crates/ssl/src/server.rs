//! The instrumented SSL v3 server, partitioned into the paper's ten steps.
//!
//! The handshake logic lives in per-message handlers driven by the sans-io
//! [`Engine`](crate::Engine). Step timing survives the split: the engine
//! reports the cycles it spent opening each record, and the handlers fold
//! them into the step the record belongs to, so a step that spans several
//! feeds (e.g. step 6's CCS + finished) still lands in
//! [`SslServer::steps`] as one entry, whether the bytes came as whole
//! flights or one at a time.

use crate::cache::{
    CachedSession, CachedSessionStore, IssuedTicket, SessionCache, SessionStore, SimpleSessionCache,
};
use crate::engine::{CryptoDone, CryptoJob, CryptoOp, CryptoOutput, EngineDriven, MachineStep};
use crate::kdf::{self, KeyMaterial};
use crate::ledger::{HandshakeLedger, HandshakeRecorder};
use crate::machine::Protocol;
use crate::messages::{HandshakeMessage, SessionId};
use crate::record::{ContentType, RecordLayer};
use crate::ticket::TicketError;
use crate::transcript::{Transcript, SENDER_CLIENT, SENDER_SERVER};
use crate::{CipherSuite, SslError};
use sslperf_profile::{measure, Cycles, PhaseSet, Stopwatch};
use sslperf_rng::SslRng;
use sslperf_rsa::{x509::Certificate, RsaPrivateKey};

/// The ten server-side handshake steps of the paper's Table 2.
pub const SERVER_STEP_NAMES: [&str; 10] = [
    "init",
    "get_client_hello",
    "send_server_hello",
    "send_server_cert",
    "send_server_done",
    "get_client_kx",
    "get_finished",
    "send_cipher_spec",
    "send_finished",
    "server_flush",
];

/// Long-lived server configuration: the RSA key, the certificate, and the
/// session store shared by every connection (session re-negotiation is the
/// optimization §4.1 highlights; the store decides whether resumable state
/// lives in an id-keyed cache, a stateless ticket, or both).
#[derive(Debug)]
pub struct ServerConfig {
    key: RsaPrivateKey,
    cert_wire: Vec<u8>,
    store: Box<dyn SessionStore>,
    protocols: Vec<Protocol>,
}

impl ServerConfig {
    /// Builds a configuration with a fresh self-signed certificate and the
    /// default single-lock [`SimpleSessionCache`].
    ///
    /// # Errors
    ///
    /// Propagates certificate-signing failures.
    pub fn new(key: RsaPrivateKey, name: &str) -> Result<Self, SslError> {
        Self::with_cache(key, name, Box::new(SimpleSessionCache::new()))
    }

    /// Builds a configuration with a caller-supplied session cache (e.g. a
    /// sharded, bounded one for a multi-threaded serving layer), wrapped as
    /// an id-only [`SessionStore`].
    ///
    /// # Errors
    ///
    /// Propagates certificate-signing failures.
    pub fn with_cache(
        key: RsaPrivateKey,
        name: &str,
        cache: Box<dyn SessionCache>,
    ) -> Result<Self, SslError> {
        Self::with_store(key, name, Box::new(CachedSessionStore::new(cache)))
    }

    /// Builds a configuration with a caller-supplied session store — the
    /// full abstraction, including ticket issue/accept (e.g.
    /// [`TicketSessionStore`](crate::ticket::TicketSessionStore)).
    ///
    /// # Errors
    ///
    /// Propagates certificate-signing failures.
    pub fn with_store(
        key: RsaPrivateKey,
        name: &str,
        store: Box<dyn SessionStore>,
    ) -> Result<Self, SslError> {
        let cert = Certificate::self_signed(name, &key, 2004, 2010)?;
        Ok(ServerConfig {
            key,
            cert_wire: cert.to_bytes(),
            store,
            protocols: vec![Protocol::Ssl3, Protocol::Tls13],
        })
    }

    /// Restricts which protocol machines this configuration serves (both
    /// are enabled by default). The dispatching
    /// [`ServerMachine`](crate::ServerMachine) refuses hellos for
    /// protocols not listed here.
    #[must_use]
    pub fn with_protocols(mut self, protocols: &[Protocol]) -> Self {
        self.protocols = protocols.to_vec();
        self
    }

    /// The protocols this configuration serves.
    #[must_use]
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The server certificate's wire encoding.
    pub(crate) fn cert_wire(&self) -> &[u8] {
        &self.cert_wire
    }

    /// The server's private key.
    #[must_use]
    pub fn key(&self) -> &RsaPrivateKey {
        &self.key
    }

    /// The installed session store.
    #[must_use]
    pub fn session_store(&self) -> &dyn SessionStore {
        self.store.as_ref()
    }

    /// Number of cached (resumable) sessions held server-side.
    #[must_use]
    pub fn cached_sessions(&self) -> usize {
        self.store.len()
    }

    /// Drops all cached sessions (forces full handshakes for id-cache
    /// peers; outstanding tickets stay valid).
    pub fn clear_session_cache(&self) {
        self.store.clear();
    }

    /// True when the store can seal and open session tickets.
    #[must_use]
    pub fn supports_tickets(&self) -> bool {
        self.store.supports_tickets()
    }

    fn lookup(&self, id: &[u8]) -> Option<CachedSession> {
        self.store.lookup(id)
    }

    fn store(&self, id: Vec<u8>, master: Vec<u8>, suite: CipherSuite) {
        self.store.store(id, CachedSession { master, suite });
    }

    fn issue_ticket(&self, session: &CachedSession) -> Option<IssuedTicket> {
        self.store.issue_ticket(session)
    }

    fn accept_ticket(&self, ticket: &[u8]) -> Result<CachedSession, TicketError> {
        self.store.accept_ticket(ticket)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitClientHello,
    AwaitClientKx,
    /// Suspended mid-step-5, waiting for the executed [`CryptoJob`]'s
    /// result.
    AwaitKxCrypto,
    AwaitClientCcs,
    AwaitClientFinished,
    Established,
}

/// One server-side SSL connection.
///
/// Construction is the paper's step 0 (*Init*); the
/// [`Engine`](crate::Engine) feeds that drive it cover steps 1–9. Every
/// step's wall time lands in [`SslServer::steps`] and every crypto call in
/// [`SslServer::crypto`] / [`SslServer::crypto_detail`].
#[derive(Debug)]
pub struct SslServer<'a> {
    config: &'a ServerConfig,
    rng: SslRng,
    records: RecordLayer,
    transcript: Transcript,
    state: State,
    suite: CipherSuite,
    client_random: [u8; 32],
    server_random: [u8; 32],
    session_id: Vec<u8>,
    master: Vec<u8>,
    resumed: bool,
    /// True when the client advertised the session-ticket extension and
    /// the store can honor it — the connection is stateless: no id-cache
    /// lookup or store, resumption only through tickets.
    ticket_negotiated: bool,
    ticket_issued: bool,
    ticket_accepted: bool,
    ticket_rejected: bool,
    ticket_expired: bool,
    /// Client finished hashes computed ahead of reading the message.
    expected_client_finished: Option<([u8; 16], [u8; 20])>,
    key_material: Option<KeyMaterial>,
    /// Step 6 (`get_finished`) spans two records (CCS then finished), which
    /// an event-driven driver may deliver in separate readiness events;
    /// the partial timing accumulates here until the step completes.
    step6: Cycles,
    anatomy: HandshakeRecorder,
}

impl<'a> SslServer<'a> {
    /// Creates a connection (Table 2 step 0: initialize states and
    /// variables, `init_finished_mac`).
    #[must_use]
    pub fn new(config: &'a ServerConfig, rng: SslRng) -> Self {
        let sw = Stopwatch::start();
        let (transcript, init_cycles) = measure(Transcript::new);
        let mut server = SslServer {
            config,
            rng,
            records: RecordLayer::new(),
            transcript,
            state: State::AwaitClientHello,
            suite: CipherSuite::RsaDesCbc3Sha,
            client_random: [0; 32],
            server_random: [0; 32],
            session_id: Vec::new(),
            master: Vec::new(),
            resumed: false,
            ticket_negotiated: false,
            ticket_issued: false,
            ticket_accepted: false,
            ticket_rejected: false,
            ticket_expired: false,
            expected_client_finished: None,
            key_material: None,
            step6: Cycles::ZERO,
            anatomy: HandshakeRecorder::new(Protocol::Ssl3),
        };
        server.anatomy.note(0, "init_finished_mac", init_cycles);
        server.anatomy.step(0, sw.elapsed());
        server
    }

    /// Per-step latency (Table 2's latency column).
    #[must_use]
    pub fn steps(&self) -> &PhaseSet {
        self.anatomy.steps()
    }

    /// Per-crypto-function latency, aggregated over the handshake.
    #[must_use]
    pub fn crypto(&self) -> &PhaseSet {
        self.anatomy.crypto()
    }

    /// `(step index, crypto function, cycles)` triples in call order
    /// (Table 2's right-hand columns).
    #[must_use]
    pub fn crypto_detail(&self) -> &[(usize, &'static str, Cycles)] {
        self.anatomy.crypto_detail()
    }

    /// Record-layer symmetric-crypto cycles (cipher + MAC) accumulated over
    /// the connection's lifetime, including the bulk-data phase.
    #[must_use]
    pub fn record_crypto(&self) -> PhaseSet {
        self.records.crypto_phases()
    }

    /// Total of [`SslServer::record_crypto`] without allocating — safe to
    /// read per record, which is how the serving layer attributes bulk
    /// crypto cycles as a running delta.
    #[must_use]
    pub fn record_crypto_cycles(&self) -> Cycles {
        self.records.crypto_total()
    }

    /// Exports this connection's handshake anatomy in the paper's shape:
    /// the ten step latencies of Table 2 in order, the crypto totals of
    /// Table 3, and step 5's offload split. Meaningful once the handshake
    /// is established; a live metrics layer feeds one of these per
    /// connection into its aggregate histograms.
    #[must_use]
    pub fn ledger(&self) -> HandshakeLedger {
        HandshakeLedger {
            ticket_issued: self.ticket_issued,
            ticket_accepted: self.ticket_accepted,
            ticket_rejected: self.ticket_rejected,
            ticket_expired: self.ticket_expired,
            ..self.anatomy.ledger(self.resumed)
        }
    }

    /// The negotiated cipher suite.
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// True once the handshake completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// True when this connection resumed a cached session.
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// True when the session-ticket extension was negotiated on this
    /// connection (the client advertised it and the store supports it).
    #[must_use]
    pub fn ticket_negotiated(&self) -> bool {
        self.ticket_negotiated
    }

    /// True when this handshake issued a NewSessionTicket.
    #[must_use]
    pub fn ticket_issued(&self) -> bool {
        self.ticket_issued
    }

    /// True when this handshake resumed from a client-presented ticket.
    #[must_use]
    pub fn ticket_accepted(&self) -> bool {
        self.ticket_accepted
    }

    /// True when a presented ticket was rejected as tampered or unknown.
    #[must_use]
    pub fn ticket_rejected(&self) -> bool {
        self.ticket_rejected
    }

    /// True when a presented ticket was rejected as expired.
    #[must_use]
    pub fn ticket_expired(&self) -> bool {
        self.ticket_expired
    }

    /// Steps 1–4, driven by one reassembled client-hello message.
    fn on_client_hello(
        &mut self,
        msg: &[u8],
        open_cycles: Cycles,
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        // Step 1: get_client_hello (record opening measured by the engine).
        let sw = Stopwatch::start();
        let (decoded, consumed) = HandshakeMessage::decode(msg)?;
        if consumed != msg.len() {
            return Err(SslError::Decode("extra bytes after client hello"));
        }
        let HandshakeMessage::ClientHello { random, session_id, suites, ticket } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "client hello" });
        };
        self.client_random = random;
        // Choose the first server-preferred suite the client offers.
        let chosen = CipherSuite::ALL
            .into_iter()
            .find(|s| suites.contains(&s.wire_id()))
            .ok_or(SslError::NoCommonCipher)?;
        // Ticket negotiation: the client advertised the extension and the
        // store can seal/open tickets. Negotiated connections are
        // stateless — the id cache is never consulted or written.
        self.ticket_negotiated = ticket.is_some() && self.config.supports_tickets();
        let cached = if self.ticket_negotiated {
            // A non-empty blob is an offer to resume; any failure falls
            // back silently to a full handshake (no alert oracle).
            match ticket.as_deref() {
                Some(blob) if !blob.is_empty() && !session_id.is_empty() => {
                    let opened =
                        self.anatomy.time(1, "ticket_open", || self.config.accept_ticket(blob));
                    match opened {
                        Ok(session) => {
                            self.ticket_accepted = true;
                            Some(session)
                        }
                        Err(TicketError::Expired) => {
                            self.ticket_expired = true;
                            None
                        }
                        Err(TicketError::Invalid) => {
                            self.ticket_rejected = true;
                            None
                        }
                    }
                }
                _ => None,
            }
        } else {
            self.config.lookup(session_id.as_bytes())
        };
        if let Some(cached) = &cached {
            self.resumed = true;
            self.suite = cached.suite;
            self.master.clone_from(&cached.master);
            self.session_id = session_id.as_bytes().to_vec();
        } else {
            self.suite = chosen;
            let sid = self.anatomy.time(1, "rand_pseudo_bytes", || self.rng.bytes(32));
            self.session_id = sid;
        }
        self.anatomy.time(1, "finish_mac", || self.transcript.absorb(msg));
        self.anatomy.step(1, sw.elapsed() + open_cycles);

        // Step 2: send_server_hello.
        let sw = Stopwatch::start();
        let random = self.anatomy.time(2, "rand_pseudo_bytes", || self.rng.bytes(32));
        self.server_random.copy_from_slice(&random);
        let hello = HandshakeMessage::ServerHello {
            random: self.server_random,
            session_id: SessionId::new(self.session_id.clone()),
            suite: self.suite.wire_id(),
            // An empty extension echo announces a NewSessionTicket flight;
            // ticket-resumed handshakes reuse the client-held ticket as is.
            ticket: self.ticket_negotiated && !self.resumed,
        }
        .encode();
        self.anatomy.time(2, "finish_mac", || self.transcript.absorb(&hello));
        self.records.seal_append(ContentType::Handshake, &hello, out)?;
        self.anatomy.step(2, sw.elapsed());

        if self.resumed {
            // Abbreviated handshake: CCS + finished immediately.
            let finished = self.send_ccs_and_finished(out)?;
            self.expected_client_finished = Some(finished);
            self.state = State::AwaitClientCcs;
            return Ok(());
        }

        // Step 3: send_server_cert (X509 encoding charged as crypto).
        let sw = Stopwatch::start();
        let cert_msg = self.anatomy.time(3, "x509_functions", || {
            // Re-encode through the certificate type, as mod_ssl re-serializes
            // the X509 object per handshake.
            Certificate::from_bytes(&self.config.cert_wire)
                .map(|cert| HandshakeMessage::Certificate { cert: cert.to_bytes() }.encode())
        })?;
        self.anatomy.time(3, "finish_mac", || self.transcript.absorb(&cert_msg));
        self.records.seal_append(ContentType::Handshake, &cert_msg, out)?;
        self.anatomy.step(3, sw.elapsed());

        // Step 4: send_server_done (+ internal buffer control).
        let sw = Stopwatch::start();
        let done = HandshakeMessage::ServerHelloDone.encode();
        self.anatomy.time(4, "finish_mac", || self.transcript.absorb(&done));
        self.records.seal_append(ContentType::Handshake, &done, out)?;
        self.anatomy.step(4, sw.elapsed());

        self.state = State::AwaitClientKx;
        Ok(())
    }

    /// Step 5: get_client_kx — suspends on the RSA decryption of the
    /// pre-master as a [`CryptoJob`]; the step concludes in
    /// [`SslServer::finish_client_kx`].
    fn on_client_kx(&mut self, msg: &[u8], open_cycles: Cycles) -> Result<MachineStep, SslError> {
        let sw = Stopwatch::start();
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::ClientKeyExchange { encrypted_pre_master } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "client key exchange" });
        };
        // Absorbed at suspension: the finished hashes are only computed at
        // the client's CCS. The job decrypts with a clone of the rng (the
        // blinding draw), so the connection's own stream never advances
        // whoever runs it.
        self.anatomy.time(5, "finish_mac", || self.transcript.absorb(msg));
        self.anatomy.suspend_kx(sw.elapsed() + open_cycles);
        self.state = State::AwaitKxCrypto;
        let op = CryptoOp::RsaDecrypt { ciphertext: encrypted_pre_master };
        Ok(MachineStep::PendingCrypto(Box::new(CryptoJob::new(op, self.rng.clone()))))
    }

    /// Step 5's conclusion: derive the master secret from the job's
    /// result. The decryption's execution is step-5 crypto; its queue wait
    /// is kept aside for the ledger, out of the step's latency.
    ///
    /// A ClientKeyExchange that fails to decrypt, unpad, or carry a 48-byte
    /// `3.0 ‖ random` block must be indistinguishable on the wire from one
    /// that succeeds (the Bleichenbacher oracle), so any failure continues
    /// the handshake under a random pre-master and the connection dies
    /// where a wrong-key client's does: at the client's finished record,
    /// with that alert. The substitute is drawn on every handshake, from a
    /// fork of the connection rng, so neither the draw nor its absence
    /// moves the stream later flights read.
    fn finish_client_kx(&mut self, done: CryptoDone) -> Result<(), SslError> {
        let sw = Stopwatch::start();
        let decrypted = match self.anatomy.resume_kx(5, "rsa_private_decryption", done) {
            Ok(CryptoOutput::PreMaster(block)) => Some(block),
            Ok(_) => return Err(SslError::NotReady("crypto result kind")),
            Err(_) => None,
        };
        let mut fork = self.rng.clone();
        fork.add_entropy(b"client key exchange fallback");
        let mut fallback = [0u8; 48];
        fork.fill_bytes(&mut fallback);
        let pre_master: &[u8] = match &decrypted {
            Some(block)
                if block.len() == 48 && block[..2] == [crate::VERSION.0, crate::VERSION.1] =>
            {
                block
            }
            _ => &fallback,
        };
        self.master = self.anatomy.time(5, "gen_master_secret", || {
            kdf::master_secret(pre_master, &self.client_random, &self.server_random)
        });
        self.anatomy.end_kx(5, sw.elapsed());
        self.state = State::AwaitClientCcs;
        Ok(())
    }

    /// Step 6a: the client's CCS — generate the key block, switch the read
    /// cipher, pre-compute the expected finished hashes. Timing accumulates
    /// in `step6` until the finished message completes the step.
    fn on_client_ccs(&mut self, body: &[u8], open_cycles: Cycles) -> Result<(), SslError> {
        let sw = Stopwatch::start();
        if body != [1] {
            return Err(SslError::UnexpectedMessage { expected: "change cipher spec" });
        }
        let suite = self.suite;
        let km = self.key_material(6);
        let read_cipher = suite.new_cipher(&km.client_key, &km.client_iv)?;
        let mac_key = km.client_mac.clone();
        self.records.activate_read(read_cipher, suite.mac_alg(), mac_key);
        if self.expected_client_finished.is_none() {
            let expected = self.anatomy.time(6, "final_finish_mac", || {
                self.transcript.finished_hashes(&SENDER_CLIENT, &self.master)
            });
            self.expected_client_finished = Some(expected);
        }
        self.step6 += sw.elapsed() + open_cycles;
        self.state = State::AwaitClientFinished;
        Ok(())
    }

    /// Step 6b plus steps 7–9: verify the client finished (its record-open
    /// cycles are the step's `pri_decryption_and_mac`), answer with
    /// CCS ‖ finished on a full handshake, flush the session to the cache.
    fn on_client_finished(
        &mut self,
        msg: &[u8],
        open_cycles: Cycles,
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let sw = Stopwatch::start();
        self.anatomy.note(6, "pri_decryption_and_mac", open_cycles);
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::Finished { md5_hash, sha_hash } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "client finished" });
        };
        let (exp_md5, exp_sha) = self
            .expected_client_finished
            .ok_or(SslError::UnexpectedMessage { expected: "change cipher spec" })?;
        if md5_hash != exp_md5 || sha_hash != exp_sha {
            return Err(SslError::BadFinished);
        }
        self.anatomy.time(6, "finish_mac", || self.transcript.absorb(msg));
        let step6 = self.step6 + sw.elapsed() + open_cycles;
        self.step6 = Cycles::ZERO;
        self.anatomy.step(6, step6);

        if !self.resumed {
            if self.ticket_negotiated {
                self.send_new_session_ticket(out)?;
            }
            let _ = self.send_ccs_and_finished(out)?;
        }

        // Step 9: server_flush — cache the session (id-cache peers only;
        // negotiated peers hold their state in the ticket), wipe transient
        // secrets.
        let sw = Stopwatch::start();
        if !self.ticket_negotiated {
            self.config.store(self.session_id.clone(), self.master.clone(), self.suite);
        }
        self.anatomy.time(9, "cleanse", || {
            // OPENSSL_cleanse-equivalent: overwrite transient key material.
            if let Some(km) = &mut self.key_material {
                km.client_mac.fill(0);
            }
            sslperf_profile::counters::count("OPENSSL_cleanse", 1);
        });
        self.key_material = None;
        self.anatomy.step(9, sw.elapsed());

        self.state = State::Established;
        Ok(())
    }

    /// Seals the NewSessionTicket flight: the sealed session state the
    /// client will present instead of a cache-backed session id. Sent in
    /// plaintext before the server's CCS and deliberately *not* absorbed
    /// into the transcript (the client mirrors this), so the finished
    /// hashes — and every non-negotiating flight — are unaffected.
    fn send_new_session_ticket(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        let session = CachedSession { master: self.master.clone(), suite: self.suite };
        let Some(issued) = self.config.issue_ticket(&session) else {
            return Ok(());
        };
        let sw = Stopwatch::start();
        let nst = HandshakeMessage::NewSessionTicket {
            lifetime_hint_secs: issued.lifetime_hint_secs,
            ticket: issued.ticket,
        }
        .encode();
        self.records.seal_append(ContentType::Handshake, &nst, out)?;
        self.anatomy.note(8, "ticket_seal", sw.elapsed());
        self.ticket_issued = true;
        Ok(())
    }

    /// Steps 7–8: send change-cipher-spec, then the server finished message
    /// under the new keys.
    fn send_ccs_and_finished(
        &mut self,
        out: &mut Vec<u8>,
    ) -> Result<([u8; 16], [u8; 20]), SslError> {
        // Step 7: send_cipher_spec.
        let sw = Stopwatch::start();
        let suite = self.suite;
        let km = self.key_material(7);
        let write_cipher = suite.new_cipher(&km.server_key, &km.server_iv)?;
        let mac_key = km.server_mac.clone();
        self.records.seal_append(ContentType::ChangeCipherSpec, &[1], out)?;
        self.records.activate_write(write_cipher, suite.mac_alg(), mac_key);
        self.anatomy.step(7, sw.elapsed());

        // Step 8: send_finished.
        let sw = Stopwatch::start();
        let hashes = self.anatomy.time(8, "final_finish_mac", || {
            self.transcript.finished_hashes(&SENDER_SERVER, &self.master)
        });
        let (md5_hash, sha_hash) = hashes;
        let fin = HandshakeMessage::Finished { md5_hash, sha_hash }.encode();
        self.anatomy.time(8, "finish_mac", || self.transcript.absorb(&fin));
        let sealed = self.anatomy.time(8, "pri_encryption_and_mac", || {
            self.records.seal_append(ContentType::Handshake, &fin, out)
        });
        sealed?;
        self.anatomy.step(8, sw.elapsed());
        // Returns the *client* finished hashes expected later in resumed mode.
        let expected = self.transcript.finished_hashes(&SENDER_CLIENT, &self.master);
        Ok(expected)
    }

    /// The connection's key block, generated on first use and booked as
    /// `gen_key_block` under `step` (step 6 on a full handshake, step 7 on a
    /// resumed one, whichever side switches ciphers first).
    fn key_material(&mut self, step: usize) -> &KeyMaterial {
        let suite = self.suite;
        self.key_material.get_or_insert_with(|| {
            let block = self.anatomy.time(step, "gen_key_block", || {
                kdf::key_block(
                    &self.master,
                    &self.server_random,
                    &self.client_random,
                    suite.key_block_len(),
                )
            });
            KeyMaterial::parse(
                &block,
                suite.mac_alg().output_len(),
                suite.key_len(),
                suite.iv_len(),
            )
        })
    }
}

impl EngineDriven for SslServer<'_> {
    fn start(&mut self, _out: &mut Vec<u8>) -> Result<(), SslError> {
        // The client speaks first; step 0 already ran at construction.
        Ok(())
    }

    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        open_cycles: Cycles,
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match self.state {
            State::AwaitClientHello => {
                self.on_client_hello(msg, open_cycles, out).map(|()| MachineStep::Continue)
            }
            State::AwaitClientKx => self.on_client_kx(msg, open_cycles),
            State::AwaitClientFinished => {
                self.on_client_finished(msg, open_cycles, out).map(|()| MachineStep::Continue)
            }
            State::AwaitKxCrypto => {
                Err(SslError::UnexpectedMessage { expected: "crypto completion" })
            }
            State::AwaitClientCcs | State::Established => {
                Err(SslError::UnexpectedMessage { expected: "change cipher spec" })
            }
        }
    }

    fn complete_crypto(&mut self, done: CryptoDone, _out: &mut Vec<u8>) -> Result<(), SslError> {
        if self.state != State::AwaitKxCrypto {
            return Err(SslError::NotReady("no crypto operation pending"));
        }
        self.finish_client_kx(done)
    }

    fn crypto_key(&self) -> Option<&RsaPrivateKey> {
        Some(self.config.key())
    }

    fn on_change_cipher_spec(&mut self, body: &[u8], open_cycles: Cycles) -> Result<(), SslError> {
        if self.state != State::AwaitClientCcs {
            return Err(SslError::UnexpectedMessage { expected: "handshake message" });
        }
        self.on_client_ccs(body, open_cycles)
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
    use crate::test_support::server_config;
    use crate::Engine;

    #[test]
    fn config_accessors() {
        let config = server_config();
        assert_eq!(config.key().modulus().bit_len(), 512);
        // Cache starts empty or has entries from other tests (shared);
        // clear and check.
        config.clear_session_cache();
        assert_eq!(config.cached_sessions(), 0);
    }

    #[test]
    fn server_rejects_out_of_order_calls() {
        let mut server = Engine::new(SslServer::new(server_config(), SslRng::from_seed(b"s")))
            .expect("server engine");
        assert_eq!(server.seal(b"x"), Err(SslError::NotReady("handshake incomplete")));
        assert_eq!(server.open_next(), Err(SslError::NotReady("handshake incomplete")));
        // A change-cipher-spec record before the client hello.
        assert!(matches!(
            server.feed(&[20, 3, 0, 0, 1, 1]),
            Err(SslError::UnexpectedMessage { .. })
        ));
    }

    #[test]
    fn step_zero_recorded_at_construction() {
        let config = server_config();
        let server = SslServer::new(config, SslRng::from_seed(b"s"));
        assert!(server.steps().get("init").is_some());
        assert!(server.crypto().get("init_finished_mac").is_some());
        assert!(!server.is_established());
    }

    #[test]
    fn garbage_flight_is_rejected() {
        let config = server_config();
        let mut server =
            Engine::new(SslServer::new(config, SslRng::from_seed(b"s"))).expect("server engine");
        let err = server.feed(&[0xff; 40]).expect_err("garbage is not a record");
        assert_eq!(server.last_error(), Some(&err), "the error is latched");
    }

    #[test]
    fn engine_handshake_full_then_resumed() {
        use crate::{CipherSuite, SslClient};

        let config = server_config();
        config.clear_session_cache();
        // Two engines pumped in one thread until both are established.
        let mut wire = [0u8; 4096];
        let mut establish = |client: SslClient, seed: &[u8]| {
            let mut client = Engine::new(client).expect("client engine");
            let mut server = Engine::new(SslServer::new(config, SslRng::from_seed(seed)))
                .expect("server engine");
            while !(client.is_established() && server.is_established()) {
                let n = client.take_output(&mut wire);
                server.feed(&wire[..n]).expect("server feed");
                let n = server.take_output(&mut wire);
                client.feed(&wire[..n]).expect("client feed");
            }
            (client, server)
        };

        // Full handshake plus one application-data round trip.
        let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"tc1"));
        let (mut client, mut server) = establish(client, b"ts1");
        assert!(!server.machine().resumed());
        client.seal(b"over the wire").expect("send");
        server.feed(client.output()).expect("server feed");
        let range = server.open_next().expect("open").expect("request record");
        let request = server.buffered()[range].to_vec();
        server.seal(&request).expect("echo");
        client.feed(server.output()).expect("client feed");
        let range = client.open_next().expect("open").expect("echo record");
        assert_eq!(&client.buffered()[range], b"over the wire");

        // Resumed handshake against the same config.
        let session = client.machine().session().expect("established");
        let (client, server) =
            establish(SslClient::resuming(session, SslRng::from_seed(b"tc2")), b"ts2");
        assert!(client.machine().resumed() && server.machine().resumed());
    }
}
