//! The instrumented SSL v3 server, partitioned into the paper's ten steps.
//!
//! The handshake logic lives in per-message handlers driven by the sans-io
//! [`Engine`](crate::Engine). The engine reads the clock around each
//! handler call, the record open included, and a handler only names the
//! step it works in, so a step that spans several calls (e.g. step 6's
//! CCS + finished) still lands in one entry of the ledger's `steps`,
//! whether the bytes came as whole flights or one at a time.

use crate::cache::{CachedSession, SessionCache, ShardedSessionCache};
use crate::engine::{
    CryptoDone, CryptoJob, CryptoOp, CryptoOutput, EngineDriven, MachineStep, Sealed,
};
use crate::kdf::{self, KeyMaterial};
use crate::ledger::{HandshakeLedger, HandshakeRecorder};
use crate::machine::Protocol;
use crate::messages::{HandshakeMessage, SessionId};
use crate::record::{ContentType, RecordLayer};
use crate::ticket::{TicketError, TicketKeyring, TicketSessionStore};
use crate::transcript::{Transcript, SENDER_CLIENT, SENDER_SERVER};
use crate::{CipherSuite, SslError};
use sslperf_profile::{Cycles, PhaseSet};
use sslperf_rng::SslRng;
use sslperf_rsa::{x509::Certificate, RsaPrivateKey};
use std::sync::Arc;

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

/// Long-lived server configuration shared by every connection: the RSA
/// key, the certificate, the id-keyed session cache, and the ticket keyring
/// when tickets are on (session re-negotiation is the optimization §4.1
/// highlights; a peer that negotiates the ticket extension resumes from its
/// ticket, every other peer from the cache).
#[derive(Debug)]
pub struct ServerConfig {
    key: RsaPrivateKey,
    cert_wire: Vec<u8>,
    cache: Box<dyn SessionCache>,
    tickets: Option<Arc<TicketKeyring>>,
    protocols: Vec<Protocol>,
}

impl ServerConfig {
    /// Builds a configuration with a fresh self-signed certificate and the
    /// [`ShardedSessionCache`] at its default geometry.
    ///
    /// # Errors
    ///
    /// Propagates certificate-signing failures.
    pub fn new(key: RsaPrivateKey, name: &str) -> Result<Self, SslError> {
        Self::with_cache(key, name, Box::new(ShardedSessionCache::default()))
    }

    /// Builds a configuration with a caller-supplied session cache (e.g. a
    /// sharded, bounded one for a multi-threaded serving layer) and no
    /// tickets.
    ///
    /// # Errors
    ///
    /// Propagates certificate-signing failures.
    pub fn with_cache(
        key: RsaPrivateKey,
        name: &str,
        cache: Box<dyn SessionCache>,
    ) -> Result<Self, SslError> {
        Self::build(key, name, cache, None)
    }

    /// Builds a configuration that issues and accepts session tickets under
    /// `store`'s keyring and keeps its cache for peers without the ticket
    /// extension.
    ///
    /// # Errors
    ///
    /// Propagates certificate-signing failures.
    #[allow(clippy::boxed_local)] // the boxed store is the shape callers build against
    pub fn with_store(
        key: RsaPrivateKey,
        name: &str,
        store: Box<TicketSessionStore>,
    ) -> Result<Self, SslError> {
        let TicketSessionStore { keyring, fallback } = *store;
        Self::build(key, name, fallback, Some(keyring))
    }

    fn build(
        key: RsaPrivateKey,
        name: &str,
        cache: Box<dyn SessionCache>,
        tickets: Option<Arc<TicketKeyring>>,
    ) -> Result<Self, SslError> {
        let cert = Certificate::self_signed(name, &key, 2004, 2010)?;
        Ok(ServerConfig {
            key,
            cert_wire: cert.to_bytes(),
            cache,
            tickets,
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

    /// Number of cached (resumable) sessions held server-side.
    #[must_use]
    pub fn cached_sessions(&self) -> usize {
        self.cache.len()
    }

    /// Drops all cached sessions (forces full handshakes for id-cache
    /// peers; outstanding tickets stay valid).
    pub fn clear_session_cache(&self) {
        self.cache.clear();
    }

    /// True when a ticket keyring is installed.
    #[must_use]
    pub fn supports_tickets(&self) -> bool {
        self.tickets.is_some()
    }
}

/// Where the server is in the handshake, holding what is valid there.
///
/// `AwaitKxCrypto` is suspended mid-step-5, waiting for the executed
/// [`CryptoJob`]'s result. The expected client finished hashes are
/// computed at the client's CCS (step 6) on either handshake, as OpenSSL
/// does. Every input runs with `Failed` in place of the state it took, so
/// a handler that returns an error leaves the machine there and later
/// inputs are refused.
#[derive(Debug)]
enum State {
    AwaitClientHello,
    AwaitClientKx,
    AwaitKxCrypto,
    AwaitClientCcs,
    AwaitClientFinished { expected: ([u8; 16], [u8; 20]) },
    Established,
    Failed,
}

/// One server-side SSL connection.
///
/// Construction is the paper's step 0 (*Init*); the
/// [`Engine`](crate::Engine) feeds that drive it cover steps 1–9. Every
/// instant of the engine's calls into it lands in one step of
/// [`SslServer::ledger`]'s `steps`, and every crypto call in
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
    /// The keyring, when the client advertised the session-ticket
    /// extension and the configuration has one — the connection is then
    /// stateless: no id-cache lookup or store, resumption only through
    /// tickets.
    tickets: Option<&'a TicketKeyring>,
    ticket_issued: bool,
    ticket_accepted: bool,
    ticket_rejected: bool,
    ticket_expired: bool,
    key_material: Option<KeyMaterial>,
    anatomy: HandshakeRecorder,
}

impl<'a> SslServer<'a> {
    /// Creates a connection (Table 2 step 0: initialize states and
    /// variables, `init_finished_mac`), timed as a call of its own.
    #[must_use]
    pub fn new(config: &'a ServerConfig, rng: SslRng) -> Self {
        let mut anatomy = HandshakeRecorder::default();
        anatomy.start();
        let mut server = Self::with_recorder(config, rng, anatomy);
        server.anatomy.stop();
        server
    }

    /// Step 0 on `anatomy`'s running clock, leaving step 1 active for the
    /// client hello; the time before it stays in the step `anatomy` waits
    /// in. A dispatching [`ServerMachine`](crate::ServerMachine) builds
    /// the connection here, inside the call that opened that hello.
    pub(crate) fn with_recorder(
        config: &'a ServerConfig,
        rng: SslRng,
        mut anatomy: HandshakeRecorder,
    ) -> Self {
        anatomy.enter(0);
        let transcript = anatomy.time("init_finished_mac", Transcript::new);
        anatomy.enter(1);
        SslServer {
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
            tickets: None,
            ticket_issued: false,
            ticket_accepted: false,
            ticket_rejected: false,
            ticket_expired: false,
            key_material: None,
            anatomy,
        }
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
            ..self.anatomy.ledger(Protocol::Ssl3, self.resumed)
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
        matches!(self.state, State::Established)
    }

    /// True when this connection resumed a cached session.
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// True when the session-ticket extension was negotiated on this
    /// connection (the client advertised it and the configuration has a
    /// keyring).
    #[must_use]
    pub fn ticket_negotiated(&self) -> bool {
        self.tickets.is_some()
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

    /// Steps 1–4, driven by one reassembled client-hello message.
    fn on_client_hello(&mut self, msg: &[u8], out: &mut Vec<u8>) -> Result<(), SslError> {
        // Step 1: get_client_hello, active since the engine began opening
        // the record.
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
        // configuration has a keyring. Negotiated connections are
        // stateless — the id cache is never consulted or written.
        self.tickets = self.config.tickets.as_deref().filter(|_| ticket.is_some());
        let cached = if let Some(keyring) = self.tickets {
            // A non-empty blob is an offer to resume; any failure falls
            // back silently to a full handshake (no alert oracle).
            match ticket.as_deref() {
                Some(blob) if !blob.is_empty() && !session_id.is_empty() => {
                    let opened = self.anatomy.time("ticket_open", || keyring.open(blob));
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
            self.config.cache.lookup(session_id.as_bytes())
        };
        if let Some(cached) = &cached {
            self.resumed = true;
            self.suite = cached.suite;
            self.master.clone_from(&cached.master);
            self.session_id = session_id.as_bytes().to_vec();
        } else {
            self.suite = chosen;
            self.session_id = self.anatomy.time("rand_pseudo_bytes", || self.rng.bytes(32));
        }
        self.anatomy.time("finish_mac", || self.transcript.absorb(msg));

        // Step 2: send_server_hello.
        self.anatomy.enter(2);
        self.anatomy.time("rand_pseudo_bytes", || self.rng.fill_bytes(&mut self.server_random));
        let hello = HandshakeMessage::ServerHello {
            random: self.server_random,
            session_id: SessionId::new(self.session_id.clone()),
            suite: self.suite.wire_id(),
            // An empty extension echo announces a NewSessionTicket flight;
            // ticket-resumed handshakes reuse the client-held ticket as is.
            ticket: self.tickets.is_some() && !self.resumed,
        }
        .encode();
        self.anatomy.time("finish_mac", || self.transcript.absorb(&hello));
        self.records.seal_append(ContentType::Handshake, &hello, out)?;

        if self.resumed {
            // Abbreviated handshake: CCS + finished immediately, so the
            // client's finished covers ours.
            self.send_ccs_and_finished(out)?;
            self.anatomy.enter(6);
            self.state = State::AwaitClientCcs;
            return Ok(());
        }

        // Step 3: send_server_cert (X509 encoding charged as crypto).
        self.anatomy.enter(3);
        let cert_msg = self.anatomy.time("x509_functions", || {
            // Re-encode through the certificate type, as mod_ssl re-serializes
            // the X509 object per handshake.
            Certificate::from_bytes(&self.config.cert_wire)
                .map(|cert| HandshakeMessage::Certificate { cert: cert.to_bytes() }.encode())
        })?;
        self.anatomy.time("finish_mac", || self.transcript.absorb(&cert_msg));
        self.records.seal_append(ContentType::Handshake, &cert_msg, out)?;

        // Step 4: send_server_done (+ internal buffer control).
        self.anatomy.enter(4);
        let done = HandshakeMessage::ServerHelloDone.encode();
        self.anatomy.time("finish_mac", || self.transcript.absorb(&done));
        self.records.seal_append(ContentType::Handshake, &done, out)?;

        self.anatomy.enter(5);
        self.state = State::AwaitClientKx;
        Ok(())
    }

    /// Step 5: get_client_kx — suspends on the RSA decryption of the
    /// pre-master as a [`CryptoJob`]; the step concludes in
    /// [`SslServer::finish_client_kx`].
    fn on_client_kx(&mut self, msg: &[u8]) -> Result<MachineStep, SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::ClientKeyExchange { encrypted_pre_master } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "client key exchange" });
        };
        // Absorbed at suspension: the finished hashes are only computed at
        // the client's CCS. The job decrypts with a clone of the rng (the
        // blinding draw), so the connection's own stream never advances
        // whoever runs it.
        self.anatomy.time("finish_mac", || self.transcript.absorb(msg));
        self.state = State::AwaitKxCrypto;
        let op = CryptoOp::RsaDecrypt { ciphertext: encrypted_pre_master };
        Ok(MachineStep::PendingCrypto(Box::new(CryptoJob::new(op, self.rng.clone()))))
    }

    /// Step 5's conclusion: derive the master secret from the job's
    /// result. The decryption's execution is step-5 latency and crypto;
    /// its queue wait is kept aside for the ledger, out of the step.
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
        let decrypted = match self.anatomy.resume_kx("rsa_private_decryption", done) {
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
        self.master = self.anatomy.time("gen_master_secret", || {
            kdf::master_secret(pre_master, &self.client_random, &self.server_random)
        });
        self.anatomy.enter(6);
        self.state = State::AwaitClientCcs;
        Ok(())
    }

    /// Step 6a: the client's CCS — generate the key block (on a full
    /// handshake), switch the read cipher, pre-compute the expected
    /// finished hashes over the transcript as it stands: the client's
    /// messages on a full handshake, the hellos and the server finished on
    /// a resumed one.
    fn on_client_ccs(&mut self, body: &[u8]) -> Result<(), SslError> {
        if body != [1] {
            return Err(SslError::UnexpectedMessage { expected: "change cipher spec" });
        }
        let suite = self.suite;
        let km = self.key_material();
        let read_cipher = suite.new_cipher(&km.client_key, &km.client_iv)?;
        let mac_key = km.client_mac.clone();
        self.records.activate_read(read_cipher, suite.mac_alg(), mac_key);
        let expected = self.anatomy.time("final_finish_mac", || {
            self.transcript.finished_hashes(&SENDER_CLIENT, &self.master)
        });
        self.state = State::AwaitClientFinished { expected };
        Ok(())
    }

    /// Step 6b plus steps 7–9: verify the client finished (the engine's
    /// open of its record is the step's `pri_decryption_and_mac`), answer
    /// with CCS ‖ finished on a full handshake, flush the session to the
    /// cache.
    fn on_client_finished(
        &mut self,
        msg: &[u8],
        expected: ([u8; 16], [u8; 20]),
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let (decoded, _) = HandshakeMessage::decode(msg)?;
        let HandshakeMessage::Finished { md5_hash, sha_hash } = decoded else {
            return Err(SslError::UnexpectedMessage { expected: "client finished" });
        };
        if (md5_hash, sha_hash) != expected {
            return Err(SslError::BadFinished);
        }
        self.anatomy.time("finish_mac", || self.transcript.absorb(msg));

        if !self.resumed {
            if let Some(keyring) = self.tickets {
                self.send_new_session_ticket(keyring, out)?;
            }
            self.send_ccs_and_finished(out)?;
        }

        // Step 9: server_flush — cache the session (id-cache peers only;
        // negotiated peers hold their state in the ticket), wipe transient
        // secrets.
        self.anatomy.enter(9);
        if self.tickets.is_none() {
            let session = CachedSession { master: self.master.clone(), suite: self.suite };
            self.config.cache.store(self.session_id.clone(), session);
        }
        self.anatomy.time("cleanse", || {
            // OPENSSL_cleanse-equivalent: overwrite transient key material.
            if let Some(km) = &mut self.key_material {
                km.client_mac.fill(0);
            }
            sslperf_profile::counters::count("OPENSSL_cleanse", 1);
        });
        self.key_material = None;

        self.state = State::Established;
        Ok(())
    }

    /// Step 8's NewSessionTicket flight: the sealed session state the
    /// client will present instead of a cache-backed session id. Sent in
    /// plaintext before the server's CCS and deliberately *not* absorbed
    /// into the transcript (the client mirrors this), so the finished
    /// hashes — and every non-negotiating flight — are unaffected.
    fn send_new_session_ticket(
        &mut self,
        keyring: &TicketKeyring,
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        self.anatomy.enter(8);
        let session = CachedSession { master: self.master.clone(), suite: self.suite };
        let lifetime_hint_secs = u32::try_from(keyring.lifetime().as_secs()).unwrap_or(u32::MAX);
        self.anatomy.time("ticket_seal", || {
            let ticket = keyring.seal(&session);
            let nst = HandshakeMessage::NewSessionTicket { lifetime_hint_secs, ticket }.encode();
            self.records.seal_append(ContentType::Handshake, &nst, out)
        })?;
        self.ticket_issued = true;
        Ok(())
    }

    /// Steps 7–8: send change-cipher-spec, then the server finished message
    /// under the new keys.
    fn send_ccs_and_finished(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        // Step 7: send_cipher_spec.
        self.anatomy.enter(7);
        let suite = self.suite;
        let km = self.key_material();
        let write_cipher = suite.new_cipher(&km.server_key, &km.server_iv)?;
        let mac_key = km.server_mac.clone();
        self.records.seal_append(ContentType::ChangeCipherSpec, &[1], out)?;
        self.records.activate_write(write_cipher, suite.mac_alg(), mac_key);

        // Step 8: send_finished.
        self.anatomy.enter(8);
        let (md5_hash, sha_hash) = self.anatomy.time("final_finish_mac", || {
            self.transcript.finished_hashes(&SENDER_SERVER, &self.master)
        });
        let fin = HandshakeMessage::Finished { md5_hash, sha_hash }.encode();
        self.anatomy.time("finish_mac", || self.transcript.absorb(&fin));
        self.anatomy.time("pri_encryption_and_mac", || {
            self.records.seal_append(ContentType::Handshake, &fin, out)
        })
    }

    /// The connection's key block, generated on first use and booked as
    /// `gen_key_block` in the active step (step 6 on a full handshake, step
    /// 7 on a resumed one, whichever side switches ciphers first).
    fn key_material(&mut self) -> &KeyMaterial {
        let suite = self.suite;
        self.key_material.get_or_insert_with(|| {
            let block = self.anatomy.time("gen_key_block", || {
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

impl Sealed for SslServer<'_> {
    fn recorder(&mut self) -> Option<&mut HandshakeRecorder> {
        Some(&mut self.anatomy)
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
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match std::mem::replace(&mut self.state, State::Failed) {
            State::AwaitClientHello => {
                self.on_client_hello(msg, out).map(|()| MachineStep::Continue)
            }
            State::AwaitClientKx => self.on_client_kx(msg),
            State::AwaitClientFinished { expected } => {
                self.on_client_finished(msg, expected, out).map(|()| MachineStep::Continue)
            }
            State::AwaitKxCrypto => {
                Err(SslError::UnexpectedMessage { expected: "crypto completion" })
            }
            State::AwaitClientCcs | State::Established => {
                Err(SslError::UnexpectedMessage { expected: "change cipher spec" })
            }
            State::Failed => Err(SslError::NotReady("handshake not in progress")),
        }
    }

    fn complete_crypto(&mut self, done: CryptoDone, _out: &mut Vec<u8>) -> Result<(), SslError> {
        let State::AwaitKxCrypto = std::mem::replace(&mut self.state, State::Failed) else {
            return Err(SslError::NotReady("no crypto operation pending"));
        };
        self.finish_client_kx(done)
    }

    fn crypto_key(&self) -> Option<&RsaPrivateKey> {
        Some(self.config.key())
    }

    fn on_change_cipher_spec(&mut self, body: &[u8]) -> Result<(), SslError> {
        let State::AwaitClientCcs = std::mem::replace(&mut self.state, State::Failed) else {
            return Err(SslError::UnexpectedMessage { expected: "handshake message" });
        };
        self.on_client_ccs(body)
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
        assert_eq!(server.ledger().steps[0].0, "init");
        assert!(server.ledger().steps[0].1 > Cycles::ZERO);
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

    #[test]
    fn ticket_config_issues_tickets_and_falls_back_to_its_id_cache() {
        use crate::{CipherSuite, SslClient};

        fn establish(client: &mut Engine<SslClient>, server: &mut Engine<SslServer<'_>>) {
            while !(client.is_established() && server.is_established()) {
                server.feed_from(client).expect("server feed");
                client.feed_from(server).expect("client feed");
            }
        }

        let ring = Arc::new(TicketKeyring::new(b"test-secret"));
        let store =
            TicketSessionStore::new(Arc::clone(&ring), Box::new(ShardedSessionCache::default()));
        let key = server_config().key().clone();
        let config = ServerConfig::with_store(key, "test.server", Box::new(store)).expect("config");
        assert!(config.supports_tickets());
        let connect = |client: SslClient, seed: &[u8]| {
            let client = Engine::new(client).expect("client engine");
            let server = Engine::new(SslServer::new(&config, SslRng::from_seed(seed)));
            (client, server.expect("server engine"))
        };

        // A ticket peer: the NewSessionTicket, first in the server's last
        // flight, advertises the keyring's lifetime and opens under it.
        let client =
            SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"tc3")).with_tickets();
        let (mut client, mut server) = connect(client, b"ts3");
        server.feed_from(&mut client).expect("client hello");
        client.feed_from(&mut server).expect("server hello flight");
        server.feed_from(&mut client).expect("client finished flight");
        let flight = server.output();
        let len = usize::from(u16::from_be_bytes([flight[3], flight[4]]));
        let (nst, _) = HandshakeMessage::decode(&flight[5..5 + len]).expect("handshake message");
        let HandshakeMessage::NewSessionTicket { lifetime_hint_secs, ticket } = nst else {
            panic!("expected a NewSessionTicket, got {nst:?}");
        };
        assert_eq!(lifetime_hint_secs, 3600);
        let opened = ring.open(&ticket).expect("accepts own ticket");
        assert_eq!(opened.suite, CipherSuite::RsaAes128Sha);
        establish(&mut client, &mut server);
        assert_eq!(config.cached_sessions(), 0, "a ticket peer's state is client-held");

        // A peer without the extension resumes through the fallback cache.
        let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"tc4"));
        let (mut client, mut server) = connect(client, b"ts4");
        establish(&mut client, &mut server);
        assert!(!server.machine().ticket_negotiated());
        assert_eq!(config.cached_sessions(), 1);
        let session = client.machine().session().expect("session");
        let client = SslClient::resuming(session, SslRng::from_seed(b"tc5"));
        let (mut client, mut server) = connect(client, b"ts5");
        establish(&mut client, &mut server);
        assert!(server.machine().resumed() && !server.machine().ticket_accepted());
        config.clear_session_cache();
        assert_eq!(config.cached_sessions(), 0);
    }
}
