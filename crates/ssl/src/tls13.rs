//! A TLS 1.3-style 1-RTT handshake machine on the sans-io engine.
//!
//! This is the second protocol the workspace serves, built to re-run the
//! paper's anatomy methodology against the successor handshake the way
//! later studies did for TLS 1.3: same record layer, same engine, same
//! crypto pool and metrics — only the state machine and key schedule
//! change. The flow is the RFC 8446 1-RTT shape without resumption or
//! 0-RTT:
//!
//! ```text
//! client                              server
//!   ClientHello(key_share)  ───────▶  [DHE CryptoJob: engine or pool]
//!   (all further records    ◀───────  ServerHello(key_share)
//!    under handshake keys)  ◀───────  EncryptedExtensions ‖ Certificate
//!                           ◀───────  CertificateVerify ‖ Finished
//!   Finished                ───────▶
//!   (application keys)      ◀──────▶  (application keys)
//! ```
//!
//! # What is (and is not) faithful to RFC 8446
//!
//! Faithful: the 1-RTT message sequence, the `key_share` extension
//! (carrying an RFC 7919 ffdhe2048 share), the HKDF-SHA-256 key schedule
//! (`Derive-Secret` tree with the `"tls13 "` label prefix, per-epoch
//! traffic secrets at the RFC's transcript points), HMAC-based Finished
//! verification, and the `CertificateVerify` construction (64 spaces ‖
//! context string ‖ 0x00 ‖ transcript hash, signed RSA-PKCS#1).
//!
//! Divergences, all deliberate so the paper's record-layer instrumentation
//! applies unchanged: records are protected with the *SSLv3 suites*
//! (MAC-then-encrypt CBC/RC4 with an HKDF-derived `"mac"` secret) instead
//! of AEAD; record headers carry `(3, 4)` instead of echoing 0x0303, which
//! makes protocol sniffing in the serving layer trivial; there is no CCS,
//! no resumption/PSK, no client authentication, and the hello keeps the
//! SSLv3 body layout (no `supported_versions` dance).

use crate::dhe::DheKeyPair;
use crate::engine::{CryptoDone, CryptoJob, CryptoOp, CryptoOutput, EngineDriven, MachineStep};
use crate::ledger::{HandshakeLedger, HandshakeRecorder};
use crate::machine::Protocol;
use crate::messages::{decode_extension_block, encode_extensions, Reader, EXT_KEY_SHARE};
use crate::record::{ContentType, RecordLayer};
use crate::server::ServerConfig;
use crate::{CipherSuite, SslError};
use sslperf_hashes::{hkdf, HashAlg, Hmac, Sha256};
use sslperf_profile::{Cycles, PhaseSet, Stopwatch};
use sslperf_rng::SslRng;
use sslperf_rsa::{x509::Certificate, RsaPrivateKey, RsaPublicKey};

/// The record-header version the TLS 1.3-style machines stamp and expect:
/// `(3, 4)`. RFC 8446 echoes 0x0303 for middlebox compatibility; we have
/// no middleboxes and a version byte that identifies the protocol lets the
/// serving layer dispatch by sniffing the first record header.
pub const WIRE_VERSION: (u8, u8) = (3, 4);

/// The ten server-side steps of the TLS 1.3-style handshake, the
/// protocol's analogue of [`crate::SERVER_STEP_NAMES`]. Step 2
/// (`dhe_key_exchange`) is the offloadable one — the machine's only
/// suspension point, mirroring SSLv3's step 5.
pub const TLS13_STEP_NAMES: [&str; 10] = [
    "get_client_hello",
    "select_params",
    "dhe_key_exchange",
    "derive_handshake_keys",
    "send_server_hello",
    "send_encrypted_exts",
    "send_certificate",
    "send_cert_verify",
    "send_finished",
    "get_client_finished",
];

/// RFC 8446 signature-scheme code for `rsa_pkcs1_sha256`.
const SIG_RSA_PKCS1_SHA256: u16 = 0x0401;

/// The `CertificateVerify` context string for the server role (§4.4.3).
const CV_CONTEXT: &[u8] = b"TLS 1.3, server CertificateVerify";

// Handshake message type codes. The 1.3 set overlaps SSLv3's where the
// messages coincide and adds EncryptedExtensions / CertificateVerify.
const MT_CLIENT_HELLO: u8 = 1;
const MT_SERVER_HELLO: u8 = 2;
const MT_ENCRYPTED_EXTENSIONS: u8 = 8;
const MT_CERTIFICATE: u8 = 11;
const MT_CERTIFICATE_VERIFY: u8 = 15;
const MT_FINISHED: u8 = 20;

// ---------------------------------------------------------------------------
// Key schedule (RFC 8446 §7.1, HKDF-SHA-256)
// ---------------------------------------------------------------------------

const HASH_LEN: usize = 32;

/// `HKDF-Expand-Label`: expand with the `"tls13 "`-prefixed HkdfLabel info
/// structure (§7.1). The only allocation is the returned key.
///
/// # Panics
///
/// Panics if `len`, the prefixed label or the context does not fit its
/// HkdfLabel length field (two bytes, one byte and one byte).
#[must_use]
pub fn expand_label(secret: &[u8], label: &str, context: &[u8], len: usize) -> Vec<u8> {
    const PREFIX: &[u8] = b"tls13 ";
    // uint16 length, opaque label<7..255>, opaque context<0..255>.
    let mut info = [0u8; 2 + 1 + 255 + 1 + 255];
    let out_len = u16::try_from(len).expect("HkdfLabel length too long");
    let label_len = u8::try_from(PREFIX.len() + label.len()).expect("HkdfLabel label too long");
    let context_len = u8::try_from(context.len()).expect("HkdfLabel context too long");
    let mut at = 0;
    for part in [
        &out_len.to_be_bytes()[..],
        &[label_len],
        PREFIX,
        label.as_bytes(),
        &[context_len],
        context,
    ] {
        info[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    hkdf::expand(HashAlg::Sha256, secret, &info[..at], len)
}

/// `Derive-Secret(secret, label, transcript_hash)`.
#[must_use]
pub fn derive_secret(secret: &[u8], label: &str, transcript_hash: &[u8]) -> Vec<u8> {
    expand_label(secret, label, transcript_hash, HASH_LEN)
}

/// The handshake-phase secrets plus the master secret they chain into.
#[derive(Debug, Clone)]
struct HandshakeSecrets {
    client_hs: Vec<u8>,
    server_hs: Vec<u8>,
    master: Vec<u8>,
}

/// Runs the §7.1 schedule from the DHE shared secret down to the master
/// secret: `Extract(0,0) → "derived" → Extract(·, DHE) → traffic secrets
/// at th(CH..SH) → "derived" → Extract(·, 0) = master`.
fn handshake_secrets(shared: &[u8], th_ch_sh: &[u8]) -> HandshakeSecrets {
    let zeros = [0u8; HASH_LEN];
    let empty_hash = Sha256::new().finalize();
    let early = hkdf::extract(HashAlg::Sha256, &[], &zeros);
    let derived = derive_secret(&early, "derived", &empty_hash);
    let hs = hkdf::extract(HashAlg::Sha256, &derived, shared);
    let client_hs = derive_secret(&hs, "c hs traffic", th_ch_sh);
    let server_hs = derive_secret(&hs, "s hs traffic", th_ch_sh);
    let derived = derive_secret(&hs, "derived", &empty_hash);
    let master = hkdf::extract(HashAlg::Sha256, &derived, &zeros);
    HandshakeSecrets { client_hs, server_hs, master }
}

/// Application traffic secrets at th(CH..server Finished):
/// `(client_ap, server_ap)`.
fn application_secrets(master: &[u8], th_ch_sfin: &[u8]) -> (Vec<u8>, Vec<u8>) {
    (
        derive_secret(master, "c ap traffic", th_ch_sfin),
        derive_secret(master, "s ap traffic", th_ch_sfin),
    )
}

/// Finished verify-data: `HMAC(Expand-Label(secret, "finished"), th)`.
fn verify_data(traffic_secret: &[u8], th: &[u8]) -> Vec<u8> {
    let finished_key = expand_label(traffic_secret, "finished", &[], HASH_LEN);
    Hmac::mac(HashAlg::Sha256, &finished_key, th)
}

/// Installs one direction's traffic keys on the record layer: `"key"`,
/// `"iv"` and `"mac"` expansions of the traffic secret, driving the SSLv3
/// suites' MAC-then-encrypt record protection (the documented AEAD
/// divergence).
fn activate_epoch(
    records: &mut RecordLayer,
    suite: CipherSuite,
    secret: &[u8],
    write: bool,
) -> Result<(), SslError> {
    let key = expand_label(secret, "key", &[], suite.key_len());
    let iv = expand_label(secret, "iv", &[], suite.iv_len());
    let mac = expand_label(secret, "mac", &[], suite.mac_alg().output_len());
    let cipher = suite.new_cipher(&key, &iv)?;
    if write {
        records.activate_write(cipher, suite.mac_alg(), mac);
    } else {
        records.activate_read(cipher, suite.mac_alg(), mac);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Message codec
// ---------------------------------------------------------------------------

/// Frames a message body with the 4-byte handshake header.
fn frame(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.push(msg_type);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]);
    out.extend_from_slice(body);
    out
}

/// Checks the message type and returns the body (the engine has already
/// validated that the framed length matches).
fn body_of<'a>(msg: &'a [u8], msg_type: u8, expected: &'static str) -> Result<&'a [u8], SslError> {
    if msg.len() < 4 || msg[0] != msg_type {
        return Err(SslError::UnexpectedMessage { expected });
    }
    Ok(&msg[4..])
}

fn encode_client_hello(random: &[u8; 32], suites: &[u16], key_share: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(WIRE_VERSION.0);
    body.push(WIRE_VERSION.1);
    body.extend_from_slice(random);
    body.push(0); // empty legacy session id
    body.extend_from_slice(&((suites.len() * 2) as u16).to_be_bytes());
    for s in suites {
        body.extend_from_slice(&s.to_be_bytes());
    }
    encode_extensions(&mut body, &[(EXT_KEY_SHARE, key_share)]);
    frame(MT_CLIENT_HELLO, &body)
}

struct ParsedClientHello {
    suites: Vec<u16>,
    key_share: Vec<u8>,
}

fn decode_client_hello(msg: &[u8]) -> Result<ParsedClientHello, SslError> {
    let body = body_of(msg, MT_CLIENT_HELLO, "client hello")?;
    let mut r = Reader { buf: body };
    let major = r.u8()?;
    let minor = r.u8()?;
    if (major, minor) != WIRE_VERSION {
        return Err(SslError::UnsupportedVersion { major, minor });
    }
    // The client random is only consumed through the transcript (the raw
    // message is absorbed whole), so the parse just validates its length.
    let _random = r.array32()?;
    let sid_len = r.u8()? as usize;
    if sid_len > 32 {
        return Err(SslError::Decode("session id length"));
    }
    let _ = r.bytes(sid_len)?;
    let suites_bytes = r.u16()? as usize;
    if !suites_bytes.is_multiple_of(2) {
        return Err(SslError::Decode("cipher suite list"));
    }
    let mut suites = Vec::with_capacity(suites_bytes / 2);
    for _ in 0..suites_bytes / 2 {
        suites.push(r.u16()?);
    }
    let exts = decode_extension_block(&mut r)?;
    let key_share = exts.key_share.ok_or(SslError::Decode("missing key share"))?.to_vec();
    Ok(ParsedClientHello { suites, key_share })
}

fn encode_server_hello(random: &[u8; 32], suite: u16, key_share: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(WIRE_VERSION.0);
    body.push(WIRE_VERSION.1);
    body.extend_from_slice(random);
    body.push(0); // empty legacy session id echo
    body.extend_from_slice(&suite.to_be_bytes());
    encode_extensions(&mut body, &[(EXT_KEY_SHARE, key_share)]);
    frame(MT_SERVER_HELLO, &body)
}

struct ParsedServerHello {
    suite: u16,
    key_share: Vec<u8>,
}

fn decode_server_hello(msg: &[u8]) -> Result<ParsedServerHello, SslError> {
    let body = body_of(msg, MT_SERVER_HELLO, "server hello")?;
    let mut r = Reader { buf: body };
    let major = r.u8()?;
    let minor = r.u8()?;
    if (major, minor) != WIRE_VERSION {
        return Err(SslError::UnsupportedVersion { major, minor });
    }
    let _random = r.array32()?;
    let sid_len = r.u8()? as usize;
    if sid_len > 32 {
        return Err(SslError::Decode("session id length"));
    }
    let _ = r.bytes(sid_len)?;
    let suite = r.u16()?;
    let exts = decode_extension_block(&mut r)?;
    let key_share = exts.key_share.ok_or(SslError::Decode("missing key share"))?.to_vec();
    Ok(ParsedServerHello { suite, key_share })
}

/// The `CertificateVerify` signed content (§4.4.3): 64 spaces ‖ context
/// string ‖ 0x00 ‖ transcript hash.
fn cert_verify_content(th: &[u8]) -> Vec<u8> {
    let mut content = vec![0x20u8; 64];
    content.extend_from_slice(CV_CONTEXT);
    content.push(0x00);
    content.extend_from_slice(th);
    content
}

// ---------------------------------------------------------------------------
// Server machine
// ---------------------------------------------------------------------------

/// Where the server is in the handshake, holding what is valid there.
///
/// `AwaitKxCrypto` is suspended mid-step-2, waiting for the executed DHE
/// [`CryptoJob`]'s result; the ServerHello then carries its random.
/// `AwaitClientFinished` follows the server Finished: the client Finished
/// verify-data and the application traffic secrets, all at th(CH..SFin).
/// Every input runs with `Failed` in place of the state it took, so a
/// handler that returns an error leaves the machine there and later inputs
/// are refused.
#[derive(Debug)]
enum ServerState {
    AwaitClientHello,
    AwaitKxCrypto { server_random: [u8; 32] },
    AwaitClientFinished { expected: Vec<u8>, client_ap: Vec<u8>, server_ap: Vec<u8> },
    Established,
    Failed,
}

/// The server side of the TLS 1.3-style handshake, instrumented into the
/// ten steps of [`TLS13_STEP_NAMES`] exactly as [`crate::SslServer`] is
/// into the paper's Table 2 steps.
#[derive(Debug)]
pub struct Tls13ServerMachine<'a> {
    config: &'a ServerConfig,
    rng: SslRng,
    records: RecordLayer,
    transcript: Sha256,
    state: ServerState,
    suite: CipherSuite,
    anatomy: HandshakeRecorder,
}

impl<'a> Tls13ServerMachine<'a> {
    /// Creates a connection. Reuses the SSLv3 [`ServerConfig`] — same RSA
    /// key, same certificate; the session store is unused (no resumption).
    #[must_use]
    pub fn new(config: &'a ServerConfig, rng: SslRng) -> Self {
        Tls13ServerMachine {
            config,
            rng,
            records: RecordLayer::with_wire_version(WIRE_VERSION),
            transcript: Sha256::new(),
            state: ServerState::AwaitClientHello,
            suite: CipherSuite::RsaDesCbc3Sha,
            anatomy: HandshakeRecorder::new(Protocol::Tls13),
        }
    }

    fn th(&self) -> [u8; 32] {
        self.transcript.clone().finalize()
    }

    fn absorb(&mut self, step: usize, msg: &[u8]) {
        self.anatomy.time(step, "sha256_transcript", || self.transcript.update(msg));
    }

    /// Per-step latency, keyed by [`TLS13_STEP_NAMES`].
    #[must_use]
    pub fn steps(&self) -> &PhaseSet {
        self.anatomy.steps()
    }

    /// Per-crypto-function latency, aggregated over the handshake.
    #[must_use]
    pub fn crypto(&self) -> &PhaseSet {
        self.anatomy.crypto()
    }

    /// `(step index, crypto function, cycles)` triples in call order.
    #[must_use]
    pub fn crypto_detail(&self) -> &[(usize, &'static str, Cycles)] {
        self.anatomy.crypto_detail()
    }

    /// The negotiated cipher suite.
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// True once the handshake completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        matches!(self.state, ServerState::Established)
    }

    /// Record-layer symmetric-crypto cycles accumulated so far.
    #[must_use]
    pub fn record_crypto_cycles(&self) -> Cycles {
        self.records.crypto_total()
    }

    /// Exports this connection's handshake anatomy: the ten
    /// [`TLS13_STEP_NAMES`] latencies plus the key-exchange offload split,
    /// in the same [`HandshakeLedger`] shape the SSLv3 machine produces so
    /// one metrics layer serves both protocols.
    #[must_use]
    pub fn ledger(&self) -> HandshakeLedger {
        self.anatomy.ledger(false)
    }

    /// Steps 0–2 up to the DHE boundary: parse the hello, pick parameters,
    /// then suspend on the exponentiations as a [`CryptoJob`]; the step
    /// concludes in `finish_kx`.
    fn on_client_hello(
        &mut self,
        msg: &[u8],
        open_cycles: Cycles,
    ) -> Result<MachineStep, SslError> {
        // Step 0: get_client_hello.
        let sw = Stopwatch::start();
        let hello = decode_client_hello(msg)?;
        self.absorb(0, msg);
        self.anatomy.step(0, sw.elapsed() + open_cycles);

        // Step 1: select_params — suite choice, server random, key-share
        // validation (the cheap Bn range check; the exponentiations are
        // step 2).
        let sw = Stopwatch::start();
        self.suite = CipherSuite::ALL
            .into_iter()
            .find(|s| hello.suites.contains(&s.wire_id()))
            .ok_or(SslError::NoCommonCipher)?;
        let mut server_random = [0; 32];
        self.anatomy.time(1, "rand_pseudo_bytes", || self.rng.fill_bytes(&mut server_random));
        let peer = crate::dhe::validate_public(&hello.key_share)?;
        self.anatomy.step(1, sw.elapsed());

        // Step 2: dhe_key_exchange, all of it in the job. The job draws the
        // ephemeral exponent from a *clone* of the connection rng, so the
        // connection's own stream never advances whoever runs it.
        self.state = ServerState::AwaitKxCrypto { server_random };
        let job = CryptoJob::new(CryptoOp::DheAgree { peer }, self.rng.clone());
        Ok(MachineStep::PendingCrypto(Box::new(job)))
    }

    /// Step 2's conclusion, then steps 3–8: ServerHello through Finished.
    /// The job's queue wait is kept aside for the ledger, out of the step's
    /// latency and the crypto ledger.
    fn finish_kx(
        &mut self,
        server_random: &[u8; 32],
        done: CryptoDone,
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let sw = Stopwatch::start();
        let CryptoOutput::Dhe(agreed) = self.anatomy.resume_kx(2, "kx_exec", done)? else {
            return Err(SslError::NotReady("crypto result kind"));
        };
        self.anatomy.end_kx(2, sw.elapsed());

        // Step 4: send_server_hello (plaintext, carrying our key share).
        let sw = Stopwatch::start();
        let sh = encode_server_hello(server_random, self.suite.wire_id(), &agreed.public);
        self.absorb(4, &sh);
        self.records.seal_append(ContentType::Handshake, &sh, out)?;
        self.anatomy.step(4, sw.elapsed());

        // Step 3: derive_handshake_keys — the §7.1 schedule down to the
        // handshake traffic secrets at th(CH..SH), then both epochs
        // activate (no CCS: the very next record is encrypted).
        let sw = Stopwatch::start();
        let th_ch_sh = self.th();
        let secrets = self
            .anatomy
            .time(3, "hkdf_key_schedule", || handshake_secrets(&agreed.shared, &th_ch_sh));
        activate_epoch(&mut self.records, self.suite, &secrets.server_hs, true)?;
        activate_epoch(&mut self.records, self.suite, &secrets.client_hs, false)?;
        self.anatomy.step(3, sw.elapsed());

        // Step 5: send_encrypted_exts (empty extension block).
        let sw = Stopwatch::start();
        let ee = frame(MT_ENCRYPTED_EXTENSIONS, &[0, 0]);
        self.absorb(5, &ee);
        self.records.seal_append(ContentType::Handshake, &ee, out)?;
        self.anatomy.step(5, sw.elapsed());

        // Step 6: send_certificate (same re-serialization the SSLv3 path
        // charges as x509_functions).
        let sw = Stopwatch::start();
        let cert_msg = self.anatomy.time(6, "x509_functions", || {
            let wire = Certificate::from_bytes(self.config.cert_wire())?.to_bytes();
            let mut body = Vec::with_capacity(3 + wire.len());
            body.extend_from_slice(&(wire.len() as u32).to_be_bytes()[1..]);
            body.extend_from_slice(&wire);
            Ok::<_, SslError>(frame(MT_CERTIFICATE, &body))
        })?;
        self.absorb(6, &cert_msg);
        self.records.seal_append(ContentType::Handshake, &cert_msg, out)?;
        self.anatomy.step(6, sw.elapsed());

        // Step 7: send_cert_verify — sign the transcript so the ephemeral
        // share is authenticated (this is where TLS 1.3 spends its RSA
        // private operation, vs. SSLv3's step-5 decryption).
        let sw = Stopwatch::start();
        let content = cert_verify_content(&self.th());
        let sig = self
            .anatomy
            .time(7, "rsa_sign", || self.config.key().sign_pkcs1(HashAlg::Sha256, &content))?;
        let mut body = Vec::with_capacity(4 + sig.len());
        body.extend_from_slice(&SIG_RSA_PKCS1_SHA256.to_be_bytes());
        body.extend_from_slice(&(sig.len() as u16).to_be_bytes());
        body.extend_from_slice(&sig);
        let cv = frame(MT_CERTIFICATE_VERIFY, &body);
        self.absorb(7, &cv);
        self.records.seal_append(ContentType::Handshake, &cv, out)?;
        self.anatomy.step(7, sw.elapsed());

        // Step 8: send_finished, then chain to the application secrets and
        // the expected client Finished (both pinned to th(CH..SFin)).
        let sw = Stopwatch::start();
        let vd = self.anatomy.time(8, "hmac_finished", || {
            verify_data(&secrets.server_hs, &self.transcript.clone().finalize())
        });
        let fin = frame(MT_FINISHED, &vd);
        self.absorb(8, &fin);
        self.records.seal_append(ContentType::Handshake, &fin, out)?;
        let th_ch_sfin = self.th();
        let (client_ap, server_ap) = self
            .anatomy
            .time(8, "hkdf_key_schedule", || application_secrets(&secrets.master, &th_ch_sfin));
        let expected =
            self.anatomy.time(8, "hmac_finished", || verify_data(&secrets.client_hs, &th_ch_sfin));
        self.anatomy.step(8, sw.elapsed());

        self.state = ServerState::AwaitClientFinished { expected, client_ap, server_ap };
        Ok(())
    }

    /// Step 9: verify the client Finished and switch to application keys.
    fn on_client_finished(
        &mut self,
        msg: &[u8],
        open_cycles: Cycles,
        expected: &[u8],
        client_ap: &[u8],
        server_ap: &[u8],
    ) -> Result<(), SslError> {
        let sw = Stopwatch::start();
        let body = body_of(msg, MT_FINISHED, "client finished")?;
        if body != expected {
            return Err(SslError::BadFinished);
        }
        self.absorb(9, msg);
        activate_epoch(&mut self.records, self.suite, server_ap, true)?;
        activate_epoch(&mut self.records, self.suite, client_ap, false)?;
        self.anatomy.step(9, sw.elapsed() + open_cycles);
        self.state = ServerState::Established;
        Ok(())
    }
}

impl EngineDriven for Tls13ServerMachine<'_> {
    fn start(&mut self, _out: &mut Vec<u8>) -> Result<(), SslError> {
        Ok(())
    }

    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        open_cycles: Cycles,
        _out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match std::mem::replace(&mut self.state, ServerState::Failed) {
            ServerState::AwaitClientHello => self.on_client_hello(msg, open_cycles),
            ServerState::AwaitClientFinished { expected, client_ap, server_ap } => self
                .on_client_finished(msg, open_cycles, &expected, &client_ap, &server_ap)
                .map(|()| MachineStep::Continue),
            ServerState::AwaitKxCrypto { .. } => {
                Err(SslError::UnexpectedMessage { expected: "crypto completion" })
            }
            ServerState::Established => {
                Err(SslError::UnexpectedMessage { expected: "application data" })
            }
            ServerState::Failed => Err(SslError::NotReady("handshake not in progress")),
        }
    }

    fn complete_crypto(&mut self, done: CryptoDone, out: &mut Vec<u8>) -> Result<(), SslError> {
        let ServerState::AwaitKxCrypto { server_random } =
            std::mem::replace(&mut self.state, ServerState::Failed)
        else {
            return Err(SslError::NotReady("no crypto operation pending"));
        };
        self.finish_kx(&server_random, done, out)
    }

    fn crypto_key(&self) -> Option<&RsaPrivateKey> {
        Some(self.config.key())
    }

    fn on_change_cipher_spec(
        &mut self,
        _body: &[u8],
        _open_cycles: Cycles,
    ) -> Result<(), SslError> {
        self.state = ServerState::Failed;
        Err(SslError::UnexpectedMessage { expected: "handshake message (no CCS in TLS 1.3)" })
    }

    fn record_layer(&mut self) -> &mut RecordLayer {
        &mut self.records
    }

    fn handshake_done(&self) -> bool {
        matches!(self.state, ServerState::Established)
    }

    fn accepts_record_version(&self, major: u8, minor: u8) -> bool {
        (major, minor) == WIRE_VERSION
    }
}

// ---------------------------------------------------------------------------
// Client machine
// ---------------------------------------------------------------------------

/// Where the client is in the handshake, holding what is valid there:
/// from `start` the key pair until the ServerHello, then the handshake
/// secrets until the server Finished, beside the server certificate's key
/// for CertificateVerify. `Failed` is left behind as the server's is.
// One state per connection: boxing the key would only add an
// allocation per handshake.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ClientState {
    Start,
    AwaitServerHello { dhe: DheKeyPair },
    AwaitEncryptedExts { secrets: HandshakeSecrets },
    AwaitCertificate { secrets: HandshakeSecrets },
    AwaitCertVerify { secrets: HandshakeSecrets, server_key: RsaPublicKey },
    AwaitServerFinished { secrets: HandshakeSecrets },
    Established,
    Failed,
}

/// The client side of the TLS 1.3-style handshake. Clients never offload:
/// their exponentiations run inline at hello time and share agreement.
#[derive(Debug)]
pub struct Tls13ClientMachine {
    rng: SslRng,
    records: RecordLayer,
    transcript: Sha256,
    state: ClientState,
    suite: CipherSuite,
}

impl Tls13ClientMachine {
    /// Creates a client offering `suite`.
    #[must_use]
    pub fn new(suite: CipherSuite, rng: SslRng) -> Self {
        Tls13ClientMachine {
            rng,
            records: RecordLayer::with_wire_version(WIRE_VERSION),
            transcript: Sha256::new(),
            state: ClientState::Start,
            suite,
        }
    }

    fn th(&self) -> [u8; 32] {
        self.transcript.clone().finalize()
    }

    /// The suite this client offered (and, once established, negotiated).
    #[must_use]
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// True once the handshake completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        matches!(self.state, ClientState::Established)
    }

    fn on_server_hello(&mut self, msg: &[u8], dhe: &DheKeyPair) -> Result<(), SslError> {
        let hello = decode_server_hello(msg)?;
        if hello.suite != self.suite.wire_id() {
            return Err(SslError::NoCommonCipher);
        }
        let peer = crate::dhe::validate_public(&hello.key_share)?;
        let shared = dhe.agree(&peer);
        self.transcript.update(msg);
        let secrets = handshake_secrets(&shared, &self.th());
        activate_epoch(&mut self.records, self.suite, &secrets.server_hs, false)?;
        activate_epoch(&mut self.records, self.suite, &secrets.client_hs, true)?;
        self.state = ClientState::AwaitEncryptedExts { secrets };
        Ok(())
    }

    fn on_encrypted_exts(&mut self, msg: &[u8], secrets: HandshakeSecrets) -> Result<(), SslError> {
        let body = body_of(msg, MT_ENCRYPTED_EXTENSIONS, "encrypted extensions")?;
        let mut r = Reader { buf: body };
        let block_len = r.u16()? as usize;
        if r.buf.len() != block_len {
            return Err(SslError::Decode("encrypted extensions"));
        }
        self.transcript.update(msg);
        self.state = ClientState::AwaitCertificate { secrets };
        Ok(())
    }

    fn on_certificate(&mut self, msg: &[u8], secrets: HandshakeSecrets) -> Result<(), SslError> {
        let body = body_of(msg, MT_CERTIFICATE, "certificate")?;
        let mut r = Reader { buf: body };
        let len = r.u24()? as usize;
        let wire = r.bytes(len)?;
        if !r.buf.is_empty() {
            return Err(SslError::Decode("certificate message"));
        }
        let server_key = Certificate::from_bytes(wire)?.public_key()?;
        self.transcript.update(msg);
        self.state = ClientState::AwaitCertVerify { secrets, server_key };
        Ok(())
    }

    fn on_cert_verify(
        &mut self,
        msg: &[u8],
        secrets: HandshakeSecrets,
        server_key: &RsaPublicKey,
    ) -> Result<(), SslError> {
        let body = body_of(msg, MT_CERTIFICATE_VERIFY, "certificate verify")?;
        let mut r = Reader { buf: body };
        let scheme = r.u16()?;
        if scheme != SIG_RSA_PKCS1_SHA256 {
            return Err(SslError::Decode("signature scheme"));
        }
        let sig_len = r.u16()? as usize;
        let sig = r.bytes(sig_len)?;
        if !r.buf.is_empty() {
            return Err(SslError::Decode("certificate verify"));
        }
        let content = cert_verify_content(&self.th());
        server_key.verify_pkcs1(HashAlg::Sha256, &content, sig)?;
        self.transcript.update(msg);
        self.state = ClientState::AwaitServerFinished { secrets };
        Ok(())
    }

    fn on_server_finished(
        &mut self,
        msg: &[u8],
        secrets: &HandshakeSecrets,
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let body = body_of(msg, MT_FINISHED, "server finished")?;
        let expected = verify_data(&secrets.server_hs, &self.th());
        if body != expected.as_slice() {
            return Err(SslError::BadFinished);
        }
        self.transcript.update(msg);
        let th_ch_sfin = self.th();
        // Client Finished goes out under the handshake keys...
        let vd = verify_data(&secrets.client_hs, &th_ch_sfin);
        let fin = frame(MT_FINISHED, &vd);
        self.transcript.update(&fin);
        self.records.seal_append(ContentType::Handshake, &fin, out)?;
        // ...then both directions switch to application keys.
        let (client_ap, server_ap) = application_secrets(&secrets.master, &th_ch_sfin);
        activate_epoch(&mut self.records, self.suite, &client_ap, true)?;
        activate_epoch(&mut self.records, self.suite, &server_ap, false)?;
        self.state = ClientState::Established;
        Ok(())
    }
}

impl EngineDriven for Tls13ClientMachine {
    fn start(&mut self, out: &mut Vec<u8>) -> Result<(), SslError> {
        let ClientState::Start = std::mem::replace(&mut self.state, ClientState::Failed) else {
            return Err(SslError::NotReady("connection already started"));
        };
        let mut random = [0u8; 32];
        self.rng.fill_bytes(&mut random);
        let pair = DheKeyPair::generate(&mut self.rng);
        let hello = encode_client_hello(&random, &[self.suite.wire_id()], pair.public());
        self.transcript.update(&hello);
        self.records.seal_append(ContentType::Handshake, &hello, out)?;
        self.state = ClientState::AwaitServerHello { dhe: pair };
        Ok(())
    }

    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        _open_cycles: Cycles,
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError> {
        match std::mem::replace(&mut self.state, ClientState::Failed) {
            ClientState::AwaitServerHello { dhe } => self.on_server_hello(msg, &dhe),
            ClientState::AwaitEncryptedExts { secrets } => self.on_encrypted_exts(msg, secrets),
            ClientState::AwaitCertificate { secrets } => self.on_certificate(msg, secrets),
            ClientState::AwaitCertVerify { secrets, server_key } => {
                self.on_cert_verify(msg, secrets, &server_key)
            }
            ClientState::AwaitServerFinished { secrets } => {
                self.on_server_finished(msg, &secrets, out)
            }
            ClientState::Established => {
                Err(SslError::UnexpectedMessage { expected: "application data" })
            }
            ClientState::Start | ClientState::Failed => {
                Err(SslError::NotReady("handshake not in progress"))
            }
        }
        .map(|()| MachineStep::Continue)
    }

    fn on_change_cipher_spec(
        &mut self,
        _body: &[u8],
        _open_cycles: Cycles,
    ) -> Result<(), SslError> {
        self.state = ClientState::Failed;
        Err(SslError::UnexpectedMessage { expected: "handshake message (no CCS in TLS 1.3)" })
    }

    fn record_layer(&mut self) -> &mut RecordLayer {
        &mut self.records
    }

    fn handshake_done(&self) -> bool {
        matches!(self.state, ClientState::Established)
    }

    fn accepts_record_version(&self, major: u8, minor: u8) -> bool {
        (major, minor) == WIRE_VERSION
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::test_support::server_config;

    fn shuttle<M1: EngineDriven, M2: EngineDriven>(a: &mut Engine<M1>, b: &mut Engine<M2>) {
        let mut wire = [0u8; 4096];
        for _ in 0..32 {
            if a.is_established() && b.is_established() {
                return;
            }
            let n = a.take_output(&mut wire);
            b.feed(&wire[..n]).expect("b feed");
            let n = b.take_output(&mut wire);
            a.feed(&wire[..n]).expect("a feed");
        }
        panic!("handshake did not converge");
    }

    fn handshake(
        suite: CipherSuite,
        seed: &[u8],
    ) -> (Engine<Tls13ClientMachine>, Engine<Tls13ServerMachine<'static>>) {
        let config = server_config();
        let mut client =
            Engine::new(Tls13ClientMachine::new(suite, SslRng::from_seed(seed))).expect("client");
        let mut server =
            Engine::new(Tls13ServerMachine::new(config, SslRng::from_seed(b"t13-server")))
                .expect("server");
        shuttle(&mut client, &mut server);
        (client, server)
    }

    #[test]
    fn full_handshake_and_data_every_suite() {
        for suite in CipherSuite::ALL {
            let (mut client, mut server) = handshake(suite, b"t13-client");
            assert!(client.is_established());
            assert!(server.is_established());
            assert_eq!(server.machine().suite(), suite);

            client.seal(b"GET / HTTP/1.0\r\n\r\n").expect("seal");
            let bytes = client.output().to_vec();
            let n = bytes.len();
            client.consume_output(n);
            server.feed(&bytes).expect("feed");
            let range = server.open_next().expect("open").expect("one record");
            assert_eq!(&server.buffered()[range], b"GET / HTTP/1.0\r\n\r\n", "{suite}");

            server.seal(b"200 OK").expect("seal");
            let bytes = server.output().to_vec();
            let n = bytes.len();
            server.consume_output(n);
            client.feed(&bytes).expect("feed");
            let range = client.open_next().expect("open").expect("one record");
            assert_eq!(&client.buffered()[range], b"200 OK");
        }
    }

    #[test]
    fn ledger_has_all_ten_steps_and_dhe_exec() {
        let (_, server) = handshake(CipherSuite::RsaDesCbc3Sha, b"t13-ledger");
        let ledger = server.machine().ledger();
        assert_eq!(ledger.protocol, Protocol::Tls13);
        assert!(!ledger.resumed);
        for (i, (name, cycles)) in ledger.steps.iter().enumerate() {
            assert_eq!(*name, TLS13_STEP_NAMES[i]);
            assert!(cycles.get() > 0, "step {name} has cycles");
        }
        // Inline mode: exec recorded, no queue wait.
        assert!(ledger.kx_exec.get() > 0);
        assert_eq!(ledger.kx_queue_wait.get(), 0);
        assert!(server.machine().crypto().get("rsa_sign").is_some());
        assert!(server.machine().crypto().get("hkdf_key_schedule").is_some());
    }

    #[test]
    fn offloaded_handshake_is_byte_identical_to_inline() {
        let config = server_config();
        let mut wire = [0u8; 4096];
        let mut flights_by_mode: Vec<Vec<Vec<u8>>> = Vec::new();
        for offload in [false, true] {
            let mut client = Engine::new(Tls13ClientMachine::new(
                CipherSuite::RsaDesCbc3Sha,
                SslRng::from_seed(b"t13-pin-client"),
            ))
            .expect("client");
            let mut server =
                Engine::new(Tls13ServerMachine::new(config, SslRng::from_seed(b"t13-pin-server")))
                    .expect("server");
            server.set_crypto_offload(offload);
            let mut flights = Vec::new();
            for _ in 0..16 {
                if client.is_established() && server.is_established() {
                    break;
                }
                let n = client.take_output(&mut wire);
                server.feed(&wire[..n]).expect("server feed");
                if server.crypto_pending() {
                    let job = server.take_crypto_job().expect("job");
                    let done = job.execute(config.key());
                    server.complete_crypto(done).expect("resume");
                }
                let n = server.take_output(&mut wire);
                flights.push(wire[..n].to_vec());
                client.feed(&wire[..n]).expect("client feed");
            }
            assert!(client.is_established() && server.is_established(), "offload={offload}");
            flights_by_mode.push(flights);
        }
        assert_eq!(flights_by_mode[0], flights_by_mode[1], "offload changes server bytes");
    }

    #[test]
    fn offloaded_ledger_splits_queue_from_exec() {
        let config = server_config();
        let mut client = Engine::new(Tls13ClientMachine::new(
            CipherSuite::RsaDesCbc3Sha,
            SslRng::from_seed(b"t13-off-client"),
        ))
        .expect("client");
        let mut server =
            Engine::new(Tls13ServerMachine::new(config, SslRng::from_seed(b"t13-off-server")))
                .expect("server");
        server.set_crypto_offload(true);
        let mut wire = [0u8; 4096];
        for _ in 0..16 {
            if client.is_established() && server.is_established() {
                break;
            }
            let n = client.take_output(&mut wire);
            server.feed(&wire[..n]).expect("server feed");
            if server.crypto_pending() {
                let job = server.take_crypto_job().expect("job");
                let done = job.execute(config.key());
                server.complete_crypto(done).expect("resume");
            }
            let n = server.take_output(&mut wire);
            client.feed(&wire[..n]).expect("client feed");
        }
        let ledger = server.machine().ledger();
        assert!(ledger.kx_exec.get() > 0);
        assert!(ledger.kx_queue_wait.get() > 0, "queue wait attributed");
    }

    #[test]
    fn tampered_server_finished_rejected() {
        // A wrong suite in the client's offer yields NoCommonCipher on the
        // server; a corrupted Finished must fail verification client-side.
        let config = server_config();
        let mut client = Engine::new(Tls13ClientMachine::new(
            CipherSuite::RsaRc4Sha,
            SslRng::from_seed(b"t13-tamper-c"),
        ))
        .expect("client");
        let mut server =
            Engine::new(Tls13ServerMachine::new(config, SslRng::from_seed(b"t13-tamper-s")))
                .expect("server");
        let mut wire = [0u8; 4096];
        let n = client.take_output(&mut wire);
        server.feed(&wire[..n]).expect("server feed");
        let mut flight = server.output().to_vec();
        let out_len = flight.len();
        server.consume_output(out_len);
        // Flip a byte in the last record (the server Finished ciphertext):
        // the record MAC catches it, which is this design's integrity gate.
        let last = flight.len() - 1;
        flight[last] ^= 0x40;
        let err = client.feed(&flight).expect_err("tampered flight accepted");
        assert!(
            matches!(err, SslError::MacMismatch | SslError::BadFinished | SslError::BadPadding),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn wrong_version_client_hello_rejected() {
        let config = server_config();
        let mut server =
            Engine::new(Tls13ServerMachine::new(config, SslRng::from_seed(b"t13-ver-s")))
                .expect("server");
        // An SSLv3 record header: the 1.3 machine must refuse at the
        // record layer (version gate), not mid-parse.
        let err = server.feed(&[22, 3, 0, 0, 4, 1, 0, 0, 0]).expect_err("accepted ssl3 record");
        assert_eq!(err, SslError::UnsupportedVersion { major: 3, minor: 0 });
    }

    #[test]
    fn missing_key_share_rejected() {
        let config = server_config();
        let mut server =
            Engine::new(Tls13ServerMachine::new(config, SslRng::from_seed(b"t13-ks-s")))
                .expect("server");
        // A 1.3 hello with no extensions at all.
        let mut body = vec![WIRE_VERSION.0, WIRE_VERSION.1];
        body.extend_from_slice(&[7u8; 32]);
        body.push(0);
        body.extend_from_slice(&2u16.to_be_bytes());
        body.extend_from_slice(&CipherSuite::RsaDesCbc3Sha.wire_id().to_be_bytes());
        let hello = frame(MT_CLIENT_HELLO, &body);
        let mut layer = RecordLayer::with_wire_version(WIRE_VERSION);
        let mut record = crate::RecordBuffer::new();
        layer.seal_into(ContentType::Handshake, &hello, &mut record).expect("seal");
        let err = server.feed(record.as_slice()).expect_err("accepted hello without key share");
        assert_eq!(err, SslError::Decode("missing key share"));
    }

    #[test]
    fn expand_label_shapes() {
        // Structural KATs: length-exact, label-sensitive, context-sensitive.
        let secret = [0x0bu8; 32];
        let a = expand_label(&secret, "key", &[], 24);
        assert_eq!(a.len(), 24);
        assert_ne!(a, expand_label(&secret, "iv", &[], 24));
        assert_ne!(a[..], expand_label(&secret, "key", &[1], 24)[..]);
        let ds = derive_secret(&secret, "c hs traffic", &[0u8; 32]);
        assert_eq!(ds.len(), 32);
    }

    #[test]
    fn key_schedule_is_deterministic_and_input_sensitive() {
        let th = [0x42u8; 32];
        let a = handshake_secrets(&[1u8; 256], &th);
        let b = handshake_secrets(&[1u8; 256], &th);
        assert_eq!(a.client_hs, b.client_hs);
        assert_eq!(a.master, b.master);
        let c = handshake_secrets(&[2u8; 256], &th);
        assert_ne!(a.client_hs, c.client_hs);
        assert_ne!(a.server_hs, a.client_hs);
        let (cap, sap) = application_secrets(&a.master, &th);
        assert_ne!(cap, sap);
    }
}
