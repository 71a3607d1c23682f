//! The sans-io handshake engine: byte-oriented SSL connections decoupled
//! from any I/O driver.
//!
//! [`Engine`] wraps a handshake state machine ([`SslClient`] or
//! [`SslServer`]) behind a purely byte-oriented API: the caller pushes
//! whatever bytes the transport produced with [`Engine::feed`] — a single
//! byte, half a record, or three coalesced flights — and drains whatever
//! the connection wants to send with [`Engine::take_output`] /
//! [`Engine::output`]. The engine owns the per-connection
//! [`RecordBuffer`]s, reassembles records from arbitrary read boundaries,
//! and reassembles handshake *messages* across record boundaries, so
//! handshake messages fragmented over many TCP reads and multiple messages
//! coalesced into one record both work.
//!
//! Every driver in the workspace is a thin loop over this type:
//!
//! * in-memory drivers pass whole flights between two engines with
//!   [`Engine::feed_from`] (the paper's `ssltest`-style Table 2 harness),
//! * socket drivers move bytes with [`Engine::read_from`] /
//!   [`Engine::write_to`] over any `std::io` stream (the blocking load
//!   clients and baseline server), or feed whatever a non-blocking `read`
//!   returned (the event-loop server).
//!
//! Post-handshake, [`Engine::seal`] appends application-data records to the
//! outbound buffer and [`Engine::open_next`] decrypts buffered records in
//! place — the zero-allocation record pipeline, driver-agnostic. Record
//! framing, with its content-type, version and length checks, happens in
//! one place whichever way the bytes came in.
//!
//! # Examples
//!
//! ```
//! use sslperf_rng::SslRng;
//! use sslperf_rsa::RsaPrivateKey;
//! use sslperf_ssl::{CipherSuite, ClientEngine, Engine, ServerConfig, SslClient, SslServer};
//!
//! let mut rng = SslRng::from_seed(b"engine-doc");
//! let key = RsaPrivateKey::generate(512, &mut rng)?;
//! let config = ServerConfig::new(key, "doc.example")?;
//!
//! let mut client: ClientEngine =
//!     Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"c")))?;
//! let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"s")))?;
//!
//! // Shuttle bytes until both sides are established — byte counts per
//! // hop are the driver's business, not the engine's.
//! let mut wire = [0u8; 4096];
//! while !(client.is_established() && server.is_established()) {
//!     let n = client.take_output(&mut wire);
//!     server.feed(&wire[..n])?;
//!     let n = server.take_output(&mut wire);
//!     client.feed(&wire[..n])?;
//! }
//!
//! client.seal(b"GET / HTTP/1.0\r\n\r\n")?;
//! let n = client.take_output(&mut wire);
//! server.feed(&wire[..n])?;
//! let range = server.open_next()?.expect("one full record buffered");
//! assert_eq!(&server.buffered()[range], b"GET / HTTP/1.0\r\n\r\n");
//! # Ok::<(), sslperf_ssl::SslError>(())
//! ```

use crate::alert::Alert;
use crate::ledger::HandshakeRecorder;
use crate::record::{ContentType, RecordBuffer, RecordLayer, RECORD_HEADER_LEN};
use crate::{SslClient, SslError, SslServer, MAX_RECORD_BODY, VERSION};
use sslperf_profile::{measure, Cycles, PhaseSet, Stopwatch};
use sslperf_rng::SslRng;
use sslperf_rsa::{BatchCipher, RsaError, RsaPrivateKey};
use std::io::{ErrorKind, Read, Write};
use std::ops::Range;

/// Inbound buffering cap: two maximum records. [`Engine::feed`] and
/// [`Engine::read_from`] take at most this much un-processed input,
/// returning a shorter count when the caller must first drain application
/// records — natural backpressure for event-loop drivers.
const HIGH_WATER: usize = 2 * (RECORD_HEADER_LEN + MAX_RECORD_BODY);

/// The machines an [`Engine`] drives: the workspace's own, no others.
pub trait Sealed {
    /// The step recorder whose clock the engine runs around each call into
    /// a server machine; client machines have none and read no clock.
    fn recorder(&mut self) -> Option<&mut HandshakeRecorder> {
        None
    }
}

impl Sealed for SslClient {}
impl Sealed for crate::tls13::Tls13ClientMachine {}
impl Sealed for crate::machine::ClientMachine {}

/// What a state machine did with one handshake message: kept going, or
/// suspended on a crypto operation the driver must run out-of-band.
#[derive(Debug)]
pub enum MachineStep {
    /// The message was fully handled; keep pumping.
    Continue,
    /// The machine parked itself on its key exchange; the engine runs the
    /// job or hands it to a pool (see [`Engine::set_crypto_offload`]).
    /// Boxed: the job carries the full RNG state, which would otherwise
    /// dominate the size of every step result.
    PendingCrypto(Box<CryptoJob>),
}

/// The key-exchange computation a [`CryptoJob`] carries: the one expensive
/// public-key operation of either protocol's handshake.
#[derive(Debug)]
pub enum CryptoOp {
    /// SSLv3: decrypt the client's encrypted pre-master secret.
    RsaDecrypt {
        /// PKCS#1 ciphertext from the ClientKeyExchange message.
        ciphertext: Vec<u8>,
    },
    /// TLS 1.3-style: generate an ephemeral ffdhe2048 key pair and agree
    /// against the peer's (already range-validated) public value.
    DheAgree {
        /// The validated peer public value.
        peer: sslperf_bignum::Bn,
    },
    /// Bulk-cipher offload: MAC-then-encrypt one record's worth of
    /// plaintext (AES-128-CBC + HMAC-SHA1, keys drawn from the job's own
    /// rng clone). Engines never suspend on this op — it exists so a
    /// crypto pool can run record sealing alongside the key-exchange job
    /// classes.
    BulkSeal {
        /// Plaintext to seal; at most one record fragment.
        payload: Vec<u8>,
    },
}

/// An opaque key-exchange request, detached from the connection so a
/// crypto worker pool can execute it while the event loop keeps sweeping
/// other sockets. Carries either protocol's expensive operation (see
/// [`CryptoOp`]): RSA decryption for SSLv3, the DHE exponentiations for
/// TLS 1.3 — both suspend at the same engine point and resume through
/// [`Engine::complete_crypto`].
///
/// The job carries a clone of the connection's seeded [`SslRng`] (for the
/// RSA blinding draw, or the DHE exponent), so the connection's own rng
/// stream never advances during the operation: a handshake is
/// byte-identical whether the engine or a pool worker runs its job.
#[derive(Debug)]
pub struct CryptoJob {
    op: CryptoOp,
    rng: SslRng,
    /// Started at suspension; elapsed time when execution begins is the
    /// queue wait the Table 2 ledger keeps beside, not inside, the step.
    submitted: Stopwatch,
}

impl CryptoJob {
    pub(crate) fn new(op: CryptoOp, rng: SslRng) -> Self {
        CryptoJob { op, rng, submitted: Stopwatch::start() }
    }

    /// Creates a standalone bulk-cipher job: seal `payload` (clamped to one
    /// record fragment) under keys drawn from `rng`. Unlike the key-exchange
    /// constructors this is public — bulk jobs are submitted by the serving
    /// layer, not emitted by a suspending engine.
    #[must_use]
    pub fn new_bulk(mut payload: Vec<u8>, rng: SslRng) -> Self {
        payload.truncate(crate::MAX_FRAGMENT);
        Self::new(CryptoOp::BulkSeal { payload }, rng)
    }

    /// Which operation this job performs (RSA jobs batch; DHE jobs run
    /// solo even when batched together).
    #[must_use]
    pub fn op(&self) -> &CryptoOp {
        &self.op
    }

    /// Runs the key-exchange computation. Callable from any thread; the
    /// result must go back to the owning engine via
    /// [`Engine::complete_crypto`]. DHE jobs never touch `key` (it is the
    /// server's RSA private key, needed only by the SSLv3 path).
    #[must_use]
    pub fn execute(self, key: &RsaPrivateKey) -> CryptoDone {
        let queue_wait = self.submitted.elapsed();
        let CryptoJob { op, mut rng, .. } = self;
        let (output, exec) = match op {
            CryptoOp::RsaDecrypt { ciphertext } => {
                let mut scratch = PhaseSet::new();
                let (pre_master, exec) =
                    measure(|| key.decrypt_instrumented(&ciphertext, &mut rng, &mut scratch));
                (pre_master.map(CryptoOutput::PreMaster), exec)
            }
            CryptoOp::DheAgree { peer } => {
                let (agreed, exec) = measure(|| crate::dhe::agree_ephemeral(&mut rng, &peer));
                (Ok(CryptoOutput::Dhe(agreed)), exec)
            }
            CryptoOp::BulkSeal { payload } => {
                let (sealed, exec) = measure(|| {
                    let suite = crate::CipherSuite::RsaAes128Sha;
                    let key = rng.bytes(suite.key_len());
                    let iv = rng.bytes(suite.iv_len());
                    let mac = rng.bytes(suite.mac_alg().output_len());
                    let cipher =
                        suite.new_cipher(&key, &iv).expect("fixed-length key and iv are valid");
                    let mut records = RecordLayer::new();
                    records.activate_write(cipher, suite.mac_alg(), mac);
                    let mut out = RecordBuffer::with_record_capacity();
                    records
                        .seal_into(ContentType::ApplicationData, &payload, &mut out)
                        .expect("payload clamped to one fragment");
                    out.as_slice().to_vec()
                });
                (Ok(CryptoOutput::Sealed(sealed)), exec)
            }
        };
        CryptoDone { output, queue_wait, exec }
    }

    /// Runs a batch of jobs, one [`CryptoDone`] per job in submission
    /// order.
    ///
    /// RSA jobs go through [`RsaPrivateKey::decrypt_batch`] together: the
    /// batch shares one blinding acquisition and one scratch context (see
    /// the `sslperf-rsa` batch module); the first RSA job's rng seeds the
    /// blinding draw on a cache miss, exactly as that job's own
    /// [`CryptoJob::execute`] would have — connection rng streams never
    /// advance either way, so wire flights stay byte-identical. Each RSA
    /// done reports the *amortized* exec cost (total batch cycles / batch
    /// size): summed over jobs it equals what the batch actually cost,
    /// which keeps the ledger's step-5 totals honest.
    ///
    /// DHE jobs gain nothing from batching (no shared blinding state) and
    /// execute individually; their results slot back into the original
    /// submission order alongside the batched RSA results.
    #[must_use]
    pub fn execute_batch(jobs: Vec<CryptoJob>, key: &RsaPrivateKey) -> Vec<CryptoDone> {
        let mut dones = Vec::with_capacity(jobs.len());
        let mut rsa_slots = Vec::new();
        let mut ciphertexts = Vec::new();
        let mut rng = None;
        for (i, job) in jobs.into_iter().enumerate() {
            match job.op {
                CryptoOp::RsaDecrypt { ciphertext } => {
                    rng.get_or_insert(job.rng);
                    rsa_slots.push((i, job.submitted));
                    ciphertexts.push(BatchCipher::new(ciphertext));
                }
                op => dones.push((i, CryptoJob { op, ..job }.execute(key))),
            }
        }
        if let Some(mut rng) = rng {
            let queue_waits: Vec<Cycles> = rsa_slots.iter().map(|(_, sw)| sw.elapsed()).collect();
            let (results, total) = measure(|| key.decrypt_batch(&ciphertexts, &mut rng));
            let exec = Cycles::new(total.get() / ciphertexts.len() as u64);
            for (((i, _), queue_wait), pre_master) in
                rsa_slots.into_iter().zip(queue_waits).zip(results)
            {
                let output = pre_master.map(CryptoOutput::PreMaster);
                dones.push((i, CryptoDone { output, queue_wait, exec }));
            }
        }
        dones.sort_unstable_by_key(|&(i, _)| i);
        dones.into_iter().map(|(_, done)| done).collect()
    }
}

/// What a [`CryptoJob`] produced, matching its [`CryptoOp`].
#[derive(Debug)]
pub enum CryptoOutput {
    /// The decrypted SSLv3 pre-master secret.
    PreMaster(Vec<u8>),
    /// The server's ephemeral public value plus the agreed DHE secret.
    Dhe(crate::dhe::DheAgreed),
    /// The MAC-then-encrypted record bytes of a [`CryptoOp::BulkSeal`] job.
    Sealed(Vec<u8>),
}

/// The result of an executed [`CryptoJob`], carrying the job's one clock:
/// how long it sat queued (suspension to execution start) and how long
/// the computation itself ran.
#[derive(Debug)]
pub struct CryptoDone {
    output: Result<CryptoOutput, RsaError>,
    queue_wait: Cycles,
    exec: Cycles,
}

impl CryptoDone {
    /// Cycles between suspension and the start of execution (queue wait).
    #[must_use]
    pub fn queue_wait(&self) -> Cycles {
        self.queue_wait
    }

    /// Cycles the public-key computation itself took (amortized over the
    /// batch when the job was executed as part of one).
    #[must_use]
    pub fn exec(&self) -> Cycles {
        self.exec
    }

    /// What the job produced (or the crypto error it hit). Engines consume
    /// results via [`Engine::complete_crypto`]; this accessor is for
    /// standalone job classes — bulk seals — whose results never re-enter
    /// a handshake machine.
    pub fn output(&self) -> &Result<CryptoOutput, RsaError> {
        &self.output
    }

    pub(crate) fn into_parts(self) -> (Result<CryptoOutput, RsaError>, Cycles, Cycles) {
        (self.output, self.queue_wait, self.exec)
    }
}

/// A handshake state machine an [`Engine`] can drive (sealed: implemented
/// by the SSLv3 and TLS 1.3 client and server machines and the
/// protocol-dispatching [`ClientMachine`](crate::ClientMachine) /
/// [`ServerMachine`](crate::ServerMachine)).
///
/// The engine handles record framing and handshake-message reassembly;
/// implementations only see whole messages, in order. Around each call into
/// a server machine — the record open that precedes it included — the
/// engine starts and stops the machine's step clock, so the paper's
/// per-step attribution survives the sans-io split without the machine
/// timing anything itself.
/// A server machine always suspends at its key exchange; who runs the job
/// is the engine's choice ([`Engine::set_crypto_offload`]).
pub trait EngineDriven: Sealed {
    /// Emits any connection-opening bytes (the client hello flight; servers
    /// emit nothing).
    ///
    /// # Errors
    ///
    /// Returns state-machine errors (e.g. called on a used connection).
    fn start(&mut self, out: &mut Vec<u8>) -> Result<(), SslError>;

    /// Handles one complete handshake message (4-byte header included),
    /// appending any reply records to `out`. Returns
    /// [`MachineStep::PendingCrypto`] when the machine suspended on its
    /// key exchange.
    ///
    /// # Errors
    ///
    /// Returns decode, crypto, and sequencing errors.
    fn on_handshake_message(
        &mut self,
        msg: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<MachineStep, SslError>;

    /// Resumes a handshake suspended at [`MachineStep::PendingCrypto`] with
    /// the executed job's result. The default rejects the call: only
    /// machines that can suspend (the server) override it.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] when no crypto operation is pending,
    /// plus the validation errors of the resumed step.
    fn complete_crypto(&mut self, done: CryptoDone, out: &mut Vec<u8>) -> Result<(), SslError> {
        let _ = (done, out);
        Err(SslError::NotReady("machine does not suspend on crypto"))
    }

    /// The private key a suspended [`CryptoJob`] executes against when
    /// the engine runs it itself. `None` (the default) for machines that
    /// never suspend.
    fn crypto_key(&self) -> Option<&RsaPrivateKey> {
        None
    }

    /// Handles a change-cipher-spec record body.
    ///
    /// # Errors
    ///
    /// Returns sequencing errors when the CCS is unexpected or malformed.
    fn on_change_cipher_spec(&mut self, body: &[u8]) -> Result<(), SslError>;

    /// The connection's record layer (shared by handshake and bulk phases,
    /// so sequence numbers and cipher states stay consistent).
    fn record_layer(&mut self) -> &mut RecordLayer;

    /// True once the handshake completed.
    fn handshake_done(&self) -> bool;

    /// Whether an inbound record header with this protocol version should
    /// be processed. The default accepts only SSLv3's `(3, 0)`; the
    /// TLS 1.3-style machines accept `(3, 4)`, and the protocol-sniffing
    /// server dispatch accepts both until the first hello decides.
    fn accepts_record_version(&self, major: u8, minor: u8) -> bool {
        (major, minor) == VERSION
    }
}

/// A client-side sans-io connection.
pub type ClientEngine = Engine<SslClient>;

/// A server-side sans-io connection.
pub type ServerEngine<'a> = Engine<SslServer<'a>>;

/// A driver-agnostic SSL connection: byte-oriented I/O over a handshake
/// state machine. See the module-level docs for the API shape and an
/// end-to-end example.
#[derive(Debug)]
pub struct Engine<M: EngineDriven> {
    machine: M,
    /// Raw inbound bytes; `in_pos` marks how far records were consumed.
    inbox: RecordBuffer,
    in_pos: usize,
    /// Decrypted handshake-record payloads awaiting message reassembly.
    msgs: Vec<u8>,
    msg_pos: usize,
    /// Sealed outbound records; `out_pos` marks how far the driver wrote.
    outbox: RecordBuffer,
    out_pos: usize,
    failed: Option<SslError>,
    /// True when a pool runs key-exchange jobs; false when the engine does.
    offload: bool,
    /// A job the machine suspended on, not yet taken by the driver.
    pending_job: Option<CryptoJob>,
    /// True from suspension until [`Engine::complete_crypto`]; while set,
    /// fed bytes buffer (bounded by the high-water mark) but no records
    /// are opened, preserving strict message order across the suspension.
    awaiting_crypto: bool,
}

impl<M: EngineDriven> Engine<M> {
    /// Wraps a fresh state machine and emits its opening bytes (the client
    /// hello; nothing for servers).
    ///
    /// # Errors
    ///
    /// Propagates state-machine errors from the opening flight.
    pub fn new(machine: M) -> Result<Self, SslError> {
        let mut engine = Engine {
            machine,
            inbox: RecordBuffer::new(),
            in_pos: 0,
            msgs: Vec::new(),
            msg_pos: 0,
            outbox: RecordBuffer::new(),
            out_pos: 0,
            failed: None,
            offload: false,
            pending_job: None,
            awaiting_crypto: false,
        };
        if let Err(e) = engine.machine.start(engine.outbox.vec_mut()) {
            engine.failed = Some(e.clone());
            return Err(e);
        }
        Ok(engine)
    }

    /// The wrapped state machine (step timings, suite, session handles).
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Unwraps the engine, returning the state machine.
    pub fn into_machine(self) -> M {
        self.machine
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.machine.handshake_done()
    }

    /// The error that poisoned this connection, if any.
    pub fn last_error(&self) -> Option<&SslError> {
        self.failed.as_ref()
    }

    /// True while the connection can make progress from more peer bytes.
    pub fn wants_read(&self) -> bool {
        self.failed.is_none()
    }

    /// True while sealed bytes are waiting to be written to the peer.
    pub fn wants_write(&self) -> bool {
        self.pending_output() > 0
    }

    /// Bytes currently waiting in the outbound buffer.
    pub fn pending_output(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    /// The outbound bytes waiting to be written. Pair with
    /// [`Engine::consume_output`] after a (possibly partial) write.
    pub fn output(&self) -> &[u8] {
        &self.outbox.as_slice()[self.out_pos..]
    }

    /// Marks `n` outbound bytes as written (a partial `write` consumes a
    /// prefix; the rest stays queued).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`Engine::pending_output`].
    pub fn consume_output(&mut self, n: usize) {
        assert!(n <= self.pending_output(), "consumed more output than pending");
        self.out_pos += n;
        if self.out_pos == self.outbox.len() {
            self.outbox.clear();
            self.out_pos = 0;
        }
    }

    /// Copies pending outbound bytes into `out`, consuming them. Returns
    /// the number of bytes copied (0 when nothing is pending).
    pub fn take_output(&mut self, out: &mut [u8]) -> usize {
        let n = self.pending_output().min(out.len());
        out[..n].copy_from_slice(&self.output()[..n]);
        self.consume_output(n);
        n
    }

    /// Bytes buffered but not yet opened (a partial record, or application
    /// records awaiting [`Engine::open_next`]).
    pub fn unconsumed(&self) -> usize {
        self.inbox.len() - self.in_pos
    }

    /// The inbound buffer; ranges returned by [`Engine::open_next`] index
    /// into this slice and stay valid until the next [`Engine::feed`] or
    /// [`Engine::read_from`].
    pub fn buffered(&self) -> &[u8] {
        self.inbox.as_slice()
    }

    /// Feeds transport bytes into the connection, driving the handshake as
    /// far as the bytes allow. Returns how many bytes were consumed — less
    /// than `bytes.len()` when the inbound buffer is full of application
    /// records the caller has not yet drained with [`Engine::open_next`].
    ///
    /// Besides progress (`Ok`) and poison (`Err`), a feed can leave the
    /// connection in a third state: *pending crypto*. When a pool is
    /// attached (see [`Engine::set_crypto_offload`]) and the machine hits
    /// its key exchange, the handshake suspends —
    /// [`Engine::crypto_pending`] turns true and [`Engine::take_crypto_job`]
    /// yields the [`CryptoJob`] to execute out-of-band. Until
    /// [`Engine::complete_crypto`] delivers the result, further fed bytes
    /// buffer (bounded by the high-water mark) without being processed.
    /// Without a pool the engine runs the job itself within the feed.
    ///
    /// # Errors
    ///
    /// Returns handshake, record-layer, and [`SslError::PeerAlert`] errors;
    /// any error poisons the connection (see [`Engine::last_error`]).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<usize, SslError> {
        self.ingest(|inbox, space| {
            let take = bytes.len().min(space);
            inbox.extend_from_slice(&bytes[..take]);
            Ok(take)
        })
    }

    /// Feeds `peer`'s pending output into this engine and consumes what
    /// was taken — one whole flight through memory, the way OpenSSL's
    /// `ssltest` harness (the paper's §3.2 instrument) connects two state
    /// machines in one process. Returns how many bytes moved: all of them
    /// unless this engine's inbound buffer is full of application records
    /// not yet drained with [`Engine::open_next`].
    ///
    /// # Errors
    ///
    /// Every error [`Engine::feed`] returns; `peer` keeps its output then.
    pub fn feed_from<N: EngineDriven>(&mut self, peer: &mut Engine<N>) -> Result<usize, SslError> {
        let n = self.feed(peer.output())?;
        peer.consume_output(n);
        Ok(n)
    }

    /// Reads once from `rd` straight into the inbound buffer — at most its
    /// free space, so every byte read is consumed and the caller keeps no
    /// leftover — then drives the handshake as far as the bytes allow,
    /// like [`Engine::feed`]. Once the buffer is warm this allocates
    /// nothing. The blocking drivers pair it with [`Engine::write_to`].
    ///
    /// Returns how many bytes were read; `Ok(0)` means end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] when the read fails (a socket timeout
    /// satisfies [`SslError::is_timeout`]) and [`SslError::NotReady`] when
    /// the buffer is full of application records not yet drained with
    /// [`Engine::open_next`]; neither poisons the connection. Every error
    /// [`Engine::feed`] returns does.
    pub fn read_from(&mut self, rd: &mut impl Read) -> Result<usize, SslError> {
        self.ingest(|inbox, space| {
            if space == 0 {
                return Err(SslError::NotReady("inbound buffer full"));
            }
            let start = inbox.len();
            inbox.resize(start + space, 0);
            let n = loop {
                match rd.read(&mut inbox[start..]) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        inbox.truncate(start);
                        return Err(io_error(&e));
                    }
                }
            };
            inbox.truncate(start + n);
            Ok(n)
        })
    }

    /// Writes all pending output to `wr` and flushes it.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] when a write fails or `wr` accepts no more
    /// bytes; what was not written stays queued.
    pub fn write_to(&mut self, wr: &mut impl Write) -> Result<(), SslError> {
        while self.wants_write() {
            match wr.write(self.output()) {
                Ok(0) => return Err(SslError::Io("peer accepted no bytes".into())),
                Ok(n) => self.consume_output(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(&e)),
            }
        }
        wr.flush().map_err(|e| io_error(&e))
    }

    /// Compacts the inbox, lets `fill` append at most its free space and
    /// drives the handshake over what arrived. An error from `fill` leaves
    /// the connection as it was; a handshake error poisons it.
    fn ingest(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>, usize) -> Result<usize, SslError>,
    ) -> Result<usize, SslError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        // Compact: drop consumed record bytes so the buffer never grows
        // past the high-water mark (a drain is a memmove, not an alloc).
        if self.in_pos > 0 {
            if self.in_pos == self.inbox.len() {
                self.inbox.clear();
            } else {
                self.inbox.vec_mut().drain(..self.in_pos);
            }
            self.in_pos = 0;
        }
        let space = HIGH_WATER.saturating_sub(self.inbox.len());
        let n = fill(self.inbox.vec_mut(), space)?;
        if !self.machine.handshake_done() {
            if let Err(e) = self.drive() {
                self.failed = Some(e.clone());
                return Err(e);
            }
        }
        Ok(n)
    }

    /// Attaches or detaches a crypto pool. A server machine always suspends
    /// at its key exchange with a [`CryptoJob`]. Without a pool (the
    /// default) the engine runs the job itself at once, booking a queue
    /// wait of exactly zero; with one, the handshake waits for
    /// [`Engine::complete_crypto`]. A no-op for the client, which never
    /// suspends.
    pub fn set_crypto_offload(&mut self, enabled: bool) {
        self.offload = enabled;
    }

    /// True while the handshake is suspended on an out-of-band crypto
    /// operation (between a feed that hit the key-exchange boundary and the
    /// matching [`Engine::complete_crypto`]).
    #[must_use]
    pub fn crypto_pending(&self) -> bool {
        self.awaiting_crypto
    }

    /// Takes the suspended crypto job, if one is waiting to be executed.
    /// The engine stays suspended until [`Engine::complete_crypto`].
    pub fn take_crypto_job(&mut self) -> Option<CryptoJob> {
        self.pending_job.take()
    }

    /// Delivers an executed [`CryptoJob`]'s result, resuming the handshake
    /// exactly where it suspended: the machine finishes its step, then the
    /// engine re-drives any records that buffered during the suspension
    /// (typically the client's CCS ‖ finished flight).
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] when no crypto operation is pending,
    /// plus every error the resumed handshake steps can produce; errors
    /// poison the connection like any feed error.
    pub fn complete_crypto(&mut self, done: CryptoDone) -> Result<(), SslError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if !self.awaiting_crypto {
            return Err(SslError::NotReady("no crypto operation pending"));
        }
        self.awaiting_crypto = false;
        self.pending_job = None;
        let result = self.resume(done).and_then(|()| self.drive());
        if let Err(e) = result {
            self.failed = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Hands the machine every reassembled handshake message, opening
    /// handshake-phase records from the inbox as it needs more, until the
    /// handshake completes, suspends, or the bytes run out mid-record.
    fn drive(&mut self) -> Result<(), SslError> {
        while !self.machine.handshake_done() {
            if self.awaiting_crypto {
                // Suspended: later flights (the client's CCS ‖ finished)
                // buffer until the crypto result arrives.
                return Ok(());
            }
            let record = if self.next_message_len().is_some() {
                None
            } else if let Some(total) = self.peek_record_len()? {
                Some(total)
            } else {
                return Ok(());
            };
            match self.clocked(|engine| engine.call(record))? {
                MachineStep::Continue => {}
                MachineStep::PendingCrypto(job) if self.offload => {
                    self.pending_job = Some(*job);
                    self.awaiting_crypto = true;
                }
                MachineStep::PendingCrypto(job) => self.run_crypto(*job)?,
            }
        }
        // Handshake messages may not dangle past the finished exchange.
        if self.msg_pos < self.msgs.len() {
            return Err(SslError::Decode("trailing handshake data"));
        }
        Ok(())
    }

    /// The one place the step clock runs: started before `call`, which may
    /// open a record ahead of its machine call, and stopped when it
    /// returns. Machines without a recorder (clients) read no clock.
    fn clocked<T>(&mut self, call: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(recorder) = self.machine.recorder() {
            recorder.start();
        }
        let result = call(self);
        if let Some(recorder) = self.machine.recorder() {
            recorder.stop();
        }
        result
    }

    /// One machine call: opens the `record`-byte record at `in_pos` when
    /// given, then hands the machine a change-cipher-spec body or the next
    /// reassembled handshake message, if one is complete. Opening an
    /// encrypted handshake record is the active step's
    /// `pri_decryption_and_mac`.
    fn call(&mut self, record: Option<usize>) -> Result<MachineStep, SslError> {
        if let Some(total) = record {
            let start = self.in_pos;
            let layer = self.machine.record_layer();
            let encrypted = layer.reads_protected();
            let (ct, range) = layer.open_slice(&mut self.inbox.vec_mut()[start..start + total])?;
            self.in_pos += total;
            let body = &self.inbox.as_slice()[start + range.start..start + range.end];
            let handshake = ct == ContentType::Handshake;
            if let Some(recorder) = self.machine.recorder().filter(|_| encrypted && handshake) {
                let open = recorder.lap();
                recorder.note("pri_decryption_and_mac", open);
            }
            match ct {
                ContentType::Handshake => self.msgs.extend_from_slice(body),
                ContentType::ChangeCipherSpec => {
                    self.machine.on_change_cipher_spec(body)?;
                    return Ok(MachineStep::Continue);
                }
                ContentType::Alert => return Err(SslError::PeerAlert(Alert::from_bytes(body)?)),
                ContentType::ApplicationData => {
                    return Err(SslError::UnexpectedMessage { expected: "handshake message" });
                }
            }
        }
        let Some(len) = self.next_message_len() else { return Ok(MachineStep::Continue) };
        let msg = &self.msgs[self.msg_pos..self.msg_pos + len];
        let step = self.machine.on_handshake_message(msg, self.outbox.vec_mut())?;
        self.msg_pos += len;
        if self.msg_pos == self.msgs.len() {
            self.msgs.clear();
            self.msg_pos = 0;
        }
        Ok(step)
    }

    /// The length of the next complete message in the reassembly buffer.
    fn next_message_len(&self) -> Option<usize> {
        let avail = &self.msgs[self.msg_pos..];
        if avail.len() < 4 {
            return None;
        }
        let body = usize::from(avail[1]) << 16 | usize::from(avail[2]) << 8 | usize::from(avail[3]);
        (avail.len() >= 4 + body).then_some(4 + body)
    }

    /// Runs a suspended job on the caller's thread, outside the step clock,
    /// and resumes the machine at once, with a queue wait of exactly zero.
    fn run_crypto(&mut self, job: CryptoJob) -> Result<(), SslError> {
        let key = self.machine.crypto_key().ok_or(SslError::NotReady("no key for crypto job"))?;
        self.resume(CryptoDone { queue_wait: Cycles::ZERO, ..job.execute(key) })
    }

    /// Resumes the suspended machine with an executed job's result.
    fn resume(&mut self, done: CryptoDone) -> Result<(), SslError> {
        self.clocked(|engine| engine.machine.complete_crypto(done, engine.outbox.vec_mut()))
    }

    /// Returns the total wire length of the record at `in_pos`, or `None`
    /// when the buffered bytes end mid-header or mid-body.
    fn peek_record_len(&self) -> Result<Option<usize>, SslError> {
        let avail = &self.inbox.as_slice()[self.in_pos..];
        if avail.len() < RECORD_HEADER_LEN {
            return Ok(None);
        }
        ContentType::from_u8(avail[0])?;
        if !self.machine.accepts_record_version(avail[1], avail[2]) {
            return Err(SslError::UnsupportedVersion { major: avail[1], minor: avail[2] });
        }
        let body_len = usize::from(avail[3]) << 8 | usize::from(avail[4]);
        if body_len > MAX_RECORD_BODY {
            return Err(SslError::Decode("record length"));
        }
        if avail.len() < RECORD_HEADER_LEN + body_len {
            return Ok(None);
        }
        Ok(Some(RECORD_HEADER_LEN + body_len))
    }

    /// Seals application data into the outbound buffer (bulk-data phase).
    /// Allocation-free once the buffer is warmed to capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::NotReady`] before the handshake completes.
    pub fn seal(&mut self, data: &[u8]) -> Result<(), SslError> {
        if !self.machine.handshake_done() {
            return Err(SslError::NotReady("handshake incomplete"));
        }
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.compact_outbox();
        self.machine.record_layer().seal_append(
            ContentType::ApplicationData,
            data,
            self.outbox.vec_mut(),
        )
    }

    fn compact_outbox(&mut self) {
        if self.out_pos > 0 {
            if self.out_pos == self.outbox.len() {
                self.outbox.clear();
            } else {
                self.outbox.vec_mut().drain(..self.out_pos);
            }
            self.out_pos = 0;
        }
    }

    /// Opens the next complete buffered application-data record in place,
    /// returning the plaintext range into [`Engine::buffered`] (valid until
    /// the next [`Engine::feed`]). `Ok(None)` means more bytes are needed.
    /// Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::PeerAlert`] when the peer sent an alert
    /// (including orderly `close_notify` closure), [`SslError::NotReady`]
    /// before the handshake completes, and record-layer errors. Any error
    /// poisons the connection.
    pub fn open_next(&mut self) -> Result<Option<Range<usize>>, SslError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if !self.machine.handshake_done() {
            return Err(SslError::NotReady("handshake incomplete"));
        }
        let result = self.open_next_inner();
        if let Err(e) = &result {
            self.failed = Some(e.clone());
        }
        result
    }

    fn open_next_inner(&mut self) -> Result<Option<Range<usize>>, SslError> {
        let Some(total) = self.peek_record_len()? else { return Ok(None) };
        let start = self.in_pos;
        let record = &mut self.inbox.vec_mut()[start..start + total];
        let (ct, range) = self.machine.record_layer().open_slice(record)?;
        self.in_pos += total;
        let abs = start + range.start..start + range.end;
        match ct {
            ContentType::ApplicationData => Ok(Some(abs)),
            ContentType::Alert => {
                Err(SslError::PeerAlert(Alert::from_bytes(&self.inbox.as_slice()[abs])?))
            }
            _ => Err(SslError::UnexpectedMessage { expected: "application data" }),
        }
    }

    /// Queues a `close_notify` alert record (the orderly "End Session").
    /// Works even on a poisoned connection, so drivers can say goodbye
    /// after an error.
    ///
    /// # Errors
    ///
    /// Propagates record-layer failures.
    pub fn queue_close_notify(&mut self) -> Result<(), SslError> {
        self.queue_alert(Alert::close_notify())
    }

    /// Queues an alert record. Works even on a poisoned connection — this
    /// is how drivers send the fatal alert describing the error that
    /// poisoned it.
    ///
    /// # Errors
    ///
    /// Propagates record-layer failures.
    pub fn queue_alert(&mut self, alert: Alert) -> Result<(), SslError> {
        self.compact_outbox();
        self.machine.record_layer().seal_append(
            ContentType::Alert,
            &alert.to_bytes(),
            self.outbox.vec_mut(),
        )
    }
}

/// Maps a stream error, marking read/write timeouts (`WouldBlock` on Unix,
/// `TimedOut` on Windows) so [`SslError::is_timeout`] can tell a stalled
/// peer from a dead one.
fn io_error(e: &std::io::Error) -> SslError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => SslError::Io(format!("timed out: {e}")),
        _ => SslError::Io(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::server_config;
    use crate::CipherSuite;

    fn header(content_type: u8, version: (u8, u8), body_len: usize) -> [u8; RECORD_HEADER_LEN] {
        [content_type, version.0, version.1, (body_len >> 8) as u8, body_len as u8]
    }

    fn server() -> ServerEngine<'static> {
        Engine::new(SslServer::new(server_config(), SslRng::from_seed(b"limit-s"))).unwrap()
    }

    /// Frames `header` alone while the handshake runs: `feed` does it.
    fn frame_during_handshake(header: &[u8]) -> Result<(), SslError> {
        server().feed(header).map(|_| ())
    }

    /// Frames `header` alone on an established connection: `open_next`
    /// does it.
    fn frame_after_handshake(header: &[u8]) -> Result<(), SslError> {
        let mut client =
            Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"limit-c")))?;
        let mut server = server();
        let mut wire = [0u8; 4096];
        while !(client.is_established() && server.is_established()) {
            let n = client.take_output(&mut wire);
            server.feed(&wire[..n])?;
            let n = server.take_output(&mut wire);
            client.feed(&wire[..n])?;
        }
        client.feed(header)?;
        client.open_next().map(|_| ())
    }

    /// The SSLv3 record ceiling and the header checks are decided on the
    /// five header bytes, before any body byte arrives, in both phases.
    #[test]
    fn record_header_is_checked_during_and_after_handshake() {
        for (frame, content_type) in [
            (frame_during_handshake as fn(&[u8]) -> Result<(), SslError>, 22),
            (frame_after_handshake, 23),
        ] {
            assert_eq!(frame(&header(content_type, VERSION, MAX_RECORD_BODY)), Ok(()));
            assert_eq!(
                frame(&header(content_type, VERSION, MAX_RECORD_BODY + 1)),
                Err(SslError::Decode("record length"))
            );
            assert_eq!(frame(&header(99, VERSION, 1)), Err(SslError::Decode("content type")));
            assert_eq!(
                frame(&header(content_type, (3, 1), 1)),
                Err(SslError::UnsupportedVersion { major: 3, minor: 1 })
            );
        }
    }

    #[test]
    fn read_from_reports_end_of_stream_as_zero() {
        let mut server = server();
        assert_eq!(server.read_from(&mut &[22u8, 3, 0][..]), Ok(3));
        assert_eq!(server.read_from(&mut &[][..]), Ok(0));
        assert_eq!(server.unconsumed(), 3, "a partial header waits for more");
    }
}
