//! The event-loop server: many connections multiplexed per thread.
//!
//! [`EventLoopServer`] runs a small number of *shard* threads, each
//! sweeping a set of non-blocking sockets: every connection holds a
//! sans-io [`Engine`] plus its socket, and a shard makes whatever progress
//! each socket's readiness allows — partial reads feed the engine
//! byte-by-byte, partial writes drain its outbound buffer, and the
//! engine's own buffering reassembles records and handshake messages
//! split across arbitrary TCP boundaries.
//!
//! A response is a producer the write phase pulls from, never a buffer:
//! a request installs a [`ResponseStream`](sslperf_websim::http::ResponseStream)
//! cursor on its connection, and each pump, before each `write`, generates
//! fragments into the shard's scratch buffer and seals them until the
//! outbox holds four records (64 KiB) — at most four records per pump,
//! after which the shard moves on to its other connections and comes back.
//! So a connection holds four sealed records (five for the instant before
//! a write) however large its document or slow its reader, a bulk
//! download costs its neighbours one refill of latency rather than one
//! document, and the client opens record 1 while record 5 is being
//! sealed. While a response is pending the connection reads nothing and
//! opens no further request, so pipelined requests are answered in order
//! and the inbox keeps its bound too. Every response takes this path —
//! documents of any size, 404s, the `/metrics` exposition, either
//! protocol machine — and a 1 KiB one is one fragment, one refill, one
//! write.
//!
//! Every shard accepts from one shared non-blocking listener: the
//! server's own, or, under [`ServerFleet`](crate::ServerFleet), the
//! fleet's, which the shards of all its instances share, so the kernel's
//! one accept queue feeds whichever shard asks first.
//!
//! A thread-per-connection server
//! caps its concurrency at its thread count; one shard carries an order
//! of magnitude more concurrent handshakes, which is the C10k argument
//! the paper's serving analysis leads to (the `loaded_server` experiment
//! measures it against a blocking baseline).
//!
//! There is no async runtime and no `poll(2)` binding here (this crate is
//! `#![forbid(unsafe_code)]` and the workspace takes no external deps):
//! readiness is discovered by attempting the syscall and treating
//! `WouldBlock` as "not ready", with a short sleep when a full sweep makes
//! no progress. That costs a bounded idle latency (~0.5 ms) but keeps the
//! loop dependency-free while preserving the architecture under study.
//!
//! Stalled connections are evicted by per-connection deadlines
//! ([`ServerOptionsBuilder::io_timeout`](crate::ServerOptionsBuilder::io_timeout)):
//! a connection that neither delivers nor accepts bytes before its
//! deadline is counted in
//! [`ServerStats::timeouts`] and closed with an alert — fatal
//! `handshake_failure` mid-handshake (a slowloris suspect), orderly
//! `close_notify` once established; either way whatever was left of a
//! pending response is dropped, so the alert is the last thing sent. A
//! key exchange out in the crypto pool is the server's delay, not the
//! client's: its deadline is deferred instead.
//!
//! Each connection is in one phase, and the phase alone says what a pump
//! does with it:
//!
//! | phase | reads | writes | leaves on |
//! |---|---|---|---|
//! | `Handshake` | yes, fed to the engine | its handshake flights | the handshake completing (booked once) → `Idle` |
//! | `Idle` | yes, each complete request opened | what is left in its outbox | a request → `Responding` |
//! | `Responding` | no | the response, refilled up to four records per pump | its last fragment sealed → `Idle`, which opens the next buffered request |
//! | `Draining` | no | its outbox only, ending with an alert unless the peer half-closed | an empty outbox, or one more deadline → `Closed` |
//! | `Closed` | no | nothing | the shard drops it after the sweep |
//!
//! Every other way out of a phase is into `Draining`: an error or the
//! peer's `close_notify` (answered with one), a deadline, EOF on read, and
//! a key exchange the pool refuses. Each of them drops what was left of a
//! response, or comes when none is pending — EOF is read only by a
//! reading phase — so a draining connection owes nothing but its outbox.
//! A peer that half-closes after its request still gets the whole
//! response. A socket error or a zero-byte write closes the connection
//! from any phase.

use crate::cryptopool::{CryptoPool, PoolReply, SubmitError};
use crate::metrics::ServerStats;
use crate::server::{build_config, Outgoing, ServerOptions};
use sslperf_profile::measure;
use sslperf_rng::SslRng;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::alert::{Alert, AlertDescription};
use sslperf_ssl::{
    Engine, ServerConfig, ServerMachine, ShardedSessionCache, SslError, MAX_FRAGMENT,
};
use sslperf_websim::http::HttpRequest;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle shard sleeps before re-sweeping its sockets.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Per-sweep I/O buffer, one per shard thread and reused by every
/// connection it owns: reads land in it, and the write phase generates
/// each response fragment into it. Exactly one maximum record fragment, so
/// sealing it whole cuts the records a seal of the whole response would.
const SCRATCH_LEN: usize = MAX_FRAGMENT;

/// The write phase tops a connection's outbox up to this many sealed bytes
/// (four full records) before each `write` and no further: with a response
/// pending, the outbox never holds more than this plus one sealed record.
const OUTBOX_LOW_WATER: usize = 4 * MAX_FRAGMENT;

/// Most records one pump seals for one connection. Loopback rarely
/// blocks, so without this bound one pump ships a whole document and the
/// shard serves nobody else meanwhile; with it a bulk download yields to
/// the other connections every four records.
const REFILLS_PER_PUMP: usize = 4;

/// A running SSL web server.
///
/// Started with [`EventLoopServer::start`]; serves until
/// [`EventLoopServer::shutdown`] (or drop).
#[derive(Debug)]
pub struct EventLoopServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shards: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
    cache: Arc<ShardedSessionCache>,
    config: Arc<ServerConfig>,
    /// The crypto offload pool, present when `crypto_workers > 0`.
    pool: Option<Arc<CryptoPool>>,
}

impl EventLoopServer {
    /// Binds a non-blocking listener, installs a sharded session cache
    /// into the server configuration, and spawns `options.shards` event
    /// loop threads, each accepting from the shared listener.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] when the bind fails and certificate errors
    /// from [`ServerConfig::with_cache`].
    pub fn start(
        key: RsaPrivateKey,
        name: &str,
        options: &ServerOptions,
    ) -> Result<Self, SslError> {
        Self::start_on(key, name, options, bind(options)?, "")
    }

    /// The shared start path: every shard accepts from `listener`, which
    /// `start` binds for this server alone and the fleet binds once for
    /// all its instances. `seed_tag` distinguishes the per-connection RNG
    /// streams of servers that coexist behind one address — without it,
    /// two fleet instances would draw identical "random" session ids for
    /// their nth connections, and a fresh full-handshake id could collide
    /// with the id another instance handed the same client. Empty keeps
    /// the standalone seeding unchanged.
    pub(crate) fn start_on(
        key: RsaPrivateKey,
        name: &str,
        options: &ServerOptions,
        listener: Arc<TcpListener>,
        seed_tag: &str,
    ) -> Result<Self, SslError> {
        let addr = listener.local_addr().map_err(|e| SslError::Io(e.to_string()))?;
        let cache = Arc::new(ShardedSessionCache::with_ttl(
            options.cache_shards,
            options.cache_capacity_per_shard,
            options.session_ttl,
        ));
        let config = Arc::new(build_config(key, name, &cache, options.ticket_keys.as_ref())?);
        let seed_prefix: Arc<str> = if seed_tag.is_empty() {
            Arc::from("sslperf-eventloop")
        } else {
            Arc::from(format!("sslperf-eventloop-{seed_tag}"))
        };

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let pool = (options.crypto_workers > 0).then(|| {
            Arc::new(CryptoPool::start_with(
                options.crypto_workers,
                options.batch_max,
                Arc::clone(&config),
                Arc::clone(&stats),
            ))
        });
        let shards = (0..options.shards)
            .map(|index| {
                let (reply_tx, reply_rx) = mpsc::channel();
                let shard = Shard {
                    index,
                    seed_prefix: Arc::clone(&seed_prefix),
                    listener: Arc::clone(&listener),
                    config: Arc::clone(&config),
                    stats: Arc::clone(&stats),
                    stop: Arc::clone(&stop),
                    pool: pool.clone(),
                    reply_tx,
                    reply_rx,
                    io_timeout: options.io_timeout,
                    expose_metrics: options.metrics,
                    seq: 0,
                    scratch: vec![0u8; SCRATCH_LEN],
                };
                std::thread::spawn(move || shard.run())
            })
            .collect();

        Ok(EventLoopServer { addr, stop, shards, stats, cache, config, pool })
    }

    /// The bound address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's registry: every serving counter and the live anatomy,
    /// recorded on every run. [`ServerStats::snapshot`] freezes it into
    /// the paper-shaped tables.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The sharded session cache (hit/miss counters live here).
    #[must_use]
    pub fn session_cache(&self) -> &Arc<ShardedSessionCache> {
        &self.cache
    }

    /// The underlying SSL server configuration.
    #[must_use]
    pub fn config(&self) -> &Arc<ServerConfig> {
        &self.config
    }

    /// Stops accepting, closes every in-flight connection, and joins the
    /// shard threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    /// Joins every thread that records into [`EventLoopServer::stats`]:
    /// after this the registry holds the server's final numbers.
    pub(crate) fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The listener is non-blocking, so shards notice the flag on their
        // next sweep without any unblocking trick.
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        // With every shard joined this is the last pool handle; dropping
        // it drains the queue and joins the crypto workers.
        self.pool = None;
    }
}

impl Drop for EventLoopServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Binds the non-blocking listener at `options.addr` that a server's (or a
/// fleet's) shards accept from.
pub(crate) fn bind(options: &ServerOptions) -> Result<Arc<TcpListener>, SslError> {
    let listener = TcpListener::bind(&options.addr).map_err(|e| SslError::Io(e.to_string()))?;
    listener.set_nonblocking(true).map_err(|e| SslError::Io(e.to_string()))?;
    Ok(Arc::new(listener))
}

/// One event-loop thread and everything its connections share. It accepts
/// new sockets and sweeps every connection it owns, sleeping only when a
/// full pass made no progress anywhere. With a crypto pool attached, key
/// exchanges leave the sweep as jobs and return through the shard's reply
/// channel — one stalled handshake no longer blocks the whole shard.
struct Shard {
    /// This shard's index among the server's: part of each connection's
    /// RNG seed, after `seed_prefix` (see [`EventLoopServer::start_on`]).
    index: usize,
    seed_prefix: Arc<str>,
    listener: Arc<TcpListener>,
    config: Arc<ServerConfig>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    /// The crypto offload pool, present when the server has one.
    pool: Option<Arc<CryptoPool>>,
    /// The pool sends this shard's executed jobs back on this channel.
    reply_tx: Sender<PoolReply>,
    reply_rx: Receiver<PoolReply>,
    io_timeout: Option<Duration>,
    /// Whether `GET /metrics` is answered with the rendered registry.
    expose_metrics: bool,
    /// Connections accepted so far; the latest one's id and seed number.
    seq: u64,
    /// The per-sweep I/O buffer ([`SCRATCH_LEN`]).
    scratch: Vec<u8>,
}

impl Shard {
    /// Serves until the stop flag is raised.
    fn run(mut self) {
        // Connections borrow the configuration for their whole life: from
        // this handle, not the field, so each pump can borrow the shard.
        let config = Arc::clone(&self.config);
        let mut conns: Vec<Conn<'_>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let mut progress = false;
            // Accept burst: drain the backlog, then get back to serving.
            while let Ok((stream, _)) = self.listener.accept() {
                progress = true;
                self.seq += 1;
                conns.extend(Conn::accept(stream, &config, &self));
            }
            // Route executed crypto jobs back to their connections first, so
            // the pump below can flush the resumed handshake's flight.
            while let Ok(reply) = self.reply_rx.try_recv() {
                progress = true;
                self.route(&mut conns, reply);
            }
            let now = Instant::now();
            conns.retain_mut(|conn| {
                progress |= conn.pump(&mut self, now);
                !matches!(conn.phase, Phase::Closed)
            });
            if !progress {
                // With a key exchange pending, park on the reply channel
                // instead of a flat sleep: the shard wakes the instant a
                // decrypt lands rather than up to IDLE_SLEEP later — the
                // difference between offloaded and inline tail latency when
                // crypto is the bottleneck.
                if conns.iter().any(|c| c.engine.crypto_pending()) {
                    if let Ok(reply) = self.reply_rx.recv_timeout(IDLE_SLEEP) {
                        self.route(&mut conns, reply);
                    }
                } else {
                    std::thread::sleep(IDLE_SLEEP);
                }
            }
        }
    }

    /// Hands an executed crypto result to the connection that submitted it.
    /// A missing id means the connection was evicted mid-decrypt; the result
    /// is dropped.
    fn route(&self, conns: &mut [Conn<'_>], reply: PoolReply) {
        if let Some(conn) = conns.iter_mut().find(|c| c.id == reply.conn) {
            conn.finish_crypto(reply, self);
        }
    }

    /// A connection's deadline after traffic at `now`.
    fn deadline(&self, now: Instant) -> Option<Instant> {
        self.io_timeout.map(|t| now + t)
    }
}

/// One multiplexed connection: a non-blocking socket plus the sans-io
/// engine holding its handshake/record state between readiness events.
struct Conn<'a> {
    stream: TcpStream,
    engine: Engine<ServerMachine<'a>>,
    /// Shard-local id: routes crypto-pool replies back to this connection.
    id: u64,
    /// Evict when `Instant::now()` passes this without traffic.
    deadline: Option<Instant>,
    phase: Phase,
}

/// Where a connection is in its life, and so what a pump does with it
/// (the table in the module doc).
enum Phase {
    /// Reading and feeding the handshake; its key exchange may be out in
    /// the crypto pool meanwhile.
    Handshake,
    /// Established with no response pending: reading and opening requests.
    Idle,
    /// Streaming this response out, from the request that asked for it
    /// until its last fragment is sealed. Nothing is read and no further
    /// request is opened meanwhile: pipelined requests wait in the socket
    /// and the engine's bounded inbox, and stay ordered.
    Responding(Outgoing),
    /// Closing: no more reads, only the outbox to send — which ends with
    /// an alert, unless the peer half-closed first.
    Draining,
    /// Finished; the shard drops the connection after this sweep.
    Closed,
}

impl<'a> Conn<'a> {
    /// Wraps a freshly accepted socket as the shard's connection number
    /// `shard.seq`. Returns `None` when socket setup fails (the peer is
    /// already gone).
    fn accept(stream: TcpStream, config: &'a ServerConfig, shard: &Shard) -> Option<Self> {
        let seed = format!("{}-{}-{}", shard.seed_prefix, shard.index, shard.seq);
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let rng = SslRng::from_seed(seed.as_bytes());
        let mut engine = Engine::new(ServerMachine::new(config, rng)).ok()?;
        engine.set_crypto_offload(shard.pool.is_some());
        let deadline = shard.deadline(Instant::now());
        Some(Conn { stream, engine, id: shard.seq, deadline, phase: Phase::Handshake })
    }

    /// Read interest: a connection reads only with no response pending and
    /// no close begun.
    fn reads(&self) -> bool {
        matches!(self.phase, Phase::Handshake | Phase::Idle)
    }

    /// Stops reading and gives the outbound buffer one fresh deadline
    /// window to flush before the connection is dropped.
    fn start_draining(&mut self, shard: &Shard, now: Instant) {
        self.phase = Phase::Draining;
        self.deadline = shard.deadline(now);
    }

    /// Makes whatever progress the socket allows: deadline check, read +
    /// feed, job submission, request serving, refill + write. Returns true
    /// when anything moved.
    fn pump(&mut self, shard: &mut Shard, now: Instant) -> bool {
        let mut progress = false;

        // Deadline eviction (the event-loop half of the slowloris guard).
        // A connection whose key exchange sits in the crypto queue is
        // stalled on *us*, not the client: evicting it would count a
        // spurious timeout and deliver the executed result to a dead slot.
        // Defer the deadline instead, and count the deferral so saturation
        // stays visible in the stats.
        if self.deadline.is_some_and(|deadline| now >= deadline) {
            match self.phase {
                // The peer stopped reading its goodbye (or the response a
                // half-closed client was owed): drop it.
                Phase::Draining => self.phase = Phase::Closed,
                Phase::Closed => {}
                _ if self.engine.crypto_pending() => {
                    shard.stats.crypto_deadline_deferrals.inc();
                    self.deadline = shard.deadline(now);
                }
                _ => {
                    shard.stats.timeouts.inc();
                    let alert = if self.engine.is_established() {
                        Alert::close_notify()
                    } else {
                        Alert::fatal(AlertDescription::HandshakeFailure)
                    };
                    if self.engine.queue_alert(alert).is_ok() {
                        shard.stats.alerts_sent.inc();
                    }
                    // Whoever let a response stall this long is not
                    // reading it: draining drops the rest, so the alert is
                    // the last thing sent.
                    self.start_draining(shard, now);
                    progress = true;
                }
            }
        }

        // Read phase: pull whatever the socket has and feed the engine.
        // Not while a response is pending — later requests wait in the
        // socket, so the inbox stays within its bound and nothing read is
        // ever dropped for want of room.
        while self.reads() {
            match self.stream.read(&mut shard.scratch) {
                // EOF: the peer half-closed. Nothing more will arrive, but
                // whatever is already queued for it must still go out.
                Ok(0) => self.start_draining(shard, now),
                Ok(n) => {
                    progress = true;
                    self.deadline = shard.deadline(now);
                    self.feed_bytes(&shard.scratch[..n], shard);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.phase = Phase::Closed,
            }
        }

        // The bytes just fed may have suspended the engine at its key
        // exchange: hand the job to the pool and keep sweeping.
        progress |= self.submit_crypto(shard);

        // Serve any complete requests that arrived exactly on a previous
        // sweep's bytes (feed_bytes drains eagerly, this is the catch-all).
        if matches!(self.phase, Phase::Idle) {
            self.drain_requests(shard);
        }

        // Write phase: top the outbox up from the pending response, flush
        // it as far as the socket accepts, and keep the rest — sealed and
        // not yet generated alike — for the next sweep.
        let mut refills = REFILLS_PER_PUMP;
        while !matches!(self.phase, Phase::Closed) {
            self.refill(shard, &mut refills);
            if !self.engine.wants_write() {
                break;
            }
            match self.stream.write(self.engine.output()) {
                Ok(0) => self.phase = Phase::Closed,
                Ok(n) => {
                    progress = true;
                    self.engine.consume_output(n);
                    self.deadline = shard.deadline(now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.phase = Phase::Closed,
            }
        }

        // A draining connection owes only its outbox: flushed, it is done.
        if matches!(self.phase, Phase::Draining) && !self.engine.wants_write() {
            self.phase = Phase::Closed;
        }
        progress
    }

    /// Seals the pending response's next fragments into the outbox: up to
    /// [`OUTBOX_LOW_WATER`] bytes queued, at most `refills` records (the
    /// pump's remaining budget, decremented here). The fragment that ends a
    /// response reports it (a workload response is a transaction) and
    /// opens the next pipelined request, if one is already buffered.
    fn refill(&mut self, shard: &mut Shard, refills: &mut usize) {
        while *refills > 0 && self.engine.pending_output() < OUTBOX_LOW_WATER {
            let Phase::Responding(outgoing) = &mut self.phase else { return };
            if let Err(e) = outgoing.seal_next(&mut self.engine, &mut shard.scratch) {
                self.fail(&e, &shard.stats);
                return;
            }
            *refills -= 1;
            if outgoing.is_done() {
                outgoing.report(&shard.stats);
                self.phase = Phase::Idle;
                self.drain_requests(shard);
            }
        }
    }

    /// Feeds freshly read bytes through the engine, serving requests as
    /// they complete so the inbound buffer keeps making room.
    fn feed_bytes(&mut self, bytes: &[u8], shard: &Shard) {
        let mut offset = 0;
        while offset < bytes.len() && !matches!(self.phase, Phase::Draining) {
            match self.engine.feed(&bytes[offset..]) {
                Ok(0) => {
                    // Inbound buffer full of unserved records: drain, then
                    // retry. No movement means the connection is stuck.
                    let before = self.engine.unconsumed();
                    self.drain_requests(shard);
                    if matches!(self.phase, Phase::Draining) || self.engine.unconsumed() == before {
                        break;
                    }
                }
                Ok(consumed) => {
                    offset += consumed;
                    self.note_established(&shard.stats);
                    if matches!(self.phase, Phase::Idle) {
                        self.drain_requests(shard);
                    }
                }
                Err(e) => {
                    self.fail(&e, &shard.stats);
                }
            }
        }
    }

    /// Moves a freshly suspended key exchange to the crypto pool. A pool
    /// refuses a job only once it is shut down; it can never run it, so
    /// the connection fails outright.
    /// Returns true when a job entered the queue (or the connection
    /// transitioned to draining).
    fn submit_crypto(&mut self, shard: &Shard) -> bool {
        let Some(pool) = shard.pool.as_deref() else { return false };
        if !matches!(self.phase, Phase::Handshake) {
            return false;
        }
        let Some(job) = self.engine.take_crypto_job() else { return false };
        match pool.try_submit(self.id, job, &shard.reply_tx) {
            Ok(()) => true,
            Err(SubmitError::ShutDown(_)) => {
                // The handshake can never resume: its decrypt has nowhere
                // to run. Fail fast with a fatal alert (SSLv3 has no
                // internal_error description) instead of retrying forever.
                shard.stats.errors.inc();
                if self.engine.queue_alert(Alert::fatal(AlertDescription::HandshakeFailure)).is_ok()
                {
                    shard.stats.alerts_sent.inc();
                }
                self.phase = Phase::Draining;
                true
            }
        }
    }

    /// Resumes the handshake with an executed crypto result: the engine
    /// picks up exactly where it suspended, and the response flight the
    /// resume produced is flushed by the next write phase.
    fn finish_crypto(&mut self, reply: PoolReply, shard: &Shard) {
        // The queue wait is over; the client's timeout window restarts
        // now rather than from its last pre-suspension byte.
        self.deadline = shard.deadline(Instant::now());
        if !matches!(self.phase, Phase::Handshake) {
            return;
        }
        match self.engine.complete_crypto(reply.done) {
            Ok(()) => {
                self.note_established(&shard.stats);
                if matches!(self.phase, Phase::Idle) {
                    self.drain_requests(shard);
                }
            }
            Err(e) => self.fail(&e, &shard.stats),
        }
    }

    /// The `Handshake → Idle` transition, taken the first time the engine
    /// is seen established; it books the handshake, once.
    fn note_established(&mut self, stats: &ServerStats) {
        if matches!(self.phase, Phase::Handshake) && self.engine.is_established() {
            self.phase = Phase::Idle;
            stats.note_handshake(&self.engine.machine().ledger());
        }
    }

    /// Opens the next complete buffered application record and installs
    /// the response to it for the write phase to stream — the HTTP
    /// transaction loop, event-loop style. One response at a time: with
    /// one pending, later requests stay buffered until [`Conn::refill`]
    /// seals its last fragment and calls back here. Mid-handshake (an
    /// inbox the peer filled while its key exchange was out) the open is
    /// refused and the connection fails.
    ///
    /// The open is timed end-to-end (pure compute here — the sans-io
    /// engine never touches the socket), and the crypto-kernel share is
    /// read as the delta of the record layer's monotone crypto counter
    /// around the call.
    fn drain_requests(&mut self, shard: &Shard) {
        while self.reads() {
            let crypto_before = self.engine.machine().record_crypto_cycles();
            let (opened, open_cycles) = measure(|| self.engine.open_next());
            match opened {
                Ok(Some(range)) => {
                    let crypto = self.engine.machine().record_crypto_cycles() - crypto_before;
                    shard.stats.note_record_open(range.len(), open_cycles, crypto);
                    match HttpRequest::parse(&self.engine.buffered()[range]) {
                        Ok(request) => {
                            let outgoing =
                                Outgoing::for_request(&request, &shard.stats, shard.expose_metrics);
                            self.phase = Phase::Responding(outgoing);
                        }
                        Err(e) => self.fail(&e, &shard.stats),
                    }
                }
                Ok(None) => return,
                Err(e) => self.fail(&e, &shard.stats),
            }
        }
    }

    /// Starts an orderly close after `error`: count it, queue the proper
    /// alert (close_notify reply, fatal alert, or silence for transport
    /// failures), and switch to draining, which drops whatever is left of
    /// a pending response so the alert is the last thing sent.
    fn fail(&mut self, error: &SslError, stats: &ServerStats) {
        match error {
            SslError::PeerAlert(alert) if alert.is_close_notify() => {
                if self.engine.queue_close_notify().is_ok() {
                    stats.alerts_sent.inc();
                }
            }
            SslError::Io(_) => {}
            _ => {
                stats.errors.inc();
                if let Some(alert) = Alert::for_error(error) {
                    if self.engine.queue_alert(alert).is_ok() {
                        stats.alerts_sent.inc();
                    }
                }
            }
        }
        self.phase = Phase::Draining;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_ssl::{CipherSuite, ContentType, SslClient, MAX_RECORD_BODY, RECORD_HEADER_LEN};
    use sslperf_websim::http::{synthesize_document, HttpResponse, ResponseStream};

    fn unit_key() -> RsaPrivateKey {
        let mut rng = SslRng::from_seed(b"eventloop-unit-key");
        RsaPrivateKey::generate(512, &mut rng).expect("keygen")
    }

    fn start(options: &ServerOptions) -> EventLoopServer {
        EventLoopServer::start(unit_key(), "unit.sslperf.test", options).expect("server start")
    }

    /// `crypto_workers(0)` means no pool at all; `crypto_workers(2)` means
    /// exactly two engines.
    #[test]
    fn crypto_workers_size_the_pool() {
        let inline = start(&ServerOptions::builder().crypto_workers(0).build().expect("options"));
        assert!(inline.pool.is_none(), "no pool");
        inline.shutdown();

        let pooled = start(&ServerOptions::builder().crypto_workers(2).build().expect("options"));
        assert_eq!(pooled.pool.as_deref().map(CryptoPool::engines), Some(2), "two engines");
        pooled.shutdown();
    }

    const IO_TIMEOUT: Duration = Duration::from_secs(5);

    /// One `Conn` and the client it serves, joined by a loopback socket
    /// pair and both driven from the test thread — no shard, no sleeps,
    /// so a test decides exactly who reads, who pumps, and what time it is.
    struct Harness<'a> {
        conn: Conn<'a>,
        shard: Shard,
        stats: Arc<ServerStats>,
        client: Engine<SslClient>,
        socket: TcpStream,
        /// The plaintext the client has opened, and the length of each
        /// application record it came in.
        received: Vec<u8>,
        record_lens: Vec<usize>,
    }

    fn unit_config() -> Arc<ServerConfig> {
        Arc::new(ServerConfig::new(unit_key(), "unit.sslperf.test").expect("config"))
    }

    impl<'a> Harness<'a> {
        /// Connects the pair and completes the handshake.
        fn establish(config: &'a Arc<ServerConfig>) -> Self {
            let (reply_tx, reply_rx) = mpsc::channel();
            let shard = Shard {
                index: 0,
                seed_prefix: Arc::from("unit"),
                listener: Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind")),
                config: Arc::clone(config),
                stats: Arc::new(ServerStats::default()),
                stop: Arc::new(AtomicBool::new(false)),
                pool: None,
                reply_tx,
                reply_rx,
                io_timeout: Some(IO_TIMEOUT),
                expose_metrics: false,
                seq: 0,
                scratch: vec![0u8; SCRATCH_LEN],
            };
            let rng = SslRng::from_seed(b"unit-client");
            let client = SslClient::new(CipherSuite::RsaAes128Sha, rng);
            let mut harness = Harness::connect(config, shard, client);
            harness.run_until("handshake", Self::established);
            harness
        }

        /// Connects `client` to `shard`'s listener and accepts the socket
        /// as the shard's next connection, with no byte exchanged yet.
        fn connect(config: &'a ServerConfig, mut shard: Shard, client: SslClient) -> Self {
            let addr = shard.listener.local_addr().expect("addr");
            let socket = TcpStream::connect(addr).expect("connect");
            socket.set_nonblocking(true).expect("nonblocking");
            let (accepted, _) = shard.listener.accept().expect("accept");
            shard.seq += 1;
            let conn = Conn::accept(accepted, config, &shard).expect("socket setup");
            Harness {
                conn,
                stats: Arc::clone(&shard.stats),
                shard,
                client: Engine::new(client).expect("hello"),
                socket,
                received: Vec::new(),
                record_lens: Vec::new(),
            }
        }

        fn established(&self) -> bool {
            self.client.is_established() && self.conn.engine.is_established()
        }

        fn pump(&mut self, now: Instant) -> bool {
            self.conn.pump(&mut self.shard, now)
        }

        /// Seals one GET per path and writes them all in a single flight.
        fn request(&mut self, paths: &[&str]) {
            for path in paths {
                let request = format!("GET {path} HTTP/1.0\r\n\r\n");
                self.client.seal(request.as_bytes()).expect("seal request");
            }
            self.client_write();
        }

        fn client_write(&mut self) {
            while self.client.wants_write() {
                match self.socket.write(self.client.output()) {
                    Ok(n) => self.client.consume_output(n),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("client write: {e}"),
                }
            }
        }

        /// Reads whatever the server sent and opens every complete record.
        fn client_read(&mut self) {
            let mut buf = [0u8; 8192];
            loop {
                let n = match self.socket.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) => panic!("client read: {e}"),
                };
                let mut offset = 0;
                while offset < n {
                    offset += self.client.feed(&buf[offset..n]).expect("feed");
                    while self.client.is_established() {
                        let Some(range) = self.client.open_next().expect("open") else { break };
                        self.record_lens.push(range.len());
                        self.received.extend_from_slice(&self.client.buffered()[range]);
                    }
                }
            }
        }

        /// Drives both ends, the client reading, until `done` holds.
        fn run_until(&mut self, what: &str, done: impl Fn(&Self) -> bool) {
            let give_up = Instant::now() + Duration::from_secs(20);
            while !done(self) {
                assert!(Instant::now() < give_up, "timed out waiting for {what}");
                self.client_write();
                self.pump(Instant::now());
                self.client_read();
            }
        }
    }

    /// Asserts `wire` is exactly the `200 OK` carrying `path`'s document.
    fn assert_document(wire: &[u8], path: &str, size: usize) {
        let response = HttpResponse::parse(wire).expect("one complete response");
        assert_eq!(response.status(), 200);
        assert!(response.body() == synthesize_document(path, size), "body is byte-exact");
    }

    /// A client that asks for 1 GiB and never reads costs the server four
    /// sealed records, not a document — and is evicted like any stalled
    /// peer.
    #[test]
    fn unread_response_is_bounded_by_the_low_water_mark() {
        let config = unit_config();
        let mut h = Harness::establish(&config);
        h.request(&["/doc_1073741824.bin"]);

        // Pump to WouldBlock: the request is in, the socket is full.
        let give_up = Instant::now() + Duration::from_secs(20);
        while h.pump(Instant::now()) || !matches!(h.conn.phase, Phase::Responding(_)) {
            assert!(Instant::now() < give_up, "socket never blocked");
        }
        let bound = OUTBOX_LOW_WATER + 5 + MAX_RECORD_BODY;
        let held = h.conn.engine.pending_output();
        assert!(held >= OUTBOX_LOW_WATER && held <= bound, "outbox holds {held}");
        for _ in 0..100 {
            assert!(!h.pump(Instant::now()), "nothing can move while the peer does not read");
            assert_eq!(h.conn.engine.pending_output(), held, "and nothing more is sealed");
        }
        assert!(matches!(h.conn.phase, Phase::Responding(_)));

        // The deadline passes: the rest of the document is dropped for a
        // close_notify, and one more window later the connection goes.
        let late = Instant::now() + 2 * IO_TIMEOUT;
        h.pump(late);
        assert_eq!(h.stats.timeouts(), 1);
        assert!(matches!(h.conn.phase, Phase::Draining));
        assert!(h.conn.engine.pending_output() <= bound + 64, "the alert rides behind the records");
        h.pump(late + 2 * IO_TIMEOUT);
        assert!(matches!(h.conn.phase, Phase::Closed));
        assert_eq!(h.stats.transactions(), 0, "an unfinished response is not a transaction");
    }

    /// Two requests written in one flight are answered whole and in order,
    /// each cut into the records one `seal` of it would have produced.
    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let config = unit_config();
        let mut h = Harness::establish(&config);
        let len = ResponseStream::document("/doc_40000.bin", 40_000).remaining();
        h.request(&["/doc_40000.bin", "/doc_40000.bin"]);
        h.run_until("two responses", |h| h.received.len() >= 2 * len);

        assert_eq!(h.received.len(), 2 * len);
        assert_document(&h.received[..len], "/doc_40000.bin", 40_000);
        assert_document(&h.received[len..], "/doc_40000.bin", 40_000);
        let tail = len - 2 * MAX_FRAGMENT;
        assert_eq!(
            h.record_lens,
            [MAX_FRAGMENT, MAX_FRAGMENT, tail, MAX_FRAGMENT, MAX_FRAGMENT, tail]
        );
        assert_eq!(h.stats.transactions(), 2);
        assert!(matches!(h.conn.phase, Phase::Idle) && !h.conn.engine.wants_write());
    }

    /// The small-document path is what it was: one fragment, one refill,
    /// one application-data record.
    #[test]
    fn small_document_is_one_record() {
        let config = unit_config();
        let mut h = Harness::establish(&config);
        h.request(&["/doc_1024.bin"]);
        h.run_until("the response", |h| !h.received.is_empty() && h.stats.transactions() == 1);
        assert_eq!(h.record_lens.len(), 1);
        assert_document(&h.received, "/doc_1024.bin", 1024);
    }

    /// A peer's `close_notify` after a transaction is answered with exactly
    /// one `close_notify`, and the connection closes clean: one
    /// transaction, no error, no timeout, nothing left to send.
    #[test]
    fn close_notify_is_answered_with_one_close_notify() {
        let config = unit_config();
        let mut h = Harness::establish(&config);
        h.request(&["/doc_1024.bin"]);
        h.run_until("the response", |h| !h.received.is_empty() && h.stats.transactions() == 1);

        h.client.queue_close_notify().expect("queue close_notify");
        h.client_write();
        let give_up = Instant::now() + Duration::from_secs(20);
        while !matches!(h.conn.phase, Phase::Closed) {
            assert!(Instant::now() < give_up, "the connection never closed");
            h.pump(Instant::now());
        }
        assert_eq!(h.conn.engine.pending_output(), 0, "the outbox is empty");
        assert_eq!(h.stats.transactions(), 1);
        assert_eq!(h.stats.errors(), 0);
        assert_eq!(h.stats.timeouts(), 0);

        // Everything the server sent after the response is one record ...
        let mut wire = Vec::new();
        let mut buf = [0u8; 1024];
        let record_len = |wire: &[u8]| {
            (wire.len() >= RECORD_HEADER_LEN)
                .then(|| RECORD_HEADER_LEN + usize::from(u16::from_be_bytes([wire[3], wire[4]])))
        };
        loop {
            match h.socket.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => wire.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if record_len(&wire).is_some_and(|len| wire.len() >= len) {
                        break;
                    }
                    assert!(Instant::now() < give_up, "the reply never arrived");
                }
                Err(e) => panic!("client read: {e}"),
            }
        }
        assert_eq!(wire.first(), Some(&(ContentType::Alert as u8)), "an alert record");
        assert_eq!(record_len(&wire), Some(wire.len()), "exactly one record");
        // ... and it is a close_notify.
        h.client.feed(&wire).expect("feed");
        match h.client.open_next() {
            Err(SslError::PeerAlert(alert)) => assert!(alert.is_close_notify()),
            other => panic!("expected the peer's close_notify, got {other:?}"),
        }
    }

    /// The one refusal the crypto pool has left: once the shard's pool is
    /// shut down, a full handshake's key exchange has nowhere to run, so
    /// the connection gets exactly one fatal `handshake_failure` (40) and
    /// the close, counted once as an error and once as an alert. A
    /// resumption needs no key-exchange job and still completes a
    /// transaction.
    #[test]
    fn closed_pool_fails_full_handshakes_and_still_resumes() {
        let config = unit_config();
        let mut h = Harness::establish(&config);
        h.request(&["/doc_1024.bin"]);
        h.run_until("the response", |h| !h.received.is_empty() && h.stats.transactions() == 1);
        assert_document(&h.received, "/doc_1024.bin", 1024);
        let session = h.client.machine().session().expect("established");

        // Connections accepted from here on offload their key exchange to
        // a pool that refuses it.
        let mut shard = h.shard;
        let mut pool = CryptoPool::start(1, Arc::clone(&config), Arc::clone(&shard.stats));
        pool.stop_workers();
        shard.pool = Some(Arc::new(pool));
        let stats = Arc::clone(&shard.stats);
        let (jobs, errors, alerts) = (stats.crypto_jobs(), stats.errors(), stats.alerts_sent());

        // A second client's full handshake, up to its key exchange.
        let rng = SslRng::from_seed(b"dead-pool-c2");
        let mut h =
            Harness::connect(&config, shard, SslClient::new(CipherSuite::RsaDesCbc3Sha, rng));
        h.client_write();
        h.run_until("the server's first flight", |h| h.client.wants_write());
        h.client_write();
        let give_up = Instant::now() + Duration::from_secs(20);
        while !matches!(h.conn.phase, Phase::Closed) {
            assert!(Instant::now() < give_up, "the connection never closed");
            h.pump(Instant::now());
        }
        // The shard drops a closed connection, and its socket with it.
        drop(h.conn);
        h.socket.set_nonblocking(false).expect("blocking");
        h.socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut wire = [0u8; 7];
        h.socket.read_exact(&mut wire).expect("alert record");
        assert_eq!(wire, [21, 3, 0, 0, 2, 2, 40], "fatal handshake_failure, byte-exact");
        let mut rest = [0u8; 16];
        assert_eq!(h.socket.read(&mut rest).expect("eof"), 0, "closed after the alert");
        assert_eq!((stats.errors(), stats.alerts_sent()), (errors + 1, alerts + 1));

        let rng = SslRng::from_seed(b"dead-pool-c3");
        let mut h = Harness::connect(&config, h.shard, SslClient::resuming(session, rng));
        h.run_until("the resumed handshake", Harness::established);
        assert!(h.client.machine().resumed(), "the first session resumes");
        h.request(&["/doc_1024.bin"]);
        h.run_until("the response", |h| !h.received.is_empty() && h.stats.transactions() == 2);
        assert_document(&h.received, "/doc_1024.bin", 1024);
        assert_eq!(stats.crypto_jobs(), jobs, "neither later handshake reached the pool");
        assert_eq!((stats.errors(), stats.alerts_sent()), (errors + 1, alerts + 1));
    }
}
