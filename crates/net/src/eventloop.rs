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
//! peer that half-closes (EOF on read) is still owed everything it asked
//! for. Reads pause while a response is pending, so the EOF is normally
//! seen only after the last fragment is sealed; the connection then stops
//! reading, drains its outbound buffer and is dropped — and the rule is
//! stated on the state, not on that ordering: a draining connection is
//! done when the outbox is empty *and* no response is pending.

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
use std::sync::mpsc::{self, Sender};
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
        let (io_timeout, expose_metrics) = (options.io_timeout, options.metrics);
        let pool = (options.crypto_workers > 0).then(|| {
            Arc::new(CryptoPool::start_with(
                options.crypto_workers,
                options.batch_max,
                Arc::clone(&config),
                Arc::clone(&stats),
            ))
        });
        let shards = (0..options.shards)
            .map(|shard| {
                let listener = Arc::clone(&listener);
                let config = Arc::clone(&config);
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let pool = pool.clone();
                let seed_prefix = Arc::clone(&seed_prefix);
                std::thread::spawn(move || {
                    shard_loop(
                        shard,
                        &seed_prefix,
                        &listener,
                        &config,
                        &stats,
                        &stop,
                        io_timeout,
                        pool.as_deref(),
                        expose_metrics,
                    );
                })
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

    /// Kills one crypto engine by index (see
    /// [`CryptoPool::kill_engine`]): the surviving engines drain the
    /// pool's queue and the server keeps serving. Returns false when
    /// the server has no pool, the index is out of range, or the engine
    /// is already dead.
    pub fn kill_crypto_engine(&self, index: usize) -> bool {
        self.pool.as_deref().is_some_and(|pool| pool.kill_engine(index))
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

/// A shard's handle to the crypto offload machinery: the shared pool plus
/// this shard's reply channel for executed jobs.
struct Offload<'p> {
    pool: &'p CryptoPool,
    reply: Sender<PoolReply>,
}

/// One shard: accepts new sockets and sweeps every connection it owns,
/// sleeping only when a full pass made no progress anywhere. With a
/// crypto pool attached, RSA decryptions leave the sweep as jobs and
/// return through the shard's reply channel — one stalled handshake no
/// longer blocks the whole shard.
// One parameter per shared serving facility; bundling them would only
// re-create this list as a struct.
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    shard: usize,
    seed_prefix: &str,
    listener: &TcpListener,
    config: &ServerConfig,
    stats: &ServerStats,
    stop: &AtomicBool,
    io_timeout: Option<Duration>,
    pool: Option<&CryptoPool>,
    expose_metrics: bool,
) {
    let mut conns: Vec<Conn<'_>> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut seq: u64 = 0;
    let (reply_tx, reply_rx) = mpsc::channel::<PoolReply>();
    let offload = pool.map(|pool| Offload { pool, reply: reply_tx });
    while !stop.load(Ordering::SeqCst) {
        let mut progress = false;
        // Accept burst: drain the backlog, then get back to serving.
        while let Ok((stream, _)) = listener.accept() {
            progress = true;
            seq += 1;
            let seed = format!("{seed_prefix}-{shard}-{seq}");
            if let Some(conn) = Conn::accept(
                stream,
                config,
                seq,
                &seed,
                io_timeout,
                offload.is_some(),
                expose_metrics,
            ) {
                conns.push(conn);
            }
        }
        // Route executed crypto jobs back to their connections first, so
        // the pump below can flush the resumed handshake's flight.
        while let Ok(reply) = reply_rx.try_recv() {
            progress = true;
            route_reply(&mut conns, reply, stats);
        }
        let now = Instant::now();
        conns.retain_mut(|conn| {
            progress |= conn.pump(stats, &mut scratch, now, offload.as_ref());
            !conn.done
        });
        if !progress {
            // With jobs in flight, park on the reply channel instead of a
            // flat sleep: the shard wakes the instant a decrypt lands
            // rather than up to IDLE_SLEEP later — the difference between
            // offloaded and inline tail latency when crypto is the
            // bottleneck.
            if conns.iter().any(|c| c.inflight) {
                if let Ok(reply) = reply_rx.recv_timeout(IDLE_SLEEP) {
                    route_reply(&mut conns, reply, stats);
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
fn route_reply(conns: &mut [Conn<'_>], reply: PoolReply, stats: &ServerStats) {
    if let Some(conn) = conns.iter_mut().find(|c| c.id == reply.conn) {
        conn.finish_crypto(reply, stats);
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
    io_timeout: Option<Duration>,
    /// Whether the completed handshake has been counted in the stats.
    counted: bool,
    /// A crypto job is queued or executing; its result has not come back.
    inflight: bool,
    /// The response being streamed out, from the request that asked for it
    /// until its last fragment is sealed. While one is pending nothing is
    /// read and no further request is opened: pipelined requests wait in
    /// the socket and the engine's bounded inbox, and stay ordered.
    outgoing: Option<Outgoing>,
    /// Closing: no more reads, just send what is owed — the rest of a
    /// pending response, then the outbound buffer (which ends with an
    /// alert, unless the peer half-closed first) — and finish.
    draining: bool,
    /// Finished; the shard drops the connection on its next sweep.
    done: bool,
    /// Whether `GET /metrics` is answered with the rendered registry.
    expose_metrics: bool,
}

impl<'a> Conn<'a> {
    /// Wraps a freshly accepted socket. Returns `None` when socket setup
    /// fails (the peer is already gone).
    fn accept(
        stream: TcpStream,
        config: &'a ServerConfig,
        seq: u64,
        seed: &str,
        io_timeout: Option<Duration>,
        offload: bool,
        expose_metrics: bool,
    ) -> Option<Self> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let rng = SslRng::from_seed(seed.as_bytes());
        let mut engine = Engine::new(ServerMachine::new(config, rng)).ok()?;
        engine.set_crypto_offload(offload);
        Some(Conn {
            stream,
            engine,
            id: seq,
            deadline: io_timeout.map(|t| Instant::now() + t),
            io_timeout,
            counted: false,
            inflight: false,
            outgoing: None,
            draining: false,
            done: false,
            expose_metrics,
        })
    }

    /// Stops reading and gives the outbound buffer one fresh deadline
    /// window to flush before the connection is dropped.
    fn start_draining(&mut self, now: Instant) {
        self.draining = true;
        self.touch(now);
    }

    /// Pushes the deadline out after any successful read or write.
    fn touch(&mut self, now: Instant) {
        self.deadline = self.io_timeout.map(|t| now + t);
    }

    /// True while this connection's key exchange is queued, executing, or
    /// suspended in the engine — time that must not count against the
    /// client's `io_timeout`.
    fn crypto_pending(&self) -> bool {
        self.inflight || self.engine.crypto_pending()
    }

    /// Makes whatever progress the socket allows: deadline check, read +
    /// feed, job submission, request serving, refill + write. Returns true
    /// when anything moved.
    fn pump(
        &mut self,
        stats: &ServerStats,
        scratch: &mut [u8],
        now: Instant,
        offload: Option<&Offload<'_>>,
    ) -> bool {
        let mut progress = false;

        // Deadline eviction (the event-loop half of the slowloris guard).
        // A connection whose RSA job sits in the crypto queue is stalled on
        // *us*, not the client: evicting it would count a spurious timeout
        // and deliver the executed result to a dead slot. Defer the
        // deadline instead, and count the deferral so saturation stays
        // visible in the stats.
        if !self.done {
            if let Some(deadline) = self.deadline {
                if now >= deadline {
                    if self.draining {
                        // The peer stopped reading its goodbye (or the
                        // response a half-closed client was owed): drop it.
                        self.done = true;
                    } else if self.crypto_pending() {
                        stats.crypto_deadline_deferrals.inc();
                        self.touch(now);
                    } else {
                        stats.timeouts.inc();
                        let alert = if self.engine.is_established() {
                            Alert::close_notify()
                        } else {
                            Alert::fatal(AlertDescription::HandshakeFailure)
                        };
                        // Whoever let a response stall this long is not
                        // reading it: the alert is the last thing sent.
                        self.outgoing = None;
                        if self.engine.queue_alert(alert).is_ok() {
                            stats.alerts_sent.inc();
                        }
                        self.start_draining(now);
                        progress = true;
                    }
                }
            }
        }

        // Read phase: pull whatever the socket has and feed the engine.
        // Not while a response is pending — later requests wait in the
        // socket, so the inbox stays within its bound and nothing read is
        // ever dropped for want of room.
        while !self.draining && !self.done && self.outgoing.is_none() {
            match self.stream.read(scratch) {
                // EOF: the peer half-closed. Nothing more will arrive, but
                // whatever is already queued for it must still go out.
                Ok(0) => self.start_draining(now),
                Ok(n) => {
                    progress = true;
                    self.touch(now);
                    self.feed_bytes(&scratch[..n], stats);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.done = true,
            }
        }

        // The bytes just fed may have suspended the engine at the RSA
        // boundary: hand the job to the pool and keep sweeping.
        progress |= self.submit_crypto(offload, stats);

        // Serve any complete requests that arrived exactly on a previous
        // sweep's bytes (feed_bytes drains eagerly, this is the catch-all).
        if !self.draining && !self.done && self.engine.is_established() {
            self.drain_requests(stats);
        }

        // Write phase: top the outbox up from the pending response, flush
        // it as far as the socket accepts, and keep the rest — sealed and
        // not yet generated alike — for the next sweep.
        let mut refills = REFILLS_PER_PUMP;
        while !self.done {
            self.refill(scratch, stats, &mut refills);
            if !self.engine.wants_write() {
                break;
            }
            match self.stream.write(self.engine.output()) {
                Ok(0) => self.done = true,
                Ok(n) => {
                    progress = true;
                    self.engine.consume_output(n);
                    self.touch(now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.done = true,
            }
        }

        // A draining connection is finished once everything it owed is
        // flushed: the rest of a pending response, then its goodbye.
        if self.draining && self.outgoing.is_none() && !self.engine.wants_write() {
            self.done = true;
        }
        progress
    }

    /// Seals the pending response's next fragments into the outbox: up to
    /// [`OUTBOX_LOW_WATER`] bytes queued, at most `refills` records (the
    /// pump's remaining budget, decremented here). The fragment that ends a
    /// response reports it (a workload response is a transaction) and
    /// opens the next pipelined request, if one is already buffered.
    fn refill(&mut self, scratch: &mut [u8], stats: &ServerStats, refills: &mut usize) {
        while *refills > 0 && self.engine.pending_output() < OUTBOX_LOW_WATER {
            let Some(outgoing) = self.outgoing.as_mut() else { return };
            if let Err(e) = outgoing.seal_next(&mut self.engine, scratch) {
                self.fail(&e, stats);
                return;
            }
            *refills -= 1;
            if outgoing.is_done() {
                outgoing.report(stats);
                self.outgoing = None;
                self.drain_requests(stats);
            }
        }
    }

    /// Feeds freshly read bytes through the engine, serving requests as
    /// they complete so the inbound buffer keeps making room.
    fn feed_bytes(&mut self, bytes: &[u8], stats: &ServerStats) {
        let mut offset = 0;
        while offset < bytes.len() && !self.draining {
            match self.engine.feed(&bytes[offset..]) {
                Ok(0) => {
                    // Inbound buffer full of unserved records: drain, then
                    // retry. No movement means the connection is stuck.
                    let before = self.engine.unconsumed();
                    self.drain_requests(stats);
                    if self.draining || self.engine.unconsumed() == before {
                        break;
                    }
                }
                Ok(consumed) => {
                    offset += consumed;
                    self.note_established(stats);
                    if self.engine.is_established() {
                        self.drain_requests(stats);
                    }
                }
                Err(e) => {
                    self.fail(&e, stats);
                }
            }
        }
    }

    /// Moves a freshly suspended key exchange to the crypto pool. A pool
    /// refuses a job only when it is shut down or every engine has been
    /// killed; it can never run it, so the connection fails outright.
    /// Returns true when a job entered the queue (or the connection
    /// transitioned to draining).
    fn submit_crypto(&mut self, offload: Option<&Offload<'_>>, stats: &ServerStats) -> bool {
        let Some(offload) = offload else { return false };
        if self.draining || self.done || self.inflight {
            return false;
        }
        let Some(job) = self.engine.take_crypto_job() else { return false };
        match offload.pool.try_submit(self.id, job, &offload.reply) {
            Ok(()) => {
                self.inflight = true;
                true
            }
            Err(SubmitError::ShutDown(_)) => {
                // The handshake can never resume: its decrypt has nowhere
                // to run. Fail fast with a fatal alert (SSLv3 has no
                // internal_error description) instead of retrying forever.
                stats.errors.inc();
                if self.engine.queue_alert(Alert::fatal(AlertDescription::HandshakeFailure)).is_ok()
                {
                    stats.alerts_sent.inc();
                }
                self.draining = true;
                true
            }
        }
    }

    /// Resumes the handshake with an executed crypto result: the engine
    /// picks up exactly where it suspended, and the response flight the
    /// resume produced is flushed by the next write phase.
    fn finish_crypto(&mut self, reply: PoolReply, stats: &ServerStats) {
        self.inflight = false;
        // The queue wait is over; the client's timeout window restarts
        // now rather than from its last pre-suspension byte.
        self.touch(Instant::now());
        if self.draining || self.done {
            return;
        }
        match self.engine.complete_crypto(reply.done) {
            Ok(()) => {
                self.note_established(stats);
                if self.engine.is_established() {
                    self.drain_requests(stats);
                }
            }
            Err(e) => self.fail(&e, stats),
        }
    }

    /// Counts the handshake once, the first sweep that sees it complete.
    fn note_established(&mut self, stats: &ServerStats) {
        if self.counted || !self.engine.is_established() {
            return;
        }
        self.counted = true;
        stats.note_handshake(&self.engine.machine().ledger());
    }

    /// Opens the next complete buffered application record and installs
    /// the response to it for the write phase to stream — the HTTP
    /// transaction loop, event-loop style. One response at a time: with
    /// one pending, later requests stay buffered until [`Conn::refill`]
    /// seals its last fragment and calls back here.
    ///
    /// The open is timed end-to-end (pure compute here — the sans-io
    /// engine never touches the socket), and the crypto-kernel share is
    /// read as the delta of the record layer's monotone crypto counter
    /// around the call.
    fn drain_requests(&mut self, stats: &ServerStats) {
        while !self.draining && self.outgoing.is_none() {
            let crypto_before = self.engine.machine().record_crypto_cycles();
            let (opened, open_cycles) = measure(|| self.engine.open_next());
            match opened {
                Ok(Some(range)) => {
                    let crypto = self.engine.machine().record_crypto_cycles() - crypto_before;
                    stats.note_record_open(range.len(), open_cycles, crypto);
                    match HttpRequest::parse(&self.engine.buffered()[range]) {
                        Ok(request) => {
                            self.outgoing =
                                Some(Outgoing::for_request(&request, stats, self.expose_metrics));
                        }
                        Err(e) => self.fail(&e, stats),
                    }
                }
                Ok(None) => return,
                Err(e) => self.fail(&e, stats),
            }
        }
    }

    /// Starts an orderly close after `error`: count it, drop whatever is
    /// left of a pending response so the alert is the last thing sent,
    /// queue the proper alert (close_notify reply, fatal alert, or silence
    /// for transport failures), and switch to draining.
    fn fail(&mut self, error: &SslError, stats: &ServerStats) {
        self.outgoing = None;
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
        self.draining = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_ssl::{CipherSuite, SslClient, MAX_RECORD_BODY};
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
        assert!(!inline.kill_crypto_engine(0), "no pool, nothing to kill");
        inline.shutdown();

        let pooled = start(&ServerOptions::builder().crypto_workers(2).build().expect("options"));
        assert!(!pooled.kill_crypto_engine(2), "index 2 is out of range for two engines");
        assert!(pooled.kill_crypto_engine(0));
        assert!(pooled.kill_crypto_engine(1));
        pooled.shutdown();
    }

    const IO_TIMEOUT: Duration = Duration::from_secs(5);

    /// One `Conn` and the client it serves, joined by a loopback socket
    /// pair and both driven from the test thread — no shard, no sleeps,
    /// so a test decides exactly who reads, who pumps, and what time it is.
    struct Harness<'a> {
        conn: Conn<'a>,
        stats: ServerStats,
        scratch: Vec<u8>,
        client: Engine<SslClient>,
        socket: TcpStream,
        /// The plaintext the client has opened, and the length of each
        /// application record it came in.
        received: Vec<u8>,
        record_lens: Vec<usize>,
    }

    fn unit_config() -> ServerConfig {
        ServerConfig::new(unit_key(), "unit.sslperf.test").expect("config")
    }

    impl<'a> Harness<'a> {
        /// Connects the pair and completes the handshake.
        fn establish(config: &'a ServerConfig) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let socket = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            socket.set_nonblocking(true).expect("nonblocking");
            let (accepted, _) = listener.accept().expect("accept");
            let conn =
                Conn::accept(accepted, config, 1, "unit-conn", Some(IO_TIMEOUT), false, false)
                    .expect("socket setup");
            let rng = SslRng::from_seed(b"unit-client");
            let client =
                Engine::new(SslClient::new(CipherSuite::RsaAes128Sha, rng)).expect("hello");
            let mut harness = Harness {
                conn,
                stats: ServerStats::default(),
                scratch: vec![0u8; SCRATCH_LEN],
                client,
                socket,
                received: Vec::new(),
                record_lens: Vec::new(),
            };
            harness.run_until("handshake", |h| {
                h.client.is_established() && h.conn.engine.is_established()
            });
            harness
        }

        fn pump(&mut self, now: Instant) -> bool {
            self.conn.pump(&self.stats, &mut self.scratch, now, None)
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
        while h.pump(Instant::now()) || h.conn.outgoing.is_none() {
            assert!(Instant::now() < give_up, "socket never blocked");
        }
        let bound = OUTBOX_LOW_WATER + 5 + MAX_RECORD_BODY;
        let held = h.conn.engine.pending_output();
        assert!(held >= OUTBOX_LOW_WATER && held <= bound, "outbox holds {held}");
        for _ in 0..100 {
            assert!(!h.pump(Instant::now()), "nothing can move while the peer does not read");
            assert_eq!(h.conn.engine.pending_output(), held, "and nothing more is sealed");
        }
        assert!(h.conn.outgoing.is_some() && !h.conn.done);

        // The deadline passes: the rest of the document is dropped for a
        // close_notify, and one more window later the connection goes.
        let late = Instant::now() + 2 * IO_TIMEOUT;
        h.pump(late);
        assert_eq!(h.stats.timeouts(), 1);
        assert!(h.conn.draining && h.conn.outgoing.is_none() && !h.conn.done);
        assert!(h.conn.engine.pending_output() <= bound + 64, "the alert rides behind the records");
        h.pump(late + 2 * IO_TIMEOUT);
        assert!(h.conn.done);
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
        assert!(h.conn.outgoing.is_none() && !h.conn.engine.wants_write());
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
}
