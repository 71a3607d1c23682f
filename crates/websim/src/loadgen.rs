//! Socket load drivers — the paper's driver methodology on the wire.
//!
//! §3.1: "The client makes HTTP requests as fast as the server can handle
//! them. During our experiments, the server load is always maintained at
//! more than 90%." Every driver here connects to a listening server's
//! address over real TCP; what they differ in is the shape of the load:
//!
//! - [`run_socket_load`]: closed-loop client threads, one connection per
//!   transaction, optionally resuming by session id or ticket (§4.1's
//!   session re-negotiation), with handshake and transaction latency
//!   percentiles.
//! - [`run_event_load`]: one thread holding many non-blocking connections
//!   open at once, for concurrency beyond the thread count and bursts that
//!   back the crypto pool up ([`run_event_load_disrupted`] runs a callback
//!   mid-burst, e.g. to kill an engine).
//! - [`run_restart_load`]: establishes sessions, lets the caller restart
//!   or kill the server in between, then counts which sessions resume.
//!
//! The serving experiments in `sslperf-core` and the integration tests are
//! their callers; the graded measurement is `benchmark/`, which carries its
//! own clients.

use crate::http::{HttpRequest, HttpResponse};
use sslperf_rng::SslRng;
use sslperf_ssl::{
    CipherSuite, ClientEngine, ClientSession, Engine, Protocol, SslClient, SslError,
};
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Tunables for [`run_socket_load`].
#[derive(Debug, Clone)]
pub struct SocketLoadOptions {
    /// Concurrent client threads.
    pub clients: usize,
    /// Measured transactions each client performs.
    pub transactions_per_client: usize,
    /// Unmeasured transactions each client runs first (connection setup,
    /// cache warmup).
    pub warmup_per_client: usize,
    /// When true, every transaction after a client's first offers its
    /// previous session id for resumption; when false every handshake is
    /// full.
    pub resume: bool,
    /// Document size requested per transaction.
    pub file_size: usize,
    /// Cipher suite every client offers.
    pub suite: CipherSuite,
    /// When true, clients advertise the session-ticket extension, so the
    /// server hands out encrypted tickets and resumption goes through the
    /// stateless path instead of the server-side id cache.
    pub tickets: bool,
}

impl Default for SocketLoadOptions {
    fn default() -> Self {
        SocketLoadOptions {
            clients: 8,
            transactions_per_client: 8,
            warmup_per_client: 1,
            resume: true,
            file_size: 1024,
            suite: CipherSuite::RsaDesCbc3Sha,
            tickets: false,
        }
    }
}

/// Latency distribution over the measured transactions of a socket run.
#[derive(Debug, Clone, Copy)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
}

impl LatencyPercentiles {
    fn from_sorted(sorted: &[Duration]) -> Self {
        let at = |q: f64| {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        LatencyPercentiles { p50: at(0.50), p95: at(0.95), p99: at(0.99) }
    }
}

impl fmt::Display for LatencyPercentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50 {:?}  p95 {:?}  p99 {:?}", self.p50, self.p95, self.p99)
    }
}

/// Results of a socket-backed load run against a real TCP server.
#[derive(Debug)]
pub struct SocketLoadReport {
    /// Measured transactions completed (warmup excluded).
    pub transactions: usize,
    /// Wall-clock time for the measured phase.
    pub wall: Duration,
    /// Measured transactions that resumed a cached session.
    pub resumed: usize,
    /// Handshake-only latency distribution.
    pub handshake_latency: LatencyPercentiles,
    /// Full-transaction (connect through close) latency distribution.
    pub transaction_latency: LatencyPercentiles,
}

impl SocketLoadReport {
    /// Measured transactions per wall-clock second.
    #[must_use]
    pub fn transactions_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.transactions as f64 / self.wall.as_secs_f64()
    }
}

impl fmt::Display for SocketLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "socket load: {} transactions in {:?} ({:.1} transactions/s)",
            self.transactions,
            self.wall,
            self.transactions_per_second()
        )?;
        writeln!(f, "  resumed handshakes: {}/{}", self.resumed, self.transactions)?;
        writeln!(f, "  handshake latency:   {}", self.handshake_latency)?;
        write!(f, "  transaction latency: {}", self.transaction_latency)
    }
}

/// Drives a TCP SSL server with concurrent client threads over real
/// sockets, one connection per transaction (the paper's §3.1 driver, on
/// the wire instead of in memory).
///
/// Each client performs `warmup_per_client` unmeasured transactions, then
/// `transactions_per_client` measured ones; with
/// [`SocketLoadOptions::resume`] set, each transaction after a client's
/// first reconnects offering the previous session id, exercising the
/// server's cross-connection session cache.
///
/// # Errors
///
/// Returns the first SSL or transport failure from any client.
pub fn run_socket_load(
    addr: SocketAddr,
    options: &SocketLoadOptions,
) -> Result<SocketLoadReport, SslError> {
    let start = Instant::now();
    let results: Vec<Result<Vec<TxnSample>, SslError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|c| scope.spawn(move || socket_client(addr, options, c)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = start.elapsed();

    let mut samples = Vec::new();
    for result in results {
        samples.extend(result?);
    }
    let transactions = samples.len();
    let resumed = samples.iter().filter(|s| s.resumed).count();
    let mut handshakes: Vec<Duration> = samples.iter().map(|s| s.handshake).collect();
    let mut totals: Vec<Duration> = samples.iter().map(|s| s.total).collect();
    handshakes.sort_unstable();
    totals.sort_unstable();
    Ok(SocketLoadReport {
        transactions,
        wall,
        resumed,
        handshake_latency: LatencyPercentiles::from_sorted(&handshakes),
        transaction_latency: LatencyPercentiles::from_sorted(&totals),
    })
}

/// Tunables for [`run_event_load`].
#[derive(Debug, Clone)]
pub struct EventLoadOptions {
    /// Concurrent connections, all driven from one generator thread.
    pub connections: usize,
    /// Document size requested on each connection.
    pub file_size: usize,
    /// Protocol every client speaks (the server's dispatching machine
    /// serves either on the same port).
    pub protocol: Protocol,
    /// Cipher suite every client offers.
    pub suite: CipherSuite,
    /// When true, no client sends its HTTP request until *every* client
    /// has completed its handshake — so all connections are provably open
    /// and established at the same instant (the concurrency proof the
    /// event-loop server's C10k claim rests on).
    pub hold_until_all_established: bool,
    /// Abort the run if it has not completed within this budget.
    pub deadline: Duration,
}

impl Default for EventLoadOptions {
    fn default() -> Self {
        EventLoadOptions {
            connections: 16,
            file_size: 1024,
            protocol: Protocol::Ssl3,
            suite: CipherSuite::RsaDesCbc3Sha,
            hold_until_all_established: true,
            deadline: Duration::from_secs(30),
        }
    }
}

/// Results of an event-driven load run.
#[derive(Debug)]
pub struct EventLoadReport {
    /// Connections that completed a full HTTP transaction.
    pub transactions: usize,
    /// Largest number of simultaneously established connections observed.
    pub peak_established: usize,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Handshake latency distribution (connect to Finished verified).
    pub handshake_latency: LatencyPercentiles,
}

impl EventLoadReport {
    /// Completed transactions per wall-clock second.
    #[must_use]
    pub fn transactions_per_second(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.transactions as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Drives many concurrent non-blocking client connections from a single
/// thread, each a sans-io [`ClientEngine`](sslperf_ssl::ClientEngine) fed
/// by readiness sweeps — the client-side mirror of the event-loop server.
///
/// Unlike [`run_socket_load`] (one blocking thread per client), the
/// connection count here is limited only by sockets, so it can hold far
/// more connections open simultaneously than the generator has threads;
/// with [`EventLoadOptions::hold_until_all_established`] the run proves
/// all of them were established at once via
/// [`EventLoadReport::peak_established`].
///
/// # Errors
///
/// Returns the first SSL or transport failure from any connection, and
/// [`SslError::Io`] (`"timed out: …"`) when the deadline expires.
pub fn run_event_load(
    addr: SocketAddr,
    options: &EventLoadOptions,
) -> Result<EventLoadReport, SslError> {
    run_event_load_inner(addr, options, usize::MAX, None::<fn()>)
}

/// [`run_event_load`] with a one-shot fault injection: `disrupt` fires the
/// first time at least `disrupt_at_established` connections have completed
/// their handshake, while the remaining handshakes are still in flight —
/// the harness for killing a crypto engine (or a fleet instance) mid-load
/// and proving the survivors finish every connection. A run that returns
/// `Ok` completed every transaction: zero handshake failures.
///
/// # Errors
///
/// Same contract as [`run_event_load`].
pub fn run_event_load_disrupted(
    addr: SocketAddr,
    options: &EventLoadOptions,
    disrupt_at_established: usize,
    disrupt: impl FnOnce(),
) -> Result<EventLoadReport, SslError> {
    run_event_load_inner(addr, options, disrupt_at_established, Some(disrupt))
}

fn run_event_load_inner(
    addr: SocketAddr,
    options: &EventLoadOptions,
    disrupt_at_established: usize,
    mut disrupt: Option<impl FnOnce()>,
) -> Result<EventLoadReport, SslError> {
    use sslperf_ssl::{ClientConfig, ClientMachine};

    let start = Instant::now();
    let client_config = ClientConfig::new(options.protocol, options.suite);
    let mut clients = Vec::with_capacity(options.connections);
    for i in 0..options.connections {
        let stream = TcpStream::connect(addr).map_err(|e| SslError::Io(e.to_string()))?;
        stream.set_nodelay(true).map_err(|e| SslError::Io(e.to_string()))?;
        stream.set_nonblocking(true).map_err(|e| SslError::Io(e.to_string()))?;
        let rng = SslRng::from_seed(format!("event-loadgen-{i}").as_bytes());
        let engine = Engine::new(ClientMachine::new(client_config, rng))?;
        clients.push(EventClient {
            stream,
            engine,
            started: Instant::now(),
            handshake: None,
            response: Vec::new(),
            request_sent: false,
            closing: false,
            done: false,
            ok: false,
        });
    }

    let mut scratch = vec![0u8; 16 * 1024];
    let mut peak_established = 0;
    while !clients.iter().all(|c| c.done) {
        if start.elapsed() > options.deadline {
            return Err(SslError::Io("timed out: event load deadline expired".into()));
        }
        let all_established = clients.iter().all(|c| c.done || c.engine.is_established());
        let release = !options.hold_until_all_established || all_established;
        let mut progress = false;
        for client in &mut clients {
            progress |= client.pump(release, options.file_size, &mut scratch)?;
        }
        let established_now =
            clients.iter().filter(|c| !c.done && c.engine.is_established()).count();
        peak_established = peak_established.max(established_now);
        // Fault injection: fire once, as soon as enough handshakes have
        // ever completed (the `handshake` latency stamp persists after the
        // connection finishes, so this is a cumulative count).
        if disrupt.is_some() {
            let ever_established = clients.iter().filter(|c| c.handshake.is_some()).count();
            if ever_established >= disrupt_at_established {
                if let Some(disrupt) = disrupt.take() {
                    disrupt();
                }
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    let wall = start.elapsed();

    let transactions = clients.iter().filter(|c| c.ok).count();
    let mut handshakes: Vec<Duration> = clients.iter().filter_map(|c| c.handshake).collect();
    handshakes.sort_unstable();
    Ok(EventLoadReport {
        transactions,
        peak_established,
        wall,
        handshake_latency: LatencyPercentiles::from_sorted(&handshakes),
    })
}

/// One multiplexed client connection of [`run_event_load`].
struct EventClient {
    stream: TcpStream,
    engine: sslperf_ssl::Engine<sslperf_ssl::ClientMachine>,
    started: Instant,
    handshake: Option<Duration>,
    response: Vec<u8>,
    request_sent: bool,
    closing: bool,
    done: bool,
    ok: bool,
}

impl EventClient {
    /// Makes whatever progress the socket allows. Returns true when
    /// anything moved.
    fn pump(
        &mut self,
        release: bool,
        file_size: usize,
        scratch: &mut [u8],
    ) -> Result<bool, SslError> {
        use std::io::{ErrorKind, Read, Write};

        if self.done {
            return Ok(false);
        }
        let mut progress = false;

        // Read phase (skipped once closing: the goodbye is queued, only
        // the flush remains).
        while !self.closing {
            match self.stream.read(scratch) {
                Ok(0) => {
                    return Err(SslError::Io("server closed before the transaction ended".into()))
                }
                Ok(n) => {
                    progress = true;
                    let mut offset = 0;
                    while offset < n {
                        let consumed = self.engine.feed(&scratch[offset..n])?;
                        offset += consumed;
                        self.process(release, file_size)?;
                        if consumed == 0 && offset < n {
                            return Err(SslError::Decode("record backlog"));
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(SslError::Io(e.to_string())),
            }
        }
        self.process(release, file_size)?;

        // Write phase: handshake flights, the request, or the goodbye.
        while self.engine.wants_write() {
            match self.stream.write(self.engine.output()) {
                Ok(0) => return Err(SslError::Io("server closed during write".into())),
                Ok(n) => {
                    progress = true;
                    self.engine.consume_output(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(SslError::Io(e.to_string())),
            }
        }

        if self.closing && !self.engine.wants_write() {
            self.done = true;
            progress = true;
        }
        Ok(progress)
    }

    /// Advances the transaction state machine on the freshly fed bytes:
    /// note the handshake, send the request once released, assemble and
    /// check the response, then queue the orderly close.
    fn process(&mut self, release: bool, file_size: usize) -> Result<(), SslError> {
        if !self.engine.is_established() || self.closing {
            return Ok(());
        }
        if self.handshake.is_none() {
            self.handshake = Some(self.started.elapsed());
        }
        if !release {
            return Ok(());
        }
        if !self.request_sent {
            let path = format!("/doc_{file_size}.bin");
            self.engine.seal(&HttpRequest::get(&path).to_bytes())?;
            self.request_sent = true;
            return Ok(());
        }
        while let Some(range) = self.engine.open_next()? {
            self.response.extend_from_slice(&self.engine.buffered()[range]);
            if let Ok(response) = HttpResponse::parse(&self.response) {
                if response.status() != 200 || response.body().len() != file_size {
                    return Err(SslError::Decode("unexpected http response"));
                }
                self.ok = true;
                self.engine.queue_close_notify()?;
                self.closing = true;
                return Ok(());
            }
        }
        Ok(())
    }
}

struct TxnSample {
    handshake: Duration,
    total: Duration,
    resumed: bool,
}

/// One client thread: sequential transactions, session carried across
/// connections when resumption is on.
fn socket_client(
    addr: SocketAddr,
    options: &SocketLoadOptions,
    client_index: usize,
) -> Result<Vec<TxnSample>, SslError> {
    let total = options.warmup_per_client + options.transactions_per_client;
    let mut samples = Vec::with_capacity(options.transactions_per_client);
    let mut session = None;
    for txn in 0..total {
        let seed = [
            b"socket-loadgen".as_slice(),
            &(client_index as u64).to_le_bytes(),
            &(txn as u64).to_le_bytes(),
        ]
        .concat();
        let offer = session.take().filter(|_| options.resume);
        let client = new_client(options.suite, options.tickets, offer, &seed);
        let start = Instant::now();
        let (client, handshake) = transact(addr, client, options.file_size)?;
        let total = start.elapsed();
        session = client.session();
        if txn >= options.warmup_per_client {
            samples.push(TxnSample { handshake, total, resumed: client.resumed() });
        }
    }
    Ok(samples)
}

/// A client for one transaction: resuming `session` when it carries one,
/// otherwise offering `suite` (and the ticket extension when `tickets`).
fn new_client(
    suite: CipherSuite,
    tickets: bool,
    session: Option<ClientSession>,
    seed: &[u8],
) -> SslClient {
    let rng = SslRng::from_seed(seed);
    match session {
        Some(s) => SslClient::resuming(s, rng),
        None if tickets => SslClient::new(suite, rng).with_tickets(),
        None => SslClient::new(suite, rng),
    }
}

/// One blocking transaction on a fresh connection: connect, handshake,
/// GET `/doc_{file_size}.bin`, check the response, close. Returns the
/// established client (its session and whether it resumed) and the
/// connect-to-established latency.
fn transact(
    addr: SocketAddr,
    client: SslClient,
    file_size: usize,
) -> Result<(SslClient, Duration), SslError> {
    let io = |e: std::io::Error| SslError::Io(e.to_string());
    let start = Instant::now();
    let mut socket = TcpStream::connect(addr).map_err(io)?;
    // Without this, Nagle + delayed ACK stall the request that follows a
    // resumed handshake's back-to-back small writes by ~40ms.
    socket.set_nodelay(true).map_err(io)?;
    let mut engine = Engine::new(client)?;
    let read_more =
        |engine: &mut ClientEngine, socket: &mut TcpStream| match engine.read_from(socket)? {
            0 => Err(SslError::Io("server closed before the transaction ended".into())),
            _ => Ok(()),
        };
    // A resumed client's CCS ‖ finished leaves with the request.
    while !engine.is_established() {
        engine.write_to(&mut socket)?;
        read_more(&mut engine, &mut socket)?;
    }
    let handshake = start.elapsed();

    engine.seal(&HttpRequest::get(&format!("/doc_{file_size}.bin")).to_bytes())?;
    engine.write_to(&mut socket)?;
    let mut plain = Vec::new();
    let response = loop {
        let Some(range) = engine.open_next()? else {
            read_more(&mut engine, &mut socket)?;
            continue;
        };
        plain.extend_from_slice(&engine.buffered()[range]);
        if let Ok(response) = HttpResponse::parse(&plain) {
            break response;
        }
    };
    if response.status() != 200 || response.body().len() != file_size {
        return Err(SslError::Decode("unexpected http response"));
    }
    engine.queue_close_notify()?;
    engine.write_to(&mut socket)?;
    Ok((engine.into_machine(), handshake))
}

/// Tunables for [`run_restart_load`].
#[derive(Debug, Clone)]
pub struct RestartLoadOptions {
    /// Concurrent client threads; each establishes one session before the
    /// disruption and reconnects with it afterwards.
    pub clients: usize,
    /// When true, clients advertise the session-ticket extension and
    /// resume from the encrypted ticket; when false they rely on the
    /// server-side id cache.
    pub tickets: bool,
    /// Document size requested per transaction.
    pub file_size: usize,
    /// Cipher suite every client offers.
    pub suite: CipherSuite,
}

impl Default for RestartLoadOptions {
    fn default() -> Self {
        RestartLoadOptions {
            clients: 8,
            tickets: true,
            file_size: 1024,
            suite: CipherSuite::RsaDesCbc3Sha,
        }
    }
}

/// Results of a restart-survival load run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartLoadReport {
    /// Sessions established by full handshakes before the disruption.
    pub established: usize,
    /// Post-disruption reconnections that offered a saved session.
    pub attempted: usize,
    /// Reconnections the server actually resumed.
    pub resumed: usize,
    /// Reconnections that failed outright (transport or protocol error).
    pub failed: usize,
}

impl RestartLoadReport {
    /// Post-disruption reconnections that resumed, as a percentage of
    /// those attempted — the restart-survival headline number.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.resumed as f64 / self.attempted as f64 * 100.0
        }
    }
}

impl fmt::Display for RestartLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restart survival: {} established, {}/{} resumed after restart ({}% hit rate), {} failed",
            self.established,
            self.resumed,
            self.attempted,
            self.hit_rate().round(),
            self.failed
        )
    }
}

/// The restart-survival workload: every client establishes a session with
/// a full handshake, the caller's `disrupt` closure kills/restarts server
/// instances, and every client then reconnects offering its saved
/// session. The report says how many of those reconnections actually
/// resumed — with encrypted tickets the credentials live on the client
/// and survive the restart; with id-cache resumption they die with the
/// server's memory.
///
/// Phase-one failures propagate (nothing is being disrupted yet, so they
/// are real bugs); phase-two failures are counted in
/// [`RestartLoadReport::failed`] — a dropped connection is precisely the
/// kind of damage the disruption is allowed to cause.
///
/// # Errors
///
/// Returns the first SSL or transport failure from the establishment
/// phase.
pub fn run_restart_load(
    addr: SocketAddr,
    options: &RestartLoadOptions,
    disrupt: impl FnOnce(),
) -> Result<RestartLoadReport, SslError> {
    // One transaction, fresh or resuming; the client comes back established.
    let txn = |session, seed: &[u8]| {
        let client = new_client(options.suite, options.tickets, session, seed);
        transact(addr, client, options.file_size).map(|(client, _)| client)
    };

    // Phase 1: every client performs one full-handshake transaction.
    let phase1: Vec<Result<Option<ClientSession>, SslError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|c| {
                scope.spawn(move || {
                    let seed =
                        [b"restart-loadgen-full".as_slice(), &(c as u64).to_le_bytes()].concat();
                    txn(None, &seed).map(|client| client.session())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut sessions = Vec::new();
    for result in phase1 {
        if let Some(session) = result? {
            sessions.push(session);
        }
    }
    let established = sessions.len();

    // The injected failure: the caller kills and/or restarts instances.
    disrupt();

    // Phase 2: every client reconnects offering its saved session.
    let phase2: Vec<Result<bool, SslError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(c, session)| {
                scope.spawn(move || {
                    let seed =
                        [b"restart-loadgen-resume".as_slice(), &(c as u64).to_le_bytes()].concat();
                    txn(Some(session), &seed).map(|client| client.resumed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let attempted = phase2.len();
    let mut resumed = 0;
    let mut failed = 0;
    for result in phase2 {
        match result {
            Ok(true) => resumed += 1,
            Ok(false) => {}
            Err(_) => failed += 1,
        }
    }
    Ok(RestartLoadReport { established, attempted, resumed, failed })
}
