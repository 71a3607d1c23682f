//! Socket load driver — the paper's driver methodology on the wire.
//!
//! §3.1: "The client makes HTTP requests as fast as the server can handle
//! them. During our experiments, the server load is always maintained at
//! more than 90%." Every run here connects to a listening server's
//! address over real TCP with one blocking thread per client, one
//! connection per transaction, each connection an `Engine<ClientMachine>`
//! speaking SSLv3 or TLS 1.3. What runs differ in is the shape of the
//! load:
//!
//! - [`run_socket_load`]: a closed loop — each client runs its
//!   transactions back to back, optionally resuming by session id (§4.1's
//!   session re-negotiation), with handshake and transaction latency
//!   percentiles. One fresh transaction per client is a burst; with
//!   [`SocketLoadOptions::hold_until_all_established`] no client sends its
//!   request before every client has completed its handshake, so all
//!   connections are provably open at once.
//! - [`run_restart_load`]: establishes sessions, lets the caller restart
//!   or kill the server in between, then counts which sessions resume.
//!
//! The serving experiments in `sslperf-core` and the integration tests are
//! their callers; the graded measurement is `benchmark/`, which carries its
//! own clients.

use crate::http::{HttpRequest, HttpResponse};
use sslperf_rng::SslRng;
use sslperf_ssl::{
    CipherSuite, ClientConfig, ClientMachine, ClientSession, Engine, Protocol, SslClient, SslError,
};
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Connect, read and write timeout of every client socket: a stalled
/// server fails the transaction instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Tunables for [`run_socket_load`].
#[derive(Debug, Clone)]
pub struct SocketLoadOptions {
    /// Concurrent client threads, each holding one connection at a time.
    pub clients: usize,
    /// Measured transactions each client performs.
    pub transactions_per_client: usize,
    /// When true, each client first runs one unmeasured full handshake and
    /// every later transaction offers the previous session id for
    /// resumption; when false every handshake is full and measured. Only
    /// SSLv3 clients carry a session.
    pub resume: bool,
    /// Document size requested per transaction.
    pub file_size: usize,
    /// Protocol every client speaks (the server's dispatching machine
    /// serves either on the same port).
    pub protocol: Protocol,
    /// Cipher suite every client offers.
    pub suite: CipherSuite,
    /// When true, no client sends its first measured request until *every*
    /// client has completed that connection's handshake — so all
    /// connections are provably open and established at the same instant
    /// ([`SocketLoadReport::peak_established`]).
    pub hold_until_all_established: bool,
}

impl SocketLoadOptions {
    /// Unmeasured transactions each client runs first: one full handshake
    /// whose session the measured ones resume, none without resumption.
    #[must_use]
    pub fn warmup_per_client(&self) -> usize {
        usize::from(self.resume)
    }
}

impl Default for SocketLoadOptions {
    fn default() -> Self {
        SocketLoadOptions {
            clients: 8,
            transactions_per_client: 8,
            resume: true,
            file_size: 1024,
            protocol: Protocol::Ssl3,
            suite: CipherSuite::RsaDesCbc3Sha,
            hold_until_all_established: false,
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
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Measured transactions that resumed a cached session.
    pub resumed: usize,
    /// Largest number of connections established at the same instant.
    pub peak_established: usize,
    /// Handshake-only latency distribution.
    pub handshake_latency: LatencyPercentiles,
    /// Full-transaction (connect through close) latency distribution; a
    /// held request's wait is part of it.
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
/// Each client performs [`SocketLoadOptions::warmup_per_client`]
/// unmeasured transactions, then `transactions_per_client` measured ones;
/// with [`SocketLoadOptions::resume`] set, each transaction after a
/// client's first reconnects offering the previous session id, exercising
/// the server's cross-connection session cache.
///
/// # Errors
///
/// Returns the first SSL or transport failure from any client; a client
/// that fails before a held release still releases the others.
pub fn run_socket_load(
    addr: SocketAddr,
    options: &SocketLoadOptions,
) -> Result<SocketLoadReport, SslError> {
    let shared = Shared {
        hold: options.hold_until_all_established.then(|| Barrier::new(options.clients)),
        open: AtomicUsize::new(0),
        peak_established: AtomicUsize::new(0),
    };
    let start = Instant::now();
    let results = on_client_threads(options.clients, |c| socket_client(addr, options, &shared, c));
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
        peak_established: shared.peak_established.into_inner(),
        handshake_latency: LatencyPercentiles::from_sorted(&handshakes),
        transaction_latency: LatencyPercentiles::from_sorted(&totals),
    })
}

/// What the client threads of one [`run_socket_load`] share.
struct Shared {
    /// Every client's wait before its first measured request, when held.
    hold: Option<Barrier>,
    /// Connections established and not yet closed.
    open: AtomicUsize,
    peak_established: AtomicUsize,
}

impl Shared {
    /// Books one completed handshake: counts the connection open, then
    /// waits at `hold` when given.
    fn on_handshake(&self, hold: Option<&Barrier>) {
        let now = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_established.fetch_max(now, Ordering::SeqCst);
        if let Some(barrier) = hold {
            barrier.wait();
        }
    }
}

struct TxnSample {
    handshake: Duration,
    total: Duration,
    resumed: bool,
}

/// One client thread. A client that fails before its held release still
/// arrives at the barrier, so one failure never leaves the others waiting.
fn socket_client(
    addr: SocketAddr,
    options: &SocketLoadOptions,
    shared: &Shared,
    client_index: usize,
) -> Result<Vec<TxnSample>, SslError> {
    let mut hold = shared.hold.as_ref();
    let samples = client_transactions(addr, options, shared, client_index, &mut hold);
    if let Some(barrier) = hold {
        barrier.wait();
    }
    samples
}

/// Sequential transactions, session carried across connections when
/// resumption is on. Takes `hold` at the first measured handshake.
fn client_transactions(
    addr: SocketAddr,
    options: &SocketLoadOptions,
    shared: &Shared,
    client_index: usize,
    hold: &mut Option<&Barrier>,
) -> Result<Vec<TxnSample>, SslError> {
    let warmup = options.warmup_per_client();
    let mut samples = Vec::with_capacity(options.transactions_per_client);
    let mut session = None;
    for txn in 0..warmup + options.transactions_per_client {
        // A burst (one fresh transaction per client) and the closed loop
        // draw their client randoms under their own labels.
        let seed = if options.transactions_per_client == 1 && !options.resume {
            format!("event-loadgen-{client_index}").into_bytes()
        } else {
            [
                b"socket-loadgen".as_slice(),
                &(client_index as u64).to_le_bytes(),
                &(txn as u64).to_le_bytes(),
            ]
            .concat()
        };
        let offer = session.take().filter(|_| options.resume);
        let client = new_client(options.protocol, options.suite, false, offer, &seed);
        let measured = txn >= warmup;
        let start = Instant::now();
        let (client, handshake) = transact(addr, client, options.file_size, || {
            shared.on_handshake(if measured { hold.take() } else { None });
        })?;
        let total = start.elapsed();
        // Closed. A failed run reports no peak, so only success counts down.
        shared.open.fetch_sub(1, Ordering::SeqCst);
        session = session_of(&client);
        if measured {
            samples.push(TxnSample { handshake, total, resumed: resumed(&client) });
        }
    }
    Ok(samples)
}

/// Runs `client(c)` for every `c` in `0..clients`, each on its own
/// thread, and returns the results in client order.
fn on_client_threads<T: Send>(clients: usize, client: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let client = &client;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|c| scope.spawn(move || client(c))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// A client for one transaction: an SSLv3 client resuming `session` when
/// it carries one, otherwise a fresh `protocol` client offering `suite`
/// (and, for SSLv3, the ticket extension when `tickets`).
fn new_client(
    protocol: Protocol,
    suite: CipherSuite,
    tickets: bool,
    session: Option<ClientSession>,
    seed: &[u8],
) -> ClientMachine {
    let rng = SslRng::from_seed(seed);
    match (protocol, session) {
        (Protocol::Ssl3, Some(s)) => ClientMachine::V3(SslClient::resuming(s, rng)),
        (Protocol::Ssl3, None) if tickets => {
            ClientMachine::V3(SslClient::new(suite, rng).with_tickets())
        }
        _ => ClientMachine::new(ClientConfig::new(protocol, suite), rng),
    }
}

/// The session an established client can resume; TLS 1.3 clients keep none.
fn session_of(client: &ClientMachine) -> Option<ClientSession> {
    match client {
        ClientMachine::V3(c) => c.session(),
        ClientMachine::T13(_) => None,
    }
}

/// Whether an established client resumed its session.
fn resumed(client: &ClientMachine) -> bool {
    match client {
        ClientMachine::V3(c) => c.resumed(),
        ClientMachine::T13(_) => false,
    }
}

/// One blocking transaction on a fresh connection: connect, handshake,
/// run `on_established`, GET `/doc_{file_size}.bin`, check the response,
/// close. Returns the established client (its session and whether it
/// resumed) and the connect-to-established latency.
fn transact(
    addr: SocketAddr,
    client: ClientMachine,
    file_size: usize,
    on_established: impl FnOnce(),
) -> Result<(ClientMachine, Duration), SslError> {
    let io = |e: std::io::Error| SslError::Io(e.to_string());
    let start = Instant::now();
    let mut socket = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(io)?;
    // Without this, Nagle + delayed ACK stall the request that follows a
    // resumed handshake's back-to-back small writes by ~40ms.
    socket.set_nodelay(true).map_err(io)?;
    socket.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    socket.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let mut engine = Engine::new(client)?;
    let read_more = |engine: &mut Engine<ClientMachine>, socket: &mut TcpStream| match engine
        .read_from(socket)?
    {
        0 => Err(SslError::Io("server closed before the transaction ended".into())),
        _ => Ok(()),
    };
    while !engine.is_established() {
        engine.write_to(&mut socket)?;
        read_more(&mut engine, &mut socket)?;
    }
    let handshake = start.elapsed();
    // A client's last flight (a resumed SSLv3 client's CCS ‖ finished, a
    // TLS 1.3 client's finished) reaches the server before any hold.
    engine.write_to(&mut socket)?;
    on_established();

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

/// The restart-survival workload: every SSLv3 client establishes a
/// session with a full handshake, the caller's `disrupt` closure
/// kills/restarts server instances, and every client then reconnects
/// offering its saved session. The report says how many of those
/// reconnections actually resumed — with encrypted tickets the
/// credentials live on the client and survive the restart; with id-cache
/// resumption they die with the server's memory.
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
    let txn = |session, label: &[u8], c: usize| {
        let seed = [label, &(c as u64).to_le_bytes()].concat();
        let client = new_client(Protocol::Ssl3, options.suite, options.tickets, session, &seed);
        transact(addr, client, options.file_size, || {}).map(|(client, _)| client)
    };

    // Phase 1: every client performs one full-handshake transaction.
    let phase1 = on_client_threads(options.clients, |c| {
        txn(None, b"restart-loadgen-full", c).map(|client| session_of(&client))
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
    let phase2 = on_client_threads(established, |c| {
        txn(Some(sessions[c].clone()), b"restart-loadgen-resume", c).map(|client| resumed(&client))
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

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_rsa::RsaPrivateKey;
    use sslperf_ssl::{ServerConfig, SslServer};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc, OnceLock};
    use std::thread::{self, JoinHandle};

    /// A loopback listener running `handle(index, stream)` on a thread of
    /// its own for every accepted connection, until dropped.
    struct TestServer {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
    }

    impl TestServer {
        fn start(handle: fn(usize, TcpStream)) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let stop = Arc::new(AtomicBool::new(false));
            let acceptor = {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    for (index, stream) in listener.incoming().enumerate() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            thread::spawn(move || handle(index, stream));
                        }
                    }
                })
            };
            TestServer { addr, stop, acceptor: Some(acceptor) }
        }
    }

    impl Drop for TestServer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
        }
    }

    /// Serves one SSLv3 transaction with a 1 KiB document.
    fn serve(stream: TcpStream) -> Result<(), SslError> {
        static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
        let config = CONFIG.get_or_init(|| {
            let mut rng = SslRng::from_seed(b"loadgen-test-key");
            let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
            ServerConfig::new(key, "loadgen.test").expect("config")
        });
        let mut socket = stream;
        let mut engine = Engine::new(SslServer::new(config, SslRng::from_seed(b"loadgen-test")))?;
        while !engine.is_established() || engine.open_next()?.is_none() {
            engine.write_to(&mut socket)?;
            if engine.read_from(&mut socket)? == 0 {
                return Ok(());
            }
        }
        engine.seal(&HttpResponse::ok(vec![0x42; 1024]).to_bytes())?;
        engine.write_to(&mut socket)
    }

    /// Runs every `options` against `addr` in turn on a thread of its own
    /// and asserts that each returns `Err` within 5 s.
    fn assert_each_fails_promptly(addr: SocketAddr, runs: Vec<(&'static str, SocketLoadOptions)>) {
        let shapes: Vec<_> = runs.iter().map(|(shape, _)| *shape).collect();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            for (_, options) in runs {
                let _ = tx.send(run_socket_load(addr, &options).is_err());
            }
        });
        for shape in shapes {
            let failed = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{shape}: still running after 5 s"));
            assert!(failed, "{shape}: a client failed, yet the run returned Ok");
        }
    }

    fn burst(clients: usize) -> SocketLoadOptions {
        SocketLoadOptions {
            clients,
            transactions_per_client: 1,
            resume: false,
            hold_until_all_established: true,
            ..SocketLoadOptions::default()
        }
    }

    /// A server that accepts and drops every connection fails every
    /// client's handshake: a held burst and a closed loop each come back
    /// with `Err`.
    #[test]
    fn a_server_that_drops_every_connection_fails_the_run_promptly() {
        let server = TestServer::start(|_, stream| drop(stream));
        assert_each_fails_promptly(
            server.addr,
            vec![("held burst", burst(8)), ("closed loop", SocketLoadOptions::default())],
        );
    }

    /// With every other connection dropped, half the burst establishes and
    /// waits at the hold: the failed clients must still release it.
    #[test]
    fn a_failed_client_still_releases_the_held_burst() {
        let server = TestServer::start(|index, stream| {
            if index % 2 == 0 {
                let _ = serve(stream);
            }
        });
        assert!(run_socket_load(server.addr, &burst(1)).is_ok(), "the served half transacts");
        assert_each_fails_promptly(server.addr, vec![("half-failed burst", burst(8))]);
    }
}
