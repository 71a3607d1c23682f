//! What every [`EventLoopServer`](crate::EventLoopServer) is configured
//! and observed through: [`ServerOptions`] (with its validating builder),
//! the [`ServerStats`] counters, the shared [`ServerConfig`] construction,
//! the close-alert policy, and the HTTP document responder.

use crate::cache::ShardedSessionCache;
use crate::metrics::ServerMetrics;
use sslperf_profile::{measure, Cycles};
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::alert::{Alert, AlertDescription};
use sslperf_ssl::{
    Engine, ServerConfig, ServerMachine, SslError, TicketKeyring, TicketSessionStore,
};
use sslperf_websim::http::{HttpRequest, HttpResponse, ResponseStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for [`EventLoopServer::start`](crate::EventLoopServer::start).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Address to bind; port 0 picks a free port.
    pub addr: String,
    /// Event-loop shard threads multiplexing connections.
    pub shards: usize,
    /// The slowloris guard: per-connection idle/handshake deadlines on
    /// the event-loop shards. `None` waits forever.
    pub io_timeout: Option<Duration>,
    /// Shards in the session cache.
    pub cache_shards: usize,
    /// Sessions each shard retains before LRU eviction.
    pub cache_capacity_per_shard: usize,
    /// Crypto worker threads for the offload pool (the paper's §5
    /// "parallel crypto engines"). `0` — the default — keeps every
    /// decryption inline on its shard.
    pub crypto_workers: usize,
    /// Session lifetime for the cache: sessions older than this are
    /// treated as cache misses (full handshake) and removed on lookup.
    /// `None` — the default — never expires sessions by age.
    pub session_ttl: Option<Duration>,
    /// When true, every connection feeds its handshake-step ledger and
    /// record-path crypto cycles into a [`ServerMetrics`] registry
    /// (retrieved with
    /// [`EventLoopServer::metrics`](crate::EventLoopServer::metrics)), and
    /// `GET /metrics` returns the rendered
    /// [`MetricsSnapshot`](crate::MetricsSnapshot) instead of a document.
    /// Off by default: the anatomy costs a few atomics per record.
    pub metrics: bool,
    /// Most RSA jobs one crypto-pool batch may combine. `1` — the default
    /// — executes every job solo, exactly as before batching existed.
    /// Values above 1 require `crypto_workers > 0` and let an engine take
    /// up to this many already-queued jobs into one amortized decrypt
    /// batch. Nothing waits for a batch to fill: a saturated pool fills
    /// its batches from the backlog, and a lightly loaded one runs each
    /// job as it comes.
    pub batch_max: usize,
    /// Session-ticket keyring. `None` — the default — serves id-cache
    /// resumption only, exactly as before tickets existed. With a keyring
    /// installed the server negotiates the session-ticket extension, and
    /// every instance sharing the same `Arc` (or a keyring derived from
    /// the same secret) can resume each other's sessions with no shared
    /// cache — the shared-nothing multi-instance topology.
    pub ticket_keys: Option<Arc<TicketKeyring>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            io_timeout: Some(Duration::from_secs(30)),
            cache_shards: 8,
            cache_capacity_per_shard: 1024,
            crypto_workers: 0,
            session_ttl: None,
            metrics: false,
            batch_max: 1,
            ticket_keys: None,
        }
    }
}

impl ServerOptions {
    /// Starts a validated, fluent construction of [`ServerOptions`] —
    /// plain struct literals keep working, but the builder rejects
    /// inconsistent combinations (zero shards, batching without a crypto
    /// pool) at build time instead of panicking at server start.
    #[must_use]
    pub fn builder() -> ServerOptionsBuilder {
        ServerOptionsBuilder { options: ServerOptions::default() }
    }
}

/// Why a [`ServerOptionsBuilder`] refused to produce options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OptionsError {
    /// `shards` was zero — the event-loop server needs at least one.
    ZeroShards,
    /// `cache_shards` was zero — the session cache needs at least one.
    ZeroCacheShards,
    /// `batch_max` was zero — a batch holds at least one job.
    ZeroBatch,
    /// `batch_max > 1` with `crypto_workers == 0`: batching happens in the
    /// crypto pool's collector, so there is nothing to batch inline.
    BatchWithoutPool,
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            OptionsError::ZeroShards => "shards must be at least 1",
            OptionsError::ZeroCacheShards => "cache_shards must be at least 1",
            OptionsError::ZeroBatch => "batch_max must be at least 1",
            OptionsError::BatchWithoutPool => {
                "batch_max > 1 requires a crypto pool (crypto_workers > 0)"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for OptionsError {}

/// Fluent, validated construction of [`ServerOptions`]; see
/// [`ServerOptions::builder`]. Every setter mirrors the field of the same
/// name; [`ServerOptionsBuilder::build`] validates the combination.
#[derive(Debug, Clone)]
pub struct ServerOptionsBuilder {
    options: ServerOptions,
}

impl ServerOptionsBuilder {
    /// Address to bind; port 0 picks a free port.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.options.addr = addr.into();
        self
    }

    /// Event-loop shard threads multiplexing connections.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.options.shards = shards;
        self
    }

    /// Per-connection idle/handshake deadlines; `None` waits forever.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.options.io_timeout = timeout;
        self
    }

    /// Shards in the session cache.
    #[must_use]
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.options.cache_shards = shards;
        self
    }

    /// Sessions each cache shard retains before LRU eviction.
    #[must_use]
    pub fn cache_capacity_per_shard(mut self, capacity: usize) -> Self {
        self.options.cache_capacity_per_shard = capacity;
        self
    }

    /// Crypto worker threads for the offload pool.
    #[must_use]
    pub fn crypto_workers(mut self, workers: usize) -> Self {
        self.options.crypto_workers = workers;
        self
    }

    /// Session lifetime for the cache; `None` never expires by age.
    #[must_use]
    pub fn session_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.options.session_ttl = ttl;
        self
    }

    /// Enables the live handshake-anatomy metrics registry.
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.options.metrics = enabled;
        self
    }

    /// Most RSA jobs one crypto-pool batch may combine (default 1).
    #[must_use]
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.options.batch_max = batch_max;
        self
    }

    /// Installs a session-ticket keyring, enabling stateless resumption.
    #[must_use]
    pub fn ticket_keys(mut self, keyring: Option<Arc<TicketKeyring>>) -> Self {
        self.options.ticket_keys = keyring;
        self
    }

    /// Validates the combination and returns the options.
    ///
    /// # Errors
    ///
    /// Returns the first [`OptionsError`] violated: zero `shards` or
    /// `cache_shards`; zero `batch_max`; `batch_max > 1` without a crypto
    /// pool to batch in.
    pub fn build(self) -> Result<ServerOptions, OptionsError> {
        let o = &self.options;
        if o.shards == 0 {
            return Err(OptionsError::ZeroShards);
        }
        if o.cache_shards == 0 {
            return Err(OptionsError::ZeroCacheShards);
        }
        if o.batch_max == 0 {
            return Err(OptionsError::ZeroBatch);
        }
        if o.batch_max > 1 && o.crypto_workers == 0 {
            return Err(OptionsError::BatchWithoutPool);
        }
        Ok(self.options)
    }
}

/// Monotonic serving counters, shared across shards and crypto engines.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) connections: AtomicU64,
    pub(crate) transactions: AtomicU64,
    pub(crate) full_handshakes: AtomicU64,
    pub(crate) resumed_handshakes: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) alerts_sent: AtomicU64,
    pub(crate) crypto_jobs: AtomicU64,
    /// Jobs currently queued or executing. Incremented at enqueue inside
    /// the pool's submission lock, decremented when execution *completes*
    /// (not when an engine dequeues), so bursts absorbed into one batch
    /// stay fully visible to the max below.
    pub(crate) crypto_queue_depth: AtomicU64,
    pub(crate) crypto_queue_depth_max: AtomicU64,
    pub(crate) crypto_queue_wait_cycles: AtomicU64,
    pub(crate) crypto_exec_cycles: AtomicU64,
    /// Deadline expiries forgiven because the connection was waiting on
    /// the crypto pool, not on the client.
    pub(crate) crypto_deadline_deferrals: AtomicU64,
    /// Batches the crypto pool executed (each counts 1, whatever its size).
    pub(crate) crypto_batches: AtomicU64,
    /// Jobs executed inside batches of two or more.
    pub(crate) crypto_batched_jobs: AtomicU64,
    /// NewSessionTickets issued on full handshakes.
    pub(crate) tickets_issued: AtomicU64,
    /// Handshakes resumed from a client-presented ticket.
    pub(crate) tickets_accepted: AtomicU64,
    /// Tickets rejected as tampered/unknown (fell back to full handshake).
    pub(crate) tickets_rejected: AtomicU64,
    /// Tickets rejected as expired (fell back to full handshake).
    pub(crate) tickets_expired: AtomicU64,
    /// Bulk-cipher (record sealing) jobs accepted by the pool.
    pub(crate) crypto_bulk_jobs: AtomicU64,
}

impl ServerStats {
    /// Connections whose handshake completed.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// HTTP request/response exchanges served.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.transactions.load(Ordering::Relaxed)
    }

    /// Handshakes that ran the full RSA key exchange.
    #[must_use]
    pub fn full_handshakes(&self) -> u64 {
        self.full_handshakes.load(Ordering::Relaxed)
    }

    /// Handshakes resumed from the session cache.
    #[must_use]
    pub fn resumed_handshakes(&self) -> u64 {
        self.resumed_handshakes.load(Ordering::Relaxed)
    }

    /// Connections dropped on protocol or transport errors.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Connections evicted after stalling past the I/O timeout (the
    /// slowloris guard; not double-counted in [`ServerStats::errors`]).
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Alert records sent before closing, including orderly `close_notify`
    /// replies — every error path says goodbye on the wire.
    #[must_use]
    pub fn alerts_sent(&self) -> u64 {
        self.alerts_sent.load(Ordering::Relaxed)
    }

    /// Jobs the crypto pool accepted — RSA decryptions, DHE agreements and
    /// bulk seals alike (0 in inline modes).
    #[must_use]
    pub fn crypto_jobs(&self) -> u64 {
        self.crypto_jobs.load(Ordering::Relaxed)
    }

    /// Jobs currently queued or executing in the crypto pool (transient;
    /// settles to 0 when the pool is idle).
    #[must_use]
    pub fn crypto_queue_depth(&self) -> u64 {
        self.crypto_queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of in-flight crypto jobs (queued + executing),
    /// sampled at enqueue inside the submission lock — how deep the
    /// parallel-engine backlog ever got, burst-accurate even when a batch
    /// collector absorbs the whole burst at once.
    #[must_use]
    pub fn crypto_queue_depth_max(&self) -> u64 {
        self.crypto_queue_depth_max.load(Ordering::Relaxed)
    }

    /// Total cycles jobs spent waiting in the crypto queue before a
    /// worker picked them up.
    #[must_use]
    pub fn crypto_queue_wait(&self) -> Cycles {
        Cycles::new(self.crypto_queue_wait_cycles.load(Ordering::Relaxed))
    }

    /// Total cycles workers spent executing jobs of every class (RSA
    /// decryption, DHE agreement, bulk seal).
    #[must_use]
    pub fn crypto_exec(&self) -> Cycles {
        Cycles::new(self.crypto_exec_cycles.load(Ordering::Relaxed))
    }

    /// Event-loop deadline expiries that were *deferred* rather than
    /// evicted because the connection's key-exchange job was queued or
    /// executing — crypto-pool wait is the server's latency, not the
    /// client's, so it must not trip the slowloris guard. A nonzero value
    /// under load means the pool is saturated enough that queue wait
    /// exceeds [`ServerOptions::io_timeout`].
    #[must_use]
    pub fn crypto_deadline_deferrals(&self) -> u64 {
        self.crypto_deadline_deferrals.load(Ordering::Relaxed)
    }

    /// Batches the crypto pool executed — one per collector drain, whether
    /// it gathered one job or `batch_max`.
    #[must_use]
    pub fn crypto_batches(&self) -> u64 {
        self.crypto_batches.load(Ordering::Relaxed)
    }

    /// Jobs that ran inside a real batch (two or more combined). Solo
    /// executions are `crypto_jobs - crypto_batched_jobs`.
    #[must_use]
    pub fn crypto_batched_jobs(&self) -> u64 {
        self.crypto_batched_jobs.load(Ordering::Relaxed)
    }

    /// NewSessionTickets issued on full handshakes (0 without a keyring).
    #[must_use]
    pub fn tickets_issued(&self) -> u64 {
        self.tickets_issued.load(Ordering::Relaxed)
    }

    /// Handshakes resumed from a client-presented ticket.
    #[must_use]
    pub fn tickets_accepted(&self) -> u64 {
        self.tickets_accepted.load(Ordering::Relaxed)
    }

    /// Tickets rejected as tampered or sealed under an unknown key; each
    /// fell back silently to a full handshake.
    #[must_use]
    pub fn tickets_rejected(&self) -> u64 {
        self.tickets_rejected.load(Ordering::Relaxed)
    }

    /// Tickets rejected as expired; each fell back silently to a full
    /// handshake.
    #[must_use]
    pub fn tickets_expired(&self) -> u64 {
        self.tickets_expired.load(Ordering::Relaxed)
    }

    /// Bulk-cipher (record sealing) jobs the pool accepted; every engine
    /// runs them. Also counted in [`ServerStats::crypto_jobs`].
    #[must_use]
    pub fn crypto_bulk_jobs(&self) -> u64 {
        self.crypto_bulk_jobs.load(Ordering::Relaxed)
    }

    /// Bumps the ticket counters from one completed handshake's flags.
    pub(crate) fn note_ticket_flags(
        &self,
        issued: bool,
        accepted: bool,
        rejected: bool,
        expired: bool,
    ) {
        if issued {
            self.tickets_issued.fetch_add(1, Ordering::Relaxed);
        }
        if accepted {
            self.tickets_accepted.fetch_add(1, Ordering::Relaxed);
        }
        if rejected {
            self.tickets_rejected.fetch_add(1, Ordering::Relaxed);
        }
        if expired {
            self.tickets_expired.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Builds a server's [`ServerConfig`]: the sharded cache as the id-keyed
/// store, wrapped by a [`TicketSessionStore`] when a
/// keyring is installed.
pub(crate) fn build_config(
    key: RsaPrivateKey,
    name: &str,
    cache: &Arc<ShardedSessionCache>,
    ticket_keys: Option<&Arc<TicketKeyring>>,
) -> Result<ServerConfig, SslError> {
    match ticket_keys {
        Some(keyring) => ServerConfig::with_store(
            key,
            name,
            Box::new(TicketSessionStore::new(Arc::clone(keyring), Box::new(Arc::clone(cache)))),
        ),
        None => ServerConfig::with_cache(key, name, Box::new(Arc::clone(cache))),
    }
}

/// The alert to send before closing a connection that hit `error`.
///
/// Hard transport failures and peer-initiated alerts get none — there is
/// nobody left to tell. Everything else maps through [`Alert::for_error`],
/// defaulting to a fatal `illegal_parameter` for decode-class errors the
/// mapping leaves out. (Deadline evictions never come through here: the
/// event loop picks their alert from the connection state directly.)
pub(crate) fn alert_for_close(error: &SslError) -> Option<Alert> {
    match error {
        SslError::Io(_) | SslError::PeerAlert(_) => None,
        _ => Some(
            Alert::for_error(error)
                .unwrap_or_else(|| Alert::fatal(AlertDescription::IllegalParameter)),
        ),
    }
}

/// One response on its way out: the producer the event loop's write phase
/// pulls fragments from, plus the anatomy those pulls cost. The cycles are
/// gathered refill by refill and reach the registry once, when the last
/// fragment is sealed, so its per-transaction totals keep their shape: one
/// seal and one response per transaction however many refills it took.
#[derive(Debug)]
pub(crate) struct Outgoing {
    stream: ResponseStream,
    /// Whether the response is workload (a document, a 404) and so counts
    /// as a transaction in Table 1's "other" bucket. The `/metrics`
    /// exposition does not — it is observability.
    workload: bool,
    /// Cycles building the head and generating body bytes.
    respond_cycles: Cycles,
    sealed_bytes: usize,
    seal_cycles: Cycles,
    /// The cipher + MAC share of `seal_cycles`.
    crypto_cycles: Cycles,
}

impl Outgoing {
    /// The response to one parsed request: the live-metrics exposition for
    /// `GET /metrics` when the registry is on, the document the path names
    /// otherwise, a 404 for any other path.
    pub(crate) fn for_request(request: &HttpRequest, metrics: Option<&ServerMetrics>) -> Self {
        let exposition = metrics.filter(|_| request.path() == "/metrics");
        let (stream, respond_cycles) = measure(|| match exposition {
            Some(m) => HttpResponse::ok(m.snapshot().render().into_bytes()).into(),
            None => match document_size(request.path()) {
                Some(size) => ResponseStream::document(request.path(), size),
                None => HttpResponse::not_found().into(),
            },
        });
        Outgoing {
            stream,
            workload: exposition.is_none(),
            respond_cycles,
            sealed_bytes: 0,
            seal_cycles: Cycles::ZERO,
            crypto_cycles: Cycles::ZERO,
        }
    }

    /// True once every byte of the response has been sealed.
    pub(crate) fn is_done(&self) -> bool {
        self.stream.remaining() == 0
    }

    /// Pulls the next fragment — `scratch.len()` bytes, or whatever is
    /// left — into `scratch` and seals it into the engine's outbox.
    /// `scratch` is one maximum fragment long, so the records are the ones
    /// a single `seal` of the whole response would have cut.
    pub(crate) fn seal_next(
        &mut self,
        engine: &mut Engine<ServerMachine<'_>>,
        scratch: &mut [u8],
    ) -> Result<(), SslError> {
        let (n, fill_cycles) = measure(|| self.stream.fill(scratch));
        self.respond_cycles += fill_cycles;
        // Pure compute (the sans-io engine never touches the socket); the
        // crypto-kernel share is the delta of the record layer's monotone
        // counter around the call.
        let crypto_before = engine.machine().record_crypto_cycles();
        let (sealed, seal_cycles) = measure(|| engine.seal(&scratch[..n]));
        sealed?;
        self.sealed_bytes += n;
        self.seal_cycles += seal_cycles;
        self.crypto_cycles += engine.machine().record_crypto_cycles() - crypto_before;
        Ok(())
    }

    /// Feeds the finished response's totals into the anatomy registry.
    pub(crate) fn report(&self, metrics: &ServerMetrics) {
        metrics.note_record_seal(self.sealed_bytes, self.seal_cycles, self.crypto_cycles);
        if self.workload {
            metrics.note_response(self.respond_cycles);
        }
    }
}

/// Parses the size out of the `/doc_{size}.bin` paths the load generator
/// and the websim experiments request.
pub(crate) fn document_size(path: &str) -> Option<usize> {
    let rest = path.strip_prefix("/doc_")?;
    let digits = rest.strip_suffix(".bin")?;
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_size_parses_loadgen_paths() {
        assert_eq!(document_size("/doc_1024.bin"), Some(1024));
        assert_eq!(document_size("/doc_0.bin"), Some(0));
        assert_eq!(document_size("/index.html"), None);
        assert_eq!(document_size("/doc_x.bin"), None);
    }

    #[test]
    fn builder_defaults_match_field_construction() {
        let built = ServerOptions::builder().build().expect("defaults are valid");
        let fields = ServerOptions::default();
        assert_eq!(built.addr, fields.addr);
        assert_eq!(built.shards, fields.shards);
        assert_eq!(built.crypto_workers, fields.crypto_workers);
        assert_eq!(built.batch_max, fields.batch_max);
    }

    #[test]
    fn builder_sets_every_knob() {
        let options = ServerOptions::builder()
            .addr("127.0.0.1:4433")
            .shards(2)
            .io_timeout(Some(Duration::from_secs(5)))
            .cache_shards(4)
            .cache_capacity_per_shard(64)
            .crypto_workers(2)
            .session_ttl(Some(Duration::from_secs(30)))
            .metrics(true)
            .batch_max(4)
            .ticket_keys(Some(Arc::new(TicketKeyring::new(b"builder-secret"))))
            .build()
            .expect("valid combination");
        assert_eq!(options.addr, "127.0.0.1:4433");
        assert_eq!(options.shards, 2);
        assert_eq!(options.io_timeout, Some(Duration::from_secs(5)));
        assert_eq!(options.cache_shards, 4);
        assert_eq!(options.cache_capacity_per_shard, 64);
        assert_eq!(options.crypto_workers, 2);
        assert_eq!(options.session_ttl, Some(Duration::from_secs(30)));
        assert!(options.metrics);
        assert_eq!(options.batch_max, 4);
        assert!(options.ticket_keys.is_some());
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        assert_eq!(
            ServerOptions::builder().shards(0).build().unwrap_err(),
            OptionsError::ZeroShards
        );
        assert_eq!(
            ServerOptions::builder().cache_shards(0).build().unwrap_err(),
            OptionsError::ZeroCacheShards
        );
        assert_eq!(
            ServerOptions::builder().batch_max(0).build().unwrap_err(),
            OptionsError::ZeroBatch
        );
        // Batching needs a pool to batch in.
        assert_eq!(
            ServerOptions::builder().crypto_workers(0).batch_max(2).build().unwrap_err(),
            OptionsError::BatchWithoutPool
        );
        // batch_max == 1 without a pool stays legal: that is the inline
        // (unbatched, un-offloaded) baseline every experiment starts from.
        assert!(ServerOptions::builder().crypto_workers(0).batch_max(1).build().is_ok());
    }

    #[test]
    fn options_error_displays_are_actionable() {
        for (err, needle) in [
            (OptionsError::ZeroShards, "shard"),
            (OptionsError::ZeroCacheShards, "cache"),
            (OptionsError::ZeroBatch, "batch_max"),
            (OptionsError::BatchWithoutPool, "crypto_workers"),
        ] {
            let text = err.to_string();
            assert!(text.contains(needle), "{err:?} display {text:?} lacks {needle:?}");
        }
    }
}
