//! What every [`EventLoopServer`](crate::EventLoopServer) is configured
//! through: [`ServerOptions`] (with its validating builder), the shared
//! [`ServerConfig`] construction, the close-alert policy, and the HTTP
//! document responder.

use crate::metrics::ServerStats;
use sslperf_profile::{measure, Cycles};
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::{
    Engine, ServerConfig, ServerMachine, ShardedSessionCache, SslError, TicketKeyring,
    TicketSessionStore,
};
use sslperf_websim::http::{HttpRequest, HttpResponse, ResponseStream};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for [`EventLoopServer::start`](crate::EventLoopServer::start).
///
/// Built only by [`ServerOptions::builder`] (or [`Default`]), so every
/// value a server starts with has passed [`ServerOptionsBuilder::build`]'s
/// checks.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Address to bind; port 0 picks a free port.
    pub(crate) addr: String,
    /// Event-loop shard threads multiplexing connections.
    pub(crate) shards: usize,
    /// The slowloris guard: per-connection idle/handshake deadlines on
    /// the event-loop shards. `None` waits forever.
    pub(crate) io_timeout: Option<Duration>,
    /// Shards in the session cache.
    pub(crate) cache_shards: usize,
    /// Sessions each shard retains before LRU eviction.
    pub(crate) cache_capacity_per_shard: usize,
    /// Crypto worker threads for the offload pool (the paper's §5
    /// "parallel crypto engines"). `0` — the default — keeps every
    /// decryption inline on its shard.
    pub(crate) crypto_workers: usize,
    /// Session lifetime for the cache: sessions older than this are
    /// treated as cache misses (full handshake) and removed on lookup.
    /// `None` — the default — never expires sessions by age.
    pub(crate) session_ttl: Option<Duration>,
    /// When true, `GET /metrics` returns the rendered
    /// [`MetricsSnapshot`](crate::MetricsSnapshot) of the server's
    /// [`ServerStats`] instead of a document. Recording is always on
    /// whatever this says (read it with
    /// [`EventLoopServer::stats`](crate::EventLoopServer::stats)); this
    /// only decides whether any client may read it. Off by default: the
    /// exposition shows server internals to whoever asks.
    pub(crate) metrics: bool,
    /// Most RSA jobs one crypto-pool batch may combine. `1` — the default
    /// — executes every job solo, exactly as before batching existed.
    /// Values above 1 require `crypto_workers > 0` and let an engine take
    /// up to this many already-queued jobs into one amortized decrypt
    /// batch. Nothing waits for a batch to fill: a saturated pool fills
    /// its batches from the backlog, and a lightly loaded one runs each
    /// job as it comes.
    pub(crate) batch_max: usize,
    /// Session-ticket keyring. `None` — the default — serves id-cache
    /// resumption only, exactly as before tickets existed. With a keyring
    /// installed the server negotiates the session-ticket extension, and
    /// every instance sharing the same `Arc` (or a keyring derived from
    /// the same secret) can resume each other's sessions with no shared
    /// cache — the shared-nothing multi-instance topology.
    pub(crate) ticket_keys: Option<Arc<TicketKeyring>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            io_timeout: Some(Duration::from_secs(30)),
            cache_shards: ShardedSessionCache::DEFAULT_SHARDS,
            cache_capacity_per_shard: ShardedSessionCache::DEFAULT_CAPACITY_PER_SHARD,
            crypto_workers: 0,
            session_ttl: None,
            metrics: false,
            batch_max: 1,
            ticket_keys: None,
        }
    }
}

impl ServerOptions {
    /// Starts a validated, fluent construction of [`ServerOptions`]: the
    /// builder rejects inconsistent combinations (zero shards, batching
    /// without a crypto pool) at build time instead of at server start.
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
    /// `cache_capacity_per_shard` was zero — each cache shard holds at
    /// least one session.
    ZeroCacheCapacity,
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
            OptionsError::ZeroCacheCapacity => "cache_capacity_per_shard must be at least 1",
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

    /// Serves the rendered registry on `GET /metrics`.
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
    /// Returns the first [`OptionsError`] violated: zero `shards`,
    /// `cache_shards` or `cache_capacity_per_shard`; zero `batch_max`;
    /// `batch_max > 1` without a crypto pool to batch in.
    pub fn build(self) -> Result<ServerOptions, OptionsError> {
        let o = &self.options;
        if o.shards == 0 {
            return Err(OptionsError::ZeroShards);
        }
        if o.cache_shards == 0 {
            return Err(OptionsError::ZeroCacheShards);
        }
        if o.cache_capacity_per_shard == 0 {
            return Err(OptionsError::ZeroCacheCapacity);
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

/// One response on its way out: the producer the event loop's write phase
/// pulls fragments from, plus the anatomy those pulls cost. The cycles are
/// gathered refill by refill and reach the registry once, when the last
/// fragment is sealed, so its per-transaction totals keep their shape: one
/// seal and one response per transaction however many refills it took.
#[derive(Debug)]
pub(crate) struct Outgoing {
    stream: ResponseStream,
    /// Whether the response is workload (a document, a 404) and so counts
    /// as a transaction. The `/metrics` exposition does not — it is
    /// observability.
    workload: bool,
    /// Cycles building the head and generating body bytes.
    respond_cycles: Cycles,
    sealed_bytes: usize,
    seal_cycles: Cycles,
    /// The cipher + MAC share of `seal_cycles`.
    crypto_cycles: Cycles,
}

impl Outgoing {
    /// The response to one parsed request: the rendered `stats` for
    /// `GET /metrics` when `expose_metrics` is set, the document the path
    /// names otherwise, a 404 for any other path.
    pub(crate) fn for_request(
        request: &HttpRequest,
        stats: &ServerStats,
        expose_metrics: bool,
    ) -> Self {
        let exposition = expose_metrics && request.path() == "/metrics";
        let (stream, respond_cycles) = measure(|| {
            if exposition {
                return HttpResponse::ok(stats.snapshot().render().into_bytes()).into();
            }
            match document_size(request.path()) {
                Some(size) => ResponseStream::document(request.path(), size),
                None => HttpResponse::not_found().into(),
            }
        });
        Outgoing {
            stream,
            workload: !exposition,
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

    /// Feeds the finished response into the registry: its seal, and — for
    /// a workload response — the transaction.
    pub(crate) fn report(&self, stats: &ServerStats) {
        stats.note_record_seal(self.sealed_bytes, self.seal_cycles, self.crypto_cycles);
        if self.workload {
            stats.note_response(self.respond_cycles);
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

    /// A zero-capacity cache shard is refused at build time; the server
    /// would otherwise panic building its session cache at start.
    #[test]
    fn builder_rejects_zero_cache_capacity() {
        let err = ServerOptions::builder().cache_capacity_per_shard(0).build().unwrap_err();
        assert_eq!(err, OptionsError::ZeroCacheCapacity);
        assert!(err.to_string().contains("cache_capacity_per_shard"), "{err}");
        assert!(ServerOptions::builder().cache_capacity_per_shard(1).build().is_ok());
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
