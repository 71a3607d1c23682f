//! The loaded-server experiment: the paper's serving scenario on real
//! sockets, the event-loop server next to a blocking baseline.
//!
//! Table 1 and Figure 2 time the SSL pipeline in-process; this experiment
//! closes the loop by standing up a real-socket server on loopback and
//! driving it with the concurrent socket load generator from
//! `sslperf-websim` — once against the paper-style blocking baseline
//! ([`BlockingBaseline`], one blocking thread per connection) and once
//! against the event-loop server ([`sslperf_net::EventLoopServer`], many
//! non-blocking connections per shard thread over the sans-io engine).
//! The rendered report shows both side by side: transaction throughput,
//! handshake and transaction latency percentiles, and the session-cache
//! hit rate that §4.1's re-negotiation optimisation depends on.

use crate::experiments::{pct, BlockingBaseline, ExperimentError};
use crate::Context;
use sslperf_net::{EventLoopServer, MetricsSnapshot, ServerFleet, ServerOptions};
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::{Protocol, TicketKeyring};
use sslperf_websim::loadgen::{
    run_event_load, run_restart_load, run_socket_load, EventLoadOptions, EventLoadReport,
    RestartLoadOptions, RestartLoadReport, SocketLoadOptions, SocketLoadReport,
};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Client- and server-side results for one serving architecture.
#[derive(Debug)]
pub struct ModeLoad {
    /// Client-side load report (throughput and latency percentiles).
    pub report: SocketLoadReport,
    /// Session-cache lookups that found a cached session.
    pub cache_hits: u64,
    /// Session-cache lookups that found nothing.
    pub cache_misses: u64,
    /// Server-side handshakes that ran the full RSA key exchange.
    pub full_handshakes: u64,
    /// Server-side handshakes resumed from the cache.
    pub resumed_handshakes: u64,
}

impl ModeLoad {
    /// Cache hits as a share of all resumption-attempt lookups.
    #[must_use]
    pub fn cache_hit_percent(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 * 100.0 / total as f64
        }
    }
}

impl fmt::Display for ModeLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.report)?;
        writeln!(
            f,
            "  session cache:       {} hits / {} misses ({}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            pct(self.cache_hit_percent())
        )?;
        write!(
            f,
            "  server handshakes:   {} full, {} resumed",
            self.full_handshakes, self.resumed_handshakes
        )
    }
}

/// Results of one loaded-server run: the blocking baseline and the
/// event-loop server under the same client workload.
#[derive(Debug)]
pub struct NetLoad {
    /// The blocking baseline (one blocking thread per connection).
    pub pool: ModeLoad,
    /// The event-loop server (non-blocking shards over the sans-io engine).
    pub event_loop: ModeLoad,
}

impl fmt::Display for NetLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Loaded server (real sockets, shared session cache)")?;
        writeln!(f, "==================================================")?;
        writeln!(f, "[blocking baseline]")?;
        writeln!(f, "{}", self.pool)?;
        writeln!(f, "[event loop]")?;
        writeln!(f, "{}", self.event_loop)?;
        writeln!(
            f,
            "Paper context: §4.1 — session reuse skips the RSA private-key operation,\n\
             the single largest cost of the transaction (Tables 2–3). Both servers\n\
             pay the same per-transaction SSL cost; the event loop decouples\n\
             concurrent connections from thread count."
        )
    }
}

/// Runs the loaded-server experiment: starts the blocking baseline and the
/// event-loop server in turn, drives each with the same concurrent
/// resuming client workload, and collects both client-side latency and
/// server-side cache statistics for a side-by-side comparison.
///
/// # Errors
///
/// Propagates key generation, serving and load-generation failures.
pub fn loaded_server(ctx: &Context) -> Result<NetLoad, ExperimentError> {
    let options = SocketLoadOptions {
        clients: 8,
        transactions_per_client: ctx.iterations().clamp(2, 16),
        warmup_per_client: 1,
        resume: true,
        file_size: 1024,
        suite: ctx.suite(),
        tickets: false,
    };

    let mut rng = ctx.rng("netload-server-key");
    let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng)?;
    let server = BlockingBaseline::start(key, "www.sslperf.test", 4)?;
    let report = run_socket_load(server.local_addr(), &options)?;
    // The baseline keeps no counters of its own: with an id-only cache
    // every hit is a resumed handshake and every other connection (warmup
    // included) ran the full one.
    let cache = server.session_cache();
    let connections =
        options.clients * (options.transactions_per_client + options.warmup_per_client);
    let pool = ModeLoad {
        report,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        full_handshakes: (connections as u64).saturating_sub(cache.hits()),
        resumed_handshakes: cache.hits(),
    };
    server.shutdown();

    let mut rng = ctx.rng("netload-eventloop-key");
    let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng)?;
    let server = EventLoopServer::start(key, "www.sslperf.test", &ServerOptions::default())?;
    let report = run_socket_load(server.local_addr(), &options)?;
    let (cache, stats) = (server.session_cache(), server.stats());
    let event_loop = ModeLoad {
        report,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        full_handshakes: stats.full_handshakes(),
        resumed_handshakes: stats.resumed_handshakes(),
    };
    server.shutdown();

    Ok(NetLoad { pool, event_loop })
}

/// One arm of the crypto-offload ablation: a serving configuration under
/// the same all-at-once handshake burst.
#[derive(Debug)]
pub struct OffloadArm {
    /// Human-readable configuration name.
    pub label: String,
    /// Crypto workers behind the event loop (`0` = decrypt inline).
    pub crypto_workers: usize,
    /// Most RSA jobs one crypto-pool batch may combine (1 = unbatched).
    pub batch_max: usize,
    /// Client-side results (throughput, handshake latency percentiles).
    pub report: EventLoadReport,
    /// RSA jobs the pool accepted (0 for the inline arms).
    pub crypto_jobs: u64,
    /// High-water mark of the job queue.
    pub crypto_queue_depth_max: u64,
    /// Decrypt batches the pool executed (solo jobs count as batches of 1).
    pub crypto_batches: u64,
    /// Jobs that ran inside a real batch (size >= 2).
    pub crypto_batched_jobs: u64,
}

/// Results of the crypto-offload ablation: blocking baseline (inline) vs
/// event-loop inline vs event-loop with 1/2/4 parallel crypto engines.
#[derive(Debug)]
pub struct CryptoOffload {
    /// Concurrent connections each arm was hit with.
    pub connections: usize,
    /// The measured arms, in presentation order.
    pub arms: Vec<OffloadArm>,
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

impl fmt::Display for CryptoOffload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Crypto-offload ablation ({} concurrent handshakes)", self.connections)?;
        writeln!(f, "=================================================")?;
        writeln!(
            f,
            "{:<28} {:>8} {:>9} {:>9} {:>9} {:>6} {:>6} {:>8}",
            "configuration", "tx/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "jobs", "depth", "batched"
        )?;
        for arm in &self.arms {
            let hs = &arm.report.handshake_latency;
            writeln!(
                f,
                "{:<28} {:>8.1} {:>9} {:>9} {:>9} {:>6} {:>6} {:>8}",
                arm.label,
                arm.report.transactions_per_second(),
                ms(hs.p50),
                ms(hs.p95),
                ms(hs.p99),
                arm.crypto_jobs,
                arm.crypto_queue_depth_max,
                arm.crypto_batched_jobs,
            )?;
        }
        write!(
            f,
            "Paper context: §5 — parallel crypto engines. One event-loop shard decrypting\n\
             inline serialises every handshake behind the ~90% RSA step (head-of-line\n\
             blocking); handing the decryption to a crypto worker pool lets the shard\n\
             keep sweeping, so tail latency drops as workers are added. The batched arm\n\
             additionally combines queued decryptions so per-job cost amortises."
        )
    }
}

/// Measures one serving configuration under the shared handshake burst.
fn offload_arm(
    ctx: &Context,
    label: String,
    crypto_workers: usize,
    batch_max: usize,
    event_loop: bool,
    options: &EventLoadOptions,
    connections: usize,
) -> Result<OffloadArm, ExperimentError> {
    let mut rng = ctx.rng(&label);
    let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng)?;
    if event_loop {
        let server_options = ServerOptions::builder()
            .crypto_workers(crypto_workers)
            .batch_max(batch_max)
            .build()
            .expect("ablation arms are valid configurations");
        let server = EventLoopServer::start(key, "www.sslperf.test", &server_options)?;
        let report = run_event_load(server.local_addr(), options)?;
        let stats = server.stats();
        let (jobs, depth) = (stats.crypto_jobs(), stats.crypto_queue_depth_max());
        let (batches, batched) = (stats.crypto_batches(), stats.crypto_batched_jobs());
        server.shutdown();
        Ok(OffloadArm {
            label,
            crypto_workers,
            batch_max,
            report,
            crypto_jobs: jobs,
            crypto_queue_depth_max: depth,
            crypto_batches: batches,
            crypto_batched_jobs: batched,
        })
    } else {
        // The baseline parks one blocking thread per held connection, so
        // it needs as many workers as the burst has sockets.
        let server = BlockingBaseline::start(key, "www.sslperf.test", connections)?;
        let report = run_event_load(server.local_addr(), options)?;
        server.shutdown();
        Ok(OffloadArm {
            label,
            crypto_workers,
            batch_max,
            report,
            crypto_jobs: 0,
            crypto_queue_depth_max: 0,
            crypto_batches: 0,
            crypto_batched_jobs: 0,
        })
    }
}

/// Runs the crypto-offload ablation: the same all-at-once concurrent
/// handshake burst against the blocking baseline (inline RSA), the
/// event-loop server decrypting inline, and the event-loop server backed
/// by 1, 2 and 4 crypto workers.
///
/// # Errors
///
/// Propagates key generation, serving and load-generation failures.
pub fn crypto_offload(ctx: &Context) -> Result<CryptoOffload, ExperimentError> {
    let connections = (ctx.iterations() * 4).clamp(8, 64);
    let options = EventLoadOptions {
        connections,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: ctx.suite(),
        hold_until_all_established: true,
        deadline: Duration::from_secs(60),
    };

    let mut arms = Vec::new();
    arms.push(offload_arm(
        ctx,
        format!("blocking baseline ({connections} thr)"),
        0,
        1,
        false,
        &options,
        connections,
    )?);
    arms.push(offload_arm(ctx, "event-loop inline".into(), 0, 1, true, &options, connections)?);
    for workers in [1usize, 2, 4] {
        arms.push(offload_arm(
            ctx,
            format!("event-loop +{workers} crypto"),
            workers,
            1,
            true,
            &options,
            connections,
        )?);
    }
    // The batching arm: same pool as "+2 crypto", but the collector may
    // combine up to 4 queued decryptions into one amortized batch.
    arms.push(offload_arm(
        ctx,
        "event-loop +2 crypto b4".into(),
        2,
        4,
        true,
        &options,
        connections,
    )?);
    Ok(CryptoOffload { connections, arms })
}

/// Results of the live-anatomy experiment: the paper's cost tables
/// measured from a real serving run instead of an in-process pipeline.
#[derive(Debug)]
pub struct LiveAnatomy {
    /// Server-side transactions the anatomy aggregates over.
    pub transactions: u64,
    /// The frozen metrics registry after the load run.
    pub snapshot: MetricsSnapshot,
}

impl fmt::Display for LiveAnatomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Live anatomy (event-loop server, crypto offload, real sockets)")?;
        writeln!(f, "==============================================================")?;
        writeln!(f, "{}", self.snapshot.render())?;
        write!(
            f,
            "Paper context: Tables 1-3 were profiled post-hoc on a loaded Apache/mod_ssl\n\
             server; here the same anatomy is aggregated live, per connection, by the\n\
             serving layer's metrics registry — step latencies feed Table 2, the crypto\n\
             share feeds Table 3, and the per-transaction library split feeds Table 1."
        )
    }
}

/// Runs the live-anatomy experiment: starts the event-loop server with a
/// small crypto pool, drives it with the resuming socket workload, and
/// freezes its registry into the paper-shaped tables.
///
/// # Errors
///
/// Propagates key generation, serving and load-generation failures.
pub fn live_anatomy(ctx: &Context) -> Result<LiveAnatomy, ExperimentError> {
    let options = SocketLoadOptions {
        clients: 4,
        transactions_per_client: ctx.iterations().clamp(2, 16),
        warmup_per_client: 1,
        resume: true,
        file_size: 1024,
        suite: ctx.suite(),
        tickets: false,
    };
    let mut rng = ctx.rng("netload-anatomy-key");
    let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng)?;
    let server_options = ServerOptions::builder()
        .crypto_workers(2)
        .build()
        .expect("valid live-anatomy server options");
    let server = EventLoopServer::start(key, "www.sslperf.test", &server_options)?;
    run_socket_load(server.local_addr(), &options)?;
    let snapshot = server.stats().snapshot();
    let transactions = server.stats().transactions();
    server.shutdown();
    Ok(LiveAnatomy { transactions, snapshot })
}

/// Results of the protocol-anatomy experiment: SSLv3 and TLS 1.3
/// handshake anatomy measured side by side from one dual-protocol server.
#[derive(Debug)]
pub struct ProtocolAnatomy {
    /// Client-side report for the SSLv3 arm.
    pub ssl3: EventLoadReport,
    /// Client-side report for the TLS 1.3 arm.
    pub tls13: EventLoadReport,
    /// The frozen metrics registry after both arms ran, holding one
    /// anatomy table per protocol.
    pub snapshot: MetricsSnapshot,
}

impl fmt::Display for ProtocolAnatomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Protocol anatomy (one dual-protocol event-loop server, crypto offload)")?;
        writeln!(f, "======================================================================")?;
        writeln!(
            f,
            "{:<10} {:>11} {:>8} {:>9} {:>9} {:>9}",
            "protocol", "handshakes", "tx/s", "p50 (ms)", "p95 (ms)", "p99 (ms)"
        )?;
        for (protocol, report) in [(Protocol::Ssl3, &self.ssl3), (Protocol::Tls13, &self.tls13)] {
            let hs = &report.handshake_latency;
            writeln!(
                f,
                "{:<10} {:>11} {:>8.1} {:>9} {:>9} {:>9}",
                protocol.name(),
                report.transactions,
                report.transactions_per_second(),
                ms(hs.p50),
                ms(hs.p95),
                ms(hs.p99),
            )?;
        }
        writeln!(f, "{}", self.snapshot.render())?;
        write!(
            f,
            "Paper context: Table 2 profiled the ten steps of the SSLv3 handshake and found\n\
             the RSA private-key decryption dominating (~90% of handshake crypto). TLS 1.3\n\
             reshapes that anatomy: the client's RSA-encrypted premaster is replaced by an\n\
             ephemeral DHE agreement plus an RSA CertificateVerify signature, measured here\n\
             as its own ledger step riding the same crypto worker pool."
        )
    }
}

/// Runs the protocol-anatomy experiment: starts one event-loop server
/// accepting both protocols (small crypto pool so the TLS 1.3
/// DHE exponentiation is offloaded like SSLv3's RSA decryption), drives it
/// with an SSLv3 burst and then a TLS 1.3 burst, and freezes the registry
/// into side-by-side per-protocol anatomy tables.
///
/// # Errors
///
/// Propagates key generation, serving and load-generation failures.
pub fn protocol_anatomy(ctx: &Context) -> Result<ProtocolAnatomy, ExperimentError> {
    let connections = (ctx.iterations() * 2).clamp(4, 16);
    let mut rng = ctx.rng("netload-protocol-anatomy-key");
    let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng)?;
    let server_options = ServerOptions::builder()
        .crypto_workers(2)
        .build()
        .expect("valid protocol-anatomy server options");
    let server = EventLoopServer::start(key, "www.sslperf.test", &server_options)?;
    let arm = |protocol| {
        let options = EventLoadOptions {
            connections,
            file_size: 1024,
            protocol,
            suite: ctx.suite(),
            hold_until_all_established: true,
            deadline: Duration::from_secs(60),
        };
        run_event_load(server.local_addr(), &options)
    };
    let ssl3 = arm(Protocol::Ssl3)?;
    let tls13 = arm(Protocol::Tls13)?;
    let snapshot = server.stats().snapshot();
    server.shutdown();
    Ok(ProtocolAnatomy { ssl3, tls13, snapshot })
}

/// One arm of the restart-survival experiment: a resumption mechanism
/// put through a full-fleet restart.
#[derive(Debug)]
pub struct RestartArm {
    /// Human-readable mechanism name ("session tickets", "id cache").
    pub label: String,
    /// Client-side restart-survival report.
    pub report: RestartLoadReport,
    /// Fleet-wide server stats, killed instances included.
    pub fleet: MetricsSnapshot,
    /// Instances killed during the arm.
    pub retired_instances: usize,
}

/// Results of the restart-survival experiment: stateless-ticket
/// resumption vs the in-memory id cache across a full-fleet restart.
#[derive(Debug)]
pub struct RestartSurvival {
    /// Shared-nothing instances behind the one address.
    pub instances: usize,
    /// Client threads (one session each) in both arms.
    pub clients: usize,
    /// The encrypted-ticket arm: instances share only the ticket keys.
    pub ticket: RestartArm,
    /// The id-cache arm: sessions live in per-instance memory.
    pub id_cache: RestartArm,
}

impl fmt::Display for RestartSurvival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Restart survival ({}-instance shared-nothing fleet, every instance restarted mid-load)",
            self.instances
        )?;
        writeln!(f, "=========================================================")?;
        writeln!(
            f,
            "{:<18} {:>11} {:>9} {:>9} {:>7} {:>8} {:>9}",
            "resumption via", "established", "resumed", "hit rate", "failed", "issued", "accepted"
        )?;
        for arm in [&self.ticket, &self.id_cache] {
            writeln!(
                f,
                "{:<18} {:>11} {:>5}/{:<3} {:>8}% {:>7} {:>8} {:>9}",
                arm.label,
                arm.report.established,
                arm.report.resumed,
                arm.report.attempted,
                pct(arm.report.hit_rate()),
                arm.report.failed,
                arm.fleet.tickets_issued,
                arm.fleet.tickets_accepted,
            )?;
        }
        write!(
            f,
            "Paper context: §4.1 — session reuse skips the RSA private-key operation, but\n\
             an in-memory session cache is only as durable as the process that owns it.\n\
             Sealing the session state into an encrypted client-held ticket keeps the\n\
             optimisation alive across process boundaries: any instance sharing the\n\
             ticket keys resumes any other instance's sessions, restarts included."
        )
    }
}

/// Measures one resumption mechanism across a full-fleet restart: starts
/// an N-instance fleet, lets every client establish a session, kills and
/// restarts every instance, and reconnects every client.
fn restart_arm(
    ctx: &Context,
    label: &str,
    instances: usize,
    clients: usize,
    keyring: Option<Arc<TicketKeyring>>,
) -> Result<RestartArm, ExperimentError> {
    let mut rng = ctx.rng(&format!("restart-survival-{label}"));
    let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng)?;
    let server_options = ServerOptions::builder()
        .shards(1)
        .ticket_keys(keyring.clone())
        .build()
        .expect("valid restart-survival server options");
    let mut fleet = ServerFleet::start(key, "www.sslperf.test", instances, &server_options)?;
    let addr = fleet.local_addr();
    let options = RestartLoadOptions {
        clients,
        tickets: keyring.is_some(),
        file_size: 1024,
        suite: ctx.suite(),
    };
    let report = run_restart_load(addr, &options, || {
        for index in 0..instances {
            fleet.kill(index);
            fleet.restart(index).expect("restart reuses the validated server configuration");
        }
    })?;
    let snapshot = fleet.aggregated();
    let retired_instances = fleet.retired_instances();
    fleet.shutdown();
    Ok(RestartArm { label: label.to_string(), report, fleet: snapshot, retired_instances })
}

/// Runs the restart-survival experiment: the same full-fleet restart
/// under load, once with stateless session tickets and once with the
/// per-instance id cache. The ticket arm's hit rate survives the restart
/// (the credentials live on the client); the id-cache arm's drops to
/// zero (the credentials died with the instances' memory).
///
/// # Errors
///
/// Propagates key generation, serving and load-generation failures.
pub fn restart_survival(ctx: &Context) -> Result<RestartSurvival, ExperimentError> {
    let instances = 2;
    let clients = (ctx.iterations() * 2).clamp(4, 16);
    let keyring = Arc::new(TicketKeyring::new(b"restart-survival-ticket-keys"));
    let ticket = restart_arm(ctx, "session tickets", instances, clients, Some(keyring))?;
    let id_cache = restart_arm(ctx, "id cache", instances, clients, None)?;
    Ok(RestartSurvival { instances, clients, ticket, id_cache })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;
    use sslperf_websim::loadgen::run_event_load_disrupted;

    #[test]
    fn killed_engine_keeps_live_serving_alive() {
        let ctx = ctx();
        let connections = 8;
        let options = EventLoadOptions {
            connections,
            file_size: 1024,
            protocol: Protocol::Ssl3,
            suite: ctx.suite(),
            hold_until_all_established: true,
            deadline: Duration::from_secs(60),
        };
        let mut rng = ctx.rng("kill-engine-live");
        let key = RsaPrivateKey::generate(ctx.key_bits(), &mut rng).expect("server key");
        // Two engines: the survivor inherits the load when engine 0 dies.
        let server_options = ServerOptions::builder()
            .crypto_workers(2)
            .build()
            .expect("valid kill-engine server options");
        let server =
            EventLoopServer::start(key, "www.sslperf.test", &server_options).expect("server");
        let report =
            run_event_load_disrupted(server.local_addr(), &options, connections / 2, || {
                assert!(server.kill_crypto_engine(0), "engine index exists");
            })
            .expect("fleet survives losing an engine");
        assert_eq!(report.transactions, connections, "zero handshake failures");
        let stats = server.stats();
        assert_eq!(stats.crypto_jobs(), connections as u64, "every handshake offloaded");
        server.shutdown();
    }

    #[test]
    fn loaded_server_resumes_and_reports() {
        let nl = loaded_server(ctx()).expect("loaded server");
        for (mode, load) in [("pool", &nl.pool), ("event loop", &nl.event_loop)] {
            assert!(load.report.transactions > 0, "{mode}: measured transactions");
            assert!(load.cache_hits > 0, "{mode}: resumption must hit the shared cache");
            assert!(load.resumed_handshakes > 0, "{mode}: server must see resumed handshakes");
        }
        let rendered = nl.to_string();
        assert!(rendered.contains("transactions/s"), "throughput line: {rendered}");
        assert!(rendered.contains("p50"), "percentile lines: {rendered}");
        assert!(rendered.contains("session cache"), "cache line: {rendered}");
        assert!(rendered.contains("[blocking baseline]"), "baseline section: {rendered}");
        assert!(rendered.contains("[event loop]"), "event-loop section: {rendered}");
    }

    #[test]
    fn live_anatomy_measures_full_and_resumed_handshakes() {
        let la = live_anatomy(ctx()).expect("live anatomy");
        assert!(la.transactions > 0, "measured transactions");
        let snap = &la.snapshot;
        assert!(snap.full_handshake.count() > 0, "full handshakes observed");
        assert!(snap.resumed_handshake.count() > 0, "resumed handshakes observed");
        for step in &snap.steps {
            assert!(step.latency.sum() > 0, "step {} has latency", step.name);
        }
        assert!(
            snap.handshake_crypto_percent() > 50.0,
            "crypto dominates the full handshake: {:.1}%",
            snap.handshake_crypto_percent()
        );
        let rendered = la.to_string();
        assert!(rendered.contains("Live Table 2"), "{rendered}");
        assert!(rendered.contains("aggregated live"), "{rendered}");
    }

    #[test]
    fn restart_survival_contrasts_tickets_with_the_id_cache() {
        let rs = restart_survival(ctx()).expect("restart survival");
        let ticket = &rs.ticket.report;
        assert_eq!(ticket.established, rs.clients, "every ticket client establishes");
        assert!(
            ticket.hit_rate() >= 90.0,
            "ticket resumption survives the fleet restart: {:.1}%",
            ticket.hit_rate()
        );
        assert_eq!(ticket.failed, 0, "no ticket client fails outright");
        assert_eq!(
            rs.ticket.fleet.tickets_accepted as usize, ticket.resumed,
            "every resumption went through a ticket"
        );
        assert!(
            rs.ticket.fleet.tickets_issued >= rs.clients as u64,
            "every full handshake issued a ticket"
        );
        let id = &rs.id_cache.report;
        assert_eq!(id.established, rs.clients, "every id-cache client establishes");
        assert_eq!(id.resumed, 0, "id-cache sessions die with the instances");
        assert_eq!(rs.id_cache.fleet.tickets_issued, 0, "no keyring, no tickets");
        assert_eq!(rs.ticket.retired_instances, rs.instances, "all instances restarted");
        let rendered = rs.to_string();
        assert!(rendered.contains("Restart survival"), "{rendered}");
        assert!(rendered.contains("session tickets"), "{rendered}");
        assert!(rendered.contains("id cache"), "{rendered}");
        assert!(rendered.contains("hit rate"), "{rendered}");
    }

    #[test]
    fn crypto_offload_runs_all_arms() {
        let co = crypto_offload(ctx()).expect("crypto offload ablation");
        assert_eq!(co.arms.len(), 6, "baseline, el-inline, +1/+2/+4 workers, batched");
        for arm in &co.arms {
            assert_eq!(
                arm.report.transactions, co.connections,
                "{}: every connection transacts",
                arm.label
            );
            if arm.crypto_workers == 0 {
                assert_eq!(arm.crypto_jobs, 0, "{}: inline arms submit no jobs", arm.label);
            } else {
                assert_eq!(
                    arm.crypto_jobs, co.connections as u64,
                    "{}: one RSA job per full handshake",
                    arm.label
                );
                assert!(arm.crypto_queue_depth_max >= 1, "{}: queue was used", arm.label);
                assert!(arm.crypto_batches >= 1, "{}: pool executed batches", arm.label);
            }
            if arm.batch_max == 1 {
                assert_eq!(
                    arm.crypto_batched_jobs, 0,
                    "{}: unbatched arms never combine jobs",
                    arm.label
                );
            }
        }
        let batched = co.arms.last().expect("batched arm present");
        assert_eq!(batched.batch_max, 4, "last arm batches up to 4");
        let rendered = co.to_string();
        assert!(rendered.contains("configuration"), "table header: {rendered}");
        assert!(rendered.contains("event-loop +2 crypto"), "offload arm row: {rendered}");
        assert!(rendered.contains("event-loop +2 crypto b4"), "batched arm row: {rendered}");
        assert!(rendered.contains("parallel crypto engines"), "paper context: {rendered}");
    }
}
