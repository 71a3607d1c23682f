//! The in-memory traced transaction: the benchmark hand-drives a client
//! engine against a server engine through the identical transaction the
//! socket runs perform — no sockets, no threads, crypto offload on with
//! the job executed by the benchmark — with a span around every public
//! call. Parent ids run tx → handshake/request/close → flight → call, so a
//! transaction's wall time decomposes into per-layer self times that sum
//! to it, and what no call span covers is printed as unattributed.

use crate::alloc::thread_allocs;
use crate::client::ResponseCheck;
use crate::metrics::LEDGER_STEPS;
use crate::span::{self_times, Recorder, Span, NO_SPAN};
use crate::stats::{median, sorted};
use crate::workload::{ticket_keyring, Path, Workload, SERVER_NAME};
use sslperf_core::net::ShardedSessionCache;
use sslperf_core::rng::SslRng;
use sslperf_core::rsa::RsaPrivateKey;
use sslperf_core::ssl::{
    ClientMachine, ClientSession, Engine, ServerConfig, ServerMachine, SslError, TicketSessionStore,
};
use sslperf_core::websim::http::{synthesize_document, HttpRequest, HttpResponse};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Bytes moved per hop, like one socket read.
const HOP: usize = 64 * 1024;

/// The replay's readings, all medians over the replayed transactions and
/// in microseconds unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub transactions: usize,
    pub failed: usize,
    pub tx_us: f64,
    pub server_feed_us: f64,
    pub kx_exec_us: f64,
    pub server_seal_us: f64,
    pub server_open_us: f64,
    pub client_us: f64,
    pub respond_us: f64,
    pub allocs_per_tx: f64,
    /// Share of all transaction time that no call span covers, in %.
    pub unattributed_pct: f64,
    /// Self times of every span summed against the transactions' total
    /// time: zero by construction, checked anyway.
    pub sum_mismatch_ns: u64,
    /// Median server ledger step, by step name.
    pub ledger_us: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

/// Which metric a call span's self time is booked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    ServerFeed,
    KxExec,
    ServerSeal,
    ServerOpen,
    Client,
    Respond,
    Unattributed,
}

/// One transaction's wall time and its self times summed per bucket.
#[derive(Debug, Default)]
struct PerTx {
    total_us: f64,
    by_bucket_us: [f64; 7],
}

fn bucket(name: &str) -> Bucket {
    match name {
        "server.start" | "server.feed" | "server.take_job" | "server.resume" => Bucket::ServerFeed,
        "kx.exec" => Bucket::KxExec,
        "server.seal" | "server.close" => Bucket::ServerSeal,
        "server.open" => Bucket::ServerOpen,
        "http.respond" => Bucket::Respond,
        n if n.starts_with("client.") || n == "verify" => Bucket::Client,
        // tx, handshake, request, close, flight.*: the glue between calls.
        _ => Bucket::Unattributed,
    }
}

/// Builds the response the serving layer builds for a request. A copy of
/// `net::server::respond`, which is private to its crate, and this change
/// may touch nothing under `crates/`.
fn respond(request: &[u8]) -> Result<Vec<u8>, SslError> {
    let request = HttpRequest::parse(request)?;
    let size = request
        .path()
        .strip_prefix("/doc_")
        .and_then(|rest| rest.strip_suffix(".bin"))
        .and_then(|digits| digits.parse().ok());
    let response = match size {
        Some(size) => HttpResponse::ok(synthesize_document(request.path(), size)),
        None => HttpResponse::not_found(),
    };
    Ok(response.to_bytes())
}

struct Pair<'c> {
    client: Engine<ClientMachine>,
    server: Engine<ServerMachine<'c>>,
    config: &'c ServerConfig,
    server_closed: bool,
}

impl Pair<'_> {
    /// Moves everything the client has queued to the server, one hop at a
    /// time, letting the server act on each hop as the event loop would.
    fn client_to_server(&mut self, rec: &mut Recorder) -> Result<(), SslError> {
        let flight = rec.enter("flight.c2s");
        while self.client.wants_write() {
            let take = self.client.pending_output().min(HOP);
            let took =
                rec.span("server.feed", || self.server.feed(&self.client.output()[..take]))?;
            self.client.consume_output(took);
            self.serve(rec)?;
            if took == 0 {
                return Err(SslError::Decode("server refused client bytes"));
            }
        }
        rec.exit(flight);
        Ok(())
    }

    /// What the event loop does after a read: run a suspended key
    /// exchange, then answer every complete request.
    fn serve(&mut self, rec: &mut Recorder) -> Result<(), SslError> {
        if let Some(job) = rec.span("server.take_job", || self.server.take_crypto_job()) {
            let done = rec.span("kx.exec", || job.execute(self.config.key()));
            rec.span("server.resume", || self.server.complete_crypto(done))?;
        }
        while self.server.is_established() && !self.server_closed {
            match rec.span("server.open", || self.server.open_next()) {
                Ok(Some(range)) => {
                    let body =
                        rec.span("http.respond", || respond(&self.server.buffered()[range]))?;
                    rec.span("server.seal", || self.server.seal(&body))?;
                }
                Ok(None) => break,
                Err(SslError::PeerAlert(alert)) if alert.is_close_notify() => {
                    rec.span("server.close", || self.server.queue_close_notify())?;
                    self.server_closed = true;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Moves everything the server has queued to the client; once a
    /// response check is given, opens and verifies records as they land.
    fn server_to_client(
        &mut self,
        rec: &mut Recorder,
        mut check: Option<&mut ResponseCheck<'_>>,
    ) -> Result<(), SslError> {
        let flight = rec.enter("flight.s2c");
        while self.server.wants_write() {
            let take = self.server.pending_output().min(HOP);
            let took =
                rec.span("client.feed", || self.client.feed(&self.server.output()[..take]))?;
            self.server.consume_output(took);
            let mut opened = 0;
            if let Some(check) = check.as_deref_mut() {
                while let Some(range) = rec.span("client.open", || self.client.open_next())? {
                    opened += 1;
                    rec.span("verify", || check.push(&self.client.buffered()[range]));
                }
            }
            if took == 0 && opened == 0 {
                return Err(SslError::Decode("client refused server bytes"));
            }
        }
        rec.exit(flight);
        Ok(())
    }
}

/// What every replayed transaction of a run shares.
struct Fixture<'a> {
    workload: &'a Workload,
    config: &'a ServerConfig,
    expected: Vec<u8>,
    request: Vec<u8>,
}

type Engines<'c> = (Engine<ClientMachine>, Engine<ServerMachine<'c>>);

impl<'a> Fixture<'a> {
    /// One transaction, spans and all; hands back both engines for the
    /// resumed flag, the session and the server's ledger.
    fn transaction(
        &self,
        session: Option<ClientSession>,
        want_ticket: bool,
        tx: u64,
        rec: &mut Recorder,
    ) -> Result<Engines<'a>, SslError> {
        let rng = |side: &str| {
            SslRng::from_seed(format!("sslperf-benchmark-replay-{side}-{tx}").as_bytes())
        };
        let machine = self.workload.client_machine(session, want_ticket, rng("client"));

        let handshake = rec.enter("handshake");
        let client = rec.span("client.start", || Engine::new(machine))?;
        let server = rec.span("server.start", || {
            let mut server = Engine::new(ServerMachine::new(self.config, rng("server")))?;
            server.set_crypto_offload(true);
            Ok::<_, SslError>(server)
        })?;
        let mut pair = Pair { client, server, config: self.config, server_closed: false };
        while !(pair.client.is_established() && pair.server.is_established()) {
            if pair.client.pending_output() + pair.server.pending_output() == 0 {
                return Err(SslError::NotReady("replayed handshake stalled"));
            }
            pair.client_to_server(rec)?;
            pair.server_to_client(rec, None)?;
        }
        rec.exit(handshake);

        let exchange = rec.enter("request");
        rec.span("client.seal", || pair.client.seal(&self.request))?;
        pair.client_to_server(rec)?;
        let mut check = ResponseCheck::new(&self.expected);
        pair.server_to_client(rec, Some(&mut check))?;
        rec.exit(exchange);
        if !check.ok() {
            return Err(SslError::Decode("replayed response differs from synthesize_document"));
        }

        let close = rec.enter("close");
        rec.span("client.close", || pair.client.queue_close_notify())?;
        pair.client_to_server(rec)?;
        rec.exit(close);
        if !pair.server_closed {
            return Err(SslError::NotReady("server never saw close_notify"));
        }
        Ok((pair.client, pair.server))
    }
}

fn session_of(engine: &Engine<ClientMachine>) -> Option<ClientSession> {
    match engine.machine() {
        ClientMachine::V3(client) => client.session(),
        ClientMachine::T13(_) => None,
    }
}

fn resumed(engine: &Engine<ClientMachine>) -> bool {
    matches!(engine.machine(), ClientMachine::V3(client) if client.resumed())
}

/// Replays `transactions` transactions of `workload` in memory.
pub fn run(workload: &Workload, key: RsaPrivateKey, seed: u64, transactions: usize) -> Replay {
    // The serving layer's store: sharded id cache under the ticket keyring.
    let cache = Arc::new(ShardedSessionCache::new(8, 1024));
    let store = TicketSessionStore::new(ticket_keyring(seed), Box::new(Arc::clone(&cache)));
    let config =
        ServerConfig::with_store(key, SERVER_NAME, Box::new(store)).expect("server config");
    let fixture = Fixture {
        workload,
        config: &config,
        expected: workload.expected_body(),
        request: workload.request(),
    };

    // Untraced: the full handshakes that hand a resuming client its
    // sessions, exactly what the socket clients do during warm-up.
    let mut off = Recorder::disabled();
    let mut bootstrap = |want_ticket: bool, tx: u64| {
        let engines = fixture.transaction(None, want_ticket, tx, &mut off).ok()?;
        session_of(&engines.0)
    };
    let id_session = bootstrap(false, u64::MAX);
    let ticket_session = bootstrap(true, u64::MAX - 1);

    let epoch = Instant::now();
    let mut rec = Recorder::enabled(epoch);
    let mut out = Replay { transactions, ..Replay::default() };
    let mut ledgers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let allocs_before = thread_allocs();
    for tx in 0..transactions as u64 {
        let path = workload.path_for(0, 1, tx);
        let session = match path {
            Path::Full => None,
            Path::Id => id_session.clone(),
            Path::Ticket => ticket_session.clone(),
        };
        let expect_resumed = session.is_some();
        rec.set_tx(tx as u32);
        let span = rec.enter("tx");
        let result = fixture.transaction(session, false, tx, &mut rec);
        rec.exit(span);
        match result {
            Ok((client, server)) if resumed(&client) == expect_resumed => {
                for (name, cycles) in server.machine().ledger().steps {
                    ledgers.entry(name).or_default().push(cycles.to_duration().as_secs_f64() * 1e6);
                }
            }
            _ => out.failed += 1,
        }
    }
    out.allocs_per_tx = (thread_allocs() - allocs_before) as f64 / transactions.max(1) as f64;

    let spans = rec.into_spans();
    let own = self_times(&spans);
    // Per-transaction sums per bucket, then medians across transactions.
    let mut per_tx: BTreeMap<u32, PerTx> = BTreeMap::new();
    let (mut total_ns, mut own_ns, mut glue_ns) = (0u64, 0u64, 0u64);
    for (span, own) in spans.iter().zip(&own) {
        let entry = per_tx.entry(span.tx).or_default();
        let which = bucket(span.name);
        entry.by_bucket_us[which as usize] += *own as f64 / 1e3;
        own_ns += own;
        if which == Bucket::Unattributed {
            glue_ns += own;
        }
        if span.parent == NO_SPAN {
            entry.total_us = span.duration_ns() as f64 / 1e3;
            total_ns += span.duration_ns();
        }
    }
    let med = |which: Bucket| {
        median(&sorted(per_tx.values().map(|e| e.by_bucket_us[which as usize]).collect()))
    };
    out.tx_us = median(&sorted(per_tx.values().map(|e| e.total_us).collect()));
    out.server_feed_us = med(Bucket::ServerFeed);
    out.kx_exec_us = med(Bucket::KxExec);
    out.server_seal_us = med(Bucket::ServerSeal);
    out.server_open_us = med(Bucket::ServerOpen);
    out.client_us = med(Bucket::Client);
    out.respond_us = med(Bucket::Respond);
    out.unattributed_pct = glue_ns as f64 * 100.0 / (total_ns as f64).max(1.0);
    out.sum_mismatch_ns = total_ns.abs_diff(own_ns);
    for step in LEDGER_STEPS {
        let value = ledgers.get(step).map_or(0.0, |v| median(&sorted(v.clone())));
        out.ledger_us.insert(step, value);
    }
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_key() -> RsaPrivateKey {
        let mut rng = SslRng::from_seed(b"replay-test-key");
        RsaPrivateKey::generate(512, &mut rng).expect("keygen")
    }

    #[test]
    fn every_workload_replays_cleanly_and_decomposes() {
        for name in ["full_rsa1024", "resumed_1k", "tls13_dhe", "bulk_1m_aes"] {
            let workload = Workload::by_name(name).unwrap();
            let replay = run(&workload, small_key(), 1, 4);
            assert_eq!(replay.failed, 0, "{name}");
            assert_eq!(replay.sum_mismatch_ns, 0, "{name}: self times must sum to the roots");
            assert!(replay.tx_us > 0.0 && replay.client_us > 0.0 && replay.server_feed_us > 0.0);
            assert!(replay.unattributed_pct < 25.0, "{name}: {}", replay.unattributed_pct);
            let kx = replay.kx_exec_us > 0.0;
            assert_eq!(kx, matches!(name, "full_rsa1024" | "tls13_dhe"), "{name} kx {kx}");
            let roots = replay.spans.iter().filter(|s| s.parent == NO_SPAN).count();
            assert_eq!(roots, 4, "{name}: one root span per transaction");
        }
    }

    #[test]
    fn buckets_cover_every_call_span_name() {
        assert_eq!(bucket("client.feed"), Bucket::Client);
        assert_eq!(bucket("verify"), Bucket::Client);
        assert_eq!(bucket("server.resume"), Bucket::ServerFeed);
        assert_eq!(bucket("kx.exec"), Bucket::KxExec);
        assert_eq!(bucket("flight.c2s"), Bucket::Unattributed);
        assert_eq!(bucket("tx"), Bucket::Unattributed);
        assert!(respond(b"GET /doc_16.bin HTTP/1.0\r\n\r\n").unwrap().starts_with(b"HTTP/1.0 200"));
        assert!(respond(b"GET /nope HTTP/1.0\r\n\r\n").unwrap().starts_with(b"HTTP/1.0 404"));
    }
}
