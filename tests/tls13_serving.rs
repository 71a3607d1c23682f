//! Acceptance coverage for the TLS 1.3 protocol machine behind the real
//! serving layer: one dual-protocol [`EventLoopServer`] handshakes SSLv3
//! and TLS 1.3 clients back to back, the ephemeral DHE exponentiation
//! rides the crypto worker pool end to end, and the sans-io TLS 1.3
//! engines survive byte-boundary trickle feeding (proptest over chunk
//! sizes) with wires byte-identical to the coalesced run.

use proptest::prelude::*;
use sslperf::net::{EventLoopServer, ServerOptions};
use sslperf::prelude::*;
use sslperf::ssl::{Engine, EngineDriven, Tls13ClientMachine};
use sslperf::websim::loadgen::{run_event_load, EventLoadOptions};
use std::sync::OnceLock;
use std::time::Duration;

fn key() -> RsaPrivateKey {
    let mut rng = SslRng::from_seed(b"tls13-serving-tests");
    RsaPrivateKey::generate(1024, &mut rng).expect("keygen")
}

fn config() -> &'static ServerConfig {
    static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let mut rng = SslRng::from_seed(b"tls13-trickle-key");
        let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
        ServerConfig::new(key, "tls13.test").expect("config")
    })
}

/// Server-side counters update after the worker finishes its half of the
/// exchange, which the client does not wait for; poll briefly.
fn eventually(mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..200 {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn load(protocol: Protocol, connections: usize) -> EventLoadOptions {
    EventLoadOptions {
        connections,
        file_size: 1024,
        protocol,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: true,
        deadline: Duration::from_secs(60),
    }
}

/// The tentpole serving scenario: one event-loop server with crypto
/// offload and metrics serves an SSLv3 burst and then a TLS 1.3 burst,
/// and the frozen snapshot holds one live anatomy table per protocol
/// with the DHE exchange as its own TLS 1.3 ledger step.
#[test]
fn one_server_serves_both_protocols_with_side_by_side_anatomy() {
    const CONNECTIONS: usize = 8;
    let options = ServerOptions::builder()
        .shards(2)
        .crypto_workers(2)
        .metrics(true)
        .build()
        .expect("valid options");
    let server = EventLoopServer::start(key(), "tls13.sslperf.test", &options).expect("start");

    let ssl3 =
        run_event_load(server.local_addr(), &load(Protocol::Ssl3, CONNECTIONS)).expect("ssl3 load");
    let tls13 = run_event_load(server.local_addr(), &load(Protocol::Tls13, CONNECTIONS))
        .expect("tls13 load");
    assert_eq!(ssl3.transactions, CONNECTIONS, "every SSLv3 connection transacted");
    assert_eq!(tls13.transactions, CONNECTIONS, "every TLS 1.3 connection transacted");

    let stats = server.stats();
    let total = (2 * CONNECTIONS) as u64;
    assert!(eventually(|| stats.transactions() >= total), "got {}", stats.transactions());
    assert_eq!(stats.errors(), 0, "clean dual-protocol run");
    // Both key exchanges are pooled: one RSA decryption per SSLv3
    // handshake plus one DHE agreement per TLS 1.3 handshake.
    assert_eq!(stats.crypto_jobs(), total, "every key exchange rode the pool");

    let snap = stats.snapshot();
    assert_eq!(snap.full_handshake.count(), CONNECTIONS as u64, "SSLv3 ledgers");
    assert_eq!(snap.tls13_full_handshake.count(), CONNECTIONS as u64, "TLS 1.3 ledgers");
    for step in &snap.steps {
        assert_eq!(step.latency.count(), CONNECTIONS as u64, "SSLv3 step {}", step.name);
    }
    for step in &snap.tls13_steps {
        assert_eq!(step.latency.count(), CONNECTIONS as u64, "TLS 1.3 step {}", step.name);
        assert!(step.latency.sum() > 0, "TLS 1.3 step {} has latency", step.name);
    }
    // The key-exchange pool histograms aggregate across protocols.
    assert_eq!(snap.kx_exec.count(), total, "pooled exec attributed per handshake");

    // The DHE exponentiation is its own ledger step and carries the bulk
    // of the TLS 1.3 handshake crypto, the way step 5 does for SSLv3.
    let dhe = snap.tls13_step_percent("dhe_key_exchange");
    assert!(dhe >= 50.0, "DHE must dominate the TLS 1.3 handshake: {dhe:.1}%");
    assert!(snap.tls13_crypto_percent() >= 85.0, "crypto-dominated, like the paper");

    let text = snap.render();
    for marker in [
        "Live Table 2",
        "Live anatomy: TLS 1.3 handshake step latencies",
        "dhe_key_exchange",
        "get_client_kx",
    ] {
        assert!(text.contains(marker), "missing {marker}:\n{text}");
    }
    server.shutdown();
}

/// DHE offload end to end: with no crypto pool the exchange runs inline
/// on the shard (no jobs); with a pool every TLS 1.3 handshake submits
/// exactly one DHE job, and both configurations complete cleanly.
#[test]
fn tls13_dhe_offload_rides_the_crypto_pool() {
    const CONNECTIONS: usize = 6;

    let inline_options = ServerOptions::builder().shards(1).build().expect("valid options");
    let server =
        EventLoopServer::start(key(), "tls13.sslperf.test", &inline_options).expect("start");
    let report = run_event_load(server.local_addr(), &load(Protocol::Tls13, CONNECTIONS))
        .expect("inline load");
    assert_eq!(report.transactions, CONNECTIONS);
    let stats = server.stats();
    assert!(eventually(|| stats.transactions() >= CONNECTIONS as u64));
    assert_eq!(stats.crypto_jobs(), 0, "no pool, no jobs");
    assert_eq!(stats.errors(), 0);
    server.shutdown();

    let pooled_options =
        ServerOptions::builder().shards(1).crypto_workers(2).build().expect("valid options");
    let server =
        EventLoopServer::start(key(), "tls13.sslperf.test", &pooled_options).expect("start");
    let report = run_event_load(server.local_addr(), &load(Protocol::Tls13, CONNECTIONS))
        .expect("pooled load");
    assert_eq!(report.transactions, CONNECTIONS);
    let stats = server.stats();
    assert!(eventually(|| stats.transactions() >= CONNECTIONS as u64));
    assert_eq!(stats.crypto_jobs(), CONNECTIONS as u64, "one DHE job per handshake");
    assert_eq!(stats.errors(), 0);
    server.shutdown();
}

/// One TLS 1.3 engine-vs-engine run moving bytes in `chunk`-sized pieces;
/// returns both wires and one post-handshake sealed probe per side.
struct Tls13Run {
    c2s: Vec<u8>,
    s2c: Vec<u8>,
    client_probe: Vec<u8>,
    server_probe: Vec<u8>,
}

/// Moves every pending byte from `from` to `to` in `chunk`-sized feeds,
/// appending what crossed to `wire`.
fn shuttle<A: EngineDriven, B: EngineDriven>(
    from: &mut Engine<A>,
    to: &mut Engine<B>,
    chunk: usize,
    wire: &mut Vec<u8>,
) {
    while from.wants_write() {
        let take = from.pending_output().min(chunk);
        let bytes = from.output()[..take].to_vec();
        from.consume_output(take);
        wire.extend_from_slice(&bytes);
        let mut offset = 0;
        while offset < bytes.len() {
            let n = to.feed(&bytes[offset..]).expect("feed");
            assert!(n > 0, "engine must accept handshake bytes");
            offset += n;
        }
    }
}

fn tls13_run(chunk: usize) -> Tls13Run {
    let mut client = Engine::new(Tls13ClientMachine::new(
        CipherSuite::RsaDesCbc3Sha,
        SslRng::from_seed(b"t13-trickle-c"),
    ))
    .expect("client engine");
    // The server side goes through the dual-protocol dispatcher, so the
    // trickle also covers the version sniff on a partial first record.
    let mut server = Engine::new(ServerMachine::new(config(), SslRng::from_seed(b"t13-trickle-s")))
        .expect("server engine");
    let (mut c2s, mut s2c) = (Vec::new(), Vec::new());
    let mut stalls = 0;
    while !(client.is_established() && server.is_established()) {
        let before = (c2s.len(), s2c.len());
        shuttle(&mut client, &mut server, chunk, &mut c2s);
        shuttle(&mut server, &mut client, chunk, &mut s2c);
        if (c2s.len(), s2c.len()) == before {
            stalls += 1;
            assert!(stalls < 4, "handshake stalled (chunk {chunk})");
        }
    }

    client.seal(b"probe").expect("client seal");
    let client_probe = client.output().to_vec();
    let n = client.pending_output();
    client.consume_output(n);
    server.seal(b"probe").expect("server seal");
    let server_probe = server.output().to_vec();

    // The probe record actually opens on the client side.
    let fed = client.feed(&server_probe).expect("feed record");
    assert_eq!(fed, server_probe.len());
    let range = client.open_next().expect("open").expect("complete record");
    assert_eq!(&client.buffered()[range], b"probe");

    Tls13Run { c2s, s2c, client_probe, server_probe }
}

fn assert_tls13_chunked_run_matches(chunk: usize) {
    let reference = tls13_run(usize::MAX);
    let run = tls13_run(chunk);
    assert_eq!(run.c2s, reference.c2s, "client wire differs at chunk {chunk}");
    assert_eq!(run.s2c, reference.s2c, "server wire differs at chunk {chunk}");
    assert_eq!(run.client_probe, reference.client_probe, "client record at chunk {chunk}");
    assert_eq!(run.server_probe, reference.server_probe, "server record at chunk {chunk}");
}

#[test]
fn tls13_one_byte_trickle_matches_coalesced_run() {
    assert_tls13_chunked_run_matches(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TLS 1.3 flights split at every byte boundary: any chunk size
    /// produces the byte-identical handshake and session keys.
    #[test]
    fn tls13_any_chunk_size_matches_coalesced_run(chunk in 1usize..1200) {
        assert_tls13_chunked_run_matches(chunk);
    }
}
