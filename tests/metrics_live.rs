//! Acceptance coverage for the live handshake-anatomy metrics layer:
//! dozens of real-socket transactions through the event-loop server with
//! crypto offload feed the [`ServerStats`] registry, and the frozen
//! snapshot must reproduce the paper's anatomy — every handshake step
//! observed, crypto dominating the full handshake with the RSA step
//! (step 5, `get_client_kx`) the single largest, and monotone latency
//! quantiles. The `GET /metrics` exposition endpoint is exercised over a
//! live SSL connection.

mod support;

use sslperf::prelude::*;
use sslperf::ssl::ClientEngine;
use sslperf::websim::http::{synthesize_document, HttpResponse};
use sslperf::websim::loadgen::{run_socket_load, SocketLoadOptions};
use std::net::TcpStream;
use std::time::Duration;
use support::{close, connect, recv, send};

/// 1024-bit key: large enough that the RSA private decryption dominates
/// the handshake the way the paper's Table 3 shows, small enough that the
/// run stays fast.
fn key() -> RsaPrivateKey {
    let mut rng = SslRng::from_seed(b"metrics-live-tests");
    RsaPrivateKey::generate(1024, &mut rng).expect("keygen")
}

/// Server-side counters update after the shard finishes its half of the
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

/// The tentpole acceptance scenario: ≥64 live transactions through the
/// event-loop server with crypto offload and metrics on, asserted against
/// the frozen snapshot.
#[test]
fn live_anatomy_reproduces_paper_shape_from_real_sockets() {
    const CLIENTS: usize = 8;
    const TXN: usize = 8;
    const WARMUP: usize = 1;
    let options = ServerOptions::builder()
        .shards(2)
        .crypto_workers(2)
        .metrics(true)
        .build()
        .expect("valid options");
    let server =
        EventLoopServer::start(key(), "metrics.sslperf.test", &options).expect("server start");

    let load = SocketLoadOptions {
        clients: CLIENTS,
        transactions_per_client: TXN,
        warmup_per_client: WARMUP,
        resume: true,
        file_size: 1024,
        suite: CipherSuite::RsaDesCbc3Sha,
        tickets: false,
    };
    let report = run_socket_load(server.local_addr(), &load).expect("load run");
    assert_eq!(report.transactions, CLIENTS * TXN, "64 measured transactions");

    let stats = server.stats();
    let connections = (CLIENTS * (TXN + WARMUP)) as u64;
    assert!(eventually(|| stats.transactions() >= connections), "got {}", stats.transactions());
    assert_eq!(stats.errors(), 0, "clean run");

    let snap = stats.snapshot();

    // Transaction counters: every served request was measured.
    assert!(snap.transactions >= connections, "txns measured: {}", snap.transactions);
    assert!(snap.records_opened >= connections, "opened: {}", snap.records_opened);
    assert!(snap.records_sealed >= connections, "sealed: {}", snap.records_sealed);
    assert!(snap.bytes_in > 0 && snap.bytes_out > 0);
    assert!(snap.open_cycles > 0 && snap.seal_cycles > 0, "record timing present");
    assert!(snap.record_crypto_cycles > 0, "record crypto attributed");

    // Handshake ledgers: every full handshake populated all ten steps.
    let fulls = stats.full_handshakes();
    assert!(fulls >= CLIENTS as u64, "each client's first connection is full");
    assert_eq!(snap.full_handshake.count(), fulls, "one ledger per full handshake");
    assert_eq!(snap.resumed_handshake.count(), stats.resumed_handshakes());
    for step in &snap.steps {
        assert_eq!(step.latency.count(), fulls, "step {} observed per handshake", step.name);
        assert!(step.latency.sum() > 0, "step {} has non-zero latency", step.name);
    }

    // Table 3 live: crypto dominates the full handshake, and step 5 (the
    // RSA private decryption, `get_client_kx`) is the single largest step.
    let crypto_pct = snap.handshake_crypto_percent();
    assert!(crypto_pct >= 85.0, "crypto share {crypto_pct:.1}% must dominate (paper: ~90%)");
    let kx = snap.step_percent("get_client_kx");
    for step in &snap.steps {
        if step.name != "get_client_kx" {
            assert!(
                snap.step_percent(step.name) <= kx,
                "step 5 must be the largest: {} ({:.1}%) vs get_client_kx ({kx:.1}%)",
                step.name,
                snap.step_percent(step.name),
            );
        }
    }

    // Offload split: every full handshake routed its RSA decryption
    // through the pool, and the execution half was attributed.
    assert_eq!(stats.crypto_jobs(), fulls, "one pooled decrypt per full handshake");
    assert_eq!(snap.kx_exec.count(), fulls);
    assert!(snap.kx_exec.sum() > 0);

    // Quantiles are monotone by construction — pinned here because the
    // paper-shaped report sorts on them.
    for h in [&snap.full_handshake, &snap.resumed_handshake, &snap.kx_exec] {
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99(), "p50 <= p95 <= p99");
    }

    // The rendered exposition carries all three paper tables.
    let text = snap.render();
    for marker in ["Live Table 1", "Live Table 2", "Live Table 3", "get_client_kx"] {
        assert!(text.contains(marker), "missing {marker}:\n{text}");
    }
    server.shutdown();
}

/// Sends one request and returns the first response record's payload.
fn fetch(client: &mut ClientEngine, socket: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    send(client, socket, request);
    let range = recv(client, socket).expect("response");
    client.buffered()[range].to_vec()
}

/// A response streamed over several refills reaches the registry as one
/// transaction: one seal entry carrying every payload byte (head + body),
/// its crypto share, and the generation cycles in Table 1's "other" bucket
/// — the totals a single whole-body seal fed, whatever the refill count.
#[test]
fn streamed_response_is_one_seal_and_one_transaction() {
    const SIZE: usize = 40_000;
    let options = ServerOptions::builder().metrics(true).build().expect("valid options");
    let server =
        EventLoopServer::start(key(), "metrics.sslperf.test", &options).expect("server start");
    let client = SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"mx-stream"));
    let (mut client, mut socket) = connect(server.local_addr(), client);

    let path = format!("/doc_{SIZE}.bin");
    let expected = HttpResponse::ok(synthesize_document(&path, SIZE)).to_bytes();
    send(&mut client, &mut socket, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());
    let mut response = Vec::new();
    while response.len() < expected.len() {
        let range = recv(&mut client, &mut socket).expect("response record");
        response.extend_from_slice(&client.buffered()[range]);
    }
    assert!(response == expected, "three records, one byte-exact response");
    close(&mut client, &mut socket);

    let stats = server.stats();
    assert!(eventually(|| stats.snapshot().transactions == 1));
    let snap = stats.snapshot();
    assert_eq!(snap.bytes_out, expected.len() as u64, "head + {SIZE} body bytes sealed");
    assert_eq!(snap.records_sealed, 1, "one seal entry per transaction, not per refill");
    assert_eq!(snap.records_opened, 1);
    assert!(snap.seal_cycles > 0 && snap.record_crypto_cycles > 0, "seal timing attributed");
    assert!(snap.other_cycles_per_transaction() > 0, "generation lands in \"other\"");
    server.shutdown();
}

/// `GET /metrics` over a live SSL connection returns the rendered
/// snapshot instead of a synthesized document — and only when the
/// exposition is switched on. Recording is not: a default server keeps the
/// same registry, and the exposition fetch is never a transaction.
#[test]
fn metrics_endpoint_serves_rendered_snapshot() {
    let options = ServerOptions::builder().metrics(true).build().expect("valid options");
    let server =
        EventLoopServer::start(key(), "metrics.sslperf.test", &options).expect("server start");

    // First transaction: a normal document, so the registry has content.
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"mx-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    let doc =
        fetch(&mut client, &mut socket, b"GET /doc_512.bin HTTP/1.0\r\nHost: metrics\r\n\r\n");
    assert!(doc.starts_with(b"HTTP/1.0 200"), "document served");

    // Second request on the same session: the exposition endpoint.
    let body = fetch(&mut client, &mut socket, b"GET /metrics HTTP/1.0\r\nHost: metrics\r\n\r\n");
    let text = String::from_utf8_lossy(&body);
    assert!(text.starts_with("HTTP/1.0 200"), "metrics served over SSL: {text}");
    for marker in ["Live Table 1", "Live Table 2", "Live Table 3"] {
        assert!(text.contains(marker), "missing {marker}:\n{text}");
    }
    // The handshake that carried this very connection is in the tables.
    assert!(text.contains("full"), "handshake row rendered:\n{text}");
    close(&mut client, &mut socket);
    drop(socket);

    // A response is reported before its bytes are written, so both are in.
    // One definition of a transaction: the document counts, the
    // exposition does not, and the getter and the snapshot agree.
    let stats = server.stats();
    let snap = stats.snapshot();
    assert_eq!(snap.full_handshake.count(), 1);
    assert_eq!(
        (stats.transactions(), snap.transactions),
        (1, 1),
        "the document is the one transaction"
    );
    server.shutdown();

    // Control: a default server records the same anatomy, but /metrics is
    // just an unknown document path.
    let server = EventLoopServer::start(key(), "metrics.sslperf.test", &ServerOptions::default())
        .expect("server start");
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"mx-c2"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    let body = fetch(&mut client, &mut socket, b"GET /metrics HTTP/1.0\r\nHost: metrics\r\n\r\n");
    assert!(
        String::from_utf8_lossy(&body).starts_with("HTTP/1.0 404"),
        "plain server does not expose its registry"
    );
    close(&mut client, &mut socket);
    let snap = server.stats().snapshot();
    assert_eq!(snap.full_handshake.count(), 1, "recorded without the exposition");
    for step in &snap.steps {
        assert!(step.latency.count() > 0, "step {} recorded", step.name);
    }
    server.shutdown();
}
