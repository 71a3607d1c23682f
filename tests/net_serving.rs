//! Integration coverage for the real-socket serving engine: the sharded
//! session cache, cross-connection resumption both in memory and over TCP,
//! tampered-id fallback, the end-to-end loaded run that reproduces the
//! paper's §3 measurement scenario, and the event loop's own behaviour
//! (concurrency beyond thread count, slowloris eviction, half-closed
//! clients, cache overflow under concurrent resumption).

mod support;

use sslperf::prelude::*;
use sslperf::ssl::Engine;
use sslperf::websim::http::{synthesize_document, HttpResponse};
use sslperf::websim::loadgen::{run_socket_load, SocketLoadOptions};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use support::{close, connect, establish, eventually, handshake, recv, send, Tapped};

/// A deterministic 512-bit key (`RsaPrivateKey` is deliberately not
/// `Clone`, so each server regenerates from the fixed seed).
fn key() -> RsaPrivateKey {
    let mut rng = SslRng::from_seed(b"net-serving-tests");
    RsaPrivateKey::generate(512, &mut rng).expect("keygen")
}

/// A key whose decrypt outlasts a burst's arrival spread: 3072 bits on
/// the u32 limbs, ~14 ms per decrypt on a 2-vCPU host. The burst's later
/// key exchanges queue behind the first decrypts, so batches form from a
/// real backlog. Generated once per test binary.
fn slow_key() -> RsaPrivateKey {
    static SLOW: OnceLock<RsaPrivateKey> = OnceLock::new();
    let key = SLOW.get_or_init(|| {
        let mut rng = SslRng::from_seed(b"net-serving-slow-key-3072");
        let mut key = RsaPrivateKey::generate(3072, &mut rng).expect("keygen");
        key.set_limb_width(sslperf::bignum::LimbWidth::U32);
        key
    });
    key.clone()
}

fn start_server() -> EventLoopServer {
    EventLoopServer::start(key(), "net.sslperf.test", &ServerOptions::default())
        .expect("server start")
}

#[test]
fn sharded_cache_spreads_sessions_and_counts_lookups() {
    let cache = ShardedSessionCache::new(8, 64);
    for i in 0..64u8 {
        let session =
            sslperf::ssl::CachedSession { master: vec![i; 48], suite: CipherSuite::RsaDesCbc3Sha };
        cache.store(vec![i; 32], session);
    }
    assert_eq!(cache.len(), 64);
    let populated = (0..cache.shard_count()).filter(|&s| cache.shard_len(s) > 0).count();
    assert!(populated >= 4, "sessions must spread over shards, got {populated}");
    assert!(cache.lookup(&[0; 32]).is_some());
    assert!(cache.lookup(&[99; 32]).is_none());
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}

#[test]
fn sharded_cache_evicts_in_lru_order() {
    let cache = ShardedSessionCache::new(1, 3);
    let session = |n: u8| sslperf::ssl::CachedSession {
        master: vec![n; 48],
        suite: CipherSuite::RsaDesCbc3Sha,
    };
    cache.store(vec![1], session(1));
    cache.store(vec![2], session(2));
    cache.store(vec![3], session(3));
    // Touch 1 and 2; 3 becomes least recently used, then overflow twice.
    assert!(cache.lookup(&[1]).is_some());
    assert!(cache.lookup(&[2]).is_some());
    cache.store(vec![4], session(4));
    assert!(cache.lookup(&[3]).is_none(), "LRU entry 3 evicted first");
    cache.store(vec![5], session(5));
    assert!(cache.lookup(&[1]).is_none(), "then the next-oldest touch");
    assert!(cache.lookup(&[2]).is_some());
    assert!(cache.lookup(&[4]).is_some());
    assert!(cache.lookup(&[5]).is_some());
}

#[test]
fn resumption_hits_shared_cache_over_in_memory_transport() {
    let cache = Arc::new(ShardedSessionCache::new(4, 16));
    let config = Arc::new(
        ServerConfig::with_cache(key(), "mem.sslperf.test", Box::new(Arc::clone(&cache)))
            .expect("config"),
    );

    // Two engines pumped in one thread until both are established.
    let pair = |client: SslClient, server_seed: &[u8]| {
        let mut client = Engine::new(client).expect("client engine");
        let server = SslServer::new(&config, SslRng::from_seed(server_seed));
        let mut server = Engine::new(server).expect("server engine");
        establish(&mut client, &mut server);
        (client, server)
    };

    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"mem-c1"));
    let (client, server) = pair(client, b"mem-s1");
    assert!(!server.machine().resumed(), "first handshake is full");
    assert_eq!(cache.len(), 1, "session stored in the shared cache");

    // "Reconnect": fresh state machines, same cache.
    let session = client.machine().session().expect("established");
    let (client, server) =
        pair(SslClient::resuming(session, SslRng::from_seed(b"mem-c2")), b"mem-s2");
    assert!(client.machine().resumed());
    assert!(server.machine().resumed(), "server resumed from cache");
    assert!(cache.hits() >= 1, "resumption must count as a cache hit");
}

#[test]
fn resumption_hits_after_tcp_reconnect() {
    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"tcp-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    assert!(!client.machine().resumed());
    let session = client.machine().session().expect("established");
    close(&mut client, &mut socket);
    drop(socket);

    let client = SslClient::resuming(session, SslRng::from_seed(b"tcp-c2"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    assert!(client.machine().resumed(), "second connection resumes across the socket");
    close(&mut client, &mut socket);
    drop(socket);

    assert!(server.session_cache().hits() >= 1);
    let stats = server.stats();
    assert!(
        eventually(|| stats.full_handshakes() == 1 && stats.resumed_handshakes() == 1),
        "one full + one resumed, got {} + {}",
        stats.full_handshakes(),
        stats.resumed_handshakes()
    );
    server.shutdown();
}

#[test]
fn tampered_session_id_misses_and_falls_back_to_full() {
    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"tam-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    let session = client.machine().session().expect("established");
    close(&mut client, &mut socket);
    drop(socket);

    let tampered = session.with_id(vec![0xA5; session.id().len()]);
    let client = SslClient::resuming(tampered, SslRng::from_seed(b"tam-c2"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    assert!(!client.machine().resumed(), "unknown id must fall back to a full handshake");
    close(&mut client, &mut socket);
    drop(socket);

    assert!(server.session_cache().misses() >= 1, "tampered id counts as a miss");
    assert!(
        eventually(|| server.stats().full_handshakes() == 2),
        "both handshakes were full, got {}",
        server.stats().full_handshakes()
    );
    assert_eq!(server.stats().resumed_handshakes(), 0);
    server.shutdown();
}

/// The acceptance scenario: ≥64 transactions from ≥8 concurrent client
/// threads against the TCP server on loopback, with a nonzero resumption
/// hit rate and a report carrying throughput plus latency percentiles.
#[test]
fn loaded_server_end_to_end() {
    let server = start_server();
    let options = SocketLoadOptions {
        clients: 8,
        transactions_per_client: 8,
        resume: true,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: false,
    };
    let report = run_socket_load(server.local_addr(), &options).expect("load run");

    assert_eq!(report.transactions, 64, "8 clients × 8 measured transactions");
    assert!(report.resumed > 0, "resumption must happen under load");
    assert!(report.transactions_per_second() > 0.0);
    assert!(server.session_cache().hits() > 0, "session-resumption hit rate > 0");

    let rendered = report.to_string();
    assert!(rendered.contains("transactions/s"), "throughput line: {rendered}");
    for marker in ["p50", "p95", "p99"] {
        assert!(rendered.contains(marker), "missing {marker}: {rendered}");
    }
    assert!(rendered.contains("handshake latency"), "handshake percentiles: {rendered}");
    assert!(rendered.contains("transaction latency"), "transaction percentiles: {rendered}");

    let stats = server.stats();
    assert!(
        eventually(|| stats.transactions() >= 64 + 8),
        "warmups serve too, got {}",
        stats.transactions()
    );
    assert!(stats.resumed_handshakes() > 0);
    assert_eq!(stats.errors(), 0, "clean run");
    server.shutdown();
}

// ---- the event loop under load and hostility ----

/// The C10k acceptance test: 2 shard threads hold 16 concurrent
/// established connections open *simultaneously* (8× the thread count —
/// impossible for a thread-per-connection server with 2 threads), then
/// serve all of them.
#[test]
fn event_loop_holds_8x_more_connections_than_threads() {
    let shards = 2;
    let options = ServerOptions::builder().shards(shards).build().expect("valid options");
    let server = EventLoopServer::start(key(), "net.sslperf.test", &options).expect("server start");

    let load = SocketLoadOptions {
        clients: 16,
        transactions_per_client: 1,
        resume: false,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: true,
    };
    let report = run_socket_load(server.local_addr(), &load).expect("event load");

    assert_eq!(
        report.peak_established, 16,
        "all 16 connections must be established at the same instant"
    );
    assert!(report.peak_established >= 8 * shards, "≥8× concurrency over thread count");
    assert_eq!(report.transactions, 16, "every connection completes its transaction");

    let stats = server.stats();
    assert!(eventually(|| stats.connections() == 16), "got {}", stats.connections());
    assert_eq!(stats.full_handshakes(), 16);
    assert_eq!(stats.errors(), 0, "clean run");
    assert_eq!(stats.timeouts(), 0);
    server.shutdown();
}

/// Reads one plaintext alert record `(level, description)` off a raw
/// socket (pre-CCS alerts are unencrypted).
fn read_plaintext_alert(socket: &mut TcpStream) -> (u8, u8) {
    let mut header = [0u8; 5];
    socket.read_exact(&mut header).expect("alert header");
    assert_eq!(header[0], 21, "content type must be alert, got {}", header[0]);
    assert_eq!((header[1], header[2]), (3, 0), "SSLv3 version");
    assert_eq!(u16::from_be_bytes([header[3], header[4]]), 2, "alert body length");
    let mut body = [0u8; 2];
    socket.read_exact(&mut body).expect("alert body");
    (body[0], body[1])
}

/// A client that connects and then stalls mid-handshake is evicted by the
/// event loop's deadline: counted as a timeout (not an error) and told
/// goodbye with a fatal `handshake_failure` alert before the close.
#[test]
fn event_loop_evicts_stalled_client_with_alert() {
    let options = ServerOptions::builder()
        .shards(1)
        .io_timeout(Some(Duration::from_millis(200)))
        .build()
        .expect("valid options");
    let server = EventLoopServer::start(key(), "net.sslperf.test", &options).expect("server start");

    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    // A teasing partial record header, then silence: the slowloris shape.
    socket.write_all(&[22, 3, 0]).expect("partial header");

    let (level, description) = read_plaintext_alert(&mut socket);
    assert_eq!((level, description), (2, 40), "fatal handshake_failure");
    // The server closes after the alert drains.
    let mut rest = [0u8; 16];
    assert_eq!(socket.read(&mut rest).expect("eof"), 0, "socket closed after alert");

    let stats = server.stats();
    assert!(eventually(|| stats.timeouts() == 1), "got {}", stats.timeouts());
    assert_eq!(stats.errors(), 0, "a stall is a timeout, not a protocol error");
    assert!(stats.alerts_sent() >= 1);
    server.shutdown();
}

/// A protocol violation (garbage instead of a client hello) is an error,
/// not a timeout, and still gets a proper alert before the close.
#[test]
fn garbage_hello_gets_alert() {
    let server = start_server();

    // A well-framed handshake record carrying one complete message of an
    // unknown type — an immediate protocol violation, not a stall.
    let garbage = [22, 3, 0, 0, 4, 0xde, 0x00, 0x00, 0x00];
    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    socket.write_all(&garbage).expect("garbage");
    let (level, _) = read_plaintext_alert(&mut socket);
    assert_eq!(level, 2, "fatal alert");
    let stats = server.stats();
    assert!(eventually(|| stats.errors() == 1), "got {}", stats.errors());
    assert!(eventually(|| stats.alerts_sent() >= 1));
    assert_eq!(stats.timeouts(), 0, "a violation is an error, not a timeout");
    server.shutdown();
}

/// A client that half-closes after its request (`shutdown(Write)`, the
/// `Connection: close` idiom) is still owed its response: the event loop
/// sees EOF on read, stops reading, and flushes everything it has queued —
/// 1 MiB here, far more than one sweep's socket buffer — before dropping
/// the connection.
#[test]
fn half_closed_client_still_gets_its_response() {
    const SIZE: usize = 1024 * 1024;
    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"half-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    socket.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");

    let path = format!("/doc_{SIZE}.bin");
    send(&mut client, &mut socket, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());
    socket.shutdown(Shutdown::Write).expect("half-close");

    // Read to EOF: every record of the response, then the orderly end.
    let mut response = Vec::new();
    while let Ok(range) = recv(&mut client, &mut socket) {
        response.extend_from_slice(&client.buffered()[range]);
    }
    let response = HttpResponse::parse(&response).expect("a complete response arrived");
    assert_eq!(response.status(), 200);
    assert!(response.body() == synthesize_document(&path, SIZE), "body is byte-exact");

    let stats = server.stats();
    assert!(eventually(|| stats.transactions() == 1), "got {}", stats.transactions());
    assert_eq!(stats.errors(), 0, "a half-close is not an error");
    assert_eq!(stats.timeouts(), 0, "nor a timeout");
    server.shutdown();
}

/// A client killed mid-download is not a transaction: the count moves
/// when a response's last fragment is sealed, and this one's never is —
/// the server learns of the reset on its next write and drops what was
/// left of the 64 MiB, none of which it ever held. The next client is
/// served as if nothing happened.
#[test]
fn client_killed_mid_stream_is_not_a_transaction() {
    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"killed-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    socket.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    send(&mut client, &mut socket, b"GET /doc_67108864.bin HTTP/1.0\r\n\r\n");
    let range = recv(&mut client, &mut socket).expect("first record");
    assert!(client.buffered()[range].starts_with(b"HTTP/1.0 200"), "the download started");
    drop(socket);

    let client = SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"killed-c2"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    send(&mut client, &mut socket, b"GET /doc_1024.bin HTTP/1.0\r\n\r\n");
    let range = recv(&mut client, &mut socket).expect("response");
    let response = HttpResponse::parse(&client.buffered()[range]).expect("a complete response");
    assert!(response.body() == synthesize_document("/doc_1024.bin", 1024));
    close(&mut client, &mut socket);

    let stats = server.stats();
    assert!(eventually(|| stats.transactions() == 1), "got {}", stats.transactions());
    // Long enough for 64 MiB to have been sealed, had anyone kept sealing.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(stats.transactions(), 1, "the abandoned download never completes");
    assert_eq!(stats.connections(), 2);
    assert_eq!(stats.full_handshakes() + stats.resumed_handshakes(), stats.connections());
    assert_eq!(stats.errors(), 0, "a peer reset is not a protocol error");
    server.shutdown();
}

/// Streaming a response fragment by fragment cuts exactly the records one
/// `seal` of the whole response cut: full 16 384-byte fragments, then the
/// tail. (What keeps the flight pins and golden transcripts unedited.)
#[test]
fn streamed_response_keeps_whole_body_fragmentation() {
    const SIZE: usize = 40_000;
    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"frag-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    socket.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let path = format!("/doc_{SIZE}.bin");
    let expected = HttpResponse::ok(synthesize_document(&path, SIZE)).to_bytes();
    send(&mut client, &mut socket, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());

    let mut response = Vec::new();
    let mut lengths = Vec::new();
    while response.len() < expected.len() {
        let range = recv(&mut client, &mut socket).expect("response record");
        lengths.push(range.len());
        response.extend_from_slice(&client.buffered()[range]);
    }
    assert!(response == expected, "response is byte-exact");
    assert_eq!(lengths, [16_384, 16_384, expected.len() - 2 * 16_384]);
    close(&mut client, &mut socket);
    server.shutdown();
}

// ---- fatal alerts on the wire ----
//
// Every fatal alert description a client can make the server emit,
// provoked from the client side and asserted on a real socket. Two
// descriptions are out of a client's reach. `decompression_failure` (30):
// this SSLv3 subset negotiates no compression methods at all, so no input
// can make decompression run, let alone fail — the codec round-trip in
// `sslperf-ssl`'s alert tests is the only place that description can
// appear. `bad_certificate` (42): it is what `SslError::Rsa` maps to, and
// a key exchange that fails to decrypt no longer surfaces as one (the
// matrix below).

/// Frames a complete handshake message as one plaintext record.
fn handshake_record(msg: &[u8]) -> Vec<u8> {
    let mut record = vec![22, 3, 0];
    record.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    record.extend_from_slice(msg);
    record
}

/// Hand-crafts a ClientHello record: protocol version, fixed 32-byte
/// random, empty session id, and the given cipher-suite wire ids.
fn client_hello_record(version: (u8, u8), suites: &[u16]) -> Vec<u8> {
    let mut body = vec![version.0, version.1];
    body.extend_from_slice(&[0x5a; 32]);
    body.push(0); // empty session id
    body.extend_from_slice(&((suites.len() * 2) as u16).to_be_bytes());
    for suite in suites {
        body.extend_from_slice(&suite.to_be_bytes());
    }
    let mut msg = vec![1]; // client hello
    msg.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]);
    msg.extend_from_slice(&body);
    handshake_record(&msg)
}

/// Reads one full record off the socket: `(content type, body)`.
fn read_record_raw(socket: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 5];
    socket.read_exact(&mut header).expect("record header");
    assert_eq!((header[1], header[2]), (3, 0), "SSLv3 version");
    let len = u16::from_be_bytes([header[3], header[4]]) as usize;
    let mut body = vec![0u8; len];
    socket.read_exact(&mut body).expect("record body");
    (header[0], body)
}

/// A hello offering a protocol version the server does not speak maps to
/// `UnsupportedVersion` and a fatal `illegal_parameter` (47) — pinned
/// down to the exact record bytes. The error poisons the engine, and the
/// alert is queued *on the poisoned engine* and still drains to the wire
/// before the close: the "alert still queued" path.
#[test]
fn version_mismatch_gets_exact_illegal_parameter_bytes() {
    let server = start_server();

    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    socket.write_all(&client_hello_record((2, 0), &[0x000a])).expect("hello");
    let mut wire = [0u8; 7];
    socket.read_exact(&mut wire).expect("alert record");
    assert_eq!(wire, [21, 3, 0, 0, 2, 2, 47], "fatal illegal_parameter, byte-exact");
    let mut rest = [0u8; 16];
    assert_eq!(socket.read(&mut rest).expect("eof"), 0, "closed after the queued alert");
    let stats = server.stats();
    assert!(eventually(|| stats.errors() == 1), "got {}", stats.errors());
    assert!(eventually(|| stats.alerts_sent() >= 1));
    server.shutdown();
}

/// A well-formed hello offering only suites the server does not implement
/// maps to `NoCommonCipher` and a fatal `handshake_failure` (40).
#[test]
fn no_common_cipher_gets_handshake_failure_alert() {
    let server = start_server();

    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    socket.write_all(&client_hello_record((3, 0), &[0x00ff, 0x1234])).expect("hello");
    let (level, description) = read_plaintext_alert(&mut socket);
    assert_eq!((level, description), (2, 40), "fatal handshake_failure");
    server.shutdown();
}

/// Application data before the handshake finishes is out of sequence:
/// `UnexpectedMessage` and a fatal `unexpected_message` (10).
#[test]
fn application_data_mid_handshake_gets_unexpected_message_alert() {
    let server = start_server();

    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    // A well-framed application-data record where a hello must come.
    socket.write_all(&[23, 3, 0, 0, 4, 1, 2, 3, 4]).expect("early data");
    let (level, description) = read_plaintext_alert(&mut socket);
    assert_eq!((level, description), (2, 10), "fatal unexpected_message");
    server.shutdown();
}

/// Frames a ClientKeyExchange (type 16, u16-length-prefixed ciphertext)
/// as one plaintext handshake record.
fn client_kx_record(ciphertext: &[u8]) -> Vec<u8> {
    let mut msg = vec![16];
    msg.extend_from_slice(&(ciphertext.len() as u32 + 2).to_be_bytes()[1..]);
    msg.extend_from_slice(&(ciphertext.len() as u16).to_be_bytes());
    msg.extend_from_slice(ciphertext);
    handshake_record(&msg)
}

/// Reads the server's hello flight up to and including ServerHelloDone
/// (type 14), so what follows on the socket is the answer to what the test
/// sends next and nothing else.
fn read_through_hello_done(socket: &mut TcpStream) {
    loop {
        let (content_type, body) = read_record_raw(socket);
        assert_eq!(content_type, 22, "hello flight is handshake records");
        let mut at = 0;
        while at < body.len() {
            if body[at] == 14 {
                return;
            }
            at += 4 + u32::from_be_bytes([0, body[at + 1], body[at + 2], body[at + 3]]) as usize;
        }
    }
}

/// The Bleichenbacher oracle stays closed: whatever is wrong with a
/// ClientKeyExchange — ciphertext that is no RSA block at all, a block with
/// bad PKCS#1 padding, good padding around the wrong version or a 47-byte
/// secret — the server says nothing until the client's finished record,
/// and then says byte for byte what it says to a client whose key exchange
/// was well-formed but whose finished record is junk. Run against the
/// inline event loop and the offloading one; in the latter the failed
/// decrypt comes back from a crypto worker and must leave the same trace.
#[test]
fn malformed_key_exchange_is_indistinguishable_until_finished() {
    use sslperf::bignum::Bn;
    use std::io::ErrorKind;

    let el_options = ServerOptions::builder().shards(1).build().expect("valid options");
    let inline =
        EventLoopServer::start(key(), "net.sslperf.test", &el_options).expect("event-loop start");
    let off_options =
        ServerOptions::builder().shards(1).crypto_workers(2).build().expect("valid options");
    let offload =
        EventLoopServer::start(key(), "net.sslperf.test", &off_options).expect("offload start");

    let private = key();
    let public = private.public_key();
    let k = public.modulus_bytes();
    let mut rng = SslRng::from_seed(b"kx-matrix");
    let mut secret = |version: [u8; 2], len: usize| {
        let mut block = version.to_vec();
        block.extend(rng.bytes(len - 2));
        block
    };
    // Block type 1 where PKCS#1 encryption padding demands type 2.
    let mut bad_padding = vec![0xff; k];
    bad_padding[..2].copy_from_slice(&[0, 1]);
    bad_padding[k - 49] = 0;
    let bad_padding = public
        .raw_encrypt(&Bn::from_bytes_be(&bad_padding))
        .expect("block below the modulus")
        .to_bytes_be_padded(k);
    let encrypt = |block: &[u8]| {
        public.encrypt_pkcs1(block, &mut SslRng::from_seed(b"kx-matrix-pad")).expect("fits")
    };
    let cases = [
        ("well-formed (the reference)", encrypt(&secret([3, 0], 48))),
        ("garbage ciphertext", vec![0x42; k]),
        ("bad PKCS#1 padding", bad_padding),
        ("wrong version bytes", encrypt(&secret([3, 1], 48))),
        ("47-byte secret", encrypt(&secret([3, 0], 47))),
    ];

    for (server, arm) in [(&inline, "inline"), (&offload, "offload")] {
        for (case, ciphertext) in &cases {
            let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
            socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            socket.write_all(&client_hello_record((3, 0), &[0x000a])).expect("hello");
            read_through_hello_done(&mut socket);

            socket.write_all(&client_kx_record(ciphertext)).expect("key exchange");
            socket.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
            let early = socket.read(&mut [0u8; 1]).map_err(|e| e.kind());
            assert!(
                matches!(early, Err(ErrorKind::WouldBlock | ErrorKind::TimedOut)),
                "{arm}, {case}: the server answered the key exchange itself: {early:?}"
            );

            // Change-cipher-spec, then a finished record no key opens.
            socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            socket.write_all(&[20, 3, 0, 0, 1, 1]).expect("change cipher spec");
            socket.write_all(&[22, 3, 0, 0, 64]).expect("finished header");
            socket.write_all(&[0x5a; 64]).expect("finished body");
            let mut wire = Vec::new();
            socket.read_to_end(&mut wire).expect("alert, then close");
            assert_eq!(wire, [21, 3, 0, 0, 2, 2, 20], "{arm}, {case}: fatal bad_record_mac");
        }
    }
    // Every offloaded decrypt, doomed or not, went through the crypto pool.
    let rows = cases.len() as u64;
    let stats = offload.stats();
    assert!(eventually(|| stats.crypto_jobs() == rows), "got {}", stats.crypto_jobs());
    assert!(eventually(|| stats.errors() == rows), "got {}", stats.errors());
    assert_eq!(inline.stats().crypto_jobs(), 0);
    assert!(eventually(|| inline.stats().errors() == rows), "got {}", inline.stats().errors());
    inline.shutdown();
    offload.shutdown();
}

/// Tampering with an established connection's ciphertext fails record
/// verification: `BadRecordMac`/`BadPadding` and a fatal
/// `bad_record_mac` (20). Post-handshake the alert itself travels
/// encrypted, so the established client decrypts and surfaces it as
/// `SslError::PeerAlert`.
#[test]
fn tampered_ciphertext_gets_bad_record_mac_alert() {
    use sslperf::ssl::alert::{AlertDescription, AlertLevel};
    use sslperf::ssl::SslError;

    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"mac-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");

    // A forged application-data record: right framing, three whole DES
    // blocks of garbage that cannot carry a valid MAC.
    socket.write_all(&[23, 3, 0, 0, 24]).expect("forged header");
    socket.write_all(&[0x5a; 24]).expect("forged body");

    let error = recv(&mut client, &mut socket).expect_err("server must reject the forgery");
    match error {
        SslError::PeerAlert(alert) => {
            assert_eq!(alert.level, AlertLevel::Fatal);
            assert_eq!(alert.description, AlertDescription::BadRecordMac);
        }
        other => panic!("expected a peer alert, got {other}"),
    }
    let stats = server.stats();
    assert!(eventually(|| stats.errors() == 1), "got {}", stats.errors());
    assert!(eventually(|| stats.alerts_sent() >= 1));
    server.shutdown();
}

/// Application-level garbage over a healthy session — a well-sealed
/// record that is not an HTTP request — is a decode-class error like any
/// other: a fatal `illegal_parameter`, sent encrypted.
#[test]
fn garbage_request_gets_illegal_parameter_alert() {
    use sslperf::ssl::alert::{Alert, AlertDescription};
    use sslperf::ssl::SslError;

    let server = start_server();
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"junk-c1"));
    let (mut client, mut socket) = connect(server.local_addr(), client);
    socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");

    send(&mut client, &mut socket, &[0xff, 0xfe, 0xfd]);
    assert_eq!(
        recv(&mut client, &mut socket),
        Err(SslError::PeerAlert(Alert::fatal(AlertDescription::IllegalParameter)))
    );
    assert!(eventually(|| server.stats().errors() == 1), "got {}", server.stats().errors());
    server.shutdown();
}

/// The crypto-offload serving path end to end: an event-loop server with
/// 2 crypto workers holds 16 concurrent connections, routes every RSA
/// decryption through the pool, and serves all transactions cleanly with
/// the queue-wait/execution split accounted.
#[test]
fn event_loop_offload_serves_concurrent_connections() {
    let options =
        ServerOptions::builder().shards(2).crypto_workers(2).build().expect("valid options");
    let server = EventLoopServer::start(key(), "net.sslperf.test", &options).expect("server start");

    let load = SocketLoadOptions {
        clients: 16,
        transactions_per_client: 1,
        resume: false,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: true,
    };
    let report = run_socket_load(server.local_addr(), &load).expect("event load");
    assert_eq!(report.peak_established, 16, "held concurrently while decrypts were pooled");
    assert_eq!(report.transactions, 16);

    let stats = server.stats();
    assert!(eventually(|| stats.full_handshakes() == 16), "got {}", stats.full_handshakes());
    assert_eq!(stats.crypto_jobs(), 16, "one pooled decrypt per full handshake");
    assert!(stats.crypto_queue_depth_max() >= 1);
    assert!(stats.crypto_queue_wait().get() > 0, "queue wait attributed");
    assert!(stats.crypto_exec().get() > 0, "execution attributed");
    assert_eq!(stats.errors(), 0, "clean run");
    server.shutdown();
}

/// Concurrent resuming clients against an event-loop server with a tiny
/// session cache: eviction churn forces full-handshake fallbacks, and the
/// hit/miss and full/resumed counters stay exactly consistent.
#[test]
fn event_loop_cache_overflow_under_concurrent_resumption() {
    const CLIENTS: usize = 4;
    const TXN: usize = 4;
    const WARMUP: usize = 1;
    let options = ServerOptions::builder()
        .shards(2)
        .cache_shards(1)
        .cache_capacity_per_shard(2) // smaller than the client count
        .build()
        .expect("valid options");
    let server = EventLoopServer::start(key(), "net.sslperf.test", &options).expect("server start");

    let load = SocketLoadOptions {
        clients: CLIENTS,
        transactions_per_client: TXN,
        resume: true,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: false,
    };
    let report = run_socket_load(server.local_addr(), &load).expect("load run");
    assert_eq!(report.transactions, CLIENTS * TXN);

    let cache = server.session_cache();
    let stats = server.stats();
    let connections = (CLIENTS * (TXN + WARMUP)) as u64;
    assert!(eventually(|| stats.connections() == connections), "got {}", stats.connections());
    // Every transaction after a client's first offers a session id: one
    // cache lookup each, hit or miss — nothing lost, nothing double.
    let offers = (CLIENTS * (TXN + WARMUP - 1)) as u64;
    assert_eq!(cache.hits() + cache.misses(), offers, "every offer is exactly one lookup");
    assert!(cache.misses() > 0, "a 2-entry cache must evict under 4 concurrent clients");
    // The server resumes exactly when the lookup hit.
    assert_eq!(stats.resumed_handshakes(), cache.hits(), "resumed == cache hits");
    assert_eq!(
        stats.full_handshakes() + stats.resumed_handshakes(),
        connections,
        "full + resumed covers every connection"
    );
    assert!(cache.len() <= 2, "capacity holds under churn");
    assert_eq!(stats.errors(), 0, "clean run");
    server.shutdown();
}

/// The record layer must not leak *which* check failed on a protected
/// record: a tampered padding byte and a tampered MAC/ciphertext byte
/// must produce byte-identical fatal alerts on the wire. Two identically
/// seeded client/server pairs (same keys, same sequence state) each seal
/// the same application record; one copy has its pad-length byte flipped
/// (through CBC, the last byte of the penultimate ciphertext block), the
/// other its first ciphertext byte (a MAC failure with intact padding).
/// Both must fail as `MacMismatch`, and the alert each server would send
/// must be the same bytes — a padding oracle would differ in either the
/// error or the alert.
#[test]
fn tampered_pad_and_tampered_mac_alerts_are_byte_identical() {
    use sslperf::ssl::alert::Alert;
    use sslperf::ssl::SslError;

    let config = ServerConfig::new(key(), "oracle.sslperf.test").expect("config");

    // Drives one identically-seeded pair to established and returns the
    // engines; identical seeds give identical session keys and residues.
    let pair = || {
        let mut client =
            Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"orc-c")))
                .expect("client engine");
        let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"orc-s")))
            .expect("server engine");
        establish(&mut client, &mut server);
        (client, server)
    };

    // Seals one application record and returns the wire bytes.
    let sealed = |client: &mut sslperf::ssl::ClientEngine| {
        client.seal(b"GET /doc_64.bin HTTP/1.0\r\n\r\n").expect("seal");
        let mut wire = vec![0u8; 4 * 1024];
        let n = client.take_output(&mut wire);
        wire.truncate(n);
        wire
    };

    let (mut client_a, mut server_a) = pair();
    let (mut client_b, mut server_b) = pair();
    let mut pad_tampered = sealed(&mut client_a);
    let mac_wire = sealed(&mut client_b);
    assert_eq!(pad_tampered, mac_wire, "identical seeds must seal identical records");
    let mut mac_tampered = mac_wire;

    // Pad tamper: flip the top bit of the penultimate block's last byte;
    // CBC decryption flips the same bit of the final plaintext byte — the
    // pad length — making the padding check fail.
    let n = pad_tampered.len();
    pad_tampered[n - 8 - 1] ^= 0x80;
    // MAC tamper: garble the first ciphertext byte; padding at the tail
    // decrypts intact, the MAC over the garbled payload does not.
    mac_tampered[5] ^= 0x80;
    assert_ne!(pad_tampered, mac_tampered, "the two tampers are different corruptions");

    let alert_for = |server: &mut sslperf::ssl::ServerEngine<'_>, wire: &[u8]| {
        server.feed(wire).expect("feed is pre-crypto, must accept the bytes");
        let error = server.open_next().expect_err("tampered record must fail");
        assert_eq!(error, SslError::MacMismatch, "uniform error for pad and MAC tampers");
        let alert = Alert::for_error(&error).expect("fatal alert for MacMismatch");
        server.queue_alert(alert).expect("queue alert");
        let mut out = vec![0u8; 1024];
        let n = server.take_output(&mut out);
        out.truncate(n);
        out
    };

    let pad_alert = alert_for(&mut server_a, &pad_tampered);
    let mac_alert = alert_for(&mut server_b, &mac_tampered);
    assert!(!pad_alert.is_empty(), "an alert record must go on the wire");
    assert_eq!(
        pad_alert, mac_alert,
        "bad-padding and bad-MAC must be indistinguishable on the wire"
    );
}

/// A saturated crypto pool must not get its handshakes evicted by the
/// I/O deadline: with a 2048-bit key (~6 ms per decrypt), one crypto
/// worker, and 32 simultaneous connections, the queue tail waits far
/// longer than the 75 ms `io_timeout` — yet every handshake completes,
/// because time spent waiting on the pool is excluded from the client's
/// I/O deadline (counted in `crypto_deadline_deferrals` instead).
#[test]
fn saturated_crypto_pool_does_not_evict_waiting_handshakes() {
    const CONNECTIONS: usize = 32;
    let mut rng = SslRng::from_seed(b"net-serving-slow-key");
    let mut key = RsaPrivateKey::generate(2048, &mut rng).expect("keygen");
    // Pin the deliberately slow u32 kernels: the u64-limb default clears
    // the 32-decrypt backlog inside io_timeout and the queue never builds
    // the pressure this test exists to exercise.
    key.set_limb_width(sslperf::bignum::LimbWidth::U32);
    let options = ServerOptions::builder()
        .shards(2)
        .crypto_workers(1)
        .io_timeout(Some(Duration::from_millis(75)))
        .build()
        .expect("valid options");
    let server = EventLoopServer::start(key, "net.sslperf.test", &options).expect("server start");

    // No establishment barrier: holding requests back would make early
    // clients *idle* past io_timeout (a legitimate eviction). The pressure
    // under test is the crypto backlog itself — the tail of 32 queued
    // decrypts waits ~190 ms, far past the 75 ms deadline, while each
    // client stays responsive on the wire.
    let load = SocketLoadOptions {
        clients: CONNECTIONS,
        transactions_per_client: 1,
        resume: false,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: false,
    };
    let report = run_socket_load(server.local_addr(), &load).expect("event load");
    assert_eq!(report.transactions, CONNECTIONS, "every connection served");

    let stats = server.stats();
    assert!(
        eventually(|| stats.full_handshakes() == CONNECTIONS as u64),
        "got {}",
        stats.full_handshakes()
    );
    assert_eq!(stats.crypto_jobs(), CONNECTIONS as u64, "every decrypt went through the pool");
    assert_eq!(stats.timeouts(), 0, "pool queue wait must not count against io_timeout");
    assert_eq!(stats.errors(), 0, "clean run");
    assert!(
        stats.crypto_deadline_deferrals() >= 1,
        "the single worker's backlog must have pushed at least one deadline"
    );
    server.shutdown();
}

/// Batching must be invisible on the wire: the same seeded clients against
/// the same seeded server produce byte-identical server flights whether
/// the crypto pool decrypts solo (`batch_max = 1`) or combines the whole
/// burst (`batch_max = 4`). The batched run must also actually batch —
/// otherwise this proves nothing.
///
/// All four clients share one seed, so every client flight is
/// byte-identical and a server connection's output depends only on its
/// accept order (which seeds the per-connection server rng). Comparing the
/// *sorted* received streams then cancels accept-order nondeterminism.
#[test]
fn batched_flights_are_byte_identical_to_unbatched() {
    const CLIENTS: usize = 4;

    // Runs one arm: 4 concurrent identically-seeded clients, each logging
    // the server's byte stream; returns the sorted streams plus how many
    // jobs ran inside real batches.
    let run_arm = |batch_max: usize| -> (Vec<Vec<u8>>, u64) {
        let options = ServerOptions::builder()
            .shards(1)
            .crypto_workers(1)
            .batch_max(batch_max)
            .build()
            .expect("valid batch options");
        let server =
            EventLoopServer::start(slow_key(), "net.sslperf.test", &options).expect("server start");
        let addr = server.local_addr();

        let streams: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = Engine::new(SslClient::new(
                            CipherSuite::RsaDesCbc3Sha,
                            SslRng::from_seed(b"batch-wire-client"),
                        ))
                        .expect("client engine");
                        let inner = TcpStream::connect(addr).expect("connect");
                        inner.set_nodelay(true).expect("nodelay");
                        // Logs every byte the server sends, so the runs'
                        // exact wire output can be compared.
                        let mut socket = Tapped { inner, rx: Vec::new() };
                        handshake(&mut client, &mut socket).expect("handshake");
                        close(&mut client, &mut socket.inner);
                        socket.rx
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });

        let stats = server.stats();
        assert_eq!(stats.crypto_jobs(), CLIENTS as u64, "every decrypt pooled");
        assert_eq!(stats.errors(), 0, "clean run");
        let batched_jobs = stats.crypto_batched_jobs();
        server.shutdown();
        let mut streams = streams;
        streams.sort();
        (streams, batched_jobs)
    };

    let (solo_streams, solo_batched) = run_arm(1);
    let (batch_streams, batch_batched) = run_arm(4);
    assert_eq!(solo_batched, 0, "batch_max = 1 must never combine jobs");
    assert!(
        batch_batched >= 2,
        "the batched arm must combine at least one real batch, combined {batch_batched}"
    );
    assert_eq!(
        solo_streams, batch_streams,
        "server flights must be byte-identical with batching on and off"
    );
}

/// A concurrent burst through a batching pool end to end: every
/// connection transacts, every decrypt goes through the pool, and real
/// batches form from the backlog behind the first decrypts.
#[test]
fn event_loop_batch_burst_serves_and_accounts() {
    const CONNECTIONS: usize = 16;
    let options = ServerOptions::builder()
        .shards(2)
        .crypto_workers(2)
        .batch_max(4)
        .build()
        .expect("valid batch options");
    let server =
        EventLoopServer::start(slow_key(), "net.sslperf.test", &options).expect("server start");

    let load = SocketLoadOptions {
        clients: CONNECTIONS,
        transactions_per_client: 1,
        resume: false,
        file_size: 1024,
        protocol: Protocol::Ssl3,
        suite: CipherSuite::RsaDesCbc3Sha,
        hold_until_all_established: true,
    };
    let report = run_socket_load(server.local_addr(), &load).expect("event load");
    assert_eq!(report.peak_established, CONNECTIONS, "held concurrently");
    assert_eq!(report.transactions, CONNECTIONS);

    let stats = server.stats();
    assert!(
        eventually(|| stats.full_handshakes() == CONNECTIONS as u64),
        "got {}",
        stats.full_handshakes()
    );
    assert_eq!(stats.crypto_jobs(), CONNECTIONS as u64, "one pooled decrypt per handshake");
    assert!(stats.crypto_batches() >= 1, "the pool executed batches");
    assert!(
        stats.crypto_batches() < CONNECTIONS as u64,
        "some jobs must have combined: {} batches for {CONNECTIONS} jobs",
        stats.crypto_batches()
    );
    assert!(stats.crypto_batched_jobs() >= 2, "at least one real batch formed");
    assert_eq!(stats.errors(), 0, "clean run");
    server.shutdown();
}

/// Session-cache TTL end to end: a session stored by a full handshake
/// expires after `session_ttl`, so a resumption attempt after the TTL
/// falls back to a full handshake (expiry-on-lookup counts as a miss,
/// never a hit on stale keys).
#[test]
fn expired_session_falls_back_to_full_handshake_over_tcp() {
    let options = ServerOptions::builder()
        .session_ttl(Some(Duration::from_millis(50)))
        .build()
        .expect("valid options");
    let server = EventLoopServer::start(key(), "net.sslperf.test", &options).expect("server start");

    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"ttl-c1"));
    let (client, socket) = connect(server.local_addr(), client);
    let session = client.machine().session().expect("established");
    drop(socket);
    assert!(eventually(|| server.session_cache().len() == 1), "session stored");

    std::thread::sleep(Duration::from_millis(120));

    let client = SslClient::resuming(session, SslRng::from_seed(b"ttl-c2"));
    let (client, _socket) = connect(server.local_addr(), client);
    assert!(!client.machine().resumed(), "an expired session must not resume");

    let cache = server.session_cache();
    let stats = server.stats();
    assert!(eventually(|| stats.full_handshakes() == 2), "got {}", stats.full_handshakes());
    assert_eq!(stats.resumed_handshakes(), 0);
    assert!(cache.expired() >= 1, "expiry-on-lookup must be counted");
    assert_eq!(cache.hits(), 0, "a stale entry must never count as a hit");
    server.shutdown();
}

// ---- shared-nothing fleet serving ----

fn fleet_options(keyring: Option<Arc<sslperf::ssl::TicketKeyring>>) -> ServerOptions {
    ServerOptions::builder().shards(1).ticket_keys(keyring).build().expect("valid fleet options")
}

/// The acceptance scenario for stateless resumption: a session established
/// on instance A (which is then killed) resumes on instance B, which has
/// never seen it — the encrypted ticket is the only state that travels.
#[test]
fn ticket_session_resumes_on_surviving_instance_after_kill() {
    let keyring = Arc::new(TicketKeyring::new(b"fleet-ticket-keys"));
    let mut fleet = ServerFleet::start(
        key(),
        "net.sslperf.test",
        2,
        &fleet_options(Some(Arc::clone(&keyring))),
    )
    .expect("fleet start");

    // Whichever instance accepts the first connection runs a full
    // handshake and issues a NewSessionTicket under the shared keyring.
    let client =
        SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"fleet-c1")).with_tickets();
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    assert!(!client.machine().resumed());
    let session = client.machine().session().expect("established");
    assert!(session.ticket().is_some(), "full handshake must carry a ticket home");
    close(&mut client, &mut socket);
    drop(socket);
    assert!(eventually(|| fleet.aggregated().tickets_issued == 1), "got {:?}", fleet.aggregated());

    // Kill the instance that issued it. With id-based caching the session
    // would now be gone — its cache entry lived in the dead instance's
    // memory.
    let first = (0..2)
        .find(|&i| fleet.instance(i).is_some_and(|s| s.stats().tickets_issued() == 1))
        .expect("one instance issued the ticket");
    let survivor = 1 - first;
    assert!(fleet.kill(first), "the issuing instance goes down");
    assert_eq!(fleet.live_instances(), 1);

    // Reconnect: only the survivor accepts. It has no cache entry for
    // this session; the ticket alone resumes it.
    let client = SslClient::resuming(session, SslRng::from_seed(b"fleet-c2"));
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    assert!(
        client.machine().resumed(),
        "ticket must resume on an instance that never saw the session"
    );
    close(&mut client, &mut socket);
    drop(socket);

    assert!(
        eventually(|| {
            let agg = fleet.aggregated();
            agg.connections() == 2 && agg.resumed_handshakes() == 1 && agg.tickets_accepted == 1
        }),
        "got {:?}",
        fleet.aggregated()
    );
    let agg = fleet.aggregated();
    assert_eq!((fleet.live_instances(), fleet.retired_instances()), (1, 1));
    assert_eq!(agg.full_handshakes(), 1);
    assert_eq!((agg.tickets_rejected, agg.tickets_expired), (0, 0));
    assert_eq!(agg.resumed_handshakes() * 2, agg.connections(), "half the connections resumed");
    // Shared-nothing means shared *nothing*: no instance ever stored the
    // session by id.
    assert_eq!(fleet.instance(survivor).expect("live instance").session_cache().len(), 0);
    assert_eq!((agg.tickets_issued, agg.tickets_accepted), (1, 1));
    fleet.shutdown();
}

/// The id-cache contrast arm: the identical kill/reconnect sequence
/// without a keyring. The session's cache entry dies with the instance
/// that served it, so the surviving instance can only run a full
/// handshake.
#[test]
fn id_cache_session_dies_with_its_instance() {
    let mut fleet = ServerFleet::start(key(), "net.sslperf.test", 2, &fleet_options(None))
        .expect("fleet start");

    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"fleet-ic1"));
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    let session = client.machine().session().expect("established");
    assert!(session.ticket().is_none(), "no keyring, no ticket");
    close(&mut client, &mut socket);
    drop(socket);
    let mut first = None;
    assert!(
        eventually(|| {
            first =
                (0..2).find(|&i| fleet.instance(i).is_some_and(|s| s.session_cache().len() == 1));
            first.is_some()
        }),
        "an instance cached the session by id"
    );

    assert!(fleet.kill(first.expect("the caching instance")));

    let client = SslClient::resuming(session, SslRng::from_seed(b"fleet-ic2"));
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    assert!(!client.machine().resumed(), "the cache entry died with its instance");
    close(&mut client, &mut socket);
    drop(socket);

    assert!(
        eventually(|| fleet.aggregated().full_handshakes() == 2),
        "got {:?}",
        fleet.aggregated()
    );
    assert_eq!(fleet.aggregated().resumed_handshakes(), 0);
    fleet.shutdown();
}

/// Restart-survival at the instance level: kill an instance, restart its
/// slot (fresh process image — empty cache, zeroed stats), and a ticket
/// sealed before the restart still resumes on it, because the keyring —
/// not the instance — holds the keys.
#[test]
fn restarted_instance_accepts_tickets_sealed_before_restart() {
    let keyring = Arc::new(TicketKeyring::new(b"fleet-restart-keys"));
    let mut fleet = ServerFleet::start(
        key(),
        "net.sslperf.test",
        1,
        &fleet_options(Some(Arc::clone(&keyring))),
    )
    .expect("fleet start");

    let client =
        SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"fleet-r1")).with_tickets();
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    let session = client.machine().session().expect("established");
    close(&mut client, &mut socket);
    drop(socket);
    assert!(eventually(|| fleet.aggregated().tickets_issued == 1));

    assert!(fleet.kill(0));
    assert_eq!(fleet.live_instances(), 0);
    fleet.restart(0).expect("restart instance 0");
    assert_eq!(fleet.live_instances(), 1);
    assert_eq!(fleet.instance(0).expect("restarted").stats().connections(), 0, "fresh stats");

    let client = SslClient::resuming(session, SslRng::from_seed(b"fleet-r2"));
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    assert!(client.machine().resumed(), "ticket survives the instance restart");
    close(&mut client, &mut socket);
    drop(socket);

    assert!(
        eventually(|| {
            let agg = fleet.aggregated();
            agg.tickets_accepted == 1 && fleet.retired_instances() == 1 && agg.connections() == 2
        }),
        "got {:?}",
        fleet.aggregated()
    );
    fleet.shutdown();
}

/// One full handshake through the fleet's address.
fn fleet_handshake(fleet: &ServerFleet, seed: &[u8]) {
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(seed));
    let (mut client, mut socket) = connect(fleet.local_addr(), client);
    close(&mut client, &mut socket);
}

/// Every instance accepts from the one listener: with the other instance
/// down, each one alone serves the fleet's address.
#[test]
fn each_instance_alone_serves_the_shared_listener() {
    let mut fleet = ServerFleet::start(key(), "net.sslperf.test", 2, &fleet_options(None))
        .expect("fleet start");
    for (down, up) in [(0, 1), (1, 0)] {
        assert!(fleet.kill(down), "instance {down} goes down");
        let served = fleet.instance(up).expect("live").stats().connections();
        fleet_handshake(&fleet, &[b'a', b'l', b'o', b'n', b'e', up as u8]);
        let stats = fleet.instance(up).expect("live").stats();
        assert!(
            eventually(|| stats.connections() == served + 1),
            "instance {up} alone must serve the connection"
        );
        fleet.restart(down).expect("restart");
    }
    assert_eq!(fleet.aggregated().errors, 0, "clean run");
    fleet.shutdown();
}

/// The fleet's aggregate is the merge of its instances' snapshots, a
/// killed instance's included, and its counters are the per-instance
/// sums.
#[test]
fn aggregate_equals_merge_of_instance_snapshots() {
    let mut fleet = ServerFleet::start(key(), "net.sslperf.test", 2, &fleet_options(None))
        .expect("fleet start");
    for i in 0..3u8 {
        fleet_handshake(&fleet, &[b'a', b'g', b'g', i]);
    }
    assert!(eventually(|| fleet.aggregated().connections() == 3), "got {:?}", fleet.aggregated());

    // Retire an instance that served traffic, then serve more.
    let busy = (0..2)
        .find(|&i| fleet.instance(i).is_some_and(|s| s.stats().connections() > 0))
        .expect("an instance served");
    let retired = fleet.instance(busy).expect("live").stats().snapshot();
    assert!(fleet.kill(busy));
    fleet.restart(busy).expect("restart");
    for i in 3..5u8 {
        fleet_handshake(&fleet, &[b'a', b'g', b'g', i]);
    }
    assert!(eventually(|| fleet.aggregated().connections() == 5), "got {:?}", fleet.aggregated());

    let live: Vec<&ServerStats> =
        (0..2).map(|i| fleet.instance(i).expect("live").stats()).collect();
    let mut merged = retired.clone();
    for stats in &live {
        merged.merge(&stats.snapshot());
    }
    let agg = fleet.aggregated();
    assert_eq!(format!("{agg:?}"), format!("{merged:?}"), "aggregate = merge of snapshots");
    assert_eq!(agg.render(), merged.render());
    assert_eq!(fleet.retired_instances(), 1);
    let sum = |f: fn(&ServerStats) -> u64| live.iter().map(|s| f(s)).sum::<u64>();
    assert_eq!(agg.connections(), retired.connections() + sum(ServerStats::connections));
    assert_eq!(
        agg.full_handshakes(),
        retired.full_handshakes() + sum(ServerStats::full_handshakes)
    );
    assert_eq!(agg.errors, retired.errors + sum(ServerStats::errors));
    assert_eq!(agg.errors, 0, "clean run");
    fleet.shutdown();
}

/// The listener outlives the instances: a connection made while none is
/// live waits in the backlog and is served by the next one to start.
#[test]
fn connection_made_while_no_instance_is_live_is_served_after_restart() {
    let mut fleet = ServerFleet::start(key(), "net.sslperf.test", 1, &fleet_options(None))
        .expect("fleet start");
    assert!(fleet.kill(0));
    assert_eq!(fleet.live_instances(), 0);

    let addr = fleet.local_addr();
    let pending = std::thread::spawn(move || {
        let mut socket = TcpStream::connect(addr).expect("the kernel completes the connect");
        socket.set_nodelay(true).expect("nodelay");
        socket.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"backlog"));
        let mut engine = Engine::new(client).expect("client engine");
        handshake(&mut engine, &mut socket).map(|()| (engine, socket))
    });
    std::thread::sleep(Duration::from_millis(200));
    assert!(!pending.is_finished(), "nothing answers while no instance is live");

    fleet.restart(0).expect("restart instance 0");
    let (mut client, mut socket) =
        pending.join().expect("client thread").expect("served after the restart");
    close(&mut client, &mut socket);
    let stats = fleet.instance(0).expect("restarted").stats();
    assert!(eventually(|| stats.connections() == 1), "the restarted instance served it");
    assert_eq!(fleet.aggregated().errors, 0, "clean run");
    fleet.shutdown();
}
