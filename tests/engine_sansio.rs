//! Byte-boundary torture tests for the sans-io handshake engine.
//!
//! The engine must produce *exactly* the wire bytes of the flight-based
//! API no matter how the peer's bytes arrive: one byte at a time, in
//! arbitrary chunks, or with several handshake messages coalesced into a
//! single record. Determinism of [`SslRng`] makes the comparison exact —
//! same seeds, same bytes — so these tests assert byte-for-byte equality
//! of every flight and of post-handshake sealed records (which proves the
//! derived session keys and Finished hashes match too).

mod support;

use proptest::prelude::*;
use sslperf::prelude::*;
use sslperf::ssl::{ClientEngine, Engine, RecordBuffer, ServerEngine, SslError};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use support::{handshake, Tapped};

fn config() -> &'static ServerConfig {
    static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let mut rng = SslRng::from_seed(b"engine-sansio-key");
        let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
        ServerConfig::new(key, "engine.test").expect("config")
    })
}

/// The reference run: the flight-based API with fixed seeds. Returns the
/// full client→server and server→client wires plus one sealed probe
/// record from each side.
struct Reference {
    c2s: Vec<u8>,
    s2c: Vec<u8>,
    client_probe: Vec<u8>,
    server_probe: Vec<u8>,
}

fn reference(suite: CipherSuite) -> Reference {
    let mut client = SslClient::new(suite, SslRng::from_seed(b"sansio-c"));
    let mut server = SslServer::new(config(), SslRng::from_seed(b"sansio-s"));
    let f1 = client.hello().expect("hello");
    let f2 = server.process_client_hello(&f1).expect("server flight");
    let f3 = client.process_server_flight(&f2).expect("client flight");
    let f4 = server.process_client_flight(&f3).expect("server finish");
    client.process_server_finish(&f4).expect("client finish");
    let mut client_probe = RecordBuffer::new();
    client.seal_into(b"probe", &mut client_probe).expect("client seal");
    let mut server_probe = RecordBuffer::new();
    server.seal_into(b"probe", &mut server_probe).expect("server seal");
    Reference {
        c2s: [f1, f3].concat(),
        s2c: [f2, f4].concat(),
        client_probe: client_probe.into_vec(),
        server_probe: server_probe.into_vec(),
    }
}

fn engines(suite: CipherSuite) -> (ClientEngine, ServerEngine<'static>) {
    let client =
        Engine::new(SslClient::new(suite, SslRng::from_seed(b"sansio-c"))).expect("client engine");
    let server = Engine::new(SslServer::new(config(), SslRng::from_seed(b"sansio-s")))
        .expect("server engine");
    (client, server)
}

/// Moves every pending byte from `from` to `to` in `chunk`-sized feeds,
/// appending what crossed to `wire`.
fn shuttle<A: sslperf::ssl::EngineDriven, B: sslperf::ssl::EngineDriven>(
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

/// Runs a full engine-vs-engine handshake moving bytes in `chunk`-sized
/// pieces, then asserts the wires and post-handshake records are
/// byte-identical to the flight-based reference.
fn assert_chunked_run_matches(suite: CipherSuite, chunk: usize) {
    let reference = reference(suite);
    let (mut client, mut server) = engines(suite);
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
    assert_eq!(c2s, reference.c2s, "client wire differs at chunk {chunk}");
    assert_eq!(s2c, reference.s2c, "server wire differs at chunk {chunk}");

    // Same keys ⇒ same sealed bytes (MAC, padding, sequence numbers).
    client.seal(b"probe").expect("client seal");
    assert_eq!(client.output(), &reference.client_probe[..], "client record at chunk {chunk}");
    let n = client.pending_output();
    client.consume_output(n);
    server.seal(b"probe").expect("server seal");
    assert_eq!(server.output(), &reference.server_probe[..], "server record at chunk {chunk}");

    // And the records actually open on the other side.
    let wire = server.output().to_vec();
    let fed = client.feed(&wire).expect("feed record");
    assert_eq!(fed, wire.len());
    let range = client.open_next().expect("open").expect("complete record");
    assert_eq!(&client.buffered()[range], b"probe");
}

#[test]
fn one_byte_trickle_matches_flight_api() {
    assert_chunked_run_matches(CipherSuite::RsaDesCbc3Sha, 1);
}

#[test]
fn whole_flight_coalesced_matches_flight_api() {
    assert_chunked_run_matches(CipherSuite::RsaDesCbc3Sha, usize::MAX);
}

#[test]
fn every_suite_survives_odd_chunking() {
    for suite in CipherSuite::ALL {
        assert_chunked_run_matches(suite, 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flights split at every byte boundary: any chunk size produces the
    /// byte-identical handshake.
    #[test]
    fn any_chunk_size_matches_flight_api(chunk in 1usize..1500) {
        assert_chunked_run_matches(CipherSuite::RsaDesCbc3Sha, chunk);
    }
}

/// Re-frames a plaintext handshake flight (several records) into one
/// record carrying all the messages back to back — legal SSLv3 framing
/// the flight API never produces, which the engine must still accept.
fn coalesce_records(flight: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut rest = flight;
    while !rest.is_empty() {
        assert_eq!(rest[0], 22, "handshake record");
        let len = usize::from(rest[3]) << 8 | usize::from(rest[4]);
        payload.extend_from_slice(&rest[5..5 + len]);
        rest = &rest[5 + len..];
    }
    assert!(payload.len() <= sslperf::ssl::MAX_FRAGMENT);
    let mut record = vec![22, 3, 0, (payload.len() >> 8) as u8, payload.len() as u8];
    record.extend_from_slice(&payload);
    record
}

/// hello ‖ certificate ‖ done coalesced into a single record still yields
/// the byte-identical client flight.
#[test]
fn coalesced_messages_in_one_record_match() {
    let suite = CipherSuite::RsaDesCbc3Sha;
    let reference = reference(suite);
    let (mut client, _) = engines(suite);

    // The reference server flight (f2) is the s2c prefix before the
    // server's CCS record (type 20).
    let f2_len = {
        let mut rest = &reference.s2c[..];
        let mut len = 0;
        while !rest.is_empty() && rest[0] == 22 {
            let body = usize::from(rest[3]) << 8 | usize::from(rest[4]);
            len += 5 + body;
            rest = &rest[5 + body..];
        }
        len
    };
    let coalesced = coalesce_records(&reference.s2c[..f2_len]);
    assert!(coalesced.len() < f2_len, "re-framing must drop record headers");

    let mut c2s = Vec::new();
    let drain = |engine: &mut ClientEngine, out: &mut Vec<u8>| {
        while engine.wants_write() {
            out.extend_from_slice(engine.output());
            let n = engine.pending_output();
            engine.consume_output(n);
        }
    };
    drain(&mut client, &mut c2s);
    assert_eq!(client.feed(&coalesced).expect("feed coalesced"), coalesced.len());
    drain(&mut client, &mut c2s);
    assert_eq!(c2s, reference.c2s, "coalesced framing must not change the client flight");

    // Finish the handshake with the reference server's CCS+finished.
    assert_eq!(
        client.feed(&reference.s2c[f2_len..]).expect("feed finish"),
        reference.s2c.len() - f2_len
    );
    assert!(client.is_established());
}

/// The blocking drivers — `read_from`/`write_to` over a loopback socket
/// pair — put byte-identical flights on the wire. Each side taps what it
/// reads, which is everything the other side wrote.
#[test]
fn blocking_socket_driver_is_byte_identical() {
    let suite = CipherSuite::RsaDesCbc3Sha;
    let reference = reference(suite);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let inner = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let mut client_socket = Tapped { inner, rx: Vec::new() };
    let (inner, _) = listener.accept().expect("accept");
    let mut server_socket = Tapped { inner, rx: Vec::new() };

    let server_thread = std::thread::spawn(move || {
        let server = SslServer::new(config(), SslRng::from_seed(b"sansio-s"));
        let mut server = Engine::new(server).expect("server engine");
        handshake(&mut server, &mut server_socket).expect("server handshake");
        server_socket.rx
    });
    let (mut client, _) = engines(suite);
    handshake(&mut client, &mut client_socket).expect("client handshake");
    let c2s = server_thread.join().expect("server thread");

    assert_eq!(c2s, reference.c2s, "client socket wire");
    assert_eq!(client_socket.rx, reference.s2c, "server socket wire");
}

/// The crypto-offload path: the server engine suspends at the RSA
/// boundary, the job executes out-of-band, and the resumed handshake
/// still puts byte-identical flights on the wire — the determinism
/// contract the event-loop pool relies on.
#[test]
fn offloaded_handshake_is_byte_identical() {
    for chunk in [1usize, 7, usize::MAX] {
        let suite = CipherSuite::RsaDesCbc3Sha;
        let reference = reference(suite);
        let (mut client, mut server) = engines(suite);
        server.set_crypto_offload(true);

        let (mut c2s, mut s2c) = (Vec::new(), Vec::new());
        let mut suspensions = 0;
        let mut stalls = 0;
        while !(client.is_established() && server.is_established()) {
            let before = (c2s.len(), s2c.len());
            shuttle(&mut client, &mut server, chunk, &mut c2s);
            if server.crypto_pending() {
                // Out-of-band execution: the same decrypt the inline path
                // runs, carried by the job (blinding state included).
                let job = server.take_crypto_job().expect("suspended job");
                assert!(server.crypto_pending(), "engine stays suspended until completion");
                assert!(server.take_crypto_job().is_none(), "the job is taken exactly once");
                let done = job.execute(config().key());
                assert!(done.exec().get() > 0, "execution time is measured");
                server.complete_crypto(done).expect("resume");
                suspensions += 1;
            }
            shuttle(&mut server, &mut client, chunk, &mut s2c);
            if (c2s.len(), s2c.len()) == before {
                stalls += 1;
                assert!(stalls < 4, "offloaded handshake stalled (chunk {chunk})");
            }
        }
        assert_eq!(suspensions, 1, "exactly one RSA suspension per full handshake");
        assert_eq!(c2s, reference.c2s, "offloaded client wire (chunk {chunk})");
        assert_eq!(s2c, reference.s2c, "offloaded server wire (chunk {chunk})");

        // Same keys ⇒ same sealed bytes, both directions.
        client.seal(b"probe").expect("client seal");
        assert_eq!(client.output(), &reference.client_probe[..], "client record");
        server.seal(b"probe").expect("server seal");
        assert_eq!(server.output(), &reference.server_probe[..], "server record");

        // The step-5 ledger attributes queue wait and execution separately.
        let detail = server.machine().crypto_detail();
        let names: Vec<&str> = detail.iter().map(|(_, name, _)| *name).collect();
        assert!(names.contains(&"rsa_queue_wait"), "queue wait attributed: {names:?}");
        assert!(names.contains(&"rsa_private_decryption"), "exec attributed: {names:?}");
    }
}

/// Completing crypto that was never requested is an orderly error, not a
/// poisoned engine.
#[test]
fn complete_crypto_without_suspension_errors() {
    let (_, mut server) = engines(CipherSuite::RsaDesCbc3Sha);
    server.set_crypto_offload(true);
    assert!(!server.crypto_pending());
    assert!(server.take_crypto_job().is_none());
    assert!(server.last_error().is_none(), "querying jobs must not poison");
}

/// Resumed handshakes work through the engine too, and garbage poisons a
/// connection exactly once while alerts still go out.
#[test]
fn engine_resumes_and_poisons_cleanly() {
    // Establish once to obtain a session.
    let (mut client, mut server) = engines(CipherSuite::RsaDesCbc3Sha);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    while !(client.is_established() && server.is_established()) {
        shuttle(&mut client, &mut server, usize::MAX, &mut a);
        shuttle(&mut server, &mut client, usize::MAX, &mut b);
    }
    let session = client.machine().session().expect("established");

    // Resume through fresh engines.
    let mut client = Engine::new(SslClient::resuming(session, SslRng::from_seed(b"resume-c")))
        .expect("client engine");
    let mut server = Engine::new(SslServer::new(config(), SslRng::from_seed(b"resume-s")))
        .expect("server engine");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    while !(client.is_established() && server.is_established()) {
        shuttle(&mut client, &mut server, 3, &mut a);
        shuttle(&mut server, &mut client, 3, &mut b);
    }
    assert!(client.machine().resumed(), "client resumed");
    assert!(server.machine().resumed(), "server resumed");

    // Poison: a record with a bogus content type.
    let (mut poisoned, _) = engines(CipherSuite::RsaDesCbc3Sha);
    let err = poisoned.feed(&[99, 3, 0, 0, 1, 0]).expect_err("bogus content type");
    assert_eq!(err, SslError::Decode("content type"));
    assert!(!poisoned.wants_read(), "poisoned engines stop reading");
    assert_eq!(poisoned.last_error(), Some(&err));
    assert_eq!(poisoned.feed(b"more").expect_err("still poisoned"), err);
    // The goodbye still gets queued so drivers can send a proper alert.
    poisoned
        .queue_alert(sslperf::ssl::alert::Alert::fatal(
            sslperf::ssl::alert::AlertDescription::IllegalParameter,
        ))
        .expect("alert on poisoned connection");
    assert!(poisoned.wants_write());
}
