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
use sslperf::profile::counters;
use sslperf::ssl::{
    ClientConfig, ClientEngine, ClientMachine, Engine, EngineDriven, HandshakeLedger, Protocol,
    RecordBuffer, ServerEngine, ServerMachine, SslError, Tls13ClientMachine, Tls13ServerMachine,
};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;
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

        // The step-5 ledger books execution as crypto and keeps the queue
        // wait beside the crypto functions, not among them.
        let detail = server.machine().crypto_detail();
        let names: Vec<&str> = detail.iter().map(|(_, name, _)| *name).collect();
        assert!(names.contains(&"rsa_private_decryption"), "exec attributed: {names:?}");
        assert!(!names.iter().any(|name| name.ends_with("_wait")), "wait is not crypto: {names:?}");
        assert!(server.machine().ledger().kx_queue_wait.get() > 0, "queue wait attributed");
    }
}

/// Drives a handshake whose server offloads its key exchange, holding the
/// job for `hold` between taking and executing it — the time it would
/// spend queued behind a busy crypto pool.
fn offloaded_handshake_with_queue_wait<C: EngineDriven, S: EngineDriven>(
    client: &mut Engine<C>,
    server: &mut Engine<S>,
    hold: Duration,
) {
    server.set_crypto_offload(true);
    let mut wire = Vec::new();
    let mut suspensions = 0;
    for _ in 0..16 {
        if client.is_established() && server.is_established() {
            break;
        }
        shuttle(client, server, usize::MAX, &mut wire);
        if let Some(job) = server.take_crypto_job() {
            std::thread::sleep(hold);
            server.complete_crypto(job.execute(config().key())).expect("resume");
            suspensions += 1;
        }
        shuttle(server, client, usize::MAX, &mut wire);
    }
    assert!(client.is_established() && server.is_established(), "handshake did not converge");
    assert_eq!(suspensions, 1, "one key-exchange job per full handshake");
}

/// The ledger measures processing, not waiting: a key-exchange job that
/// sat 50 ms in a queue reports those cycles as `kx_queue_wait`, while the
/// key-exchange step and the crypto functions count only the work. Both
/// protocols, since both suspend at the same engine point.
#[test]
fn queue_wait_stays_out_of_step_latency_and_crypto() {
    let hold = Duration::from_millis(50);
    let (mut client, mut server) = engines(CipherSuite::RsaDesCbc3Sha);
    offloaded_handshake_with_queue_wait(&mut client, &mut server, hold);
    let ssl3 = server.machine();
    assert_wait_kept_aside(&ssl3.ledger(), ssl3.crypto_detail(), "get_client_kx", hold);

    let mut client = Engine::new(Tls13ClientMachine::new(
        CipherSuite::RsaDesCbc3Sha,
        SslRng::from_seed(b"sansio-t13-c"),
    ))
    .expect("client engine");
    let mut server =
        Engine::new(Tls13ServerMachine::new(config(), SslRng::from_seed(b"sansio-t13-s")))
            .expect("server engine");
    offloaded_handshake_with_queue_wait(&mut client, &mut server, hold);
    let tls13 = server.machine();
    assert_wait_kept_aside(&tls13.ledger(), tls13.crypto_detail(), "dhe_key_exchange", hold);
}

/// Asserts the ledger kept a queue wait of at least `hold` beside the
/// key-exchange step `kx_step`: not inside its latency, not among the
/// crypto functions.
fn assert_wait_kept_aside(
    ledger: &HandshakeLedger,
    crypto_detail: &[(usize, &'static str, Cycles)],
    kx_step: &str,
    hold: Duration,
) {
    let wait = ledger.kx_queue_wait;
    assert!(wait >= Cycles::from_duration(hold), "{kx_step}: queue wait {wait} under the hold");
    let (_, step) = ledger.steps.iter().find(|(name, _)| *name == kx_step).expect("kx step");
    assert!(*step < wait, "{kx_step} ({step}) counts the queue wait ({wait})");
    let names: Vec<&str> = crypto_detail.iter().map(|(_, name, _)| *name).collect();
    assert!(!names.iter().any(|name| name.ends_with("_wait")), "{kx_step}: {names:?}");
}

/// What one server handshake booked: every profile counter its feeds and
/// its key-exchange job touched, its ledger, and its crypto rows without
/// their cycles.
struct ServerWork {
    counters: counters::Snapshot,
    ledger: HandshakeLedger,
    rows: Vec<(usize, &'static str)>,
}

/// Runs one full `protocol` handshake whose key exchange the server engine
/// runs itself (`offload` false) or hands to this driver, which executes
/// it (`offload` true). Counts the server's work only.
fn server_work(protocol: Protocol, offload: bool) -> ServerWork {
    // A fresh key per run, so the blinding state starts cold in both modes.
    let config = ServerConfig::new(config().key().clone(), "work.test").expect("config");
    let client_config = ClientConfig::new(protocol, CipherSuite::RsaDesCbc3Sha);
    let mut client = Engine::new(ClientMachine::new(client_config, SslRng::from_seed(b"work-c")))
        .expect("client engine");
    let mut server = Engine::new(ServerMachine::new(&config, SslRng::from_seed(b"work-s")))
        .expect("server engine");
    server.set_crypto_offload(offload);
    counters::reset();
    for _ in 0..8 {
        if client.is_established() && server.is_established() {
            break;
        }
        let flight = client.output().to_vec();
        client.consume_output(flight.len());
        let counting = counters::enable();
        server.feed(&flight).expect("server feed");
        if let Some(job) = server.take_crypto_job() {
            server.complete_crypto(job.execute(config.key())).expect("resume");
        }
        drop(counting);
        let flight = server.output().to_vec();
        server.consume_output(flight.len());
        client.feed(&flight).expect("client feed");
    }
    assert!(client.is_established() && server.is_established(), "{protocol}: no convergence");
    let counters = counters::snapshot();
    counters::reset();
    let detail = match server.machine() {
        ServerMachine::V3(m) => m.crypto_detail(),
        ServerMachine::T13(m) => m.crypto_detail(),
        ServerMachine::Undecided { .. } => panic!("{protocol}: no hello dispatched"),
    };
    let rows = detail.iter().map(|&(step, name, _)| (step, name)).collect();
    ServerWork { counters, ledger: server.machine().ledger(), rows }
}

/// One key-exchange path: a job the engine runs itself and a job a driver
/// runs do the same work — the same profile counters (calls and units),
/// one RSA private decryption or two DHE exponentiations, the same ledger
/// steps and crypto rows — and the engine's own run waits in no queue.
#[test]
fn inline_and_offloaded_key_exchange_do_the_same_work() {
    for protocol in [Protocol::Ssl3, Protocol::Tls13] {
        let inline = server_work(protocol, false);
        let offloaded = server_work(protocol, true);
        assert_eq!(inline.counters, offloaded.counters, "{protocol}: profile counters");
        let kx = (inline.counters.calls("rsa_private_op"), inline.counters.calls("dhe_mod_exp"));
        match protocol {
            Protocol::Ssl3 => assert_eq!(kx, (1, 0), "{protocol}: one RSA decryption"),
            // The second private operation is the CertificateVerify
            // signature, which runs on the connection's own thread.
            Protocol::Tls13 => assert_eq!(kx, (1, 2), "{protocol}: one DHE pair"),
        }
        let names = |work: &ServerWork| work.ledger.steps.map(|(name, _)| name);
        assert_eq!(names(&inline), names(&offloaded), "{protocol}: ledger steps");
        assert_eq!(inline.rows, offloaded.rows, "{protocol}: crypto_detail rows");
        assert_eq!(inline.ledger.kx_queue_wait, Cycles::ZERO, "{protocol}: inline queue wait");
        assert!(inline.ledger.kx_exec > Cycles::ZERO, "{protocol}: inline exec booked");
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
