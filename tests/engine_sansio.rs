//! Byte-boundary torture tests for the sans-io handshake engine.
//!
//! The engine must produce *exactly* the wire bytes of the whole-flight
//! reference run (`tests/support`'s `drain` + `feed_all`, the way `ssltest`
//! passes flights) no matter how the peer's bytes arrive: one byte at a
//! time, in arbitrary chunks, or with several handshake messages coalesced
//! into a single record. Determinism of [`SslRng`] makes the comparison
//! exact — same seeds, same bytes — so these tests assert byte-for-byte
//! equality of every flight and of post-handshake sealed records (which
//! proves the derived session keys and Finished hashes match too).

mod support;

use proptest::prelude::*;
use sslperf::prelude::*;
use sslperf::profile::counters;
use sslperf::rsa::LimbWidth;
use sslperf::ssl::{
    ClientConfig, ClientEngine, ClientMachine, Engine, EngineDriven, HandshakeLedger, Protocol,
    ServerEngine, ServerMachine, SslError, Tls13ClientMachine, Tls13ServerMachine,
};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;
use support::{drain, feed_all, handshake, Tapped};

fn config() -> &'static ServerConfig {
    static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let mut rng = SslRng::from_seed(b"engine-sansio-key");
        let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
        ServerConfig::new(key, "engine.test").expect("config")
    })
}

/// The reference run: two engines with fixed seeds, passing whole flights.
/// Returns the full client→server and server→client wires plus one sealed
/// probe record from each side.
struct Reference {
    c2s: Vec<u8>,
    s2c: Vec<u8>,
    client_probe: Vec<u8>,
    server_probe: Vec<u8>,
}

fn reference(suite: CipherSuite) -> Reference {
    let (mut client, mut server) = engines(suite);
    let [f1, f2, f3, f4] = support::flights(&mut client, &mut server);
    assert!(client.is_established() && server.is_established());
    client.seal(b"probe").expect("client seal");
    server.seal(b"probe").expect("server seal");
    Reference {
        c2s: [f1, f3].concat(),
        s2c: [f2, f4].concat(),
        client_probe: drain(&mut client),
        server_probe: drain(&mut server),
    }
}

fn engines(suite: CipherSuite) -> (ClientEngine, ServerEngine<'static>) {
    let client =
        Engine::new(SslClient::new(suite, SslRng::from_seed(b"sansio-c"))).expect("client engine");
    let server = Engine::new(SslServer::new(config(), SslRng::from_seed(b"sansio-s")))
        .expect("server engine");
    (client, server)
}

/// Passes `from`'s pending flight to `to` in `chunk`-sized feeds and
/// returns it.
fn pass<A: EngineDriven, B: EngineDriven>(
    from: &mut Engine<A>,
    to: &mut Engine<B>,
    chunk: usize,
) -> Vec<u8> {
    let flight = drain(from);
    flight.chunks(chunk).for_each(|piece| feed_all(to, piece));
    flight
}

/// Runs a full engine-vs-engine handshake moving bytes in `chunk`-sized
/// pieces, then asserts the wires and post-handshake records are
/// byte-identical to the whole-flight reference.
fn assert_chunked_run_matches(suite: CipherSuite, chunk: usize) {
    let reference = reference(suite);
    let (mut client, mut server) = engines(suite);
    let (mut c2s, mut s2c) = (Vec::new(), Vec::new());
    let mut stalls = 0;
    while !(client.is_established() && server.is_established()) {
        let before = (c2s.len(), s2c.len());
        c2s.extend(pass(&mut client, &mut server, chunk));
        s2c.extend(pass(&mut server, &mut client, chunk));
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
/// the machines never produce, which the engine must still accept.
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

    let mut c2s = drain(&mut client);
    assert_eq!(client.feed(&coalesced).expect("feed coalesced"), coalesced.len());
    c2s.extend(drain(&mut client));
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
            c2s.extend(pass(&mut client, &mut server, chunk));
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
            s2c.extend(pass(&mut server, &mut client, chunk));
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
    let mut suspensions = 0;
    for _ in 0..16 {
        if client.is_established() && server.is_established() {
            break;
        }
        feed_all(server, &drain(client));
        if let Some(job) = server.take_crypto_job() {
            std::thread::sleep(hold);
            server.complete_crypto(job.execute(config().key())).expect("resume");
            suspensions += 1;
        }
        feed_all(client, &drain(server));
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

/// Runs one full `protocol` handshake, with the server key on `limbs`,
/// whose key exchange the server engine runs itself (`offload` false) or
/// hands to this driver, which executes it (`offload` true). Counts the
/// server's work only.
fn server_work(protocol: Protocol, limbs: LimbWidth, offload: bool) -> ServerWork {
    // A fresh key per run, so the blinding state starts cold in both modes.
    let mut key = config().key().clone();
    key.set_limb_width(limbs);
    let config = ServerConfig::new(key, "work.test").expect("config");
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
        let flight = drain(&mut client);
        let counting = counters::enable();
        feed_all(&mut server, &flight);
        if let Some(job) = server.take_crypto_job() {
            server.complete_crypto(job.execute(config.key())).expect("resume");
        }
        drop(counting);
        feed_all(&mut client, &drain(&mut server));
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
/// steps and crypto rows — and the engine's own run waits in no queue. The
/// key runs on both limb widths: the u32 kernel is the paper's.
#[test]
fn inline_and_offloaded_key_exchange_do_the_same_work() {
    for (protocol, limbs) in [Protocol::Ssl3, Protocol::Tls13]
        .into_iter()
        .flat_map(|p| [LimbWidth::U64, LimbWidth::U32].map(|l| (p, l)))
    {
        let inline = server_work(protocol, limbs, false);
        let offloaded = server_work(protocol, limbs, true);
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
    support::establish(&mut client, &mut server);
    let session = client.machine().session().expect("established");

    // Resume through fresh engines.
    let mut client = Engine::new(SslClient::resuming(session, SslRng::from_seed(b"resume-c")))
        .expect("client engine");
    let mut server = Engine::new(SslServer::new(config(), SslRng::from_seed(b"resume-s")))
        .expect("server engine");
    while !(client.is_established() && server.is_established()) {
        pass(&mut client, &mut server, 3);
        pass(&mut server, &mut client, 3);
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
