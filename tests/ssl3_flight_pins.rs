//! Engine-level SSLv3 flight pinning: the refactor safety net for the
//! protocol-generic engine work.
//!
//! `tests/session_tickets.rs` pins the legacy and ticket flights with its
//! own seeds. These tests pin the wire traffic of the sans-io [`Engine`]
//! — passed whole flight by whole flight, as `tests/support`'s reference
//! driver does — with captured lengths and SHA-1 digests under seeded
//! RNG, for every cipher suite and for inline vs. offloaded RSA.
//! Any refactor that threads protocol choice through the record layer,
//! engine, or server machine must keep every digest here byte-identical.
//!
//! Re-capture (only after an *intentional* wire change):
//! `cargo test --test ssl3_flight_pins -- --ignored --nocapture`

mod support;

use sslperf::bignum::LimbWidth;
use sslperf::prelude::*;
use sslperf::ssl::{ClientEngine, ClientSession, Engine, SimpleSessionCache};
use std::sync::Arc;
use support::{drain, feed_all};

fn sha1_hex(data: &[u8]) -> String {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn pin_key() -> RsaPrivateKey {
    let mut rng = SslRng::from_seed(b"ticket-pin-key");
    RsaPrivateKey::generate(512, &mut rng).expect("keygen")
}

fn pin_config() -> ServerConfig {
    ServerConfig::new(pin_key(), "pin.sslperf.test").expect("config")
}

/// The same pin key, forced onto one limb kernel regardless of the
/// process default (`SSLPERF_LIMBS`).
fn pin_config_with_width(limbs: LimbWidth) -> ServerConfig {
    let mut key = pin_key();
    key.set_limb_width(limbs);
    ServerConfig::new(key, "pin.sslperf.test").expect("config")
}

fn ticket_config() -> ServerConfig {
    let keyring = Arc::new(TicketKeyring::new(b"engine-pin-ticket-keys"));
    let store = TicketSessionStore::new(keyring, Box::new(SimpleSessionCache::new()));
    ServerConfig::with_store(pin_key(), "pin.sslperf.test", Box::new(store)).expect("config")
}

/// Executes a suspended crypto job inline, exactly as the pool would.
fn run_pending(server: &mut Engine<SslServer<'_>>, config: &ServerConfig) {
    if let Some(job) = server.take_crypto_job() {
        server.complete_crypto(job.execute(config.key())).expect("resume");
    }
}

/// Drives a whole handshake through two engines, returning the four
/// flights (client hello / server flight / client flight / server finish).
fn engine_handshake(
    config: &ServerConfig,
    client: &mut ClientEngine,
    server_seed: &[u8],
    offload: bool,
) -> [Vec<u8>; 4] {
    let mut server =
        Engine::new(SslServer::new(config, SslRng::from_seed(server_seed))).expect("server engine");
    server.set_crypto_offload(offload);
    let f1 = drain(client);
    feed_all(&mut server, &f1);
    let f2 = drain(&mut server);
    feed_all(client, &f2);
    let f3 = drain(client);
    feed_all(&mut server, &f3);
    if offload {
        run_pending(&mut server, config);
    }
    let f4 = drain(&mut server);
    feed_all(client, &f4);
    assert!(client.is_established(), "client established");
    assert!(server.is_established(), "server established");
    [f1, f2, f3, f4]
}

fn client_engine(suite: CipherSuite, seed: &[u8]) -> ClientEngine {
    Engine::new(SslClient::new(suite, SslRng::from_seed(seed))).expect("client engine")
}

/// The session the resumed pins resume: a full handshake whose server
/// seed fixes the session id and the master secret.
fn pinned_session(config: &ServerConfig) -> ClientSession {
    let mut client = client_engine(CipherSuite::RsaDesCbc3Sha, b"engine-pin-client-full");
    engine_handshake(config, &mut client, b"engine-pin-server-full-replay", false);
    client.machine().session().expect("session")
}

fn flight_pins(flights: &[Vec<u8>; 4]) -> ([usize; 4], [String; 4]) {
    (
        [flights[0].len(), flights[1].len(), flights[2].len(), flights[3].len()],
        [
            sha1_hex(&flights[0]),
            sha1_hex(&flights[1]),
            sha1_hex(&flights[2]),
            sha1_hex(&flights[3]),
        ],
    )
}

/// The headline-suite full handshake through the sans-io engine, pinned —
/// once per limb kernel, so neither the u32 nor the u64 Montgomery path
/// can drift a wire byte without a named failure.
#[test]
fn engine_full_handshake_flights_pinned() {
    for limbs in [LimbWidth::U64, LimbWidth::U32] {
        let config = pin_config_with_width(limbs);
        let mut client = client_engine(CipherSuite::RsaDesCbc3Sha, b"engine-pin-client-full");
        let flights = engine_handshake(&config, &mut client, b"engine-pin-server-full", false);
        let (lens, digests) = flight_pins(&flights);
        assert_eq!(lens, [48, 300, 150, 75], "{} limbs", limbs.name());
        assert_eq!(
            digests,
            [
                "0dfd071fb213a445907e878229071985ab8e871f".to_string(),
                "5437b773253bdd1ce74d75618509d664136b425f".to_string(),
                "097af0e7b296dc39db32b774dcbaf1a9b822a450".to_string(),
                "391c82bb556f1c55c987e8151a4a22a057b348dd".to_string(),
            ],
            "{} limbs",
            limbs.name()
        );
    }
}

/// The TLS 1.3 handshake through the dual-protocol server machine must
/// put the same bytes on the wire whichever limb kernel the server key
/// runs on; the seeded run is compared flight-for-flight across widths.
#[test]
fn tls13_wire_identical_across_limb_widths() {
    fn tls13_wire(config: &ServerConfig) -> (Vec<u8>, Vec<u8>) {
        let mut client = Engine::new(Tls13ClientMachine::new(
            CipherSuite::RsaDesCbc3Sha,
            SslRng::from_seed(b"engine-pin-tls13-client"),
        ))
        .expect("client engine");
        let mut server =
            Engine::new(ServerMachine::new(config, SslRng::from_seed(b"engine-pin-tls13-server")))
                .expect("server engine");
        let (mut c2s, mut s2c) = (Vec::new(), Vec::new());
        let mut stalls = 0;
        while !(client.is_established() && server.is_established()) {
            let up = drain(&mut client);
            feed_all(&mut server, &up);
            c2s.extend_from_slice(&up);
            let down = drain(&mut server);
            feed_all(&mut client, &down);
            s2c.extend_from_slice(&down);
            if up.is_empty() && down.is_empty() {
                stalls += 1;
                assert!(stalls < 4, "TLS 1.3 handshake stalled");
            }
        }
        (c2s, s2c)
    }

    let u64_wire = tls13_wire(&pin_config_with_width(LimbWidth::U64));
    let u32_wire = tls13_wire(&pin_config_with_width(LimbWidth::U32));
    assert!(!u64_wire.0.is_empty() && !u64_wire.1.is_empty(), "handshake produced traffic");
    assert_eq!(u64_wire, u32_wire, "TLS 1.3 wire drifted between limb kernels");
}

/// The abbreviated (id-cache resumed) handshake, pinned.
#[test]
fn engine_resumed_handshake_flights_pinned() {
    let config = pin_config();
    let session = pinned_session(&config);
    let mut client =
        Engine::new(SslClient::resuming(session, SslRng::from_seed(b"engine-pin-client-resumed")))
            .expect("client engine");
    let flights = engine_handshake(&config, &mut client, b"engine-pin-server-resumed", false);
    let (lens, digests) = flight_pins(&flights);
    assert_eq!(lens, [80, 153, 75, 0]);
    assert_eq!(
        digests[..3],
        [
            "d8fa6e04050c8d10d2ecad6f6b26c4df584964c2".to_string(),
            "1399845f9288cc543adf70e207206b21c1e24538".to_string(),
            "2231a997410f8d692765dafce5b56a7adfd59d68".to_string(),
        ]
    );
}

/// Ticket negotiation (hello extension + NewSessionTicket flight), pinned.
#[test]
fn engine_ticket_handshake_flights_pinned() {
    let config = ticket_config();
    let mut client = Engine::new(
        SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"engine-pin-client-ticket"))
            .with_tickets(),
    )
    .expect("client engine");
    let flights = engine_handshake(&config, &mut client, b"engine-pin-server-ticket", false);
    let (lens, digests) = flight_pins(&flights);
    // Flight 4 carries the NewSessionTicket, whose sealed state embeds the
    // issue timestamp — length and framing are stable, bytes are not.
    assert_eq!(lens, [54, 306, 150, 194]);
    assert_eq!(
        digests[..3],
        [
            "9d808814ba08f2ba38b91339602306dc13bed828".to_string(),
            "4f8c4c0590a03e1e25a7ce4c895df6246b109ca0".to_string(),
            "93963669104f9921e6cea8330e31059cbc7dc347".to_string(),
        ]
    );
    assert_eq!(&flights[3][..3], &[22, 3, 0], "ticket flight record framing");
}

/// One digest per suite over the concatenated full-handshake flights: a
/// compact pin proving no suite's key schedule, MAC, or padding drifted.
#[test]
fn engine_every_suite_concatenated_flights_pinned() {
    let pinned = [
        ("DES-CBC3-SHA", "27078eabcd55f91c911690f3df41e319cf611b01"),
        ("AES256-SHA", "0f09105927d58578f5eac14247caa99f0524b4ff"),
        ("AES128-SHA", "b48395378c9a86d1ff805262904772b34b248543"),
        ("DES-CBC-SHA", "7ddd71fc8c5d9612d1153823a448ac01d363af2f"),
        ("RC4-SHA", "ced4549700b944b2f902987a83f17bbe41f90422"),
        ("RC4-MD5", "a98947adacaddfc1e1dac5fd79ad3bf9e2d78205"),
    ];
    let config = pin_config();
    for (i, suite) in CipherSuite::ALL.into_iter().enumerate() {
        let seed = format!("engine-pin-suite-{}", suite.name());
        let mut client = client_engine(suite, seed.as_bytes());
        let server_seed = format!("{seed}-server");
        let flights = engine_handshake(&config, &mut client, server_seed.as_bytes(), false);
        let concat: Vec<u8> = flights.iter().flatten().copied().collect();
        assert_eq!(pinned[i].0, suite.name(), "pin table order");
        assert_eq!(sha1_hex(&concat), pinned[i].1, "{suite}");
    }
}

/// Crypto offload must not change a single wire byte: the same seeds run
/// inline and through a suspended-and-resumed job, compared flight by
/// flight (and, transitively, against the pins above).
#[test]
fn offloaded_flights_byte_identical_to_inline() {
    let config = pin_config();
    let inline = engine_handshake(
        &config,
        &mut client_engine(CipherSuite::RsaDesCbc3Sha, b"engine-pin-client-full"),
        b"engine-pin-server-full",
        false,
    );
    let offloaded = engine_handshake(
        &config,
        &mut client_engine(CipherSuite::RsaDesCbc3Sha, b"engine-pin-client-full"),
        b"engine-pin-server-full",
        true,
    );
    assert_eq!(inline, offloaded);
}

/// Prints the current capture in pin-table form. Ignored in normal runs;
/// use it to regenerate the constants after an intentional wire change.
#[test]
#[ignore = "re-capture helper, not a check"]
fn capture_current_flights() {
    let config = pin_config();
    let mut client = client_engine(CipherSuite::RsaDesCbc3Sha, b"engine-pin-client-full");
    let flights = engine_handshake(&config, &mut client, b"engine-pin-server-full", false);
    let (lens, digests) = flight_pins(&flights);
    println!("full lens: {lens:?}");
    println!("full digests: {digests:#?}");

    let session = pinned_session(&config);
    let mut client =
        Engine::new(SslClient::resuming(session, SslRng::from_seed(b"engine-pin-client-resumed")))
            .expect("client engine");
    let flights = engine_handshake(&config, &mut client, b"engine-pin-server-resumed", false);
    let (lens, digests) = flight_pins(&flights);
    println!("resumed lens: {lens:?}");
    println!("resumed digests: {digests:#?}");

    let config = ticket_config();
    let mut client = Engine::new(
        SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"engine-pin-client-ticket"))
            .with_tickets(),
    )
    .expect("client engine");
    let flights = engine_handshake(&config, &mut client, b"engine-pin-server-ticket", false);
    let (lens, digests) = flight_pins(&flights);
    println!("ticket lens: {lens:?}");
    println!("ticket digests: {digests:#?}");

    let config = pin_config();
    for suite in CipherSuite::ALL {
        let seed = format!("engine-pin-suite-{}", suite.name());
        let mut client = client_engine(suite, seed.as_bytes());
        let server_seed = format!("{seed}-server");
        let flights = engine_handshake(&config, &mut client, server_seed.as_bytes(), false);
        let concat: Vec<u8> = flights.iter().flatten().copied().collect();
        println!("(\"{}\", \"{}\"),", suite.name(), sha1_hex(&concat));
    }
}
