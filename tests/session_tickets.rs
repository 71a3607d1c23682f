//! Stateless session tickets: wire-compat pins for legacy peers, ticket
//! negotiation end-to-end, cross-config (shared-nothing) resumption, and
//! silent fallback for every rejected-ticket shape.

mod support;

use sslperf::prelude::*;
use sslperf::ssl::{
    ClientEngine, ClientSession, Engine, ServerEngine, ShardedSessionCache, TicketError,
};
use std::sync::Arc;
use std::time::Duration;

fn sha1_hex(data: &[u8]) -> String {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn pin_key() -> RsaPrivateKey {
    let mut rng = SslRng::from_seed(b"ticket-pin-key");
    RsaPrivateKey::generate(512, &mut rng).expect("keygen")
}

fn ticket_config(keyring: &Arc<TicketKeyring>, name: &str) -> ServerConfig {
    let store =
        TicketSessionStore::new(Arc::clone(keyring), Box::new(ShardedSessionCache::default()));
    ServerConfig::with_store(pin_key(), name, Box::new(store)).expect("config")
}

type Flights = ([usize; 4], [String; 4]);

/// Two engines for one connection: a client wrapping `client` (its hello
/// already pending) and a server seeded with `server_seed`.
fn engines<'a>(
    config: &'a ServerConfig,
    client: SslClient,
    server_seed: &[u8],
) -> (ClientEngine, ServerEngine<'a>) {
    let client = Engine::new(client).expect("client engine");
    let server = Engine::new(SslServer::new(config, SslRng::from_seed(server_seed)));
    (client, server.expect("server engine"))
}

/// `(len, sha1)` of each flight.
fn pins(flights: &[Vec<u8>; 4]) -> Flights {
    (flights.each_ref().map(Vec::len), flights.each_ref().map(|f| sha1_hex(f)))
}

/// Runs a full then a resumed handshake with the pre-PR pin seeds and
/// returns `(len, sha1)` for each of the eight flights.
fn pinned_flights(config: &ServerConfig) -> (Flights, Flights) {
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"pin-client-full"));
    let (mut client, mut server) = engines(config, client, b"pin-server-full");
    let full = pins(&support::flights(&mut client, &mut server));
    assert!(client.is_established() && server.is_established());

    let session = client.machine().session().expect("session");
    let client = SslClient::resuming(session, SslRng::from_seed(b"pin-client-resumed"));
    let (mut client, mut server) = engines(config, client, b"pin-server-resumed");
    let resumed = pins(&support::flights(&mut client, &mut server));
    assert!(client.is_established() && server.is_established());
    (full, resumed)
}

/// Non-negotiating peers must see byte-identical wire traffic to the
/// pre-PR implementation. The lengths and digests below were captured on
/// the commit preceding this change with the identical seeds.
#[test]
fn legacy_flights_byte_identical_to_pre_ticket_capture() {
    let config = ServerConfig::new(pin_key(), "pin.sslperf.test").expect("config");
    let (full, resumed) = pinned_flights(&config);

    assert_eq!(full.0, [48, 300, 150, 75]);
    assert_eq!(
        full.1,
        [
            "fb78a7438b2d7baf7074778874636ecee4bdd3a0".to_string(),
            "7a6b689da2a90332de4a94a66b5c59024e3f8a83".to_string(),
            "d2c94758eab6ea085dabda10d1e8f4f4a9427ba7".to_string(),
            "c742ab2d1477bf7365fd263ee755b16190349609".to_string(),
        ]
    );
    assert_eq!(resumed.0, [80, 153, 75, 0]);
    assert_eq!(
        resumed.1[..3],
        [
            "1765bf1cc4536ebac157efda052de776af208ba1".to_string(),
            "9edb0de896ca1115223ca7398bdd460f2bff93d7".to_string(),
            "c1f221e850d526107fa7293d1bda0bd13f6b41d5".to_string(),
        ]
    );
}

/// A ticket-capable server must leave legacy flights untouched too: same
/// pinned bytes with a `TicketSessionStore` installed, because the client
/// never advertises the extension.
#[test]
fn legacy_flights_unchanged_under_ticket_store() {
    let keyring = Arc::new(TicketKeyring::new(b"pin-under-store"));
    let config = ticket_config(&keyring, "pin.sslperf.test");
    let (full, resumed) = pinned_flights(&config);
    assert_eq!(full.0, [48, 300, 150, 75]);
    assert_eq!(full.1[0], "fb78a7438b2d7baf7074778874636ecee4bdd3a0");
    assert_eq!(full.1[1], "7a6b689da2a90332de4a94a66b5c59024e3f8a83");
    assert_eq!(full.1[2], "d2c94758eab6ea085dabda10d1e8f4f4a9427ba7");
    assert_eq!(full.1[3], "c742ab2d1477bf7365fd263ee755b16190349609");
    assert_eq!(resumed.0, [80, 153, 75, 0]);
}

fn full_ticket_handshake(config: &ServerConfig, seed: &str) -> ClientSession {
    let client = SslClient::new(
        CipherSuite::RsaDesCbc3Sha,
        SslRng::from_seed(format!("{seed}-c").as_bytes()),
    )
    .with_tickets();
    let (mut client, mut server) = engines(config, client, format!("{seed}-s").as_bytes());
    support::establish(&mut client, &mut server);
    let server = server.machine();
    assert!(server.ticket_negotiated(), "extension negotiated");
    assert!(server.ticket_issued(), "ticket issued on full handshake");
    assert!(!server.resumed());
    client.machine().session().expect("session")
}

fn resume_with(
    config: &ServerConfig,
    session: ClientSession,
    seed: &str,
) -> (SslClient, bool, bool) {
    let client = SslClient::resuming(session, SslRng::from_seed(format!("{seed}-c").as_bytes()));
    let (mut client, mut server) = engines(config, client, format!("{seed}-s").as_bytes());
    support::establish(&mut client, &mut server);
    let (client, server) = (client.into_machine(), server.machine());
    assert_eq!(client.resumed(), server.resumed());
    (client, server.resumed(), server.ticket_accepted())
}

/// The shared-nothing proof at the protocol layer: a session established
/// against config A resumes against config B, which shares only the
/// keyring — no cache entry, no common process state.
#[test]
fn ticket_resumes_across_independent_configs() {
    let keyring = Arc::new(TicketKeyring::new(b"cross-config-secret"));
    let config_a = ticket_config(&keyring, "a.sslperf.test");
    let config_b = ticket_config(&keyring, "b.sslperf.test");

    let session = full_ticket_handshake(&config_a, "cross-full");
    assert!(session.ticket().is_some(), "session carries the ticket");
    assert_eq!(config_a.cached_sessions(), 0, "negotiated peers never touch the id cache");
    drop(config_a); // instance A is gone; only the keyring survives

    let (client, resumed, accepted) = resume_with(&config_b, session, "cross-resume");
    assert!(resumed, "session resumed on the second instance");
    assert!(accepted, "resumption came from the ticket");
    assert_eq!(config_b.cached_sessions(), 0);
    // The still-valid ticket is carried forward for the next connection.
    assert!(client.session().expect("session").ticket().is_some());
}

/// Every rejected-ticket shape must degrade to a clean full handshake —
/// same message flow a legacy full handshake uses, never an alert.
#[test]
fn bad_tickets_fall_back_to_full_handshake_silently() {
    let keyring = Arc::new(TicketKeyring::new(b"fallback-secret"));
    let config = ticket_config(&keyring, "fallback.sslperf.test");
    let session = full_ticket_handshake(&config, "fallback-full");
    let ticket = session.ticket().expect("ticket").to_vec();

    // Bit-flip in the middle of the ciphertext.
    let mut tampered = ticket.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x40;
    let (client, resumed, accepted) =
        resume_with(&config, session.with_ticket(Some(tampered.clone())), "fallback-tamper");
    assert!(!resumed && !accepted, "tampered ticket falls back to full");
    assert!(client.session().expect("session").ticket().is_some(), "fresh ticket re-issued");

    // Truncated ticket.
    let truncated = ticket[..ticket.len() - 9].to_vec();
    let (_, resumed, accepted) =
        resume_with(&config, session.with_ticket(Some(truncated.clone())), "fallback-trunc");
    assert!(!resumed && !accepted);

    // Ticket sealed under a foreign keyring (unknown key id / wrong MAC).
    let foreign = Arc::new(TicketKeyring::new(b"some-other-secret"));
    let foreign_config = ticket_config(&foreign, "foreign.sslperf.test");
    let foreign_session = full_ticket_handshake(&foreign_config, "fallback-foreign");
    let foreign_ticket = foreign_session.ticket().expect("ticket").to_vec();
    let (_, resumed, accepted) = resume_with(
        &config,
        session.with_ticket(Some(foreign_ticket.clone())),
        "fallback-unknown-key",
    );
    assert!(!resumed && !accepted);

    // All three were refused as invalid, not as expired.
    for bad in [tampered, truncated, foreign_ticket] {
        assert_eq!(keyring.open(&bad), Err(TicketError::Invalid));
    }
}

/// An expired ticket is silently rejected and the full handshake issues a
/// replacement.
#[test]
fn expired_ticket_falls_back_and_reissues() {
    let keyring = Arc::new(TicketKeyring::with_schedule(b"expiry-secret", Duration::ZERO, None));
    let config = ticket_config(&keyring, "expiry.sslperf.test");
    let session = full_ticket_handshake(&config, "expiry-full");
    std::thread::sleep(Duration::from_millis(5));
    let ticket = session.ticket().expect("ticket").to_vec();

    let (client, resumed, _) = resume_with(&config, session, "expiry-resume");
    assert!(!resumed, "expired ticket cannot resume");
    assert_eq!(keyring.open(&ticket), Err(TicketError::Expired));
    assert!(client.session().expect("session").ticket().is_some(), "replacement issued");
}

/// Tickets sealed under the previous key survive one rotation — the
/// current+previous acceptance window that makes staggered multi-instance
/// key rollover safe.
#[test]
fn rotation_keeps_previous_key_tickets_valid() {
    let keyring = Arc::new(TicketKeyring::new(b"rotation-secret"));
    let config = ticket_config(&keyring, "rotate.sslperf.test");
    let session = full_ticket_handshake(&config, "rotate-full");

    keyring.rotate();
    let (_, resumed, accepted) = resume_with(&config, session.clone(), "rotate-one");
    assert!(resumed && accepted, "previous-key ticket still accepted");

    keyring.rotate();
    let (_, resumed, accepted) = resume_with(&config, session, "rotate-two");
    assert!(!resumed && !accepted, "two rotations retire the key");
}

/// A ticket-enabled client against a plain id-cache server degrades to
/// classic cached resumption: no extension echo, no ticket, id path works.
#[test]
fn ticket_client_against_plain_server_uses_id_cache() {
    let config = ServerConfig::new(pin_key(), "plain.sslperf.test").expect("config");
    let client =
        SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"plain-c")).with_tickets();
    let (mut client, mut server) = engines(&config, client, b"plain-s");
    support::establish(&mut client, &mut server);
    assert!(!server.machine().ticket_negotiated());
    assert!(!server.machine().ticket_issued());
    let session = client.machine().session().expect("session");
    assert!(session.ticket().is_none());
    assert_eq!(config.cached_sessions(), 1, "plain server still caches by id");

    let (_, resumed, accepted) = resume_with(&config, session, "plain-resume");
    assert!(resumed, "id-cache resumption still works");
    assert!(!accepted);
}

/// The engine handles the extra NewSessionTicket flight transparently —
/// the same pump loop as a ticketless handshake, now with a ticket in the
/// exported session.
#[test]
fn engine_pump_carries_tickets() {
    let keyring = Arc::new(TicketKeyring::new(b"transport-secret"));
    let config = ticket_config(&keyring, "transport.sslperf.test");
    // Two engines pumped in one thread until both are established.
    let pair = |client: SslClient, server_seed: &[u8]| {
        let (mut client, mut server) = engines(&config, client, server_seed);
        support::establish(&mut client, &mut server);
        (client, server)
    };

    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"transport-c1"))
        .with_tickets();
    let (mut client, mut server) = pair(client, b"transport-s1");
    client.seal(b"ticket ride").expect("send");
    server.feed(client.output()).expect("server feed");
    let range = server.open_next().expect("open").expect("request");
    let request = server.buffered()[range].to_vec();
    server.seal(&request).expect("echo");
    client.feed(server.output()).expect("client feed");
    let range = client.open_next().expect("open").expect("echo");
    assert_eq!(&client.buffered()[range], b"ticket ride");
    assert!(!server.machine().resumed() && server.machine().ticket_issued());
    let session = client.machine().session().expect("session");
    assert!(session.ticket().is_some());

    let client = SslClient::resuming(session, SslRng::from_seed(b"transport-c2"));
    let (client, server) = pair(client, b"transport-s2");
    assert!(client.machine().resumed());
    assert!(server.machine().resumed() && server.machine().ticket_accepted());
}
