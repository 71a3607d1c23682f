//! Out-of-order inputs at every state of the four protocol machines:
//! `SslServer`, `SslClient`, `Tls13ServerMachine` and `Tls13ClientMachine`.
//!
//! Each machine is walked through seeded handshakes (SSLv3 full, resumed by
//! id, with a ticket issued, resumed by ticket; TLS 1.3 1-RTT). At every
//! state it reaches it is offered every handshake message both protocols
//! send, an empty-bodied message of every other type up to 24, two
//! change-cipher-spec bodies and a crypto result. An input is either the
//! handshake's next step or an `Err`. It never panics, and after an `Err`
//! the machine refuses what the handshake would have taken next.
//! Through `Engine::feed` the same messages, framed as plaintext records,
//! either go through or leave a poisoned engine whose `last_error` is the
//! error the feed returned.

mod support;

use sslperf::prelude::*;
use sslperf::ssl::alert::{Alert, AlertDescription, AlertLevel};
use sslperf::ssl::{
    CachedSession, ClientSession, ContentType, CryptoJob, Engine, EngineDriven, MachineStep,
    RecordBuffer, SslError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

const SUITE: CipherSuite = CipherSuite::RsaDesCbc3Sha;

fn key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        RsaPrivateKey::generate(512, &mut SslRng::from_seed(b"states-key")).expect("keygen")
    })
}

/// Id-cache sessions; also the TLS 1.3 server's configuration.
fn config() -> &'static ServerConfig {
    static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
    CONFIG.get_or_init(|| ServerConfig::new(key().clone(), "states.test").expect("config"))
}

fn ticket_config() -> &'static ServerConfig {
    static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let keyring = Arc::new(TicketKeyring::new(b"states-ticket-keys"));
        let store = TicketSessionStore::new(keyring, Box::new(ShardedSessionCache::default()));
        ServerConfig::with_store(key().clone(), "states.test", Box::new(store)).expect("config")
    })
}

fn rng(seed: &str) -> SslRng {
    SslRng::from_seed(seed.as_bytes())
}

/// One input a machine takes from its engine.
#[derive(Debug, Clone, PartialEq)]
enum Input {
    /// A whole handshake message, 4-byte header included.
    Msg(Vec<u8>),
    /// A change-cipher-spec record body.
    Ccs(Vec<u8>),
    /// The result of the job the machine suspended on; with none pending,
    /// of an unrelated bulk job.
    Crypto,
}

const CCS: u16 = 256;
const CRYPTO: u16 = 257;

impl Input {
    /// The message type, or a tag for the two other kinds of input.
    fn kind(&self) -> u16 {
        match self {
            Input::Msg(msg) => u16::from(msg[0]),
            Input::Ccs(_) => CCS,
            Input::Crypto => CRYPTO,
        }
    }

    fn describe(&self) -> String {
        match self {
            Input::Msg(msg) => format!("message type {} ({} bytes)", msg[0], msg.len()),
            Input::Ccs(body) => format!("CCS {body:?}"),
            Input::Crypto => "crypto result".to_string(),
        }
    }
}

/// A machine driven by hand, through `EngineDriven` alone.
struct Driven<M> {
    machine: M,
    job: Option<CryptoJob>,
    out: Vec<u8>,
}

impl<M: EngineDriven> Driven<M> {
    fn new(machine: M) -> Self {
        Driven { machine, job: None, out: Vec::new() }
    }

    fn started(machine: M) -> Self {
        let mut driven = Driven::new(machine);
        driven.machine.start(&mut driven.out).expect("start");
        driven
    }

    fn apply(&mut self, input: &Input) -> Result<(), SslError> {
        match input {
            Input::Msg(msg) => {
                let step = self.machine.on_handshake_message(msg, Cycles::ZERO, &mut self.out)?;
                if let MachineStep::PendingCrypto(job) = step {
                    self.job = Some(*job);
                }
                Ok(())
            }
            Input::Ccs(body) => self.machine.on_change_cipher_spec(body, Cycles::ZERO),
            Input::Crypto => {
                let job = self
                    .job
                    .take()
                    .unwrap_or_else(|| CryptoJob::new_bulk(vec![0; 16], rng("stray-job")));
                self.machine.complete_crypto(job.execute(key()), &mut self.out)
            }
        }
    }
}

/// The records framed in `flight`.
fn records(flight: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut rest = flight;
    while !rest.is_empty() {
        let (record, tail) = rest.split_at(5 + usize::from(u16::from_be_bytes([rest[3], rest[4]])));
        out.push(record.to_vec());
        rest = tail;
    }
    out
}

/// Opens one record with `machine`'s own record layer.
fn open<M: EngineDriven>(machine: &mut M, record: &[u8]) -> (ContentType, Vec<u8>) {
    let mut buf = RecordBuffer::new();
    buf.extend_from_slice(record);
    let (content_type, range) = machine.record_layer().open_in_place(&mut buf).expect("open");
    (content_type, buf.as_slice()[range].to_vec())
}

/// What each side of one seeded handshake received: its inputs in order
/// and the records they came in.
#[derive(Default)]
struct Trace {
    client: Vec<Input>,
    server: Vec<Input>,
    to_client: Vec<Vec<u8>>,
    to_server: Vec<Vec<u8>>,
}

/// Opens `flight`'s records with the receiving machine's record layer and
/// applies what they carry, running any suspended job at once.
fn deliver<M: EngineDriven>(
    to: &mut Driven<M>,
    flight: &[u8],
    inputs: &mut Vec<Input>,
    received: &mut Vec<Vec<u8>>,
) {
    let mut take = |to: &mut Driven<M>, input: Input| {
        to.apply(&input).unwrap_or_else(|e| panic!("reference {}: {e}", input.describe()));
        inputs.push(input);
    };
    let mut pending = Vec::new();
    for record in records(flight) {
        let (content_type, body) = open(&mut to.machine, &record);
        received.push(record);
        match content_type {
            ContentType::ChangeCipherSpec => take(to, Input::Ccs(body)),
            ContentType::Handshake => {
                pending.extend_from_slice(&body);
                while pending.len() >= 4 {
                    let len = 4
                        + (usize::from(pending[1]) << 16
                            | usize::from(pending[2]) << 8
                            | usize::from(pending[3]));
                    if pending.len() < len {
                        break;
                    }
                    take(to, Input::Msg(pending.drain(..len).collect()));
                    if to.job.is_some() {
                        take(to, Input::Crypto);
                    }
                }
            }
            other => panic!("{other:?} record during the handshake"),
        }
    }
}

fn reference<C: EngineDriven, S: EngineDriven>(client: C, server: S) -> Trace {
    let (mut client, mut server) = (Driven::started(client), Driven::new(server));
    let mut trace = Trace::default();
    for _ in 0..8 {
        if client.machine.handshake_done() && server.machine.handshake_done() {
            return trace;
        }
        let up = std::mem::take(&mut client.out);
        deliver(&mut server, &up, &mut trace.server, &mut trace.to_server);
        let down = std::mem::take(&mut server.out);
        deliver(&mut client, &down, &mut trace.client, &mut trace.to_client);
    }
    panic!("reference handshake did not converge");
}

/// A seeded handshake: how to build each side, and what each received.
struct Scenario<C, S> {
    name: &'static str,
    client: Box<dyn Fn() -> C>,
    server: Box<dyn Fn() -> S>,
    trace: Trace,
}

impl<C: EngineDriven, S: EngineDriven> Scenario<C, S> {
    fn new(
        name: &'static str,
        client: impl Fn() -> C + 'static,
        server: impl Fn() -> S + 'static,
    ) -> Self {
        let trace = reference(client(), server());
        Scenario { name, client: Box::new(client), server: Box::new(server), trace }
    }
}

/// The session an established SSLv3 client holds (and `config`'s store
/// keeps, on the id-cache path). The server's seed picks the session id,
/// so each caller passes its own: two callers on one seed would share an
/// id, and the later one would overwrite the earlier one's cached master.
fn session(config: &'static ServerConfig, client: SslClient, server_seed: &str) -> ClientSession {
    let mut client = Engine::new(client).expect("client engine");
    let mut server = Engine::new(SslServer::new(config, rng(server_seed))).expect("server engine");
    support::establish(&mut client, &mut server);
    client.machine().session().expect("session")
}

fn ssl3_scenarios() -> Vec<Scenario<SslClient, SslServer<'static>>> {
    let plain = session(config(), SslClient::new(SUITE, rng("session-c")), "plain-session-s");
    let ticket = session(
        ticket_config(),
        SslClient::new(SUITE, rng("session-c")).with_tickets(),
        "ticket-session-s",
    );
    assert!(ticket.ticket().is_some(), "the ticket store issued a ticket");
    vec![
        Scenario::new(
            "SSLv3 full",
            || SslClient::new(SUITE, rng("full-c")),
            || SslServer::new(config(), rng("full-s")),
        ),
        Scenario::new(
            "SSLv3 resumed by id",
            move || SslClient::resuming(plain.clone(), rng("resumed-c")),
            || SslServer::new(config(), rng("resumed-s")),
        ),
        Scenario::new(
            "SSLv3 ticket issued",
            || SslClient::new(SUITE, rng("ticket-c")).with_tickets(),
            || SslServer::new(ticket_config(), rng("ticket-s")),
        ),
        Scenario::new(
            "SSLv3 resumed by ticket",
            move || SslClient::resuming(ticket.clone(), rng("ticket-resumed-c")),
            || SslServer::new(ticket_config(), rng("ticket-resumed-s")),
        ),
    ]
}

fn tls13_scenario() -> Scenario<Tls13ClientMachine, Tls13ServerMachine<'static>> {
    Scenario::new(
        "TLS 1.3",
        || Tls13ClientMachine::new(SUITE, rng("tls13-c")),
        || Tls13ServerMachine::new(config(), rng("tls13-s")),
    )
}

/// Every message the scenarios carry, an empty-bodied message of every
/// other type up to 24, a good and a bad CCS body, and a crypto result.
fn probes(traces: &[&Trace]) -> Vec<Input> {
    let mut probes: Vec<Input> = Vec::new();
    for input in traces.iter().flat_map(|t| t.client.iter().chain(&t.server)) {
        if matches!(input, Input::Msg(_)) && !probes.contains(input) {
            probes.push(input.clone());
        }
    }
    for t in 0..=24u8 {
        if !probes.iter().any(|p| p.kind() == u16::from(t)) {
            probes.push(Input::Msg(vec![t, 0, 0, 0]));
        }
    }
    probes.extend([Input::Ccs(vec![1]), Input::Ccs(vec![2]), Input::Crypto]);
    probes
}

fn all_probes() -> Vec<Input> {
    let ssl3 = ssl3_scenarios();
    let tls13 = tls13_scenario();
    let mut traces: Vec<&Trace> = ssl3.iter().map(|s| &s.trace).collect();
    traces.push(&tls13.trace);
    probes(&traces)
}

/// Replays `inputs[..k]` into a fresh machine at every `k`, offers each
/// probe there, and after a refusal offers what the handshake takes next.
fn probe_machine<M: EngineDriven>(
    what: &str,
    fresh: &dyn Fn() -> M,
    inputs: &[Input],
    probes: &[Input],
) {
    for k in 0..=inputs.len() {
        let next = inputs.get(k);
        for probe in probes {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut driven = Driven::started(fresh());
                for input in &inputs[..k] {
                    driven.apply(input).expect("replay");
                }
                let first = driven.apply(probe);
                let then = (first.is_err() && !stateless(&driven.machine, probe))
                    .then(|| driven.apply(next.unwrap_or(probe)));
                (first, then)
            }));
            let at = format!("{what}, state {k}, {}", probe.describe());
            let (first, then) = run.unwrap_or_else(|_| panic!("{at}: panicked"));
            match (first, then) {
                (Ok(()), _) => {
                    assert!(
                        next.map(Input::kind) == Some(probe.kind()),
                        "{at}: accepted where {:?} was due",
                        next.map(Input::describe)
                    );
                }
                (Err(_), then) => {
                    assert!(
                        then.is_none_or(|then| then.is_err()),
                        "{at}: the next input went through"
                    );
                }
            }
        }
    }
}

/// A client never suspends: the trait's default refuses a crypto result
/// without a state to leave behind.
fn stateless<M: EngineDriven>(machine: &M, probe: &Input) -> bool {
    *probe == Input::Crypto && machine.crypto_key().is_none()
}

/// A client before `start`: every probe is refused, and so is `start`.
fn probe_unstarted<M: EngineDriven>(what: &str, fresh: &dyn Fn() -> M, probes: &[Input]) {
    for probe in probes {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut driven = Driven::new(fresh());
            let first = driven.apply(probe);
            let stateless = stateless(&driven.machine, probe);
            (first, stateless || driven.machine.start(&mut driven.out).is_err())
        }));
        let at = format!("{what}, unstarted, {}", probe.describe());
        let (first, refused) = run.unwrap_or_else(|_| panic!("{at}: panicked"));
        assert!(first.is_err(), "{at}: accepted");
        assert!(refused, "{at}: started after the refusal");
    }
}

fn check_scenario<C: EngineDriven, S: EngineDriven>(s: &Scenario<C, S>, probes: &[Input]) {
    probe_unstarted(&format!("{} client", s.name), &*s.client, probes);
    probe_machine(&format!("{} client", s.name), &*s.client, &s.trace.client, probes);
    probe_machine(&format!("{} server", s.name), &*s.server, &s.trace.server, probes);
}

#[test]
fn ssl3_machines_refuse_out_of_order_inputs_at_every_state() {
    let probes = all_probes();
    for scenario in &ssl3_scenarios() {
        check_scenario(scenario, &probes);
    }
}

#[test]
fn tls13_machines_refuse_out_of_order_inputs_at_every_state() {
    check_scenario(&tls13_scenario(), &all_probes());
}

/// Feeds `received[..k]` to a fresh engine at every `k`, then each probe
/// record; a refused probe poisons the engine with that very error.
fn probe_engine<M: EngineDriven>(
    what: &str,
    fresh: &dyn Fn() -> M,
    received: &[Vec<u8>],
    probes: &[Vec<u8>],
) {
    for k in 0..=received.len() {
        for (i, probe) in probes.iter().enumerate() {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut engine = Engine::new(fresh()).expect("engine");
                for record in &received[..k] {
                    support::feed_all(&mut engine, record);
                }
                let first = engine.feed(probe);
                let latched = engine.last_error().cloned();
                let then = first.is_err().then(|| engine.feed(received.get(k).unwrap_or(probe)));
                (first, latched, then)
            }));
            let at = format!("{what}, record {k}, probe {i}");
            let (first, latched, then) = run.unwrap_or_else(|_| panic!("{at}: panicked"));
            if let Err(e) = first {
                assert_eq!(latched.as_ref(), Some(&e), "{at}: last_error");
                assert_eq!(then, Some(Err(e)), "{at}: the next feed");
            }
        }
    }
}

fn check_engines<C: EngineDriven, S: EngineDriven>(
    s: &Scenario<C, S>,
    probes: &[Input],
    version: (u8, u8),
) {
    let framed: Vec<Vec<u8>> = probes
        .iter()
        .filter_map(|probe| {
            let (content_type, body) = match probe {
                Input::Msg(msg) => (22, msg),
                Input::Ccs(body) => (20, body),
                Input::Crypto => return None,
            };
            let mut record = vec![content_type, version.0, version.1];
            record.extend_from_slice(&(body.len() as u16).to_be_bytes());
            record.extend_from_slice(body);
            Some(record)
        })
        .collect();
    probe_engine(&format!("{} client", s.name), &*s.client, &s.trace.to_client, &framed);
    probe_engine(&format!("{} server", s.name), &*s.server, &s.trace.to_server, &framed);
}

#[test]
fn engines_poison_on_out_of_order_records_at_every_state() {
    let probes = all_probes();
    for scenario in &ssl3_scenarios() {
        check_engines(scenario, &probes, (3, 0));
    }
    check_engines(&tls13_scenario(), &probes, (3, 4));
}

/// A Finished whose verify-data is all zeros.
fn bad_finished(len: u8) -> Vec<u8> {
    let mut msg = vec![20, 0, 0, len];
    msg.resize(4 + usize::from(len), 0);
    msg
}

#[test]
fn tls13_server_refuses_the_right_finished_after_a_bad_one() {
    let mut client =
        Engine::new(Tls13ClientMachine::new(SUITE, rng("regress-c"))).expect("client engine");
    let mut server =
        Engine::new(Tls13ServerMachine::new(config(), rng("regress-s"))).expect("server engine");
    server.feed_from(&mut client).expect("client hello");
    client.feed_from(&mut server).expect("server flight");
    let mut server = server.into_machine();
    let (_, finished) = open(&mut server, &support::drain(&mut client));
    let mut out = Vec::new();
    let bad = server.on_handshake_message(&bad_finished(32), Cycles::ZERO, &mut out);
    assert_eq!(bad.err(), Some(SslError::BadFinished));
    let again = server.on_handshake_message(&finished, Cycles::ZERO, &mut out);
    assert!(again.is_err(), "the client Finished went through after a bad one");
    assert!(!server.is_established());
}

#[test]
fn tls13_client_refuses_the_right_finished_after_a_bad_one() {
    let mut client =
        Engine::new(Tls13ClientMachine::new(SUITE, rng("regress-c"))).expect("client engine");
    let mut server =
        Engine::new(Tls13ServerMachine::new(config(), rng("regress-s"))).expect("server engine");
    server.feed_from(&mut client).expect("client hello");
    let mut flight = records(&support::drain(&mut server));
    let last = flight.pop().expect("server Finished record");
    for record in &flight {
        support::feed_all(&mut client, record);
    }
    let mut client = client.into_machine();
    let (_, finished) = open(&mut client, &last);
    let mut out = Vec::new();
    let bad = client.on_handshake_message(&bad_finished(32), Cycles::ZERO, &mut out);
    assert_eq!(bad.err(), Some(SslError::BadFinished));
    let again = client.on_handshake_message(&finished, Cycles::ZERO, &mut out);
    assert!(again.is_err(), "the server Finished went through after a bad one");
    assert!(!client.is_established());
}

#[test]
fn tls13_client_refuses_a_server_hello_before_start() {
    let mut client =
        Engine::new(Tls13ClientMachine::new(SUITE, rng("regress-c"))).expect("client engine");
    let mut server =
        Engine::new(Tls13ServerMachine::new(config(), rng("regress-s"))).expect("server engine");
    server.feed_from(&mut client).expect("client hello");
    let hello = &records(server.output())[0];
    let (content_type, server_hello) = (hello[0], &hello[5..]);
    assert_eq!((content_type, server_hello[0]), (22, 2), "a plaintext ServerHello");
    let mut unstarted = Tls13ClientMachine::new(SUITE, rng("regress-unstarted"));
    let mut out = Vec::new();
    let step = unstarted.on_handshake_message(server_hello, Cycles::ZERO, &mut out);
    assert!(step.is_err(), "an unstarted client took a ServerHello");
    assert!(out.is_empty());
}

#[test]
fn ssl3_client_refuses_the_ccs_in_place_of_an_announced_ticket() {
    let mut client =
        Engine::new(SslClient::new(SUITE, rng("nst-c")).with_tickets()).expect("client engine");
    let mut server =
        Engine::new(SslServer::new(ticket_config(), rng("nst-s"))).expect("server engine");
    server.feed_from(&mut client).expect("client hello");
    client.feed_from(&mut server).expect("server hello flight");
    server.feed_from(&mut client).expect("client finished flight");
    let finish = records(&support::drain(&mut server));
    let kinds: Vec<u8> = finish.iter().map(|record| record[0]).collect();
    assert_eq!(kinds, [22, 20, 22], "NewSessionTicket, CCS, Finished");
    let refused = client.feed(&finish[1]);
    assert_eq!(refused, Err(SslError::UnexpectedMessage { expected: "new session ticket" }));
    assert!(!client.is_established());
}

/// A store that announces tickets and issues none.
#[derive(Debug)]
struct AnnouncesTicketsIssuesNone;

impl SessionStore for AnnouncesTicketsIssuesNone {
    fn lookup(&self, _id: &[u8]) -> Option<CachedSession> {
        None
    }

    fn store(&self, _id: Vec<u8>, _session: CachedSession) {}

    fn supports_tickets(&self) -> bool {
        true
    }

    fn len(&self) -> usize {
        0
    }

    fn clear(&self) {}
}

#[test]
fn ssl3_server_fails_the_handshake_when_an_announced_ticket_is_not_issued() {
    let config = ServerConfig::with_store(
        key().clone(),
        "states.test",
        Box::new(AnnouncesTicketsIssuesNone),
    )
    .expect("config");
    let mut client =
        Engine::new(SslClient::new(SUITE, rng("no-nst-c")).with_tickets()).expect("client engine");
    let mut server = Engine::new(SslServer::new(&config, rng("no-nst-s"))).expect("server engine");
    server.feed_from(&mut client).expect("client hello");
    assert!(server.machine().ticket_negotiated(), "the server hello announces a ticket");
    client.feed_from(&mut server).expect("server hello flight");
    let error = SslError::NotReady("announced session ticket not issued");
    assert_eq!(server.feed_from(&mut client), Err(error.clone()));
    assert_eq!(server.last_error(), Some(&error), "the engine is poisoned");
    assert!(server.output().is_empty(), "no CCS or Finished follows the missing ticket");
    assert!(!server.is_established());

    // The driver's fatal alert still goes out through the poisoned engine:
    // the one a server sends for this fault, a failed handshake.
    let alert = Alert::for_error(&error).expect("a server fault gets an alert");
    assert_eq!(alert, Alert::fatal(AlertDescription::HandshakeFailure));
    server.queue_alert(alert).expect("alert");
    let alert = client.feed_from(&mut server).expect_err("the client reads the alert");
    assert!(
        matches!(alert, SslError::PeerAlert(a) if a.level == AlertLevel::Fatal),
        "got {alert:?}"
    );
    assert!(!client.is_established());
}

#[test]
fn resumed_handshake_books_the_client_finished_hash_in_step_6() {
    // A cache of its own: `config()`'s holds the scenarios' sessions.
    let config = ServerConfig::new(key().clone(), "states.test").expect("config");
    let mut client = Engine::new(SslClient::new(SUITE, rng("attr-c1"))).expect("client engine");
    let mut server = Engine::new(SslServer::new(&config, rng("attr-s1"))).expect("server engine");
    support::establish(&mut client, &mut server);
    let plain = client.machine().session().expect("session");
    let mut client =
        Engine::new(SslClient::resuming(plain, rng("attr-c2"))).expect("client engine");
    let mut server = Engine::new(SslServer::new(&config, rng("attr-s2"))).expect("server engine");
    support::establish(&mut client, &mut server);
    assert!(server.machine().resumed());
    let booked: Vec<(usize, &str)> =
        server.machine().crypto_detail().iter().map(|&(step, name, _)| (step, name)).collect();
    for (step, name) in [(6, "final_finish_mac"), (7, "gen_key_block"), (8, "final_finish_mac")] {
        assert!(booked.contains(&(step, name)), "step {step} books no {name}: {booked:?}");
    }
}
