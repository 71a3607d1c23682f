//! The load generator's client: one blocking HTTPS transaction per call,
//! one connection per transaction (paper §3.1), driving the sans-io
//! `Engine<ClientMachine>` over a `TcpStream` itself so it can speak both
//! protocols, resume by id or by ticket, count failures instead of
//! aborting, and be wrapped in spans.

use crate::span::Recorder;
use crate::workload::{Path, Workload};
use sslperf_core::rng::SslRng;
use sslperf_core::ssl::{ClientMachine, ClientSession, Engine};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A stalled peer fails the transaction instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Think time before each transaction, drawn uniformly below this many
/// microseconds from the seed and not counted into any latency. It spans a
/// little over one period of the server shard's idle sleep (500 us plus
/// timer slack), so a client arrives at a random phase of that cycle.
/// Without it the closed loop phase-locks to the sleep: `full_rsa1024`
/// settles into one of three latency modes about 0.45 ms apart (2.1, 2.5,
/// 2.95 ms) and flips between them within and between runs, which reads as
/// a 15 to 30 % change in `tx_per_s` and latency that no code caused.
const THINK_MAX_US: u64 = 600;
/// Socket read size: four full records, so a bulk download needs few
/// syscalls per record.
const SCRATCH_LEN: usize = 64 * 1024;

/// What one transaction looked like from the client.
#[derive(Debug, Clone)]
pub struct TxSample {
    /// Handshake, response body and resumed/full flag were all as the
    /// workload demands.
    pub ok: bool,
    pub path: Path,
    /// The handshake resumed a session.
    pub resumed: bool,
    /// Connect → server Finished verified.
    pub hs_ns: u64,
    /// Connect → close_notify written and socket closed.
    pub total_ns: u64,
    /// ClientHello written → first server byte: the crypto-free flight.
    pub turnaround_ns: u64,
    pub end: Instant,
    /// Why the transaction failed, when it did.
    pub error: Option<String>,
}

/// Checks an HTTP response incrementally against the expected body, so a
/// 1 MiB download is verified byte for byte without being copied.
#[derive(Debug)]
pub struct ResponseCheck<'a> {
    expected: &'a [u8],
    head: Vec<u8>,
    content_length: Option<usize>,
    body_seen: usize,
    matches: bool,
}

impl<'a> ResponseCheck<'a> {
    pub fn new(expected: &'a [u8]) -> Self {
        ResponseCheck {
            expected,
            head: Vec::new(),
            content_length: None,
            body_seen: 0,
            matches: true,
        }
    }

    /// Consumes the next decrypted chunk of the response.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.content_length.is_none() {
            self.head.extend_from_slice(chunk);
            let Some(split) = self.head.windows(4).position(|w| w == b"\r\n\r\n") else {
                return;
            };
            let head = String::from_utf8_lossy(&self.head[..split]).into_owned();
            self.matches &= head.lines().next().is_some_and(|l| l.split(' ').nth(1) == Some("200"));
            let length = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok());
            self.matches &= length == Some(self.expected.len());
            self.content_length = Some(length.unwrap_or(0));
            let body = self.head.split_off(split + 4);
            self.compare(&body);
            return;
        }
        self.compare(chunk);
    }

    fn compare(&mut self, body: &[u8]) {
        let end = self.body_seen + body.len();
        self.matches &= self.expected.get(self.body_seen..end) == Some(body);
        self.body_seen = end;
    }

    /// The header and `Content-Length` bytes of body have arrived.
    pub fn complete(&self) -> bool {
        self.content_length.is_some_and(|len| self.body_seen >= len)
    }

    /// Status 200, the declared length and every body byte were right.
    pub fn ok(&self) -> bool {
        self.complete() && self.matches && self.body_seen == self.expected.len()
    }
}

/// One load-generator thread's state across transactions.
pub struct Client<'w> {
    workload: &'w Workload,
    addr: SocketAddr,
    request: Vec<u8>,
    expected: &'w [u8],
    scratch: Vec<u8>,
    seed: u64,
    index: usize,
    clients: usize,
    id_session: Option<ClientSession>,
    ticket_session: Option<ClientSession>,
    tx_count: u64,
    pub rec: Recorder,
}

type TxResult = Result<(u64, u64), String>;

impl<'w> Client<'w> {
    pub fn new(
        workload: &'w Workload,
        addr: SocketAddr,
        expected: &'w [u8],
        seed: u64,
        index: usize,
        clients: usize,
    ) -> Self {
        Client {
            workload,
            addr,
            request: workload.request(),
            expected,
            scratch: vec![0u8; SCRATCH_LEN],
            seed,
            index,
            clients,
            id_session: None,
            ticket_session: None,
            tx_count: 0,
            rec: Recorder::disabled(),
        }
    }

    /// Runs one transaction: connect → handshake → GET → read and verify
    /// the response → close_notify. Never panics on a peer failure; the
    /// sample says what went wrong.
    pub fn transact(&mut self) -> TxSample {
        let tx = self.tx_count;
        self.tx_count += 1;
        let path = self.workload.path_for(self.index, self.clients, tx);
        let session = match path {
            Path::Full => None,
            Path::Id => self.id_session.clone(),
            Path::Ticket => self.ticket_session.clone(),
        };
        // A client that does not hold its session yet handshakes in full
        // once (during warm-up) to get one.
        let expect_resumed = session.is_some();
        let mut rng = SslRng::from_seed(
            format!("sslperf-benchmark-client-{}-{}-{tx}", self.seed, self.index).as_bytes(),
        );
        std::thread::sleep(Duration::from_micros(rng.below(THINK_MAX_US)));
        let machine = self.workload.client_machine(session, path == Path::Ticket, rng);

        self.rec.set_tx(((self.index as u32) << 24) | (tx as u32 & 0x00ff_ffff));
        let started = Instant::now();
        let span = self.rec.enter("tx");
        let mut engine = None;
        let result = self.drive(machine, started, &mut engine);
        self.rec.exit(span);
        let end = Instant::now();
        let total_ns = (end - started).as_nanos() as u64;

        let (mut ok, mut error) = (result.is_ok(), result.as_ref().err().cloned());
        let (hs_ns, turnaround_ns) = result.unwrap_or((0, 0));
        let mut resumed = false;
        if let Some(ClientMachine::V3(client)) = engine.as_ref().map(Engine::machine) {
            resumed = client.resumed();
            if ok && resumed != expect_resumed {
                ok = false;
                error = Some(format!("resumed = {resumed}, expected {expect_resumed}"));
            }
            // Keep the session the server will recognise next time: the
            // first one, or a fresh one after an unexpected full handshake.
            if client.is_established() && !client.resumed() {
                match path {
                    Path::Id => self.id_session = client.session(),
                    Path::Ticket => self.ticket_session = client.session(),
                    Path::Full => {}
                }
            }
        }
        TxSample { ok, path, resumed, hs_ns, total_ns, turnaround_ns, end, error }
    }

    /// The transaction proper; leaves the engine behind for the caller to
    /// read the resumed flag and the session from.
    fn drive(
        &mut self,
        machine: ClientMachine,
        started: Instant,
        engine_out: &mut Option<Engine<ClientMachine>>,
    ) -> TxResult {
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        let rec = &mut self.rec;

        let handshake = rec.enter("handshake");
        let mut stream = rec
            .span("net.connect", || TcpStream::connect(self.addr))
            .map_err(|e| io("connect", e))?;
        // Without this, Nagle + delayed ACK stall the small back-to-back
        // writes of a resumed handshake by ~40 ms.
        stream.set_nodelay(true).map_err(|e| io("nodelay", e))?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| io("timeout", e))?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| io("timeout", e))?;

        let engine =
            rec.span("client.start", || Engine::new(machine)).map_err(|e| e.to_string())?;
        let engine = engine_out.insert(engine);
        flush(engine, &mut stream, rec)?;
        let hello_written = Instant::now();
        let mut turnaround_ns = 0;
        while !engine.is_established() {
            let n = read_some(&mut stream, &mut self.scratch, rec)?;
            if turnaround_ns == 0 {
                turnaround_ns = hello_written.elapsed().as_nanos() as u64;
            }
            let mut fed = 0;
            while fed < n {
                let took = rec
                    .span("client.feed", || engine.feed(&self.scratch[fed..n]))
                    .map_err(|e| e.to_string())?;
                if took == 0 {
                    return Err("engine refused handshake bytes".into());
                }
                fed += took;
            }
            flush(engine, &mut stream, rec)?;
        }
        let hs_ns = started.elapsed().as_nanos() as u64;
        rec.exit(handshake);

        let request = rec.enter("request");
        rec.span("client.seal", || engine.seal(&self.request)).map_err(|e| e.to_string())?;
        flush(engine, &mut stream, rec)?;
        let mut check = ResponseCheck::new(self.expected);
        while !check.complete() {
            let n = read_some(&mut stream, &mut self.scratch, rec)?;
            let mut fed = 0;
            while fed < n {
                let took = rec
                    .span("client.feed", || engine.feed(&self.scratch[fed..n]))
                    .map_err(|e| e.to_string())?;
                fed += took;
                let mut opened = 0;
                while let Some(range) =
                    rec.span("client.open", || engine.open_next()).map_err(|e| e.to_string())?
                {
                    opened += 1;
                    rec.span("verify", || check.push(&engine.buffered()[range]));
                }
                if took == 0 && opened == 0 {
                    return Err("record backlog".into());
                }
            }
        }
        rec.exit(request);
        if !check.ok() {
            return Err("response differs from synthesize_document".into());
        }

        let close = rec.enter("close");
        rec.span("client.close", || engine.queue_close_notify()).map_err(|e| e.to_string())?;
        flush(engine, &mut stream, rec)?;
        rec.span("net.close", || drop(stream));
        rec.exit(close);
        Ok((hs_ns, turnaround_ns))
    }
}

/// Writes everything the engine has queued.
fn flush(
    engine: &mut Engine<ClientMachine>,
    stream: &mut TcpStream,
    rec: &mut Recorder,
) -> Result<(), String> {
    if engine.wants_write() {
        rec.span("net.write", || stream.write_all(engine.output()))
            .map_err(|e| format!("write: {e}"))?;
        let n = engine.pending_output();
        engine.consume_output(n);
    }
    Ok(())
}

/// Blocks for the next bytes from the server.
fn read_some(
    stream: &mut TcpStream,
    scratch: &mut [u8],
    rec: &mut Recorder,
) -> Result<usize, String> {
    match rec.span("net.read", || stream.read(scratch)) {
        Ok(0) => Err("server closed before the transaction ended".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("read: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_core::websim::http::HttpResponse;

    #[test]
    fn response_check_accepts_the_exact_document_in_any_chunking() {
        let body: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let wire = HttpResponse::ok(body.clone()).to_bytes();
        for chunk in [1, 7, 100, wire.len()] {
            let mut check = ResponseCheck::new(&body);
            for piece in wire.chunks(chunk) {
                assert!(!check.complete());
                check.push(piece);
            }
            assert!(check.complete() && check.ok(), "chunk {chunk}");
        }
    }

    #[test]
    fn response_check_rejects_wrong_bytes_length_and_status() {
        let body = vec![7u8; 300];
        let mut flipped = body.clone();
        flipped[299] ^= 1;
        let mut check = ResponseCheck::new(&body);
        check.push(&HttpResponse::ok(flipped).to_bytes());
        assert!(check.complete() && !check.ok());

        let mut check = ResponseCheck::new(&body);
        check.push(&HttpResponse::ok(vec![7u8; 299]).to_bytes());
        assert!(check.complete() && !check.ok());

        let mut check = ResponseCheck::new(b"not found");
        check.push(&HttpResponse::not_found().to_bytes());
        assert!(check.complete() && !check.ok());
    }
}
