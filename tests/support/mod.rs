//! Engine drivers shared by the integration tests: the whole-flight
//! reference driver (`drain` + `feed_all`, two engines in one thread, as
//! `ssltest` runs them), blocking socket helpers (a sans-io [`Engine`]
//! driven over a `std::io` stream with `read_from`/`write_to`) and the
//! socket suites' poll for server-side counters (`eventually`).

// Each test binary uses its own subset.
#![allow(dead_code)]

use sslperf::ssl::{ClientEngine, Engine, EngineDriven, SslClient, SslError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

/// Server-side counters update after the server finishes its half of the
/// exchange, which the client does not wait for; poll briefly.
pub fn eventually(mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..200 {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A stream that keeps a copy of every byte read from it.
pub struct Tapped<S> {
    pub inner: S,
    pub rx: Vec<u8>,
}

impl<S: Read> Read for Tapped<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.rx.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl<S: Write> Write for Tapped<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Takes everything the engine wants to write, as one flight.
pub fn drain<M: EngineDriven>(engine: &mut Engine<M>) -> Vec<u8> {
    let out = engine.output().to_vec();
    engine.consume_output(out.len());
    out
}

/// Feeds a whole flight, asserting the engine takes every byte of it.
pub fn feed_all<M: EngineDriven>(engine: &mut Engine<M>, flight: &[u8]) {
    let mut off = 0;
    while off < flight.len() {
        let n = engine.feed(&flight[off..]).expect("feed");
        assert!(n > 0, "engine refused bytes mid-flight");
        off += n;
    }
}

/// One handshake's four flights, each passed whole to the peer: the client
/// hello, the server's reply, the client's reply and the server's finish
/// (empty on a resumed handshake).
pub fn flights<A: EngineDriven, B: EngineDriven>(
    client: &mut Engine<A>,
    server: &mut Engine<B>,
) -> [Vec<u8>; 4] {
    let f1 = drain(client);
    feed_all(server, &f1);
    let f2 = drain(server);
    feed_all(client, &f2);
    let f3 = drain(client);
    feed_all(server, &f3);
    let f4 = drain(server);
    feed_all(client, &f4);
    [f1, f2, f3, f4]
}

/// Pumps two engines in one thread until both are established.
pub fn establish<A: EngineDriven, B: EngineDriven>(client: &mut Engine<A>, server: &mut Engine<B>) {
    while !(client.is_established() && server.is_established()) {
        let up = drain(client);
        feed_all(server, &up);
        let down = drain(server);
        feed_all(client, &down);
        assert!(!(up.is_empty() && down.is_empty()), "handshake stalled");
    }
}

/// Reads once into `engine`; end of stream is an error.
fn read_more<M: EngineDriven>(
    engine: &mut Engine<M>,
    stream: &mut impl Read,
) -> Result<(), SslError> {
    match engine.read_from(stream)? {
        0 => Err(SslError::Io("end of stream".into())),
        _ => Ok(()),
    }
}

/// Drives `engine` until its handshake is complete and its last flight
/// written.
pub fn handshake<M: EngineDriven>(
    engine: &mut Engine<M>,
    stream: &mut (impl Read + Write),
) -> Result<(), SslError> {
    loop {
        engine.write_to(stream)?;
        if engine.is_established() {
            return Ok(());
        }
        read_more(engine, stream)?;
    }
}

/// Connects to `addr` and completes `client`'s handshake.
pub fn connect(addr: SocketAddr, client: SslClient) -> (ClientEngine, TcpStream) {
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket.set_nodelay(true).expect("nodelay");
    let mut engine = Engine::new(client).expect("client engine");
    handshake(&mut engine, &mut socket).expect("handshake");
    (engine, socket)
}

/// Seals `data` as application records and writes them.
pub fn send(engine: &mut ClientEngine, socket: &mut TcpStream, data: &[u8]) {
    engine.seal(data).expect("seal");
    engine.write_to(socket).expect("send");
}

/// Opens the next application record, reading as needed. The range indexes
/// `engine.buffered()`.
pub fn recv(engine: &mut ClientEngine, socket: &mut TcpStream) -> Result<Range<usize>, SslError> {
    loop {
        if let Some(range) = engine.open_next()? {
            return Ok(range);
        }
        read_more(engine, socket)?;
    }
}

/// Ends the session with `close_notify`.
pub fn close(engine: &mut ClientEngine, socket: &mut TcpStream) {
    engine.queue_close_notify().expect("close_notify");
    engine.write_to(socket).expect("close");
}
