//! Blocking socket helpers shared by the integration tests: a sans-io
//! [`Engine`] driven over a `std::io` stream with `read_from`/`write_to`.

// Each test binary uses its own subset.
#![allow(dead_code)]

use sslperf::ssl::{ClientEngine, Engine, EngineDriven, SslClient, SslError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;

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

/// Pumps two engines in one thread until both are established.
pub fn establish<A: EngineDriven, B: EngineDriven>(client: &mut Engine<A>, server: &mut Engine<B>) {
    let mut wire = [0u8; 4096];
    while !(client.is_established() && server.is_established()) {
        let n = client.take_output(&mut wire);
        server.feed(&wire[..n]).expect("server feed");
        let n = server.take_output(&mut wire);
        client.feed(&wire[..n]).expect("client feed");
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
