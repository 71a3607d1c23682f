//! Blocking byte-stream transports carrying SSL records.
//!
//! The handshake state machines are flight-based and operate on
//! caller-owned buffers; [`Transport`] is the I/O seam underneath them.
//! [`SslServer::handshake_transport`](crate::SslServer::handshake_transport)
//! and [`SslClient::handshake_transport`](crate::SslClient::handshake_transport)
//! drive a full or resumed handshake over any implementation, so the
//! in-memory [`duplex_pair`] used by tests and the experiments and a real
//! [`std::net::TcpStream`] are interchangeable backends.
//!
//! Records cross a transport exactly as they appear on the wire: the
//! cleartext five-byte header (`type ‖ version ‖ length`) followed by the
//! possibly-encrypted body, which is what [`read_record_into`] reassembles.

use crate::{RecordBuffer, SslError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

/// Size of the cleartext record header: content type, two version bytes,
/// and the big-endian body length.
pub const RECORD_HEADER_LEN: usize = 5;

/// A blocking, ordered, reliable byte stream.
///
/// Implementations must deliver bytes in order and block until the
/// requested amount is available (or the peer is gone).
pub trait Transport {
    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] when the peer is unreachable.
    fn send(&mut self, buf: &[u8]) -> Result<(), SslError>;

    /// Fills the whole buffer, blocking until enough bytes arrive.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] on end-of-stream or transport failure.
    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<(), SslError>;
}

/// Reads one complete SSL record (header and body) into a reusable
/// [`RecordBuffer`], ready for `RecordLayer::open_in_place`.
///
/// The length prefix is validated against the SSLv3 maximum record body
/// ([`MAX_RECORD_BODY`](crate::MAX_RECORD_BODY), 2¹⁴ + 2048 bytes) *before*
/// any body bytes are read or buffered, so a hostile peer cannot force an
/// oversized read. Once the buffer is warmed to record capacity, this path
/// performs no heap allocation.
///
/// # Errors
///
/// Returns [`SslError::Io`] on stream errors and [`SslError::Decode`] when
/// the header announces an oversized body.
pub fn read_record_into<T: Transport + ?Sized>(
    transport: &mut T,
    buf: &mut RecordBuffer,
) -> Result<(), SslError> {
    let vec = buf.vec_mut();
    vec.clear();
    vec.resize(RECORD_HEADER_LEN, 0);
    transport.recv_exact(&mut vec[..])?;
    let body_len = usize::from(vec[3]) << 8 | usize::from(vec[4]);
    if body_len > crate::MAX_RECORD_BODY {
        return Err(SslError::Decode("record length"));
    }
    vec.resize(RECORD_HEADER_LEN + body_len, 0);
    transport.recv_exact(&mut vec[RECORD_HEADER_LEN..])?;
    Ok(())
}

/// Maps a socket error, marking read/write timeouts (`WouldBlock` on Unix,
/// `TimedOut` on Windows) so [`SslError::is_timeout`] can tell a stalled
/// peer from a dead one.
fn io_error(e: &std::io::Error) -> SslError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            SslError::Io(format!("timed out: {e}"))
        }
        _ => SslError::Io(e.to_string()),
    }
}

impl Transport for TcpStream {
    fn send(&mut self, buf: &[u8]) -> Result<(), SslError> {
        self.write_all(buf).and_then(|()| self.flush()).map_err(|e| io_error(&e))
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<(), SslError> {
        self.read_exact(buf).map_err(|e| io_error(&e))
    }
}

/// One direction of an in-memory duplex: a byte queue plus a closed flag.
#[derive(Debug, Default)]
struct HalfPipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    data: VecDeque<u8>,
    closed: bool,
}

impl HalfPipe {
    fn push(&self, buf: &[u8]) -> Result<(), SslError> {
        let mut state = self.state.lock().expect("pipe lock");
        if state.closed {
            return Err(SslError::Io("peer closed the duplex".into()));
        }
        state.data.extend(buf);
        self.readable.notify_all();
        Ok(())
    }

    fn pull_exact(&self, buf: &mut [u8]) -> Result<(), SslError> {
        let mut state = self.state.lock().expect("pipe lock");
        while state.data.len() < buf.len() {
            if state.closed {
                return Err(SslError::Io("end of stream on duplex".into()));
            }
            state = self.readable.wait(state).expect("pipe lock");
        }
        for slot in buf.iter_mut() {
            *slot = state.data.pop_front().expect("length checked");
        }
        Ok(())
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-memory, thread-safe duplex byte stream.
///
/// Created in connected pairs by [`duplex_pair`]. Dropping an end closes
/// its outgoing direction, so the peer's blocked reads fail with
/// [`SslError::Io`] instead of hanging.
#[derive(Debug)]
pub struct DuplexTransport {
    outgoing: Arc<HalfPipe>,
    incoming: Arc<HalfPipe>,
}

/// A connected pair of in-memory transports: bytes sent on one end arrive
/// on the other, in both directions.
#[must_use]
pub fn duplex_pair() -> (DuplexTransport, DuplexTransport) {
    let a_to_b = Arc::new(HalfPipe::default());
    let b_to_a = Arc::new(HalfPipe::default());
    (
        DuplexTransport { outgoing: Arc::clone(&a_to_b), incoming: Arc::clone(&b_to_a) },
        DuplexTransport { outgoing: b_to_a, incoming: a_to_b },
    )
}

impl Transport for DuplexTransport {
    fn send(&mut self, buf: &[u8]) -> Result<(), SslError> {
        self.outgoing.push(buf)
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<(), SslError> {
        self.incoming.pull_exact(buf)
    }
}

impl Drop for DuplexTransport {
    fn drop(&mut self) {
        // Close both directions: the peer's pending reads fail (no more
        // bytes will come) and its writes fail (no reader remains).
        self.outgoing.close();
        self.incoming.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_carries_bytes_both_ways() {
        let (mut a, mut b) = duplex_pair();
        a.send(b"ping").unwrap();
        b.send(b"pong!").unwrap();
        let mut buf = [0u8; 4];
        b.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        let mut buf = [0u8; 5];
        a.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong!");
    }

    #[test]
    fn recv_blocks_until_enough_bytes() {
        let (mut a, mut b) = duplex_pair();
        let writer = std::thread::spawn(move || {
            a.send(b"he").unwrap();
            a.send(b"llo").unwrap();
        });
        let mut buf = [0u8; 5];
        b.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        writer.join().unwrap();
    }

    #[test]
    fn dropped_peer_surfaces_as_io_error() {
        let (a, mut b) = duplex_pair();
        drop(a);
        let mut buf = [0u8; 1];
        assert!(matches!(b.recv_exact(&mut buf), Err(SslError::Io(_))));
        assert!(matches!(b.send(b"x"), Err(SslError::Io(_))));
    }

    #[test]
    fn read_record_reassembles_header_and_body() {
        let (mut a, mut b) = duplex_pair();
        // A fake 3-byte record: type 23, version 3.0, length 3.
        a.send(&[23, 3, 0, 0, 3]).unwrap();
        a.send(b"abc").unwrap();
        let mut record = RecordBuffer::new();
        read_record_into(&mut b, &mut record).unwrap();
        assert_eq!(record.as_slice(), [23, 3, 0, 0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn read_record_rejects_oversized_length() {
        let (mut a, mut b) = duplex_pair();
        a.send(&[23, 3, 0, 0xff, 0xff]).unwrap();
        let mut record = RecordBuffer::new();
        assert!(matches!(read_record_into(&mut b, &mut record), Err(SslError::Decode(_))));
    }

    #[test]
    fn read_record_enforces_ssl3_maximum_body() {
        use crate::MAX_RECORD_BODY;
        // Exactly the SSLv3 bound (2^14 + 2048) is accepted...
        let (mut a, mut b) = duplex_pair();
        let len = MAX_RECORD_BODY as u16;
        a.send(&[23, 3, 0, (len >> 8) as u8, len as u8]).unwrap();
        a.send(&vec![0u8; MAX_RECORD_BODY]).unwrap();
        let mut buf = RecordBuffer::new();
        read_record_into(&mut b, &mut buf).unwrap();
        assert_eq!(buf.len(), RECORD_HEADER_LEN + MAX_RECORD_BODY);

        // ...one byte more is rejected before any body byte is read.
        let (mut a, mut b) = duplex_pair();
        let len = (MAX_RECORD_BODY + 1) as u16;
        a.send(&[23, 3, 0, (len >> 8) as u8, len as u8]).unwrap();
        assert_eq!(read_record_into(&mut b, &mut buf), Err(SslError::Decode("record length")));
    }

    #[test]
    fn read_record_into_reuses_the_buffer() {
        let (mut a, mut b) = duplex_pair();
        let mut buf = RecordBuffer::new();
        a.send(&[23, 3, 0, 0, 3]).unwrap();
        a.send(b"abc").unwrap();
        read_record_into(&mut b, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), [23, 3, 0, 0, 3, b'a', b'b', b'c']);
        a.send(&[22, 3, 0, 0, 1]).unwrap();
        a.send(b"z").unwrap();
        read_record_into(&mut b, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), [22, 3, 0, 0, 1, b'z']);
    }
}
