//! The blocking reference server the serving experiments compare against.
//!
//! The paper's Apache/mod_ssl setup dedicates one blocking thread to each
//! in-flight connection. [`BlockingBaseline`] is that architecture and
//! nothing more — a listener, a fixed set of worker threads, and the
//! blocking [`SslServer`] transport calls — so `loaded_server` and
//! `crypto_offload` have a thread-per-connection arm to hold the
//! event-loop server ([`sslperf_net::EventLoopServer`]) against. It is an
//! experiment fixture, not a serving mode: no statistics, metrics, tickets,
//! timeouts or closing alerts beyond answering `close_notify`.

use sslperf_net::ShardedSessionCache;
use sslperf_rng::SslRng;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::{RecordBuffer, ServerConfig, SslError, SslServer};
use sslperf_websim::http::{synthesize_document, HttpRequest, HttpResponse};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A thread-per-connection SSL web server on loopback: `workers` threads
/// each accept a socket, run the blocking handshake and serve
/// `/doc_{size}.bin` requests until the client closes. Sessions land in a
/// [`ShardedSessionCache`], so reconnecting clients resume on any worker.
#[derive(Debug)]
pub struct BlockingBaseline {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<ShardedSessionCache>,
}

impl BlockingBaseline {
    /// Binds a free loopback port and spawns `workers` serving threads —
    /// which is also the most connections it can hold open at once.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] when the bind fails and certificate errors
    /// from [`ServerConfig::with_cache`].
    pub fn start(key: RsaPrivateKey, name: &str, workers: usize) -> Result<Self, SslError> {
        let cache = Arc::new(ShardedSessionCache::new(8, 1024));
        let config = Arc::new(ServerConfig::with_cache(key, name, Box::new(Arc::clone(&cache)))?);
        let io = |e: std::io::Error| SslError::Io(e.to_string());
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0").map_err(io)?);
        let addr = listener.local_addr().map_err(io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..workers)
            .map(|_| {
                let (listener, config, stop) =
                    (Arc::clone(&listener), Arc::clone(&config), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while let Ok((stream, _)) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        serve_connection(&config, stream);
                    }
                })
            })
            .collect();
        Ok(BlockingBaseline { addr, stop, workers, cache })
    }

    /// The bound address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session cache (its hit counter is the resumed-handshake count).
    #[must_use]
    pub fn session_cache(&self) -> &ShardedSessionCache {
        &self.cache
    }

    /// Stops accepting and joins every worker.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Every worker exits on the first connection it accepts after the
        // flag is set, so one throwaway connection each unblocks them all.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for BlockingBaseline {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Runs one connection to completion: handshake, then HTTP transactions
/// until `close_notify`, disconnect or any error.
fn serve_connection(config: &ServerConfig, mut stream: TcpStream) {
    static CONN_SEQ: AtomicU64 = AtomicU64::new(0);
    // Handshake flights are small back-to-back writes; Nagle + delayed ACK
    // would add ~40ms stalls to every resumed transaction.
    let _ = stream.set_nodelay(true);
    // Session ids come from this rng; the counter keeps them unique across
    // the process.
    let conn = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
    let rng = SslRng::from_seed(format!("sslperf-baseline-conn-{conn}").as_bytes());
    let mut server = SslServer::new(config, rng);
    if server.handshake_transport(&mut stream).is_err() {
        return;
    }
    let mut rx_buf = RecordBuffer::with_record_capacity();
    let mut tx_buf = RecordBuffer::with_record_capacity();
    loop {
        let range = match server.recv_buffered(&mut stream, &mut rx_buf) {
            Ok(range) => range,
            Err(SslError::PeerAlert(alert)) if alert.is_close_notify() => {
                let _ = server.close_transport(&mut stream);
                return;
            }
            Err(_) => return,
        };
        let Ok(request) = HttpRequest::parse(&rx_buf.as_slice()[range]) else { return };
        let size = request.path().strip_prefix("/doc_").and_then(|rest| rest.strip_suffix(".bin"));
        let response = match size.and_then(|digits| digits.parse().ok()) {
            Some(size) => HttpResponse::ok(synthesize_document(request.path(), size)),
            None => HttpResponse::not_found(),
        };
        if server.send_buffered(&mut stream, &response.to_bytes(), &mut tx_buf).is_err() {
            return;
        }
    }
}
