//! Shared-nothing multi-instance serving.
//!
//! One machine-scale SSL deployment is not one server process: it is N
//! independent instances behind one address, each with its own session
//! cache, crypto pool, and stats. With id-based resumption that
//! topology breaks §4.1's optimization — a session cached by instance A
//! is a miss on instance B, and dies entirely when A restarts. With
//! encrypted session tickets ([`sslperf_ssl::TicketKeyring`]) the
//! instances share only the ticket keys: any instance can resume any
//! other instance's sessions, and a restart loses nothing. That contrast
//! is the restart-survival experiment this module exists to serve.
//!
//! The kernel-native way to fan one port across processes is
//! `SO_REUSEPORT`; setting socket options needs `setsockopt` and
//! therefore unsafe code, which this crate forbids. [`ServerFleet`]
//! substitutes an accept-fan thread: it owns the one bound listener and
//! round-robins accepted sockets over channels to the instances' shard
//! loops (the `Intake::Fed` path in the event-loop module). The
//! distribution point moves from kernel to userspace, but the serving
//! topology under study — N shared-nothing engines behind one address —
//! is the same.

use crate::eventloop::{EventLoopServer, Intake};
use crate::metrics::ServerStats;
use crate::server::ServerOptions;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::SslError;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept-fan thread sleeps when the backlog is empty.
const ACCEPT_IDLE: Duration = Duration::from_micros(500);

/// The routing table the accept-fan thread distributes sockets through:
/// one sender per instance slot, `None` while that instance is down.
type FeedTable = Arc<Mutex<Vec<Option<Sender<TcpStream>>>>>;

/// N independent [`EventLoopServer`] instances behind one listening
/// address, fed by an accept-fan thread.
///
/// Instances are shared-nothing: each has its own session cache and
/// stats registry. They share at most the ticket keyring passed in
/// [`ServerOptionsBuilder::ticket_keys`](crate::ServerOptionsBuilder::ticket_keys)
/// — which is exactly the point: ticket resumption needs no other shared
/// state. Individual instances can be [killed](ServerFleet::kill) and
/// [restarted](ServerFleet::restart) while the fleet keeps serving, and
/// [`ServerFleet::aggregated`] keeps counting a killed instance's traffic
/// toward the fleet totals.
#[derive(Debug)]
pub struct ServerFleet {
    addr: SocketAddr,
    key: RsaPrivateKey,
    name: String,
    options: ServerOptions,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    feeds: FeedTable,
    slots: Vec<Option<EventLoopServer>>,
    /// Stats handles of killed instances, so their traffic stays in the
    /// aggregate after the instance is gone.
    retired: Vec<Arc<ServerStats>>,
    /// Instances ever started (restarts included) — tags each instance's
    /// RNG seed stream so no two fleet instances, dead or alive, draw the
    /// same "random" session ids for their nth connections.
    spawned: u64,
}

impl ServerFleet {
    /// Binds one listener at `options.addr`, starts `instances`
    /// independent event-loop servers, and spawns the accept-fan thread
    /// distributing sockets round-robin among them.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Io`] when the bind fails and certificate
    /// errors from the server configuration.
    ///
    /// # Panics
    ///
    /// Panics when `instances` is zero.
    pub fn start(
        key: RsaPrivateKey,
        name: &str,
        instances: usize,
        options: &ServerOptions,
    ) -> Result<Self, SslError> {
        assert!(instances > 0, "at least one instance");
        let listener = TcpListener::bind(&options.addr).map_err(|e| SslError::Io(e.to_string()))?;
        listener.set_nonblocking(true).map_err(|e| SslError::Io(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| SslError::Io(e.to_string()))?;

        let mut fleet = ServerFleet {
            addr,
            key,
            name: name.to_string(),
            options: options.clone(),
            stop: Arc::new(AtomicBool::new(false)),
            acceptor: None,
            feeds: Arc::new(Mutex::new(vec![None; instances])),
            slots: std::iter::repeat_with(|| None).take(instances).collect(),
            retired: Vec::new(),
            spawned: 0,
        };
        for index in 0..instances {
            fleet.restart(index)?;
        }
        let feeds = Arc::clone(&fleet.feeds);
        let stop = Arc::clone(&fleet.stop);
        fleet.acceptor = Some(std::thread::spawn(move || accept_fan(&listener, &feeds, &stop)));
        Ok(fleet)
    }

    /// The one address clients connect to, whichever instance serves them.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Instance slots, live or not.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently holding a running instance.
    #[must_use]
    pub fn live_instances(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// The running instance in `index`'s slot, when it is up.
    #[must_use]
    pub fn instance(&self, index: usize) -> Option<&EventLoopServer> {
        self.slots.get(index)?.as_ref()
    }

    /// Kills one instance: unroutes it, closes its connections, joins its
    /// threads, and retires its stats into the aggregate. In-flight
    /// connections on that instance are dropped — that is the failure the
    /// restart-survival experiment injects on purpose. Returns false when
    /// the slot is already empty or out of range.
    pub fn kill(&mut self, index: usize) -> bool {
        let Some(server) = self.slots.get_mut(index).and_then(Option::take) else {
            return false;
        };
        if let Ok(mut feeds) = self.feeds.lock() {
            feeds[index] = None;
        }
        self.retired.push(server.stats_arc());
        server.shutdown();
        true
    }

    /// Starts a fresh instance in `index`'s slot and routes new
    /// connections to it. The instance starts empty: no session cache
    /// entries, zeroed stats — like a restarted process. A no-op when the
    /// slot is still occupied.
    ///
    /// # Errors
    ///
    /// Returns certificate errors from the server configuration.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn restart(&mut self, index: usize) -> Result<(), SslError> {
        assert!(index < self.slots.len(), "instance index in range");
        if self.slots[index].is_some() {
            return Ok(());
        }
        let (tx, rx) = mpsc::channel();
        self.spawned += 1;
        let server = EventLoopServer::start_with_intake(
            self.key.clone(),
            &self.name,
            &self.options,
            Intake::Fed(Arc::new(Mutex::new(rx))),
            self.addr,
            &format!("fleet-{}", self.spawned),
        )?;
        self.slots[index] = Some(server);
        if let Ok(mut feeds) = self.feeds.lock() {
            feeds[index] = Some(tx);
        }
        Ok(())
    }

    /// Sums serving counters across every instance the fleet ever ran —
    /// live slots plus retired (killed) ones.
    #[must_use]
    pub fn aggregated(&self) -> FleetSnapshot {
        let mut snap = FleetSnapshot {
            live_instances: self.live_instances(),
            retired_instances: self.retired.len(),
            ..FleetSnapshot::default()
        };
        let live = self.slots.iter().flatten().map(EventLoopServer::stats);
        let retired = self.retired.iter().map(Arc::as_ref);
        for stats in live.chain(retired) {
            snap.connections += stats.connections();
            snap.transactions += stats.transactions();
            snap.full_handshakes += stats.full_handshakes();
            snap.resumed_handshakes += stats.resumed_handshakes();
            snap.errors += stats.errors();
            snap.timeouts += stats.timeouts();
            snap.tickets_issued += stats.tickets_issued();
            snap.tickets_accepted += stats.tickets_accepted();
            snap.tickets_rejected += stats.tickets_rejected();
            snap.tickets_expired += stats.tickets_expired();
        }
        snap
    }

    /// Stops the accept-fan thread and every live instance.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for slot in &mut self.slots {
            if let Some(server) = slot.take() {
                server.shutdown();
            }
        }
    }
}

impl Drop for ServerFleet {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// The accept-fan loop: accept from the shared listener, hand each socket
/// to the next live instance round-robin. An instance whose channel is
/// gone is unrouted; with no live instance at all the socket is dropped
/// (the client sees a reset — the same outcome as connecting to a dead
/// process).
fn accept_fan(listener: &TcpListener, feeds: &FeedTable, stop: &AtomicBool) {
    let mut cursor = 0usize;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let Ok(mut feeds) = feeds.lock() else { return };
                let slots = feeds.len();
                // A refused send hands the socket back, so the loop holds it
                // by value until an instance takes it; one left over after
                // the last slot drops here.
                for step in 0..slots {
                    let slot = (cursor + step) % slots;
                    let Some(tx) = feeds[slot].as_ref() else { continue };
                    match tx.send(stream) {
                        Ok(()) => {
                            cursor = (slot + 1) % slots;
                            break;
                        }
                        Err(mpsc::SendError(returned)) => {
                            feeds[slot] = None;
                            stream = returned;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_IDLE),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_IDLE),
        }
    }
}

/// Fleet-wide serving counters, summed over live and retired instances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Slots holding a running instance at snapshot time.
    pub live_instances: usize,
    /// Instances killed since the fleet started.
    pub retired_instances: usize,
    /// Connections whose handshake completed.
    pub connections: u64,
    /// HTTP request/response exchanges served.
    pub transactions: u64,
    /// Handshakes that ran the full RSA key exchange.
    pub full_handshakes: u64,
    /// Handshakes resumed — from a ticket or an instance-local id cache.
    pub resumed_handshakes: u64,
    /// Connections dropped on protocol or transport errors.
    pub errors: u64,
    /// Connections evicted by the slowloris guard.
    pub timeouts: u64,
    /// NewSessionTickets issued on full handshakes.
    pub tickets_issued: u64,
    /// Handshakes resumed from a client-presented ticket.
    pub tickets_accepted: u64,
    /// Tickets rejected as tampered/unknown (silent full-handshake
    /// fallback).
    pub tickets_rejected: u64,
    /// Tickets rejected as expired (silent full-handshake fallback).
    pub tickets_expired: u64,
}

impl FleetSnapshot {
    /// Resumed handshakes as a share of completed connections, in
    /// percent — the restart-survival experiment's headline number.
    #[must_use]
    pub fn resumption_hit_rate(&self) -> f64 {
        if self.connections == 0 {
            0.0
        } else {
            self.resumed_handshakes as f64 / self.connections as f64 * 100.0
        }
    }
}
