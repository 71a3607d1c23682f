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
//! The instances share one listening socket, as the processes of a
//! pre-forked Apache share theirs: [`ServerFleet`] binds it once and every
//! shard of every instance accepts from it, so whichever shard reaches the
//! backlog first takes the connection. The listener belongs to the fleet,
//! not to an instance, so killing an instance closes only the connections
//! it had accepted; what waits in the backlog is served by the survivors,
//! or by the next instance to start when none is left.

use crate::eventloop::{bind, EventLoopServer};
use crate::metrics::{MetricsSnapshot, ServerStats};
use crate::server::ServerOptions;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::SslError;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// N independent [`EventLoopServer`] instances accepting from one
/// listening socket.
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
    listener: Arc<TcpListener>,
    addr: SocketAddr,
    key: RsaPrivateKey,
    name: String,
    options: ServerOptions,
    slots: Vec<Option<EventLoopServer>>,
    /// The merged final stats of every killed instance, so their traffic
    /// stays in the aggregate after the instances are gone.
    retired: MetricsSnapshot,
    /// Instances ever started (restarts included) — tags each instance's
    /// RNG seed stream so no two fleet instances, dead or alive, draw the
    /// same "random" session ids for their nth connections.
    spawned: usize,
}

impl ServerFleet {
    /// Binds one listener at `options.addr` and starts `instances`
    /// independent event-loop servers accepting from it.
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
        let listener = bind(options)?;
        let addr = listener.local_addr().map_err(|e| SslError::Io(e.to_string()))?;
        let mut fleet = ServerFleet {
            listener,
            addr,
            key,
            name: name.to_string(),
            options: options.clone(),
            slots: std::iter::repeat_with(|| None).take(instances).collect(),
            retired: ServerStats::default().snapshot(),
            spawned: 0,
        };
        for index in 0..instances {
            fleet.restart(index)?;
        }
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
        self.slots.iter().flatten().count()
    }

    /// Instances killed since the fleet started.
    #[must_use]
    pub fn retired_instances(&self) -> usize {
        self.spawned - self.live_instances()
    }

    /// The running instance in `index`'s slot, when it is up.
    #[must_use]
    pub fn instance(&self, index: usize) -> Option<&EventLoopServer> {
        self.slots.get(index)?.as_ref()
    }

    /// Kills one instance: takes it out of its slot, closes its
    /// connections, joins its threads, and folds its final stats into the
    /// retired total. In-flight connections on that instance are dropped —
    /// that is the failure the restart-survival experiment injects on
    /// purpose. Returns false when the slot is already empty or out of
    /// range.
    pub fn kill(&mut self, index: usize) -> bool {
        let Some(mut server) = self.slots.get_mut(index).and_then(Option::take) else {
            return false;
        };
        server.stop_threads();
        self.retired.merge(&server.stats().snapshot());
        true
    }

    /// Starts a fresh instance in `index`'s slot, accepting from the
    /// fleet's listener. The instance starts empty: no session cache
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
        let server = EventLoopServer::start_on(
            self.key.clone(),
            &self.name,
            &self.options,
            Arc::clone(&self.listener),
            &format!("fleet-{}", self.spawned + 1),
        )?;
        self.spawned += 1;
        self.slots[index] = Some(server);
        Ok(())
    }

    /// The stats of every instance the fleet ever ran — the retired total
    /// merged with each live instance's snapshot — as one
    /// [`MetricsSnapshot`], which renders the same tables as one server's.
    #[must_use]
    pub fn aggregated(&self) -> MetricsSnapshot {
        let mut total = self.retired.clone();
        for server in self.slots.iter().flatten() {
            total.merge(&server.stats().snapshot());
        }
        total
    }

    /// Stops every live instance; the listener closes with the fleet.
    pub fn shutdown(self) {}
}
