//! One connection's handshake anatomy: the recorder both server machines
//! embed, and the [`HandshakeLedger`] it exports.

use crate::engine::{CryptoDone, CryptoOutput};
use crate::machine::Protocol;
use crate::server::SERVER_STEP_NAMES;
use crate::tls13::TLS13_STEP_NAMES;
use sslperf_profile::{measure, Cycles, PhaseSet};
use sslperf_rsa::RsaError;

/// One connection's handshake anatomy, exported after establishment.
///
/// This is the per-connection row behind the paper's Tables 2 and 3: step
/// latencies in paper order, the handshake's total and crypto cycles, and
/// the two halves of the key-exchange step (queue wait vs. the private
/// operation itself). Steps and crypto count processing only: the queue
/// wait is kept beside them, in `kx_queue_wait`. Produced by
/// [`SslServer::ledger`](crate::SslServer::ledger) and
/// [`Tls13ServerMachine::ledger`](crate::Tls13ServerMachine::ledger);
/// consumed by the serving layer's live metrics registry.
#[derive(Debug, Clone)]
pub struct HandshakeLedger {
    /// Which protocol machine produced this ledger — decides whose step
    /// names populate `steps` ([`SERVER_STEP_NAMES`] for SSLv3,
    /// [`TLS13_STEP_NAMES`] for TLS 1.3).
    pub protocol: Protocol,
    /// True when the handshake resumed a cached session (steps 5/6 carry
    /// no RSA work in that case).
    pub resumed: bool,
    /// `(step name, cycles)` for the protocol's ten steps, in wire order.
    pub steps: [(&'static str, Cycles); 10],
    /// Sum of all step latencies — the handshake's total cost.
    pub total: Cycles,
    /// Cycles spent inside crypto functions during the handshake
    /// (Table 3's "crypto" share).
    pub crypto: Cycles,
    /// Key-exchange split: cycles the crypto job waited in the pool's
    /// queue (exactly zero when the engine ran it itself). The job is an
    /// RSA private decryption for SSLv3, a DHE exponentiation pair for
    /// TLS 1.3. Not part of `steps`, `total` or `crypto`: the connection
    /// was waiting, not processing.
    pub kx_queue_wait: Cycles,
    /// Key-exchange split: cycles executing the private operation itself
    /// (amortized across the batch when batched).
    pub kx_exec: Cycles,
    /// True when this full handshake issued a NewSessionTicket.
    pub ticket_issued: bool,
    /// True when the handshake resumed from a client-presented ticket.
    pub ticket_accepted: bool,
    /// True when a presented ticket was rejected as tampered or unknown
    /// (the handshake silently continued as full).
    pub ticket_rejected: bool,
    /// True when a presented ticket was rejected as expired (the handshake
    /// silently continued as full).
    pub ticket_expired: bool,
}

/// The bookkeeping behind a [`HandshakeLedger`]: per-step latency, the
/// crypto functions (aggregated, and in call order), and the key-exchange
/// step's split across its suspension.
#[derive(Debug)]
pub(crate) struct HandshakeRecorder {
    protocol: Protocol,
    steps: PhaseSet,
    crypto: PhaseSet,
    crypto_detail: Vec<(usize, &'static str, Cycles)>,
    /// The key-exchange step's processing before its suspension.
    kx_partial: Cycles,
    kx_queue_wait: Cycles,
    kx_exec: Cycles,
}

impl HandshakeRecorder {
    pub(crate) fn new(protocol: Protocol) -> Self {
        HandshakeRecorder {
            protocol,
            steps: PhaseSet::new(),
            crypto: PhaseSet::new(),
            crypto_detail: Vec::new(),
            kx_partial: Cycles::ZERO,
            kx_queue_wait: Cycles::ZERO,
            kx_exec: Cycles::ZERO,
        }
    }

    fn names(&self) -> &'static [&'static str; 10] {
        match self.protocol {
            Protocol::Ssl3 => &SERVER_STEP_NAMES,
            Protocol::Tls13 => &TLS13_STEP_NAMES,
        }
    }

    /// Books `cycles` of the crypto function `name` at `step`.
    pub(crate) fn note(&mut self, step: usize, name: &'static str, cycles: Cycles) {
        self.crypto.add(name, cycles);
        self.crypto_detail.push((step, name, cycles));
    }

    /// Runs `f` and books its time as the crypto function `name` at `step`.
    pub(crate) fn time<T>(&mut self, step: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, cycles) = measure(f);
        self.note(step, name, cycles);
        value
    }

    /// Books `cycles` of latency at `step`.
    pub(crate) fn step(&mut self, step: usize, cycles: Cycles) {
        self.steps.add(self.names()[step], cycles);
    }

    /// Holds the key-exchange step's processing up to the suspension.
    pub(crate) fn suspend_kx(&mut self, partial: Cycles) {
        self.kx_partial = partial;
    }

    /// Books the executed job at `step`: its queue wait beside the steps,
    /// its execution as the crypto function `exec_name`. Returns what it
    /// produced; [`HandshakeRecorder::end_kx`] closes the step.
    pub(crate) fn resume_kx(
        &mut self,
        step: usize,
        exec_name: &'static str,
        done: CryptoDone,
    ) -> Result<CryptoOutput, RsaError> {
        let (output, queue_wait, exec) = done.into_parts();
        self.kx_queue_wait = queue_wait;
        self.kx_exec = exec;
        self.note(step, exec_name, exec);
        output
    }

    /// Closes the key-exchange `step`: its processing before the
    /// suspension, the job's execution, and `tail` after the resume.
    pub(crate) fn end_kx(&mut self, step: usize, tail: Cycles) {
        self.step(step, self.kx_partial + self.kx_exec + tail);
    }

    pub(crate) fn steps(&self) -> &PhaseSet {
        &self.steps
    }

    pub(crate) fn crypto(&self) -> &PhaseSet {
        &self.crypto
    }

    pub(crate) fn crypto_detail(&self) -> &[(usize, &'static str, Cycles)] {
        &self.crypto_detail
    }

    /// The ledger row, with every ticket flag clear (the SSLv3 machine
    /// sets its own).
    pub(crate) fn ledger(&self, resumed: bool) -> HandshakeLedger {
        let names = self.names();
        HandshakeLedger {
            protocol: self.protocol,
            resumed,
            steps: std::array::from_fn(|i| (names[i], self.steps.cycles(names[i]))),
            total: self.steps.total(),
            crypto: self.crypto.total(),
            kx_queue_wait: self.kx_queue_wait,
            kx_exec: self.kx_exec,
            ticket_issued: false,
            ticket_accepted: false,
            ticket_rejected: false,
            ticket_expired: false,
        }
    }
}
