//! One connection's handshake anatomy: the recorder both server machines
//! embed, and the [`HandshakeLedger`] it exports.

use crate::engine::{CryptoDone, CryptoOutput};
use crate::machine::Protocol;
use crate::server::SERVER_STEP_NAMES;
use crate::tls13::TLS13_STEP_NAMES;
use sslperf_profile::{Cycles, PhaseSet};
use sslperf_rsa::RsaError;
use std::sync::OnceLock;
use std::time::Instant;

/// One connection's handshake anatomy, exported after establishment.
///
/// This is the per-connection row behind the paper's Tables 2 and 3: step
/// latencies in paper order, the handshake's total and crypto cycles, and
/// the two halves of the key-exchange step (queue wait vs. the private
/// operation itself). Steps and crypto count processing only: the queue
/// wait is kept beside them, in `kx_queue_wait`.
///
/// The steps partition the machine's processing. The engine reads one
/// clock when it starts each server-machine call (before it opens the
/// record the call consumes) and when the call returns; every interval
/// between two reads belongs to the step active during it, and the
/// key-exchange job, which runs between calls, adds its execution to the
/// key-exchange step. So `total == in_call + kx_exec`, exactly, and each
/// step's crypto rows sum to no more than its latency. Calls made through
/// [`EngineDriven`](crate::EngineDriven) by hand, with no engine, run no
/// clock: they book crypto rows but no step time. Produced by
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
    /// Cycles between the first and the last clock read of every
    /// server-machine call (and of the SSLv3 machine's construction, step
    /// 0), summed: the time the steps partition.
    pub in_call: Cycles,
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

/// The bookkeeping behind a [`HandshakeLedger`]: a partition of the
/// machine's in-call time into steps, the crypto functions nested in them
/// (aggregated, and in call order), and the key-exchange job's split.
///
/// The engine starts the clock before each server-machine call, ahead of
/// the record open the call consumes, and stops it when the call returns.
/// Inside a call the machine only names the active step
/// ([`HandshakeRecorder::enter`]). Every interval between two clock reads
/// is booked to the step active during it, so the steps sum to the in-call
/// time by construction. The active step outlives the call: the step a
/// machine waits in is the one the next call's record open lands in.
/// Crypto rows attribute part of the active step to a function. The
/// key-exchange job runs between calls, so its execution is added to the
/// step that resumes it, as latency and as a row.
///
/// `pub` only because the engine's sealed `recorder` hook and
/// [`ServerMachine::Undecided`](crate::ServerMachine::Undecided) carry it;
/// the crate does not export it.
#[derive(Debug, Default)]
pub struct HandshakeRecorder {
    steps: [Cycles; 10],
    active: usize,
    /// The running call's first and last clock reads; `None` between
    /// calls.
    clock: Option<(Cycles, Cycles)>,
    in_call: Cycles,
    crypto: PhaseSet,
    crypto_detail: Vec<(usize, &'static str, Cycles)>,
    kx_queue_wait: Cycles,
    kx_exec: Cycles,
}

/// One clock read: cycles since a process-wide origin, so the intervals
/// between reads are integer differences that sum exactly.
fn now() -> Cycles {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    Cycles::from_duration(ORIGIN.get_or_init(Instant::now).elapsed())
}

impl HandshakeRecorder {
    /// Names the step this recorder waits in without reading the clock: a
    /// dispatching server learns the client hello's step only from the
    /// hello it has already opened, and that open, not booked yet, belongs
    /// there.
    pub(crate) fn waiting_in(mut self, step: usize) -> Self {
        self.active = step;
        self
    }

    /// Starts the clock for one machine call.
    pub(crate) fn start(&mut self) {
        let t = now();
        self.clock = Some((t, t));
    }

    /// Stops the clock: books the call's last interval, and the call as
    /// in-call time.
    pub(crate) fn stop(&mut self) {
        self.lap();
        if let Some((start, last)) = self.clock.take() {
            self.in_call += last - start;
        }
    }

    /// Makes `step` the active step; the interval since the last clock
    /// read goes to the step it replaces.
    pub(crate) fn enter(&mut self, step: usize) {
        self.lap();
        self.active = step;
    }

    /// Books the interval since the last clock read to the active step and
    /// returns it (zero, with no read, between calls).
    pub(crate) fn lap(&mut self) -> Cycles {
        let Some((start, last)) = self.clock else { return Cycles::ZERO };
        let t = now();
        self.clock = Some((start, t));
        self.steps[self.active] += t - last;
        t - last
    }

    /// Books `cycles` of the crypto function `name` in the active step.
    pub(crate) fn note(&mut self, name: &'static str, cycles: Cycles) {
        self.crypto.add(name, cycles);
        self.crypto_detail.push((self.active, name, cycles));
    }

    /// Runs `f` and books its time as the crypto function `name` in the
    /// active step.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now();
        let value = f();
        self.note(name, now() - start);
        value
    }

    /// Books the executed job in the active step: its queue wait beside
    /// the steps, its execution as latency and as the crypto function
    /// `exec_name`. Returns what it produced.
    pub(crate) fn resume_kx(
        &mut self,
        exec_name: &'static str,
        done: CryptoDone,
    ) -> Result<CryptoOutput, RsaError> {
        let (output, queue_wait, exec) = done.into_parts();
        self.kx_queue_wait = queue_wait;
        self.kx_exec = exec;
        self.steps[self.active] += exec;
        self.note(exec_name, exec);
        output
    }

    pub(crate) fn crypto(&self) -> &PhaseSet {
        &self.crypto
    }

    pub(crate) fn crypto_detail(&self) -> &[(usize, &'static str, Cycles)] {
        &self.crypto_detail
    }

    /// The ledger row, with every ticket flag clear (the SSLv3 machine
    /// sets its own).
    pub(crate) fn ledger(&self, protocol: Protocol, resumed: bool) -> HandshakeLedger {
        let names = match protocol {
            Protocol::Ssl3 => SERVER_STEP_NAMES,
            Protocol::Tls13 => TLS13_STEP_NAMES,
        };
        HandshakeLedger {
            protocol,
            resumed,
            steps: std::array::from_fn(|i| (names[i], self.steps[i])),
            total: self.steps.iter().copied().sum(),
            crypto: self.crypto.total(),
            in_call: self.in_call,
            kx_queue_wait: self.kx_queue_wait,
            kx_exec: self.kx_exec,
            ticket_issued: false,
            ticket_accepted: false,
            ticket_rejected: false,
            ticket_expired: false,
        }
    }
}
