//! The server's one registry of serving facts.
//!
//! The paper's Tables 1–3 come from profiling an Apache/mod_ssl server
//! under load; [`ServerStats`] reproduces that anatomy *live* from real
//! sockets instead of post-hoc from a profiler. Every connection feeds its
//! per-step handshake ledger ([`HandshakeLedger`]) and per-record crypto
//! cycles into one shared registry built from the lock-cheap primitives in
//! `sslperf-metrics`: counters for totals, log-linear histograms for
//! latency quantiles (p50/p95/p99 without storing samples). Recording is a
//! handful of relaxed atomic adds — no locks, no allocation — so it is
//! always on, and the steady-state record path stays zero-copy *and*
//! zero-alloc.
//!
//! Each serving fact is recorded at exactly one site:
//!
//! - a handshake's outcome (full or resumed, ticket verdict, step
//!   latencies, crypto share): [`ServerStats::note_handshake`], once per
//!   established connection, from its ledger;
//! - a transaction: [`ServerStats::note_response`], once per *workload*
//!   response (a document or a 404). The `/metrics` exposition is
//!   observability, not a transaction;
//! - application records: [`ServerStats::note_record_open`] and
//!   [`ServerStats::note_record_seal`];
//! - a crypto-pool batch, and each of its jobs' queue wait and execution:
//!   the pool engine that ran it, once per batch;
//! - errors, timeouts, alerts, deadline deferrals and the pool's queue
//!   depth: where the event loop or the pool decides them.
//!
//! The getters read those records back — `connections` is the count of
//! the three end-to-end handshake histograms, `crypto_exec` the sum of the
//! per-job execution histogram — so no fact has a second copy to drift.
//!
//! [`ServerStats::snapshot`] freezes the registry into a
//! [`MetricsSnapshot`], whose [`render`](MetricsSnapshot::render) lays the
//! live data out in the paper's shapes: Table 2 (step latency shares of
//! the full handshake), Table 3 (crypto share of handshake processing),
//! and Table 1 (libcrypto/libssl/other split per transaction). The same
//! text is served over `GET /metrics` when
//! [`ServerOptionsBuilder::metrics`](crate::ServerOptionsBuilder::metrics)
//! is on — the exposition-endpoint pattern, minus any wire-format
//! commitments.

use sslperf_metrics::{Counter, Histogram, HistogramSnapshot};
use sslperf_profile::{Align, Cycles, Table};
use sslperf_ssl::{CryptoDone, HandshakeLedger, Protocol, SERVER_STEP_NAMES, TLS13_STEP_NAMES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything a running server records, shared across shards and crypto
/// engines. All recording methods take `&self` and are safe to call from
/// any thread.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Per-step SSLv3 handshake latency, full handshakes only (Table 2
    /// rows).
    steps: [Histogram; 10],
    /// Per-step TLS 1.3 handshake latency, keyed by [`TLS13_STEP_NAMES`].
    tls13_steps: [Histogram; 10],
    /// End-to-end SSLv3 handshake cycles, full key exchange.
    full_handshake: Histogram,
    /// End-to-end SSLv3 handshake cycles, session resumption.
    resumed_handshake: Histogram,
    /// End-to-end TLS 1.3 handshake cycles (always a full key exchange).
    tls13_full_handshake: Histogram,
    /// Crypto cycles summed over full SSLv3 handshakes (Table 3
    /// numerator).
    full_crypto_cycles: Counter,
    /// Crypto cycles summed over resumed handshakes.
    resumed_crypto_cycles: Counter,
    /// Crypto cycles summed over TLS 1.3 handshakes.
    tls13_crypto_cycles: Counter,
    /// Session-ticket outcomes (stateless resumption), per handshake.
    tickets_issued: Counter,
    tickets_accepted: Counter,
    tickets_rejected: Counter,
    tickets_expired: Counter,
    /// Application records decrypted / encrypted after the handshake.
    records_opened: Counter,
    records_sealed: Counter,
    /// Application payload bytes through the record layer.
    bytes_in: Counter,
    bytes_out: Counter,
    /// Cycles in the record layer's open / seal paths (libssl + libcrypto).
    open_cycles: Counter,
    seal_cycles: Counter,
    /// Cycles inside cipher + MAC kernels during open/seal (libcrypto only).
    record_crypto_cycles: Counter,
    /// Workload responses served: the transactions of Table 1.
    transactions: Counter,
    /// Cycles synthesizing those responses (the paper's "other").
    respond_cycles: Counter,
    pub(crate) errors: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) alerts_sent: Counter,
    /// Deadline expiries forgiven because the connection was waiting on
    /// the crypto pool, not on the client.
    pub(crate) crypto_deadline_deferrals: Counter,
    /// Jobs the crypto pool accepted, of every class.
    pub(crate) crypto_jobs: Counter,
    /// Bulk-cipher (record sealing) jobs the pool accepted.
    pub(crate) crypto_bulk_jobs: Counter,
    /// Jobs currently queued or executing. Incremented at enqueue inside
    /// the pool's submission lock, decremented when execution *completes*
    /// (not when an engine dequeues), so bursts absorbed into one batch
    /// stay fully visible to the max below.
    pub(crate) crypto_queue_depth: AtomicU64,
    pub(crate) crypto_queue_depth_max: AtomicU64,
    /// Cycles each executed pool job waited in the queue.
    crypto_queue_wait: Histogram,
    /// Cycles each executed pool job ran (RSA decrypt, DHE pair, bulk
    /// seal; amortized across its batch when batched).
    crypto_exec: Histogram,
    /// Jobs per executed crypto-pool batch (1 = solo execution).
    batch_size: Histogram,
    /// Cycles per job when executed solo (batch of one).
    exec_solo: Histogram,
    /// Amortized cycles per job inside batches of two or more, one entry
    /// per job.
    exec_amortized: Histogram,
}

impl ServerStats {
    /// Feeds one completed handshake's anatomy into the registry: the one
    /// place a handshake's outcome is counted.
    ///
    /// The ledger routes by protocol: SSLv3 full handshakes populate the
    /// Table 2 step histograms and the Table 3 crypto accumulators,
    /// resumed handshakes only record their end-to-end latency (their
    /// step mix is not the paper's Table 2), and TLS 1.3 handshakes feed
    /// their own step histograms so the two anatomies render side by
    /// side. The ledger's key-exchange queue wait and execution are not
    /// read here: the pool engine that ran the job records them.
    pub fn note_handshake(&self, ledger: &HandshakeLedger) {
        self.tickets_issued.add(u64::from(ledger.ticket_issued));
        self.tickets_accepted.add(u64::from(ledger.ticket_accepted));
        self.tickets_rejected.add(u64::from(ledger.ticket_rejected));
        self.tickets_expired.add(u64::from(ledger.ticket_expired));
        if ledger.resumed {
            self.resumed_handshake.record(ledger.total.get());
            self.resumed_crypto_cycles.add(ledger.crypto.get());
            return;
        }
        let (handshake, crypto, steps) = match ledger.protocol {
            Protocol::Ssl3 => (&self.full_handshake, &self.full_crypto_cycles, &self.steps),
            Protocol::Tls13 => {
                (&self.tls13_full_handshake, &self.tls13_crypto_cycles, &self.tls13_steps)
            }
        };
        handshake.record(ledger.total.get());
        crypto.add(ledger.crypto.get());
        for (hist, (_, cycles)) in steps.iter().zip(ledger.steps.iter()) {
            hist.record(cycles.get());
        }
    }

    /// Records one application record decrypted on the read path:
    /// `payload` plaintext bytes, `cycles` across the whole open, of which
    /// `crypto` were inside cipher + MAC kernels.
    pub fn note_record_open(&self, payload: usize, cycles: Cycles, crypto: Cycles) {
        self.records_opened.inc();
        self.bytes_in.add(payload as u64);
        self.open_cycles.add(cycles.get());
        self.record_crypto_cycles.add(crypto.get());
    }

    /// Records one response's sealing on the write path (same accounting
    /// as [`ServerStats::note_record_open`]).
    pub fn note_record_seal(&self, payload: usize, cycles: Cycles, crypto: Cycles) {
        self.records_sealed.inc();
        self.bytes_out.add(payload as u64);
        self.seal_cycles.add(cycles.get());
        self.record_crypto_cycles.add(crypto.get());
    }

    /// Records one transaction: a workload response, and the cycles spent
    /// synthesizing it (the paper's non-SSL "other" share).
    pub fn note_response(&self, cycles: Cycles) {
        self.transactions.inc();
        self.respond_cycles.add(cycles.get());
    }

    /// Records one executed crypto-pool batch: its size; each job's queue
    /// wait and execution; and the per-job execution cost into the solo
    /// histogram for a batch of one, into the amortized histogram
    /// (weighted by size, so quantiles are per-job) for real batches. The
    /// solo-vs-amortized split is the batch ablation's headline number.
    pub(crate) fn note_crypto_batch(&self, dones: &[CryptoDone]) {
        let Some(first) = dones.first() else { return };
        let size = dones.len() as u64;
        self.batch_size.record(size);
        if size == 1 {
            self.exec_solo.record(first.exec().get());
        } else {
            self.exec_amortized.record_n(first.exec().get(), size);
        }
        for done in dones {
            self.crypto_queue_wait.record(done.queue_wait().get());
            self.crypto_exec.record(done.exec().get());
        }
    }

    /// Connections whose handshake completed.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.full_handshakes() + self.resumed_handshakes()
    }

    /// Workload request/response exchanges served: documents and 404s,
    /// not the `/metrics` exposition.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.transactions.get()
    }

    /// Handshakes that ran a full key exchange, either protocol.
    #[must_use]
    pub fn full_handshakes(&self) -> u64 {
        self.full_handshake.count() + self.tls13_full_handshake.count()
    }

    /// Handshakes resumed from the session cache or a ticket.
    #[must_use]
    pub fn resumed_handshakes(&self) -> u64 {
        self.resumed_handshake.count()
    }

    /// Connections dropped on protocol or transport errors.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Connections evicted after stalling past the I/O timeout (the
    /// slowloris guard; not double-counted in [`ServerStats::errors`]).
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.get()
    }

    /// Alert records sent before closing, including orderly `close_notify`
    /// replies — every error path says goodbye on the wire.
    #[must_use]
    pub fn alerts_sent(&self) -> u64 {
        self.alerts_sent.get()
    }

    /// Jobs the crypto pool accepted — RSA decryptions, DHE agreements and
    /// bulk seals alike (0 in inline modes).
    #[must_use]
    pub fn crypto_jobs(&self) -> u64 {
        self.crypto_jobs.get()
    }

    /// Jobs currently queued or executing in the crypto pool (transient;
    /// settles to 0 when the pool is idle).
    #[must_use]
    pub fn crypto_queue_depth(&self) -> u64 {
        self.crypto_queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of in-flight crypto jobs (queued + executing),
    /// sampled at enqueue inside the submission lock — how deep the
    /// parallel-engine backlog ever got, burst-accurate even when a batch
    /// collector absorbs the whole burst at once.
    #[must_use]
    pub fn crypto_queue_depth_max(&self) -> u64 {
        self.crypto_queue_depth_max.load(Ordering::Relaxed)
    }

    /// Total cycles jobs spent waiting in the crypto queue before a
    /// worker picked them up.
    #[must_use]
    pub fn crypto_queue_wait(&self) -> Cycles {
        Cycles::new(self.crypto_queue_wait.sum())
    }

    /// Total cycles workers spent executing jobs of every class (RSA
    /// decryption, DHE agreement, bulk seal).
    #[must_use]
    pub fn crypto_exec(&self) -> Cycles {
        Cycles::new(self.crypto_exec.sum())
    }

    /// Event-loop deadline expiries that were *deferred* rather than
    /// evicted because the connection's key-exchange job was queued or
    /// executing — crypto-pool wait is the server's latency, not the
    /// client's, so it must not trip the slowloris guard. A nonzero value
    /// under load means the pool is saturated enough that queue wait
    /// exceeds the
    /// [`io_timeout`](crate::ServerOptionsBuilder::io_timeout).
    #[must_use]
    pub fn crypto_deadline_deferrals(&self) -> u64 {
        self.crypto_deadline_deferrals.get()
    }

    /// Batches the crypto pool executed — one per collector drain, whether
    /// it gathered one job or `batch_max`.
    #[must_use]
    pub fn crypto_batches(&self) -> u64 {
        self.batch_size.count()
    }

    /// Jobs that ran inside a real batch (two or more combined). Solo
    /// executions are `crypto_jobs - crypto_batched_jobs`.
    #[must_use]
    pub fn crypto_batched_jobs(&self) -> u64 {
        self.exec_amortized.count()
    }

    /// NewSessionTickets issued on full handshakes (0 without a keyring).
    #[must_use]
    pub fn tickets_issued(&self) -> u64 {
        self.tickets_issued.get()
    }

    /// Handshakes resumed from a client-presented ticket.
    #[must_use]
    pub fn tickets_accepted(&self) -> u64 {
        self.tickets_accepted.get()
    }

    /// Tickets rejected as tampered or sealed under an unknown key; each
    /// fell back silently to a full handshake.
    #[must_use]
    pub fn tickets_rejected(&self) -> u64 {
        self.tickets_rejected.get()
    }

    /// Tickets rejected as expired; each fell back silently to a full
    /// handshake.
    #[must_use]
    pub fn tickets_expired(&self) -> u64 {
        self.tickets_expired.get()
    }

    /// Bulk-cipher (record sealing) jobs the pool accepted; every engine
    /// runs them. Also counted in [`ServerStats::crypto_jobs`].
    #[must_use]
    pub fn crypto_bulk_jobs(&self) -> u64 {
        self.crypto_bulk_jobs.get()
    }

    /// Freezes the registry into an owned, renderable snapshot.
    ///
    /// Counters are read individually with relaxed ordering, so a snapshot
    /// taken while traffic is in flight is approximate at record
    /// granularity — fine for an exposition endpoint.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            steps: std::array::from_fn(|i| StepSnapshot {
                name: SERVER_STEP_NAMES[i],
                latency: self.steps[i].snapshot(),
            }),
            tls13_steps: std::array::from_fn(|i| StepSnapshot {
                name: TLS13_STEP_NAMES[i],
                latency: self.tls13_steps[i].snapshot(),
            }),
            kx_queue_wait: self.crypto_queue_wait.snapshot(),
            kx_exec: self.crypto_exec.snapshot(),
            full_handshake: self.full_handshake.snapshot(),
            resumed_handshake: self.resumed_handshake.snapshot(),
            tls13_full_handshake: self.tls13_full_handshake.snapshot(),
            full_crypto_cycles: self.full_crypto_cycles.get(),
            resumed_crypto_cycles: self.resumed_crypto_cycles.get(),
            tls13_crypto_cycles: self.tls13_crypto_cycles.get(),
            records_opened: self.records_opened.get(),
            records_sealed: self.records_sealed.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            open_cycles: self.open_cycles.get(),
            seal_cycles: self.seal_cycles.get(),
            record_crypto_cycles: self.record_crypto_cycles.get(),
            respond_cycles: self.respond_cycles.get(),
            transactions: self.transactions.get(),
            batch_size: self.batch_size.snapshot(),
            exec_solo: self.exec_solo.snapshot(),
            exec_amortized: self.exec_amortized.snapshot(),
            tickets_issued: self.tickets_issued.get(),
            tickets_accepted: self.tickets_accepted.get(),
            tickets_rejected: self.tickets_rejected.get(),
            tickets_expired: self.tickets_expired.get(),
            errors: self.errors.get(),
            timeouts: self.timeouts.get(),
        }
    }
}

/// One handshake step's frozen latency distribution.
#[derive(Debug, Clone)]
pub struct StepSnapshot {
    /// The step's name, from [`SERVER_STEP_NAMES`] or
    /// [`TLS13_STEP_NAMES`] depending on which anatomy it belongs to.
    pub name: &'static str,
    /// Cycle latency distribution across full handshakes.
    pub latency: HistogramSnapshot,
}

/// A point-in-time copy of a [`ServerStats`] registry.
///
/// All fields are plain owned data; [`MetricsSnapshot::render`] lays them
/// out in the paper's table shapes.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-step SSLv3 latency across full handshakes, in paper order
    /// (Table 2).
    pub steps: [StepSnapshot; 10],
    /// Per-step TLS 1.3 latency across handshakes, in wire order.
    pub tls13_steps: [StepSnapshot; 10],
    /// Crypto-pool queue wait per executed job, both protocols (empty when
    /// running inline). Kept out of the step and crypto totals: it is
    /// waiting, not processing.
    pub kx_queue_wait: HistogramSnapshot,
    /// Crypto-pool execution time per job: the private operation (RSA
    /// decrypt or DHE exponentiation pair), amortized across its batch.
    pub kx_exec: HistogramSnapshot,
    /// End-to-end full SSLv3-handshake latency.
    pub full_handshake: HistogramSnapshot,
    /// End-to-end resumed-handshake latency.
    pub resumed_handshake: HistogramSnapshot,
    /// End-to-end TLS 1.3 handshake latency.
    pub tls13_full_handshake: HistogramSnapshot,
    /// Crypto cycles summed over full SSLv3 handshakes (Table 3
    /// numerator).
    pub full_crypto_cycles: u64,
    /// Crypto cycles summed over resumed handshakes.
    pub resumed_crypto_cycles: u64,
    /// Crypto cycles summed over TLS 1.3 handshakes.
    pub tls13_crypto_cycles: u64,
    /// Application records decrypted after the handshake.
    pub records_opened: u64,
    /// Application records sealed after the handshake.
    pub records_sealed: u64,
    /// Plaintext bytes received through the record layer.
    pub bytes_in: u64,
    /// Plaintext bytes sent through the record layer.
    pub bytes_out: u64,
    /// Total cycles in the record-open path.
    pub open_cycles: u64,
    /// Total cycles in the record-seal path.
    pub seal_cycles: u64,
    /// Cycles inside cipher + MAC kernels during open/seal.
    pub record_crypto_cycles: u64,
    /// Cycles synthesizing HTTP responses.
    pub respond_cycles: u64,
    /// HTTP transactions measured.
    pub transactions: u64,
    /// Jobs per executed crypto-pool batch (1 = solo).
    pub batch_size: HistogramSnapshot,
    /// Cycles per RSA decrypt executed solo.
    pub exec_solo: HistogramSnapshot,
    /// Amortized cycles per RSA decrypt inside real batches.
    pub exec_amortized: HistogramSnapshot,
    /// Session tickets sealed and sent with NewSessionTicket.
    pub tickets_issued: u64,
    /// Session tickets opened successfully (stateless resumptions).
    pub tickets_accepted: u64,
    /// Tickets rejected as tampered/undecodable (silent full handshake).
    pub tickets_rejected: u64,
    /// Tickets rejected as expired (silent full handshake).
    pub tickets_expired: u64,
    /// Connections dropped on protocol or transport errors.
    pub errors: u64,
    /// Connections evicted after stalling past the I/O timeout.
    pub timeouts: u64,
}

impl MetricsSnapshot {
    /// Adds `other`'s records to this snapshot: counters add up and
    /// histograms merge bucket by bucket, so the merge of several servers'
    /// snapshots renders as one server that served all their traffic.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        // Destructured field by field, so a field added to the snapshot
        // does not compile until it is merged here too.
        let MetricsSnapshot {
            steps,
            tls13_steps,
            kx_queue_wait,
            kx_exec,
            full_handshake,
            resumed_handshake,
            tls13_full_handshake,
            full_crypto_cycles,
            resumed_crypto_cycles,
            tls13_crypto_cycles,
            records_opened,
            records_sealed,
            bytes_in,
            bytes_out,
            open_cycles,
            seal_cycles,
            record_crypto_cycles,
            respond_cycles,
            transactions,
            batch_size,
            exec_solo,
            exec_amortized,
            tickets_issued,
            tickets_accepted,
            tickets_rejected,
            tickets_expired,
            errors,
            timeouts,
        } = other;
        for (mine, theirs) in
            self.steps.iter_mut().chain(&mut self.tls13_steps).zip(steps.iter().chain(tls13_steps))
        {
            mine.latency.merge(&theirs.latency);
        }
        for (mine, theirs) in [
            (&mut self.kx_queue_wait, kx_queue_wait),
            (&mut self.kx_exec, kx_exec),
            (&mut self.full_handshake, full_handshake),
            (&mut self.resumed_handshake, resumed_handshake),
            (&mut self.tls13_full_handshake, tls13_full_handshake),
            (&mut self.batch_size, batch_size),
            (&mut self.exec_solo, exec_solo),
            (&mut self.exec_amortized, exec_amortized),
        ] {
            mine.merge(theirs);
        }
        for (mine, theirs) in [
            (&mut self.full_crypto_cycles, full_crypto_cycles),
            (&mut self.resumed_crypto_cycles, resumed_crypto_cycles),
            (&mut self.tls13_crypto_cycles, tls13_crypto_cycles),
            (&mut self.records_opened, records_opened),
            (&mut self.records_sealed, records_sealed),
            (&mut self.bytes_in, bytes_in),
            (&mut self.bytes_out, bytes_out),
            (&mut self.open_cycles, open_cycles),
            (&mut self.seal_cycles, seal_cycles),
            (&mut self.record_crypto_cycles, record_crypto_cycles),
            (&mut self.respond_cycles, respond_cycles),
            (&mut self.transactions, transactions),
            (&mut self.tickets_issued, tickets_issued),
            (&mut self.tickets_accepted, tickets_accepted),
            (&mut self.tickets_rejected, tickets_rejected),
            (&mut self.tickets_expired, tickets_expired),
            (&mut self.errors, errors),
            (&mut self.timeouts, timeouts),
        ] {
            *mine += theirs;
        }
    }

    /// Connections whose handshake completed, as
    /// [`ServerStats::connections`] counts them.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.full_handshakes() + self.resumed_handshakes()
    }

    /// Handshakes that ran a full key exchange, either protocol.
    #[must_use]
    pub fn full_handshakes(&self) -> u64 {
        self.full_handshake.count() + self.tls13_full_handshake.count()
    }

    /// Handshakes resumed from the session cache or a ticket.
    #[must_use]
    pub fn resumed_handshakes(&self) -> u64 {
        self.resumed_handshake.count()
    }

    /// Crypto's share of full-handshake processing, in percent — the live
    /// Table 3 number (the paper reports ~91% at 1024-bit keys).
    #[must_use]
    pub fn handshake_crypto_percent(&self) -> f64 {
        percent(self.full_crypto_cycles, self.full_handshake.sum())
    }

    /// One step's share of full-handshake cycles, in percent (a Table 2
    /// cell). Unknown step names return 0.
    #[must_use]
    pub fn step_percent(&self, name: &str) -> f64 {
        let total = self.full_handshake.sum();
        self.steps.iter().find(|s| s.name == name).map_or(0.0, |s| percent(s.latency.sum(), total))
    }

    /// Crypto's share of TLS 1.3 handshake processing, in percent — the
    /// side-by-side counterpart to [`handshake_crypto_percent`].
    ///
    /// [`handshake_crypto_percent`]: MetricsSnapshot::handshake_crypto_percent
    #[must_use]
    pub fn tls13_crypto_percent(&self) -> f64 {
        percent(self.tls13_crypto_cycles, self.tls13_full_handshake.sum())
    }

    /// One TLS 1.3 step's share of its handshake cycles, in percent.
    /// Unknown step names return 0.
    #[must_use]
    pub fn tls13_step_percent(&self, name: &str) -> f64 {
        let total = self.tls13_full_handshake.sum();
        self.tls13_steps
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| percent(s.latency.sum(), total))
    }

    /// Cycles per transaction attributed to libcrypto (cipher, hash, RSA
    /// and DHE kernels): the amortized handshake crypto plus bulk record
    /// crypto, across both protocols.
    #[must_use]
    pub fn libcrypto_cycles_per_transaction(&self) -> u64 {
        let handshake =
            self.full_crypto_cycles + self.resumed_crypto_cycles + self.tls13_crypto_cycles;
        per(handshake + self.record_crypto_cycles, self.transactions)
    }

    /// Cycles per transaction attributed to libssl (protocol framing, MAC
    /// scheduling, state machines): handshake and record-path cycles that
    /// were *not* inside crypto kernels.
    #[must_use]
    pub fn libssl_cycles_per_transaction(&self) -> u64 {
        let handshake = (self.full_handshake.sum()
            + self.resumed_handshake.sum()
            + self.tls13_full_handshake.sum())
        .saturating_sub(
            self.full_crypto_cycles + self.resumed_crypto_cycles + self.tls13_crypto_cycles,
        );
        let records =
            (self.open_cycles + self.seal_cycles).saturating_sub(self.record_crypto_cycles);
        per(handshake + records, self.transactions)
    }

    /// Cycles per transaction outside SSL entirely (the HTTP layer).
    #[must_use]
    pub fn other_cycles_per_transaction(&self) -> u64 {
        per(self.respond_cycles, self.transactions)
    }

    /// Renders the snapshot as the paper's three tables plus the serving
    /// quantiles — the text served on `GET /metrics`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();

        // Table 2: where full-handshake time goes, step by step.
        let mut steps = Table::new("Live Table 2: full-handshake step latencies");
        steps.columns(&[
            ("step", Align::Left),
            ("count", Align::Right),
            ("mean kc", Align::Right),
            ("p95 kc", Align::Right),
            ("share %", Align::Right),
        ]);
        for (i, step) in self.steps.iter().enumerate() {
            steps.row(&[
                format!("{}. {}", i + 1, step.name),
                step.latency.count().to_string(),
                kilo(step.latency.mean()),
                kilo(step.latency.p95()),
                format!("{:.1}", self.step_percent(step.name)),
            ]);
        }
        out.push_str(&steps.to_string());

        // The TLS 1.3 anatomy, side by side, when that machine served
        // traffic — same columns, its own step names, so the two
        // handshakes' cost structures line up row for row.
        if self.tls13_full_handshake.count() > 0 {
            let mut t13 = Table::new("Live anatomy: TLS 1.3 handshake step latencies");
            t13.columns(&[
                ("step", Align::Left),
                ("count", Align::Right),
                ("mean kc", Align::Right),
                ("p95 kc", Align::Right),
                ("share %", Align::Right),
            ]);
            for (i, step) in self.tls13_steps.iter().enumerate() {
                t13.row(&[
                    format!("{}. {}", i + 1, step.name),
                    step.latency.count().to_string(),
                    kilo(step.latency.mean()),
                    kilo(step.latency.p95()),
                    format!("{:.1}", self.tls13_step_percent(step.name)),
                ]);
            }
            out.push('\n');
            out.push_str(&t13.to_string());
        }

        // The key-exchange offload split, when the crypto pool was in
        // play: RSA decrypts (SSLv3 step 5) and DHE exponentiations
        // (TLS 1.3 step 3) share the pool, so the split is pooled. The
        // queue wait is the one row here that no table above counts. With
        // batching on, the amortization rows show what a job costs solo
        // versus amortized across a batch.
        if self.kx_queue_wait.count() > 0 || self.kx_exec.count() > 0 {
            let mut kx = Table::new("Key-exchange offload split and batch amortization");
            kx.columns(&[
                ("phase", Align::Left),
                ("count", Align::Right),
                ("mean kc", Align::Right),
                ("p95 kc", Align::Right),
            ]);
            for (name, h) in [
                ("kx_queue_wait", &self.kx_queue_wait),
                ("kx_exec", &self.kx_exec),
                ("exec_solo (per job)", &self.exec_solo),
                ("exec_amortized (per job)", &self.exec_amortized),
            ] {
                if name.starts_with("exec") && h.count() == 0 {
                    continue;
                }
                kx.row(&[name.to_string(), h.count().to_string(), kilo(h.mean()), kilo(h.p95())]);
            }
            out.push('\n');
            out.push_str(&kx.to_string());
        }

        // Table 3: crypto's share of handshake processing.
        let mut crypto = Table::new("Live Table 3: crypto share of handshake");
        crypto.columns(&[
            ("handshake", Align::Left),
            ("count", Align::Right),
            ("total kc", Align::Right),
            ("crypto kc", Align::Right),
            ("crypto %", Align::Right),
        ]);
        crypto.row(&[
            "full".to_string(),
            self.full_handshake.count().to_string(),
            kilo(self.full_handshake.sum()),
            kilo(self.full_crypto_cycles),
            format!("{:.1}", self.handshake_crypto_percent()),
        ]);
        crypto.row(&[
            "resumed".to_string(),
            self.resumed_handshake.count().to_string(),
            kilo(self.resumed_handshake.sum()),
            kilo(self.resumed_crypto_cycles),
            format!("{:.1}", percent(self.resumed_crypto_cycles, self.resumed_handshake.sum())),
        ]);
        if self.tls13_full_handshake.count() > 0 {
            crypto.row(&[
                "tls13".to_string(),
                self.tls13_full_handshake.count().to_string(),
                kilo(self.tls13_full_handshake.sum()),
                kilo(self.tls13_crypto_cycles),
                format!("{:.1}", self.tls13_crypto_percent()),
            ]);
        }
        out.push('\n');
        out.push_str(&crypto.to_string());

        // Table 1: the per-transaction library split.
        let split = [
            ("libcrypto", self.libcrypto_cycles_per_transaction()),
            ("libssl", self.libssl_cycles_per_transaction()),
            ("other", self.other_cycles_per_transaction()),
        ];
        let total: u64 = split.iter().map(|(_, c)| *c).sum();
        let mut table1 = Table::new("Live Table 1: cycles per transaction by library");
        table1.columns(&[
            ("library", Align::Left),
            ("kc/txn", Align::Right),
            ("share %", Align::Right),
        ]);
        for (name, cycles) in split {
            table1.row(&[name.to_string(), kilo(cycles), format!("{:.1}", percent(cycles, total))]);
        }
        out.push('\n');
        out.push_str(&table1.to_string());

        // Serving quantiles and record-path totals.
        let mut quant = Table::new("Serving quantiles and totals");
        quant.columns(&[
            ("metric", Align::Left),
            ("count", Align::Right),
            ("p50 kc", Align::Right),
            ("p95 kc", Align::Right),
            ("p99 kc", Align::Right),
        ]);
        for (name, h) in [
            ("full_handshake", &self.full_handshake),
            ("resumed_handshake", &self.resumed_handshake),
            ("tls13_handshake", &self.tls13_full_handshake),
        ] {
            quant.row(&[
                name.to_string(),
                h.count().to_string(),
                kilo(h.p50()),
                kilo(h.p95()),
                kilo(h.p99()),
            ]);
        }
        out.push('\n');
        out.push_str(&quant.to_string());

        // Batch-RSA amortization, when the pool ran with batching.
        if self.batch_size.count() > 0 {
            let mut batch = Table::new("Crypto-pool batching");
            batch.columns(&[
                ("metric", Align::Left),
                ("count", Align::Right),
                ("mean", Align::Right),
                ("p95", Align::Right),
            ]);
            let mean_size = if self.batch_size.count() == 0 {
                0.0
            } else {
                self.batch_size.sum() as f64 / self.batch_size.count() as f64
            };
            batch.row(&[
                "batch_size (jobs)".to_string(),
                self.batch_size.count().to_string(),
                format!("{mean_size:.2}"),
                self.batch_size.p95().to_string(),
            ]);
            for (name, h) in
                [("exec_solo kc", &self.exec_solo), ("exec_amortized kc", &self.exec_amortized)]
            {
                batch.row(&[
                    name.to_string(),
                    h.count().to_string(),
                    kilo(h.mean()),
                    kilo(h.p95()),
                ]);
            }
            out.push('\n');
            out.push_str(&batch.to_string());
        }
        out.push_str(&format!(
            "\ntransactions {} | records in/out {}/{} | bytes in/out {}/{}\n",
            self.transactions,
            self.records_opened,
            self.records_sealed,
            self.bytes_in,
            self.bytes_out,
        ));
        out.push_str(&format!(
            "tickets issued/accepted/rejected/expired {}/{}/{}/{}\n",
            self.tickets_issued, self.tickets_accepted, self.tickets_rejected, self.tickets_expired,
        ));
        out
    }
}

/// `part / whole` in percent; 0 when the denominator is empty.
fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Integer average; 0 when the denominator is empty.
fn per(total: u64, count: u64) -> u64 {
    total.checked_div(count).unwrap_or(0)
}

/// Cycles rendered in thousands, one decimal.
fn kilo(cycles: u64) -> String {
    format!("{:.1}", cycles as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_rng::SslRng;
    use sslperf_rsa::RsaPrivateKey;
    use sslperf_ssl::CryptoJob;

    fn ledger(resumed: bool, step_cost: u64, crypto: u64) -> HandshakeLedger {
        HandshakeLedger {
            protocol: Protocol::Ssl3,
            resumed,
            steps: std::array::from_fn(|i| (SERVER_STEP_NAMES[i], Cycles::new(step_cost))),
            total: Cycles::new(step_cost * 10),
            crypto: Cycles::new(crypto),
            kx_queue_wait: Cycles::new(0),
            kx_exec: Cycles::new(crypto / 2),
            ticket_issued: false,
            ticket_accepted: false,
            ticket_rejected: false,
            ticket_expired: false,
        }
    }

    fn tls13_ledger(step_cost: u64, crypto: u64) -> HandshakeLedger {
        HandshakeLedger {
            protocol: Protocol::Tls13,
            resumed: false,
            steps: std::array::from_fn(|i| (TLS13_STEP_NAMES[i], Cycles::new(step_cost))),
            total: Cycles::new(step_cost * 10),
            crypto: Cycles::new(crypto),
            kx_queue_wait: Cycles::new(0),
            kx_exec: Cycles::new(crypto / 2),
            ticket_issued: false,
            ticket_accepted: false,
            ticket_rejected: false,
            ticket_expired: false,
        }
    }

    /// `size` executed one-record seal jobs, as an engine hands them back.
    fn executed(size: usize) -> Vec<CryptoDone> {
        let mut rng = SslRng::from_seed(b"metrics-unit-key");
        let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
        let jobs = (0..size).map(|_| CryptoJob::new_bulk(vec![0x5a; 64], rng.clone())).collect();
        CryptoJob::execute_batch(jobs, &key)
    }

    #[test]
    fn full_handshake_populates_steps_and_crypto_share() {
        let m = ServerStats::default();
        m.note_handshake(&ledger(false, 100, 900));
        let snap = m.snapshot();
        assert_eq!(snap.full_handshake.count(), 1);
        assert_eq!(snap.full_handshake.sum(), 1000);
        assert_eq!(snap.full_crypto_cycles, 900);
        assert!((snap.handshake_crypto_percent() - 90.0).abs() < 1e-9);
        for step in &snap.steps {
            assert_eq!(step.latency.count(), 1, "step {}", step.name);
        }
        assert_eq!((m.connections(), m.full_handshakes(), m.resumed_handshakes()), (1, 1, 0));
        // The ledger's offload split is the pool's to record, not ours.
        assert_eq!((snap.kx_exec.count(), snap.kx_queue_wait.count()), (0, 0));
    }

    #[test]
    fn tls13_ledgers_route_to_their_own_anatomy() {
        let m = ServerStats::default();
        m.note_handshake(&ledger(false, 100, 900));
        m.note_handshake(&tls13_ledger(80, 600));
        let snap = m.snapshot();
        // Protocols do not bleed into each other's histograms...
        assert_eq!(snap.full_handshake.count(), 1);
        assert_eq!(snap.tls13_full_handshake.count(), 1);
        assert_eq!(snap.tls13_full_handshake.sum(), 800);
        assert_eq!(snap.full_crypto_cycles, 900);
        assert_eq!(snap.tls13_crypto_cycles, 600);
        assert!((snap.tls13_crypto_percent() - 75.0).abs() < 1e-9);
        assert!((snap.tls13_step_percent("dhe_key_exchange") - 10.0).abs() < 1e-9);
        for step in &snap.tls13_steps {
            assert_eq!(step.latency.count(), 1, "tls13 step {}", step.name);
        }
        // ...but both are full handshakes to the getters.
        assert_eq!((m.full_handshakes(), m.connections()), (2, 2));
        let text = snap.render();
        assert!(text.contains("Live anatomy: TLS 1.3"), "{text}");
        assert!(text.contains("dhe_key_exchange"), "{text}");
        assert!(text.contains("tls13"), "{text}");
    }

    #[test]
    fn tls13_section_absent_without_tls13_traffic() {
        let m = ServerStats::default();
        m.note_handshake(&ledger(false, 100, 900));
        let text = m.snapshot().render();
        assert!(!text.contains("Live anatomy: TLS 1.3"), "{text}");
    }

    #[test]
    fn resumed_handshake_skips_step_histograms() {
        let m = ServerStats::default();
        m.note_handshake(&ledger(true, 10, 50));
        let snap = m.snapshot();
        assert_eq!(snap.resumed_handshake.count(), 1);
        assert_eq!(snap.full_handshake.count(), 0);
        assert_eq!(snap.resumed_crypto_cycles, 50);
        for step in &snap.steps {
            assert_eq!(step.latency.count(), 0);
        }
        assert_eq!((m.connections(), m.full_handshakes(), m.resumed_handshakes()), (1, 0, 1));
    }

    #[test]
    fn per_transaction_split_accounts_every_cycle_once() {
        let m = ServerStats::default();
        m.note_handshake(&ledger(false, 100, 800));
        m.note_record_open(64, Cycles::new(300), Cycles::new(200));
        m.note_record_seal(128, Cycles::new(500), Cycles::new(400));
        m.note_response(Cycles::new(250));
        m.note_response(Cycles::new(150));
        let snap = m.snapshot();
        assert_eq!(snap.transactions, 2);
        assert_eq!(m.transactions(), 2, "the getter and the snapshot read one counter");
        // libcrypto: (800 handshake + 600 record) / 2 txns.
        assert_eq!(snap.libcrypto_cycles_per_transaction(), 700);
        // libssl: (1000-800 handshake) + (800-600 record) = 400 / 2.
        assert_eq!(snap.libssl_cycles_per_transaction(), 200);
        assert_eq!(snap.other_cycles_per_transaction(), 200);
        assert_eq!(snap.bytes_in, 64);
        assert_eq!(snap.bytes_out, 128);
    }

    #[test]
    fn render_contains_all_three_tables() {
        let m = ServerStats::default();
        m.note_handshake(&ledger(false, 100, 850));
        m.note_response(Cycles::new(10));
        let text = m.snapshot().render();
        assert!(text.contains("Live Table 1"), "{text}");
        assert!(text.contains("Live Table 2"), "{text}");
        assert!(text.contains("Live Table 3"), "{text}");
        assert!(text.contains("get_client_kx"), "{text}");
    }

    /// A pool batch is recorded once, and the batch getters, the per-job
    /// timing getters and the rendered offload split all read that record.
    #[test]
    fn pool_batches_feed_the_getters_and_the_split() {
        let m = ServerStats::default();
        let solo = executed(1);
        let batch = executed(3);
        m.note_crypto_batch(&solo);
        m.note_crypto_batch(&batch);
        m.note_crypto_batch(&[]);
        assert_eq!((m.crypto_batches(), m.crypto_batched_jobs()), (2, 3));
        let exec: u64 = solo.iter().chain(&batch).map(|d| d.exec().get()).sum();
        let wait: u64 = solo.iter().chain(&batch).map(|d| d.queue_wait().get()).sum();
        assert_eq!((m.crypto_exec().get(), m.crypto_queue_wait().get()), (exec, wait));
        let snap = m.snapshot();
        assert_eq!((snap.kx_exec.count(), snap.kx_queue_wait.count()), (4, 4));
        assert_eq!((snap.exec_solo.count(), snap.exec_amortized.count()), (1, 3));
        let text = snap.render();
        assert!(text.contains("Key-exchange offload split"), "{text}");
        assert!(text.contains("kx_queue_wait"), "{text}");
        assert!(text.contains("Crypto-pool batching"), "{text}");
    }

    #[test]
    fn ticket_flags_reach_the_getters_and_the_snapshot() {
        let m = ServerStats::default();
        let mut full = ledger(false, 100, 800);
        full.ticket_issued = true;
        m.note_handshake(&full);
        let mut resumed = ledger(true, 10, 40);
        resumed.ticket_accepted = true;
        m.note_handshake(&resumed);
        let mut fallback = ledger(false, 100, 800);
        fallback.ticket_rejected = true;
        m.note_handshake(&fallback);
        let mut stale = ledger(false, 100, 800);
        stale.ticket_expired = true;
        m.note_handshake(&stale);
        let getters =
            (m.tickets_issued(), m.tickets_accepted(), m.tickets_rejected(), m.tickets_expired());
        assert_eq!(getters, (1, 1, 1, 1));
        let snap = m.snapshot();
        let snapped = (
            snap.tickets_issued,
            snap.tickets_accepted,
            snap.tickets_rejected,
            snap.tickets_expired,
        );
        assert_eq!(snapped, getters);
        let text = snap.render();
        assert!(text.contains("tickets issued/accepted/rejected/expired 1/1/1/1"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_without_division_blowups() {
        let text = ServerStats::default().snapshot().render();
        assert!(text.contains("Live Table 2"));
        assert_eq!(ServerStats::default().snapshot().handshake_crypto_percent(), 0.0);
    }
}
