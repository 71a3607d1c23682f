//! The crypto worker pool: parallel, possibly *heterogeneous* crypto
//! engines for the event-loop server.
//!
//! The paper's §5 observes that ~90% of a full handshake is one RSA
//! private-key decryption and proposes parallel crypto engines as the
//! server-side fix; the multi-core SSL processor literature goes further
//! and models *unequal* engines — a dedicated modexp unit next to
//! general-purpose cores — behind a preferential scheduler. [`CryptoPool`]
//! implements both: every worker thread carries an [`EngineProfile`]
//! (per-job-class cost multipliers, plus optional bulk-cipher capability),
//! and submission routes each job by job-class → engine affinity.
//!
//! Scheduling, in order:
//!
//! * **Affinity**: a job goes to the live engine with the lowest cost
//!   multiplier for its class ([`CryptoOp::RsaDecrypt`],
//!   [`CryptoOp::DheAgree`], or [`CryptoOp::BulkSeal`]); ties break to
//!   the shortest queue.
//! * **Spill**: when the preferred engine's queue is full the job spills
//!   to the next-cheapest engine with room (`crypto_spilled_jobs`).
//! * **Stealing**: an idle engine steals the oldest *compatible* job from
//!   a queue that is backed up past one batch, or from a dead engine's
//!   queue ([`CryptoPool::kill_engine`]) regardless of length
//!   (`crypto_stolen_jobs`). Bulk jobs are only ever stolen by
//!   bulk-capable engines.
//!
//! Backpressure and fairness: queues are bounded
//! ([`QUEUE_DEPTH_PER_WORKER`] slots per engine) and submission never
//! blocks — [`CryptoPool::try_submit`] hands the job back inside
//! [`SubmitError::QueueFull`] together with a **ticket**. Freed slots are
//! reserved for ticket holders in FIFO order: a fresh submission is
//! refused while longer-waiting parked jobs could use the free slots, so
//! a shard parked on a saturated queue is re-admitted in bounded order
//! instead of being starved by fresh traffic from other shards
//! ([`CryptoPool::resubmit`] / [`CryptoPool::cancel_ticket`]).
//!
//! Depth accounting: `crypto_queue_depth` counts jobs queued *or
//! executing* and is sampled (and `crypto_queue_depth_max` raised) at
//! enqueue, inside the submission lock; the accepted depth travels back
//! to the shard in [`PoolReply::depth_at_submit`] so metrics report the
//! burst the job actually experienced, not whatever the counter reads
//! after the collector has drained.
//!
//! Batching (`batch_max` > 1): the engine that dequeues a first job keeps
//! collecting from *its own* queue up to `batch_max` jobs, waiting at most
//! `batch_deadline` after the first (by default not at all: the batch is
//! what was already queued). Execution happens outside the lock
//! via [`CryptoJob::execute_batch`]; each job's result fans back to its
//! own shard's reply channel. A `batch_max` of 1 skips collection entirely
//! and behaves exactly like the unbatched pool.
//!
//! Engine slowdown is simulated, not faked: after executing, a worker
//! whose multiplier for the job class exceeds 1.0 busy-waits the extra
//! cycles out and stretches the recorded exec cost to match, so both the
//! wall-clock behaviour and the ledger see the cost the modelled engine
//! would have paid — while wire flights stay byte-identical (the job's
//! rng discipline is untouched).

use crate::metrics::ServerMetrics;
use crate::server::ServerStats;
use sslperf_profile::{Cycles, Stopwatch};
use sslperf_ssl::{CryptoDone, CryptoJob, CryptoOp, ServerConfig};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queue slots per engine: deep enough that a handshake burst keeps the
/// workers saturated without bouncing jobs back to the shards (a parked
/// job waits a whole sweep before retrying), shallow enough that the
/// queue stays bounded and saturation still surfaces as backpressure.
pub const QUEUE_DEPTH_PER_WORKER: usize = 32;

/// How long workers sleep between condition checks; submissions, kills
/// and shutdown all notify, so this only bounds the staleness of checks
/// no one signalled.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Reservations older than this are presumed abandoned (the parked
/// connection died without [`CryptoPool::cancel_ticket`] — e.g. its
/// process was killed) and stop blocking fresh submissions.
const TICKET_TTL: Duration = Duration::from_secs(5);

/// The scheduling class of a queued job, derived from its [`CryptoOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobClass {
    Rsa,
    Dhe,
    Bulk,
}

fn class_of(job: &CryptoJob) -> JobClass {
    match job.op() {
        CryptoOp::RsaDecrypt { .. } => JobClass::Rsa,
        CryptoOp::DheAgree { .. } => JobClass::Dhe,
        CryptoOp::BulkSeal { .. } => JobClass::Bulk,
    }
}

/// The simulated hardware behind one pool worker: per-job-class cost
/// multipliers relative to a native core (1.0 = native speed; a machine
/// with one native-speed RSA engine and 3.0-multiplier general cores
/// models an RSA engine three times faster than its cores), plus whether
/// the engine can run bulk-cipher jobs at all.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Display name for reports and experiment labels.
    pub name: String,
    /// Cost multiplier for RSA private-key jobs (>= 1.0).
    pub rsa_cost: f64,
    /// Cost multiplier for DHE agreement jobs (>= 1.0).
    pub dhe_cost: f64,
    /// Bulk-cipher capability: `Some(multiplier)` when the engine also
    /// accepts record-sealing jobs, `None` for a dedicated key-exchange
    /// engine that cannot run them.
    pub bulk_cost: Option<f64>,
}

impl EngineProfile {
    /// A native-speed general-purpose core: every class at 1.0.
    #[must_use]
    pub fn general() -> Self {
        EngineProfile { name: "general".into(), rsa_cost: 1.0, dhe_cost: 1.0, bulk_cost: Some(1.0) }
    }

    /// A general-purpose core slowed by `factor` in every class — the
    /// standard way to model an accelerator: run the accelerator at 1.0
    /// and the plain cores at `factor`.
    #[must_use]
    pub fn general_slowed(factor: f64) -> Self {
        EngineProfile {
            name: format!("general-x{factor}"),
            rsa_cost: factor,
            dhe_cost: factor,
            bulk_cost: Some(factor),
        }
    }

    /// A dedicated key-exchange engine: native-speed modexp (RSA and DHE
    /// both reduce to Montgomery exponentiation), no bulk capability.
    #[must_use]
    pub fn rsa_engine() -> Self {
        EngineProfile { name: "rsa-engine".into(), rsa_cost: 1.0, dhe_cost: 1.0, bulk_cost: None }
    }

    /// Whether every multiplier is finite and at least 1.0 (the pool
    /// simulates slowdown by busy-waiting; it cannot make real hardware
    /// faster than native).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let ok = |c: f64| c.is_finite() && c >= 1.0;
        ok(self.rsa_cost) && ok(self.dhe_cost) && self.bulk_cost.is_none_or(ok)
    }

    fn accepts(&self, class: JobClass) -> bool {
        class != JobClass::Bulk || self.bulk_cost.is_some()
    }

    fn cost(&self, class: JobClass) -> f64 {
        match class {
            JobClass::Rsa => self.rsa_cost,
            JobClass::Dhe => self.dhe_cost,
            JobClass::Bulk => self.bulk_cost.unwrap_or(f64::INFINITY),
        }
    }
}

/// Why [`CryptoPool::try_submit`] did not accept a job. Both variants hand
/// the job back, but they demand different reactions from the event loop:
/// a full queue is transient (park the job on the connection and retry
/// next sweep, quoting the ticket), a shut-down pool is permanent (fail
/// the connection — a parked job would wait forever).
#[derive(Debug)]
pub enum SubmitError {
    /// Every slot this job's class could use is taken or reserved for a
    /// longer-waiting parked job. Park the job and retry with
    /// [`CryptoPool::resubmit`], quoting `ticket` — the ticket holds the
    /// connection's place in the FIFO admission order.
    QueueFull {
        /// The refused job, handed back for parking.
        job: CryptoJob,
        /// The connection's place in the admission queue.
        ticket: u64,
    },
    /// The pool has stopped accepting jobs (shut down, or no live engine
    /// can ever run this job class) and will never drain this one.
    ShutDown(CryptoJob),
}

impl SubmitError {
    /// Recovers the job for parking or inline execution.
    #[must_use]
    pub fn into_job(self) -> CryptoJob {
        match self {
            SubmitError::QueueFull { job, .. } | SubmitError::ShutDown(job) => job,
        }
    }
}

/// An executed job on its way back to the submitting shard.
#[derive(Debug)]
pub struct PoolReply {
    /// Shard-local connection id, echoed back from submission.
    pub conn: u64,
    /// Jobs queued-or-executing the instant this job was accepted (this
    /// job included) — the burst depth the job actually experienced,
    /// sampled inside the submission lock.
    pub depth_at_submit: u64,
    /// The executed result.
    pub done: CryptoDone,
}

/// One queued request: the suspended job plus the routing needed to get
/// the result back to the owning connection.
struct CryptoTask {
    conn: u64,
    class: JobClass,
    depth_at_submit: u64,
    job: CryptoJob,
    reply: Sender<PoolReply>,
}

/// A parked connection's place in the FIFO admission order.
struct Waiter {
    ticket: u64,
    class: JobClass,
    since: Instant,
}

/// Everything the submission path and the workers share under one lock.
struct PoolState {
    /// One bounded queue per engine.
    queues: Vec<VecDeque<CryptoTask>>,
    /// Which engines are alive ([`CryptoPool::kill_engine`] clears one).
    live: Vec<bool>,
    /// FIFO of parked connections waiting for a slot, per ticket.
    waiters: VecDeque<Waiter>,
    next_ticket: u64,
    /// Cleared at shutdown; workers drain and exit.
    open: bool,
}

impl PoolState {
    fn prune_stale_waiters(&mut self) {
        self.waiters.retain(|w| w.since.elapsed() <= TICKET_TTL);
    }

    fn remove_waiter(&mut self, ticket: u64) {
        self.waiters.retain(|w| w.ticket != ticket);
    }

    /// Same-class waiters ahead of `ticket` (all of them when the ticket
    /// is absent — a fresh submission queues behind every parked job).
    fn waiters_ahead(&self, class: JobClass, ticket: Option<u64>) -> usize {
        let same_class = self.waiters.iter().filter(|w| w.class == class);
        match ticket {
            Some(t) => same_class.take_while(|w| w.ticket != t).count(),
            None => same_class.count(),
        }
    }

    fn ensure_waiter(&mut self, ticket: u64, class: JobClass) {
        if !self.waiters.iter().any(|w| w.ticket == ticket) {
            self.waiters.push_back(Waiter { ticket, class, since: Instant::now() });
        }
    }

    fn issue_ticket(&mut self, class: JobClass) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.waiters.push_back(Waiter { ticket, class, since: Instant::now() });
        ticket
    }
}

struct Shared {
    state: Mutex<PoolState>,
    ready: Condvar,
    profiles: Vec<EngineProfile>,
    batch_max: usize,
    batch_deadline: Duration,
}

/// Worker threads — one per [`EngineProfile`] — draining bounded
/// per-engine queues behind the preferential scheduler.
///
/// Shared by every shard of an [`EventLoopServer`](crate::EventLoopServer)
/// started with [`ServerOptions::crypto_workers`](crate::ServerOptions)
/// &gt; 0 or with explicit engine profiles. Workers execute jobs against
/// the shared [`ServerConfig`]'s private key and update the crypto
/// counters in [`ServerStats`]; with
/// [`ServerOptions::batch_max`](crate::ServerOptions) &gt; 1 they collect
/// queued jobs into amortized decrypt batches first.
#[derive(Debug)]
pub struct CryptoPool {
    shared: Arc<SharedOpaque>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

/// Newtype so [`CryptoPool`] can derive `Debug` without exposing the
/// scheduler internals.
struct SharedOpaque(Shared);

impl std::fmt::Debug for SharedOpaque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptoPoolShared").field("engines", &self.0.profiles.len()).finish()
    }
}

impl CryptoPool {
    /// Spawns `workers` identical native-speed engines, executing every
    /// job solo — the homogeneous, unbatched shorthand for
    /// [`CryptoPool::start_heterogeneous`].
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    #[must_use]
    pub fn start(workers: usize, config: Arc<ServerConfig>, stats: Arc<ServerStats>) -> Self {
        let profiles = vec![EngineProfile::general(); workers];
        Self::start_heterogeneous(profiles, 1, Duration::ZERO, config, stats, None)
    }

    /// Spawns one worker thread per profile. Jobs route to the live
    /// engine with the lowest multiplier for their class (shortest queue
    /// among ties), spill to the next-cheapest engine when the preferred
    /// queue is full, and idle engines steal compatible work from
    /// backed-up or dead queues.
    ///
    /// # Panics
    ///
    /// Panics when `profiles` is empty, any profile has a multiplier
    /// below 1.0 (see [`EngineProfile::is_valid`]), or `batch_max` is
    /// zero.
    #[must_use]
    pub fn start_heterogeneous(
        profiles: Vec<EngineProfile>,
        batch_max: usize,
        batch_deadline: Duration,
        config: Arc<ServerConfig>,
        stats: Arc<ServerStats>,
        metrics: Option<Arc<ServerMetrics>>,
    ) -> Self {
        assert!(!profiles.is_empty(), "at least one engine profile");
        assert!(profiles.iter().all(EngineProfile::is_valid), "multipliers must be >= 1.0");
        assert!(batch_max > 0, "a batch holds at least one job");
        let engines = profiles.len();
        let shared = Arc::new(SharedOpaque(Shared {
            state: Mutex::new(PoolState {
                queues: (0..engines).map(|_| VecDeque::new()).collect(),
                live: vec![true; engines],
                waiters: VecDeque::new(),
                next_ticket: 0,
                open: true,
            }),
            ready: Condvar::new(),
            profiles,
            batch_max,
            batch_deadline,
        }));
        let workers = (0..engines)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let config = Arc::clone(&config);
                let stats = Arc::clone(&stats);
                let metrics = metrics.clone();
                std::thread::spawn(move || {
                    worker_loop(index, &shared.0, &config, &stats, metrics.as_deref());
                })
            })
            .collect();
        CryptoPool { shared, workers, stats }
    }

    /// How many engines (live or killed) the pool was started with.
    #[must_use]
    pub fn engines(&self) -> usize {
        self.shared.0.profiles.len()
    }

    /// Submits a fresh job without blocking. The job always comes back
    /// inside the error on refusal — the backpressure contract that keeps
    /// shards sweeping.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when every usable slot is taken or
    /// reserved (transient: park the job and [`CryptoPool::resubmit`]
    /// with the returned ticket); [`SubmitError::ShutDown`] when the pool
    /// no longer accepts jobs (permanent: fail the connection).
    // The error variants carry the job handed back for parking — a
    // payload, not an error condition — so their size is inherent to the
    // contract.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        conn: u64,
        job: CryptoJob,
        reply: &Sender<PoolReply>,
    ) -> Result<(), SubmitError> {
        self.submit_inner(conn, job, reply, None)
    }

    /// Retries a previously refused job, quoting the ticket from
    /// [`SubmitError::QueueFull`]. Ticket holders are admitted in FIFO
    /// order before any fresh submission of the same class, which bounds
    /// how long a parked handshake can be deferred under saturation.
    ///
    /// # Errors
    ///
    /// Same contract as [`CryptoPool::try_submit`]; on refusal the same
    /// ticket comes back (the place in line is kept).
    #[allow(clippy::result_large_err)]
    pub fn resubmit(
        &self,
        conn: u64,
        job: CryptoJob,
        ticket: u64,
        reply: &Sender<PoolReply>,
    ) -> Result<(), SubmitError> {
        self.submit_inner(conn, job, reply, Some(ticket))
    }

    /// Releases a parked connection's admission reservation — called when
    /// a connection dies with a parked job, so its reserved slot does not
    /// block fresh submissions until the ticket goes stale.
    pub fn cancel_ticket(&self, ticket: u64) {
        if let Ok(mut st) = self.shared.0.state.lock() {
            st.remove_waiter(ticket);
        }
    }

    /// Marks one engine dead: it stops dequeuing, its queued jobs become
    /// stealable by any compatible engine regardless of backlog, and new
    /// submissions never route to it. Returns false when the index is out
    /// of range or the engine is already dead. The fleet keeps serving on
    /// the survivors — this is the scheduler-degradation experiment's
    /// fault injection.
    pub fn kill_engine(&self, index: usize) -> bool {
        let mut st = self.shared.0.state.lock().expect("pool lock");
        if index >= st.live.len() || !st.live[index] {
            return false;
        }
        st.live[index] = false;
        drop(st);
        self.shared.0.ready.notify_all();
        true
    }

    #[allow(clippy::result_large_err)] // both variants hand the job back by design
    fn submit_inner(
        &self,
        conn: u64,
        job: CryptoJob,
        reply: &Sender<PoolReply>,
        ticket: Option<u64>,
    ) -> Result<(), SubmitError> {
        let class = class_of(&job);
        let shared = &self.shared.0;
        let mut st = shared.state.lock().expect("pool lock");
        if !st.open {
            return Err(SubmitError::ShutDown(job));
        }
        let capable: Vec<usize> = (0..shared.profiles.len())
            .filter(|&i| st.live[i] && shared.profiles[i].accepts(class))
            .collect();
        if capable.is_empty() {
            // No live engine can ever run this class: permanent, like a
            // shut-down pool.
            if let Some(t) = ticket {
                st.remove_waiter(t);
            }
            return Err(SubmitError::ShutDown(job));
        }
        st.prune_stale_waiters();
        let free: usize = capable
            .iter()
            .map(|&i| QUEUE_DEPTH_PER_WORKER.saturating_sub(st.queues[i].len()))
            .sum();
        // FIFO admission: free slots belong to longer-waiting parked jobs
        // first. A fresh submission counts every parked job of its class
        // as ahead of it.
        let ahead = st.waiters_ahead(class, ticket);
        if free <= ahead {
            let ticket = match ticket {
                Some(t) => {
                    st.ensure_waiter(t, class);
                    t
                }
                None => st.issue_ticket(class),
            };
            return Err(SubmitError::QueueFull { job, ticket });
        }
        if let Some(t) = ticket {
            st.remove_waiter(t);
        }
        // Preferential routing: cheapest multiplier first, shortest queue
        // among equals; spill to the next-cheapest engine with room when
        // the preferred one is full.
        let target = capable
            .iter()
            .copied()
            .filter(|&i| st.queues[i].len() < QUEUE_DEPTH_PER_WORKER)
            .min_by(|&a, &b| {
                let (ca, cb) = (shared.profiles[a].cost(class), shared.profiles[b].cost(class));
                ca.partial_cmp(&cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(st.queues[a].len().cmp(&st.queues[b].len()))
            })
            .expect("free > ahead >= 0 implies a capable engine has room");
        let cheapest =
            capable.iter().map(|&i| shared.profiles[i].cost(class)).fold(f64::INFINITY, f64::min);
        if shared.profiles[target].cost(class) > cheapest {
            self.stats.crypto_spilled_jobs.fetch_add(1, Ordering::Relaxed);
        }
        if class == JobClass::Bulk {
            self.stats.crypto_bulk_jobs.fetch_add(1, Ordering::Relaxed);
        }
        // Depth counts queued + executing and is sampled here, inside the
        // lock, so burst high-water marks are exact; the worker decrements
        // when the job *finishes executing*, not when a collector dequeues
        // it.
        let depth = self.stats.crypto_queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.crypto_jobs.fetch_add(1, Ordering::Relaxed);
        self.stats.crypto_queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        st.queues[target].push_back(CryptoTask {
            conn,
            class,
            depth_at_submit: depth,
            job,
            reply: reply.clone(),
        });
        drop(st);
        shared.ready.notify_all();
        Ok(())
    }

    /// Stops accepting jobs, lets workers drain what they can, and joins
    /// them.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        if let Ok(mut st) = self.shared.0.state.lock() {
            st.open = false;
        }
        self.shared.0.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CryptoPool {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Takes the next task engine `index` should run: its own queue front
/// first, then — only when idle — the oldest compatible job stolen from a
/// dead engine's queue (any length) or a live queue backed up past one
/// batch.
fn take_task(
    st: &mut MutexGuard<'_, PoolState>,
    index: usize,
    shared: &Shared,
    stats: &ServerStats,
) -> Option<CryptoTask> {
    if let Some(task) = st.queues[index].pop_front() {
        return Some(task);
    }
    let me = &shared.profiles[index];
    let mut victim: Option<(usize, usize, usize)> = None; // (queue len, engine, position)
    for j in 0..st.queues.len() {
        if j == index || st.queues[j].is_empty() {
            continue;
        }
        let dead = !st.live[j];
        if !dead && st.queues[j].len() <= shared.batch_max {
            continue; // a live engine will drain its own short queue
        }
        if let Some(pos) = st.queues[j].iter().position(|t| me.accepts(t.class)) {
            let len = st.queues[j].len();
            if victim.is_none_or(|(best, _, _)| len > best) {
                victim = Some((len, j, pos));
            }
        }
    }
    let (_, j, pos) = victim?;
    let task = st.queues[j].remove(pos).expect("position just found");
    stats.crypto_stolen_jobs.fetch_add(1, Ordering::Relaxed);
    Some(task)
}

/// Collects one batch for engine `index`: the first job from its own
/// queue (or stolen), then — with `batch_max` &gt; 1 — more from its own
/// queue within `batch_deadline` of the first. Returns `None` when the
/// engine is dead or the pool shut down with nothing left this engine
/// can take.
fn collect_batch(index: usize, shared: &Shared, stats: &ServerStats) -> Option<Vec<CryptoTask>> {
    let mut st = shared.state.lock().expect("pool lock");
    let first = loop {
        if !st.live[index] {
            return None;
        }
        if let Some(task) = take_task(&mut st, index, shared, stats) {
            break task;
        }
        if !st.open {
            return None;
        }
        st = shared.ready.wait_timeout(st, IDLE_WAIT).expect("pool lock").0;
    };
    let mut batch = Vec::with_capacity(shared.batch_max);
    batch.push(first);
    if shared.batch_max > 1 {
        batch[0].job.collect();
        let deadline = Instant::now() + shared.batch_deadline;
        while batch.len() < shared.batch_max && st.live[index] {
            if let Some(mut task) = st.queues[index].pop_front() {
                task.job.collect();
                batch.push(task);
                continue;
            }
            if !st.open {
                break;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else { break };
            st = shared.ready.wait_timeout(st, remaining.min(IDLE_WAIT)).expect("pool lock").0;
        }
    }
    Some(batch)
}

fn worker_loop(
    index: usize,
    shared: &Shared,
    config: &ServerConfig,
    stats: &ServerStats,
    metrics: Option<&ServerMetrics>,
) {
    let profile = &shared.profiles[index];
    loop {
        let Some(batch) = collect_batch(index, shared, stats) else { return };
        let size = batch.len();
        stats.crypto_batches.fetch_add(1, Ordering::Relaxed);
        if size > 1 {
            stats.crypto_batched_jobs.fetch_add(size as u64, Ordering::Relaxed);
        }
        let mut routes = Vec::with_capacity(size);
        let mut classes = Vec::with_capacity(size);
        let mut jobs = Vec::with_capacity(size);
        for task in batch {
            routes.push((task.conn, task.depth_at_submit, task.reply));
            classes.push(task.class);
            jobs.push(task.job);
        }
        let mut dones = if size == 1 {
            vec![jobs.into_iter().next().expect("size checked").execute(config.key())]
        } else {
            CryptoJob::execute_batch(jobs, config.key())
        };
        // Simulate the engine's speed: busy-wait the modelled extra cycles
        // out, then stretch the recorded exec costs so the ledger and
        // stats see what this engine would actually have charged.
        let extras: Vec<u64> = classes
            .iter()
            .zip(&dones)
            .map(|(class, done)| {
                let mult = profile.cost(*class);
                if mult > 1.0 {
                    (done.exec().get() as f64 * (mult - 1.0)) as u64
                } else {
                    0
                }
            })
            .collect();
        let extra_total: u64 = extras.iter().sum();
        if extra_total > 0 {
            let sw = Stopwatch::start();
            while sw.elapsed().get() < extra_total {
                std::hint::spin_loop();
            }
        }
        for (done, extra) in dones.iter_mut().zip(&extras) {
            if *extra > 0 {
                done.stretch_exec(Cycles::new(*extra));
            }
        }
        if let (Some(metrics), Some(done)) = (metrics, dones.first()) {
            metrics.note_crypto_batch(size, done.exec());
        }
        for ((conn, depth_at_submit, reply), done) in routes.into_iter().zip(dones) {
            stats.crypto_queue_wait_cycles.fetch_add(done.queue_wait().get(), Ordering::Relaxed);
            stats.crypto_batch_wait_cycles.fetch_add(done.batch_wait().get(), Ordering::Relaxed);
            stats.crypto_exec_cycles.fetch_add(done.exec().get(), Ordering::Relaxed);
            // The job is no longer queued *or* executing.
            stats.crypto_queue_depth.fetch_sub(1, Ordering::Relaxed);
            // A send failure means the shard is gone; the result is moot.
            let _ = reply.send(PoolReply { conn, depth_at_submit, done });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_rng::SslRng;
    use sslperf_rsa::RsaPrivateKey;
    use sslperf_ssl::{
        CipherSuite, CryptoOutput, Engine, EngineDriven, SslClient, SslError, SslServer,
    };
    use std::sync::mpsc;

    fn config() -> Arc<ServerConfig> {
        let mut rng = SslRng::from_seed(b"cryptopool-test-key");
        let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
        Arc::new(ServerConfig::new(key, "pool.test").expect("config"))
    }

    /// Drives an offloaded engine handshake through the pool end to end.
    #[test]
    fn pool_executes_suspended_jobs() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start(2, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();

        let mut client =
            Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"cp-c")))
                .expect("client engine");
        let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"cp-s")))
            .expect("server engine");
        server.set_crypto_offload(true);

        let mut wire = vec![0u8; 16 * 1024];
        let mut spins = 0;
        while !(client.is_established() && server.is_established()) {
            pump(&mut client, &mut server, &mut wire);
            if let Some(job) = server.take_crypto_job() {
                pool.try_submit(7, job, &reply_tx).expect("queue has room");
            }
            if server.crypto_pending() {
                let reply = reply_rx.recv().expect("pool reply");
                assert_eq!(reply.conn, 7);
                assert_eq!(reply.depth_at_submit, 1);
                server.complete_crypto(reply.done).expect("resume");
            }
            pump(&mut server, &mut client, &mut wire);
            spins += 1;
            assert!(spins < 16, "handshake did not converge");
        }
        assert_eq!(stats.crypto_jobs(), 1);
        assert!(stats.crypto_queue_depth_max() >= 1);
        // An unbatched pool reports one batch per job, all solo.
        assert_eq!(stats.crypto_batches(), 1);
        assert_eq!(stats.crypto_batched_jobs(), 0);
        assert_eq!(stats.crypto_batch_wait(), sslperf_profile::Cycles::ZERO);
        pool.shutdown();
    }

    /// A full queue hands the job back instead of blocking the caller.
    #[test]
    fn full_queue_returns_job_for_parking() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = slow_pool(&config, &stats);
        let (reply_tx, reply_rx) = mpsc::channel();

        let (submitted, bounced, _) = saturate(&pool, &config, &reply_tx);
        // The bounced job is intact: executing it directly still works.
        let done = bounced.execute(config.key());
        assert!(done.exec().get() > 0);
        // Every accepted job eventually completes and replies.
        for _ in 0..submitted {
            let _ = reply_rx.recv().expect("reply for accepted job");
        }
        assert_eq!(stats.crypto_jobs(), submitted);
        pool.shutdown();
    }

    /// A batched pool combines queued jobs and each result still resumes
    /// its own handshake (results route by connection id).
    #[test]
    fn batched_pool_combines_queued_jobs() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        // One worker so every job lands in the same collector; a generous
        // deadline so the whole burst combines deterministically.
        let pool = CryptoPool::start_heterogeneous(
            vec![EngineProfile::general()],
            4,
            Duration::from_millis(200),
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();

        let mut engines = Vec::new();
        for seq in 0..4u64 {
            let (server, job) = suspended_job(&config, seq);
            pool.try_submit(seq, job, &reply_tx).expect("queue has room");
            engines.push((seq, server));
        }
        for _ in 0..4 {
            let reply = reply_rx.recv().expect("batched reply");
            let (_, server) =
                engines.iter_mut().find(|(seq, _)| *seq == reply.conn).expect("known conn");
            server.complete_crypto(reply.done).expect("resume with batched result");
        }
        assert_eq!(stats.crypto_jobs(), 4);
        assert!(stats.crypto_batches() >= 1);
        assert!(stats.crypto_batched_jobs() >= 2, "at least one real batch formed");
        pool.shutdown();
    }

    /// A decrypt that fails inside a batch stays a secret of its own slot:
    /// the doomed job resumes its handshake like any other (the server
    /// carries on under a random pre-master and only the client's finished
    /// record fails, as a MAC error), and the sibling batched with it
    /// completes its handshake.
    #[test]
    fn failed_decrypt_in_a_batch_leaves_its_sibling_intact() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start_heterogeneous(
            vec![EngineProfile::general()],
            4,
            Duration::from_millis(200),
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();

        // The doomed connection: an honest client's second flight with one
        // ciphertext byte flipped (record header 5 + message header 4 +
        // length prefix 2, then a byte well inside the RSA block).
        let (mut doomed_client, mut doomed) = engine_pair(&config, 1);
        let mut wire = vec![0u8; 16 * 1024];
        pump(&mut doomed_client, &mut doomed, &mut wire);
        pump(&mut doomed, &mut doomed_client, &mut wire);
        let n = doomed_client.take_output(&mut wire);
        wire[5 + 4 + 2 + 20] ^= 0x01;
        let mut offset = 0;
        while offset < n {
            offset += doomed.feed(&wire[offset..n]).expect("buffers behind the suspension");
        }
        let doomed_job = doomed.take_crypto_job().expect("suspended job");

        let (mut client, mut sibling, sibling_job) = suspended_pair(&config, 2);
        pool.try_submit(1, doomed_job, &reply_tx).expect("queue has room");
        pool.try_submit(2, sibling_job, &reply_tx).expect("queue has room");
        for _ in 0..2 {
            let reply = reply_rx.recv().expect("batched reply");
            if reply.conn == 1 {
                assert!(reply.done.output().is_err(), "the flipped block does not unpad");
                let error = doomed.complete_crypto(reply.done).expect_err("finished cannot open");
                assert!(
                    matches!(error, SslError::MacMismatch | SslError::BadPadding),
                    "failed where a wrong-key client fails, got {error}"
                );
            } else {
                sibling.complete_crypto(reply.done).expect("resume with batched result");
            }
        }
        assert_eq!(stats.crypto_batched_jobs(), 2, "both decrypts shared one batch");
        while !(client.is_established() && sibling.is_established()) {
            pump(&mut sibling, &mut client, &mut wire);
            pump(&mut client, &mut sibling, &mut wire);
        }
        pool.shutdown();
    }

    /// The default deadline is zero: the collector never waits, yet a
    /// backlog still combines, because what queued up while the engine was
    /// executing is already there when it comes back for more. (The engine
    /// is slowed so that its first job outlasts the submission loop.)
    #[test]
    fn zero_deadline_batches_the_backlog() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start_heterogeneous(
            vec![EngineProfile::general_slowed(100.0)],
            4,
            Duration::ZERO,
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        let burst = 9u64;
        let (mut engines, jobs): (Vec<_>, Vec<_>) =
            (0..burst).map(|seq| suspended_job(&config, seq)).unzip();
        for (seq, job) in jobs.into_iter().enumerate() {
            pool.try_submit(seq as u64, job, &reply_tx).expect("queue has room");
        }
        for _ in 0..burst {
            let reply = reply_rx.recv().expect("reply");
            engines[reply.conn as usize].complete_crypto(reply.done).expect("resume");
        }
        assert_eq!(stats.crypto_jobs(), burst);
        assert!(stats.crypto_batched_jobs() >= 2, "the backlog formed a batch");
        pool.shutdown();
    }

    /// Submitting into a shut-down pool reports `ShutDown`, not
    /// `QueueFull` — the event loop must fail the connection, not park it.
    #[test]
    fn shutdown_pool_reports_shutdown_distinctly() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let mut pool = CryptoPool::start(1, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, _reply_rx) = mpsc::channel();
        // Simulate shutdown without consuming the pool (stop_workers is
        // what `shutdown` and `Drop` both call).
        pool.stop_workers();
        let (_, job) = suspended_job(&config, 99);
        match pool.try_submit(99, job, &reply_tx) {
            Err(SubmitError::ShutDown(job)) => {
                // The job survives for a caller that wants inline fallback.
                let done = job.execute(config.key());
                assert!(done.exec().get() > 0);
            }
            Err(SubmitError::QueueFull { .. }) => panic!("shutdown must not report full"),
            Ok(()) => panic!("shutdown pool accepted a job"),
        }
        assert_eq!(stats.crypto_jobs(), 0);
    }

    /// The burst-accounting regression: depth counts queued + executing
    /// and its high-water mark is sampled at enqueue, so a burst parked
    /// behind a slow collector is fully visible. Before the fix the
    /// collector decremented the depth as it *dequeued* into a batch, so
    /// a burst absorbed into one batch under-reported its depth.
    #[test]
    fn burst_depth_high_water_is_sampled_at_enqueue() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        // One engine whose collector waits generously for a full batch:
        // every job of the burst is enqueued (and its depth sampled)
        // before anything finishes executing.
        let burst = 6;
        let pool = CryptoPool::start_heterogeneous(
            vec![EngineProfile::general()],
            burst,
            Duration::from_secs(5),
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        let jobs: Vec<_> = (0..burst as u64).map(|seq| suspended_job(&config, seq).1).collect();
        for (seq, job) in jobs.into_iter().enumerate() {
            pool.try_submit(seq as u64, job, &reply_tx).expect("queue has room");
        }
        let mut max_seen = 0;
        for _ in 0..burst {
            let reply = reply_rx.recv().expect("burst reply");
            max_seen = max_seen.max(reply.depth_at_submit);
        }
        assert_eq!(stats.crypto_queue_depth_max(), burst as u64, "burst fully visible");
        assert_eq!(max_seen, burst as u64, "the last job saw the whole burst");
        assert_eq!(stats.crypto_queue_depth(), 0, "depth settles once execution completes");
        pool.shutdown();
    }

    /// The park-and-retry fairness regression: once a submission bounces,
    /// freed slots belong to it — fresh submissions from other shards are
    /// refused until the ticket holder is re-admitted, so a parked
    /// handshake is deferred at most one sweep after a slot frees instead
    /// of being starved indefinitely.
    #[test]
    fn parked_ticket_is_admitted_before_fresh_submissions() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = slow_pool(&config, &stats);
        let (reply_tx, reply_rx) = mpsc::channel();

        // The submission that bounces off the full queue is shard A's
        // parked handshake.
        let (submitted, mut parked_job, ticket) = saturate(&pool, &config, &reply_tx);

        // Shard B floods fresh submissions while shard A retries each
        // sweep. Pre-fix, any freed slot went to whichever fresh job won
        // the race and A could starve behind B's traffic forever; with
        // FIFO tickets, A must be admitted, and within a bounded number
        // of sweeps once slots start freeing.
        let (_, fresh_job) = suspended_job(&config, 9_000);
        let mut fresh_job = Some(fresh_job);
        let mut fresh_accepted = 0u64;
        let mut admitted_after = None;
        for sweep in 0..2_000 {
            // B first, so B would win the freed slot under the old policy.
            if let Some(job) = fresh_job.take() {
                match pool.try_submit(10_000 + sweep, job, &reply_tx) {
                    Ok(()) => {
                        fresh_accepted += 1;
                        let (_, next) = suspended_job(&config, 9_001 + sweep);
                        fresh_job = Some(next);
                    }
                    Err(SubmitError::QueueFull { job, ticket: fresh_ticket }) => {
                        // B's fresh traffic queues *behind* A.
                        assert!(fresh_ticket > ticket, "fresh tickets issue behind parked ones");
                        pool.cancel_ticket(fresh_ticket);
                        fresh_job = Some(job);
                    }
                    Err(SubmitError::ShutDown(_)) => panic!("pool is running"),
                }
            }
            match pool.resubmit(submitted, parked_job, ticket, &reply_tx) {
                Ok(()) => {
                    admitted_after = Some(sweep);
                    break;
                }
                Err(SubmitError::QueueFull { job, ticket: same }) => {
                    assert_eq!(same, ticket, "the place in line is kept across retries");
                    parked_job = job;
                }
                Err(SubmitError::ShutDown(_)) => panic!("pool is running"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let admitted_after = admitted_after.expect("parked job admitted");
        assert!(
            fresh_accepted == 0 || admitted_after <= 64,
            "parked job deferred {admitted_after} sweeps while {fresh_accepted} fresh jobs passed"
        );
        // Drain every accepted reply (parked + initial burst + B's).
        for _ in 0..(submitted + 1 + fresh_accepted) {
            let _ = reply_rx.recv().expect("reply for accepted job");
        }
        pool.shutdown();
    }

    /// Preferential routing sends every key-exchange job to the cheapest
    /// engine; killing that engine mid-backlog lets the slower survivor
    /// steal the queue and finish every handshake.
    #[test]
    fn killed_preferred_engine_is_drained_by_stealing() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        // Engine 0 is preferred (8x); engine 1 is the slow survivor (24x).
        // Both are slow enough that the burst below, submitted back to
        // back, is still queued when engine 0 dies.
        let profiles =
            vec![EngineProfile::general_slowed(8.0), EngineProfile::general_slowed(24.0)];
        let pool = CryptoPool::start_heterogeneous(
            profiles,
            1,
            Duration::ZERO,
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        let burst = 8u64;
        let (mut engines, jobs): (Vec<_>, Vec<_>) =
            (0..burst).map(|seq| suspended_job(&config, seq)).unzip();
        for (seq, job) in jobs.into_iter().enumerate() {
            pool.try_submit(seq as u64, job, &reply_tx).expect("queue has room");
        }
        assert!(pool.kill_engine(0), "preferred engine dies mid-backlog");
        assert!(!pool.kill_engine(0), "already dead");
        // Every handshake still completes: the survivor steals the dead
        // engine's backlog.
        for _ in 0..burst {
            let reply = reply_rx.recv_timeout(Duration::from_secs(30)).expect("reply");
            engines[reply.conn as usize]
                .complete_crypto(reply.done)
                .expect("resume after engine death");
        }
        assert_eq!(stats.crypto_jobs(), burst);
        assert!(stats.crypto_stolen_jobs() >= 1, "the survivor stole from the dead queue");
        pool.shutdown();
    }

    /// Bulk-cipher jobs only route to (and are only stolen by)
    /// bulk-capable engines, and their sealed records come back through
    /// the same reply path as key-exchange results.
    #[test]
    fn bulk_jobs_respect_engine_capability() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        // One dedicated key-exchange engine (no bulk capability) and one
        // general core.
        let profiles = vec![EngineProfile::rsa_engine(), EngineProfile::general()];
        let pool = CryptoPool::start_heterogeneous(
            profiles,
            1,
            Duration::ZERO,
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        for seq in 0..4u64 {
            let rng = SslRng::from_seed(format!("bulk-{seq}").as_bytes());
            let job = CryptoJob::new_bulk(vec![0xA5; 1024], rng);
            pool.try_submit(seq, job, &reply_tx).expect("general engine has room");
        }
        for _ in 0..4 {
            let reply = reply_rx.recv().expect("bulk reply");
            match reply.done.output() {
                Ok(CryptoOutput::Sealed(record)) => {
                    assert!(record.len() > 1024, "MAC-then-encrypt grows the payload");
                }
                other => panic!("bulk job must seal: {other:?}"),
            }
        }
        assert_eq!(stats.crypto_bulk_jobs(), 4);
        // Kill the only bulk-capable engine: bulk submission becomes a
        // permanent refusal (ShutDown), while key-exchange jobs still run.
        assert!(pool.kill_engine(1));
        let rng = SslRng::from_seed(b"bulk-after-kill");
        match pool.try_submit(50, CryptoJob::new_bulk(vec![1, 2, 3], rng), &reply_tx) {
            Err(SubmitError::ShutDown(_)) => {}
            other => panic!("no bulk-capable engine must be permanent: {other:?}"),
        }
        let (mut server, job) = suspended_job(&config, 77);
        pool.try_submit(77, job, &reply_tx).expect("rsa engine still serves key exchange");
        let reply = reply_rx.recv().expect("kx reply");
        server.complete_crypto(reply.done).expect("resume");
        pool.shutdown();
    }

    /// With the heterogeneous pool enabled (slow engines included), the
    /// server's wire flights are byte-identical to the inline path under
    /// the same seeds — the rng discipline survives routing, stealing and
    /// the simulated slowdown.
    #[test]
    fn heterogeneous_pool_keeps_flights_byte_identical() {
        let config = config();

        // Inline reference: same seeds, no offload.
        let inline_flights = {
            let mut client = Engine::new(SslClient::new(
                CipherSuite::RsaDesCbc3Sha,
                SslRng::from_seed(b"het-pin-c"),
            ))
            .expect("client engine");
            let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"het-pin-s")))
                .expect("server engine");
            drive_and_capture(&mut client, &mut server, None)
        };

        let stats = Arc::new(ServerStats::default());
        let profiles = vec![EngineProfile::rsa_engine(), EngineProfile::general_slowed(3.0)];
        let pool = CryptoPool::start_heterogeneous(
            profiles,
            1,
            Duration::ZERO,
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let offloaded_flights = {
            let mut client = Engine::new(SslClient::new(
                CipherSuite::RsaDesCbc3Sha,
                SslRng::from_seed(b"het-pin-c"),
            ))
            .expect("client engine");
            let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"het-pin-s")))
                .expect("server engine");
            server.set_crypto_offload(true);
            drive_and_capture(&mut client, &mut server, Some(&pool))
        };
        assert_eq!(stats.crypto_jobs(), 1, "the handshake offloaded its key exchange");
        assert_eq!(
            inline_flights, offloaded_flights,
            "flights must stay byte-identical with the heterogeneous pool enabled"
        );
        pool.shutdown();
    }

    /// Runs a full handshake, returning every server flight byte in order.
    fn drive_and_capture(
        client: &mut Engine<SslClient>,
        server: &mut Engine<SslServer<'_>>,
        pool: Option<&CryptoPool>,
    ) -> Vec<u8> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut wire = vec![0u8; 16 * 1024];
        let mut server_bytes = Vec::new();
        let mut spins = 0;
        while !(client.is_established() && server.is_established()) {
            pump(client, server, &mut wire);
            if let Some(pool) = pool {
                if let Some(job) = server.take_crypto_job() {
                    pool.try_submit(1, job, &reply_tx).expect("queue has room");
                }
                if server.crypto_pending() {
                    let reply = reply_rx.recv().expect("pool reply");
                    server.complete_crypto(reply.done).expect("resume");
                }
            }
            let n = server.take_output(&mut wire);
            server_bytes.extend_from_slice(&wire[..n]);
            let mut offset = 0;
            while offset < n {
                offset += client.feed(&wire[offset..n]).expect("client feed");
            }
            spins += 1;
            assert!(spins < 16, "handshake did not converge");
        }
        server_bytes
    }

    /// One engine a hundred times slower than native: its queue fills, and
    /// stays full, while a test is still staging the next handshake. (A
    /// native engine decrypts about as fast as a test submits, and whether
    /// its queue ever filled was up to the scheduler.)
    fn slow_pool(config: &Arc<ServerConfig>, stats: &Arc<ServerStats>) -> CryptoPool {
        CryptoPool::start_heterogeneous(
            vec![EngineProfile::general_slowed(100.0)],
            1,
            Duration::ZERO,
            Arc::clone(config),
            Arc::clone(stats),
            None,
        )
    }

    /// Submits fresh jobs to a [`slow_pool`] until one bounces; returns how
    /// many were accepted, the bounced job and its ticket.
    fn saturate(
        pool: &CryptoPool,
        config: &Arc<ServerConfig>,
        reply_tx: &mpsc::Sender<PoolReply>,
    ) -> (u64, CryptoJob, u64) {
        for seq in 0..2 * QUEUE_DEPTH_PER_WORKER as u64 {
            let (_, job) = suspended_job(config, seq);
            match pool.try_submit(seq, job, reply_tx) {
                Ok(()) => {}
                Err(SubmitError::QueueFull { job, ticket }) => return (seq, job, ticket),
                Err(SubmitError::ShutDown(_)) => panic!("pool is running"),
            }
        }
        panic!("queue never filled");
    }

    /// Builds a server engine suspended at the RSA boundary and returns
    /// its crypto job.
    fn suspended_job(config: &Arc<ServerConfig>, seq: u64) -> (Engine<SslServer<'_>>, CryptoJob) {
        let (_, server, job) = suspended_pair(config, seq);
        (server, job)
    }

    /// The same, keeping the client whose handshake the job suspends.
    fn suspended_pair(
        config: &Arc<ServerConfig>,
        seq: u64,
    ) -> (Engine<SslClient>, Engine<SslServer<'_>>, CryptoJob) {
        let (mut client, mut server) = engine_pair(config, seq);
        let mut wire = vec![0u8; 16 * 1024];
        while !server.crypto_pending() {
            pump(&mut client, &mut server, &mut wire);
            pump(&mut server, &mut client, &mut wire);
        }
        let job = server.take_crypto_job().expect("suspended job");
        (client, server, job)
    }

    /// A fresh client engine and an offloading server engine, seeded by `seq`.
    fn engine_pair(
        config: &Arc<ServerConfig>,
        seq: u64,
    ) -> (Engine<SslClient>, Engine<SslServer<'_>>) {
        let seed = format!("cp-fq-c-{seq}");
        let client = Engine::new(SslClient::new(
            CipherSuite::RsaDesCbc3Sha,
            SslRng::from_seed(seed.as_bytes()),
        ))
        .expect("client engine");
        let seed = format!("cp-fq-s-{seq}");
        let mut server = Engine::new(SslServer::new(config, SslRng::from_seed(seed.as_bytes())))
            .expect("server engine");
        server.set_crypto_offload(true);
        (client, server)
    }

    /// Moves everything `from` has queued into `to`.
    fn pump<A: EngineDriven, B: EngineDriven>(
        from: &mut Engine<A>,
        to: &mut Engine<B>,
        wire: &mut [u8],
    ) {
        let n = from.take_output(wire);
        let mut offset = 0;
        while offset < n {
            offset += to.feed(&wire[offset..n]).expect("feed");
        }
    }
}
