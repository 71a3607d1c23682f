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
//! and every engine drains one FIFO of accepted jobs.
//!
//! Scheduling: a waiting engine takes the oldest job it can run, unless an
//! idle engine ranked ahead of it for that job's class — by (cost, engine
//! index) — can run it too; it adds batch siblings only while no other
//! capable engine is idle.
//!
//! Batching (`batch_max` > 1): the engine that takes a first job keeps
//! collecting up to `batch_max` jobs, waiting at most
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
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long workers sleep between condition checks; submissions, kills
/// and shutdown all notify, so this only bounds the staleness of checks
/// no one signalled.
const IDLE_WAIT: Duration = Duration::from_millis(10);

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

/// Why [`CryptoPool::try_submit`] did not accept a job. The refusal is
/// permanent — the event loop fails the connection — and the job comes
/// back for a caller that wants to run it inline.
#[derive(Debug)]
pub enum SubmitError {
    /// The pool has stopped accepting jobs (shut down, or no live engine
    /// can ever run this job class) and will never drain this one.
    ShutDown(CryptoJob),
}

impl SubmitError {
    /// Recovers the refused job.
    #[must_use]
    pub fn into_job(self) -> CryptoJob {
        match self {
            SubmitError::ShutDown(job) => job,
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

/// Everything the submission path and the workers share under one lock.
struct PoolState {
    /// Every accepted job not yet taken by an engine, oldest first.
    queue: VecDeque<CryptoTask>,
    /// Which engines are alive ([`CryptoPool::kill_engine`] clears one).
    live: Vec<bool>,
    /// Which engines are waiting for a first job.
    idle: Vec<bool>,
    /// Cleared at shutdown; workers drain and exit.
    open: bool,
}

impl PoolState {
    /// Where the oldest job engine `index` should take sits in the queue.
    /// A `first` job is left to an idle engine ranked ahead of `index` for
    /// its class; a batch sibling is left to any idle engine that can run
    /// it, so parallelism comes before batching.
    fn next_for(&self, index: usize, profiles: &[EngineProfile], first: bool) -> Option<usize> {
        let me = &profiles[index];
        self.queue.iter().position(|task| {
            let class = task.class;
            let ahead = |j: usize| !first || (profiles[j].cost(class), j) < (me.cost(class), index);
            me.accepts(class)
                && !(0..profiles.len())
                    .any(|j| self.live[j] && self.idle[j] && profiles[j].accepts(class) && ahead(j))
        })
    }
}

struct Shared {
    state: Mutex<PoolState>,
    ready: Condvar,
    profiles: Vec<EngineProfile>,
    batch_max: usize,
    batch_deadline: Duration,
}

/// Worker threads — one per [`EngineProfile`] — draining one shared
/// queue behind the preferential scheduler.
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

    /// Spawns one worker thread per profile. Each job starts on the idle
    /// live engine with the lowest multiplier for its class (lowest index
    /// among ties), and on any engine that can run it once every engine
    /// ranked ahead is busy.
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
                queue: VecDeque::new(),
                live: vec![true; engines],
                idle: vec![false; engines],
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

    /// Submits a job without blocking. The queue has no slot bound: a
    /// connection holds at most one job, so the pool refuses a job only
    /// when it can never run it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] when the pool is shut down or no live
    /// engine accepts the job's class (permanent: fail the connection).
    // The error carries the refused job back — a payload, not an error
    // condition — so its size is inherent to the contract.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        conn: u64,
        job: CryptoJob,
        reply: &Sender<PoolReply>,
    ) -> Result<(), SubmitError> {
        let class = class_of(&job);
        let shared = &self.shared.0;
        let mut st = shared.state.lock().expect("pool lock");
        let runnable =
            (0..shared.profiles.len()).any(|i| st.live[i] && shared.profiles[i].accepts(class));
        if !st.open || !runnable {
            return Err(SubmitError::ShutDown(job));
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
        st.queue.push_back(CryptoTask {
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

    /// Marks one engine dead: it takes no further job (a batch it already
    /// holds still runs) and the survivors drain the shared queue. Returns
    /// false when the index is out of range or the engine is already dead.
    /// The fleet keeps serving on the survivors — this is the
    /// scheduler-degradation experiment's fault injection.
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

/// Collects one batch for engine `index` under the scheduling rule: a
/// first job, then — with `batch_max` &gt; 1 — siblings within
/// `batch_deadline` of the first. Returns `None` when the engine is dead
/// or the pool shut down with nothing left this engine should take.
fn collect_batch(index: usize, shared: &Shared) -> Option<Vec<CryptoTask>> {
    let mut st = shared.state.lock().expect("pool lock");
    st.idle[index] = true;
    let first = loop {
        if !st.live[index] {
            break None;
        }
        if let Some(pos) = st.next_for(index, &shared.profiles, true) {
            break st.queue.remove(pos);
        }
        if !st.open {
            break None;
        }
        st = shared.ready.wait_timeout(st, IDLE_WAIT).expect("pool lock").0;
    };
    st.idle[index] = false;
    if !st.queue.is_empty() {
        // Jobs left to this engine while it was idle go to the others now.
        shared.ready.notify_all();
    }
    let mut batch = Vec::with_capacity(shared.batch_max);
    batch.push(first?);
    if shared.batch_max > 1 {
        batch[0].job.collect();
        let deadline = Instant::now() + shared.batch_deadline;
        while batch.len() < shared.batch_max && st.live[index] {
            if let Some(pos) = st.next_for(index, &shared.profiles, false) {
                let mut task = st.queue.remove(pos).expect("position just found");
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
        let Some(batch) = collect_batch(index, shared) else { return };
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

    /// The queue has no slot bound: a running pool accepts every job it is
    /// given, however far behind its one engine is, and serves them oldest
    /// first.
    #[test]
    fn backlog_is_accepted_whole_and_served_in_order() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start_heterogeneous(
            vec![EngineProfile::general_slowed(5.0)],
            1,
            Duration::ZERO,
            Arc::clone(&config),
            Arc::clone(&stats),
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        let jobs = 65;
        for seq in 0..jobs {
            let (_, job) = suspended_job(&config, seq);
            pool.try_submit(seq, job, &reply_tx).expect("a running pool accepts every job");
        }
        let order: Vec<u64> = (0..jobs).map(|_| reply_rx.recv().expect("reply").conn).collect();
        assert_eq!(order, (0..jobs).collect::<Vec<_>>(), "replies in submission order");
        assert_eq!(stats.crypto_jobs(), jobs);
        pool.shutdown();
    }

    /// A job submitted while one engine is busy starts on its idle sibling
    /// instead of waiting out the busy engine's job — batched or not.
    #[test]
    fn idle_engine_takes_the_second_job() {
        let config = config();
        for batch_max in [1, 4] {
            let pool = CryptoPool::start_heterogeneous(
                vec![EngineProfile::general_slowed(200.0); 2],
                batch_max,
                Duration::ZERO,
                Arc::clone(&config),
                Arc::new(ServerStats::default()),
                None,
            );
            let (reply_tx, reply_rx) = mpsc::channel();
            let (_, first) = suspended_job(&config, 0);
            pool.try_submit(0, first, &reply_tx).expect("pool is running");
            std::thread::sleep(Duration::from_millis(2));
            let (_, second) = suspended_job(&config, 1);
            pool.try_submit(1, second, &reply_tx).expect("pool is running");
            let mut replies: Vec<PoolReply> =
                (0..2).map(|_| reply_rx.recv().expect("reply")).collect();
            replies.sort_by_key(|reply| reply.conn);
            let (a, b) = (&replies[0].done, &replies[1].done);
            assert!(
                b.queue_wait().get() < a.exec().get() / 4,
                "batch_max {batch_max}: B waited {} cycles beside A's {}-cycle exec",
                b.queue_wait().get(),
                a.exec().get()
            );
            pool.shutdown();
        }
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

    /// Submitting into a shut-down pool reports `ShutDown` and hands the
    /// job back — the event loop must fail the connection.
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
            Ok(()) => panic!("shutdown pool accepted a job"),
        }
        assert_eq!(stats.crypto_jobs(), 0);
    }

    /// The burst-accounting regression: depth counts queued + executing
    /// and its high-water mark is sampled at enqueue, so a burst queued
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

    /// Killing the preferred engine mid-backlog leaves the slower survivor
    /// to drain the queue: every handshake still completes.
    #[test]
    fn killed_preferred_engine_still_completes_every_handshake() {
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
        // Every handshake still completes: the survivor drains the backlog.
        for _ in 0..burst {
            let reply = reply_rx.recv_timeout(Duration::from_secs(30)).expect("reply");
            engines[reply.conn as usize]
                .complete_crypto(reply.done)
                .expect("resume after engine death");
        }
        assert_eq!(stats.crypto_jobs(), burst);
        pool.shutdown();
    }

    /// Bulk-cipher jobs only run on bulk-capable engines, and their sealed
    /// records come back through the same reply path as key-exchange
    /// results.
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
    /// the same seeds — the rng discipline survives scheduling and the
    /// simulated slowdown.
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
