//! The crypto worker pool: parallel crypto engines for the event-loop
//! server.
//!
//! The paper's §5 observes that ~90% of a full handshake is one RSA
//! private-key decryption and proposes parallel crypto engines as the
//! server-side fix. [`CryptoPool`] runs that proposal on real threads:
//! every worker is an identical engine that runs every job class (RSA
//! decryption, DHE agreement, bulk seal), and every engine drains one FIFO
//! of accepted jobs.
//!
//! Scheduling: a waiting engine takes the oldest job; it adds batch
//! siblings only while no other live engine is idle, so parallelism comes
//! before batching.
//!
//! Batching (`batch_max` > 1): the engine that takes a first job also
//! takes up to `batch_max - 1` siblings that are already queued, under the
//! same lock acquisition. Nothing waits for a sibling: a batch is a
//! backlog, never a timer. Execution happens outside the lock via
//! [`CryptoJob::execute_batch`]; each job's result fans back to its own
//! shard's reply channel. A `batch_max` of 1 takes one job at a time and
//! behaves exactly like the unbatched pool.

use crate::metrics::ServerStats;
use sslperf_ssl::{CryptoDone, CryptoJob, CryptoOp, ServerConfig};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long workers sleep between condition checks; submissions, kills
/// and shutdown all notify, so this only bounds the staleness of checks
/// no one signalled.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Why [`CryptoPool::try_submit`] did not accept a job. The refusal is
/// permanent — the event loop fails the connection — and the job comes
/// back for a caller that wants to run it inline.
#[derive(Debug)]
pub enum SubmitError {
    /// The pool is shut down, or every engine has been killed, and will
    /// never drain this job.
    ShutDown(CryptoJob),
}

/// An executed job on its way back to the submitting shard.
#[derive(Debug)]
pub struct PoolReply {
    /// Shard-local connection id, echoed back from submission.
    pub conn: u64,
    /// The executed result.
    pub done: CryptoDone,
}

/// One queued request: the suspended job plus the routing needed to get
/// the result back to the owning connection.
struct CryptoTask {
    conn: u64,
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
    /// Whether a live engine is waiting for a first job. A collecting
    /// engine is never idle itself, so this is "another engine could start
    /// the next job now", which is when a batch stops taking siblings.
    fn any_idle(&self) -> bool {
        self.live.iter().zip(&self.idle).any(|(&live, &idle)| live && idle)
    }

    /// Accepts one job onto the queue, or hands it back when no engine
    /// will ever drain it.
    // The error carries the refused job back (see `CryptoPool::try_submit`).
    #[allow(clippy::result_large_err)]
    fn enqueue(
        &mut self,
        stats: &ServerStats,
        conn: u64,
        job: CryptoJob,
        reply: &Sender<PoolReply>,
    ) -> Result<(), SubmitError> {
        if !self.open || !self.live.contains(&true) {
            return Err(SubmitError::ShutDown(job));
        }
        if matches!(job.op(), CryptoOp::BulkSeal { .. }) {
            stats.crypto_bulk_jobs.inc();
        }
        // Depth counts queued + executing and is sampled here, inside the
        // lock, so burst high-water marks are exact; the worker decrements
        // when the job *finishes executing*, not when a collector dequeues
        // it.
        let depth = stats.crypto_queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        stats.crypto_jobs.inc();
        stats.crypto_queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        self.queue.push_back(CryptoTask { conn, job, reply: reply.clone() });
        Ok(())
    }
}

struct Shared {
    state: Mutex<PoolState>,
    ready: Condvar,
    batch_max: usize,
}

/// Identical worker threads draining one shared queue.
///
/// Shared by every shard of an [`EventLoopServer`](crate::EventLoopServer)
/// started with [`ServerOptions::crypto_workers`](crate::ServerOptions)
/// &gt; 0. Workers execute jobs against the shared [`ServerConfig`]'s
/// private key and record each batch in [`ServerStats`]; with
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
        f.debug_struct("CryptoPoolShared").field("batch_max", &self.0.batch_max).finish()
    }
}

impl CryptoPool {
    /// Spawns `workers` engines, executing every job solo — the unbatched
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    #[must_use]
    pub fn start(workers: usize, config: Arc<ServerConfig>, stats: Arc<ServerStats>) -> Self {
        Self::start_with(workers, 1, config, stats)
    }

    /// Spawns `workers` engines that take up to `batch_max` queued jobs per
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics when `workers` or `batch_max` is zero.
    pub(crate) fn start_with(
        workers: usize,
        batch_max: usize,
        config: Arc<ServerConfig>,
        stats: Arc<ServerStats>,
    ) -> Self {
        assert!(workers > 0, "at least one engine");
        assert!(batch_max > 0, "a batch holds at least one job");
        let shared = Arc::new(SharedOpaque(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                live: vec![true; workers],
                idle: vec![false; workers],
                open: true,
            }),
            ready: Condvar::new(),
            batch_max,
        }));
        let workers = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let config = Arc::clone(&config);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(index, &shared.0, &config, &stats))
            })
            .collect();
        CryptoPool { shared, workers, stats }
    }

    /// Submits a job without blocking. The queue has no slot bound: a
    /// connection holds at most one job, so the pool refuses a job only
    /// when it can never run it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] when the pool is shut down or every engine
    /// has been killed (permanent: fail the connection).
    // The error carries the refused job back — a payload, not an error
    // condition — so its size is inherent to the contract.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        conn: u64,
        job: CryptoJob,
        reply: &Sender<PoolReply>,
    ) -> Result<(), SubmitError> {
        let shared = &self.shared.0;
        shared.state.lock().expect("pool lock").enqueue(&self.stats, conn, job, reply)?;
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

/// Collects one batch for engine `index` under the scheduling rule: the
/// oldest job, then — with `batch_max` &gt; 1 — siblings already queued,
/// taken only while no other live engine is idle. The siblings come off
/// the queue under the same lock acquisition as the first job, so a batch
/// is exactly the backlog the engine found. Returns `None` when the engine
/// is dead or the pool shut down with nothing left to take.
fn collect_batch(index: usize, shared: &Shared) -> Option<Vec<CryptoTask>> {
    let mut st = shared.state.lock().expect("pool lock");
    st.idle[index] = true;
    let first = loop {
        if !st.live[index] {
            break None;
        }
        if let Some(task) = st.queue.pop_front() {
            break Some(task);
        }
        if !st.open {
            break None;
        }
        st = shared.ready.wait_timeout(st, IDLE_WAIT).expect("pool lock").0;
    };
    st.idle[index] = false;
    let mut batch = Vec::with_capacity(shared.batch_max);
    batch.push(first?);
    while batch.len() < shared.batch_max && !st.any_idle() {
        let Some(task) = st.queue.pop_front() else { break };
        batch.push(task);
    }
    Some(batch)
}

fn worker_loop(index: usize, shared: &Shared, config: &ServerConfig, stats: &ServerStats) {
    loop {
        let Some(batch) = collect_batch(index, shared) else { return };
        let (routes, jobs): (Vec<_>, Vec<_>) =
            batch.into_iter().map(|task| ((task.conn, task.reply), task.job)).unzip();
        let dones = match <[CryptoJob; 1]>::try_from(jobs) {
            Ok([job]) => vec![job.execute(config.key())],
            Err(jobs) => CryptoJob::execute_batch(jobs, config.key()),
        };
        stats.note_crypto_batch(&dones);
        // The batch is no longer queued *or* executing.
        stats.crypto_queue_depth.fetch_sub(dones.len() as u64, Ordering::Relaxed);
        for ((conn, reply), done) in routes.into_iter().zip(dones) {
            // A send failure means the shard is gone; the result is moot.
            let _ = reply.send(PoolReply { conn, done });
        }
    }
}

#[cfg(test)]
impl CryptoPool {
    /// Polls until `ready` holds of the pool state and returns the lock
    /// still held, so the caller acts on exactly the state it saw.
    fn await_state(
        &self,
        ready: impl Fn(&PoolState) -> bool,
    ) -> std::sync::MutexGuard<'_, PoolState> {
        loop {
            let st = self.shared.0.state.lock().expect("pool lock");
            if ready(&st) {
                return st;
            }
            drop(st);
            std::thread::yield_now();
        }
    }

    /// Once every live engine is seen waiting on an empty queue, enqueues
    /// the whole burst under that one acquisition of the lock, through
    /// `try_submit`'s own enqueue. No engine can take a job until the
    /// burst is complete, so which jobs batch together and what depth each
    /// one sees are fixed by the burst, not by thread timing.
    fn submit_burst(&self, jobs: Vec<(u64, CryptoJob)>, reply: &Sender<PoolReply>) {
        let mut st = self.await_state(|st| {
            st.queue.is_empty() && st.live.iter().zip(&st.idle).all(|(&live, &idle)| idle || !live)
        });
        for (conn, job) in jobs {
            st.enqueue(&self.stats, conn, job, reply).expect("a running pool accepts every job");
        }
        drop(st);
        self.shared.0.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_rng::SslRng;
    use sslperf_rsa::{LimbWidth, RsaPrivateKey};
    use sslperf_ssl::{
        CipherSuite, CryptoOutput, Engine, EngineDriven, SslClient, SslError, SslServer,
    };
    use std::sync::mpsc;
    use std::sync::OnceLock;

    fn config() -> Arc<ServerConfig> {
        let mut rng = SslRng::from_seed(b"cryptopool-test-key");
        let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
        Arc::new(ServerConfig::new(key, "pool.test").expect("config"))
    }

    /// A key whose decrypt is real work for a test that needs an engine
    /// busy: 3072 bits on the u32 limbs, ~14 ms per job on a 2-vCPU guest.
    /// Generated once per test binary.
    fn slow_config() -> Arc<ServerConfig> {
        static SLOW: OnceLock<Arc<ServerConfig>> = OnceLock::new();
        let config = SLOW.get_or_init(|| {
            let mut rng = SslRng::from_seed(b"cryptopool-slow-key");
            let mut key = RsaPrivateKey::generate(3072, &mut rng).expect("keygen");
            key.set_limb_width(LimbWidth::U32);
            Arc::new(ServerConfig::new(key, "slow.pool.test").expect("config"))
        });
        Arc::clone(config)
    }

    /// Drives an offloaded engine handshake through the pool end to end.
    #[test]
    fn pool_executes_suspended_jobs() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start(2, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        let (mut client, mut server, job) = suspended_pair(&config, 7);
        pool.try_submit(7, job, &reply_tx).expect("queue has room");
        let reply = reply_rx.recv().expect("pool reply");
        assert_eq!(reply.conn, 7);
        server.complete_crypto(reply.done).expect("resume");
        exchange(&mut client, &mut server, &mut Vec::new());
        assert!(client.is_established() && server.is_established(), "handshake completes");
        assert_eq!(stats.crypto_jobs(), 1);
        assert_eq!(stats.crypto_queue_depth_max(), 1);
        // An unbatched pool reports one batch per job, all solo.
        assert_eq!(stats.crypto_batches(), 1);
        assert_eq!(stats.crypto_batched_jobs(), 0);
        pool.shutdown();
    }

    /// The queue has no slot bound: a running pool accepts every job it is
    /// given, however far behind its one engine is, and serves them oldest
    /// first.
    #[test]
    fn backlog_is_accepted_whole_and_served_in_order() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start(1, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        let jobs = 65;
        pool.submit_burst(
            (0..jobs).map(|seq| (seq, suspended_job(&config, seq).1)).collect(),
            &reply_tx,
        );
        let order: Vec<u64> = (0..jobs).map(|_| reply_rx.recv().expect("reply").conn).collect();
        assert_eq!(order, (0..jobs).collect::<Vec<_>>(), "replies in submission order");
        assert_eq!(stats.crypto_jobs(), jobs);
        assert_eq!(stats.crypto_queue_depth_max(), jobs, "the whole backlog was queued at once");
        assert_eq!((stats.crypto_batches(), stats.crypto_batched_jobs()), (jobs, 0));
        pool.shutdown();
    }

    /// A second job starts on an idle engine instead of batching with the
    /// first or waiting behind it.
    #[test]
    fn idle_engine_takes_the_second_job() {
        // batch_max 4: both jobs arrive in one burst while both engines
        // wait. The engine that takes the first sees its sibling idle and
        // leaves the second to it: two solo batches, not one pair.
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start_with(2, 4, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        pool.submit_burst(
            (0..2).map(|seq| (seq, suspended_job(&config, seq).1)).collect(),
            &reply_tx,
        );
        for _ in 0..2 {
            reply_rx.recv().expect("reply");
        }
        assert_eq!(
            (stats.crypto_batches(), stats.crypto_batched_jobs()),
            (2, 0),
            "batch_max 4: the second job went to the idle engine"
        );
        pool.shutdown();

        // batch_max 1: A is a 3072-bit decrypt, submitted once both engines
        // wait; B is a one-record seal, submitted once A has left the
        // queue. B comes back first only if the idle engine took it while
        // A's engine was still busy.
        let slow = slow_config();
        let pool = CryptoPool::start(2, Arc::clone(&slow), Arc::new(ServerStats::default()));
        let (reply_tx, reply_rx) = mpsc::channel();
        pool.submit_burst(vec![(0, suspended_job(&slow, 0).1)], &reply_tx);
        drop(pool.await_state(|st| st.queue.is_empty()));
        let b = CryptoJob::new_bulk(vec![0x5a; 64], SslRng::from_seed(b"second-job"));
        pool.try_submit(1, b, &reply_tx).expect("pool is running");
        let order: Vec<u64> = (0..2).map(|_| reply_rx.recv().expect("reply").conn).collect();
        assert_eq!(order, [1, 0], "batch_max 1: B ran beside A instead of waiting behind it");
        pool.shutdown();
    }

    /// The collector never waits, yet a backlog still combines, because
    /// the jobs are already queued when the engine comes for more. Each
    /// batched result still resumes its own handshake (results route by
    /// connection id).
    #[test]
    fn zero_deadline_batches_the_backlog() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start_with(1, 4, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        let burst = 9u64;
        let (mut engines, jobs): (Vec<_>, Vec<_>) =
            (0..burst).map(|seq| suspended_job(&config, seq)).unzip();
        pool.submit_burst((0..burst).zip(jobs).collect(), &reply_tx);
        for _ in 0..burst {
            let reply = reply_rx.recv().expect("reply");
            engines[reply.conn as usize].complete_crypto(reply.done).expect("resume");
        }
        assert_eq!(stats.crypto_jobs(), burst);
        assert_eq!(stats.crypto_batches(), 3, "batches of 4, 4 and 1");
        assert_eq!(stats.crypto_batched_jobs(), 8, "the two full batches");
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
        let pool = CryptoPool::start_with(1, 4, Arc::clone(&config), Arc::clone(&stats));
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
        pool.submit_burst(vec![(1, doomed_job), (2, sibling_job)], &reply_tx);
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
    /// and its high-water mark is sampled at enqueue. Before the fix the
    /// collector decremented the depth as it *dequeued* into a batch, so a
    /// burst absorbed into one batch under-reported its depth. Here a
    /// burst of four 3072-bit decrypts is taken as one batch, and a job
    /// submitted while that batch executes still sees all four ahead of it.
    #[test]
    fn burst_depth_high_water_is_sampled_at_enqueue() {
        let config = slow_config();
        let stats = Arc::new(ServerStats::default());
        let burst = 4u64;
        let pool =
            CryptoPool::start_with(1, burst as usize, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        pool.submit_burst(
            (0..burst).map(|seq| (seq, suspended_job(&config, seq).1)).collect(),
            &reply_tx,
        );
        drop(pool.await_state(|st| st.queue.is_empty()));
        let late = CryptoJob::new_bulk(vec![0xa5; 64], SslRng::from_seed(b"late-job"));
        pool.try_submit(burst, late, &reply_tx).expect("pool is running");
        for _ in 0..=burst {
            reply_rx.recv().expect("burst reply");
        }
        // Depth 5, not 4: the late job counts the executing batch.
        assert_eq!(stats.crypto_queue_depth_max(), burst + 1, "burst fully visible");
        assert_eq!((stats.crypto_batches(), stats.crypto_batched_jobs()), (2, burst));
        assert_eq!(stats.crypto_queue_depth(), 0, "depth settles once execution completes");
        pool.shutdown();
    }

    /// Killing an engine mid-backlog leaves the survivor to drain the
    /// queue: every handshake still completes. With every engine killed the
    /// pool refuses new work for good and hands the job back.
    #[test]
    fn killed_engine_leaves_the_backlog_to_the_survivor() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start(2, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        let burst = 8u64;
        let (mut engines, jobs): (Vec<_>, Vec<_>) =
            (0..burst).map(|seq| suspended_job(&config, seq)).unzip();
        pool.submit_burst((0..burst).zip(jobs).collect(), &reply_tx);
        assert!(pool.kill_engine(0), "engine 0 dies mid-backlog");
        assert!(!pool.kill_engine(0), "already dead");
        // Every handshake still completes: the survivor drains the backlog.
        for _ in 0..burst {
            let reply = reply_rx.recv_timeout(Duration::from_secs(30)).expect("reply");
            engines[reply.conn as usize]
                .complete_crypto(reply.done)
                .expect("resume after engine death");
        }
        assert_eq!(stats.crypto_jobs(), burst);
        assert!(pool.kill_engine(1), "the survivor dies too");
        let job = suspended_job(&config, 77).1;
        match pool.try_submit(77, job, &reply_tx) {
            Err(SubmitError::ShutDown(job)) => {
                assert!(matches!(job.op(), CryptoOp::RsaDecrypt { .. }))
            }
            Ok(()) => panic!("a pool with no live engine accepted a job"),
        }
        assert_eq!(stats.crypto_jobs(), burst, "the refused job is not counted");
        pool.shutdown();
    }

    /// Bulk-cipher jobs run on any engine, beside key-exchange jobs, and
    /// their sealed records come back through the same reply path.
    #[test]
    fn bulk_jobs_come_back_sealed() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start(2, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        for seq in 0..4u64 {
            let rng = SslRng::from_seed(format!("bulk-{seq}").as_bytes());
            let job = CryptoJob::new_bulk(vec![0xA5; 1024], rng);
            pool.try_submit(seq, job, &reply_tx).expect("pool is running");
        }
        let (mut server, job) = suspended_job(&config, 77);
        pool.try_submit(77, job, &reply_tx).expect("pool is running");
        for _ in 0..5 {
            let reply = reply_rx.recv().expect("reply");
            if reply.conn == 77 {
                server.complete_crypto(reply.done).expect("resume");
                continue;
            }
            match reply.done.output() {
                Ok(CryptoOutput::Sealed(record)) => {
                    assert!(record.len() > 1024, "MAC-then-encrypt grows the payload");
                }
                other => panic!("bulk job must seal: {other:?}"),
            }
        }
        assert_eq!(stats.crypto_bulk_jobs(), 4);
        assert_eq!(stats.crypto_jobs(), 5, "bulk and key-exchange jobs alike");
        pool.shutdown();
    }

    /// With the pool enabled the server's wire flights are byte-identical
    /// to the inline path under the same seeds — the rng discipline
    /// survives scheduling.
    #[test]
    fn pool_keeps_flights_byte_identical() {
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
        let pool = CryptoPool::start(2, Arc::clone(&config), Arc::clone(&stats));
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
            "flights must stay byte-identical with the pool enabled"
        );
        pool.shutdown();
    }

    /// A batch is invisible on the wire: four handshakes whose decrypts
    /// ran as one batch put out, byte for byte, the server streams their
    /// inline runs do under the same seeds.
    #[test]
    fn burst_batch_keeps_every_server_stream_byte_identical() {
        let config = config();
        let stats = Arc::new(ServerStats::default());
        let pool = CryptoPool::start_with(1, 4, Arc::clone(&config), Arc::clone(&stats));
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut conns: Vec<_> = (0..4)
            .map(|seq| {
                let (client, server) = engine_pair(&config, seq);
                (client, server, Vec::new())
            })
            .collect();
        let mut jobs = Vec::new();
        for (seq, (client, server, stream)) in (0..).zip(&mut conns) {
            exchange(client, server, stream);
            jobs.push((seq, server.take_crypto_job().expect("suspended job")));
        }
        pool.submit_burst(jobs, &reply_tx);
        drop(reply_tx);
        for _ in 0..4 {
            let reply = reply_rx.recv().expect("every burst job replies");
            let (client, server, stream) = &mut conns[reply.conn as usize];
            server.complete_crypto(reply.done).expect("resume with batched result");
            exchange(client, server, stream);
        }
        assert_eq!((stats.crypto_batches(), stats.crypto_batched_jobs()), (1, 4));
        for (seq, (_, _, stream)) in (0..).zip(&conns) {
            let (mut client, mut server) = engine_pair(&config, seq);
            server.set_crypto_offload(false);
            let inline = drive_and_capture(&mut client, &mut server, None);
            assert_eq!(*stream, inline, "connection {seq}: batched stream differs from inline");
        }
        pool.shutdown();
    }

    /// Runs a full handshake, returning every server flight byte in order.
    fn drive_and_capture(
        client: &mut Engine<SslClient>,
        server: &mut Engine<SslServer<'_>>,
        pool: Option<&CryptoPool>,
    ) -> Vec<u8> {
        let mut server_bytes = Vec::new();
        exchange(client, server, &mut server_bytes);
        if let Some(pool) = pool {
            let job = server.take_crypto_job().expect("suspended job");
            let (reply_tx, reply_rx) = mpsc::channel();
            pool.try_submit(1, job, &reply_tx).expect("queue has room");
            let reply = reply_rx.recv().expect("pool reply");
            server.complete_crypto(reply.done).expect("resume");
            exchange(client, server, &mut server_bytes);
        }
        server_bytes
    }

    /// Moves bytes both ways until both engines are established or the
    /// server suspends on its key exchange, appending every byte the
    /// server sends to `server_bytes`.
    fn exchange(
        client: &mut Engine<SslClient>,
        server: &mut Engine<SslServer<'_>>,
        server_bytes: &mut Vec<u8>,
    ) {
        let mut wire = vec![0u8; 16 * 1024];
        for _ in 0..16 {
            if server.crypto_pending() || (client.is_established() && server.is_established()) {
                return;
            }
            pump(client, server, &mut wire);
            let n = server.take_output(&mut wire);
            server_bytes.extend_from_slice(&wire[..n]);
            let mut offset = 0;
            while offset < n {
                offset += client.feed(&wire[offset..n]).expect("client feed");
            }
        }
        panic!("handshake did not converge");
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
        exchange(&mut client, &mut server, &mut Vec::new());
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
