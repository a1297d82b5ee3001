//! Sharded multi-image executor: the engine under [`crate::DiffPipeline`]
//! and `diffd`, generalized so the schedulable unit is a **job** — one
//! independent image-pair diff (kernel, row-range, source `Arc`s, job id,
//! contiguous ticket range) — instead of a per-batch chunk list drained by
//! a single collector.
//!
//! Many jobs are in flight on one shard set at once, through three
//! layers:
//!
//! * **Job-fair scheduling.** Every shard keeps one deque *per job* plus a
//!   round-robin rotation over the job ids present, so chunks from
//!   different jobs interleave: a submitter with four rows gets its turn
//!   between the chunks of a 100 000-row batch instead of queueing behind
//!   all of them. Work-stealing is unchanged (the owner pops the front of
//!   the rotated job's deque, a thief the back), and steals are attributed
//!   to the stolen chunk's job.
//! * **Result routing keyed by job id, one block per chunk.** A worker
//!   fills one [`ChunkOutcome`] per chunk — the chunk's rows, their summed
//!   statistics, kernel tallies and first error — and appends it to the
//!   owning job's completion state (a mutex + condvar pair per job) under
//!   one lock. There is no shared collector loop, no global pending queue
//!   and no per-row hand-off. [`JobHandle::collect_chunk`] waits on its
//!   own job's condvar. Both batch front ends,
//!   [`DiffExecutor::diff_pair`] and [`crate::DiffPipeline::diff_images_shared`],
//!   run through one batch routine that plans the rows the host has not
//!   resolved, submits them as one job and places each block at its image
//!   rows. Concurrent submitters never contend except on the shard queues
//!   themselves.
//! * **Job-granular supervision.** A dedicated supervisor thread ticks
//!   every `SUPERVISION_TICK`, respawns dead workers and recovers the
//!   orphaned chunk from the dead worker's checkout slot — retried, failed
//!   past the retry budget, or written off if its job was already
//!   abandoned. Retries, respawns, timeouts, steals and buffer hits are
//!   counted twice: globally (the lifetime
//!   [`SupervisionCounters`] / metrics) and on the owning job, which is
//!   what makes per-job [`PipelineStats`] exact under interleaving. Each
//!   supervision event is booked at one site (`Shared::book_retry`,
//!   `book_respawn`, `book_timeout`).
//!
//! Abandonment is per job: an expired job drops its queued chunks, writes
//! off the rows a wedged worker still holds, and discards their stale
//! results on arrival — other jobs on the same executor are untouched.
//! The ticket space stays global and monotonic, so a fresh executor still
//! numbers rows `0, 1, 2, …` in submission order and the deterministic
//! fault drills keep addressing rows by ticket.

use crate::engine::kernel::{self, Kernel, KernelChoice, KernelScratch};
use crate::engine::pipeline::{lock, PipelineLoad, RowOutcome, SupervisionCounters, Ticket};
use crate::engine::simd::SimdLevel;
use crate::error::SystolicError;
use crate::image::check_dims;
use crate::obs::{ObsConfig, Observer, TraceKind};
use crate::stats::{ArrayStats, PipelineStats};
use rle::{RleImage, RleRow};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use crate::engine::fault::{Fault, FaultPlan};

/// How often the supervisor thread checks worker liveness (and a blocked
/// worker or collector re-polls — the doorbell backstop).
pub(crate) const SUPERVISION_TICK: Duration = Duration::from_millis(20);

/// The scheduler aims for this many chunks per worker, so stragglers can
/// steal the tail of a job without per-row traffic.
pub(crate) const CHUNKS_PER_WORKER: usize = 4;

/// At most this many spare chunk row vectors are kept for reuse.
const SPARE_POOL_CAP: usize = 64;

/// Where a job's row pairs live: the two images, shared with the caller
/// and indexed by absolute image row. Cloning is `Arc`-cheap, which is
/// what makes chunk checkout (and retry re-enqueue) free of row copies.
#[derive(Clone)]
struct RowsSource {
    a: Arc<RleImage>,
    b: Arc<RleImage>,
}

/// A contiguous chunk of one job's row pairs: the scheduling, checkout and
/// retry unit. Row `i` (for `lo <= i < hi`) carries ticket
/// `base + (i - lo)`, so per-row identity survives chunking; the `job`
/// `Arc` routes every result (and every supervision event) back to the
/// owner.
#[derive(Clone)]
struct Chunk {
    base: u64,
    lo: usize,
    hi: usize,
    attempts: u32,
    source: RowsSource,
    job: Arc<JobState>,
}

impl Chunk {
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    fn ticket_of(&self, i: usize) -> u64 {
        self.base + (i - self.lo) as u64
    }

    fn row(&self, i: usize) -> (&RleRow, &RleRow) {
        (&self.source.a.rows()[i], &self.source.b.rows()[i])
    }

    /// A sub-chunk over `[lo, hi)` keeping this chunk's attempt count,
    /// per-row tickets and job.
    fn slice(&self, lo: usize, hi: usize) -> Chunk {
        Chunk {
            base: self.base + (lo - self.lo) as u64,
            lo,
            hi,
            attempts: self.attempts,
            source: self.source.clone(),
            job: Arc::clone(&self.job),
        }
    }

    /// An empty result block for this chunk, filling `rows`.
    fn outcome(&self, worker: usize, rows: Vec<RleRow>) -> ChunkOutcome {
        ChunkOutcome {
            base: self.base,
            lo: self.lo,
            len: self.len(),
            worker,
            rows,
            stats: ArrayStats::default(),
            max_row_iterations: 0,
            kernels: [0; 4],
            error: None,
        }
    }
}

/// One delivered chunk: the results of all its rows as one block, so a
/// chunk costs one hand-off to its job instead of one per row. Row
/// `lo + k` of the image carries ticket `base + k`.
#[derive(Debug)]
pub struct ChunkOutcome {
    /// Ticket of the block's first row.
    pub base: u64,
    /// Image row of the block's first row.
    pub lo: usize,
    /// Rows the block accounts for: the diffed `rows` plus any that
    /// errored.
    pub len: usize,
    /// Index of the pool worker that delivered the block.
    pub worker: usize,
    /// The diffed rows in row order. Rows that errored are missing, so
    /// when `error` is set the positions after the first failure shift.
    pub rows: Vec<RleRow>,
    /// The per-row statistics of `rows`, summed.
    pub stats: ArrayStats,
    /// The largest per-row iteration count among `rows`.
    pub max_row_iterations: u64,
    /// Rows per kernel, indexed like [`KernelChoice::ALL`].
    pub kernels: [usize; 4],
    /// The first row error of the block, if any row errored.
    pub error: Option<SystolicError>,
}

/// Mutable completion state of one job, guarded by the job's mutex.
struct JobInner {
    /// Delivered blocks not yet taken by [`JobHandle::collect_chunk`].
    pending: VecDeque<ChunkOutcome>,
    /// Rows submitted but not yet delivered (queued, checked out, or held
    /// by a wedged worker).
    undelivered: usize,
    /// The job was abandoned: stale deliveries are discarded on arrival.
    abandoned: bool,
    /// All rows were delivered (ledger jobs only; guards the
    /// `jobs_completed` count against double-fire).
    completed: bool,
    /// Wedged rows a worker still holds for this abandoned job; each one
    /// decrements on (discarded) arrival or orphan recovery.
    stale: usize,
    /// Which worker slots delivered at least one successful row.
    seen: Vec<bool>,
}

/// One job: identity, ticket range, completion state and per-job
/// supervision attribution.
struct JobState {
    id: u64,
    lo: u64,
    hi: u64,
    /// Chunks the job was planned into (0 for the streaming job, whose
    /// rows are single-row chunks ticketed individually).
    chunks: usize,
    /// Whether this job participates in the batch/job ledgers
    /// (`batches`, `jobs_submitted`, …); the streaming front end's
    /// persistent job does not.
    ledger: bool,
    created: Instant,
    /// Nanoseconds from job creation to the first chunk checkout, plus one
    /// (0 = no chunk checked out yet). The submit→first-dispatch delay is
    /// the executor's honest "queue wait": time the job spent waiting for
    /// a worker, as opposed to computing.
    first_checkout_ns: AtomicU64,
    retries: AtomicU64,
    respawns: AtomicU64,
    timeouts: AtomicU64,
    steals: AtomicU64,
    buffer_hits: AtomicU64,
    inner: Mutex<JobInner>,
    bell: Condvar,
}

impl JobState {
    fn rows(&self) -> u64 {
        self.hi - self.lo
    }

    fn stamp_checkout(&self) {
        if self.first_checkout_ns.load(Ordering::Relaxed) == 0 {
            let ns = (self.created.elapsed().as_nanos() as u64).saturating_add(1);
            let _ = self.first_checkout_ns.compare_exchange(
                0,
                ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

/// Per-shard queue state: one deque per job plus a round-robin rotation
/// over the job ids present, so a pop services jobs in turn instead of
/// first-come-first-drained.
#[derive(Default)]
struct JobQueues {
    /// Rotation order; an id is present iff its deque is non-empty, once.
    order: VecDeque<u64>,
    queues: HashMap<u64, VecDeque<Chunk>>,
}

impl JobQueues {
    fn push(&mut self, chunk: Chunk) {
        let id = chunk.job.id;
        let queue = self.queues.entry(id).or_default();
        if queue.is_empty() {
            self.order.push_back(id);
        }
        queue.push_back(chunk);
    }

    /// Pops one chunk, rotating the job order: the owner takes the front
    /// of the next job's deque, a thief the back.
    fn pop(&mut self, own: bool) -> Option<Chunk> {
        let id = self.order.pop_front()?;
        let queue = self.queues.get_mut(&id).expect("ordered job is queued");
        let chunk = if own {
            queue.pop_front()
        } else {
            queue.pop_back()
        };
        if queue.is_empty() {
            self.queues.remove(&id);
        } else {
            self.order.push_back(id);
        }
        chunk
    }

    /// Drops every queued chunk of `job`; returns `(chunks, rows)`
    /// dropped.
    fn remove_job(&mut self, job: u64) -> (usize, usize) {
        let Some(queue) = self.queues.remove(&job) else {
            return (0, 0);
        };
        self.order.retain(|&id| id != job);
        let rows = queue.iter().map(Chunk::len).sum();
        (queue.len(), rows)
    }
}

/// One worker's slice of the scheduler: its job-fair input queues and its
/// checkout slot, each behind its own short-lived lock.
#[derive(Default)]
struct Shard {
    queue: Mutex<JobQueues>,
    /// The chunk this worker is currently processing, parked here so the
    /// supervisor can recover it if the thread dies mid-chunk.
    running: Mutex<Option<Chunk>>,
}

struct Shared {
    shards: Vec<Shard>,
    /// Chunks sitting in shard queues (fast-path emptiness check for
    /// workers; mutated inside the owning shard's queue lock).
    queued: AtomicUsize,
    /// Rows submitted but not yet collected or written off, across all
    /// jobs.
    in_flight: AtomicUsize,
    /// Rows delivered to a live job but not yet collected.
    ready_rows: AtomicUsize,
    /// Rows written off by abandoned jobs whose stale results are still
    /// outstanding; drains back to 0 as they arrive or are recovered.
    abandoned_rows: AtomicUsize,
    next_ticket: AtomicU64,
    next_job_id: AtomicU64,
    /// Round-robin cursor dealing chunks across the shards.
    submit_cursor: AtomicUsize,
    shutdown: AtomicBool,
    /// Doorbell for workers: producers notify while holding the bell, and
    /// sleepers re-check `queued` under it, so a push can never slip
    /// between a worker's check and its wait.
    work_bell: Mutex<()>,
    work_ready: Condvar,
    /// The supervisor's private bell, so a streaming submit's `notify_one`
    /// can never be swallowed by the supervisor instead of a worker.
    sup_bell: Mutex<()>,
    sup_ready: Condvar,
    retries: AtomicU64,
    respawns: AtomicU64,
    timeouts: AtomicU64,
    /// Chunks popped from a sibling shard's queue (tail rebalancing).
    steals: AtomicU64,
    /// Chunk row vectors recycled back to workers.
    spare: Mutex<Vec<Vec<RleRow>>>,
    /// How many times a worker got a recycled vector instead of
    /// allocating.
    buffer_hits: AtomicU64,
    kernel: Kernel,
    /// Resolved SIMD level every worker's kernel scratch is built with.
    simd: SimdLevel,
    /// Chunk-weight target for `submit_pair` plans.
    chunk_target: Option<usize>,
    retry_limit: u32,
    /// Worker thread handles, shared between the supervisor (respawns)
    /// and `Drop` (joins). Indexed by worker slot.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Observability sink, shared by workers, supervisor and collectors.
    /// `None` keeps every recording site to a single predictable branch.
    obs: Option<Arc<Observer>>,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultPlan>,
}

impl Shared {
    /// Enqueues a chunk onto `shard`'s queues. The queue count and depth
    /// gauge move inside the same critical section as the push, so
    /// neither can drift from the queues' true contents.
    fn push_chunk(&self, shard: usize, chunk: Chunk) {
        let mut queue = lock(&self.shards[shard].queue);
        queue.push(chunk);
        self.queued.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.queue_depth.add(1);
        }
    }

    fn pop_shard(&self, shard: usize, own: bool) -> Option<Chunk> {
        let mut queue = lock(&self.shards[shard].queue);
        let chunk = queue.pop(own);
        if chunk.is_some() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.metrics.queue_depth.sub(1);
            }
        }
        chunk
    }

    /// One non-blocking attempt to find work for `worker`: its own shard
    /// first, then each sibling in ring order (a steal, attributed to the
    /// stolen chunk's job).
    fn try_pop(&self, worker: usize) -> Option<Chunk> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        if let Some(chunk) = self.pop_shard(worker, true) {
            return Some(chunk);
        }
        let n = self.shards.len();
        for d in 1..n {
            if let Some(chunk) = self.pop_shard((worker + d) % n, false) {
                self.steals.fetch_add(1, Ordering::Relaxed);
                chunk.job.steals.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.metrics.chunks_stolen.inc();
                }
                return Some(chunk);
            }
        }
        None
    }

    /// Blocks until a chunk is available for `worker` or shutdown is
    /// requested. The doorbell re-check plus tick timeout make a lost
    /// wakeup impossible to get stuck on.
    fn next_chunk(&self, worker: usize) -> Option<Chunk> {
        loop {
            if let Some(chunk) = self.try_pop(worker) {
                return Some(chunk);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            let bell = lock(&self.work_bell);
            if self.queued.load(Ordering::Relaxed) > 0 {
                continue; // work arrived between the pop and the bell
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            let _unused = self
                .work_ready
                .wait_timeout(bell, SUPERVISION_TICK)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn notify_work_all(&self) {
        let _bell = lock(&self.work_bell);
        self.work_ready.notify_all();
    }

    fn notify_work_one(&self) {
        let _bell = lock(&self.work_bell);
        self.work_ready.notify_one();
    }

    fn counters(&self) -> SupervisionCounters {
        SupervisionCounters {
            retries: self.retries.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Books one chunk re-enqueue after a panic or worker death: the
    /// lifetime and per-job counters, the registry and the trace.
    fn book_retry(&self, chunk: &Chunk) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        chunk.job.retries.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.retries.inc();
            obs.record(TraceKind::Retry {
                chunk: chunk.base,
                rows: chunk.len() as u32,
                attempt: chunk.attempts,
            });
        }
    }

    /// Books one replaced worker thread; `job` owns the chunk the dead
    /// worker held, if it held one.
    fn book_respawn(&self, worker: usize, job: Option<&JobState>) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
        if let Some(job) = job {
            job.respawns.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = &self.obs {
            obs.metrics.respawns.inc();
            obs.record(TraceKind::Respawn {
                worker: worker as u32,
            });
        }
    }

    /// Books one collect deadline expiry on `job` with `in_flight` rows
    /// still undelivered.
    fn book_timeout(&self, job: &JobState, in_flight: usize) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        job.timeouts.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.timeouts.inc();
            obs.record(TraceKind::Timeout {
                in_flight: in_flight as u64,
            });
        }
    }

    fn take_spare(&self, job: &JobState) -> Vec<RleRow> {
        let recycled = lock(&self.spare).pop();
        match recycled {
            Some(vec) => {
                self.buffer_hits.fetch_add(1, Ordering::Relaxed);
                job.buffer_hits.fetch_add(1, Ordering::Relaxed);
                vec
            }
            None => Vec::new(),
        }
    }

    fn return_spare(&self, mut vec: Vec<RleRow>) {
        vec.clear();
        if vec.capacity() == 0 {
            return;
        }
        let mut pool = lock(&self.spare);
        if pool.len() < SPARE_POOL_CAP {
            pool.push(vec);
        }
    }

    fn gauge_in_flight(&self, delta: i64) {
        if let Some(obs) = &self.obs {
            obs.metrics.in_flight.add(delta);
        }
    }

    /// Routes one finished block to its owning job: a live job appends it
    /// to its pending blocks (ringing its bell); an abandoned job's block
    /// is discarded here, never delivered — the result-isolation
    /// invariant — and its row vector recycled.
    fn deliver(&self, job: &Arc<JobState>, block: ChunkOutcome) {
        let (n, ok) = (block.len, block.rows.len());
        let mut inner = lock(&job.inner);
        if inner.abandoned {
            inner.stale = inner.stale.saturating_sub(n);
            drop(inner);
            // Only successfully diffed rows entered `rows_diffed`; booking
            // errored rows as discarded would unbalance the
            // `rows_diffed == rows_completed + rows_discarded` ledger.
            if let Some(obs) = &self.obs {
                obs.metrics.rows_discarded.add(ok as u64);
            }
            sub_clamped(&self.abandoned_rows, n);
            self.return_spare(block.rows);
            return;
        }
        if let Some(obs) = &self.obs {
            obs.metrics.rows_completed.add(ok as u64);
            obs.metrics.rows_errored.add((n - ok) as u64);
        }
        if ok > 0 {
            inner.seen[block.worker] = true;
        }
        inner.undelivered -= n;
        self.ready_rows.fetch_add(n, Ordering::Relaxed);
        if inner.undelivered == 0 && job.ledger && !inner.completed {
            inner.completed = true;
            if let Some(obs) = &self.obs {
                obs.metrics.jobs_completed.inc();
                obs.record(TraceKind::JobDone {
                    job: job.id,
                    rows: job.rows(),
                });
            }
        }
        inner.pending.push_back(block);
        job.bell.notify_all();
    }
}

/// When a batch collect ([`JobHandle::collect_image`]) gives up.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Deadline {
    /// A fixed instant for the whole job; `None` waits indefinitely.
    At(Option<Instant>),
    /// The longest wait for each next block, restarting per block.
    PerBlock(Duration),
}

/// `fetch_sub(n)` clamped at zero, robust against double write-offs.
fn sub_clamped(counter: &AtomicUsize, n: usize) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(n))
    });
}

/// Configuration for a [`DiffExecutor`]. A [`crate::DiffPipelineConfig`]
/// holds one of these for its pool and adds only what is per stream: the
/// row deadline and the signature prefilter.
#[derive(Clone, Debug)]
pub struct DiffExecutorConfig {
    /// Worker threads in the pool (must be > 0).
    pub threads: usize,
    /// Extra attempts the supervisor grants a chunk whose worker panicked
    /// or died. A chunk is attempted at most `retry_limit + 1` times before
    /// its culprit row surfaces as [`SystolicError::RowFailed`].
    pub retry_limit: u32,
    /// How long [`Drop`] waits for workers to exit before detaching wedged
    /// threads instead of joining them (the never-deadlock guarantee).
    pub shutdown_grace: Duration,
    /// Kernel policy workers diff rows with (default [`Kernel::Auto`]).
    pub kernel: Kernel,
    /// SIMD level for the packed kernel's run-comparison scan. `None` (the
    /// default) resolves from the `SYSTOLIC_SIMD` environment variable,
    /// falling back to runtime CPU detection. `Some` requests an explicit
    /// level, clamped down to what the host actually supports — a forced
    /// level can narrow the choice, never exceed the hardware.
    pub simd: Option<SimdLevel>,
    /// Target scheduling weight per chunk, measured in input runs (each row
    /// weighs `k1 + k2 + 1`). `None` (the default) derives it from the
    /// batch: `total_weight / (threads * 4)`, clamped to at least one row —
    /// and the derived plan is further split until it has at least one
    /// chunk per worker (an explicit target is honoured exactly).
    pub chunk_target: Option<usize>,
    /// Observability: `Some` attaches an [`Observer`] (metrics registry +
    /// trace ring) to the executor. `None` (the default) compiles every
    /// recording site down to one predictable `if let` branch — no
    /// timestamps are taken and nothing is recorded.
    pub observe: Option<ObsConfig>,
    /// Deterministic fault schedule for tests (see
    /// [`crate::engine::fault`]).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<FaultPlan>,
}

impl Default for DiffExecutorConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            retry_limit: 2,
            shutdown_grace: Duration::from_millis(500),
            kernel: Kernel::Auto,
            simd: None,
            chunk_target: None,
            observe: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl DiffExecutorConfig {
    /// A default configuration over `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Builds the executor described by this configuration.
    #[must_use]
    pub fn build(self) -> DiffExecutor {
        DiffExecutor::new(self)
    }
}

/// Everything [`DiffExecutor::diff_pair`] reports about one finished job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id (monotonic per executor).
    pub job: u64,
    /// The contiguous ticket range `[lo, hi)` the job's rows occupied.
    pub tickets: (u64, u64),
    /// The reassembled diff image.
    pub image: RleImage,
    /// Per-job statistics — retries, respawns, steals and buffer hits are
    /// attributed to *this* job only, exact under interleaving.
    pub stats: PipelineStats,
    /// Submission → first chunk checkout: time the job waited for a
    /// worker.
    pub queue_wait: Duration,
}

/// The rows of a batch its host resolved before dispatch (signature
/// skips, caught collisions, the inline residual), handed to
/// [`DiffExecutor::run_batch`].
pub(crate) struct HostRows {
    /// `resolved[i]`: row `i` is already in `rows` and is not planned.
    pub resolved: Vec<bool>,
    /// The batch's output rows, resolved ones in place; the rest are
    /// empty until the job's blocks land.
    pub rows: Vec<RleRow>,
    /// The resolved rows' share of the batch statistics.
    pub stats: PipelineStats,
}

/// A supervised, shard-scheduled worker pool that runs many independent
/// image-pair jobs concurrently (see the module docs). All methods take
/// `&self`: an `Arc<DiffExecutor>` can be submitted to and collected from
/// by any number of threads with no outer lock.
pub struct DiffExecutor {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    shutdown_grace: Duration,
}

impl std::fmt::Debug for DiffExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffExecutor")
            .field("workers", &self.workers())
            .field("in_flight", &self.in_flight())
            .field("abandoned", &self.abandoned())
            .field("counters", &self.shared.counters())
            .finish()
    }
}

impl DiffExecutor {
    /// Spawns the worker pool and its supervisor.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    #[must_use]
    pub fn new(config: DiffExecutorConfig) -> Self {
        assert!(config.threads > 0, "need at least one thread");
        let obs = config.observe.map(|cfg| Arc::new(Observer::new(cfg)));
        let simd = config.simd.map_or_else(SimdLevel::default_level, |level| {
            SimdLevel::resolve(Some(level))
        });
        let shared = Arc::new(Shared {
            shards: (0..config.threads).map(|_| Shard::default()).collect(),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            ready_rows: AtomicUsize::new(0),
            abandoned_rows: AtomicUsize::new(0),
            next_ticket: AtomicU64::new(0),
            next_job_id: AtomicU64::new(0),
            submit_cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            work_bell: Mutex::new(()),
            work_ready: Condvar::new(),
            sup_bell: Mutex::new(()),
            sup_ready: Condvar::new(),
            retries: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            spare: Mutex::new(Vec::new()),
            buffer_hits: AtomicU64::new(0),
            kernel: config.kernel,
            simd,
            chunk_target: config.chunk_target,
            retry_limit: config.retry_limit,
            handles: Mutex::new(Vec::new()),
            obs,
            #[cfg(feature = "fault-injection")]
            faults: config.fault_plan,
        });
        *lock(&shared.handles) = (0..config.threads)
            .map(|worker| spawn_worker(&shared, worker))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared))
        };
        Self {
            shared,
            supervisor: Some(supervisor),
            shutdown_grace: config.shutdown_grace,
        }
    }

    /// Number of worker slots in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.shards.len()
    }

    /// The SIMD level the pool's kernels resolved to.
    #[must_use]
    pub fn simd_level(&self) -> SimdLevel {
        self.shared.simd
    }

    /// The kernel policy workers diff rows with.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.shared.kernel
    }

    /// The executor's [`Observer`], if observability was enabled. The
    /// `Arc` stays valid after the executor is dropped.
    #[must_use]
    pub fn observer(&self) -> Option<Arc<Observer>> {
        self.shared.obs.clone()
    }

    pub(crate) fn obs(&self) -> Option<&Arc<Observer>> {
        self.shared.obs.as_ref()
    }

    /// Lifetime supervision totals across every job.
    #[must_use]
    pub fn counters(&self) -> SupervisionCounters {
        self.shared.counters()
    }

    /// Rows submitted but not yet collected or written off, across all
    /// jobs.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Rows written off by abandoned jobs whose stale results are still
    /// outstanding; drains back to 0 as they arrive or are recovered.
    #[must_use]
    pub fn abandoned(&self) -> usize {
        self.shared.abandoned_rows.load(Ordering::Relaxed)
    }

    /// The ticket the next submitted row will receive (global, monotonic
    /// across all jobs).
    #[must_use]
    pub fn next_ticket(&self) -> u64 {
        self.shared.next_ticket.load(Ordering::Relaxed)
    }

    /// A point-in-time load snapshot — the admission-control hook.
    /// `ready_chunks` reports delivered-but-uncollected *rows*; an idle
    /// executor reports all four fields zero.
    #[must_use]
    pub fn load(&self) -> PipelineLoad {
        PipelineLoad {
            queued_chunks: self.shared.queued.load(Ordering::Relaxed),
            ready_chunks: self.shared.ready_rows.load(Ordering::Relaxed),
            in_flight_rows: self.in_flight(),
            abandoned_rows: self.abandoned(),
        }
    }

    /// Creates the persistent non-ledger job the streaming front end
    /// pushes single-row chunks through.
    pub(crate) fn streaming_job(&self) -> JobHandle {
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let lo = self.next_ticket();
        JobHandle {
            job: Arc::new(self.new_job_state(id, lo, lo, 0, false)),
            shared: Arc::clone(&self.shared),
        }
    }

    fn new_job_state(&self, id: u64, lo: u64, hi: u64, chunks: usize, ledger: bool) -> JobState {
        JobState {
            id,
            lo,
            hi,
            chunks,
            ledger,
            created: Instant::now(),
            first_checkout_ns: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            buffer_hits: AtomicU64::new(0),
            inner: Mutex::new(JobInner {
                pending: VecDeque::with_capacity(chunks),
                undelivered: (hi - lo) as usize,
                abandoned: false,
                completed: false,
                stale: 0,
                seen: vec![false; self.shared.shards.len()],
            }),
            bell: Condvar::new(),
        }
    }

    /// Submits one job over `a`/`b`: allocates its id and a contiguous
    /// ticket range, records the submit ledger, and deals one chunk per
    /// range round-robin across the shards. Ranges must be disjoint and
    /// ascending; row `ranges[j].0 + k` gets the ticket after all rows
    /// before it in range order.
    fn submit_job(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        ranges: Vec<(usize, usize)>,
    ) -> JobHandle {
        let rows: usize = ranges.iter().map(|(lo, hi)| hi - lo).sum();
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let lo = self
            .shared
            .next_ticket
            .fetch_add(rows as u64, Ordering::Relaxed);
        let job = Arc::new(self.new_job_state(id, lo, lo + rows as u64, ranges.len(), true));
        let source = RowsSource {
            a: Arc::clone(a),
            b: Arc::clone(b),
        };
        let mut chunks = Vec::with_capacity(ranges.len());
        let mut base = lo;
        for (lo, hi) in ranges {
            let chunk = Chunk {
                base,
                lo,
                hi,
                attempts: 0,
                source: source.clone(),
                job: Arc::clone(&job),
            };
            base += chunk.len() as u64;
            chunks.push(chunk);
        }
        if let Some(obs) = &self.shared.obs {
            obs.metrics.batches.inc();
            obs.metrics.jobs_submitted.inc();
            obs.metrics.rows_submitted.add(rows as u64);
            obs.metrics.chunks_dispatched.add(chunks.len() as u64);
            obs.record(TraceKind::JobSubmit {
                job: id,
                rows: rows as u64,
            });
            // Submit events precede the enqueue so every row's causal
            // chain starts before any worker can check its chunk out.
            for chunk in &chunks {
                for i in chunk.lo..chunk.hi {
                    obs.record(TraceKind::Submit {
                        ticket: chunk.ticket_of(i),
                    });
                }
            }
        }
        self.shared.in_flight.fetch_add(rows, Ordering::Relaxed);
        self.shared.gauge_in_flight(rows as i64);
        if rows == 0 {
            // Nothing will ever be delivered; complete the job here.
            let mut inner = lock(&job.inner);
            inner.completed = true;
            if let Some(obs) = &self.shared.obs {
                obs.metrics.jobs_completed.inc();
                obs.record(TraceKind::JobDone { job: id, rows: 0 });
            }
        }
        let shards = self.shared.shards.len();
        for chunk in chunks {
            let shard = self.shared.submit_cursor.fetch_add(1, Ordering::Relaxed) % shards;
            self.shared.push_chunk(shard, chunk);
        }
        self.shared.notify_work_all();
        JobHandle {
            job,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Plans and submits one image pair as a job (zero-copy shared
    /// sources, derived chunk target) without waiting for it. The caller
    /// collects through the returned [`JobHandle`]; many submitters can
    /// do this concurrently on one executor.
    pub fn submit_pair(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
    ) -> Result<JobHandle, SystolicError> {
        check_dims(a, b)?;
        let ranges = plan_ranges(a, b, None, self.shared.chunk_target, self.workers());
        Ok(self.submit_job(a, b, ranges))
    }

    /// Diffs one image pair end to end: plan, submit, collect,
    /// reassemble. This is the request-sized entry point `diffd` sessions
    /// call concurrently — no outer mutex; fairness and isolation come
    /// from the job machinery. A `budget` bounds the whole job; on expiry
    /// the job is abandoned (other jobs unaffected) and
    /// [`SystolicError::DeadlineExceeded`] returned.
    pub fn diff_pair(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        budget: Option<Duration>,
    ) -> Result<JobOutcome, SystolicError> {
        let deadline = budget.map(|d| Instant::now() + d);
        self.run_batch(a, b, None, Deadline::At(deadline))
    }

    /// The one batch routine: plans the rows `host` has not resolved (all
    /// of them when `host` is `None`) into chunks, submits them as one
    /// job, and collects the job into the image around the host's rows.
    /// On a missed deadline the job's handle is dropped here, which
    /// abandons the job.
    pub(crate) fn run_batch(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        host: Option<HostRows>,
        deadline: Deadline,
    ) -> Result<JobOutcome, SystolicError> {
        let start = Instant::now();
        check_dims(a, b)?;
        let (resolved, rows, mut stats) = match host {
            Some(host) => (Some(host.resolved), host.rows, host.stats),
            None => (
                None,
                vec![RleRow::new(a.width()); a.height()],
                PipelineStats::default(),
            ),
        };
        let ranges = plan_ranges(
            a,
            b,
            resolved.as_deref(),
            self.shared.chunk_target,
            self.workers(),
        );
        stats.workers = self.workers();
        stats.chunks = ranges.len();
        stats.row_clones_avoided = 4 * a.height() as u64;
        let handle = self.submit_job(a, b, ranges);
        let (image, stats) = handle.collect_image(a.width(), rows, stats, start, deadline)?;
        Ok(JobOutcome {
            job: handle.id(),
            tickets: handle.tickets(),
            image,
            stats,
            queue_wait: handle.queue_wait().unwrap_or_default(),
        })
    }
}

impl Drop for DiffExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.notify_work_all();
        {
            let _bell = lock(&self.shared.sup_bell);
            self.shared.sup_ready.notify_all();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Join workers that exit within the grace period; detach the rest
        // (e.g. a wedged worker mid-stall) so Drop can never deadlock. A
        // detached worker sees the shutdown flag and exits as soon as it
        // unwedges; the Arc keeps its shared state alive until then.
        let deadline = Instant::now() + self.shutdown_grace;
        for handle in lock(&self.shared.handles).drain(..) {
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

/// One submitted job's collection side: results route here and nowhere
/// else. The handle is `Send` — a submitter thread can hand it off — and
/// every method takes `&self`.
pub struct JobHandle {
    job: Arc<JobState>,
    shared: Arc<Shared>,
}

impl JobHandle {
    /// The job's id (monotonic per executor).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The contiguous ticket range `[lo, hi)` allocated to this job's
    /// rows (batch jobs; the streaming job tickets rows individually).
    #[must_use]
    pub fn tickets(&self) -> (u64, u64) {
        (self.job.lo, self.job.hi)
    }

    /// Chunks the job was planned into.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.job.chunks
    }

    /// Rows of this job not yet collected (delivered or still working).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        let inner = lock(&self.job.inner);
        inner.pending.iter().map(|b| b.len).sum::<usize>() + inner.undelivered
    }

    /// Submission → first chunk checkout, if a worker has started.
    #[must_use]
    pub fn queue_wait(&self) -> Option<Duration> {
        match self.job.first_checkout_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns - 1)),
        }
    }

    /// Copies this job's supervision attribution into `stats` — exact for
    /// this job even when other jobs were interleaving on the same shard
    /// set.
    fn fill_supervision(&self, stats: &mut PipelineStats) {
        stats.retries = self.job.retries.load(Ordering::Relaxed);
        stats.respawns = self.job.respawns.load(Ordering::Relaxed);
        stats.timeouts = self.job.timeouts.load(Ordering::Relaxed);
        stats.chunks_stolen = self.job.steals.load(Ordering::Relaxed);
        stats.buffers_reused = self.job.buffer_hits.load(Ordering::Relaxed);
        stats.effective_workers = self.effective_workers();
    }

    /// Worker slots that delivered at least one successful row for this
    /// job.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        lock(&self.job.inner).seen.iter().filter(|s| **s).count()
    }

    /// Per-job supervision counters.
    #[must_use]
    pub fn supervision(&self) -> SupervisionCounters {
        SupervisionCounters {
            retries: self.job.retries.load(Ordering::Relaxed),
            respawns: self.job.respawns.load(Ordering::Relaxed),
            timeouts: self.job.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Chunks of this job popped by a non-owning shard (tail
    /// rebalancing), attributed to this job alone.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.job.steals.load(Ordering::Relaxed)
    }

    /// Enqueues one row pair as a single-row chunk of this (streaming)
    /// job, each row wrapped in a one-row image; returns the row's
    /// [`Ticket`]. Never blocks.
    pub(crate) fn submit_row(&self, a: RleRow, b: RleRow) -> Ticket {
        let ticket = self.shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = lock(&self.job.inner);
            inner.undelivered += 1;
        }
        if let Some(obs) = &self.shared.obs {
            obs.metrics.rows_submitted.inc();
            obs.metrics.chunks_dispatched.inc();
            obs.record(TraceKind::Submit { ticket });
        }
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        self.shared.gauge_in_flight(1);
        let one_row = |row: RleRow| {
            Arc::new(RleImage::from_rows(row.width(), vec![row]).expect("a row fits its own width"))
        };
        let chunk = Chunk {
            base: ticket,
            lo: 0,
            hi: 1,
            attempts: 0,
            source: RowsSource {
                a: one_row(a),
                b: one_row(b),
            },
            job: Arc::clone(&self.job),
        };
        let shards = self.shared.shards.len();
        let shard = self.shared.submit_cursor.fetch_add(1, Ordering::Relaxed) % shards;
        self.shared.push_chunk(shard, chunk);
        self.shared.notify_work_one();
        Ticket::from_id(ticket)
    }

    /// Blocks for this job's next delivered chunk, in completion order.
    /// `Ok(None)` means the job has no rows outstanding. With a
    /// `deadline`, gives up at that instant with
    /// [`SystolicError::DeadlineExceeded`] — the rows stay in flight
    /// (their worker may still deliver them later); the caller can keep
    /// collecting or [`Self::abandon`] the job.
    pub fn collect_chunk(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<ChunkOutcome>, SystolicError> {
        let start = Instant::now();
        let mut inner = lock(&self.job.inner);
        loop {
            if let Some(block) = inner.pending.pop_front() {
                drop(inner);
                sub_clamped(&self.shared.in_flight, block.len);
                sub_clamped(&self.shared.ready_rows, block.len);
                self.shared.gauge_in_flight(-(block.len as i64));
                return Ok(Some(block));
            }
            if inner.undelivered == 0 {
                return Ok(None);
            }
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    let in_flight = inner.undelivered;
                    drop(inner);
                    self.shared.book_timeout(&self.job, in_flight);
                    return Err(SystolicError::DeadlineExceeded {
                        waited: start.elapsed(),
                        in_flight,
                    });
                }
            }
            let wait = deadline.map_or(SUPERVISION_TICK, |d| {
                SUPERVISION_TICK.min(d.saturating_duration_since(now))
            });
            let (guard, _timed_out) = self
                .job
                .bell
                .wait_timeout(inner, wait)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// The streaming front end's collect: the next single-row block as a
    /// [`RowOutcome`]. Streaming chunks hold one row, so the block's
    /// summed statistics are exactly that row's.
    pub(crate) fn collect_row(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<RowOutcome>, SystolicError> {
        let Some(mut block) = self.collect_chunk(deadline)? else {
            return Ok(None);
        };
        debug_assert_eq!(block.len, 1, "streaming chunks hold one row");
        let kernel = KernelChoice::ALL
            .into_iter()
            .find(|&c| block.kernels[c as usize] > 0);
        let result = match block.error.take() {
            Some(e) => Err(e),
            None => Ok((
                block.rows.pop().expect("a clean block holds its row"),
                block.stats,
            )),
        };
        self.shared.return_spare(block.rows);
        Ok(Some(RowOutcome {
            ticket: Ticket::from_id(block.base),
            worker: block.worker,
            kernel,
            result,
        }))
    }

    /// Drains every block of this job into `rows` (each block lands at
    /// its image rows `lo..`; rows the job does not cover keep what the
    /// caller placed there), folds the blocks' statistics and the job's
    /// supervision attribution into `stats`, and builds the image. After
    /// a row error the remaining blocks are still drained and the first
    /// error returned; a missed deadline returns at once (the caller drops
    /// the handle, which abandons the job).
    fn collect_image(
        &self,
        width: u32,
        mut rows: Vec<RleRow>,
        mut stats: PipelineStats,
        start: Instant,
        deadline: Deadline,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        let mut first_err = None;
        let mut placed = 0u64;
        let next_deadline = || match deadline {
            Deadline::At(at) => at,
            Deadline::PerBlock(wait) => Some(Instant::now() + wait),
        };
        while let Some(mut block) = self.collect_chunk(next_deadline())? {
            if let Some(e) = block.error.take() {
                first_err.get_or_insert(e);
            }
            placed += block.rows.len() as u64;
            stats.rows += block.rows.len();
            stats.totals.absorb(&block.stats);
            stats.max_row_iterations = stats.max_row_iterations.max(block.max_row_iterations);
            for (choice, n) in KernelChoice::ALL.into_iter().zip(block.kernels) {
                stats.count_kernel(choice, n);
            }
            for (slot, row) in rows[block.lo..].iter_mut().zip(block.rows.drain(..)) {
                *slot = row;
            }
            self.shared.return_spare(block.rows);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        assert_eq!(placed, self.job.rows(), "every row collected");
        self.fill_supervision(&mut stats);
        stats.wall = start.elapsed();
        let image = RleImage::from_rows(width, rows).expect("row widths preserved");
        Ok((image, stats))
    }

    /// Abandons this job. Queued-but-unstarted chunks are dropped; rows
    /// still held by a (possibly wedged) worker are written off behind
    /// the job's abandoned flag, so their eventual stale delivery is
    /// discarded on arrival and no other job can ever receive them.
    /// Uncollected pending rows are dropped too. The executor (and every
    /// other job) is unaffected.
    pub fn abandon(&self) {
        let mut dropped_chunks = 0usize;
        let mut dropped_rows = 0usize;
        for shard in &self.shared.shards {
            let (chunks, rows) = lock(&shard.queue).remove_job(self.job.id);
            dropped_chunks += chunks;
            dropped_rows += rows;
        }
        if dropped_chunks > 0 {
            self.shared
                .queued
                .fetch_sub(dropped_chunks, Ordering::Relaxed);
            if let Some(obs) = &self.shared.obs {
                obs.metrics.queue_depth.sub(dropped_chunks as i64);
            }
        }
        let mut inner = lock(&self.job.inner);
        if inner.abandoned {
            return;
        }
        let pending_rows: usize = inner.pending.iter().map(|b| b.len).sum();
        let undelivered = inner.undelivered;
        // Rows neither queued nor pending are held by a worker (possibly
        // wedged): they become stale and are discarded on arrival.
        let wedged = undelivered - dropped_rows;
        inner.pending.clear();
        inner.undelivered = 0;
        if undelivered > 0 {
            inner.abandoned = true;
            inner.stale += wedged;
        }
        drop(inner);
        self.shared
            .in_flight
            .fetch_sub(pending_rows + undelivered, Ordering::Relaxed);
        self.shared
            .gauge_in_flight(-((pending_rows + undelivered) as i64));
        if pending_rows > 0 {
            self.shared
                .ready_rows
                .fetch_sub(pending_rows, Ordering::Relaxed);
        }
        if undelivered == 0 {
            // All rows were delivered (and counted completed/errored);
            // dropping the uncollected remainder writes off nothing.
            return;
        }
        self.shared
            .abandoned_rows
            .fetch_add(wedged, Ordering::Relaxed);
        // Ledger: dropped rows never ran and wedged rows will be
        // discarded on arrival, so neither can ever reach
        // `rows_completed` / `rows_errored`; booking them here closes
        // `rows_submitted == rows_completed + rows_errored + rows_abandoned`.
        if let Some(obs) = &self.shared.obs {
            obs.metrics
                .rows_abandoned
                .add((dropped_rows + wedged) as u64);
            if self.job.ledger {
                obs.metrics.jobs_abandoned.inc();
            }
        }
    }
}

impl Drop for JobHandle {
    /// A handle dropped before its job was fully collected — by an early
    /// return, or by a collector thread unwinding from a panic — abandons
    /// the job, so its rows stop counting toward `in_flight`, the ready
    /// rows and the gauges that admission control reads.
    fn drop(&mut self) {
        let settled = {
            let inner = lock(&self.job.inner);
            inner.pending.is_empty() && inner.undelivered == 0
        };
        if !settled {
            self.abandon();
        }
    }
}

/// Splits `[0, height)` into contiguous row ranges whose summed weight
/// (`k1 + k2 + 1`, so empty rows still make progress) reaches
/// `target_override` or the derived target
/// `total / (workers * CHUNKS_PER_WORKER)`. Rows with `resolved[i]` set
/// are excluded (they break ranges). A *derived* plan is split further
/// until it holds at least one range per worker, so a single heavy row
/// cannot idle the rest of the pool.
pub(crate) fn plan_ranges(
    a: &RleImage,
    b: &RleImage,
    resolved: Option<&[bool]>,
    target_override: Option<usize>,
    workers: usize,
) -> Vec<(usize, usize)> {
    let height = a.height();
    let excluded = |i: usize| resolved.is_some_and(|r| r[i]);
    let weight = |i: usize| a.rows()[i].run_count() + b.rows()[i].run_count() + 1;
    let target = target_override
        .unwrap_or_else(|| {
            let total: usize = (0..height).filter(|&i| !excluded(i)).map(weight).sum();
            total / (workers * CHUNKS_PER_WORKER).max(1)
        })
        .max(1);
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut submitted = 0usize;
    let mut lo = 0usize;
    let mut acc = 0usize;
    for i in 0..height {
        if excluded(i) {
            if lo < i {
                ranges.push((lo, i));
                submitted += i - lo;
            }
            lo = i + 1;
            acc = 0;
            continue;
        }
        acc += weight(i);
        if acc >= target || i + 1 == height {
            ranges.push((lo, i + 1));
            submitted += i + 1 - lo;
            lo = i + 1;
            acc = 0;
        }
    }
    if target_override.is_none() {
        let want = workers.min(submitted);
        while ranges.len() < want {
            let Some(idx) = ranges
                .iter()
                .enumerate()
                .filter(|(_, (lo, hi))| hi - lo >= 2)
                .max_by_key(|(_, (lo, hi))| hi - lo)
                .map(|(idx, _)| idx)
            else {
                break;
            };
            let (lo, hi) = ranges.remove(idx);
            let mid = lo + (hi - lo) / 2;
            ranges.insert(idx, (mid, hi));
            ranges.insert(idx, (lo, mid));
        }
    }
    ranges
}

fn spawn_worker(shared: &Arc<Shared>, worker: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared, worker))
}

/// The supervisor: ticks until shutdown, replacing dead worker threads
/// and recovering the chunks they held. Workers only exit voluntarily
/// once `shutdown` is set, so any finished handle seen here is a
/// casualty.
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        {
            let bell = lock(&shared.sup_bell);
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let _unused = shared
                .sup_ready
                .wait_timeout(bell, SUPERVISION_TICK)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        supervise(shared);
    }
}

fn supervise(shared: &Arc<Shared>) {
    let mut handles = lock(&shared.handles);
    for worker in 0..handles.len() {
        if !handles[worker].is_finished() {
            continue;
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Take the orphan before the replacement starts so the new thread
        // can never race us for the slot.
        let orphan = lock(&shared.shards[worker].running).take();
        let replacement = spawn_worker(shared, worker);
        let dead = std::mem::replace(&mut handles[worker], replacement);
        let _ = dead.join();
        shared.book_respawn(worker, orphan.as_ref().map(|chunk| &*chunk.job));
        if let Some(chunk) = orphan {
            recover_orphan(shared, worker, chunk);
        }
    }
}

/// Re-enqueues, fails, or writes off the chunk recovered from a dead
/// worker's checkout slot — at job granularity: an abandoned job's orphan
/// is written off against that job's stale count only.
fn recover_orphan(shared: &Arc<Shared>, worker: usize, mut chunk: Chunk) {
    let job = Arc::clone(&chunk.job);
    {
        let mut inner = lock(&job.inner);
        if inner.abandoned {
            inner.stale = inner.stale.saturating_sub(chunk.len());
            drop(inner);
            sub_clamped(&shared.abandoned_rows, chunk.len());
            return;
        }
    }
    chunk.attempts += 1;
    if chunk.attempts > shared.retry_limit {
        if let Some(obs) = &shared.obs {
            for i in chunk.lo..chunk.hi {
                obs.record(TraceKind::RowFailed {
                    ticket: chunk.ticket_of(i),
                    attempts: chunk.attempts,
                });
            }
        }
        let mut block = chunk.outcome(worker, Vec::new());
        block.error = Some(SystolicError::RowFailed {
            row: chunk.base,
            attempts: chunk.attempts,
            cause: "worker thread died while processing the row".into(),
        });
        shared.deliver(&job, block);
    } else {
        shared.book_retry(&chunk);
        shared.push_chunk(worker, chunk);
        shared.notify_work_all();
    }
}

/// A worker: pop chunks from its shard (job-fair, stealing the tail of
/// siblings' when its own runs dry) until shutdown, diffing each row
/// through the configured kernel on persistent per-worker scratch and
/// routing each finished chunk to its owning job.
///
/// Each chunk is parked in the shard's checkout slot before processing
/// (so the supervisor can recover it if this thread dies) and every row
/// runs under `catch_unwind` (so a panicking row costs its chunk one
/// retry, not the worker).
fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    let mut scratch = KernelScratch::with_simd(shared.simd);
    while let Some(chunk) = shared.next_chunk(worker) {
        *lock(&shared.shards[worker].running) = Some(chunk.clone());
        chunk.job.stamp_checkout();
        // Timestamps exist only under observation; the unobserved hot
        // path takes no clock readings at all.
        let chunk_start = shared.obs.as_ref().map(|obs| {
            obs.record(TraceKind::Checkout {
                chunk: chunk.base,
                rows: chunk.len() as u32,
                worker: worker as u32,
                attempt: chunk.attempts,
            });
            Instant::now()
        });

        let mut block = chunk.outcome(worker, shared.take_spare(&chunk.job));
        block.rows.reserve(chunk.len());
        // Index and panic message of the row that crashed this chunk, if
        // any; rows before it are discarded and recomputed on retry so a
        // chunk's results are all-or-nothing (keeps stats totals exact).
        let mut crashed: Option<(usize, String)> = None;
        for i in chunk.lo..chunk.hi {
            let ticket = chunk.ticket_of(i);

            #[cfg(feature = "fault-injection")]
            let mut injected_panic = false;
            #[cfg(feature = "fault-injection")]
            if let Some(fault) = shared.faults.as_ref().and_then(|plan| plan.take(ticket)) {
                match fault {
                    Fault::Panic => injected_panic = true,
                    Fault::Stall(duration) => std::thread::sleep(duration),
                    // Exit with the chunk still parked in the checkout
                    // slot: the supervisor must notice the dead thread
                    // and recover the orphan. Injected death is
                    // cooperative, so the rows already diffed into the
                    // block can be booked as discarded (a real crash
                    // can't do this; `rows_discarded` is a lower bound
                    // there).
                    Fault::Die => {
                        if let Some(obs) = &shared.obs {
                            obs.metrics.rows_discarded.add(block.rows.len() as u64);
                        }
                        return;
                    }
                    Fault::PoisonLock => {
                        let shared = Arc::clone(shared);
                        let _ = catch_unwind(AssertUnwindSafe(move || {
                            let _guard = lock(&shared.shards[worker].queue);
                            panic!("injected fault: poisoning a shard queue lock");
                        }));
                    }
                }
            }

            let (ra, rb) = chunk.row(i);
            let row_start = shared.obs.as_ref().map(|_| Instant::now());
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                if injected_panic {
                    panic!("injected fault: panic on row {ticket}");
                }
                kernel::diff_row(shared.kernel, &mut scratch, ra, rb)
            }));
            match attempt {
                // Kernel errors (e.g. a width mismatch) are per-row
                // outcomes; the rest of the chunk proceeds.
                Ok(Ok((row, stats, choice))) => {
                    if let Some(obs) = &shared.obs {
                        let latency_ns = row_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        let runs = (stats.k1 + stats.k2) as u64;
                        obs.metrics.rows_diffed.inc();
                        obs.metrics.kernel_counter(choice).inc();
                        obs.metrics.row_latency_ns.record(latency_ns);
                        obs.metrics.row_runs.record(runs);
                        obs.record(TraceKind::Kernel {
                            ticket,
                            worker: worker as u32,
                            choice,
                            runs,
                            latency_ns,
                        });
                    }
                    block.stats.absorb(&stats);
                    block.max_row_iterations = block.max_row_iterations.max(stats.iterations);
                    block.kernels[choice as usize] += 1;
                    block.rows.push(row);
                }
                Ok(Err(e)) => {
                    if let Some(obs) = &shared.obs {
                        obs.metrics.rows_kernel_errors.inc();
                        obs.record(TraceKind::RowError { ticket });
                    }
                    block.error.get_or_insert(e);
                }
                Err(payload) => {
                    scratch.discard_poisoned();
                    crashed = Some((i, panic_message(payload)));
                    break;
                }
            }
        }

        match crashed {
            None => {
                *lock(&shared.shards[worker].running) = None;
                if let Some(obs) = &shared.obs {
                    let latency_ns = chunk_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    obs.metrics.chunks_completed.inc();
                    obs.metrics.chunk_latency_ns.record(latency_ns);
                    obs.record(TraceKind::ChunkDone {
                        chunk: chunk.base,
                        rows: block.len as u32,
                        worker: worker as u32,
                        latency_ns,
                    });
                }
                shared.deliver(&chunk.job, block);
            }
            Some((culprit, cause)) => {
                // The partial results are all-or-nothing casualties:
                // their rows were diffed (and counted) but will be
                // diffed again.
                if let Some(obs) = &shared.obs {
                    obs.metrics.rows_discarded.add(block.rows.len() as u64);
                }
                shared.return_spare(block.rows);
                *lock(&shared.shards[worker].running) = None;
                let mut chunk = chunk;
                chunk.attempts += 1;
                if chunk.attempts > shared.retry_limit {
                    // Only the culprit row fails; its siblings go back to
                    // the queue as sub-chunks that keep the attempt count.
                    let ticket = chunk.ticket_of(culprit);
                    if let Some(obs) = &shared.obs {
                        obs.record(TraceKind::RowFailed {
                            ticket,
                            attempts: chunk.attempts,
                        });
                    }
                    let mut failed = chunk
                        .slice(culprit, culprit + 1)
                        .outcome(worker, Vec::new());
                    failed.error = Some(SystolicError::RowFailed {
                        row: ticket,
                        attempts: chunk.attempts,
                        cause,
                    });
                    shared.deliver(&chunk.job, failed);
                    if culprit > chunk.lo {
                        shared.push_chunk(worker, chunk.slice(chunk.lo, culprit));
                    }
                    if culprit + 1 < chunk.hi {
                        shared.push_chunk(worker, chunk.slice(culprit + 1, chunk.hi));
                    }
                    shared.notify_work_all();
                } else {
                    shared.book_retry(&chunk);
                    shared.push_chunk(worker, chunk);
                    shared.notify_work_one();
                }
            }
        }
    }
}

/// Best-effort rendering of a caught panic payload, taking ownership so a
/// `String` payload moves out instead of being copied.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic sparse image generator (LCG over gap/len pairs) so
    /// executor unit tests don't depend on the workload crate.
    fn gen_image(width: u32, height: usize, seed: u64) -> RleImage {
        let mut state = seed | 1;
        let mut rows = Vec::with_capacity(height);
        for _ in 0..height {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            let mut x = 0u32;
            loop {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let gap = 1 + ((state >> 33) as u32 % 16);
                let len = 1 + ((state >> 51) as u32 % 6);
                if x + gap + len >= width {
                    break;
                }
                pairs.push((x + gap, len));
                x += gap + len;
            }
            rows.push(RleRow::from_pairs(width, &pairs).unwrap());
        }
        RleImage::from_rows(width, rows).unwrap()
    }

    #[test]
    fn concurrent_jobs_are_isolated_and_bit_identical() {
        let exec = Arc::new(DiffExecutorConfig::new(3).build());
        let threads: Vec<_> = (0..6u64)
            .map(|i| {
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || {
                    let a = Arc::new(gen_image(128, 24 + i as usize, 0x5EED + i));
                    let b = Arc::new(gen_image(128, 24 + i as usize, 0xFEED + i));
                    let expected = a.xor(&b).unwrap();
                    let out = exec.diff_pair(&a, &b, None).unwrap();
                    assert_eq!(out.image, expected, "results routed to the wrong job");
                    assert_eq!(out.stats.rows, a.height());
                    out.job
                })
            })
            .collect();
        let mut ids: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "every submitter got its own job id");
        assert_eq!(exec.in_flight(), 0);
        assert_eq!(exec.abandoned(), 0);
    }

    #[test]
    fn job_ticket_ranges_are_contiguous_and_disjoint() {
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(64, 9, 1));
        let b = Arc::new(gen_image(64, 9, 2));
        let first = exec.diff_pair(&a, &b, None).unwrap();
        let second = exec.diff_pair(&a, &b, None).unwrap();
        assert_eq!(first.tickets.1 - first.tickets.0, 9);
        assert!(second.tickets.0 >= first.tickets.1);
        assert_eq!(exec.next_ticket(), second.tickets.1);
    }

    #[test]
    fn queue_wait_is_measured_per_job() {
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(64, 16, 3));
        let b = Arc::new(gen_image(64, 16, 4));
        let out = exec.diff_pair(&a, &b, None).unwrap();
        // A finished job must have checked out at least one chunk, and
        // its queue wait is bounded by its wall time.
        assert!(out.queue_wait <= out.stats.wall + Duration::from_millis(1));
    }

    #[test]
    fn plan_ranges_covers_and_splits() {
        let a = gen_image(256, 40, 7);
        let b = gen_image(256, 40, 8);
        let ranges = plan_ranges(&a, &b, None, None, 4);
        assert!(ranges.len() >= 4);
        let mut next = 0usize;
        for (lo, hi) in &ranges {
            assert_eq!(*lo, next, "ranges are contiguous and ordered");
            assert!(hi > lo);
            next = *hi;
        }
        assert_eq!(next, 40, "ranges cover every row");
        // An explicit target of 1 produces per-row ranges.
        assert_eq!(plan_ranges(&a, &b, None, Some(1), 4).len(), 40);
    }

    #[test]
    fn fairness_small_job_is_not_starved_by_a_big_one() {
        // One huge job saturates a 2-worker executor; a small job
        // submitted after it completes while the big one is in flight —
        // the round-robin rotation interleaves its chunks.
        let exec = Arc::new(DiffExecutorConfig::new(2).build());
        let big_a = Arc::new(gen_image(2048, 1200, 11));
        let big_b = Arc::new(gen_image(2048, 1200, 12));
        let small_a = Arc::new(gen_image(2048, 8, 13));
        let small_b = Arc::new(gen_image(2048, 8, 14));
        let big_handle = exec.submit_pair(&big_a, &big_b).unwrap();
        let small = exec.diff_pair(&small_a, &small_b, None).unwrap();
        assert_eq!(small.image, small_a.xor(&small_b).unwrap());
        let mut big_ok = 0usize;
        while let Ok(Some(block)) = big_handle.collect_chunk(None) {
            assert!(block.error.is_none(), "big job rows must all succeed");
            assert_eq!(block.rows.len(), block.len);
            big_ok += block.len;
        }
        assert_eq!(big_ok, 1200);
        assert_eq!(exec.in_flight(), 0);
    }

    #[test]
    fn abandon_is_job_local() {
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(128, 32, 21));
        let b = Arc::new(gen_image(128, 32, 22));
        let doomed = exec.submit_pair(&a, &b).unwrap();
        doomed.abandon();
        // A subsequent job on the same executor is unaffected.
        let out = exec.diff_pair(&a, &b, None).unwrap();
        assert_eq!(out.image, a.xor(&b).unwrap());
        assert_eq!(exec.in_flight(), 0);
    }

    /// An observed two-worker executor plus a pair big enough that a
    /// dropped handle is very likely to leave rows undelivered.
    fn observed_pair() -> (DiffExecutor, Arc<RleImage>, Arc<RleImage>) {
        let exec = DiffExecutorConfig {
            observe: Some(ObsConfig::default()),
            ..DiffExecutorConfig::new(2)
        }
        .build();
        let a = Arc::new(gen_image(2048, 128, 31));
        let b = Arc::new(gen_image(2048, 128, 32));
        (exec, a, b)
    }

    /// Waits until `exec` holds delivered-but-uncollected rows.
    fn await_ready_rows(exec: &DiffExecutor) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while exec.load().ready_chunks == 0 {
            assert!(Instant::now() < deadline, "no block was delivered");
            std::thread::yield_now();
        }
    }

    /// Waits for stale deliveries to drain, then checks that nothing of
    /// the dropped jobs is still counted anywhere and the job ledger
    /// closes.
    fn assert_settled(exec: &DiffExecutor) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while exec.abandoned() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(exec.in_flight(), 0);
        assert_eq!(exec.abandoned(), 0);
        assert_eq!(exec.load().ready_chunks, 0);
        let s = exec.observer().unwrap().metrics_snapshot();
        assert_eq!(s.in_flight, 0, "in_flight gauge");
        assert_eq!(s.queue_depth, 0, "queue_depth gauge");
        assert_eq!(s.jobs_submitted, s.jobs_completed + s.jobs_abandoned);
    }

    #[test]
    fn dropping_an_uncollected_handle_abandons_the_job() {
        let (exec, a, b) = observed_pair();
        for i in 0..10 {
            let handle = exec.submit_pair(&a, &b).unwrap();
            if i % 2 == 0 {
                // Drop with delivered blocks still pending on the job.
                await_ready_rows(&exec);
            }
            drop(handle);
            assert_eq!(exec.load().ready_chunks, 0, "pending blocks dropped");
        }
        assert_settled(&exec);
        // The executor still serves.
        let out = exec.diff_pair(&a, &b, None).unwrap();
        assert_eq!(out.image, a.xor(&b).unwrap());
        assert_settled(&exec);
    }

    #[test]
    fn dropping_a_handle_mid_collect_abandons_the_rest() {
        let (exec, a, b) = observed_pair();
        for _ in 0..10 {
            let handle = exec.submit_pair(&a, &b).unwrap();
            let block = handle.collect_chunk(None).unwrap().expect("a block");
            assert!(block.len < a.height(), "the job spans several chunks");
            await_ready_rows(&exec);
        }
        assert_settled(&exec);
    }

    #[test]
    fn a_panicking_collector_abandons_its_job() {
        let (exec, a, b) = observed_pair();
        let exec = Arc::new(exec);
        for _ in 0..4 {
            let handle = exec.submit_pair(&a, &b).unwrap();
            let shared = Arc::clone(&exec);
            let collector = std::thread::spawn(move || {
                let _ = handle.collect_chunk(None);
                await_ready_rows(&shared);
                panic!("collector dies holding the handle");
            });
            assert!(collector.join().is_err());
        }
        assert_settled(&exec);
    }
}
