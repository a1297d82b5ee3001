//! Image-level diff pipeline: the single-submitter facade over the
//! sharded multi-image executor ([`crate::engine::executor`]).
//!
//! [`crate::engine::parallel`] parallelises *within* one row by splitting
//! the cell array across threads, paying thread-spawn and three barriers
//! per row. For whole images the natural unit of parallelism is the row
//! pair itself — rows are independent, so a pool of workers can each diff
//! its own rows, exactly like a rack of systolic chips scanning different
//! board regions.
//!
//! Since the executor refactor, `DiffPipeline` owns a private
//! [`DiffExecutor`] and submits every batch as one *job* (and its
//! streaming rows through one persistent job). The worker pool, sharded
//! work-stealing scheduler, supervision layer and observability ledger
//! all live in the executor; what remains here is the image-level
//! front end:
//!
//! * **Zero-copy submission.** Batch jobs reference the input images
//!   through `Arc`s ([`DiffPipeline::diff_images_shared`] shares the
//!   caller's images outright; [`DiffPipeline::diff_images`] clones each
//!   row once into per-chunk storage). Checking a chunk out for
//!   supervision clones an `Arc`, never row data.
//! * **Batched, cost-aware chunking.** The planner splits the image into
//!   contiguous row chunks weighted by per-row run counts (target
//!   `~total_runs / (threads * 4)` runs per chunk, overridable via
//!   [`DiffPipelineConfig::chunk_target`]). Derived plans are additionally
//!   split until every worker has at least one chunk, so a skewed image
//!   can never idle most of the pool.
//! * **Signature prefilter.** Before planning, matching per-row
//!   signatures can resolve unchanged rows host-side (see
//!   [`DiffPipelineConfig::signature_prefilter`]), with an adaptive
//!   bypass, paranoid verification, and an inline path for tiny
//!   residuals that skips the pool round-trip entirely.
//! * **Adaptive kernels.** Each worker diffs rows through
//!   [`crate::engine::kernel::diff_row`] on per-worker reusable scratch
//!   ([`KernelScratch`]): trivial rows short-circuit, sparse rows take the
//!   `Θ(k1 + k2)` RLE merge, dense rows the SIMD-accelerated
//!   run-cancellation kernel (see [`crate::engine::simd`] and
//!   [`DiffPipelineConfig::simd`]), and [`Kernel::Systolic`] forces the
//!   paper's cycle-accurate machine.
//!
//! Two front-ends are provided: the batch API above, and streaming
//! [`DiffPipeline::submit`] / [`DiffPipeline::collect`] that feed row pairs
//! as they arrive (e.g. from a scanner head), matching each result to its
//! [`Ticket`].
//!
//! # Supervision
//!
//! The pool is built for the continuous-inspection service the paper
//! targets, where one crashed row must not take down the line. The *chunk*
//! is the checkout and retry unit; every row inside it keeps its own
//! ticket, so per-row fault accounting (and the deterministic
//! [`FaultPlan`]) is unchanged from PR 2:
//!
//! * **Caught panics.** Each row runs inside `catch_unwind`; a panicking
//!   row discards the worker's (possibly corrupt) kernel state and its
//!   whole chunk is re-enqueued, up to [`DiffPipelineConfig::retry_limit`]
//!   extra attempts. A chunk that keeps crashing fails only the culprit row
//!   (as a structured [`SystolicError::RowFailed`]); the sibling rows are
//!   re-queued as smaller chunks.
//! * **Dead workers.** A worker parks the chunk it is processing in its
//!   shard's *checkout slot*. The executor's dedicated supervisor thread
//!   notices worker threads that exited without being asked to shut
//!   down, respawns them, and recovers the chunk from the dead worker's
//!   slot — re-enqueued, or failed past the retry budget.
//! * **Stalls and deadlines.** [`DiffPipeline::collect_timeout`] (and the
//!   per-row deadline of [`DiffPipelineConfig::row_deadline`], honoured by
//!   the batch front-ends) bounds how long a wedged worker can hold the
//!   caller, returning [`SystolicError::DeadlineExceeded`] instead of
//!   hanging. An aborted batch *abandons* its job: the pipeline reports
//!   idle again immediately ([`DiffPipeline::in_flight`] drops to 0,
//!   [`DiffPipeline::abandoned`] tracks the wedged remainder), and any
//!   stale delivery that the wedged worker eventually produces is
//!   discarded on arrival — counted as `rows_discarded`, never handed to
//!   a later batch. Dropping the pipeline never deadlocks: workers get
//!   [`DiffPipelineConfig::shutdown_grace`] to exit, after which wedged
//!   threads are detached instead of joined.
//!
//! Retries, respawns and deadline expiries are counted in
//! [`PipelineStats`] (attributed per job — exact even when other jobs
//! share the executor) and [`DiffPipeline::supervision_counters`]
//! (pipeline lifetime), alongside per-kernel row counts and the
//! allocations the zero-copy path avoided.
//!
//! Results are bit-identical to the sequential reference
//! ([`crate::image::xor_image`]) for every kernel policy; only scheduling
//! and the per-row algorithm change. The test-suite asserts this across
//! all engines, all kernels and across injected faults.

use crate::engine::executor::{
    plan_ranges, ChunkSpec, Deadline, DiffExecutor, DiffExecutorConfig, JobHandle, RowsSource,
};
use crate::engine::kernel::{self, Kernel, KernelChoice, KernelScratch};
use crate::engine::simd::SimdLevel;
use crate::error::SystolicError;
use crate::image::check_dims;
use crate::obs::{ObsConfig, TraceKind};
use crate::stats::{ArrayStats, PipelineStats, SigPrefilterMode};
use rle::{RleImage, RleRow};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use crate::engine::fault::FaultPlan;

/// In paranoid mode ([`DiffPipelineConfig::verify_signatures`]), every
/// `SIG_VERIFY_SAMPLE`-th signature skip of a batch (starting with the
/// first) is cross-checked against the reference XOR.
const SIG_VERIFY_SAMPLE: usize = 16;

/// When the signature prefilter resolves all but at most this many rows,
/// the leftovers are diffed inline on the host instead of dispatched: for
/// a handful of rows the pool round-trip (enqueue, wake, collect
/// handshake) costs more than the kernels themselves, and it is exactly
/// the low-churn frame-sequence case the prefilter exists for.
const INLINE_RESIDUAL_ROWS: usize = 16;

/// Poison-tolerant lock: a holder that panicked leaves consistent-enough
/// data (every critical section is a single push/pop/take), so callers
/// proceed on the recovered guard instead of propagating the poison.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifies one submitted row pair; returned by [`DiffPipeline::submit`]
/// and echoed by [`DiffPipeline::collect`] so streaming callers can match
/// results (which complete out of order) to submissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The submission sequence number (0 for the first row ever submitted).
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }

    /// Wraps a raw sequence number (executor-internal; tickets handed to
    /// callers always originate from a submission).
    pub(crate) fn from_id(id: u64) -> Self {
        Self(id)
    }
}

/// One completed row diff, as handed back by [`DiffPipeline::collect`].
#[derive(Debug)]
pub struct RowOutcome {
    /// Which submission this result answers.
    pub ticket: Ticket,
    /// Index of the pool worker that processed the row (for utilization
    /// accounting; see [`PipelineStats::effective_workers`]).
    pub worker: usize,
    /// Which kernel diffed the row; `None` when the row errored before a
    /// kernel could run (or was failed by the supervisor).
    pub kernel: Option<KernelChoice>,
    /// The diff row and its per-row statistics, or the error for this row
    /// pair.
    pub result: Result<(RleRow, ArrayStats), SystolicError>,
}

/// Configuration for a supervised [`DiffPipeline`].
#[derive(Clone, Debug)]
pub struct DiffPipelineConfig {
    /// Worker threads in the pool (must be > 0).
    pub threads: usize,
    /// Extra attempts the supervisor grants a chunk whose worker panicked
    /// or died. A chunk is attempted at most `retry_limit + 1` times before
    /// its culprit row surfaces as [`SystolicError::RowFailed`].
    pub retry_limit: u32,
    /// Per-row collection deadline honoured by the batch front-ends: the
    /// longest they wait for the *next* completed chunk before giving up
    /// with [`SystolicError::DeadlineExceeded`]. `None` (the default) waits
    /// indefinitely (supervision still recovers dead workers; only genuine
    /// stalls can block).
    pub row_deadline: Option<Duration>,
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
    /// Observability: `Some` attaches an [`crate::obs::Observer`] (metrics
    /// registry + trace ring) to the pipeline. `None` (the default)
    /// compiles every recording site down to one predictable `if let`
    /// branch — no timestamps are taken and nothing is recorded.
    pub observe: Option<ObsConfig>,
    /// Signature prefilter (default off): before planning chunks, the batch
    /// front-ends compare the two images' cached per-row signatures
    /// ([`rle::RleRow::signature`]) and resolve every matching row
    /// host-side as an empty diff — no submit, no checkout round-trip, no
    /// kernel. Skips surface in [`PipelineStats::rows_sig_skipped`], the
    /// `rows_sig_skipped` metric and `sig_skip` trace events. Equal rows
    /// always match (signatures are canonical-view), and distinct rows
    /// collide with probability ~2⁻⁶⁴; use [`Self::verify_signatures`] if
    /// even that is too much. Ignored under [`Kernel::Systolic`], whose
    /// contract is cycle-exact per-row statistics against the reference
    /// machine — skipping rows would zero their iteration counts.
    pub signature_prefilter: bool,
    /// Adaptive auto-off for the prefilter (default `0.75`): when the
    /// previous batch's observed skip rate (fraction of rows whose
    /// signatures matched) falls below this threshold, the next batch
    /// *bypasses* skip resolution — every row goes to the kernels — while
    /// still comparing the cached signatures (a u64 compare per row) to
    /// keep measuring, so the prefilter re-arms the moment churn drops
    /// again. `0.75` matches the measured break-even: above ~25 % churn
    /// the prefilter's bookkeeping costs more than it saves (the
    /// BENCH_delta sweep), which used to be a footgun callers had to
    /// know about. Set `0.0` to disable adaptation (always resolve
    /// skips, the pre-adaptive behaviour). The first batch after build
    /// always runs the prefilter (there is no rate to adapt to yet);
    /// the engaged mode is reported in [`PipelineStats::sig_prefilter`].
    pub sig_prefilter_min_skip_rate: f64,
    /// Paranoid mode for the prefilter (default off): cross-check a
    /// deterministic sample of signature skips (the first of each batch,
    /// then every 16th) against the reference XOR. A confirmed check
    /// counts in [`PipelineStats::sig_verified`]; a caught collision
    /// substitutes the reference diff for the empty row (the output stays
    /// exact) and counts in [`PipelineStats::sig_collisions`].
    pub verify_signatures: bool,
    /// Deterministic fault schedule for tests (see
    /// [`crate::engine::fault`]).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<FaultPlan>,
    /// Test hook: image rows whose signature comparison is forced to
    /// "equal" even when the rows differ — a synthetic 64-bit collision,
    /// used by the false-skip drill to prove what [`Self::verify_signatures`]
    /// catches.
    #[cfg(feature = "fault-injection")]
    pub fault_sig_collisions: Vec<usize>,
}

impl Default for DiffPipelineConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            retry_limit: 2,
            row_deadline: None,
            shutdown_grace: Duration::from_millis(500),
            kernel: Kernel::Auto,
            simd: None,
            chunk_target: None,
            observe: None,
            signature_prefilter: false,
            sig_prefilter_min_skip_rate: 0.75,
            verify_signatures: false,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
            #[cfg(feature = "fault-injection")]
            fault_sig_collisions: Vec::new(),
        }
    }
}

impl DiffPipelineConfig {
    /// A default configuration over `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Sets the retry budget (see [`Self::retry_limit`]).
    #[must_use]
    pub fn retry_limit(mut self, retries: u32) -> Self {
        self.retry_limit = retries;
        self
    }

    /// Sets the per-row deadline (see [`Self::row_deadline`]).
    #[must_use]
    pub fn row_deadline(mut self, deadline: Duration) -> Self {
        self.row_deadline = Some(deadline);
        self
    }

    /// Sets the shutdown grace period (see [`Self::shutdown_grace`]).
    #[must_use]
    pub fn shutdown_grace(mut self, grace: Duration) -> Self {
        self.shutdown_grace = grace;
        self
    }

    /// Sets the kernel policy (see [`Self::kernel`]).
    #[must_use]
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Requests an explicit SIMD level (see [`Self::simd`]).
    #[must_use]
    pub fn simd(mut self, level: SimdLevel) -> Self {
        self.simd = Some(level);
        self
    }

    /// Sets the chunk scheduling weight (see [`Self::chunk_target`]).
    #[must_use]
    pub fn chunk_target(mut self, runs_per_chunk: usize) -> Self {
        self.chunk_target = Some(runs_per_chunk);
        self
    }

    /// Enables the signature prefilter (see [`Self::signature_prefilter`]).
    #[must_use]
    pub fn signature_prefilter(mut self) -> Self {
        self.signature_prefilter = true;
        self
    }

    /// Sets the adaptive prefilter bypass threshold (see
    /// [`Self::sig_prefilter_min_skip_rate`]); `0.0` pins the prefilter
    /// active regardless of the observed skip rate.
    #[must_use]
    pub fn sig_prefilter_min_skip_rate(mut self, rate: f64) -> Self {
        self.sig_prefilter_min_skip_rate = rate;
        self
    }

    /// Enables paranoid skip verification (see [`Self::verify_signatures`]);
    /// implies the prefilter itself is still opted into separately.
    #[must_use]
    pub fn verify_signatures(mut self) -> Self {
        self.verify_signatures = true;
        self
    }

    /// Forces synthetic signature collisions on the given image rows (test
    /// builds only; see [`Self::fault_sig_collisions`]).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn fault_sig_collisions(mut self, rows: Vec<usize>) -> Self {
        self.fault_sig_collisions = rows;
        self
    }

    /// Enables observability with the default settings (see
    /// [`Self::observe`]).
    #[must_use]
    pub fn observe(mut self) -> Self {
        self.observe = Some(ObsConfig::default());
        self
    }

    /// Enables observability with explicit settings (see [`Self::observe`]).
    #[must_use]
    pub fn observe_with(mut self, obs: ObsConfig) -> Self {
        self.observe = Some(obs);
        self
    }

    /// Installs a deterministic fault schedule (test builds only).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the pipeline described by this configuration.
    #[must_use]
    pub fn build(self) -> DiffPipeline {
        DiffPipeline::with_config(self)
    }
}

/// Lifetime totals of the supervisor's interventions (never reset; the
/// per-batch view lives in [`PipelineStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionCounters {
    /// Chunks re-enqueued after a worker panic or death.
    pub retries: u64,
    /// Worker threads replaced after dying unexpectedly.
    pub respawns: u64,
    /// Deadline expiries observed by collectors.
    pub timeouts: u64,
}

/// A point-in-time view of how much work the executor is carrying — the
/// input to admission-control decisions (see [`DiffPipeline::load`]).
/// Mirrors the `queue_depth`/`in_flight` gauges but is read from the
/// executor's exact bookkeeping rather than the racy metric atomics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineLoad {
    /// Chunks sitting in shard queues, not yet checked out.
    pub queued_chunks: usize,
    /// Rows delivered to their job but not yet collected by its owner.
    pub ready_chunks: usize,
    /// Rows submitted but not yet handed back to the caller.
    pub in_flight_rows: usize,
    /// Rows written off by an aborted job whose stale results are still
    /// outstanding (see [`DiffPipeline::abandoned`]).
    pub abandoned_rows: usize,
}

/// Outcome of the signature prefilter for one batch: the rows resolved
/// host-side (never planned, submitted or ticketed) together with their
/// pre-computed results and aggregate statistics.
struct SkipPlan {
    /// `resolved[i]` — row `i` is handled host-side; the chunk planner
    /// must not include it.
    resolved: Vec<bool>,
    /// Rows skipped on a signature match (empty diff), in row order.
    skipped: Vec<usize>,
    /// Collisions caught by paranoid mode: the row's reference diff
    /// replaces the (wrong) empty row.
    collisions: Vec<(usize, RleRow)>,
    /// Residual rows diffed inline on the host (small-batch shortcut; see
    /// [`INLINE_RESIDUAL_ROWS`]) with the kernel that ran each.
    inline: Vec<(usize, RleRow, KernelChoice)>,
    /// Largest per-row iteration count among the inline rows, folded into
    /// [`PipelineStats::max_row_iterations`].
    max_inline_iterations: u64,
    /// Aggregate [`ArrayStats`] contribution of every resolved row
    /// (`k1`/`k2` input sizes; zero iterations — no array ran).
    stats: ArrayStats,
    /// Skips cross-checked against the reference XOR and confirmed.
    verified: usize,
}

/// A persistent, supervised pool of row-diff workers (see the module
/// docs) — since the executor refactor, a single-submitter facade over a
/// private [`DiffExecutor`]: each batch runs as one job, and streaming
/// rows flow through one persistent job.
///
/// Dropping the pipeline drains the remaining queue and joins every worker
/// that exits within [`DiffPipelineConfig::shutdown_grace`]; wedged workers
/// are detached so `Drop` never deadlocks.
pub struct DiffPipeline {
    executor: DiffExecutor,
    /// The persistent non-ledger job [`Self::submit`] pushes single-row
    /// chunks through.
    streaming: JobHandle,
    config: DiffPipelineConfig,
    /// Persistent kernel scratch for the host-side inline residual path
    /// (see [`INLINE_RESIDUAL_ROWS`]), so tiny batches reuse buffers
    /// exactly like a worker does.
    host_scratch: KernelScratch,
    /// The previous batch's observed signature skip rate (matched rows /
    /// total rows), driving the adaptive prefilter bypass. `None` until a
    /// non-empty batch has been measured.
    sig_skip_rate: Option<f64>,
    /// How the prefilter engaged for the batch currently being planned;
    /// copied into [`PipelineStats::sig_prefilter`] by `run_batch`.
    sig_mode: SigPrefilterMode,
}

impl std::fmt::Debug for DiffPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffPipeline")
            .field("workers", &self.executor.workers())
            .field("in_flight", &self.in_flight())
            .field("abandoned", &self.abandoned())
            .field("counters", &self.executor.counters())
            .finish()
    }
}

impl DiffPipeline {
    /// Spawns a pool of `threads` persistent workers with the default
    /// supervision settings.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_config(DiffPipelineConfig::new(threads))
    }

    /// Spawns a pool described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    #[must_use]
    pub fn with_config(config: DiffPipelineConfig) -> Self {
        let executor = DiffExecutorConfig {
            threads: config.threads,
            retry_limit: config.retry_limit,
            shutdown_grace: config.shutdown_grace,
            kernel: config.kernel,
            simd: config.simd,
            chunk_target: config.chunk_target,
            observe: config.observe,
            #[cfg(feature = "fault-injection")]
            fault_plan: config.fault_plan.clone(),
        }
        .build();
        let streaming = executor.streaming_job();
        let host_scratch = KernelScratch::with_simd(executor.simd_level());
        Self {
            executor,
            streaming,
            config,
            host_scratch,
            sig_skip_rate: None,
            sig_mode: SigPrefilterMode::Off,
        }
    }

    /// Number of workers in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// Rows submitted but not yet collected.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.executor.in_flight()
    }

    /// Rows written off by an aborted batch whose results are still
    /// outstanding — held by a wedged worker. Each one is discarded (and
    /// this count decremented) when its stale result finally arrives or
    /// its dead worker is reaped, so a healed pipeline drains back to 0.
    #[must_use]
    pub fn abandoned(&self) -> usize {
        self.executor.abandoned()
    }

    /// The ticket the *next* submitted row will receive. Batch front-ends
    /// allocate one ticket per row in submission order, so a caller that
    /// reads this before and after a batch call knows the half-open ticket
    /// range `[before, after)` the batch occupied — the hook `diffd` uses
    /// to map connection-level request ids onto pipeline tickets.
    #[must_use]
    pub fn next_ticket(&self) -> u64 {
        self.executor.next_ticket()
    }

    /// A point-in-time load snapshot — the admission-control ("shed")
    /// hook. Complements the lock-free `queue_depth`/`in_flight` gauges on
    /// [`Self::observer`]: those can be read without holding the pipeline,
    /// while this reads the executor's exact values.
    #[must_use]
    pub fn load(&self) -> PipelineLoad {
        self.executor.load()
    }

    /// Lifetime supervision totals (see [`SupervisionCounters`]).
    #[must_use]
    pub fn supervision_counters(&self) -> SupervisionCounters {
        self.executor.counters()
    }

    /// The pipeline's [`crate::obs::Observer`], if observability was
    /// enabled via [`DiffPipelineConfig::observe`]. The `Arc` stays valid
    /// after the pipeline is dropped, so snapshots can outlive the pool.
    #[must_use]
    pub fn observer(&self) -> Option<Arc<crate::obs::Observer>> {
        self.executor.observer()
    }

    /// The SIMD level the pool's kernels resolved to (after the env /
    /// config override and the hardware clamp).
    #[must_use]
    pub fn simd_level(&self) -> SimdLevel {
        self.executor.simd_level()
    }

    /// Enqueues one row pair for differencing; returns the [`Ticket`] its
    /// [`RowOutcome`] will carry. Never blocks.
    pub fn submit(&mut self, a: RleRow, b: RleRow) -> Ticket {
        self.streaming.submit_row(a, b)
    }

    /// Blocks for the next completed row, in completion (not submission)
    /// order. Returns `None` when nothing is in flight.
    ///
    /// While blocked, the executor's supervisor keeps watching the pool:
    /// dead workers are respawned and the chunks they held recovered, so a
    /// crashed thread delays rows rather than hanging the collector. Only
    /// a genuinely wedged worker can block indefinitely — use
    /// [`Self::collect_timeout`] to bound that.
    pub fn collect(&mut self) -> Option<RowOutcome> {
        self.streaming
            .collect_row(None)
            .expect("collect without a deadline cannot time out")
    }

    /// Like [`Self::collect`], but gives up with
    /// [`SystolicError::DeadlineExceeded`] if no row completes within
    /// `timeout`. The timed-out rows stay in flight (their worker may still
    /// deliver them later); callers can keep collecting, [`Self::drain`]
    /// the pipeline, or drop it.
    pub fn collect_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<RowOutcome>, SystolicError> {
        self.streaming.collect_row(Some(Instant::now() + timeout))
    }

    /// Collects every in-flight outcome (blocking, with supervision) and
    /// returns them, leaving the pipeline idle.
    pub fn drain(&mut self) -> Vec<RowOutcome> {
        let mut out = Vec::new();
        while let Some(done) = self.collect() {
            out.push(done);
        }
        if let Some(obs) = self.executor.obs() {
            obs.record(TraceKind::Drain {
                collected: out.len() as u64,
            });
        }
        out
    }

    /// Runs the signature prefilter over a batch's rows, if enabled.
    /// `None` means "plan every row" — either the prefilter is off, the
    /// kernel policy demands exact per-row statistics, the adaptive
    /// bypass is engaged (previous batch's skip rate below
    /// [`DiffPipelineConfig::sig_prefilter_min_skip_rate`]), or no row
    /// matched. Records this batch's observed match rate either way so
    /// the next batch adapts.
    fn prefilter(&mut self, a: &RleImage, b: &RleImage) -> Option<SkipPlan> {
        if !self.config.signature_prefilter || self.config.kernel == Kernel::Systolic {
            self.sig_mode = SigPrefilterMode::Off;
            return None;
        }
        let height = a.height();
        let threshold = self.config.sig_prefilter_min_skip_rate;
        if threshold > 0.0 && self.sig_skip_rate.is_some_and(|rate| rate < threshold) {
            // Bypass: the last batch churned too much for skip resolution
            // to pay for itself. Still compare the cached signatures — one
            // u64 equality per row — so the rate stays measured and the
            // prefilter re-arms as soon as the sequence calms down.
            self.sig_mode = SigPrefilterMode::Bypassed;
            let mut matched = 0usize;
            for i in 0..height {
                let matches = a.rows()[i].signature() == b.rows()[i].signature();
                #[cfg(feature = "fault-injection")]
                let matches = matches || self.config.fault_sig_collisions.contains(&i);
                if matches {
                    matched += 1;
                }
            }
            if height > 0 {
                self.sig_skip_rate = Some(matched as f64 / height as f64);
            }
            return None;
        }
        self.sig_mode = SigPrefilterMode::Active;
        let mut plan = SkipPlan {
            resolved: vec![false; height],
            skipped: Vec::new(),
            collisions: Vec::new(),
            inline: Vec::new(),
            max_inline_iterations: 0,
            stats: ArrayStats::default(),
            verified: 0,
        };
        for i in 0..height {
            let (ra, rb) = (&a.rows()[i], &b.rows()[i]);
            let matches = ra.signature() == rb.signature();
            #[cfg(feature = "fault-injection")]
            let matches = matches || self.config.fault_sig_collisions.contains(&i);
            if !matches {
                continue;
            }
            let row_stats = ArrayStats {
                k1: ra.run_count(),
                k2: rb.run_count(),
                ..ArrayStats::default()
            };
            let ordinal = plan.skipped.len() + plan.collisions.len();
            if self.config.verify_signatures && ordinal.is_multiple_of(SIG_VERIFY_SAMPLE) {
                let reference = rle::ops::xor(ra, rb);
                if reference.is_empty() {
                    plan.verified += 1;
                } else {
                    // A 64-bit collision (or an injected one): the skip
                    // would have dropped real differences. Resolve the row
                    // with the reference diff instead — still host-side,
                    // still no kernel, but exact.
                    plan.stats.absorb(&ArrayStats {
                        output_runs: reference.run_count(),
                        ..row_stats
                    });
                    plan.resolved[i] = true;
                    plan.collisions.push((i, reference));
                    continue;
                }
            }
            plan.stats.absorb(&row_stats);
            plan.resolved[i] = true;
            plan.skipped.push(i);
        }
        if height > 0 {
            let matched = plan.skipped.len() + plan.collisions.len();
            self.sig_skip_rate = Some(matched as f64 / height as f64);
        }
        if plan.skipped.is_empty() && plan.collisions.is_empty() {
            None
        } else {
            Some(plan)
        }
    }

    /// Small-batch shortcut after the prefilter: when at most
    /// [`INLINE_RESIDUAL_ROWS`] rows were *not* resolved, diff them here on
    /// the host with the same kernel policy a worker would use. The batch
    /// then plans zero chunks — no enqueue, no wake-up, no collect
    /// handshake — which is what makes low-churn frame diffs cheap instead
    /// of merely parallel. Inline rows join the stats ledger through the
    /// [`SkipPlan`] like collision substitutes do; they never enter the
    /// submit/complete ledgers (nothing was submitted).
    fn inline_residual(
        &mut self,
        a: &RleImage,
        b: &RleImage,
        skip: &mut Option<SkipPlan>,
    ) -> Result<(), SystolicError> {
        let Some(plan) = skip else { return Ok(()) };
        let residual: Vec<usize> = (0..a.height()).filter(|&i| !plan.resolved[i]).collect();
        if residual.is_empty() || residual.len() > INLINE_RESIDUAL_ROWS {
            return Ok(());
        }
        for i in residual {
            let row_start = self.executor.obs().map(|_| Instant::now());
            let (row, row_stats, choice) = kernel::diff_row(
                self.config.kernel,
                &mut self.host_scratch,
                &a.rows()[i],
                &b.rows()[i],
            )?;
            // Mirror a worker's per-row accounting (kernel mix + the two
            // row histograms) under `rows_inline_diffed` instead of
            // `rows_diffed`, keeping both documented ledger identities
            // closed: these rows were never submitted, so they must not
            // appear on the worker/collector side.
            if let Some(obs) = self.executor.obs() {
                let latency_ns = row_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                obs.metrics.rows_inline_diffed.inc();
                obs.metrics.kernel_counter(choice).inc();
                obs.metrics.row_latency_ns.record(latency_ns);
                obs.metrics
                    .row_runs
                    .record((row_stats.k1 + row_stats.k2) as u64);
            }
            plan.max_inline_iterations = plan.max_inline_iterations.max(row_stats.iterations);
            plan.stats.absorb(&row_stats);
            plan.resolved[i] = true;
            plan.inline.push((i, row, choice));
        }
        Ok(())
    }

    /// Diffs two images row by row across the pool, reassembling the rows
    /// in order and aggregating per-row statistics. Each input row is
    /// cloned **once** into per-chunk storage (use
    /// [`Self::diff_images_shared`] to avoid even that).
    ///
    /// Bit-identical to [`crate::image::xor_image`] for every kernel
    /// policy. If any row fails, the remaining rows are still drained and
    /// the first error is returned. With a
    /// [`DiffPipelineConfig::row_deadline`] configured, a stall longer than
    /// the deadline aborts the batch with
    /// [`SystolicError::DeadlineExceeded`]; the batch's remaining rows are
    /// abandoned (see [`Self::abandoned`]) and the pipeline is immediately
    /// reusable.
    ///
    /// # Panics
    ///
    /// Panics if streaming submissions are still in flight (collect them
    /// first; the batch front-end needs an idle pipeline).
    pub fn diff_images(
        &mut self,
        a: &RleImage,
        b: &RleImage,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        // The old scheduler cloned each row at submit AND at checkout; the
        // per-chunk copy keeps only the submit-time clone.
        let clones_avoided = 2 * a.height() as u64;
        self.run_batch(
            a,
            b,
            |lo, hi| {
                let rows: Vec<(RleRow, RleRow)> = (lo..hi)
                    .map(|i| (a.rows()[i].clone(), b.rows()[i].clone()))
                    .collect();
                RowsSource::Owned {
                    rows: Arc::from(rows),
                    first: lo,
                }
            },
            clones_avoided,
            self.row_deadline(),
        )
    }

    /// Zero-copy batch: like [`Self::diff_images`], but the chunks borrow
    /// the caller's images through the `Arc`s, so no row data is cloned at
    /// all — submission cost is independent of image content.
    ///
    /// # Panics
    ///
    /// Panics if streaming submissions are still in flight.
    pub fn diff_images_shared(
        &mut self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        self.run_shared(a, b, self.row_deadline())
    }

    /// Zero-copy batch with a **per-call wall-clock budget**: the whole
    /// batch must complete within `budget`, with each collect waiting only
    /// the remaining slice of it. On expiry the batch's job is abandoned
    /// exactly like a [`DiffPipelineConfig::row_deadline`] abort — the
    /// pipeline is immediately idle and reusable, and the wedged rows
    /// surface in [`Self::abandoned`] / the `rows_abandoned` counter.
    ///
    /// This is the per-request deadline hook for network front ends: one
    /// shared pipeline can serve callers with different deadlines without
    /// rebuilding, and a wedged row can never wedge a caller for longer
    /// than its own budget. (`diffd` itself now goes further and submits
    /// sessions concurrently through [`DiffExecutor::diff_pair`].)
    ///
    /// # Panics
    ///
    /// Panics if streaming submissions are still in flight.
    pub fn diff_images_deadline(
        &mut self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        budget: Duration,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        self.run_shared(a, b, Deadline::At(Some(Instant::now() + budget)))
    }

    fn run_shared(
        &mut self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        deadline: Deadline,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        let source = |_, _| RowsSource::Shared {
            a: Arc::clone(a),
            b: Arc::clone(b),
        };
        self.run_batch(a, b, source, 4 * a.height() as u64, deadline)
    }

    /// Common batch engine: prefilter, inline residual, plan the remaining
    /// rows into chunks (see [`plan_ranges`]) with `make_source`, submit
    /// them as one job, and collect it into the image.
    fn run_batch(
        &mut self,
        a: &RleImage,
        b: &RleImage,
        make_source: impl Fn(usize, usize) -> RowsSource,
        clones_avoided: u64,
        deadline: Deadline,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        assert!(self.in_flight() == 0, "diff_images needs an idle pipeline");
        check_dims(a, b)?;
        let mut skip = self.prefilter(a, b);
        self.inline_residual(a, b, &mut skip)?;
        let ranges = plan_ranges(
            a,
            b,
            skip.as_ref().map(|s| s.resolved.as_slice()),
            self.config.chunk_target,
            self.executor.workers(),
        );
        let specs: Vec<ChunkSpec> = ranges
            .into_iter()
            .map(|(lo, hi)| ChunkSpec {
                lo,
                hi,
                source: make_source(lo, hi),
            })
            .collect();
        let start = Instant::now();
        let mut stats = PipelineStats {
            workers: self.executor.workers(),
            chunks: specs.len(),
            row_clones_avoided: clones_avoided,
            sig_prefilter: self.sig_mode,
            ..Default::default()
        };
        // Skipped rows stay empty; chunks cover only unresolved rows.
        let mut rows = vec![RleRow::new(a.width()); a.height()];
        if let Some(plan) = skip {
            // Host-resolved rows join the batch's row and ArrayStats
            // ledgers here; they never touch the submit/complete ledgers
            // (nothing was submitted for them).
            stats.rows += plan.skipped.len() + plan.collisions.len() + plan.inline.len();
            stats.rows_sig_skipped = plan.skipped.len();
            stats.sig_verified = plan.verified;
            stats.sig_collisions = plan.collisions.len();
            stats.totals.absorb(&plan.stats);
            stats.max_row_iterations = plan.max_inline_iterations;
            if let Some(obs) = self.executor.obs() {
                obs.metrics.rows_sig_skipped.add(plan.skipped.len() as u64);
                for &row in &plan.skipped {
                    obs.record(TraceKind::SigSkip { row: row as u64 });
                }
            }
            for (row, diff) in plan.collisions {
                rows[row] = diff;
            }
            for (row, diff, choice) in plan.inline {
                stats.count_kernel(choice, 1);
                rows[row] = diff;
            }
        }
        let handle = self.executor.submit_job(specs);
        handle.collect_image(a.width(), rows, stats, start, deadline)
    }

    /// The configured [`DiffPipelineConfig::row_deadline`] policy: a
    /// per-block wait that restarts for each block (the old
    /// `collect_timeout` semantics), or no deadline.
    fn row_deadline(&self) -> Deadline {
        self.config
            .row_deadline
            .map_or(Deadline::At(None), Deadline::PerBlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::xor_image;

    fn img(art: &str) -> RleImage {
        RleImage::from_ascii(art)
    }

    #[test]
    fn batch_matches_sequential_reference() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (seq, seq_stats) = xor_image(&a, &b).unwrap();

        // The systolic kernel reproduces the reference machine's stats
        // exactly — same per-row iteration counts, same totals.
        let mut exact = DiffPipelineConfig::new(3).kernel(Kernel::Systolic).build();
        let (got, stats) = exact.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.totals.iterations, seq_stats.totals.iterations);
        assert_eq!(stats.max_row_iterations, seq_stats.max_row_iterations);
        assert_eq!(stats.rows_systolic_kernel, 4);
        assert_eq!(stats.workers, 3);
        assert!(stats.effective_workers >= 1 && stats.effective_workers <= 3);
        // A healthy run needs no supervisor interventions.
        assert_eq!((stats.retries, stats.respawns, stats.timeouts), (0, 0, 0));
        assert_eq!(exact.supervision_counters(), SupervisionCounters::default());

        // The default hybrid kernel is bit-identical with cheaper stats.
        let mut pipeline = DiffPipeline::new(3);
        let (hybrid, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(hybrid, seq);
        assert_eq!(stats.rows, 4);
        assert_eq!(
            stats.rows_fast_path
                + stats.rows_rle_kernel
                + stats.rows_packed_kernel
                + stats.rows_systolic_kernel,
            4,
            "every row's kernel choice is recorded"
        );
        assert!(stats.totals.within_theorem1());
        assert!(stats.chunks >= 1);
        assert_eq!(stats.row_clones_avoided, 8);
    }

    #[test]
    fn shared_batch_is_zero_copy_and_identical() {
        let a = Arc::new(img("####....\n..##..##\n........\n#.#.#.#.\n"));
        let b = Arc::new(img("####....\n..##..#.\n...##...\n.#.#.#.#\n"));
        let mut pipeline = DiffPipeline::new(2);
        let (owned, _) = pipeline.diff_images(&a, &b).unwrap();
        let (shared, stats) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert_eq!(owned, shared);
        assert_eq!(stats.row_clones_avoided, 16, "4 clones avoided per row");
        assert_eq!(stats.rows, 4);
    }

    #[test]
    fn forced_kernels_are_bit_identical() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (seq, _) = xor_image(&a, &b).unwrap();
        for kernel in [Kernel::Rle, Kernel::Packed] {
            let mut pipeline = DiffPipelineConfig::new(2).kernel(kernel).build();
            let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
            assert_eq!(got, seq, "{kernel:?}");
            match kernel {
                Kernel::Rle => assert_eq!(stats.rows_rle_kernel, 4),
                Kernel::Packed => assert_eq!(stats.rows_packed_kernel, 4),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn forced_simd_levels_are_bit_identical() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (seq, _) = xor_image(&a, &b).unwrap();
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            let mut pipeline = DiffPipelineConfig::new(2)
                .kernel(Kernel::Packed)
                .simd(level)
                .build();
            // An unsupported request clamps down instead of failing.
            assert!(pipeline.simd_level() <= SimdLevel::detect());
            let (got, _) = pipeline.diff_images(&a, &b).unwrap();
            assert_eq!(got, seq, "{level}");
        }
    }

    #[test]
    fn chunk_target_controls_scheduling_granularity() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        // A huge target packs the whole image into one chunk...
        let mut coarse = DiffPipelineConfig::new(2).chunk_target(1_000_000).build();
        let (_, stats) = coarse.diff_images(&a, &b).unwrap();
        assert_eq!(stats.chunks, 1);
        // ...a target of one run forces per-row chunks.
        let mut fine = DiffPipelineConfig::new(2).chunk_target(1).build();
        let (_, stats) = fine.diff_images(&a, &b).unwrap();
        assert_eq!(stats.chunks, 4);
    }

    #[test]
    fn derived_chunk_plan_feeds_every_worker() {
        // One pathologically heavy row used to swallow the whole derived
        // weight target, leaving fewer chunks than workers and most of the
        // pool idle; the plan must split until every worker can get a
        // chunk.
        let width = 4096u32;
        let heavy: Vec<(u32, u32)> = (0..512).map(|i| (i * 8, 3)).collect();
        let mut rows = vec![RleRow::from_pairs(width, &heavy).unwrap()];
        for _ in 0..7 {
            rows.push(RleRow::new(width));
        }
        let a = RleImage::from_rows(width, rows).unwrap();
        let b = RleImage::new(width, 8);
        let mut pipeline = DiffPipeline::new(4);
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert!(
            stats.chunks >= 4,
            "derived plan must feed all 4 workers: {stats:?}"
        );
        // An image shorter than the pool caps at one chunk per row.
        let a = img("####....\n..##..##\n");
        let b = img("####....\n..##..#.\n");
        let (_, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(stats.chunks, 2);
    }

    #[test]
    fn result_buffers_are_recycled_across_batches() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let mut pipeline = DiffPipelineConfig::new(1).chunk_target(1).build();
        let (_, _first) = pipeline.diff_images(&a, &b).unwrap();
        let (_, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert!(
            stats.buffers_reused > 0,
            "second batch must hit the recycling pool: {stats:?}"
        );
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let a = img("##..##..\n.######.\n");
        let b = img("##.###..\n.#....#.\n");
        let mut pipeline = DiffPipeline::new(2);
        let (first, _) = pipeline.diff_images(&a, &b).unwrap();
        let (second, _) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(first, second);
        let (identity, stats) = pipeline.diff_images(&a, &a.clone()).unwrap();
        assert_eq!(identity.ones(), 0);
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.rows_fast_path, 2, "equal rows take the fast path");
    }

    #[test]
    fn streaming_submit_collect_round_trip() {
        let a = img("####....\n..##..##\n#.#.#.#.\n");
        let b = img("###.....\n..##..#.\n.#.#.#.#\n");
        let mut pipeline = DiffPipeline::new(2);
        let tickets: Vec<Ticket> = a
            .rows()
            .iter()
            .zip(b.rows())
            .map(|(ra, rb)| pipeline.submit(ra.clone(), rb.clone()))
            .collect();
        assert_eq!(pipeline.in_flight(), 3);

        let mut rows: Vec<Option<RleRow>> = vec![None; 3];
        while let Some(done) = pipeline.collect() {
            let slot = tickets.iter().position(|t| *t == done.ticket).unwrap();
            rows[slot] = Some(done.result.unwrap().0);
        }
        assert_eq!(pipeline.in_flight(), 0);
        let (expected, _) = xor_image(&a, &b).unwrap();
        for (slot, row) in rows.into_iter().enumerate() {
            assert_eq!(row.unwrap(), expected.rows()[slot]);
        }
    }

    #[test]
    fn row_error_is_reported_and_pipeline_survives() {
        let mut pipeline = DiffPipeline::new(2);
        let good = RleRow::from_pairs(16, &[(0, 4)]).unwrap();
        let bad = RleRow::new(8); // width mismatch against `good`
        pipeline.submit(good.clone(), bad);
        let outcome = pipeline.collect().unwrap();
        assert!(outcome.result.is_err());
        assert_eq!(outcome.kernel, None, "no kernel ran for the bad row");
        // The pool still works after the failure.
        pipeline.submit(good.clone(), good.clone());
        let ok = pipeline.collect().unwrap();
        assert!(ok.result.unwrap().0.is_empty());
    }

    #[test]
    fn empty_image_batch() {
        let a = RleImage::new(32, 0);
        let mut pipeline = DiffPipeline::new(2);
        let (d, stats) = pipeline.diff_images(&a, &a.clone()).unwrap();
        assert_eq!(d.height(), 0);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.effective_workers, 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut pipeline = DiffPipeline::new(2);
        let a = RleImage::new(8, 2);
        assert!(pipeline.diff_images(&a, &RleImage::new(9, 2)).is_err());
        assert!(pipeline.diff_images(&a, &RleImage::new(8, 3)).is_err());
        // Failed dimension checks leave nothing in flight.
        assert_eq!(pipeline.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_workers_panics() {
        let _ = DiffPipeline::new(0);
    }

    #[test]
    fn config_defaults_and_builders() {
        let config = DiffPipelineConfig::default();
        assert!(config.threads >= 1);
        assert_eq!(config.retry_limit, 2);
        assert!(config.row_deadline.is_none());
        assert_eq!(config.kernel, Kernel::Auto);
        assert_eq!(config.simd, None, "SIMD level is auto-detected");
        assert_eq!(config.chunk_target, None);
        assert_eq!(config.observe, None, "observability is opt-in");
        let config = DiffPipelineConfig::new(2)
            .retry_limit(5)
            .row_deadline(Duration::from_millis(250))
            .shutdown_grace(Duration::from_millis(100))
            .kernel(Kernel::Packed)
            .simd(SimdLevel::Scalar)
            .chunk_target(64);
        assert_eq!(config.threads, 2);
        assert_eq!(config.retry_limit, 5);
        assert_eq!(config.row_deadline, Some(Duration::from_millis(250)));
        assert_eq!(config.shutdown_grace, Duration::from_millis(100));
        assert_eq!(config.kernel, Kernel::Packed);
        assert_eq!(config.simd, Some(SimdLevel::Scalar));
        assert_eq!(config.chunk_target, Some(64));
        let pipeline = config.build();
        assert_eq!(pipeline.workers(), 2);
        assert_eq!(pipeline.simd_level(), SimdLevel::Scalar);
        assert_eq!(pipeline.abandoned(), 0);
    }

    #[test]
    fn observed_pipeline_records_a_consistent_snapshot() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let unobserved = DiffPipeline::new(2);
        assert!(unobserved.observer().is_none(), "off by default");

        let mut pipeline = DiffPipelineConfig::new(2).observe().build();
        let obs = pipeline.observer().expect("observer attached");
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);

        let snapshot = obs.metrics_snapshot();
        assert_eq!(snapshot.batches, 1);
        assert_eq!(snapshot.rows_submitted, 4);
        assert_eq!(snapshot.rows_completed, 4);
        assert_eq!(snapshot.rows_diffed, 4, "no faults: one diff per row");
        assert_eq!(snapshot.kernel_rows(), 4);
        assert_eq!(snapshot.rows_fast_path, stats.rows_fast_path as u64);
        assert_eq!(snapshot.chunks_dispatched, stats.chunks as u64);
        assert_eq!(snapshot.chunks_completed, stats.chunks as u64);
        assert_eq!(snapshot.row_latency_ns.count, 4);
        assert_eq!(snapshot.row_runs.count, 4);
        assert_eq!((snapshot.queue_depth, snapshot.in_flight), (0, 0));
        // Trace carries the full causal story: 4 submits, a checkout and a
        // chunk-done per chunk, one kernel event per row.
        let events = obs.trace_snapshot();
        let count = |pred: fn(&TraceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, TraceKind::Submit { .. })), 4);
        assert_eq!(count(|k| matches!(k, TraceKind::Kernel { .. })), 4);
        assert_eq!(
            count(|k| matches!(k, TraceKind::Checkout { .. })),
            stats.chunks
        );
        assert_eq!(
            count(|k| matches!(k, TraceKind::ChunkDone { .. })),
            stats.chunks
        );
    }

    #[test]
    fn collect_timeout_on_healthy_pipeline_returns_rows() {
        let mut pipeline = DiffPipeline::new(2);
        assert!(matches!(
            pipeline.collect_timeout(Duration::from_millis(10)),
            Ok(None),
        ));
        let row = RleRow::from_pairs(16, &[(0, 4)]).unwrap();
        pipeline.submit(row.clone(), row);
        let got = pipeline
            .collect_timeout(Duration::from_secs(10))
            .expect("healthy worker beats a generous deadline")
            .expect("one row in flight");
        assert!(got.result.unwrap().0.is_empty());
    }

    #[test]
    fn drain_empties_the_pipeline() {
        let mut pipeline = DiffPipeline::new(2);
        let row = RleRow::from_pairs(16, &[(0, 4)]).unwrap();
        for _ in 0..5 {
            pipeline.submit(row.clone(), row.clone());
        }
        let outcomes = pipeline.drain();
        assert_eq!(outcomes.len(), 5);
        assert_eq!(pipeline.in_flight(), 0);
        assert!(pipeline.drain().is_empty());
    }

    #[test]
    fn batch_deadline_passes_when_workers_are_healthy() {
        let a = img("####....\n..##..##\n#.#.#.#.\n");
        let b = img("###.....\n..##..#.\n.#.#.#.#\n");
        let mut pipeline = DiffPipelineConfig::new(2)
            .row_deadline(Duration::from_secs(10))
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn per_call_deadline_batch_matches_reference_and_maps_tickets() {
        let a = Arc::new(img("####....\n..##..##\n#.#.#.#.\n"));
        let b = Arc::new(img("###.....\n..##..#.\n.#.#.#.#\n"));
        let mut pipeline = DiffPipeline::new(2);
        assert_eq!(pipeline.next_ticket(), 0);
        let lo = pipeline.next_ticket();
        let (got, _) = pipeline
            .diff_images_deadline(&a, &b, Duration::from_secs(10))
            .unwrap();
        let hi = pipeline.next_ticket();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        // One ticket per row, allocated contiguously for the batch.
        assert_eq!(hi - lo, a.height() as u64);
        // Different budgets per call on the same pool, no rebuild.
        let (again, _) = pipeline
            .diff_images_deadline(&a, &b, Duration::from_secs(1))
            .unwrap();
        assert_eq!(again, got);
        assert_eq!(pipeline.next_ticket(), hi + a.height() as u64);
    }

    #[test]
    fn load_snapshot_reports_an_idle_pool() {
        let a = img("####....\n..##..##\n");
        let b = img("###.....\n..##..#.\n");
        let mut pipeline = DiffPipeline::new(2);
        pipeline.diff_images(&a, &b).unwrap();
        let load = pipeline.load();
        assert_eq!(load.queued_chunks, 0);
        assert_eq!(load.ready_chunks, 0);
        assert_eq!(load.in_flight_rows, 0);
        assert_eq!(load.abandoned_rows, 0);
    }

    #[test]
    fn signature_prefilter_skips_matching_rows() {
        // Rows 0 and 2 are identical between the images; rows 1 and 3
        // differ. With the prefilter on, the identical rows resolve
        // host-side and the rest still go through kernels — bit-identical
        // either way.
        let a = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n.#.#.#.#\n.#.#.#.#\n");
        let (seq, _) = xor_image(&a, &b).unwrap();
        // Threshold 0.0 pins the prefilter active: this test exercises the
        // skip mechanics across all three front-ends, not the adaptive
        // bypass (see `adaptive_prefilter_bypasses_and_rearms`), and a 0.5
        // skip rate would otherwise trip the default threshold.
        let mut pipeline = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .sig_prefilter_min_skip_rate(0.0)
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.rows_sig_skipped, 2);
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.sig_collisions, 0);
        let kernel_rows = stats.rows_fast_path
            + stats.rows_rle_kernel
            + stats.rows_packed_kernel
            + stats.rows_systolic_kernel;
        assert_eq!(kernel_rows, 2, "only the changed rows reach a kernel");
        // Skipped rows still contribute their input sizes to the totals.
        assert_eq!(stats.totals.k1, a.total_runs());
        assert_eq!(stats.totals.k2, b.total_runs());

        // Shared and deadline front-ends agree.
        let (a, b) = (Arc::new(a), Arc::new(b));
        let (shared, shared_stats) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert_eq!(shared, seq);
        assert_eq!(shared_stats.rows_sig_skipped, 2);
        let (deadlined, deadline_stats) = pipeline
            .diff_images_deadline(&a, &b, Duration::from_secs(10))
            .unwrap();
        assert_eq!(deadlined, seq);
        assert_eq!(deadline_stats.rows_sig_skipped, 2);
    }

    #[test]
    fn adaptive_prefilter_bypasses_and_rearms() {
        // Two image pairs: `hot` churns every row (skip rate 0), `cold`
        // changes nothing (skip rate 1). Under the default threshold the
        // prefilter must run the first batch, stand aside after observing
        // the churn, keep measuring while bypassed, and re-arm one batch
        // after the sequence calms down — bit-identical output throughout.
        let base = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let hot = img("...####.\n##..##..\n#.#.#.#.\n.#.#.#.#\n");
        let mut pipeline = DiffPipelineConfig::new(2).signature_prefilter().build();

        // Batch 1: no history yet, so the prefilter runs (and finds
        // nothing to skip — every row differs).
        let (hot_seq, _) = xor_image(&base, &hot).unwrap();
        let (got, stats) = pipeline.diff_images(&base, &hot).unwrap();
        assert_eq!(got, hot_seq);
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.rows_sig_skipped, 0);

        // Batch 2: the observed rate (0.0) is below the threshold, so the
        // prefilter bypasses — even though this batch is all-identical and
        // would have skipped every row. Output must still be exact.
        let (got, stats) = pipeline.diff_images(&base, &base).unwrap();
        assert!(got.rows().iter().all(RleRow::is_empty));
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Bypassed);
        assert_eq!(stats.rows_sig_skipped, 0, "bypassed batches skip nothing");
        let kernel_rows = stats.rows_fast_path
            + stats.rows_rle_kernel
            + stats.rows_packed_kernel
            + stats.rows_systolic_kernel;
        assert_eq!(
            kernel_rows, 4,
            "every row reaches the kernels while bypassed"
        );

        // Batch 3: the bypassed batch still measured (rate 1.0), so the
        // prefilter re-arms and resolves every matching row host-side.
        let (got, stats) = pipeline.diff_images(&base, &base).unwrap();
        assert!(got.rows().iter().all(RleRow::is_empty));
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.rows_sig_skipped, 4);

        // And back: a hot batch under an active prefilter records its own
        // low rate, dropping the *next* batch into bypass again.
        let (got, stats) = pipeline.diff_images(&base, &hot).unwrap();
        assert_eq!(got, hot_seq);
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        let (_, stats) = pipeline.diff_images(&base, &hot).unwrap();
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Bypassed);
    }

    #[test]
    fn adaptive_prefilter_threshold_zero_never_bypasses() {
        let base = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let hot = img("...####.\n##..##..\n#.#.#.#.\n.#.#.#.#\n");
        let mut pipeline = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .sig_prefilter_min_skip_rate(0.0)
            .build();
        for _ in 0..3 {
            let (_, stats) = pipeline.diff_images(&base, &hot).unwrap();
            assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        }
    }

    #[test]
    fn small_residuals_are_diffed_inline_without_dispatch() {
        // 40 rows, 3 changed: far under INLINE_RESIDUAL_ROWS, so the batch
        // plans zero chunks, diffs the leftovers host-side, and the inline
        // ledger (not the worker ledger) carries them.
        let width = 256u32;
        let rows: Vec<RleRow> = (0..40)
            .map(|y: u32| RleRow::from_pairs(width, &[(y % 32, 5)]).unwrap())
            .collect();
        let a = RleImage::from_rows(width, rows.clone()).unwrap();
        let mut rows_b = rows;
        for y in [3usize, 17, 38] {
            rows_b[y] = RleRow::from_pairs(width, &[(y as u32 % 32 + 64, 5)]).unwrap();
        }
        let b = RleImage::from_rows(width, rows_b).unwrap();
        let (seq, _) = xor_image(&a, &b).unwrap();
        let mut pipeline = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .observe()
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows, 40);
        assert_eq!(stats.rows_sig_skipped, 37);
        assert_eq!(stats.chunks, 0, "small residuals must not dispatch");
        let kernel_rows = stats.rows_fast_path
            + stats.rows_rle_kernel
            + stats.rows_packed_kernel
            + stats.rows_systolic_kernel;
        assert_eq!(kernel_rows, 3, "inline rows keep their kernel accounting");
        let s = pipeline.observer().unwrap().metrics_snapshot();
        assert_eq!(s.rows_inline_diffed, 3);
        assert_eq!(s.rows_submitted, 0, "nothing entered the pool");
        assert_eq!(s.rows_diffed, 0, "no worker ran");
        assert_eq!(s.row_latency_ns.count, 3);
        assert_eq!(s.row_runs.count, 3);
        assert_eq!(s.kernel_rows(), 3);

        // A residual above the cap still goes through the pool.
        let mut rows_c = a.rows().to_vec();
        for (y, row) in rows_c.iter_mut().enumerate().take(INLINE_RESIDUAL_ROWS + 4) {
            *row = RleRow::from_pairs(width, &[(y as u32 + 100, 7)]).unwrap();
        }
        let c = RleImage::from_rows(width, rows_c).unwrap();
        let (seq_ac, _) = xor_image(&a, &c).unwrap();
        let (got_ac, stats_ac) = pipeline.diff_images(&a, &c).unwrap();
        assert_eq!(got_ac, seq_ac);
        assert!(stats_ac.chunks > 0, "large residuals still dispatch");
        let s2 = pipeline.observer().unwrap().metrics_snapshot();
        assert_eq!(s2.rows_inline_diffed, 3, "inline count unchanged");
        assert_eq!(
            s2.rows_diffed,
            (INLINE_RESIDUAL_ROWS + 4) as u64,
            "the second batch's residual ran on workers"
        );
    }

    #[test]
    fn signature_prefilter_handles_fully_identical_images() {
        let a = Arc::new(img("####....\n..##..##\n.#.#.#.#\n"));
        let b = Arc::new((*a).clone());
        let mut pipeline = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .observe()
            .build();
        let (diff, stats) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert!(diff.rows().iter().all(RleRow::is_empty));
        assert_eq!(diff.height(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.rows_sig_skipped, 3);
        assert_eq!(stats.chunks, 0, "nothing left to plan");
        // Skipped rows never enter the submit/complete ledgers; the metric
        // and trace event carry them instead.
        let snapshot = pipeline.observer().unwrap().metrics_snapshot();
        assert_eq!(snapshot.rows_submitted, 0);
        assert_eq!(snapshot.rows_completed, 0);
        assert_eq!(snapshot.rows_sig_skipped, 3);
        let events = pipeline.observer().unwrap().trace_snapshot();
        let skips = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::SigSkip { .. }))
            .count();
        assert_eq!(skips, 3);
        // The pipeline is idle and immediately reusable.
        assert_eq!(pipeline.in_flight(), 0);
        let (again, _) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert_eq!(again, diff);
    }

    #[test]
    fn signature_prefilter_respects_non_canonical_encodings() {
        // The same bitstring encoded canonically on one side and as split
        // adjacent runs on the other: signatures match (canonical-view
        // hashing), so the row is skipped — and that is *correct*, because
        // the XOR of equal content is empty however it is encoded.
        let wide = 64u32;
        let canonical = RleRow::from_pairs(wide, &[(3, 6)]).unwrap();
        let split = RleRow::from_pairs(wide, &[(3, 4), (7, 2)]).unwrap();
        let changed_a = RleRow::from_pairs(wide, &[(0, 2)]).unwrap();
        let changed_b = RleRow::from_pairs(wide, &[(1, 2)]).unwrap();
        let a = RleImage::from_rows(wide, vec![canonical, changed_a]).unwrap();
        let b = RleImage::from_rows(wide, vec![split, changed_b]).unwrap();
        let (seq, _) = xor_image(&a, &b).unwrap();
        let mut pipeline = DiffPipelineConfig::new(2).signature_prefilter().build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows_sig_skipped, 1);
    }

    #[test]
    fn verify_signatures_confirms_clean_skips() {
        let a = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n.#.#.#.#\n.#.#.#.#\n");
        let mut pipeline = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .verify_signatures()
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!(stats.rows_sig_skipped, 2);
        assert_eq!(stats.sig_verified, 1, "first skip of the batch sampled");
        assert_eq!(stats.sig_collisions, 0);
    }

    #[test]
    fn systolic_kernel_bypasses_the_prefilter() {
        // Kernel::Systolic promises cycle-exact per-row statistics against
        // the reference machine; the prefilter must stand aside.
        let a = img("####....\n..##..##\n");
        let b = img("####....\n..##..#.\n");
        let (seq, seq_stats) = xor_image(&a, &b).unwrap();
        let mut pipeline = DiffPipelineConfig::new(2)
            .kernel(Kernel::Systolic)
            .signature_prefilter()
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows_sig_skipped, 0);
        assert_eq!(stats.rows_systolic_kernel, 2);
        assert_eq!(stats.totals.iterations, seq_stats.totals.iterations);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_collision_is_caught_by_paranoid_mode() {
        // Force the prefilter to believe row 0's signatures match even
        // though the rows differ — a synthetic 64-bit collision. Without
        // verification the diff silently loses row 0's differences; with
        // it, the sampled cross-check substitutes the reference diff.
        let a = img("####....\n..##..##\n");
        let b = img("...####.\n..##..##\n");
        let (seq, _) = xor_image(&a, &b).unwrap();

        let mut unchecked = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .fault_sig_collisions(vec![0])
            .build();
        let (wrong, stats) = unchecked.diff_images(&a, &b).unwrap();
        assert_ne!(wrong, seq, "the forced false skip drops row 0's diff");
        assert!(wrong.rows()[0].is_empty());
        assert_eq!(stats.rows_sig_skipped, 2);

        let mut paranoid = DiffPipelineConfig::new(2)
            .signature_prefilter()
            .verify_signatures()
            .fault_sig_collisions(vec![0])
            .build();
        let (got, stats) = paranoid.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq, "verification restores exactness");
        assert_eq!(stats.sig_collisions, 1);
        assert_eq!(stats.rows_sig_skipped, 1, "row 1's genuine skip remains");
    }
}
