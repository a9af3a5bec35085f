//! Ensemble serving scheduler: many parameterized jobs over one artifact
//! cache, a bounded admission queue and a persistent worker pool.
//!
//! The paper's clinical use case is not one simulation but a *service* —
//! the same arterial geometry solved under many inflow waveforms,
//! viscosity estimates or resistance parameters, for many users at once.
//! PR 9 built the content-addressed setup cache; this module builds the
//! scheduler that turns setup reuse into throughput:
//!
//! * **Admission** — jobs enter a bounded MPMC queue (backpressure on the
//!   producer) in an order chosen by [`SchedPolicy`]:
//!   [`SchedPolicy::Fifo`] preserves submission order;
//!   [`SchedPolicy::CostAffinity`] ranks by [`Priority`], then batches
//!   jobs sharing an affinity key (derived from the `ArtifactKey` prefix
//!   of their discretization, see [`ArtifactKey::prefix64`]) so
//!   cache-warm jobs co-schedule and a bounded cache keeps one group's
//!   working set resident instead of thrashing between groups.
//! * **Placement** — each job runs under a rayon pool whose width comes
//!   from [`nkg_topo::cost_weighted_pool_width`]: the equal share of
//!   [`SchedulerConfig::host_cores`] scaled by the job's
//!   `nkg-perfmodel` cost estimate relative to the batch median.
//! * **Preemption** — jobs advance in slices ([`JobOps::run_slice`]); a
//!   batch-priority job that has held a worker for
//!   [`SchedulerConfig::quantum_slices`] slices while interactive jobs
//!   wait is snapshotted (`nkg-ckpt`, CRC-sealed), requeued, and later
//!   resumed **bitwise** on whichever worker frees up — a deep queue
//!   cannot starve short jobs.
//! * **Isolation** — a panicking job records a typed [`JobFailure`] in
//!   its [`JobReport`]; the cache stays clean (in-flight builds are
//!   unwound by `nkg-artifact`'s build guard) and the rest of the batch
//!   finishes.
//!
//! **Determinism contract.** Scheduling affects *when and where* a job
//! runs, never its physics: jobs are independent, cache hits return
//! bitwise-identical immutable artifacts, and preempt→resume replays
//! from a bitwise snapshot at a slice boundary. Per-job outputs are
//! therefore identical across policies, worker counts and preemption
//! patterns (asserted by proptests and the `bench_serve` golden hash).
//! Admission order itself is a pure function of the specs
//! ([`admission_order`]) with a total tie-break ending at the submission
//! index, so scheduling *decisions* are reproducible too.

use nkg_artifact::{with_cache, ArtifactCache, ArtifactKey, CacheMode, KeyHasher, KindStats};
use nkg_ckpt::{restore_bytes, seal_bytes, snapshot_bytes, unseal_bytes, CkptError};
use nkg_mci::panic_message;
use nkg_perfmodel::EnsembleJobModel;
use nkg_topo::cost_weighted_pool_width;

use crate::multipatch::{poiseuille_multipatch, Multipatch2d};

use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long an idle worker parks on the admission queue before polling
/// the resume queue again.
const PARK: Duration = Duration::from_micros(200);

/// Priority class of a queued job. Lower variants outrank higher ones
/// under [`SchedPolicy::CostAffinity`], and pending `Interactive` jobs
/// are what trigger quantum preemption of running `Batch` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: scheduled ahead of every batch job.
    Interactive,
    /// Throughput-oriented: yields its worker after a quantum while
    /// interactive jobs wait.
    Batch,
}

/// Admission-ordering policy of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Submission order, unchanged (the facade and baseline).
    Fifo,
    /// Priority first, then affinity groups batched contiguously
    /// (cheapest group first), then submission order.
    CostAffinity,
}

/// One queued job: the caller's parameters plus scheduling metadata.
#[derive(Debug, Clone)]
pub struct JobSpec<J> {
    /// Caller-defined parameter point handed to every [`JobOps`] call.
    pub params: J,
    /// Priority class (default [`Priority::Batch`]).
    pub priority: Priority,
    /// Cache-affinity key — jobs sharing it co-schedule under
    /// [`SchedPolicy::CostAffinity`]. Derive it from the discretization's
    /// [`ArtifactKey::prefix64`] so "same affinity" means "same setup
    /// artifacts".
    pub affinity: u64,
    /// Predicted single-core cost (seconds or any consistent unit); only
    /// ratios matter. Drives group ordering and per-job pool widths.
    pub cost: f64,
    /// Scripted preemption for tests and smoke legs: checkpoint and
    /// requeue after exactly this many slices (fires once).
    pub preempt_after: Option<usize>,
}

impl<J> JobSpec<J> {
    /// A batch-priority, affinity-0, unit-cost spec around `params`.
    pub fn new(params: J) -> Self {
        Self {
            params,
            priority: Priority::Batch,
            affinity: 0,
            cost: 1.0,
            preempt_after: None,
        }
    }

    /// Set the priority class.
    #[must_use]
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set the affinity key directly.
    #[must_use]
    pub fn affinity(mut self, a: u64) -> Self {
        self.affinity = a;
        self
    }

    /// Derive the affinity key from a discretization's artifact key.
    #[must_use]
    pub fn affinity_key(self, k: ArtifactKey) -> Self {
        self.affinity(k.prefix64())
    }

    /// Set the predicted cost.
    #[must_use]
    pub fn cost(mut self, c: f64) -> Self {
        self.cost = c;
        self
    }

    /// Script a one-shot preemption after `n` slices.
    #[must_use]
    pub fn preempt_after(mut self, n: usize) -> Self {
        self.preempt_after = Some(n);
        self
    }
}

/// Why a job produced no result. The failure is recorded in the job's
/// [`JobReport`]; the rest of the batch is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job's `build` panicked (message captured).
    BuildPanicked(String),
    /// A `run_slice` (or the final `finish`) panicked.
    RunPanicked {
        /// Slice index that panicked (`slices` = the finish call).
        slice: usize,
        /// Captured panic message.
        message: String,
    },
}

/// Account of one job's trip through the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Seconds building (or restoring) the solver, summed over dispatches.
    pub setup_seconds: f64,
    /// Seconds advancing slices, summed over dispatches.
    pub run_seconds: f64,
    /// Seconds between batch start and the job's first dispatch.
    pub wait_seconds: f64,
    /// Seconds between batch start and the job's completion — the serving
    /// latency the p50/p95/p99 rows aggregate.
    pub latency_seconds: f64,
    /// Rayon pool width the job ran under.
    pub pool_width: usize,
    /// Position in the global dispatch sequence (0 = dispatched first).
    pub dispatch_order: usize,
    /// Times the job was checkpointed and requeued.
    pub preemptions: u32,
    /// Times a resume payload failed integrity/restore and the job fell
    /// back to a fresh build from slice 0.
    pub restore_fallbacks: u32,
    /// Slices completed (equals the job's total unless it failed).
    pub slices: usize,
    /// Typed failure, if the job panicked instead of finishing.
    pub failure: Option<JobFailure>,
}

/// What every job yields: its report plus its output — `None` exactly
/// when the report records a [`JobFailure`].
pub type JobResult<T> = (JobReport, Option<T>);

/// Scheduler knobs. `Default` is a single inline FIFO worker sized to
/// this host — the facade configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Persistent worker threads (1 = run inline on the caller's thread).
    pub workers: usize,
    /// Admission-ordering policy.
    pub policy: SchedPolicy,
    /// Capacity of the bounded admission queue (backpressure depth).
    pub queue_depth: usize,
    /// Quantum for batch jobs: after this many consecutive slices with
    /// interactive jobs pending, checkpoint and requeue. `None` disables
    /// quantum preemption (scripted preemptions still fire).
    pub quantum_slices: Option<usize>,
    /// Logical cores of this host, the budget pool widths share.
    pub host_cores: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            policy: SchedPolicy::Fifo,
            queue_depth: 32,
            quantum_slices: None,
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// A job kind the scheduler can run: construction, sliced execution, and
/// (optionally) bitwise checkpoint/resume for preemption.
///
/// `State` never crosses threads — a preempted job travels as sealed
/// snapshot bytes and is rebuilt via [`JobOps::restore`] on whichever
/// worker picks it up — so no `Send` bound is required on it.
pub trait JobOps<J> {
    /// Per-job solver state, alive for one dispatch.
    type State;
    /// Per-job result returned to the caller.
    type Out;

    /// Construct the solver for a parameter point (runs inside the shared
    /// cache scope, so setup artifacts hit the cache).
    fn build(&self, job: &J) -> Self::State;
    /// Total slices the job runs (preemption happens at slice
    /// boundaries); treated as at least 1.
    fn slices(&self, job: &J) -> usize;
    /// Advance one slice.
    fn run_slice(&self, state: &mut Self::State, job: &J, slice: usize);
    /// Produce the job's result after the last slice.
    fn finish(&self, state: &mut Self::State, job: &J) -> Self::Out;

    /// Bitwise snapshot for preemption; `None` (the default) marks the
    /// job non-preemptible and it simply keeps its worker.
    fn snapshot(&self, _state: &Self::State, _job: &J) -> Option<Vec<u8>> {
        None
    }

    /// Reconstruct state from a payload produced by [`JobOps::snapshot`].
    /// A failure here (or a corrupt payload) falls back to a fresh build
    /// replaying from slice 0 — slower, never wrong.
    fn restore(&self, _job: &J, _payload: &[u8]) -> Result<Self::State, CkptError> {
        Err(CkptError::Malformed("job kind does not support resume"))
    }
}

/// The deterministic admission order of `specs` under `policy` — a pure
/// function, exposed so tests and benches can assert scheduling
/// decisions without running jobs.
///
/// `CostAffinity` sorts by: priority class, then affinity group (groups
/// ordered by their cheapest member's cost, ties by the group's first
/// submission), then submission index. Every comparison is total
/// (`f64::total_cmp`), so the order is reproducible bit-for-bit.
pub fn admission_order<J>(specs: &[JobSpec<J>], policy: SchedPolicy) -> Vec<usize> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    if policy == SchedPolicy::Fifo {
        return order;
    }
    // Per (priority, affinity) group: cheapest member, first submission.
    let mut groups: HashMap<(Priority, u64), (f64, usize)> = HashMap::new();
    for (i, s) in specs.iter().enumerate() {
        let e = groups
            .entry((s.priority, s.affinity))
            .or_insert((s.cost, i));
        if s.cost.total_cmp(&e.0).is_lt() {
            e.0 = s.cost;
        }
    }
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&specs[a], &specs[b]);
        let ga = groups[&(sa.priority, sa.affinity)];
        let gb = groups[&(sb.priority, sb.affinity)];
        sa.priority
            .cmp(&sb.priority)
            .then(ga.0.total_cmp(&gb.0))
            .then(ga.1.cmp(&gb.1))
            .then(a.cmp(&b))
    });
    order
}

/// A dispatchable unit traveling through the queues: a job index plus
/// the progress it carries across preemptions.
struct Task {
    idx: usize,
    /// CRC-sealed snapshot to resume from (`None` = fresh build).
    sealed: Option<Vec<u8>>,
    slices_done: usize,
    preemptions: u32,
    restore_fallbacks: u32,
    dispatch_order: usize,
    wait_seconds: f64,
    setup_seconds: f64,
    run_seconds: f64,
}

impl Task {
    fn fresh(idx: usize) -> Self {
        Self {
            idx,
            sealed: None,
            slices_done: 0,
            preemptions: 0,
            restore_fallbacks: 0,
            dispatch_order: usize::MAX,
            wait_seconds: 0.0,
            setup_seconds: 0.0,
            run_seconds: 0.0,
        }
    }
}

/// Shared state of one `serve` call: specs, placement, progress counters
/// and the result slots. Workers borrow it; the inline path drives it
/// directly.
struct Engine<'a, J, O: JobOps<J>> {
    cache: &'a Arc<ArtifactCache>,
    specs: &'a [JobSpec<J>],
    ops: &'a O,
    quantum: Option<usize>,
    widths: Vec<usize>,
    start: Instant,
    /// Interactive jobs not yet first-dispatched — what batch jobs check
    /// before yielding their quantum.
    interactive_pending: AtomicUsize,
    dispatch_counter: AtomicUsize,
    completed: AtomicUsize,
    results: Mutex<Vec<Option<JobResult<O::Out>>>>,
}

impl<'a, J, O: JobOps<J>> Engine<'a, J, O> {
    fn new(
        cache: &'a Arc<ArtifactCache>,
        specs: &'a [JobSpec<J>],
        ops: &'a O,
        cfg: &SchedulerConfig,
    ) -> Self {
        // Batch-median cost anchors the cost→width scaling.
        let mut costs: Vec<f64> = specs.iter().map(|s| s.cost).collect();
        costs.sort_by(f64::total_cmp);
        let median = costs.get(costs.len() / 2).copied().unwrap_or(1.0);
        let widths = specs
            .iter()
            .map(|s| cost_weighted_pool_width(cfg.host_cores, cfg.workers, s.cost, median))
            .collect();
        let interactive = specs
            .iter()
            .filter(|s| s.priority == Priority::Interactive)
            .count();
        let mut results = Vec::with_capacity(specs.len());
        results.resize_with(specs.len(), || None);
        Self {
            cache,
            specs,
            ops,
            quantum: cfg.quantum_slices,
            widths,
            start: Instant::now(),
            interactive_pending: AtomicUsize::new(interactive),
            dispatch_counter: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            results: Mutex::new(results),
        }
    }

    /// Run one dispatch of `task` (fresh or resumed) to completion,
    /// failure, or preemption (`requeue` receives the sealed task).
    fn run_task(&self, mut task: Task, requeue: &impl Fn(Task)) {
        if task.dispatch_order == usize::MAX {
            task.dispatch_order = self.dispatch_counter.fetch_add(1, Ordering::SeqCst);
            task.wait_seconds = self.start.elapsed().as_secs_f64();
            if self.specs[task.idx].priority == Priority::Interactive {
                self.interactive_pending.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let width = self.widths[task.idx];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("vendored rayon pool construction is infallible");
        pool.install(|| with_cache(self.cache, || self.exec(task, requeue)));
    }

    fn exec(&self, mut task: Task, requeue: &impl Fn(Task)) {
        let spec = &self.specs[task.idx];
        let job = &spec.params;
        let width = self.widths[task.idx];

        let t0 = Instant::now();
        let restored = match task.sealed.take() {
            Some(sealed) => {
                match unseal_bytes(&sealed).and_then(|payload| self.ops.restore(job, payload)) {
                    Ok(s) => Some(s),
                    Err(_) => {
                        // Damaged or incompatible payload: replay from
                        // scratch rather than resume wrong state.
                        task.restore_fallbacks += 1;
                        task.slices_done = 0;
                        None
                    }
                }
            }
            None => None,
        };
        let mut state = match restored {
            Some(s) => s,
            None => match catch_unwind(AssertUnwindSafe(|| self.ops.build(job))) {
                Ok(s) => s,
                Err(e) => {
                    task.setup_seconds += t0.elapsed().as_secs_f64();
                    self.record(
                        task,
                        width,
                        None,
                        Some(JobFailure::BuildPanicked(panic_message(e.as_ref()))),
                    );
                    return;
                }
            },
        };
        task.setup_seconds += t0.elapsed().as_secs_f64();

        let total = self.ops.slices(job).max(1);
        let t1 = Instant::now();
        let mut ran_this_dispatch = 0usize;
        while task.slices_done < total {
            let slice = task.slices_done;
            if let Err(e) = catch_unwind(AssertUnwindSafe(|| {
                self.ops.run_slice(&mut state, job, slice)
            })) {
                task.run_seconds += t1.elapsed().as_secs_f64();
                self.record(
                    task,
                    width,
                    None,
                    Some(JobFailure::RunPanicked {
                        slice,
                        message: panic_message(e.as_ref()),
                    }),
                );
                return;
            }
            task.slices_done += 1;
            ran_this_dispatch += 1;
            if task.slices_done == total {
                break;
            }
            let scripted = spec.preempt_after == Some(task.slices_done);
            let quantum = spec.priority == Priority::Batch
                && self.quantum.is_some_and(|q| ran_this_dispatch >= q)
                && self.interactive_pending.load(Ordering::SeqCst) > 0;
            if scripted || quantum {
                if let Some(payload) = self.ops.snapshot(&state, job) {
                    task.run_seconds += t1.elapsed().as_secs_f64();
                    task.preemptions += 1;
                    task.sealed = Some(seal_bytes(&payload));
                    requeue(task);
                    return;
                }
            }
        }
        let out = match catch_unwind(AssertUnwindSafe(|| self.ops.finish(&mut state, job))) {
            Ok(o) => Some(o),
            Err(e) => {
                task.run_seconds += t1.elapsed().as_secs_f64();
                self.record(
                    task,
                    width,
                    None,
                    Some(JobFailure::RunPanicked {
                        slice: total,
                        message: panic_message(e.as_ref()),
                    }),
                );
                return;
            }
        };
        task.run_seconds += t1.elapsed().as_secs_f64();
        self.record(task, width, out, None);
    }

    fn record(&self, task: Task, width: usize, out: Option<O::Out>, failure: Option<JobFailure>) {
        let report = JobReport {
            job: task.idx,
            setup_seconds: task.setup_seconds,
            run_seconds: task.run_seconds,
            wait_seconds: task.wait_seconds,
            latency_seconds: self.start.elapsed().as_secs_f64(),
            pool_width: width,
            dispatch_order: task.dispatch_order,
            preemptions: task.preemptions,
            restore_fallbacks: task.restore_fallbacks,
            slices: task.slices_done,
            failure,
        };
        self.results.lock().unwrap()[task.idx] = Some((report, out));
        self.completed.fetch_add(1, Ordering::SeqCst);
    }

    /// Worker thread body: prefer the bounded admission queue (it carries
    /// the policy's order), fall back to the resume queue, park briefly
    /// when both are dry, exit when every job completed.
    fn worker_loop(
        &self,
        main_rx: &Receiver<Task>,
        res_rx: &Receiver<Task>,
        res_tx: &Sender<Task>,
    ) {
        let total = self.specs.len();
        let requeue = |t: Task| {
            let _ = res_tx.send(t);
        };
        loop {
            if self.completed.load(Ordering::SeqCst) >= total {
                return;
            }
            match main_rx.try_recv() {
                Ok(t) => {
                    self.run_task(t, &requeue);
                    continue;
                }
                Err(TryRecvError::Empty) => {
                    if let Ok(t) = main_rx.recv_timeout(PARK) {
                        self.run_task(t, &requeue);
                        continue;
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    // Admission finished; only resumes remain.
                    if let Ok(t) = res_rx.recv_timeout(PARK) {
                        self.run_task(t, &requeue);
                    }
                    continue;
                }
            }
            if let Ok(t) = res_rx.try_recv() {
                self.run_task(t, &requeue);
            }
        }
    }

    /// Single inline worker: same precedence (admitted order first, then
    /// resumes) without threads — the facade path, and `workers == 1`.
    fn drive_inline(&self, order: &[usize]) {
        let resume: RefCell<VecDeque<Task>> = RefCell::new(VecDeque::new());
        let mut fresh: VecDeque<Task> = order.iter().map(|&i| Task::fresh(i)).collect();
        let total = self.specs.len();
        while self.completed.load(Ordering::SeqCst) < total {
            let task = fresh
                .pop_front()
                .or_else(|| resume.borrow_mut().pop_front())
                .expect("scheduler is work-conserving: jobs incomplete but no runnable task");
            self.run_task(task, &|t| resume.borrow_mut().push_back(t));
        }
    }

    fn into_results(self) -> Vec<JobResult<O::Out>> {
        self.results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("every submitted job records a result"))
            .collect()
    }
}

/// The serving runner: one shared artifact cache plus the scheduling
/// engine.
pub struct Ensemble {
    cache: Arc<ArtifactCache>,
}

impl Ensemble {
    /// Ensemble with an in-memory cache of the given mode
    /// ([`CacheMode::Off`] makes every job a cold build — the baseline).
    pub fn new(mode: CacheMode) -> Self {
        Self {
            cache: Arc::new(ArtifactCache::new(mode)),
        }
    }

    /// Ensemble whose cache also persists encodable artifacts under `dir`,
    /// so a *later process* (or a resumed batch) warm-starts from disk.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            cache: Arc::new(ArtifactCache::on_disk(dir)),
        }
    }

    /// Ensemble over a caller-constructed cache (e.g. one bounded with
    /// [`ArtifactCache::with_capacity_bytes`] to study eviction
    /// behavior under affinity vs FIFO admission).
    pub fn from_cache(cache: Arc<ArtifactCache>) -> Self {
        Self { cache }
    }

    /// The shared cache (for stats inspection or nesting via
    /// [`with_cache`]).
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Per-kind cache counters accumulated over all jobs so far.
    pub fn stats(&self) -> Vec<(&'static str, KindStats)> {
        self.cache.stats()
    }

    /// Run a batch through the scheduler: admission per `cfg.policy`,
    /// `cfg.workers` persistent workers fed by a bounded queue, per-job
    /// pool widths from the cost model, preemption per quantum/script.
    /// Returns one `(report, result)` per spec **in submission order**;
    /// `result` is `None` exactly when the report records a
    /// [`JobFailure`] (or the job was never resumable).
    pub fn serve<J, O>(
        &self,
        specs: &[JobSpec<J>],
        ops: &O,
        cfg: &SchedulerConfig,
    ) -> Vec<JobResult<O::Out>>
    where
        J: Sync,
        O: JobOps<J> + Sync,
        O::Out: Send,
    {
        let order = admission_order(specs, cfg.policy);
        let engine = Engine::new(&self.cache, specs, ops, cfg);
        if cfg.workers <= 1 {
            engine.drive_inline(&order);
            return engine.into_results();
        }
        let (main_tx, main_rx) = bounded::<Task>(cfg.queue_depth.max(1));
        let (res_tx, res_rx) = unbounded::<Task>();
        std::thread::scope(|s| {
            for _ in 0..cfg.workers {
                let main_rx = main_rx.clone();
                let res_rx = res_rx.clone();
                let res_tx = res_tx.clone();
                let engine = &engine;
                s.spawn(move || engine.worker_loop(&main_rx, &res_rx, &res_tx));
            }
            for idx in order {
                // Backpressure: blocks while `queue_depth` jobs wait.
                let _ = main_tx.send(Task::fresh(idx));
            }
            drop(main_tx);
        });
        engine.into_results()
    }
}

// ---------------------------------------------------------------------------
// The canonical sweep job: what benches, smoke legs and proptests serve.
// ---------------------------------------------------------------------------

/// A parameter point of the Poiseuille multipatch sweep used by
/// `bench_serve`, the check.sh smoke leg and the scheduler proptests:
/// the channel discretization (which determines the setup artifacts)
/// plus the swept body force and the run length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepJob {
    /// Channel length.
    pub len: f64,
    /// Channel height.
    pub height: f64,
    /// Elements along the channel (total across patches).
    pub nx: usize,
    /// Elements across the channel.
    pub ny: usize,
    /// Overlapping patches.
    pub np: usize,
    /// Polynomial order.
    pub p: usize,
    /// Kinematic viscosity: it sets the viscous Helmholtz λ, so it is
    /// part of the discretization. (The patch overlap is always one
    /// element, see `QuadMesh::split_overlapping_x`.)
    pub nu: f64,
    /// Swept body force (does not touch setup artifacts).
    pub force: f64,
    /// Time step.
    pub dt: f64,
    /// Steps to run — one scheduler slice each.
    pub steps: usize,
}

impl SweepJob {
    /// The standard 4×1 channel at a given discretization and force.
    pub fn channel(nx: usize, np: usize, p: usize, force: f64, steps: usize) -> Self {
        Self {
            len: 4.0,
            height: 1.0,
            nx,
            ny: 2,
            np,
            p,
            nu: 0.5,
            force,
            dt: 5e-3,
            steps,
        }
    }

    /// Artifact key of the *discretization* — exactly the inputs the
    /// setup artifacts (GLL tables, preconditioners, interface tables)
    /// depend on; the swept force and run length are excluded, so jobs
    /// sharing this key share a warm cache.
    pub fn discretization_key(&self) -> ArtifactKey {
        let mut h = KeyHasher::new("ensemble/discretization");
        h.usizes(&[self.nx, self.ny, self.np, self.p]);
        h.f64s(&[self.len, self.height, self.nu, self.dt]);
        h.finish()
    }

    /// Predicted single-core cost (seconds) from the analytic ensemble
    /// job model; `warm` drops the setup term.
    pub fn cost(&self, warm: bool) -> f64 {
        EnsembleJobModel::default().job_seconds(self.nx * self.ny, self.p, self.steps, warm)
    }

    /// The scheduler spec for this job: batch priority, affinity from
    /// the discretization key prefix, cost from the job model.
    pub fn spec(self) -> JobSpec<SweepJob> {
        let key = self.discretization_key();
        let cost = self.cost(false);
        JobSpec::new(self).affinity_key(key).cost(cost)
    }

    /// Construct the solver (inside the ambient cache scope).
    pub fn build(&self) -> Multipatch2d {
        poiseuille_multipatch(
            self.len,
            self.height,
            self.nx,
            self.ny,
            self.np,
            self.p,
            self.nu,
            self.force,
            self.dt,
        )
    }
}

/// FNV-1a over every field DOF's bit pattern — the golden hash proving
/// scheduling never changes physics.
pub fn field_hash(mp: &Multipatch2d) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for s in &mp.patches {
        for x in s.u.iter().chain(&s.v).chain(&s.p) {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
    }
    h
}

/// [`JobOps`] of the canonical sweep: one time step per slice, bitwise
/// snapshot/resume via the solver's `nkg-ckpt` [`nkg_ckpt::Snapshot`]
/// impl, and the [`field_hash`] as the job's output.
pub struct SweepOps;

impl JobOps<SweepJob> for SweepOps {
    type State = Multipatch2d;
    type Out = u64;

    fn build(&self, job: &SweepJob) -> Multipatch2d {
        job.build()
    }

    fn slices(&self, job: &SweepJob) -> usize {
        job.steps
    }

    fn run_slice(&self, mp: &mut Multipatch2d, _job: &SweepJob, _slice: usize) {
        mp.step();
    }

    fn finish(&self, mp: &mut Multipatch2d, _job: &SweepJob) -> u64 {
        field_hash(mp)
    }

    fn snapshot(&self, mp: &Multipatch2d, _job: &SweepJob) -> Option<Vec<u8>> {
        Some(snapshot_bytes(mp))
    }

    fn restore(&self, job: &SweepJob, payload: &[u8]) -> Result<Multipatch2d, CkptError> {
        // Rebuild the compatibly-constructed instance (cache-warm), then
        // overwrite its evolving state bitwise.
        let mut mp = job.build();
        restore_bytes(&mut mp, payload)?;
        Ok(mp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep over `forces` on one discretization, four steps per job,
    /// served FIFO on the inline worker.
    fn sweep(ens: &Ensemble, forces: &[f64]) -> Vec<JobResult<u64>> {
        let specs: Vec<_> = forces
            .iter()
            .map(|&f| SweepJob::channel(8, 2, 3, f, 4).spec())
            .collect();
        ens.serve(&specs, &SweepOps, &SchedulerConfig::default())
    }

    fn hashes(out: &[JobResult<u64>]) -> Vec<u64> {
        out.iter()
            .map(|(r, h)| h.unwrap_or_else(|| panic!("job failed: {r:?}")))
            .collect()
    }

    /// K=3 parameter sweep under a process cache: later jobs hit on every
    /// kind the first job populated, and every job's physics is bitwise
    /// identical to a cold (cache-off) run of the same parameters.
    #[test]
    fn warm_jobs_bitwise_match_cold() {
        let forces = [0.3, 0.4, 0.5];
        let warm = Ensemble::new(CacheMode::Process);
        let warm_out = sweep(&warm, &forces);
        let cold = Ensemble::new(CacheMode::Off);
        let cold_out = sweep(&cold, &forces);

        let totals = warm.cache().totals();
        assert!(
            totals.hits > 0,
            "3-job sweep produced no cache hits: {totals:?}"
        );
        assert_eq!(cold.cache().totals().hits, 0, "Off mode must never hit");
        assert_eq!(
            hashes(&warm_out),
            hashes(&cold_out),
            "warm job diverged bitwise from cold job"
        );
    }

    /// The jobs' setup reuse shows up in the per-kind counters: the sweep
    /// shares one GLL table, one preconditioner factorization per engine
    /// and one interface table set across all jobs.
    #[test]
    fn sweep_reuses_setup_artifacts() {
        let ens = Ensemble::new(CacheMode::Process);
        sweep(&ens, &[0.25, 0.35, 0.45, 0.55]);
        for (kind, st) in ens.stats() {
            assert!(
                st.hits > 0,
                "kind {kind:?} never hit across a 4-job sweep: {st:?}"
            );
            assert!(st.bytes > 0, "kind {kind:?} reported no bytes");
        }
        // At least the big three artifact kinds must be in play.
        let kinds: Vec<_> = ens.stats().iter().map(|&(k, _)| k).collect();
        for expect in ["gll", "precon", "interp"] {
            assert!(kinds.contains(&expect), "missing kind {expect}: {kinds:?}");
        }
    }

    /// Disk tier: a second ensemble pointed at the same directory decodes
    /// the persisted artifacts instead of rebuilding, and its physics is
    /// still bitwise identical.
    #[test]
    fn disk_tier_warm_starts_a_second_batch() {
        let dir = std::env::temp_dir().join(format!("nkg-ens-{}", std::process::id()));
        let forces = [0.4, 0.5];
        let first_out = sweep(&Ensemble::with_disk(&dir), &forces);
        let second = Ensemble::with_disk(&dir);
        let second_out = sweep(&second, &forces);
        let totals = second.cache().totals();
        assert!(
            totals.disk_hits > 0,
            "second batch never hit the disk tier: {totals:?}"
        );
        assert_eq!(
            hashes(&first_out),
            hashes(&second_out),
            "disk-warmed job diverged bitwise"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panicking job records a typed failure, the batch finishes, and
    /// the shared cache stays usable (no poisoned locks, no stuck
    /// in-flight builds).
    #[test]
    fn panicking_job_is_isolated() {
        /// `SweepOps`, except a NaN force panics in `build` and an
        /// infinite one in slice 2.
        struct PanickyOps;
        impl JobOps<SweepJob> for PanickyOps {
            type State = Multipatch2d;
            type Out = u64;
            fn build(&self, job: &SweepJob) -> Multipatch2d {
                assert!(!job.force.is_nan(), "scripted build panic for NaN force");
                job.build()
            }
            fn slices(&self, job: &SweepJob) -> usize {
                job.steps
            }
            fn run_slice(&self, mp: &mut Multipatch2d, job: &SweepJob, slice: usize) {
                assert!(
                    !(job.force.is_infinite() && slice == 2),
                    "scripted run panic"
                );
                mp.step();
            }
            fn finish(&self, mp: &mut Multipatch2d, _job: &SweepJob) -> u64 {
                field_hash(mp)
            }
        }
        let specs: Vec<_> = [0.3, f64::NAN, 0.5, f64::INFINITY]
            .iter()
            .map(|&f| JobSpec::new(SweepJob::channel(8, 2, 3, f, 4)))
            .collect();
        let ens = Ensemble::new(CacheMode::Process);
        let out = ens.serve(&specs, &PanickyOps, &SchedulerConfig::default());
        assert_eq!(out.len(), 4, "batch must not abort");
        assert!(out[0].1.is_some() && out[2].1.is_some());
        assert!(out[1].1.is_none() && out[3].1.is_none());
        match &out[1].0.failure {
            Some(JobFailure::BuildPanicked(msg)) => {
                assert!(msg.contains("scripted build panic"), "got: {msg}");
            }
            other => panic!("expected BuildPanicked, got {other:?}"),
        }
        // A mid-run panic is typed with its slice.
        assert!(matches!(
            out[3].0.failure,
            Some(JobFailure::RunPanicked { slice: 2, .. })
        ));
        // Cache still serves a follow-up batch (and stays warm).
        let again = sweep(&ens, &[0.3]);
        assert_eq!(again[0].1, out[0].1);
    }

    /// Admission order: priority outranks everything, affinity groups
    /// are contiguous (cheapest group first), ties end at submission
    /// index — and the whole thing is reproducible.
    #[test]
    fn admission_order_is_deterministic_and_grouped() {
        let spec = |prio, aff, cost| JobSpec::new(()).priority(prio).affinity(aff).cost(cost);
        let specs = vec![
            spec(Priority::Batch, 7, 4.0),       // 0
            spec(Priority::Batch, 9, 1.0),       // 1
            spec(Priority::Interactive, 7, 9.0), // 2
            spec(Priority::Batch, 7, 2.0),       // 3
            spec(Priority::Batch, 9, 8.0),       // 4
        ];
        assert_eq!(
            admission_order(&specs, SchedPolicy::Fifo),
            vec![0, 1, 2, 3, 4]
        );
        let order = admission_order(&specs, SchedPolicy::CostAffinity);
        // Interactive job 2 first; then batch group 9 (min cost 1.0)
        // before group 7 (min cost 2.0); submission order inside groups.
        assert_eq!(order, vec![2, 1, 4, 0, 3]);
        assert_eq!(order, admission_order(&specs, SchedPolicy::CostAffinity));
    }

    /// Tentpole determinism: a scripted preempt→seal→requeue→resume run
    /// produces the same field hash as the uninterrupted run, across
    /// worker counts, and the report shows the preemption happened.
    #[test]
    fn scripted_preemption_is_bitwise() {
        let base: Vec<JobSpec<SweepJob>> = [0.3, 0.45]
            .iter()
            .map(|&f| SweepJob::channel(8, 2, 3, f, 6).spec())
            .collect();
        let plain =
            Ensemble::new(CacheMode::Process).serve(&base, &SweepOps, &SchedulerConfig::default());
        for workers in [1, 2] {
            let specs: Vec<_> = base.iter().map(|s| s.clone().preempt_after(3)).collect();
            let cfg = SchedulerConfig {
                workers,
                ..SchedulerConfig::default()
            };
            let preempted = Ensemble::new(CacheMode::Process).serve(&specs, &SweepOps, &cfg);
            for (i, ((pr, po), (_, qo))) in preempted.iter().zip(&plain).enumerate() {
                assert_eq!(pr.preemptions, 1, "job {i} under {workers} workers");
                assert_eq!(pr.slices, 6);
                assert_eq!(
                    po.unwrap(),
                    qo.unwrap(),
                    "job {i} hash diverged after preempt→resume ({workers} workers)"
                );
            }
        }
    }

    /// Scheduling policy and worker count change dispatch order, never
    /// results: FIFO and affinity orders return identical hashes in
    /// submission order.
    #[test]
    fn policy_and_workers_never_change_physics() {
        // Two discretization groups interleaved at submission.
        let specs: Vec<_> = (0..6)
            .map(|i| {
                let np = if i % 2 == 0 { 2 } else { 3 };
                SweepJob::channel(8, np, 3, 0.3 + 0.05 * i as f64, 3).spec()
            })
            .collect();
        let reference =
            Ensemble::new(CacheMode::Process).serve(&specs, &SweepOps, &SchedulerConfig::default());
        let check = |got: &[JobResult<u64>], what: &str| {
            for (i, ((_, g), (_, r))) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.unwrap(), r.unwrap(), "job {i} diverged under {what}");
            }
        };
        for policy in [SchedPolicy::Fifo, SchedPolicy::CostAffinity] {
            for workers in [1, 2] {
                let cfg = SchedulerConfig {
                    workers,
                    policy,
                    ..SchedulerConfig::default()
                };
                let got = Ensemble::new(CacheMode::Process).serve(&specs, &SweepOps, &cfg);
                check(&got, &format!("{policy:?}/{workers} workers"));
            }
        }
        // Quantum preemption: a batch job that has held its worker for two
        // slices while interactive jobs wait is sealed, requeued and
        // resumed. Under FIFO on the inline worker that is deterministic
        // (job 0 runs before interactive job 2 is dispatched); under
        // affinity admission on two workers it depends on timing, and the
        // physics may not.
        let mixed: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| match i % 3 {
                2 => s.clone().priority(Priority::Interactive),
                _ => s.clone(),
            })
            .collect();
        for (policy, workers) in [(SchedPolicy::Fifo, 1), (SchedPolicy::CostAffinity, 2)] {
            let cfg = SchedulerConfig {
                workers,
                policy,
                quantum_slices: Some(2),
                ..SchedulerConfig::default()
            };
            let got = Ensemble::new(CacheMode::Process).serve(&mixed, &SweepOps, &cfg);
            check(&got, &format!("{policy:?}/{workers} workers/quantum 2"));
            if workers == 1 {
                assert_eq!(
                    got[0].0.preemptions, 1,
                    "quantum never fired: {:?}",
                    got[0].0
                );
                assert_eq!(got[2].0.preemptions, 0, "interactive jobs never yield");
            }
        }
        // Affinity admission batches the two groups contiguously.
        let order = admission_order(&specs, SchedPolicy::CostAffinity);
        let groups: Vec<u64> = order.iter().map(|&i| specs[i].affinity).collect();
        let flips = groups.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "affinity order interleaves groups: {groups:?}");
    }
}
