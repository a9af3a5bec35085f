//! The NεκTαr-G metasolver facade: a multipatch continuum domain with an
//! embedded atomistic domain, driven through the paper's time progression,
//! with WPOD co-processing of the atomistic data — plus the fault-tolerant
//! run driver (periodic checkpointing, deterministic fault injection,
//! resume with fallback to the previous good snapshot).
//!
//! Checkpoint timing: snapshots are taken at the *top* of an
//! exchange-boundary continuum step, before that exchange fires. Because
//! every stochastic draw in the system is a pure function of
//! `(seed, step)` (see `nkg_dpd::streams`), a run restored from such a
//! snapshot replays the remaining steps bitwise — same particle
//! trajectories, same fields, same [`RunReport`].
//!
//! Setup caching: everything a metasolver builds flows through
//! constructors that consult the ambient [`nkg_artifact`] cache — GLL
//! bases and preconditioner factorizations inside each patch's solvers,
//! and the interface trace tables that both the patch links and the
//! atomistic bin midpoints read the continuum through. Construct (and step)
//! a [`NektarG`] inside [`nkg_artifact::with_cache`] — most conveniently
//! via [`crate::ensemble::Ensemble`] — and repeated setups of the same
//! discretization are served from the cache, bitwise identical to a cold
//! build. Checkpoint interaction: snapshots never contain cached
//! artifacts (they are derived, immutable data), so resume first rebuilds
//! or cache-fetches setup, then restores evolving state on top.

use crate::atomistic::AtomisticDomain;
use crate::multipatch::Multipatch2d;
use crate::progression::TimeProgression;
use nkg_ckpt::{prev_path, CkptError, Dec, Enc, FaultPlan, Snapshot, SnapshotFile, SnapshotWriter};
use nkg_dpd::sim::BinSampler;
use nkg_sem::ns2d::StepSolveStats;
use nkg_wpod::window::{WindowPod, WindowResult};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

/// How [`NektarG::run_to`] schedules the two solvers between exchanges.
///
/// Between two exchange boundaries the continuum window (k NS steps) and
/// the atomistic window (k·substeps DPD steps) only interact through the
/// data already exchanged at the last boundary, so they may execute in any
/// order — including concurrently. Both modes produce bitwise-identical
/// state and [`RunReport`] physics; `Serial` is the reference ordering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutionPolicy {
    /// The reference ordering: each window's continuum steps, then its
    /// DPD steps, on the caller's thread.
    #[default]
    Serial,
    /// Run each inter-exchange window's continuum and atomistic tasks
    /// concurrently (the paper's asynchronous metasolver execution), with
    /// per-patch continuum fan-out, joining at the next exchange.
    Overlapped,
}

/// Wall-clock account of one inter-exchange window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowTiming {
    /// Time inside the continuum task (k NS steps).
    pub continuum_s: f64,
    /// Time inside the atomistic task (k·substeps DPD steps + WPOD).
    pub atomistic_s: f64,
    /// Time spent in the exchange at the window's opening boundary
    /// (interpolation, scaling, interface metrics); zero for the window
    /// that opens a run mid-interval.
    pub exchange_s: f64,
    /// Wall time of the whole window (exchange + both solver tasks).
    pub window_s: f64,
}

/// Compact order-statistics view of a per-step iteration series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterStats {
    /// Median (lower nearest-rank).
    pub p50: u64,
    /// 95th percentile (lower nearest-rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
}

impl IterStats {
    fn of(series: &[u64]) -> Self {
        if series.is_empty() {
            return Self::default();
        }
        let mut s = series.to_vec();
        s.sort_unstable();
        let n = s.len();
        Self {
            p50: s[(n - 1) / 2],
            p95: s[(n - 1) * 95 / 100],
            max: s[n - 1],
        }
    }
}

/// Compact summary of the elliptic-solver telemetry in a [`RunReport`] —
/// the headline numbers without hauling the raw per-step vectors around.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Continuum steps the summary covers.
    pub steps: usize,
    /// Pressure-Poisson CG iterations per step (summed over patches).
    pub pressure: IterStats,
    /// Viscous Helmholtz CG iterations per step (patches × components).
    pub viscous: IterStats,
    /// Worst final elliptic residual over the whole run.
    pub worst_residual: f64,
    /// Number of steps that reported a CG breakdown.
    pub breakdowns: usize,
}

/// Cumulative summary of a coupled run (totals since construction or the
/// restored checkpoint's origin, not since the last `run` call).
///
/// Equality compares the *physics and solver telemetry* — everything
/// except [`window_timings`](Self::window_timings) (wall-clock
/// measurement), [`rejoins`](Self::rejoins) and
/// [`snapshot_fallbacks`](Self::snapshot_fallbacks) (supervision
/// bookkeeping), all of which legitimately differ between
/// bitwise-identical runs.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Continuum steps taken.
    pub ns_steps: usize,
    /// Atomistic steps taken.
    pub dpd_steps: usize,
    /// Exchanges performed.
    pub exchanges: usize,
    /// Interface continuity error per exchange (NS units).
    pub continuity: Vec<f64>,
    /// Continuum-continuum interface mismatch per exchange.
    pub patch_mismatch: Vec<f64>,
    /// Platelet census (passive, triggered, active, adhered) per exchange.
    pub platelet_census: Vec<(usize, usize, usize, usize)>,
    /// WPOD results produced by the co-processor.
    pub wpod_windows: usize,
    /// Exchange windows (1-based) where the coupling boundary degraded to
    /// hold-last-value because the peer missed its deadline.
    pub held_exchanges: Vec<u64>,
    /// Replica failovers as `(exchange_window, from_replica, to_replica)`.
    pub failovers: Vec<(u64, u64, u64)>,
    /// Exchange windows (1-based) where this rank rejoined a replicated
    /// run after a supervised respawn, resuming from its own checkpoint.
    /// Degradation bookkeeping: excluded from equality and checkpoints.
    pub rejoins: Vec<u64>,
    /// Exchange windows (1-based) where a resume found its checkpoint
    /// corrupt and silently rebuilt the solver from scratch instead.
    /// Degradation bookkeeping: excluded from equality and checkpoints.
    pub snapshot_fallbacks: Vec<u64>,
    /// Per continuum step: pressure-Poisson CG iterations summed over the
    /// patches.
    pub pressure_iters_per_step: Vec<u64>,
    /// Per continuum step: viscous Helmholtz CG iterations summed over
    /// patches and velocity components.
    pub viscous_iters_per_step: Vec<u64>,
    /// Per continuum step: worst final elliptic residual over all patch
    /// solves.
    pub elliptic_residual_per_step: Vec<f64>,
    /// Continuum steps (0-based) where an elliptic solve reported a CG
    /// breakdown (`pᵀAp ≤ 0`) — always worth investigating.
    pub breakdown_steps: Vec<u64>,
    /// Per inter-exchange window: wall-clock timing of the continuum task,
    /// atomistic task and exchange. Measurement only — excluded from
    /// equality and from checkpoints.
    pub window_timings: Vec<WindowTiming>,
    /// Continuum steps whose solver telemetry was recorded.
    pub telemetry_steps: usize,
    /// Worst elliptic residual observed.
    pub worst_residual_seen: f64,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.ns_steps == other.ns_steps
            && self.dpd_steps == other.dpd_steps
            && self.exchanges == other.exchanges
            && self.continuity == other.continuity
            && self.patch_mismatch == other.patch_mismatch
            && self.platelet_census == other.platelet_census
            && self.wpod_windows == other.wpod_windows
            && self.held_exchanges == other.held_exchanges
            && self.failovers == other.failovers
            && self.pressure_iters_per_step == other.pressure_iters_per_step
            && self.viscous_iters_per_step == other.viscous_iters_per_step
            && self.elliptic_residual_per_step == other.elliptic_residual_per_step
            && self.breakdown_steps == other.breakdown_steps
    }
}

impl RunReport {
    /// Record one continuum step's elliptic-solver telemetry (the run
    /// hook both window orderings call).
    pub(crate) fn push_step_telemetry(&mut self, solve: &StepSolveStats, step: u64) {
        self.pressure_iters_per_step
            .push(solve.pressure_iterations as u64);
        self.viscous_iters_per_step
            .push(solve.viscous_iterations as u64);
        let residual = solve.pressure_residual.max(solve.viscous_residual);
        self.elliptic_residual_per_step.push(residual);
        if solve.breakdown {
            self.breakdown_steps.push(step);
        }
        self.telemetry_steps += 1;
        if residual > self.worst_residual_seen {
            self.worst_residual_seen = residual;
        }
    }

    /// Record one window's wall-clock timing.
    pub(crate) fn push_window_timing(&mut self, t: WindowTiming) {
        self.window_timings.push(t);
    }

    /// Compact order statistics of the elliptic-solver telemetry: p50/p95/
    /// max iteration counts, worst residual and breakdown count.
    pub fn solve_summary(&self) -> TelemetrySummary {
        TelemetrySummary {
            steps: self.telemetry_steps.max(self.pressure_iters_per_step.len()),
            pressure: IterStats::of(&self.pressure_iters_per_step),
            viscous: IterStats::of(&self.viscous_iters_per_step),
            worst_residual: self
                .elliptic_residual_per_step
                .iter()
                .fold(self.worst_residual_seen, |a, &b| a.max(b)),
            breakdowns: self.breakdown_steps.len(),
        }
    }

    /// Sum of the per-window timings.
    pub fn timing_totals(&self) -> WindowTiming {
        self.window_timings
            .iter()
            .fold(WindowTiming::default(), |a, w| WindowTiming {
                continuum_s: a.continuum_s + w.continuum_s,
                atomistic_s: a.atomistic_s + w.atomistic_s,
                exchange_s: a.exchange_s + w.exchange_s,
                window_s: a.window_s + w.window_s,
            })
    }

    /// Overlap efficiency: total solver work (continuum + atomistic) over
    /// total window wall time. Serial execution sits near 1.0; perfect
    /// two-way overlap approaches 2.0. `None` until a window completes.
    pub fn overlap_efficiency(&self) -> Option<f64> {
        let t = self.timing_totals();
        (t.window_s > 0.0).then(|| (t.continuum_s + t.atomistic_s) / t.window_s)
    }

    /// Whether the *physics* of two runs agree bitwise — every field except
    /// the degradation bookkeeping (`held_exchanges`, `failovers`), which
    /// legitimately differs between a faulty run and its clean reference.
    pub fn physics_matches(&self, other: &RunReport) -> bool {
        self.ns_steps == other.ns_steps
            && self.dpd_steps == other.dpd_steps
            && self.exchanges == other.exchanges
            && self.continuity == other.continuity
            && self.patch_mismatch == other.patch_mismatch
            && self.platelet_census == other.platelet_census
            && self.wpod_windows == other.wpod_windows
    }
}

impl Snapshot for RunReport {
    const TAG: u32 = nkg_ckpt::tag4(b"RPRT");

    fn snapshot(&self, enc: &mut Enc) {
        enc.put(self.ns_steps as u64);
        enc.put(self.dpd_steps as u64);
        enc.put(self.exchanges as u64);
        enc.put_slice(&self.continuity);
        enc.put_slice(&self.patch_mismatch);
        enc.put(self.platelet_census.len() as u64);
        for &(p, t, a, ad) in &self.platelet_census {
            enc.put(p as u64);
            enc.put(t as u64);
            enc.put(a as u64);
            enc.put(ad as u64);
        }
        enc.put(self.wpod_windows as u64);
        enc.put_slice(&self.held_exchanges);
        enc.put(self.failovers.len() as u64);
        for &(w, from, to) in &self.failovers {
            enc.put(w);
            enc.put(from);
            enc.put(to);
        }
        enc.put_slice(&self.pressure_iters_per_step);
        enc.put_slice(&self.viscous_iters_per_step);
        enc.put_slice(&self.elliptic_residual_per_step);
        enc.put_slice(&self.breakdown_steps);
        enc.put(self.telemetry_steps as u64);
        enc.put(self.worst_residual_seen);
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.ns_steps = dec.take::<u64>()? as usize;
        self.dpd_steps = dec.take::<u64>()? as usize;
        self.exchanges = dec.take::<u64>()? as usize;
        self.continuity = dec.take_vec::<f64>()?;
        self.patch_mismatch = dec.take_vec::<f64>()?;
        let n = dec.take::<u64>()? as usize;
        let mut census = Vec::with_capacity(n);
        for _ in 0..n {
            census.push((
                dec.take::<u64>()? as usize,
                dec.take::<u64>()? as usize,
                dec.take::<u64>()? as usize,
                dec.take::<u64>()? as usize,
            ));
        }
        self.platelet_census = census;
        self.wpod_windows = dec.take::<u64>()? as usize;
        self.held_exchanges = dec.take_vec::<u64>()?;
        let n = dec.take::<u64>()? as usize;
        let mut failovers = Vec::with_capacity(n);
        for _ in 0..n {
            failovers.push((dec.take::<u64>()?, dec.take::<u64>()?, dec.take::<u64>()?));
        }
        self.failovers = failovers;
        self.pressure_iters_per_step = dec.take_vec::<u64>()?;
        self.viscous_iters_per_step = dec.take_vec::<u64>()?;
        self.elliptic_residual_per_step = dec.take_vec::<f64>()?;
        self.breakdown_steps = dec.take_vec::<u64>()?;
        self.telemetry_steps = dec.take::<u64>()? as usize;
        self.worst_residual_seen = dec.take::<f64>()?;
        // Wall-clock timings and supervision bookkeeping are measurement,
        // not state: never serialized (the format predates them and stays
        // compatible) and meaningless across a restore boundary.
        self.window_timings.clear();
        self.rejoins.clear();
        self.snapshot_fallbacks.clear();
        Ok(())
    }
}

/// Periodic checkpointing plan for [`NektarG::run_to`].
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Snapshot destination; the previous generation rotates to a `.prev`
    /// sibling before each write.
    pub path: PathBuf,
    /// Checkpoint whenever this many exchanges have completed since the
    /// last snapshot (i.e. at the top of the exchange-boundary step where
    /// the completed-exchange count is a positive multiple of this).
    pub every_k_exchanges: u64,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` every `every_k_exchanges` exchanges.
    pub fn new(path: impl Into<PathBuf>, every_k_exchanges: u64) -> Self {
        assert!(every_k_exchanges >= 1);
        Self {
            path: path.into(),
            every_k_exchanges,
        }
    }
}

/// Why a driven run stopped early.
#[derive(Debug)]
pub enum RunError {
    /// The fault plan killed the run (stands in for a node loss).
    Killed {
        /// Exchanges completed when the run died.
        exchanges: usize,
        /// Continuum step in progress when the run died.
        ns_step: usize,
    },
    /// A checkpoint could not be written or tampered with.
    Ckpt(CkptError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Killed { exchanges, ns_step } => {
                write!(
                    f,
                    "run killed after exchange {exchanges} (ns step {ns_step})"
                )
            }
            RunError::Ckpt(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CkptError> for RunError {
    fn from(e: CkptError) -> Self {
        RunError::Ckpt(e)
    }
}

/// Which snapshot generation a [`NektarG::resume_latest`] landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeSource {
    /// The primary snapshot validated and restored.
    Primary,
    /// The primary was damaged; the `.prev` generation restored instead.
    Fallback,
}

/// A committed image on its way back: the buffer for reuse, and whether
/// the snapshot reached the disk.
type Committed = (SnapshotWriter, Result<u64, CkptError>);

/// The background half of [`NektarG::run_to`]'s periodic checkpoints.
///
/// One thread, spawned at the first due checkpoint inside the scope
/// `run_to` opens and joined by [`Committer::finish`], commits the image
/// it is handed — seal (the CRC pass), rotate the previous generation,
/// temp write, fsync, rename — while the next window computes. Two images
/// ping-pong between the run loop and the thread, and at most one commit
/// is in flight: handing over the next image first waits for the last
/// one, which is also where a failed commit surfaces.
struct Committer<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    policy: &'env CheckpointPolicy,
    /// `None` until the first submit.
    thread: Option<CommitterThread<'scope>>,
    /// The image not in flight, once there is one.
    spare: Option<SnapshotWriter>,
    in_flight: bool,
}

struct CommitterThread<'scope> {
    /// Images out; dropping it ends the thread.
    jobs: mpsc::Sender<SnapshotWriter>,
    /// Committed images back.
    done: mpsc::Receiver<Committed>,
    handle: ScopedJoinHandle<'scope, ()>,
}

impl<'scope, 'env> Committer<'scope, 'env> {
    fn new(scope: &'scope Scope<'scope, 'env>, policy: &'env CheckpointPolicy) -> Self {
        Self {
            scope,
            policy,
            thread: None,
            spare: None,
            in_flight: false,
        }
    }

    /// Encode `ng`'s state into the free image, then hand it to the
    /// committer thread. Encoding overlaps the tail of the commit in
    /// flight; the hand-over waits for it.
    fn submit(&mut self, ng: &NektarG) -> Result<(), CkptError> {
        let mut image = self.spare.take().unwrap_or_default();
        ng.encode_image(&mut image);
        // Drain point: one commit in flight, so rotation order holds.
        self.drain()?;
        let path = &self.policy.path;
        let scope = self.scope;
        let thread = self.thread.get_or_insert_with(|| {
            let (jobs, todo) = mpsc::channel::<SnapshotWriter>();
            let (finished, done) = mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(COMMITTER_THREAD.into())
                .spawn_scoped(scope, move || {
                    for mut image in todo {
                        let committed = image.write_rotating(path);
                        if finished.send((image, committed)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn checkpoint committer thread");
            CommitterThread { jobs, done, handle }
        });
        thread
            .jobs
            .send(image)
            .expect("committer thread outlives its jobs");
        self.in_flight = true;
        Ok(())
    }

    /// Wait for the commit in flight, if any. Its failure is returned
    /// exactly once, here.
    fn drain(&mut self) -> Result<(), CkptError> {
        if !self.in_flight {
            return Ok(());
        }
        self.in_flight = false;
        let thread = self.thread.as_ref().expect("in flight implies a thread");
        let (image, committed) = thread.done.recv().expect("committer thread panicked");
        self.spare = Some(image);
        committed.map(drop)
    }

    /// Drain, then end and join the thread: when this returns the
    /// committer is gone, not merely idle.
    fn finish(mut self) -> Result<(), CkptError> {
        let drained = self.drain();
        if let Some(CommitterThread { jobs, handle, .. }) = self.thread.take() {
            drop(jobs);
            handle.join().expect("committer thread panicked");
        }
        drained
    }
}

/// Name of the committer thread (15 bytes, the most Linux shows).
pub const COMMITTER_THREAD: &str = "nkg-ckpt-commit";

/// The coupled metasolver.
pub struct NektarG {
    /// The macro-scale solver (multipatch continuum).
    pub continuum: Multipatch2d,
    /// The meso-scale solver (embedded DPD domain).
    pub atomistic: AtomisticDomain,
    /// Step-ratio plan.
    pub progression: TimeProgression,
    /// Optional WPOD co-processing of the atomistic velocity field.
    pub wpod: Option<(BinSampler, WindowPod)>,
    /// Latest WPOD window result.
    pub last_wpod: Option<WindowResult>,
    /// Cumulative run accounting; `report.ns_steps` is the solver's
    /// position on the absolute continuum-step axis.
    pub report: RunReport,
    /// How windows between exchanges execute (bitwise-equivalent modes).
    pub policy: ExecutionPolicy,
}

/// Tag of the run-level metadata section (WPOD attachment flag and the
/// latest window result).
const META_TAG: u32 = nkg_ckpt::tag4(b"META");

impl NektarG {
    /// Assemble the metasolver.
    pub fn new(
        continuum: Multipatch2d,
        atomistic: AtomisticDomain,
        progression: TimeProgression,
    ) -> Self {
        Self {
            continuum,
            atomistic,
            progression,
            wpod: None,
            last_wpod: None,
            report: RunReport::default(),
            policy: ExecutionPolicy::default(),
        }
    }

    /// Attach WPOD co-processing: sample the atomistic velocity field with
    /// `sampler` and analyze windows with `wpod`.
    pub fn with_wpod(mut self, sampler: BinSampler, wpod: WindowPod) -> Self {
        self.wpod = Some((sampler, wpod));
        self
    }

    /// Select the execution policy (see [`ExecutionPolicy`]).
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Run `ns_steps` more continuum steps with the full time progression.
    /// Returns the cumulative report.
    pub fn run(&mut self, ns_steps: usize) -> RunReport {
        self.run_to(self.report.ns_steps + ns_steps, None, None)
            .expect("run without checkpoint policy or fault plan cannot fail")
    }

    /// Advance to absolute continuum step `target_ns_step`, optionally
    /// writing rotating checkpoints per `policy` and suffering the
    /// disasters scripted in `fault`.
    ///
    /// The exchange schedule is absolute: exchanges fire before every step
    /// where [`TimeProgression::exchange_at`] holds, regardless of how the
    /// run is chopped into `run`/`run_to` calls or checkpoint restarts.
    ///
    /// Checkpoints: at a due boundary the run loop only *encodes* the
    /// state into an image; a committer thread that lives for this call
    /// seals and commits it while the next window computes. The call
    /// waits for the commit in flight before handing over the next
    /// image, before a [`FaultPlan`] tampers with the file, and before
    /// returning — `Ok`, [`RunError::Killed`] or [`RunError::Ckpt`] — so
    /// every snapshot taken is durable (or its failure reported) when
    /// `run_to` returns, files and rotation order are those of calling
    /// [`Self::checkpoint_rotating`] at the same boundaries, and a failed
    /// commit surfaces no later than the next checkpoint boundary.
    pub fn run_to(
        &mut self,
        target_ns_step: usize,
        policy: Option<&CheckpointPolicy>,
        fault: Option<&FaultPlan>,
    ) -> Result<RunReport, RunError> {
        // Per-patch fan-out rides with the overlapped policy; both are
        // bitwise-equivalent to the serial reference.
        self.continuum.parallel = self.policy == ExecutionPolicy::Overlapped;
        // The scope is what lets the committer borrow the policy's path,
        // and what joins it should the loop unwind.
        std::thread::scope(|scope| {
            let mut committer = policy.map(|pol| Committer::new(scope, pol));
            let run = self.run_windows(target_ns_step, committer.as_mut(), fault);
            // Drain point: whatever ended the loop — the target, a kill, a
            // checkpoint error — the commit in flight lands (or fails) and
            // the committer is joined before the caller hears of it.
            let finished = committer.map_or(Ok(()), Committer::finish);
            finished.map_err(RunError::from).and(run)
        })?;
        Ok(self.report.clone())
    }

    /// The window loop of [`Self::run_to`].
    fn run_windows(
        &mut self,
        target_ns_step: usize,
        mut committer: Option<&mut Committer<'_, '_>>,
        fault: Option<&FaultPlan>,
    ) -> Result<(), RunError> {
        while self.report.ns_steps < target_ns_step {
            let step = self.report.ns_steps;
            let wstart = Instant::now();
            let mut exchange_s = 0.0;
            if self.progression.exchange_at(step) {
                if let Some(c) = committer.as_deref_mut() {
                    let done = self.report.exchanges as u64;
                    if done > 0 && done.is_multiple_of(c.policy.every_k_exchanges) {
                        c.submit(self)?;
                        if let Some(f) = fault.filter(|f| f.tampers()) {
                            // Drain point: tampering needs the file.
                            c.drain()?;
                            f.tamper(&c.policy.path)?;
                        }
                    }
                }
                let t0 = Instant::now();
                self.atomistic.exchange_from_continuum(&self.continuum);
                self.report.exchanges += 1;
                if let Some(err) = self.atomistic.latest_continuity_error() {
                    self.report.continuity.push(err);
                }
                self.report
                    .patch_mismatch
                    .push(self.continuum.interface_mismatch());
                self.report
                    .platelet_census
                    .push(self.atomistic.sim.platelet_census());
                exchange_s = t0.elapsed().as_secs_f64();
                if let Some(f) = fault {
                    if f.kill_after_exchange == Some(self.report.exchanges as u64) {
                        return Err(RunError::Killed {
                            exchanges: self.report.exchanges,
                            ns_step: step,
                        });
                    }
                }
            }
            // The window: every continuum step up to (exclusive) the next
            // exchange boundary or the target. Within it the two solvers
            // only depend on the exchange that just fired, so the window
            // may run back to back (serial) or concurrently (overlapped).
            let mut wend = step + 1;
            while wend < target_ns_step && !self.progression.exchange_at(wend) {
                wend += 1;
            }
            let (continuum_s, atomistic_s) = self.run_window(wend - step);
            self.report.push_window_timing(WindowTiming {
                continuum_s,
                atomistic_s,
                exchange_s,
                window_s: wstart.elapsed().as_secs_f64(),
            });
        }
        Ok(())
    }

    /// One inter-exchange window of `n` continuum steps. The continuum
    /// task (n NS steps) and the atomistic task (n·substeps DPD steps plus
    /// WPOD) read nothing the other writes until the next exchange, so
    /// they are written once and only scheduled differently: `Serial`
    /// runs them back to back on the caller's thread, `Overlapped` runs
    /// the continuum task on a scoped thread and joins before returning.
    /// State and the telemetry pushed into the report are bitwise
    /// identical either way. Returns each task's wall time.
    ///
    /// `Serial` is therefore no step-interleaved reference any more: a
    /// future dependency inside a window (say the atomistic side reading
    /// the continuum mid-window) must bring its own interleaved test.
    fn run_window(&mut self, n: usize) -> (f64, f64) {
        let base_step = self.report.ns_steps;
        let dpd_steps = n * self.progression.substeps;
        let Self {
            continuum,
            atomistic,
            wpod,
            last_wpod,
            report,
            policy,
            ..
        } = self;
        let mut continuum_task = move || {
            let t0 = Instant::now();
            let mut stats = Vec::with_capacity(n);
            for _ in 0..n {
                continuum.step();
                stats.push(continuum.last_step_stats());
            }
            (t0.elapsed().as_secs_f64(), stats)
        };
        let mut atomistic_task = || {
            let t0 = Instant::now();
            for _ in 0..dpd_steps {
                atomistic.sim.step();
                report.dpd_steps += 1;
                if let Some((sampler, wpod)) = wpod.as_mut() {
                    if let Some(snap) = sampler.accumulate(&atomistic.sim) {
                        if let Some(res) = wpod.push(snap) {
                            report.wpod_windows += 1;
                            *last_wpod = Some(res);
                        }
                    }
                }
            }
            t0.elapsed().as_secs_f64()
        };
        let ((continuum_s, stats), atomistic_s) = match policy {
            ExecutionPolicy::Serial => (continuum_task(), atomistic_task()),
            ExecutionPolicy::Overlapped => {
                // The vendored rayon pool override is thread-local:
                // capture the caller's effective pool width and re-install
                // it inside the spawned task so `ThreadPool::install(..)`
                // callers keep control of the per-patch fan-out.
                let nt = rayon::current_num_threads();
                std::thread::scope(|scope| {
                    let cont = scope.spawn(move || {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(nt)
                            .build()
                            .expect("thread pool");
                        pool.install(continuum_task)
                    });
                    let atomistic_s = atomistic_task();
                    (
                        cont.join().expect("continuum window task panicked"),
                        atomistic_s,
                    )
                })
            }
        };
        for (i, solve) in stats.iter().enumerate() {
            report.push_step_telemetry(solve, (base_step + i) as u64);
        }
        report.ns_steps += n;
        (continuum_s, atomistic_s)
    }

    /// Encode the run-level snapshot into `w`, replacing what it held.
    /// This is the synchronous half of every checkpoint: it reads the
    /// solver state, so it runs on the thread that owns the solvers.
    pub fn encode_image(&self, w: &mut SnapshotWriter) {
        w.clear();
        w.add_snapshot(&self.progression);
        w.add_snapshot(&self.continuum);
        w.add_snapshot(&self.atomistic);
        w.add_snapshot(&self.report);
        if let Some((sampler, wpod)) = &self.wpod {
            w.add_snapshot(sampler);
            w.add_snapshot(wpod);
        }
        w.add_with(META_TAG, |enc| {
            enc.put_bool(self.wpod.is_some());
            match &self.last_wpod {
                None => enc.put_bool(false),
                Some(res) => {
                    enc.put_bool(true);
                    enc.put_slice(&res.mean);
                    enc.put_slice(&res.fluctuation);
                    enc.put(res.split as u64);
                    enc.put_slice(&res.eigenvalues);
                }
            }
        });
    }

    /// Write one run-level checkpoint (atomic temp + rename), durable on
    /// return. Returns the bytes written.
    pub fn checkpoint(&self, path: &Path) -> Result<u64, CkptError> {
        let mut w = SnapshotWriter::new();
        self.encode_image(&mut w);
        w.write_atomic(path)
    }

    /// Rotate the existing snapshot at `path` to its `.prev` sibling, then
    /// write a fresh one — the last known-good generation survives a
    /// failure during (or corruption after) the new write. Encode and
    /// commit are the two steps [`Self::run_to`] splits across threads;
    /// here they run back to back and the snapshot is durable on return.
    pub fn checkpoint_rotating(&self, path: &Path) -> Result<u64, CkptError> {
        let mut w = SnapshotWriter::new();
        self.encode_image(&mut w);
        w.write_rotating(path)
    }

    /// Restore run state from a snapshot into this (compatibly
    /// constructed) instance. Configuration sections are verified, not
    /// overwritten; all evolving state is replaced.
    pub fn restore_from(&mut self, path: &Path) -> Result<(), CkptError> {
        let file = SnapshotFile::read_from(path)?;
        let mut dec = Dec::new(file.payload(META_TAG)?);
        let has_wpod = dec.take_bool()?;
        if has_wpod != self.wpod.is_some() {
            return Err(CkptError::Mismatch(format!(
                "snapshot {} WPOD co-processing, reconstructed instance {}",
                if has_wpod { "has" } else { "lacks" },
                if self.wpod.is_some() {
                    "has it"
                } else {
                    "lacks it"
                },
            )));
        }
        file.restore_into(&mut self.progression)?;
        file.restore_into(&mut self.continuum)?;
        file.restore_into(&mut self.atomistic)?;
        file.restore_into(&mut self.report)?;
        if let Some((sampler, wpod)) = &mut self.wpod {
            file.restore_into(sampler)?;
            file.restore_into(wpod)?;
        }
        self.last_wpod = if dec.take_bool()? {
            Some(WindowResult {
                mean: dec.take_vec::<f64>()?,
                fluctuation: dec.take_vec::<f64>()?,
                split: dec.take::<u64>()? as usize,
                eigenvalues: dec.take_vec::<f64>()?,
            })
        } else {
            None
        };
        dec.finish()
    }

    /// Resume from the snapshot at `path`: `make_fresh` reconstructs the
    /// metasolver exactly as the original program did (same configuration,
    /// same seeds), then the snapshot replaces the evolving state.
    pub fn resume(make_fresh: impl Fn() -> Self, path: &Path) -> Result<Self, CkptError> {
        let mut s = make_fresh();
        s.restore_from(path)?;
        Ok(s)
    }

    /// Resume from `path`, falling back to the rotated `.prev` generation
    /// when the primary is damaged (bad CRC, truncation, bad magic or
    /// version). Configuration mismatches do *not* fall back — a snapshot
    /// from a different setup is an operator error, not media damage.
    pub fn resume_latest(
        make_fresh: impl Fn() -> Self,
        path: &Path,
    ) -> Result<(Self, ResumeSource), CkptError> {
        let mut s = make_fresh();
        match s.restore_from(path) {
            Ok(()) => return Ok((s, ResumeSource::Primary)),
            Err(e) if e.is_integrity() => {}
            Err(e) => return Err(e),
        }
        let mut s = make_fresh();
        s.restore_from(&prev_path(path))?;
        Ok((s, ResumeSource::Fallback))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn small_metasolver() -> NektarG {
        Scenario::small().build()
    }

    fn ckpt_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nkg_metasolver_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn step_accounting_follows_progression() {
        let mut ng = small_metasolver();
        let report = ng.run(8);
        assert_eq!(report.ns_steps, 8);
        assert_eq!(report.dpd_steps, 8 * 5);
        assert_eq!(report.exchanges, 2); // at steps 0 and 4
        assert_eq!(report.patch_mismatch.len(), 2);
    }

    #[test]
    fn run_reports_are_cumulative_on_an_absolute_schedule() {
        let mut ng = small_metasolver();
        let r1 = ng.run(3);
        assert_eq!(r1.ns_steps, 3);
        assert_eq!(r1.exchanges, 1); // step 0
        let r2 = ng.run(6);
        // Steps 3..9: exchanges at the absolute steps 4 and 8 — the
        // schedule does not restart per call.
        assert_eq!(r2.ns_steps, 9);
        assert_eq!(r2.exchanges, 3);
        assert_eq!(r2.dpd_steps, 45);
    }

    #[test]
    fn wpod_coprocessing_fires() {
        let mut ng = small_metasolver().with_wpod(
            BinSampler::new(1, 6, 0, 2),
            nkg_wpod::window::WindowPod::new(4, 4, 2.0),
        );
        let report = ng.run(8);
        // 40 DPD steps → 20 snapshots → windows of 4 with stride 4 → 5.
        assert_eq!(report.wpod_windows, 5);
        assert!(ng.last_wpod.is_some());
        let res = ng.last_wpod.unwrap();
        assert_eq!(res.mean.len(), 6);
    }

    /// The tentpole invariant at unit scale: the overlapped policy's
    /// report and fields match the serial reference bitwise, while its
    /// wall-clock telemetry is populated.
    #[test]
    fn overlapped_matches_serial_bitwise() {
        let make = || {
            small_metasolver().with_wpod(
                BinSampler::new(1, 6, 0, 2),
                nkg_wpod::window::WindowPod::new(4, 4, 2.0),
            )
        };
        let mut serial = make();
        let rs = serial.run(12);
        let mut overlapped = make().with_policy(ExecutionPolicy::Overlapped);
        let ro = overlapped.run(12);
        assert_eq!(rs, ro, "overlapped report diverged from serial");
        for (x, y) in rs
            .elliptic_residual_per_step
            .iter()
            .zip(&ro.elliptic_residual_per_step)
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (s1, s2) in serial
            .continuum
            .patches
            .iter()
            .zip(&overlapped.continuum.patches)
        {
            for (x, y) in s1.u.iter().zip(&s2.u).chain(s1.p.iter().zip(&s2.p)) {
                assert_eq!(x.to_bits(), y.to_bits(), "continuum field diverged");
            }
        }
        for (p, q) in serial
            .atomistic
            .sim
            .particles
            .pos_aos()
            .iter()
            .zip(&overlapped.atomistic.sim.particles.pos_aos())
        {
            for k in 0..3 {
                assert_eq!(p[k].to_bits(), q[k].to_bits(), "particles diverged");
            }
        }
        // Timing telemetry: one entry per window (exchanges at 0, 4, 8 →
        // windows [0,4), [4,8), [8,12)), all with positive wall time.
        for r in [&rs, &ro] {
            assert_eq!(r.window_timings.len(), 3);
            assert!(r.window_timings.iter().all(|w| w.window_s > 0.0));
            assert!(r.overlap_efficiency().unwrap() > 0.0);
        }
    }

    #[test]
    fn solve_summary_orders_percentiles() {
        let mut ng = small_metasolver();
        let report = ng.run(8);
        let s = report.solve_summary();
        assert_eq!(s.steps, 8);
        assert!(s.pressure.p50 <= s.pressure.p95 && s.pressure.p95 <= s.pressure.max);
        assert!(s.viscous.p50 <= s.viscous.p95 && s.viscous.p95 <= s.viscous.max);
        assert!(s.pressure.max > 0, "pressure solves should iterate");
        assert!(s.worst_residual.is_finite());
        assert_eq!(s.breakdowns, 0);
    }

    /// Wall-clock timings must not leak into checkpoints or equality:
    /// a report with timings equals its restored (timing-free) twin.
    #[test]
    fn timings_excluded_from_equality_and_snapshot() {
        let mut ng = small_metasolver();
        let report = ng.run(8);
        assert!(!report.window_timings.is_empty());
        let bytes = nkg_ckpt::snapshot_bytes(&report);
        let mut restored = RunReport::default();
        nkg_ckpt::restore_bytes(&mut restored, &bytes).unwrap();
        assert!(restored.window_timings.is_empty());
        assert_eq!(report, restored);
    }

    #[test]
    fn census_recorded_even_without_platelets() {
        let mut ng = small_metasolver();
        let report = ng.run(4);
        assert_eq!(report.platelet_census.len(), 1);
        assert_eq!(report.platelet_census[0], (0, 0, 0, 0));
    }

    /// The tentpole guarantee: checkpoint at exchange k, kill, resume,
    /// finish — the composed run's report and final state match the
    /// uninterrupted run bitwise.
    #[test]
    fn killed_run_resumes_bitwise() {
        let path = ckpt_dir().join("bitwise.nkgc");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));

        // Reference: 12 steps uninterrupted (exchanges at 0, 4, 8).
        let mut reference = small_metasolver();
        let ref_report = reference.run(12);

        // Victim: checkpoint every exchange, killed right after the 2nd
        // (i.e. after the exchange at step 4; the snapshot on disk was
        // taken at the top of step 4, before that exchange).
        let mut victim = small_metasolver();
        let policy = CheckpointPolicy::new(&path, 1);
        let err = victim
            .run_to(12, Some(&policy), Some(&FaultPlan::kill_after(2)))
            .unwrap_err();
        assert!(matches!(err, RunError::Killed { exchanges: 2, .. }));

        let mut resumed = NektarG::resume(small_metasolver, &path).unwrap();
        assert_eq!(resumed.report.ns_steps, 4);
        assert_eq!(resumed.report.exchanges, 1);
        let res_report = resumed.run_to(12, None, None).unwrap();

        assert_eq!(res_report, ref_report, "reports diverged after resume");
        let (a, b) = (
            &reference.atomistic.sim.particles,
            &resumed.atomistic.sim.particles,
        );
        assert_eq!(a.len(), b.len());
        let (pa, pb) = (a.pos_aos(), b.pos_aos());
        for (p, q) in pa.iter().zip(&pb) {
            for k in 0..3 {
                assert_eq!(
                    p[k].to_bits(),
                    q[k].to_bits(),
                    "particle positions diverged"
                );
            }
        }
        let (va, vb) = (a.vel_aos(), b.vel_aos());
        for (p, q) in va.iter().zip(&vb) {
            for k in 0..3 {
                assert_eq!(
                    p[k].to_bits(),
                    q[k].to_bits(),
                    "particle velocities diverged"
                );
            }
        }
        for (s1, s2) in reference
            .continuum
            .patches
            .iter()
            .zip(&resumed.continuum.patches)
        {
            for (x, y) in s1.u.iter().zip(&s2.u) {
                assert_eq!(x.to_bits(), y.to_bits(), "continuum field diverged");
            }
        }
    }

    /// CRC rejection + fallback: the freshest snapshot is corrupted after
    /// every write; resume_latest must detect it and restore the `.prev`
    /// generation, and the finished run still matches bitwise.
    #[test]
    fn corrupt_snapshot_falls_back_to_previous_generation() {
        let path = ckpt_dir().join("fallback.nkgc");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));

        let mut reference = small_metasolver();
        let ref_report = reference.run(12);

        let mut victim = small_metasolver();
        let policy = CheckpointPolicy::new(&path, 1);
        let err = victim
            .run_to(12, Some(&policy), Some(&FaultPlan::kill_after(3)))
            .unwrap_err();
        assert!(matches!(err, RunError::Killed { exchanges: 3, .. }));
        // Two generations now exist: `path` (top of step 8) and `.prev`
        // (top of step 4). Damage the primary.
        nkg_ckpt::fault::corrupt_section(&path, AtomisticDomain::TAG).unwrap();

        let (mut resumed, source) = NektarG::resume_latest(small_metasolver, &path).unwrap();
        assert_eq!(source, ResumeSource::Fallback);
        assert_eq!(resumed.report.ns_steps, 4);
        let res_report = resumed.run_to(12, None, None).unwrap();
        assert_eq!(res_report, ref_report, "fallback resume diverged");
    }

    #[test]
    fn version_mismatch_refused_without_fallback() {
        let path = ckpt_dir().join("version.nkgc");
        let mut ng = small_metasolver();
        ng.run(4);
        ng.checkpoint(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // format version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            NektarG::resume(small_metasolver, &path),
            Err(CkptError::Version { found: 99, .. })
        ));
    }

    #[test]
    fn resume_refuses_wpod_attachment_mismatch() {
        let path = ckpt_dir().join("wpod_mismatch.nkgc");
        let mut ng = small_metasolver();
        ng.run(4);
        ng.checkpoint(&path).unwrap();
        let make_with_wpod = || {
            small_metasolver().with_wpod(
                BinSampler::new(1, 6, 0, 2),
                nkg_wpod::window::WindowPod::new(4, 4, 2.0),
            )
        };
        assert!(matches!(
            NektarG::resume(make_with_wpod, &path),
            Err(CkptError::Mismatch(_))
        ));
    }

    /// WPOD accumulator state rides along in the run-level checkpoint: a
    /// window straddling the kill still matches the uninterrupted run.
    #[test]
    fn wpod_state_survives_resume() {
        let path = ckpt_dir().join("wpod_resume.nkgc");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));
        let make = || {
            small_metasolver().with_wpod(
                BinSampler::new(1, 6, 0, 2),
                nkg_wpod::window::WindowPod::new(4, 4, 2.0),
            )
        };
        let mut reference = make();
        let ref_report = reference.run(12);

        let mut victim = make();
        let policy = CheckpointPolicy::new(&path, 1);
        victim
            .run_to(12, Some(&policy), Some(&FaultPlan::kill_after(2)))
            .unwrap_err();
        let mut resumed = NektarG::resume(make, &path).unwrap();
        let res_report = resumed.run_to(12, None, None).unwrap();
        assert_eq!(res_report, ref_report);
        assert_eq!(res_report.wpod_windows, ref_report.wpod_windows);
        let (a, b) = (
            reference.last_wpod.as_ref().unwrap(),
            resumed.last_wpod.as_ref().unwrap(),
        );
        assert_eq!(a.split, b.split);
        for (x, y) in a.eigenvalues.iter().zip(&b.eigenvalues) {
            assert_eq!(x.to_bits(), y.to_bits(), "WPOD eigenvalues diverged");
        }
    }
}
