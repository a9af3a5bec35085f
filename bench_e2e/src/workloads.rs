//! The five workloads. Each one drives the solvers through their public
//! front door only, builds its scenario from the seed, times cold set-ups
//! and repetitions of a fixed-size run for the measuring time, and checks
//! what came out.
//!
//! Why these five: each is bound by a different layer, so a change to one
//! layer has a workload where it must show and one where it must not.
//! `coupled_sem` is continuum-bound, `coupled_dpd` atomistic-bound,
//! `coupled_io` bound by exchange, window fork/join and checkpoints,
//! `ranks_uds` by the wire, `serve_sweep` by the artifact cache and the
//! scheduler.

use crate::check::{self, Fnv, Ledger};
use crate::probes;
use crate::trace::{self, Span, Tracer, NO_PARENT};
use nkg_artifact::{ArtifactCache, CacheMode};
use nkg_coupling::atomistic::{AtomisticDomain, Embedding};
use nkg_coupling::dist::DistSpace2d;
use nkg_coupling::metasolver::{CheckpointPolicy, ExecutionPolicy, WindowTiming};
use nkg_coupling::multipatch::poiseuille_multipatch;
use nkg_coupling::{
    Ensemble, JobOps, JobSpec, NektarG, SchedPolicy, SchedulerConfig, SweepJob, SweepOps,
    TimeProgression, UnitScaling,
};
use nkg_dpd::inflow::OpenBoundaryX;
use nkg_dpd::platelet::WallSites;
use nkg_dpd::sim::{BinSampler, DpdConfig, DpdSim, ForceBackend, WallGeometry};
use nkg_dpd::Box3;
use nkg_mci::{Backend, Comm, InterfaceLink, Universe};
use nkg_mesh::QuadMesh;
use nkg_sem::Space2d;
use nkg_wpod::WindowPod;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] = [
    "coupled_sem",
    "coupled_dpd",
    "coupled_io",
    "ranks_uds",
    "serve_sweep",
];

/// Fewest repetitions of the fixed-size run, and fewest rounds of a
/// traced run.
const MIN_REPS: usize = 5;
const MIN_ROUNDS: usize = 3;
/// A fifth of the measuring time goes to cold set-ups alone, so that
/// `setup_s` is a median over tens of constructions whatever a repetition
/// of the run costs; 200 of them are enough for any median.
const SETUP_SHARE: f64 = 0.2;
const MAX_SETUPS: usize = 200;

const NU: f64 = 0.5;
const FORCE: f64 = 0.4;
const NS_DT: f64 = 5e-3;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Rayon pool width, rank count and serve workers: `min(nproc, 2)`.
    pub threads: usize,
    /// Per-process directory for checkpoints, removed on exit.
    pub scratch: PathBuf,
    /// Where `<workload>.trace.json` goes.
    pub trace_dir: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub state_hash: u64,
    /// Untraced mode: one sample per cold set-up, one per repetition.
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    /// `VmHWM` after the first repetition, which is the first thing a run
    /// does: the footprint of one set-up and one run.
    pub peak_rss_mib: f64,
    /// Traced mode: per-layer metrics by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human reader (roofline table, percentile choices).
    pub notes: Vec<String>,
}

pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "ranks_uds" => ranks_run(ctx),
        "serve_sweep" => serve_run(ctx),
        _ => coupled_run(&Coupled::named(name, ctx.smoke), ctx),
    }
}

pub fn trace(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "ranks_uds" => ranks_trace(ctx),
        "serve_sweep" => serve_trace(ctx),
        _ => coupled_trace(&Coupled::named(name, ctx.smoke), ctx),
    }
}

/// The untraced measurement. One repetition of set-up plus fixed-size
/// run first (`rep` returns the seconds of each), after which the peak
/// resident set is read: one set-up and one run in a fresh process,
/// whatever the time allows later. Then cold set-ups alone (`set_up`
/// returns the seconds one took) for a fifth of the measuring time, then
/// repetitions until the measuring time is spent, at least [`MIN_REPS`] in
/// all. Every cold set-up of any phase is a `setup_s` sample. Smoke mode
/// stops after the first repetition.
fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    mut set_up: impl FnMut(&mut Outcome) -> f64,
    mut rep: impl FnMut(&mut Outcome) -> (f64, f64),
) {
    let t0 = Instant::now();
    let spent = || t0.elapsed().as_secs_f64();
    let mut repeat = |out: &mut Outcome| {
        let (setup, wall) = rep(out);
        out.setup_s.push(setup);
        out.wall_s.push(wall);
    };
    repeat(out);
    out.peak_rss_mib = probes::peak_rss_mib();
    if ctx.smoke {
        return;
    }
    let setups_end = spent() + SETUP_SHARE * ctx.seconds;
    while out.setup_s.len() < MAX_SETUPS && spent() < setups_end {
        let setup = set_up(out);
        out.setup_s.push(setup);
    }
    while out.wall_s.len() < MIN_REPS || spent() < ctx.seconds {
        repeat(out);
    }
}

/// Rounds of a traced run: `round` makes one pass of each kind, until the
/// measuring time is spent, at least [`MIN_ROUNDS`]; one in smoke mode.
fn rounds<R>(ctx: &Ctx, mut round: impl FnMut() -> Option<R>) -> Option<Vec<R>> {
    let t0 = Instant::now();
    let min = if ctx.smoke { 1 } else { MIN_ROUNDS };
    let mut all = Vec::new();
    while all.len() < min || (!ctx.smoke && t0.elapsed().as_secs_f64() < ctx.seconds) {
        all.push(round()?);
    }
    Some(all)
}

/// The element whose `key` is the median of the keys (the upper of the
/// two middle ones in an even count).
fn median_by<R>(xs: &[R], key: impl Fn(&R) -> f64) -> &R {
    let mut order: Vec<&R> = xs.iter().collect();
    order.sort_by(|a, b| key(a).total_cmp(&key(b)));
    order[order.len() / 2]
}

/// Every pass of a deterministic scenario must land on the same state.
fn same_hash(out: &mut Outcome, hash: u64) {
    if out.state_hash == 0 {
        out.state_hash = hash;
    }
    let first = out.state_hash;
    out.ledger.require(hash == first, || {
        format!("passes diverged: state hash {hash:016x} after {first:016x}")
    });
}

fn sum(xs: Option<&Vec<f64>>) -> f64 {
    xs.map_or(0.0, |v| v.iter().sum())
}

fn count(xs: Option<&Vec<f64>>) -> f64 {
    xs.map_or(0.0, |v| v.len() as f64)
}

/// Median and tail of a span series in `unit`s per second, plus a note
/// saying which percentile the tail is.
fn p50_and_tail(
    out: &mut Outcome,
    series: Option<&Vec<f64>>,
    scale: f64,
    keys: (&'static str, &'static str, &'static str),
) {
    let empty = Vec::new();
    let xs = series.unwrap_or(&empty);
    let pct = trace::tail_percentile(xs.len());
    out.layers.insert(keys.0, trace::percentile(xs, 50) * scale);
    out.layers
        .insert(keys.1, trace::percentile(xs, pct) * scale);
    out.layers.insert(keys.2, f64::from(pct));
    out.notes.push(format!(
        "{} is p{pct} of {} samples (highest percentile with at least ten samples beyond it)",
        keys.1,
        xs.len()
    ));
}

fn write_trace(ctx: &Ctx, out: &mut Outcome, name: &str, spans: &[Span]) {
    let path = ctx.trace_dir.join(format!("{name}.trace.json"));
    match trace::write_chrome_trace(&path, name, spans) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("trace not written to {}: {e}", path.display())),
    }
    out.layers.insert("trace.spans", spans.len() as f64);
}

/// Recording the spans must cost a negligible share of the traced wall.
/// The share is spans × the cost of one span, calibrated in this process:
/// the wall difference between a traced and an untraced pass is what the
/// host adds to either, many times what the spans cost.
fn require_cheap_spans(out: &mut Outcome, overhead_frac: f64) {
    out.ledger
        .require(overhead_frac < check::TRACE_OVERHEAD_CEILING, || {
            format!(
                "recording the spans cost {:.2}% of the traced wall",
                overhead_frac * 100.0
            )
        });
}

// ---------------------------------------------------------------------------
// coupled_sem, coupled_dpd, coupled_io: NektarG through its front door.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Wpod {
    sampler_bins: usize,
    sample_every: usize,
    window: usize,
}

/// One coupled scenario: a multipatch channel from rest with an embedded
/// open-boundary DPD box.
#[derive(Debug, Clone, Copy)]
struct Coupled {
    name: &'static str,
    /// Elements along and across the channel, patches, polynomial order.
    mesh: (usize, usize, usize, usize),
    dpd_box: [f64; 3],
    /// Interface bins (y, z) on the DPD inflow face.
    bins: (usize, usize),
    /// NS length of one DPD length unit; places the box inside the channel.
    unit_dpd: f64,
    platelets: bool,
    wpod: Option<Wpod>,
    /// DPD steps per NS step, NS steps per exchange.
    progression: (usize, usize),
    steps: usize,
    /// Rotating checkpoint every this many exchanges.
    ckpt_every: Option<u64>,
    /// Stop here, drop the solver and resume from the latest checkpoint.
    stop_at: Option<usize>,
    /// Ceiling on the RMS patch-to-patch velocity mismatch at the last
    /// exchange, in NS velocity units: a few times what the scenario ends
    /// with (it does not depend on the seed — nothing flows back from the
    /// DPD box to the continuum).
    mismatch_ceiling: f64,
}

impl Coupled {
    fn named(name: &str, smoke: bool) -> Self {
        let full = match name {
            // Continuum-bound: three p=8 patches, a token 324-particle insert.
            "coupled_sem" => Coupled {
                name: "coupled_sem",
                mesh: (48, 4, 3, 8),
                dpd_box: [6.0, 6.0, 3.0],
                bins: (4, 2),
                unit_dpd: 0.05,
                platelets: false,
                wpod: None,
                progression: (4, 5),
                steps: 10,
                ckpt_every: None,
                stop_at: None,
                // The three patches are still settling on a common
                // start-up profile: 0.025 against a flow of 0.02.
                mismatch_ceiling: 0.05,
            },
            // Atomistic-bound: a 28 800-particle sac with platelets and
            // WPOD over a coarse continuum.
            "coupled_dpd" => Coupled {
                name: "coupled_dpd",
                mesh: (12, 2, 2, 4),
                dpd_box: [30.0, 20.0, 16.0],
                bins: (20, 16),
                unit_dpd: 0.02,
                platelets: true,
                wpod: Some(Wpod {
                    sampler_bins: 64,
                    sample_every: 1,
                    window: 16,
                }),
                progression: (10, 1),
                steps: 2,
                ckpt_every: None,
                stop_at: None,
                mismatch_ceiling: 0.002,
            },
            // Coupling-bound, the ROADMAP's reference run: exchange every
            // step over 8192 interface bins, a checkpoint every second
            // exchange, one stop and resume half way.
            "coupled_io" => Coupled {
                name: "coupled_io",
                mesh: (24, 4, 2, 4),
                dpd_box: [12.0, 12.0, 8.0],
                bins: (2048, 4),
                unit_dpd: 0.05,
                platelets: false,
                wpod: Some(Wpod {
                    sampler_bins: 6,
                    sample_every: 2,
                    window: 8,
                }),
                progression: (1, 1),
                steps: 80,
                ckpt_every: Some(2),
                stop_at: Some(40),
                mismatch_ceiling: 1e-8,
            },
            other => panic!("unknown workload {other}; expected one of {NAMES:?}"),
        };
        if !smoke {
            return full;
        }
        // Smoke: the same scenario shapes at about a twentieth of the work.
        let shrink = |n: usize, by: usize| (n / by).max(2);
        Coupled {
            mesh: (
                full.mesh.0 / 2,
                full.mesh.1 / 2,
                full.mesh.2,
                full.mesh.3.min(4),
            ),
            dpd_box: [
                full.dpd_box[0].min(8.0),
                full.dpd_box[1].min(8.0),
                full.dpd_box[2].min(4.0),
            ],
            bins: (full.bins.0.min(64), full.bins.1.min(2)),
            unit_dpd: 0.05,
            steps: if full.steps > 10 {
                shrink(full.steps, 10)
            } else {
                2
            },
            stop_at: full.stop_at.map(|s| shrink(s, 10)),
            // A handful of steps from rest on a coarser mesh.
            mismatch_ceiling: 0.1,
            ..full
        }
    }

    fn checkpoint_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.nkgc", self.name))
    }

    /// Mesh → spaces → preconditioner factors → interface tables → DPD
    /// fill, with no ambient artifact cache: every construction is cold.
    fn make(&self, seed: u64, policy: ExecutionPolicy) -> NektarG {
        let (nx, ny, np, p) = self.mesh;
        let continuum = poiseuille_multipatch(6.0, 1.0, nx, ny, np, p, NU, FORCE, NS_DT);
        let cfg = DpdConfig {
            seed,
            ..Default::default()
        };
        let bx = Box3::new([0.0; 3], self.dpd_box, [false, false, true]);
        let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
        // Pinned: bitwise thread-invariant, so the state hash does not
        // depend on the host's core count the way `Auto` does.
        sim.force_backend = ForceBackend::Parallel;
        sim.fill_solvent();
        if self.platelets {
            sim.seed_platelets(0.06);
            let [lx, _, lz] = self.dpd_box;
            sim.sites =
                WallSites::on_plane(40, 1, 0.0, [0.3 * lx, 0.0, 0.0], [0.8 * lx, 0.0, lz], 5);
        }
        let mut ob =
            OpenBoundaryX::new(self.bins.0, self.bins.1, cfg.density, cfg.kbt, [0.0; 3], 0);
        ob.target_count = Some(sim.particles.len());
        sim.set_open_x(ob);
        let embedding = Embedding {
            origin_ns: [2.5, 0.35],
            scaling: UnitScaling {
                unit_ns: 1.0,
                unit_dpd: self.unit_dpd,
                nu_ns: NU,
                nu_dpd: 0.85,
            },
        };
        let atom = AtomisticDomain::new(sim, embedding);
        let (substeps, every) = self.progression;
        let ng = NektarG::new(continuum, atom, TimeProgression::new(substeps, every))
            .with_policy(policy);
        match self.wpod {
            Some(w) => ng.with_wpod(
                BinSampler::new(1, w.sampler_bins, 0, w.sample_every),
                WindowPod::new(w.window, w.window, 2.0),
            ),
            None => ng,
        }
    }

    /// [`Self::make`] plus the first exchange, which builds the midpoint
    /// interpolation table: the whole of set-up.
    fn set_up(&self, seed: u64, policy: ExecutionPolicy) -> NektarG {
        let mut ng = self.make(seed, policy);
        ng.atomistic.exchange_from_continuum(&ng.continuum);
        ng
    }
}

/// What one pass through a coupled scenario's schedule left behind.
struct CoupledPass {
    ng: NektarG,
    setup_s: f64,
    wall_s: f64,
    /// Window timing totals over both halves of a stopped run (a restore
    /// clears the report's timings).
    timing: WindowTiming,
    error: Option<String>,
}

fn add_timing(a: WindowTiming, b: WindowTiming) -> WindowTiming {
    WindowTiming {
        continuum_s: a.continuum_s + b.continuum_s,
        atomistic_s: a.atomistic_s + b.atomistic_s,
        exchange_s: a.exchange_s + b.exchange_s,
        window_s: a.window_s + b.window_s,
    }
}

/// The scenario through `NektarG::run_to`: set up, run to the stop, drop
/// the solver, resume from the latest checkpoint, run to the end.
fn coupled_pass(c: &Coupled, ctx: &Ctx, policy: ExecutionPolicy) -> CoupledPass {
    let t = Instant::now();
    let mut ng = c.set_up(ctx.seed, policy);
    let setup_s = t.elapsed().as_secs_f64();
    let path = c.checkpoint_path(&ctx.scratch);
    let ckpt = c.ckpt_every.map(|k| CheckpointPolicy::new(&path, k));
    let mut timing = WindowTiming::default();
    let t = Instant::now();
    let result = (|| -> Result<(), String> {
        if let Some(stop) = c.stop_at {
            ng.run_to(stop, ckpt.as_ref(), None)
                .map_err(|e| e.to_string())?;
            timing = ng.report.timing_totals();
            let (resumed, _) = NektarG::resume_latest(|| c.make(ctx.seed, policy), &path)
                .map_err(|e| format!("resume: {e}"))?;
            ng = resumed;
        }
        ng.run_to(c.steps, ckpt.as_ref(), None)
            .map_err(|e| e.to_string())?;
        Ok(())
    })();
    let wall_s = t.elapsed().as_secs_f64();
    CoupledPass {
        timing: add_timing(timing, ng.report.timing_totals()),
        ng,
        setup_s,
        wall_s,
        error: result.err(),
    }
}

/// Count a finished pass's operations and check its results.
fn coupled_account(c: &Coupled, pass: &CoupledPass, out: &mut Outcome) {
    let r = &pass.ng.report;
    out.ledger
        .ops((r.ns_steps + r.dpd_steps + r.exchanges) as u64);
    if let Some(e) = &pass.error {
        out.ledger.fail(1, format!("run failed: {e}"));
        return;
    }
    let checked = check::coupled(&pass.ng, c.mismatch_ceiling, &mut out.ledger);
    if out.state_hash == 0 {
        out.notes.push(checked);
    }
    same_hash(out, check::coupled_state_hash(&pass.ng));
}

fn coupled_run(c: &Coupled, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    measure(
        ctx,
        &mut out,
        |_| {
            let t = Instant::now();
            let ng = c.set_up(ctx.seed, ExecutionPolicy::Overlapped);
            let setup_s = t.elapsed().as_secs_f64();
            drop(ng);
            setup_s
        },
        |out| {
            let pass = coupled_pass(c, ctx, ExecutionPolicy::Overlapped);
            coupled_account(c, &pass, out);
            (pass.setup_s, pass.wall_s)
        },
    );
    out
}

/// Counters the replay keeps next to its spans.
#[derive(Default)]
struct ReplayCounts {
    particle_steps: u64,
    ckpt_bytes: u64,
}

/// The Serial window ordering of `NektarG::run_to`, replayed call by call
/// from outside with a span around each call into a layer.
fn replay_to(
    c: &Coupled,
    ng: &mut NektarG,
    target: usize,
    path: &Path,
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    ng.continuum.parallel = false;
    while ng.report.ns_steps < target {
        let step = ng.report.ns_steps;
        if ng.progression.exchange_at(step) {
            let done = ng.report.exchanges as u64;
            if c.ckpt_every
                .is_some_and(|k| done > 0 && done.is_multiple_of(k))
            {
                let s = tr.enter("ckpt.write");
                let bytes = ng.checkpoint_rotating(path);
                tr.exit(s);
                counts.ckpt_bytes += bytes.map_err(|e| format!("checkpoint: {e}"))?;
            }
            let s = tr.enter("core.atomistic_exchange");
            ng.atomistic.exchange_from_continuum(&ng.continuum);
            tr.exit(s);
            ng.report.exchanges += 1;
            let s = tr.enter("core.interface_metrics");
            if let Some(err) = ng.atomistic.latest_continuity_error() {
                ng.report.continuity.push(err);
            }
            ng.report
                .patch_mismatch
                .push(ng.continuum.interface_mismatch());
            ng.report
                .platelet_census
                .push(ng.atomistic.sim.platelet_census());
            tr.exit(s);
        }
        let s = tr.enter("core.patch_exchange");
        ng.continuum.exchange();
        tr.exit(s);
        for patch in &mut ng.continuum.patches {
            let s = tr.enter("sem.step");
            patch.step();
            tr.exit(s);
        }
        // The telemetry `run_to` pushes after each continuum step, so the
        // report (and every checkpoint holding it) matches bit for bit.
        let solve = ng.continuum.last_step_stats();
        let residual = solve.pressure_residual.max(solve.viscous_residual);
        let r = &mut ng.report;
        r.pressure_iters_per_step
            .push(solve.pressure_iterations as u64);
        r.viscous_iters_per_step
            .push(solve.viscous_iterations as u64);
        r.elliptic_residual_per_step.push(residual);
        if solve.breakdown {
            r.breakdown_steps.push(step as u64);
        }
        r.telemetry_steps += 1;
        r.worst_residual_seen = r.worst_residual_seen.max(residual);
        r.ns_steps += 1;
        for _ in 0..ng.progression.substeps {
            let s = tr.enter("dpd.step");
            ng.atomistic.sim.step();
            tr.exit(s);
            counts.particle_steps += ng.atomistic.sim.particles.len() as u64;
            ng.report.dpd_steps += 1;
            if let Some((sampler, wpod)) = &mut ng.wpod {
                let s = tr.enter("dpd.sample");
                let snap = sampler.accumulate(&ng.atomistic.sim);
                tr.exit(s);
                if let Some(snap) = snap {
                    let s = tr.enter("wpod.push");
                    let window = wpod.push(snap);
                    tr.exit(s);
                    if let Some(res) = window {
                        tr.rename(s, "wpod.eig");
                        ng.report.wpod_windows += 1;
                        ng.last_wpod = Some(res);
                    }
                }
            }
        }
    }
    Ok(())
}

/// The traced pass: the same schedule as [`coupled_pass`] under the
/// Serial policy, replayed from outside. Returns the spans too.
fn coupled_replay(c: &Coupled, ctx: &Ctx) -> (CoupledPass, Vec<Span>, ReplayCounts) {
    let policy = ExecutionPolicy::Serial;
    let t = Instant::now();
    let mut ng = c.set_up(ctx.seed, policy);
    let setup_s = t.elapsed().as_secs_f64();
    let path = c.checkpoint_path(&ctx.scratch);
    let mut counts = ReplayCounts::default();
    let spans_cap = 64 + c.steps * (8 + 4 * c.progression.0);
    let mut tr = Tracer::new(Instant::now(), 0, spans_cap);
    let t = Instant::now();
    let root = tr.enter("run");
    let result = (|| -> Result<(), String> {
        if let Some(stop) = c.stop_at {
            replay_to(c, &mut ng, stop, &path, &mut tr, &mut counts)?;
            let s = tr.enter("ckpt.resume");
            let resumed = NektarG::resume_latest(|| c.make(ctx.seed, policy), &path);
            tr.exit(s);
            ng = resumed.map_err(|e| format!("resume: {e}"))?.0;
        }
        replay_to(c, &mut ng, c.steps, &path, &mut tr, &mut counts)
    })();
    tr.exit(root);
    let wall_s = t.elapsed().as_secs_f64();
    let pass = CoupledPass {
        timing: WindowTiming::default(),
        ng,
        setup_s,
        wall_s,
        error: result.err(),
    };
    (pass, tr.finish(), counts)
}

/// Walls of one round of a traced coupled run, with what only that
/// round's passes can tell: the Overlapped pass's window timing and the
/// replay's spans.
struct CoupledRound {
    overlapped_s: f64,
    overlapped_timing: WindowTiming,
    traced_s: f64,
    spans: Vec<Span>,
    serial_s: f64,
}

fn coupled_trace(c: &Coupled, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cpu0 = probes::cpu_seconds();
    // Rounds of {`run_to` Overlapped, the replay, `run_to` Serial}: on a
    // shared host one pass's wall is that pass's luck, so every wall and
    // ratio below is a median over the rounds. Accounting each pass also
    // requires all of them to land on one state hash: the replay is
    // faithful only if it ends where `run_to` does, under either policy.
    let mut last = None;
    let all = rounds(ctx, || {
        let overlapped = coupled_pass(c, ctx, ExecutionPolicy::Overlapped);
        coupled_account(c, &overlapped, &mut out);
        let (traced, spans, counts) = coupled_replay(c, ctx);
        coupled_account(c, &traced, &mut out);
        let serial = coupled_pass(c, ctx, ExecutionPolicy::Serial);
        coupled_account(c, &serial, &mut out);
        let round = CoupledRound {
            overlapped_s: overlapped.wall_s,
            overlapped_timing: overlapped.timing,
            traced_s: traced.wall_s,
            spans,
            serial_s: serial.wall_s,
        };
        last = Some((overlapped, traced, counts));
        Some(round)
    })
    .expect("a coupled round always returns");
    let cpu_s = probes::cpu_seconds() - cpu0;
    let (mut overlapped, traced, counts) = last.expect("at least one round");
    if out.ledger.failed > 0 {
        return out;
    }
    let serial_s = trace::median(&all.iter().map(|r| r.serial_s).collect::<Vec<_>>());
    let overlapped_s = trace::median(&all.iter().map(|r| r.overlapped_s).collect::<Vec<_>>());
    // The layer budget is read off the replay whose wall is the median,
    // the window timing off the Overlapped pass whose wall is.
    let typical = median_by(&all, |r| r.traced_s);
    let (spans, traced_s) = (&typical.spans, typical.traced_s);
    let typical_overlapped = median_by(&all, |r| r.overlapped_s);
    let timing = typical_overlapped.overlapped_timing;
    out.notes.push(format!(
        "{} rounds of Overlapped, replay and Serial passes; walls are medians over them",
        all.len()
    ));

    let named = trace::by_name(spans);
    let get = |k: &str| named.get(k);
    let l = &mut out.layers;
    l.insert(
        "core.atomistic_exchange_s",
        sum(get("core.atomistic_exchange")),
    );
    l.insert("core.patch_exchange_s", sum(get("core.patch_exchange")));
    l.insert(
        "core.interface_metrics_s",
        sum(get("core.interface_metrics")),
    );
    l.insert("core.exchanges", count(get("core.atomistic_exchange")));
    l.insert("core.ns_steps", count(get("core.patch_exchange")));
    let points =
        traced.ng.atomistic.bin_midpoints_ns.len() + traced.ng.continuum.interface_queries().len();
    l.insert("core.interface_points", points as f64);
    let last = |v: &[f64]| v.last().copied().unwrap_or(0.0);
    l.insert(
        "core.interface_mismatch",
        last(&traced.ng.report.patch_mismatch),
    );
    l.insert("core.continuity_error", last(&traced.ng.report.continuity));
    l.insert(
        "core.continuity_noise",
        check::continuity_noise(&traced.ng).map_or(0.0, |(noise, _)| noise),
    );
    l.insert("core.serial_wall_s", serial_s);
    l.insert("core.overlap_speedup", serial_s / overlapped_s);
    let longer = timing.continuum_s.max(timing.atomistic_s);
    l.insert(
        "core.overlap_ideal",
        (timing.continuum_s + timing.atomistic_s) / longer,
    );
    let ckpt_s = sum(get("ckpt.write"));
    let resume_s = sum(get("ckpt.resume"));
    // What an Overlapped run spends outside its longer task, its
    // boundaries and its checkpoints: thread and pool fork/join per
    // window, and the shorter task's overhang where the two alternate.
    l.insert(
        "core.window_overhead_s",
        typical_overlapped.overlapped_s - longer - timing.exchange_s - ckpt_s - resume_s,
    );
    let leaf = trace::leaf_self_seconds(spans);
    let unattributed = 1.0 - leaf / traced_s;
    l.insert("core.unattributed_frac", unattributed);

    let solve = traced.ng.report.solve_summary();
    l.insert("sem.step_s", sum(get("sem.step")));
    let r = &traced.ng.report;
    l.insert(
        "sem.pressure_iters",
        r.pressure_iters_per_step.iter().sum::<u64>() as f64,
    );
    l.insert(
        "sem.viscous_iters",
        r.viscous_iters_per_step.iter().sum::<u64>() as f64,
    );
    l.insert("sem.worst_residual", solve.worst_residual);
    l.insert("sem.breakdowns", solve.breakdowns as f64);

    let dpd_step_s = sum(get("dpd.step"));
    l.insert("dpd.step_s", dpd_step_s);
    l.insert("dpd.particle_steps", counts.particle_steps as f64);
    l.insert(
        "dpd.ns_per_particle_step",
        dpd_step_s * 1e9 / counts.particle_steps.max(1) as f64,
    );
    l.insert("dpd.sample_s", sum(get("dpd.sample")));
    let sim = &traced.ng.atomistic.sim;
    l.insert("dpd.particles_final", sim.particles.len() as f64);
    l.insert("dpd.temperature", sim.particles.temperature());

    let eig = get("wpod.eig");
    l.insert("wpod.push_s", sum(get("wpod.push")) + sum(eig));
    l.insert("wpod.windows", count(eig));
    l.insert("wpod.eig_ms", sum(eig) * 1e3 / count(eig).max(1.0));

    l.insert("ckpt.write_s", ckpt_s);
    l.insert("ckpt.snapshots", count(get("ckpt.write")));
    l.insert("ckpt.bytes", counts.ckpt_bytes as f64);
    l.insert(
        "ckpt.write_mbs",
        if ckpt_s > 0.0 {
            counts.ckpt_bytes as f64 / 1e6 / ckpt_s
        } else {
            0.0
        },
    );
    l.insert("ckpt.resumes", count(get("ckpt.resume")));
    l.insert("ckpt.resume_ms", resume_s * 1e3);
    l.insert("proc.cpu_s", cpu_s);
    let span_cost = Tracer::span_cost_seconds();
    let overhead = spans.len() as f64 * span_cost / traced_s;
    l.insert("trace.overhead_frac", overhead);

    p50_and_tail(
        &mut out,
        get("sem.step"),
        1e3,
        ("sem.step_p50_ms", "sem.step_tail_ms", "sem.step_tail_pct"),
    );
    p50_and_tail(
        &mut out,
        get("dpd.step"),
        1e3,
        ("dpd.step_p50_ms", "dpd.step_tail_ms", "dpd.step_tail_pct"),
    );

    out.ledger
        .require(unattributed < check::UNATTRIBUTED_CEILING, || {
            format!(
                "{:.2}% of the traced wall is outside every span",
                unattributed * 100.0
            )
        });
    require_cheap_spans(&mut out, overhead);

    // Probes on the state the runs left behind.
    if c.ckpt_every.is_some() {
        let mut fresh = c.make(ctx.seed, ExecutionPolicy::Serial);
        let t = Instant::now();
        let restored = fresh.restore_from(&c.checkpoint_path(&ctx.scratch));
        out.layers
            .insert("ckpt.restore_ms", t.elapsed().as_secs_f64() * 1e3);
        out.ledger
            .require(restored.is_ok(), || format!("restore probe: {restored:?}"));
    }
    let sem = probes::sem(&traced.ng.continuum.patches[0]);
    let dpd = probes::dpd(&mut overlapped.ng.atomistic.sim);
    let dpd_p50_ms = out.layers["dpd.step_p50_ms"];
    let stream_cap = probes::STREAM_ARRAY_CAP / if ctx.smoke { 8 } else { 1 };
    let simd = probes::simd(sem.dofs, stream_cap);
    insert_sem_probe(&mut out, &sem);
    let l = &mut out.layers;
    l.insert("dpd.forces_ms", dpd.forces_ms);
    l.insert("dpd.forces_frac", dpd.forces_ms / dpd_p50_ms);
    l.insert("dpd.mpairs_per_s", dpd.pairs / 1e6 / (dpd.forces_ms / 1e3));
    l.insert("simd.llc_mib", simd.llc_mib);
    l.insert("simd.array_mib", simd.array_mib);
    l.insert("simd.triad_gbs", simd.triad_gbs);
    l.insert("simd.dot_gbs", simd.dot_gbs);
    l.insert("simd.axpy_gbs", simd.axpy_gbs);
    l.insert("simd.norm2_gbs", simd.norm2_gbs);
    l.insert("simd.dot_incache_gflops", simd.dot_incache_gflops);
    l.insert("simd.axpy_incache_gflops", simd.axpy_incache_gflops);
    roofline_note(&mut out, &simd, &sem, &dpd);
    write_trace(ctx, &mut out, c.name, spans);
    out
}

fn insert_sem_probe(out: &mut Outcome, sem: &probes::SemProbe) {
    let l = &mut out.layers;
    l.insert("sem.dofs", sem.dofs as f64);
    l.insert("sem.helmholtz_apply_us", sem.apply_us);
    l.insert(
        "sem.helmholtz_apply_gflops",
        sem.apply_flops / sem.apply_us / 1e3,
    );
    l.insert(
        "sem.helmholtz_apply_flop_per_byte",
        sem.apply_flops / sem.apply_bytes,
    );
    l.insert("sem.solve_pressure_ms", sem.solve_pressure_ms);
    l.insert("sem.solve_viscous_ms", sem.solve_viscous_ms);
    l.insert("sem.us_per_cg_iter", sem.us_per_cg_iter);
    l.insert("sem.setup_precon_s", sem.setup_precon_s);
}

/// The Table-1-shaped block: per kernel the computed flops and bytes of
/// one call, their ratio, the measured rates, and the measured rate over
/// the bandwidth roof `triad GB/s × flop/byte`.
fn roofline_note(
    out: &mut Outcome,
    simd: &probes::SimdProbe,
    sem: &probes::SemProbe,
    dpd: &probes::DpdProbe,
) {
    let n = simd.array_mib * (1 << 20) as f64 / 8.0;
    // Pair kernel, computed: ~60 flops per pair (distance, weight,
    // conservative + dissipative + random force, two scatters) over the
    // six coordinates and velocities read and three forces updated twice.
    let pair_flops = dpd.pairs * 60.0;
    let pair_bytes = dpd.pairs * (12.0 + 6.0 * 2.0) * 8.0;
    let pair_seconds = dpd.forces_ms / 1e3;
    let rows = [
        ("triad a=b+s*c", 2.0 * n, 24.0 * n, simd.triad_gbs),
        ("nkg_simd::dot", 2.0 * n, 16.0 * n, simd.dot_gbs),
        ("nkg_simd::axpy", 2.0 * n, 24.0 * n, simd.axpy_gbs),
        ("nkg_simd::norm2", 2.0 * n, 8.0 * n, simd.norm2_gbs),
        (
            "Space2d::apply_helmholtz",
            sem.apply_flops,
            sem.apply_bytes,
            sem.apply_bytes / sem.apply_us / 1e3,
        ),
        (
            "DpdSim::compute_forces",
            pair_flops,
            pair_bytes,
            pair_bytes / pair_seconds / 1e9,
        ),
    ];
    out.notes.push(format!(
        "roofline (flops and bytes computed from sizes, not counted; streaming arrays {:.0} MiB \
         each, last-level cache {:.0} MiB; roof = triad {:.2} GB/s x flop/byte)",
        simd.array_mib, simd.llc_mib, simd.triad_gbs
    ));
    out.notes.push(format!(
        "  {:<26} {:>11} {:>11} {:>9} {:>8} {:>8} {:>9}",
        "kernel", "flops/call", "bytes/call", "flop/byte", "GF/s", "GB/s", "of roof"
    ));
    for (name, flops, bytes, gbs) in rows {
        let intensity = flops / bytes;
        let gfs = gbs * intensity;
        out.notes.push(format!(
            "  {name:<26} {flops:>11.3e} {bytes:>11.3e} {intensity:>9.3} {gfs:>8.2} {gbs:>8.2} {:>9.2}",
            gfs / (simd.triad_gbs * intensity)
        ));
    }
    out.notes.push(format!(
        "  in cache at {} values: dot {:.2} GF/s, axpy {:.2} GF/s",
        sem.dofs, simd.dot_incache_gflops, simd.axpy_incache_gflops
    ));
}

// ---------------------------------------------------------------------------
// ranks_uds: two thread-ranks over the UDS transport.
// ---------------------------------------------------------------------------

/// Values each way in one interface exchange.
const PAYLOAD: usize = 1024;
const LINK_TAG: u32 = 7;
const POISSON_TOL: f64 = 1e-10;
/// The rank program pairs rank 0 with rank 1.
const RANKS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Ranks {
    rounds: usize,
    exchanges_per_round: usize,
}

impl Ranks {
    fn sized(smoke: bool) -> Self {
        if smoke {
            Ranks {
                rounds: 4,
                exchanges_per_round: 40,
            }
        } else {
            Ranks {
                rounds: 20,
                exchanges_per_round: 50,
            }
        }
    }
}

/// What one rank brings back from the schedule.
struct RankResult {
    /// Seconds from the caller's `Universe::run` to this rank's entry.
    start_s: f64,
    dist_setup_s: f64,
    /// Seconds from the caller's `Universe::run` to the first barrier.
    setup_s: f64,
    /// Seconds between the first barrier and the closing one.
    wall_s: f64,
    solves: u64,
    iters: u64,
    exchanges: u64,
    /// Worst nodal error per unit amplitude over this rank's owned DoFs.
    worst_err: f64,
    bad_payloads: u64,
    hash: u64,
    spans: Vec<Span>,
}

/// Right-hand-side amplitude of round `r`: the seed's Poisson ladder.
fn amplitude(seed: u64, r: usize) -> f64 {
    1.0 + 0.03125 * ((seed + r as u64) % 17) as f64
}

/// The rank program: partition a 16×8 p=4 Poisson problem, then `rounds`
/// × {one distributed solve + a burst of three-step interface exchanges}.
fn rank_program(world: &Comm, cfg: Ranks, seed: u64, t_call: Instant, traced: bool) -> RankResult {
    let start_s = t_call.elapsed().as_secs_f64();
    let pi = std::f64::consts::PI;
    let mesh = QuadMesh::rectangle(16, 8, 0.0, 2.0, 0.0, 1.0);
    let space = Space2d::new(mesh, 4, false);
    let t = Instant::now();
    let ds = DistSpace2d::new(&space, world, 4);
    let dist_setup_s = t.elapsed().as_secs_f64();
    let unit_rhs =
        space.weak_rhs(move |x, y| pi * pi * 1.25 * (pi * x / 2.0).sin() * (pi * y).sin());
    let bnd = space.boundary_dofs(|_| true);
    let exact: Vec<f64> = space
        .coords
        .iter()
        .map(|&[x, y]| (pi * x / 2.0).sin() * (pi * y).sin())
        .collect();
    let l3 = world.split(Some(world.rank()), 0).expect("own colour");
    let l4 = l3.split(Some(0), 0).expect("own colour");
    let peer = 1 - world.rank();
    let link = InterfaceLink::establish(world, l4, peer, LINK_TAG);
    world.barrier();
    let setup_s = t_call.elapsed().as_secs_f64();

    let spans_cap = if traced {
        8 + cfg.rounds * (1 + cfg.exchanges_per_round)
    } else {
        0
    };
    let mut tr = Tracer::new(t_call, world.rank() as u32, spans_cap);
    let (mut solves, mut iters, mut exchanges, mut bad_payloads) = (0u64, 0u64, 0u64, 0u64);
    let mut worst_err = 0.0f64;
    let mut hash = Fnv::new();
    let mut rhs = vec![0.0; unit_rhs.len()];
    let mut mine = vec![0.0; PAYLOAD];
    let t = Instant::now();
    let root = traced.then(|| tr.enter("run"));
    for r in 0..cfg.rounds {
        let a = amplitude(seed, r);
        for (o, u) in rhs.iter_mut().zip(&unit_rhs) {
            *o = a * u;
        }
        let s = traced.then(|| tr.enter("core.dist_solve"));
        let (x, cg_iters) = ds.solve_dirichlet(world, 0.0, &rhs, &bnd, POISSON_TOL, 4000);
        if let Some(s) = s {
            tr.exit(s);
        }
        solves += 1;
        iters += cg_iters as u64;
        for g in (0..space.nglobal).filter(|&g| ds.owned[g]) {
            worst_err = worst_err.max((x[g] / a - exact[g]).abs());
            hash.word(x[g].to_bits());
        }
        for e in 0..cfg.exchanges_per_round {
            let stamp = (world.rank() * 1_000_000 + r * 1000 + e) as f64;
            mine.fill(stamp);
            let s = traced.then(|| tr.enter("mci.exchange"));
            let got = link.exchange(world, &mine, PAYLOAD);
            if let Some(s) = s {
                tr.exit(s);
            }
            exchanges += 1;
            let want = (peer * 1_000_000 + r * 1000 + e) as f64;
            if got.len() != PAYLOAD || got.iter().any(|&v| v != want) {
                bad_payloads += 1;
            }
        }
    }
    world.barrier();
    if let Some(root) = root {
        tr.exit(root);
    }
    RankResult {
        start_s,
        dist_setup_s,
        setup_s,
        wall_s: t.elapsed().as_secs_f64(),
        solves,
        iters,
        exchanges,
        worst_err,
        bad_payloads,
        hash: hash.finish(),
        spans: tr.finish(),
    }
}

struct RanksPass {
    /// Rank 0's clocks.
    setup_s: f64,
    wall_s: f64,
    start_s: f64,
    dist_setup_s: f64,
    iters: u64,
    worst_err: f64,
    messages: u64,
    bytes: u64,
    spans: Vec<Span>,
    hash: u64,
}

/// One universe, one schedule. A rank that dies, panics or times out on
/// a receive is a failed operation, never a hang: the universe's receive
/// timeout is 60 s and a panic on any rank unwinds into the ledger.
fn ranks_pass(
    ctx: &Ctx,
    cfg: Ranks,
    backend: Backend,
    traced: bool,
    ledger: &mut Ledger,
) -> Option<RanksPass> {
    let seed = ctx.seed;
    let u = Universe::new(RANKS)
        .with_backend(backend)
        .with_recv_timeout(Duration::from_secs(60));
    let t_call = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        u.run_surviving(move |world| rank_program(&world, cfg, seed, t_call, traced))
    }));
    let per_rank = (cfg.rounds * (1 + cfg.exchanges_per_round)) as u64;
    ledger.ops(per_rank * RANKS as u64);
    let run = match run {
        Ok(run) => run,
        Err(_) => {
            ledger.fail(
                per_rank * RANKS as u64,
                "a rank panicked or timed out".into(),
            );
            return None;
        }
    };
    ledger.fail(
        per_rank * run.dead.len() as u64,
        format!("rank(s) {:?} died", run.dead),
    );
    let results: Vec<RankResult> = run.results.into_iter().flatten().collect();
    let first = results.first()?;
    let traffic = u.stats();
    let mut pass = RanksPass {
        setup_s: first.setup_s,
        wall_s: first.wall_s,
        start_s: first.start_s,
        dist_setup_s: first.dist_setup_s,
        iters: first.iters,
        worst_err: results.iter().map(|r| r.worst_err).fold(0.0, f64::max),
        messages: traffic.messages,
        bytes: traffic.bytes,
        spans: Vec::new(),
        hash: 0,
    };
    let mut hash = Fnv::new();
    for r in results {
        ledger.fail(
            r.bad_payloads,
            format!("{} exchange(s) returned the wrong payload", r.bad_payloads),
        );
        ledger.require(r.worst_err < check::POISSON_ERR_CEILING, || {
            format!(
                "Poisson nodal error {:.3e} above {:e}",
                r.worst_err,
                check::POISSON_ERR_CEILING
            )
        });
        ledger.require(
            r.solves == cfg.rounds as u64
                && r.exchanges == (cfg.rounds * cfg.exchanges_per_round) as u64,
            || "a rank stopped short of the schedule".into(),
        );
        hash.word(r.hash);
        trace::merge(&mut pass.spans, r.spans);
    }
    pass.hash = hash.finish();
    Some(pass)
}

fn ranks_run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = Ranks::sized(ctx.smoke);
    // Set-up alone is the schedule with no rounds in it: universe start,
    // partition, link handshake, first barrier.
    let no_rounds = Ranks { rounds: 0, ..cfg };
    measure(
        ctx,
        &mut out,
        |out| {
            ranks_pass(ctx, no_rounds, Backend::Uds, false, &mut out.ledger)
                .map_or(f64::NAN, |pass| pass.setup_s)
        },
        |out| match ranks_pass(ctx, cfg, Backend::Uds, false, &mut out.ledger) {
            Some(pass) => {
                same_hash(out, pass.hash);
                (pass.setup_s, pass.wall_s)
            }
            None => (f64::NAN, f64::NAN),
        },
    );
    out
}

/// One round of the traced ranks run: the schedule in-process, traced over
/// UDS, and plain over UDS.
struct RanksRound {
    inproc: RanksPass,
    traced: RanksPass,
    plain: RanksPass,
}

fn ranks_trace(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = Ranks::sized(ctx.smoke);
    let cpu0 = probes::cpu_seconds();
    let all = rounds(ctx, || {
        Some(RanksRound {
            inproc: ranks_pass(ctx, cfg, Backend::InProc, false, &mut out.ledger)?,
            traced: ranks_pass(ctx, cfg, Backend::Uds, true, &mut out.ledger)?,
            plain: ranks_pass(ctx, cfg, Backend::Uds, false, &mut out.ledger)?,
        })
    });
    let cpu_s = probes::cpu_seconds() - cpu0;
    let Some(all) = all else {
        return out;
    };
    for r in &all {
        for pass in [&r.inproc, &r.traced, &r.plain] {
            same_hash(&mut out, pass.hash);
        }
        out.ledger.require(
            r.traced.messages == r.plain.messages && r.traced.bytes == r.plain.bytes,
            || "message counts differ between the traced and the plain pass".into(),
        );
    }
    let inproc_s = trace::median(&all.iter().map(|r| r.inproc.wall_s).collect::<Vec<_>>());
    let plain_s = trace::median(&all.iter().map(|r| r.plain.wall_s).collect::<Vec<_>>());
    // The layer budget is read off the traced pass whose wall is the median.
    let traced = &median_by(&all, |r| r.traced.wall_s).traced;
    out.notes.push(format!(
        "{} rounds of InProc, traced UDS and plain UDS passes; walls are medians over them",
        all.len()
    ));

    // Allreduce latency: its own universe, so the schedule's message
    // count stays exact.
    let allreduce = catch_unwind(|| {
        Universe::new(2)
            .with_backend(Backend::Uds)
            .with_recv_timeout(Duration::from_secs(60))
            .run(|world| {
                let mut us = Vec::with_capacity(1000);
                for i in 0..1000 {
                    let t = Instant::now();
                    std::hint::black_box(world.allreduce_scalar_sum(i as f64));
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                us
            })
    });
    out.ledger.ops(1);
    let allreduce_us = match allreduce {
        Ok(mut per_rank) => per_rank.swap_remove(0),
        Err(_) => {
            out.ledger.fail(1, "allreduce probe panicked".into());
            Vec::new()
        }
    };

    // Only rank 0's tree enters the layer budget. Ranks are merged in
    // rank order, so its spans are a prefix whose parent indices hold.
    let n0 = traced.spans.iter().take_while(|s| s.rank == 0).count();
    let rank0 = &traced.spans[..n0];
    let named = trace::by_name(rank0);
    let get = |k: &str| named.get(k);
    let unattributed = 1.0 - trace::leaf_self_seconds(rank0) / traced.wall_s;
    let l = &mut out.layers;
    l.insert("core.dist_solve_s", sum(get("core.dist_solve")));
    l.insert("core.dist_solves", count(get("core.dist_solve")));
    l.insert("core.dist_iters", traced.iters as f64);
    l.insert("mci.exchanges", count(get("mci.exchange")));
    l.insert("mci.exchange_s", sum(get("mci.exchange")));
    l.insert("core.dist_setup_ms", traced.dist_setup_s * 1e3);
    l.insert("core.dist_nodal_error", traced.worst_err);
    l.insert("core.unattributed_frac", unattributed);
    l.insert("mci.universe_start_ms", traced.start_s * 1e3);
    l.insert("mci.allreduce_us_p50", trace::median(&allreduce_us));
    l.insert("net.messages", traced.messages as f64);
    l.insert("net.bytes", traced.bytes as f64);
    l.insert("net.inproc_wall_s", inproc_s);
    l.insert("net.transport_overhead_frac", 1.0 - inproc_s / plain_s);
    l.insert("proc.cpu_s", cpu_s);
    let span_cost = Tracer::span_cost_seconds();
    let overhead = n0 as f64 * span_cost / traced.wall_s;
    l.insert("trace.overhead_frac", overhead);
    p50_and_tail(
        &mut out,
        get("mci.exchange"),
        1e6,
        (
            "mci.exchange_us_p50",
            "mci.exchange_us_tail",
            "mci.exchange_tail_pct",
        ),
    );
    out.ledger
        .require(unattributed < check::UNATTRIBUTED_CEILING, || {
            format!(
                "{:.2}% of rank 0's traced wall is outside every span",
                unattributed * 100.0
            )
        });
    require_cheap_spans(&mut out, overhead);
    write_trace(ctx, &mut out, "ranks_uds", &traced.spans);
    out
}

// ---------------------------------------------------------------------------
// serve_sweep: a closed loop of sweep jobs through Ensemble::serve.
// ---------------------------------------------------------------------------

/// Distinct discretizations (affinity groups) in the sweep.
const GROUPS: usize = 4;

/// The job population: `GROUPS` discretizations submitted round-robin —
/// the worst case for a bounded cache, which is what affinity batching is
/// for. The seed shifts the force ladder; the discretizations stay put so
/// every seed does the same amount of work.
fn sweep_specs(ctx: &Ctx) -> Vec<JobSpec<SweepJob>> {
    let (jobs, steps) = if ctx.smoke { (8, 2) } else { (48, 4) };
    let shift = 0.0005 * (ctx.seed % 64) as f64;
    (0..jobs)
        .map(|i| {
            let g = i % GROUPS;
            let (np, p) = (2 + g % 2, [6, 8][g / 2]);
            SweepJob::channel(12, np, p, 0.25 + shift + 0.005 * i as f64, steps).spec()
        })
        .collect()
}

/// Set-up: one job per affinity group into an empty cache. Returns the
/// seconds it took and the bytes the cache then holds, which is how the
/// working set is sized.
fn serve_set_up(specs: &[JobSpec<SweepJob>]) -> (f64, u64) {
    let t = Instant::now();
    let warmup = Ensemble::new(CacheMode::Process);
    for spec in specs.iter().take(GROUPS) {
        warmup.serve(
            std::slice::from_ref(spec),
            &SweepOps,
            &SchedulerConfig::default(),
        );
    }
    (t.elapsed().as_secs_f64(), warmup.cache().resident_bytes())
}

struct ServePass<O> {
    setup_s: f64,
    wall_s: f64,
    working_set_bytes: u64,
    ensemble: Ensemble,
    results: Vec<nkg_coupling::JobResult<O>>,
}

/// [`serve_set_up`], then the whole sweep through a fresh cache capped at
/// 40% of the working set, `threads` workers pulling from a 32-deep queue
/// — a closed loop, each worker taking its next job only when the last is
/// done.
fn serve_pass<O>(ctx: &Ctx, specs: &[JobSpec<SweepJob>], ops: &O) -> ServePass<O::Out>
where
    O: JobOps<SweepJob> + Sync,
    O::Out: Send,
{
    let (setup_s, working_set_bytes) = serve_set_up(specs);
    let cache =
        ArtifactCache::new(CacheMode::Process).with_capacity_bytes(working_set_bytes * 2 / 5);
    let ensemble = Ensemble::from_cache(std::sync::Arc::new(cache));
    let cfg = SchedulerConfig {
        workers: ctx.threads,
        policy: SchedPolicy::CostAffinity,
        queue_depth: 32,
        quantum_slices: None,
        host_cores: ctx.threads,
    };
    let t = Instant::now();
    let results = ensemble.serve(specs, ops, &cfg);
    ServePass {
        setup_s,
        wall_s: t.elapsed().as_secs_f64(),
        working_set_bytes,
        ensemble,
        results,
    }
}

/// Count the jobs and their failures, and hold the folded field hashes
/// against the earlier passes'.
fn serve_account(results: &[nkg_coupling::JobResult<u64>], out: &mut Outcome) {
    out.ledger.ops(results.len() as u64);
    let mut hash = Fnv::new();
    for (report, field_hash) in results {
        if let Some(f) = &report.failure {
            out.ledger
                .fail(1, format!("job {} failed: {f:?}", report.job));
        }
        hash.word(field_hash.unwrap_or(0));
    }
    same_hash(out, hash.finish());
}

/// Four sampled jobs, each against a direct build-and-step run.
fn serve_reference_check(
    specs: &[JobSpec<SweepJob>],
    results: &[nkg_coupling::JobResult<u64>],
    ledger: &mut Ledger,
) {
    let n = specs.len();
    for i in [0, n / 3, 2 * n / 3, n - 1] {
        let job = &specs[i].params;
        let mut mp = job.build();
        for _ in 0..job.steps {
            mp.step();
        }
        let want = nkg_coupling::field_hash(&mp);
        let got = results[i].1;
        ledger.require(got == Some(want), || {
            format!("job {i}: served field hash {got:016x?}, direct run {want:016x}")
        });
    }
}

fn serve_run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let specs = sweep_specs(ctx);
    let mut last = Vec::new();
    measure(
        ctx,
        &mut out,
        |_| serve_set_up(&specs).0,
        |out| {
            let pass = serve_pass(ctx, &specs, &SweepOps);
            serve_account(&pass.results, out);
            last = pass.results;
            (pass.setup_s, pass.wall_s)
        },
    );
    serve_reference_check(&specs, &last, &mut out.ledger);
    out
}

/// `SweepOps` with a span around each call, pushed into one shared,
/// preallocated vector; `rank` is the worker thread's ordinal.
struct TracedOps {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    workers: Mutex<Vec<std::thread::ThreadId>>,
}

impl TracedOps {
    fn new(spans: usize, workers: usize) -> Self {
        TracedOps {
            t0: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(spans)),
            workers: Mutex::new(Vec::with_capacity(workers)),
        }
    }

    fn record<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let me = std::thread::current().id();
        let rank = {
            let mut w = self
                .workers
                .lock()
                .expect("no worker panics holding this lock");
            match w.iter().position(|&id| id == me) {
                Some(i) => i,
                None => {
                    w.push(me);
                    w.len() - 1
                }
            }
        };
        self.spans
            .lock()
            .expect("no worker panics holding this lock")
            .push(Span {
                name,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                rank: rank as u32,
            });
        r
    }
}

impl JobOps<SweepJob> for TracedOps {
    type State = <SweepOps as JobOps<SweepJob>>::State;
    type Out = u64;

    fn build(&self, job: &SweepJob) -> Self::State {
        self.record("core.job_build", || SweepOps.build(job))
    }

    fn slices(&self, job: &SweepJob) -> usize {
        SweepOps.slices(job)
    }

    fn run_slice(&self, state: &mut Self::State, job: &SweepJob, slice: usize) {
        self.record("core.job_run", || SweepOps.run_slice(state, job, slice));
    }

    fn finish(&self, state: &mut Self::State, job: &SweepJob) -> u64 {
        self.record("core.job_finish", || SweepOps.finish(state, job))
    }
}

fn serve_trace(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let specs = sweep_specs(ctx);
    let cpu0 = probes::cpu_seconds();
    let slices: usize = specs.iter().map(|s| s.params.steps + 2).sum();
    // Rounds of {traced, plain}; the layer budget is read off the traced
    // pass whose wall is the median.
    let all = rounds(ctx, || {
        let ops = TracedOps::new(slices, ctx.threads);
        let traced = serve_pass(ctx, &specs, &ops);
        serve_account(&traced.results, &mut out);
        let plain = serve_pass(ctx, &specs, &SweepOps);
        serve_account(&plain.results, &mut out);
        let spans = ops.spans.into_inner().expect("workers are joined");
        Some((traced, spans, plain))
    })
    .expect("a serve round always returns");
    let cpu_s = probes::cpu_seconds() - cpu0;
    let (traced, spans, plain) = median_by(&all, |r| r.0.wall_s);
    serve_reference_check(&specs, &plain.results, &mut out.ledger);
    out.notes.push(format!(
        "{} rounds of a traced and a plain pass; the budget is the median traced pass's",
        all.len()
    ));

    let named = trace::by_name(spans);
    let get = |k: &str| named.get(k);
    let reports: Vec<_> = traced.results.iter().map(|(r, _)| r).collect();
    let col = |f: fn(&nkg_coupling::JobReport) -> f64| -> Vec<f64> {
        reports.iter().map(|r| f(r)).collect()
    };
    let busy: f64 = reports
        .iter()
        .map(|r| r.setup_seconds + r.run_seconds)
        .sum();
    // Time jobs spent dispatched (first dispatch to completion) that no
    // build, slice or finish span covers: the scheduler's own share.
    let in_service: f64 = reports
        .iter()
        .map(|r| r.latency_seconds - r.wait_seconds)
        .sum();
    let spanned: f64 = spans.iter().map(|s| s.dur_ns() as f64 * 1e-9).sum();
    let totals = traced.ensemble.cache().totals();
    let l = &mut out.layers;
    l.insert("core.jobs", reports.len() as f64);
    l.insert("core.job_slices", count(get("core.job_run")));
    l.insert("core.job_build_s", sum(get("core.job_build")));
    l.insert("core.job_run_s", sum(get("core.job_run")));
    l.insert("core.job_finish_s", sum(get("core.job_finish")));
    l.insert(
        "core.job_wait_p50_s",
        trace::median(&col(|r| r.wait_seconds)),
    );
    l.insert(
        "core.job_latency_p50_s",
        trace::median(&col(|r| r.latency_seconds)),
    );
    l.insert(
        "core.sched_busy_frac",
        busy / (ctx.threads as f64 * traced.wall_s),
    );
    l.insert(
        "core.preemptions",
        reports.iter().map(|r| f64::from(r.preemptions)).sum(),
    );
    l.insert(
        "core.job_failures",
        reports.iter().filter(|r| r.failure.is_some()).count() as f64,
    );
    let unattributed = 1.0 - spanned / in_service;
    l.insert("core.unattributed_frac", unattributed);
    l.insert("artifact.hit_rate", totals.hit_rate());
    l.insert("artifact.evictions", totals.evictions as f64);
    l.insert("artifact.build_s", totals.build_ns as f64 * 1e-9);
    l.insert(
        "artifact.resident_mib",
        traced.ensemble.cache().resident_bytes() as f64 / (1 << 20) as f64,
    );
    l.insert("proc.cpu_s", cpu_s);
    let span_cost = {
        let ops = TracedOps::new(0, ctx.threads);
        trace::span_cost_seconds(|| ops.record("calibration", || ()))
    };
    // Spans are recorded by `threads` workers side by side.
    let overhead = spans.len() as f64 * span_cost / (ctx.threads as f64 * traced.wall_s);
    l.insert("trace.overhead_frac", overhead);
    out.ledger
        .require(unattributed < check::UNATTRIBUTED_CEILING, || {
            format!(
                "{:.2}% of the jobs' time in service is outside every span",
                unattributed * 100.0
            )
        });
    require_cheap_spans(&mut out, overhead);
    out.notes.push(format!(
        "working set {:.2} MiB over {GROUPS} groups, cache capped at 40% of it",
        traced.working_set_bytes as f64 / (1 << 20) as f64
    ));
    // Solver rates on the largest discretization's first patch.
    let biggest = specs[GROUPS - 1].params.build();
    let sem = probes::sem(&biggest.patches[0]);
    insert_sem_probe(&mut out, &sem);
    write_trace(ctx, &mut out, "serve_sweep", spans);
    out
}
