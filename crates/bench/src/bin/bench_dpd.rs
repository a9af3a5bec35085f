//! DPD hot-path throughput at N ≈ 1e5, ρ = 3: the serial and parallel
//! half sweeps, whole-`step()` rates per force backend, the parallel
//! sweep over pool sizes with the cores it really got (cpu/wall), and
//! `step_over_forces` — median `step()` ÷ median `compute_forces()` on an
//! open-boundary box, 21 samples of each taken alternately. That ratio is
//! host-independent: ≈ 1.1 when a step evaluates forces once, ≈ 2.1 if a
//! second evaluation ever comes back, and the run fails above 1.35. One
//! `dpd_setup` row times the cold set-up of the `coupled_dpd` box (30 × 20
//! × 16, slab walls, 28 800 particles) piece by piece: the effective
//! wall-force table (on the default pool and on one thread), the cell
//! grid's neighbour tables, the solvent fill, and the whole `DpdSim::new`
//! plus fill. One `dpd_coupled_box` row steps that box as the workload
//! builds it (platelets, open x) and reports its sweep's pairs, spill
//! entries and cell-ordered copy bytes, and `compute_forces` and `step`
//! on the default pool and on one thread.
//!
//! Overwrites `BENCH_dpd.json` in the current directory (one row per leg,
//! one per pool size) and prints the same tables. `--smoke` runs the same
//! code at N ≈ 5 000 (the set-up row keeps its box, with fewer reps).

use nkg_bench::{bench_path, cpu_seconds, header, median, time_median, write_jsonl, Row};
use nkg_dpd::cells::CellGrid;
use nkg_dpd::force::{
    accumulate_pair_forces, accumulate_pair_forces_par, SpeciesMatrix, SweepScratch,
};
use nkg_dpd::inflow::OpenBoundaryX;
use nkg_dpd::platelet::WallSites;
use nkg_dpd::sim::{DpdConfig, DpdSim, ForceBackend, WallGeometry};
use nkg_dpd::walls::EffectiveWallForce;
use nkg_dpd::Box3;
use std::time::Instant;

/// Largest `step_over_forces` a one-evaluation step can plausibly show.
const MAX_STEP_OVER_FORCES: f64 = 1.35;

/// Samples of each kind behind `step_over_forces`, taken alternately so a
/// drifting host moves both medians alike.
const GATE_SAMPLES: usize = 21;

/// Cubic box of about `n_target` solvent particles; `open` makes x an
/// inflow/outflow axis with density feedback.
fn scene(n_target: usize, open: bool) -> DpdSim {
    let l = (n_target as f64 / 3.0).cbrt();
    let bx = Box3::new([0.0; 3], [l; 3], [!open, true, true]);
    let cfg = DpdConfig {
        seed: 77,
        ..Default::default()
    };
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::None);
    sim.fill_solvent();
    if open {
        let mut ob = OpenBoundaryX::new(4, 4, 3.0, 1.0, [0.5, 0.0, 0.0], 0);
        ob.target_count = Some(sim.particles.len());
        sim.set_open_x(ob);
    }
    sim
}

/// The cold set-up of the `coupled_dpd` box, piece by piece: medians
/// over `reps` constructions, each piece timed alone.
fn setup_row(reps: usize) -> Row {
    let cfg = DpdConfig::default();
    let bx = Box3::new([0.0; 3], [30.0, 20.0, 16.0], [false, false, true]);
    let table = || EffectiveWallForce::new(cfg.a, cfg.density, cfg.rc);
    let t_table = time_median(reps, || {
        std::hint::black_box(table());
    });
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool build");
    let t_table_1t = one.install(|| {
        time_median(reps, || {
            std::hint::black_box(table());
        })
    });
    let t_grid = time_median(reps, || {
        std::hint::black_box(CellGrid::new(bx, cfg.rc));
    });
    let mut fill_samples = Vec::with_capacity(reps);
    let mut n = 0;
    for _ in 0..reps {
        let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
        fill_samples.push(time_median(1, || sim.fill_solvent()));
        n = sim.particles.len();
    }
    let t_fill = median(fill_samples);
    let t_setup = time_median(reps, || {
        let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
        sim.fill_solvent();
        std::hint::black_box(sim);
    });
    let grid = CellGrid::new(bx, cfg.rc);
    let cells = grid.num_cells();
    let entries: usize = (0..cells).map(|c| grid.fwd_neighbors(c).len()).sum();
    println!(
        "\ncold set-up, coupled_dpd box (N = {n}, {cells} cells, {entries} neighbour entries), \
         ms: wall table {:.3} ({:.3} on 1 thread), cell grid {:.3}, fill {:.3}, \
         DpdSim::new + fill {:.3}",
        t_table * 1e3,
        t_table_1t * 1e3,
        t_grid * 1e3,
        t_fill * 1e3,
        t_setup * 1e3
    );
    let ms = |t: f64| format!("{:.4}", t * 1e3);
    Row::new("dpd_setup")
        .num("n_particles", n)
        .num("cells", cells)
        .num("neighbor_entries", entries)
        .num("reps", reps)
        .num("wall_table_ms", ms(t_table))
        .num("wall_table_1_thread_ms", ms(t_table_1t))
        .num("cell_grid_ms", ms(t_grid))
        .num("fill_ms", ms(t_fill))
        .num("sim_new_and_fill_ms", ms(t_setup))
}

/// The `coupled_dpd` box as that workload builds it (30 × 20 × 16, slab
/// walls, 6% platelets over 40 wall sites, open x with 20 × 16 bins):
/// its sweep's counts, and `compute_forces` and `step` on the default pool
/// and on one thread, the four kinds of sample taken in turn.
fn coupled_box_row(reps: usize) -> Row {
    let cfg = DpdConfig {
        seed: 31,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [30.0, 20.0, 16.0], [false, false, true]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    sim.fill_solvent();
    sim.seed_platelets(0.06);
    sim.sites = WallSites::on_plane(40, 1, 0.0, [9.0, 0.0, 0.0], [24.0, 0.0, 16.0], 5);
    let mut ob = OpenBoundaryX::new(20, 16, cfg.density, cfg.kbt, [0.0; 3], 0);
    ob.target_count = Some(sim.particles.len());
    sim.set_open_x(ob);
    for _ in 0..3 {
        sim.step(); // bootstrap evaluation and buffer growth stay untimed
    }
    let mut grid = CellGrid::new(bx, cfg.rc);
    let p = &mut sim.particles.clone();
    grid.rebuild_soa(&p.x, &p.y, &p.z);
    let mut scratch = SweepScratch::default();
    p.clear_forces();
    let pairs = accumulate_pair_forces_par(
        p,
        &grid,
        &bx,
        &sim.matrix,
        cfg.rc,
        cfg.kbt,
        cfg.dt,
        cfg.seed,
        sim.step_count,
        &mut scratch,
    );
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool build");
    let mut samples = [(); 4].map(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        samples[0].push(time_median(1, || sim.compute_forces()));
        samples[1].push(time_median(1, || sim.step()));
        one.install(|| {
            samples[2].push(time_median(1, || sim.compute_forces()));
            samples[3].push(time_median(1, || sim.step()));
        });
    }
    let [forces, step, forces_1t, step_1t] = samples.map(median);
    let n = p.len();
    println!(
        "\ncoupled_dpd box (N = {n}, {pairs} pairs, {} spill entries, {} B cell-ordered copy), \
         ms: compute_forces {:.3} ({:.3} on 1 thread), step {:.3} ({:.3} on 1 thread)",
        scratch.spill_entries(),
        scratch.copy_bytes(),
        forces * 1e3,
        forces_1t * 1e3,
        step * 1e3,
        step_1t * 1e3
    );
    let ms = |t: f64| format!("{:.4}", t * 1e3);
    Row::new("dpd_coupled_box")
        .num("n_particles", n)
        .num("pairs", pairs)
        .num("spill_entries", scratch.spill_entries())
        .num("csr_copy_bytes", scratch.copy_bytes())
        .num("reps", reps)
        .num("compute_forces_ms", ms(forces))
        .num("compute_forces_1_thread_ms", ms(forces_1t))
        .num("step_ms", ms(step))
        .num("step_1_thread_ms", ms(step_1t))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_target = if smoke { 5_000 } else { 100_000 };
    let mut sim = scene(n_target, false);
    let bx = sim.bx;
    let n = sim.particles.len();
    let threads = rayon::current_num_threads();
    let reps = 5;

    header(&format!(
        "DPD hot path, N = {n} (ρ = 3), rayon threads = {threads}"
    ));

    // --- Force-sweep microbenchmarks -----------------------------------
    let m = SpeciesMatrix::uniform(1, 25.0, 4.5);
    let mut csr = CellGrid::new(bx, 1.0);
    csr.rebuild_soa(&sim.particles.x, &sim.particles.y, &sim.particles.z);
    let mut scratch = SweepScratch::default();
    let t_serial = time_median(reps, || {
        sim.particles.clear_forces();
        accumulate_pair_forces(
            &mut sim.particles,
            &csr,
            &bx,
            &m,
            1.0,
            1.0,
            0.01,
            1,
            1,
            &mut scratch,
        );
    });
    let mut par_sweep = |sim: &mut DpdSim| {
        sim.particles.clear_forces();
        accumulate_pair_forces_par(
            &mut sim.particles,
            &csr,
            &bx,
            &m,
            1.0,
            1.0,
            0.01,
            1,
            1,
            &mut scratch,
        );
    };
    let t_par = time_median(reps, || par_sweep(&mut sim));
    println!("force sweep                         s/sweep    Mparticles/s   vs serial");
    for (name, t) in [("serial half sweep", t_serial), ("rayon half sweep", t_par)] {
        println!(
            "{name:<34}  {t:>9.4}  {:>13.3}  {:>9.2}x",
            n as f64 / t / 1e6,
            t_serial / t
        );
    }

    // --- Whole-step throughput per backend -----------------------------
    sim.force_backend = ForceBackend::Serial;
    sim.step(); // the first step also bootstraps the forces
    let t_step_serial = time_median(reps, || sim.step());
    sim.force_backend = ForceBackend::Parallel;
    let t_step_par = time_median(reps, || sim.step());
    println!("\nfull step                           s/step     Mparticles/s   vs serial");
    for (name, t) in [
        ("serial backend", t_step_serial),
        ("parallel backend", t_step_par),
    ] {
        println!(
            "{name:<34}  {t:>9.4}  {:>13.3}  {:>9.2}x",
            n as f64 / t / 1e6,
            t_step_serial / t
        );
    }

    // --- One evaluation per step, open boundary included ----------------
    // Serial sweep, and the two timings interleaved, so neither the pool
    // nor a drifting host enters the ratio.
    let mut open = scene(n_target, true);
    open.force_backend = ForceBackend::Serial;
    for _ in 0..3 {
        open.step(); // bootstrap evaluation and buffer growth stay untimed
    }
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..GATE_SAMPLES {
        samples[0].push(time_median(1, || open.step()));
        samples[1].push(time_median(1, || open.compute_forces()));
    }
    let [t_open_step, t_open_forces] = samples.map(median);
    let step_over_forces = t_open_step / t_open_forces;
    println!(
        "\nopen box, N = {}: step {t_open_step:.4} s, compute_forces {t_open_forces:.4} s, \
         step_over_forces {step_over_forces:.2} (gate: <= {MAX_STEP_OVER_FORCES})",
        open.particles.len()
    );

    let setup = setup_row(if smoke { 5 } else { 21 });
    let coupled = coupled_box_row(if smoke { 3 } else { 21 });

    // --- Thread-pool sweep ---------------------------------------------
    // Each row records the size the pool *actually* provided (a container
    // quota can hand back fewer threads than requested) and cpu/wall of
    // the timed sweeps: below the pool size, the host did not schedule
    // that many cores.
    let max_t = std::thread::available_parallelism().map_or(threads, |p| p.get());
    let mut sizes = vec![1usize, 2, 4, max_t];
    sizes.sort_unstable();
    sizes.dedup();
    println!(
        "\nthread-pool sweep                   s/sweep    s/step   cpu/wall   vs 1-thread sweep"
    );
    let secs = |t: f64| format!("{t:.6}");
    let mut rows = vec![
        Row::new("dpd_force_sweep")
            .num("n_particles", n)
            .num("reps", reps)
            .num("serial_half_seconds", secs(t_serial))
            .num("parallel_half_seconds", secs(t_par)),
        Row::new("dpd_full_step")
            .num("n_particles", n)
            .num("reps", reps)
            .num("serial_backend_seconds", secs(t_step_serial))
            .num("parallel_backend_seconds", secs(t_step_par)),
        Row::new("dpd_open_box")
            .num("n_particles", open.particles.len())
            .num("reps", GATE_SAMPLES)
            .num("step_seconds", secs(t_open_step))
            .num("compute_forces_seconds", secs(t_open_forces))
            .num("step_over_forces", format_args!("{step_over_forces:.3}")),
        setup,
        coupled,
    ];
    let mut sweep_1t = 0.0;
    for &k in &sizes {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(k)
            .build()
            .expect("pool build");
        let actual = pool.current_num_threads();
        let (t_sweep, cpu_over_wall, t_step) = pool.install(|| {
            par_sweep(&mut sim); // wake the workers before the clock starts
            let (cpu0, wall0) = (cpu_seconds(), Instant::now());
            let t_sweep = time_median(reps, || par_sweep(&mut sim));
            let cpu_over_wall = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
            let t_step = time_median(reps, || sim.step());
            (t_sweep, cpu_over_wall, t_step)
        });
        if k == 1 {
            sweep_1t = t_sweep;
        }
        println!(
            "{:<34}  {t_sweep:>9.4}  {t_step:>8.4}  {cpu_over_wall:>8.2}  {:>17.2}x",
            format!("pool = {k} (actual {actual})"),
            sweep_1t / t_sweep
        );
        rows.push(
            Row::new("dpd_thread_sweep")
                .num("n_particles", n)
                .num("pool_threads_requested", k)
                .num("pool_threads_actual", actual)
                .num("parallel_half_sweep_seconds", secs(t_sweep))
                .num("parallel_step_seconds", secs(t_step))
                .num("cpu_over_wall", format_args!("{cpu_over_wall:.2}"))
                .num(
                    "sweep_speedup_vs_1_thread",
                    format_args!("{:.3}", sweep_1t / t_sweep),
                ),
        );
    }

    write_jsonl(&bench_path("dpd", smoke), &rows);
    if step_over_forces > MAX_STEP_OVER_FORCES {
        eprintln!(
            "FAIL: step_over_forces {step_over_forces:.2} > {MAX_STEP_OVER_FORCES}: \
             a step costs more than one force evaluation plus the integrator"
        );
        std::process::exit(1);
    }
}
