//! Metasolver execution-policy benchmark: the seed's serial interleaved
//! loop with per-exchange donor-element scans versus the overlapped
//! policy with precomputed interface interpolation tables, on a 2-patch
//! continuum + DPD + WPOD workload.
//!
//! Three sections:
//!  1. coupled run wall time, legacy serial vs overlapped+tables (the
//!     reports must agree bitwise — the policies are interchangeable);
//!  2. rayon pool-size sweep of the overlapped policy with the overlap
//!     efficiency read from the per-window timing telemetry;
//!  3. per-exchange interface evaluation microbenchmark: donor-element
//!     scan vs table row dot product over the patch-interface DoFs (the
//!     atomistic exchange has no scan path to compare against).
//!
//! Emits `BENCH_meta.json` (JSON Lines) in the current directory and
//! prints the same numbers to stdout.

use nkg_bench::{append_jsonl, header, pct, time_median};
use nkg_coupling::atomistic::{AtomisticDomain, Embedding};
use nkg_coupling::metasolver::ExecutionPolicy;
use nkg_coupling::multipatch::{poiseuille_multipatch, Multipatch2d};
use nkg_coupling::{NektarG, TimeProgression, UnitScaling};
use nkg_dpd::inflow::OpenBoundaryX;
use nkg_dpd::sim::{BinSampler, DpdConfig, DpdSim, ForceBackend, WallGeometry};
use nkg_dpd::Box3;
use nkg_sem::InterpTable;

const NU: f64 = 0.5;
const FORCE: f64 = 0.4;
const NS_STEPS: usize = 30;

fn continuum() -> Multipatch2d {
    poiseuille_multipatch(6.0, 1.0, 24, 4, 2, 4, NU, FORCE, 5e-3)
}

/// The coupled workload: 2 overlapping continuum patches, a DPD box whose
/// inflow face is finely binned (8192 interface midpoints — the paper's
/// triangulated interface surfaces), WPOD co-processing, exchanges every
/// continuum step.
fn make_metasolver(policy: ExecutionPolicy, tables: bool) -> NektarG {
    let mut mp = continuum();
    mp.use_interp_tables = tables;
    let cfg = DpdConfig {
        seed: 31,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [6.0, 6.0, 3.0], [false, false, true]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    // Pin the sweep so pool width never changes the physics (Auto picks
    // per-thread-count backends that differ in summation order).
    sim.force_backend = ForceBackend::Parallel;
    sim.fill_solvent();
    let mut ob = OpenBoundaryX::new(2048, 4, 3.0, 1.0, [0.0; 3], 0);
    ob.target_count = Some(sim.particles.len());
    sim.set_open_x(ob);
    let embedding = Embedding {
        origin_ns: [2.5, 0.35],
        scaling: UnitScaling {
            unit_ns: 1.0,
            unit_dpd: 0.05,
            nu_ns: NU,
            nu_dpd: 0.85,
        },
    };
    let atom = AtomisticDomain::new(sim, embedding);
    NektarG::new(mp, atom, TimeProgression::new(1, 1))
        .with_wpod(
            BinSampler::new(1, 6, 0, 2),
            nkg_wpod::window::WindowPod::new(8, 8, 2.0),
        )
        .with_policy(policy)
}

fn main() {
    let out = "BENCH_meta.json";
    let pool_threads = rayon::current_num_threads();
    let reps = 3;

    // --- 1. Coupled run: legacy serial vs overlapped + tables ----------
    header(&format!(
        "Coupled metasolver, 2 patches + DPD (8192 interface bins) + WPOD, \
         {NS_STEPS} NS steps, exchange every step, rayon threads = {pool_threads}"
    ));

    let mut serial_ng = make_metasolver(ExecutionPolicy::Serial, false);
    let serial_report = serial_ng.run(NS_STEPS);
    let mut overlap_ng = make_metasolver(ExecutionPolicy::Overlapped, true);
    let overlap_report = overlap_ng.run(NS_STEPS);
    assert_eq!(
        serial_report, overlap_report,
        "policies must agree bitwise before their times mean anything"
    );
    for (a, b) in serial_ng
        .continuum
        .patches
        .iter()
        .flat_map(|s| &s.u)
        .zip(overlap_ng.continuum.patches.iter().flat_map(|s| &s.u))
    {
        assert_eq!(a.to_bits(), b.to_bits(), "continuum fields diverged");
    }
    println!("reports bitwise identical across policies: yes");

    let t_serial = time_median(reps, || {
        let mut ng = make_metasolver(ExecutionPolicy::Serial, false);
        ng.run(NS_STEPS);
    });
    let t_overlap = time_median(reps, || {
        let mut ng = make_metasolver(ExecutionPolicy::Overlapped, true);
        ng.run(NS_STEPS);
    });
    let speedup = t_serial / t_overlap;
    let eff = overlap_report.overlap_efficiency().unwrap();
    let totals = overlap_report.timing_totals();
    println!("legacy serial (scan, interleaved)   {t_serial:>9.4} s");
    println!("overlapped + interpolation tables   {t_overlap:>9.4} s");
    println!("speedup                             {speedup:>9.2}x");
    println!(
        "overlap efficiency {} (continuum {:.3} s ∥ atomistic {:.3} s, exchanges {:.3} s)",
        pct(eff / 2.0),
        totals.continuum_s,
        totals.atomistic_s,
        totals.exchange_s
    );
    append_jsonl(
        out,
        &format!(
            "{{\"bench\":\"meta_policy\",\"ns_steps\":{NS_STEPS},\"interface_bins\":8192,\
             \"rayon_threads\":{pool_threads},\"reps\":{reps},\
             \"serial_scan_seconds\":{t_serial:.6},\"overlapped_tables_seconds\":{t_overlap:.6},\
             \"speedup\":{speedup:.3},\"bitwise_identical\":true,\
             \"overlap_efficiency\":{eff:.3}}}"
        ),
    );

    // --- 2. Pool-size sweep of the overlapped policy -------------------
    header("Overlapped policy vs rayon pool width (bitwise-invariant)");
    println!(
        "{:>8} {:>12} {:>10} {:>12}",
        "threads", "wall s", "vs 1t", "overlap eff"
    );
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (t, report) = pool.install(|| {
            let mut report = None;
            let t = time_median(reps, || {
                let mut ng = make_metasolver(ExecutionPolicy::Overlapped, true);
                report = Some(ng.run(NS_STEPS));
            });
            (t, report.unwrap())
        });
        assert_eq!(report, serial_report, "pool width changed the physics");
        let eff = report.overlap_efficiency().unwrap();
        let base_t = *base.get_or_insert(t);
        println!(
            "{threads:>8} {t:>12.4} {:>9.2}x {:>12}",
            base_t / t,
            pct(eff / 2.0)
        );
        append_jsonl(
            out,
            &format!(
                "{{\"bench\":\"meta_pool_sweep\",\"pool_threads\":{threads},\"reps\":{reps},\
                 \"overlapped_seconds\":{t:.6},\"speedup_vs_1_thread\":{:.3},\
                 \"overlap_efficiency\":{eff:.3},\"bitwise_identical\":true}}",
                base_t / t
            ),
        );
    }

    // --- 3. Per-exchange interface evaluation cost ----------------------
    header("Per-exchange interface evaluation: donor scan vs table");
    let mp = continuum();
    let queries = mp.interface_queries();
    // Patch-interface DoFs against their donor patches (use patch 0's
    // donor = patch 1 and vice versa through eval_velocity's scan).
    let t_scan = time_median(reps, || {
        let mut acc = 0.0;
        for &(_, [x, y]) in &queries {
            let (u, _) = mp.eval_velocity(x, y).unwrap();
            acc += u;
        }
        std::hint::black_box(acc);
    });
    // The table the assembled multipatch holds.
    let space = &mp.patches[0].space;
    let all: Vec<[f64; 2]> = queries.iter().map(|&(_, p)| p).collect();
    let table = InterpTable::build(space, &all);
    let t_table = time_median(reps, || {
        let mut acc = 0.0;
        for q in 0..all.len() {
            if let Some(u) = table.eval(space, &mp.patches[0].u, q) {
                acc += u;
            }
        }
        std::hint::black_box(acc);
    });
    let q_total = all.len();
    let interp_speedup = t_scan / t_table;
    println!("interface queries per exchange      {q_total:>9}");
    println!("donor-element scan                  {t_scan:>9.6} s");
    println!("precomputed table                   {t_table:>9.6} s");
    println!("speedup                             {interp_speedup:>9.1}x");
    append_jsonl(
        out,
        &format!(
            "{{\"bench\":\"meta_interface_eval\",\"queries\":{q_total},\"reps\":{reps},\
             \"scan_seconds\":{t_scan:.6},\"table_seconds\":{t_table:.6},\
             \"speedup\":{interp_speedup:.1}}}"
        ),
    );

    println!("\nwrote {out}");
}
