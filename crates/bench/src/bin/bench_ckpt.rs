//! What a checkpoint costs, split the way `NektarG::run_to` splits it:
//! encode (on the solver thread), seal (the CRC32 pass) and commit
//! (rotate + temp write + fsync + rename, both on the committer thread),
//! for two states —
//!
//! * `coupled_io`: the `bench_e2e` workload of that name (2 p=4 patches,
//!   a 3 456-particle DPD box with 8 192 interface bins, WPOD), where
//!   `boundary_stall_ms` is what `run_to` itself waits at a checkpoint
//!   boundary: the time a checkpointing window spends outside both solver
//!   tasks and the exchange, minus the same for a window that takes no
//!   checkpoint (medians, Overlapped policy, checkpoint every second
//!   exchange);
//! * `dpd_1e5`: a DPD box of N ≈ 1e5 particles (ρ = 3) with its open
//!   boundary, the production-shaped snapshot size.
//!
//! The first row is the CRC32 throughput the seal and every validation
//! run at, next to a bytewise table CRC kept here as the yardstick.
//!
//! Overwrites `BENCH_ckpt.json` (one row per leg) and prints the same
//! numbers. `--smoke` runs every leg at toy size.

use nkg_bench::{bench_path, header, median, time_median, write_jsonl, Row};
use nkg_ckpt::crc32::crc32;
use nkg_ckpt::{prev_path, SnapshotFile, SnapshotWriter};
use nkg_coupling::metasolver::{CheckpointPolicy, ExecutionPolicy};
use nkg_coupling::{NektarG, Scenario, TimeProgression};
use nkg_dpd::inflow::OpenBoundaryX;
use nkg_dpd::sim::{BinSampler, DpdConfig, DpdSim, WallGeometry};
use nkg_dpd::Box3;
use std::path::Path;

/// Slab channel sized for ρ = 3 at the requested count, with an open x
/// boundary so the snapshot carries the full coupling surface state.
fn dpd_box(n_target: usize) -> DpdSim {
    let l = (n_target as f64 / 3.0).cbrt();
    let bx = Box3::new([0.0; 3], [l; 3], [false, false, true]);
    let cfg = DpdConfig {
        seed: 77,
        ..Default::default()
    };
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    sim.fill_solvent();
    let mut ob = OpenBoundaryX::new(8, 8, 3.0, 1.0, [0.0; 3], 0);
    ob.target_count = Some(sim.particles.len());
    sim.set_open_x(ob);
    sim
}

/// The `coupled_io` scenario of `bench_e2e` (its smoke shape with
/// `smoke`), Overlapped.
fn coupled_io(smoke: bool) -> NektarG {
    let (nx, ny, dpd_box, bins) = if smoke {
        (12, 2, [8.0, 8.0, 4.0], (64, 2))
    } else {
        (24, 4, [12.0, 12.0, 8.0], (2048, 4))
    };
    Scenario {
        nx,
        ny,
        order: 4,
        dpd_box,
        bins,
        progression: TimeProgression::new(1, 1),
        wpod: Some((
            BinSampler::new(1, 6, 0, 2),
            nkg_wpod::window::WindowPod::new(8, 8, 2.0),
        )),
        policy: ExecutionPolicy::Overlapped,
        ..Scenario::small()
    }
    .build()
}

/// The yardstick: one table, one byte per step.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table: [u32; 256] = std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| {
            if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            }
        })
    });
    !bytes.iter().fold(!0u32, |c, &b| {
        table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// Encode / seal / commit / restore of one state, in milliseconds.
struct Split {
    bytes: u64,
    encode_ms: f64,
    seal_ms: f64,
    commit_ms: f64,
    restore_ms: f64,
}

/// `encode` replaces the writer's content; `restore` reads the file at
/// `path`, validates it and restores it into a constructed instance.
fn split(
    reps: usize,
    path: &Path,
    encode: impl Fn(&mut SnapshotWriter),
    mut restore: impl FnMut(),
) -> Split {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(prev_path(path));
    // One reused image, as in `run_to`; the first pass sizes it.
    let mut w = SnapshotWriter::new();
    encode(&mut w);
    let (mut encode_s, mut seal_s, mut commit_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..reps {
        encode_s.push(time_median(1, || encode(&mut w)));
        seal_s.push(time_median(1, || {
            std::hint::black_box(w.seal());
        }));
        commit_s.push(time_median(1, || {
            bytes = w.write_rotating(path).expect("checkpoint commit");
        }));
    }
    let restore_s = time_median(reps, &mut restore);
    Split {
        bytes,
        encode_ms: median(encode_s) * 1e3,
        seal_ms: median(seal_s) * 1e3,
        commit_ms: median(commit_s) * 1e3,
        restore_ms: restore_s * 1e3,
    }
}

impl Split {
    fn print(&self, state: &str) {
        let mib = self.bytes as f64 / (1024.0 * 1024.0);
        println!("{state}: snapshot {} bytes ({mib:.2} MiB)", self.bytes);
        for (phase, ms) in [
            ("encode into the image (solver thread)", self.encode_ms),
            ("seal: CRC32 of every section", self.seal_ms),
            ("commit: rotate + write + fsync + rename", self.commit_ms),
            ("read + validate + restore", self.restore_ms),
        ] {
            println!("  {phase:<42} {ms:>9.3} ms  {:>8.1} MiB/s", mib / ms * 1e3);
        }
    }

    fn row(&self, state: &str, reps: usize) -> Row {
        let ms = |x: f64| format!("{x:.4}");
        Row::new("ckpt_pipeline")
            .text("state", state)
            .num("reps", reps)
            .num("snapshot_bytes", self.bytes)
            .num("encode_ms", ms(self.encode_ms))
            .num("seal_ms", ms(self.seal_ms))
            .num("commit_ms", ms(self.commit_ms))
            .num("restore_ms", ms(self.restore_ms))
    }
}

/// What `run_to` waits at a checkpoint boundary, from its own window
/// timings: the part of a window outside both solver tasks and the
/// exchange, checkpointing windows minus the others.
fn boundary_stall_ms(smoke: bool, path: &Path, steps: usize) -> f64 {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(prev_path(path));
    let mut ng = coupled_io(smoke);
    let every = 2;
    let report = ng
        .run_to(steps, Some(&CheckpointPolicy::new(path, every)), None)
        .expect("checkpointed run");
    let (mut with, mut without) = (Vec::new(), Vec::new());
    // Window i opens with exchange i + 1; a checkpoint precedes it when i
    // completed exchanges is a positive multiple of `every`.
    for (i, w) in report.window_timings.iter().enumerate() {
        // Overlapped: the two tasks run side by side.
        let outside = w.window_s - w.exchange_s - w.continuum_s.max(w.atomistic_s);
        if i > 0 && i % every as usize == 0 {
            with.push(outside);
        } else {
            without.push(outside);
        }
    }
    (median(with) - median(without)) * 1e3
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, n_target, crc_len, steps) = if smoke {
        (3, 2_000, 1 << 16, 12)
    } else {
        (15, 100_000, 1 << 20, 80)
    };
    let dir = std::env::temp_dir().join(format!("nkg_bench_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let mut rows = Vec::new();

    header("CRC32 throughput (IEEE polynomial)");
    let buf: Vec<u8> = (0..crc_len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    assert_eq!(
        crc32(&buf),
        crc32_bytewise(&buf),
        "CRC implementations disagree"
    );
    let mbs = |s: f64| crc_len as f64 / s / 1e6;
    let sliced = mbs(time_median(reps, || {
        std::hint::black_box(crc32(std::hint::black_box(&buf)));
    }));
    let bytewise = mbs(time_median(reps, || {
        std::hint::black_box(crc32_bytewise(std::hint::black_box(&buf)));
    }));
    println!("slicing-by-8 (nkg_ckpt::crc32)   {sliced:>9.1} MB/s");
    println!("bytewise table (yardstick)       {bytewise:>9.1} MB/s");
    println!(
        "ratio                            {:>9.2}x",
        sliced / bytewise
    );
    rows.push(
        Row::new("ckpt_crc32")
            .num("buffer_bytes", crc_len)
            .num("reps", reps)
            .num("crc_mb_per_s", format_args!("{sliced:.1}"))
            .num("bytewise_mb_per_s", format_args!("{bytewise:.1}"))
            .num("speedup", format_args!("{:.2}", sliced / bytewise)),
    );

    header("Checkpoint pipeline: encode / seal / commit / restore");
    let mut ng = coupled_io(smoke);
    ng.run(4); // a mid-run state: forces, flux debt, projection bases
    let path = dir.join("coupled_io.nkgc");
    let mut fresh = coupled_io(smoke);
    let s = split(
        reps,
        &path,
        |w| ng.encode_image(w),
        || fresh.restore_from(&path).expect("checkpoint restore"),
    );
    s.print("coupled_io");
    let stall = boundary_stall_ms(smoke, &dir.join("stall.nkgc"), steps);
    println!(
        "  {:<42} {stall:>9.3} ms",
        "boundary stall inside run_to (Overlapped)"
    );
    rows.push(
        s.row("coupled_io", reps)
            .num("run_steps", steps)
            .num("boundary_stall_ms", format_args!("{stall:.4}")),
    );

    let mut sim = dpd_box(n_target);
    // A few steps so the snapshot captures a mid-run state, not a freshly
    // filled box.
    for _ in 0..3 {
        sim.step();
    }
    let path = dir.join("dpd_box.nkgc");
    let mut fresh = dpd_box(n_target);
    let s = split(
        reps.min(5),
        &path,
        |w| {
            w.clear();
            w.add_snapshot(&sim);
        },
        || {
            SnapshotFile::read_from(&path)
                .and_then(|f| f.restore_into(&mut fresh))
                .expect("checkpoint restore")
        },
    );
    s.print("dpd_1e5");
    // Restore fidelity: bitwise positions after one more step each.
    sim.step();
    fresh.step();
    let bitwise = sim
        .particles
        .pos_aos()
        .iter()
        .zip(&fresh.particles.pos_aos())
        .all(|(a, b)| (0..3).all(|k| a[k].to_bits() == b[k].to_bits()));
    assert!(bitwise, "restored sim diverged from the original");
    println!("  bitwise continuation after restore: verified");
    rows.push(
        s.row("dpd_1e5", reps.min(5))
            .num("n_particles", sim.particles.len())
            .flag("bitwise_continuation", bitwise),
    );

    let _ = std::fs::remove_dir_all(&dir);
    write_jsonl(&bench_path("ckpt", smoke), &rows);
}
