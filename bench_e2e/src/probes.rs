//! Host facts and kernel probes. The probes run after a traced run, on
//! the state that run left behind, and give the numbers the roofline
//! table is made of. Flops and bytes are computed from sizes, never
//! counted by hardware, and are labelled so wherever they are printed.

use nkg_dpd::sim::DpdSim;
use nkg_sem::ns2d::NsSolver2d;
use nkg_sem::precon::{EllipticSolver, PreconKind};
use nkg_sem::space2d::Space2d;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` (peak resident set) in MiB out of `/proc/self/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = it.next()?.parse().ok()?;
    match it.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// User + system CPU seconds of this process (`/proc/self/stat` fields
/// 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Size in bytes of the largest cache `cpu0` reports, 0 if unknown.
pub fn llc_bytes() -> u64 {
    let mut best = 0;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(s) = std::fs::read_to_string(path) else {
            continue;
        };
        let s = s.trim();
        let bytes = if let Some(k) = s.strip_suffix('K') {
            k.parse::<u64>().map(|k| k << 10)
        } else if let Some(m) = s.strip_suffix('M') {
            m.parse::<u64>().map(|m| m << 20)
        } else {
            s.parse::<u64>()
        };
        best = best.max(bytes.unwrap_or(0));
    }
    best
}

fn mem_available_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemAvailable:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb << 10)
}

/// Best (smallest) time of `f` over at least `min_reps` calls and until
/// `budget` is spent: a probe asks what the kernel can do, so the least
/// disturbed repetition is the answer.
fn best_seconds(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps < min_reps || t0.elapsed() < budget {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        reps += 1;
    }
    best
}

/// Call `f` in batches until a batch lasts 2 ms, then return the best
/// seconds per call over a few such batches — for calls too short to
/// time one at a time.
fn best_seconds_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    best_seconds(5, Duration::from_millis(30), || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

pub struct SimdProbe {
    pub llc_mib: f64,
    pub array_mib: f64,
    pub triad_gbs: f64,
    pub dot_gbs: f64,
    pub axpy_gbs: f64,
    pub norm2_gbs: f64,
    pub dot_incache_gflops: f64,
    pub axpy_incache_gflops: f64,
}

/// Most a streaming array may take: first touch costs a page fault per
/// 4 KiB, and under a hypervisor three 1 GiB arrays fault for over ten
/// seconds.
pub const STREAM_ARRAY_CAP: u64 = 256 << 20;

/// Streaming and in-cache rates of the `nkg-simd` vector kernels, with a
/// bench-local triad as this host's sustainable bandwidth. Each streaming
/// array is four times the last-level cache, capped at `cap` (at most
/// [`STREAM_ARRAY_CAP`]) and at a sixth of available memory; both sizes
/// are returned so the caller can print them and say whether the
/// four-times rule held.
pub fn simd(incache_len: usize, cap: u64) -> SimdProbe {
    let llc = llc_bytes().max(8 << 20);
    let fits = (mem_available_bytes() / 6).max(16 << 20);
    let bytes = (4 * llc).min(cap).min(fits);
    let n = (bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let mut b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let gb = |arrays: f64| arrays * 8.0 * n as f64 / 1e9;
    let budget = Duration::from_millis(300);
    // a = b + s*c: two loads and one store per element.
    let triad = best_seconds(2, budget, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + 3.0 * *ci;
        }
        black_box(&mut a);
    });
    let dot = best_seconds(2, budget, || {
        black_box(nkg_simd::dot(&b, &c));
    });
    // y += a*x: loads x and y, stores y.
    let axpy = best_seconds(2, budget, || {
        nkg_simd::axpy(1e-9, &c, &mut b);
        black_box(&mut b);
    });
    let norm2 = best_seconds(2, budget, || {
        black_box(nkg_simd::norm2(&c));
    });
    drop((a, b, c));

    let x = vec![1.0f64; incache_len];
    let mut y = vec![0.5f64; incache_len];
    let dot_in = best_seconds_per_call(|| {
        black_box(nkg_simd::dot(black_box(&x), black_box(&y)));
    });
    let axpy_in = best_seconds_per_call(|| {
        nkg_simd::axpy(1e-9, black_box(&x), &mut y);
        black_box(&mut y);
    });
    let flops = 2.0 * incache_len as f64 / 1e9;
    SimdProbe {
        llc_mib: llc as f64 / (1 << 20) as f64,
        array_mib: bytes as f64 / (1 << 20) as f64,
        triad_gbs: gb(3.0) / triad,
        dot_gbs: gb(2.0) / dot,
        axpy_gbs: gb(3.0) / axpy,
        norm2_gbs: gb(1.0) / norm2,
        dot_incache_gflops: flops / dot_in,
        axpy_incache_gflops: flops / axpy_in,
    }
}

pub struct SemProbe {
    pub dofs: usize,
    pub apply_us: f64,
    /// Computed: `(8n³ + 10n²)` per element, `n = p + 1`.
    pub apply_flops: f64,
    /// Computed compulsory traffic: per element the gathered vector, its
    /// index map, four geometric factors and the scatter-add (`64n²`
    /// bytes), plus zeroing the output.
    pub apply_bytes: f64,
    pub solve_pressure_ms: f64,
    pub solve_viscous_ms: f64,
    pub us_per_cg_iter: f64,
    pub setup_precon_s: f64,
}

/// One cold elliptic solve of a smooth right-hand side; returns
/// (set-up seconds, solve seconds, iterations).
fn cold_solve(space: &Space2d, lambda: f64, dirichlet: &[usize], tol: f64) -> (f64, f64, usize) {
    let t = Instant::now();
    let mut engine = EllipticSolver::new(
        space,
        lambda,
        dirichlet,
        PreconKind::LowEnergyCoarse,
        tol,
        4000,
        1,
        0,
    );
    let setup = t.elapsed().as_secs_f64();
    let rhs = space.weak_rhs(|x, y| (1.3 * x).sin() * (2.1 * y).cos());
    let bc = vec![0.0; dirichlet.len()];
    let mut x = vec![0.0; space.nglobal];
    let mut iters = 0;
    let solve = best_seconds(3, Duration::from_millis(100), || {
        iters = engine.solve_into(space, &rhs, &bc, &mut x, 0).cg.iterations;
    });
    (setup, solve, iters)
}

/// Operator and solver rates on one patch's space, with that patch's own
/// Dirichlet sets, tolerance and viscous shift.
pub fn sem(patch: &NsSolver2d) -> SemProbe {
    let space = &patch.space;
    let cfg = patch.config();
    let n = (space.order() + 1) as f64;
    let elems = space.gmap.len() as f64;
    let u: Vec<f64> = space.project(|x, y| (x + 2.0 * y).sin());
    let mut out = vec![0.0; space.nglobal];
    let apply = best_seconds_per_call(|| {
        space.apply_helmholtz(1.0, black_box(&u), &mut out);
        black_box(&mut out);
    });
    let lambda_v = 1.5 / (cfg.nu * cfg.dt);
    let (setup_p, solve_p, iters_p) = cold_solve(space, 0.0, patch.pressure_bc_dofs(), cfg.tol);
    let (setup_v, solve_v, iters_v) =
        cold_solve(space, lambda_v, patch.velocity_bc_dofs(), cfg.tol);
    SemProbe {
        dofs: space.nglobal,
        apply_us: apply * 1e6,
        apply_flops: elems * (8.0 * n * n * n + 10.0 * n * n),
        apply_bytes: elems * 64.0 * n * n + 8.0 * space.nglobal as f64,
        solve_pressure_ms: solve_p * 1e3,
        solve_viscous_ms: solve_v * 1e3,
        us_per_cg_iter: (solve_p + solve_v) * 1e6 / (iters_p + iters_v).max(1) as f64,
        setup_precon_s: setup_p + setup_v,
    }
}

pub struct DpdProbe {
    pub forces_ms: f64,
    /// Computed from density and cut-off: `N ρ (4/3)π r_c³ / 2`.
    pub pairs: f64,
}

/// Force evaluation on the final particle state. Recomputing forces at
/// unchanged positions and step count reproduces them bit for bit, so
/// the probe leaves the state as it found it.
pub fn dpd(sim: &mut DpdSim) -> DpdProbe {
    let forces = best_seconds(3, Duration::from_millis(200), || sim.compute_forces());
    let (rc, rho) = (sim.cfg.rc, sim.cfg.density);
    let shell = 4.0 / 3.0 * std::f64::consts::PI * rc * rc * rc;
    DpdProbe {
        forces_ms: forces * 1e3,
        pairs: sim.particles.len() as f64 * rho * shell / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_and_a_clock() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(host_cores() >= 1);
    }
}
