//! Ensemble serving benchmark → `BENCH_serve.json`: cold vs warm setup
//! under the artifact cache, the disk tier across a simulated process
//! restart, and the cost-model scheduler at 100+ queued jobs.
//!
//! 1. **Cold vs warm** — K multipatch jobs (same discretization, swept
//!    body force) through [`Ensemble::serve`] with `CacheMode::Off` vs a
//!    shared `CacheMode::Process` cache; one `serve_cold_warm` row and one
//!    `serve_cache_kind` row per artifact kind, `eclass` (the condensed
//!    element classes engines share) among them.
//! 2. **Disk tier** — the same sweep against an on-disk cache directory,
//!    then again from a *fresh* ensemble over the same directory (a
//!    simulated process restart): setup must come back as disk hits.
//! 3. **Scheduler** — jobs across several discretization groups, submitted
//!    interleaved, served by the worker pool under a capacity-bounded
//!    cache: FIFO admission vs cost-model+affinity batching, one
//!    `serve_scheduler` row per policy with p50/p95/p99 latency, jobs/hour,
//!    warm hit rate and evictions.
//!
//! Every leg asserts that its two batches return the same per-job golden
//! hashes (tier-1 holds that contract in `ensemble.rs::
//! warm_jobs_bitwise_match_cold`, `disk_tier_warm_starts_a_second_batch`
//! and `policy_and_workers_never_change_physics`); the warm batch must hit
//! the cache, on `eclass` as well, at every size; the full run also
//! demands affinity strictly ahead of FIFO on hit rate and jobs/hour. The
//! warm-setup ratio is recorded, not gated: both sides are a millisecond
//! or two since the condensed engine made a cold build cheap, and the
//! ratio reads 1.8–4.4× from run to run on this host. `--smoke` shrinks
//! every size.

use nkg_artifact::{ArtifactCache, CacheMode, KindStats};
use nkg_bench::{bench_path, header, host_cores, median, write_jsonl, Row};
use nkg_coupling::ensemble::{
    Ensemble, JobReport, JobSpec, SchedPolicy, SchedulerConfig, SweepJob, SweepOps,
};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    nx: usize,
    ny: usize,
    p: usize,
    /// Jobs in the cold/warm and disk sweeps.
    k: usize,
    steps: usize,
    /// Jobs and discretization groups of the scheduler leg.
    sched_jobs: usize,
    sched_groups: usize,
}

/// The cold/warm sweep: one discretization — construction is where the
/// cacheable work lives (GLL tables, the pressure engines' low-energy
/// factorizations, interface interpolation tables) — under `k` forces.
fn sweep(cfg: &Config) -> Vec<JobSpec<SweepJob>> {
    (0..cfg.k)
        .map(|i| {
            SweepJob {
                len: 6.0,
                ny: cfg.ny,
                ..SweepJob::channel(cfg.nx, 2, cfg.p, 0.3 + 0.05 * i as f64, cfg.steps)
            }
            .spec()
        })
        .collect()
}

/// What one served batch reports: per-job reports and golden hashes in
/// submission order, the batch wall time and the cache counters.
struct Batch {
    reports: Vec<JobReport>,
    hashes: Vec<u64>,
    wall: f64,
    totals: KindStats,
    stats: Vec<(&'static str, KindStats)>,
    /// Resident bytes of the memory tier once the batch is done.
    resident: u64,
}

impl Batch {
    fn setups(&self) -> Vec<f64> {
        self.reports.iter().map(|r| r.setup_seconds).collect()
    }

    /// Nearest-rank percentile of the job latencies.
    fn latency(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.reports.iter().map(|r| r.latency_seconds).collect();
        v.sort_by(f64::total_cmp);
        v[((q / 100.0) * (v.len() - 1) as f64).round() as usize]
    }

    fn jobs_per_hour(&self) -> f64 {
        self.reports.len() as f64 * 3600.0 / self.wall
    }
}

fn run_batch(ens: &Ensemble, specs: &[JobSpec<SweepJob>], cfg: &SchedulerConfig) -> Batch {
    let t0 = Instant::now();
    let out = ens.serve(specs, &SweepOps, cfg);
    let wall = t0.elapsed().as_secs_f64();
    let (reports, hashes) = out
        .into_iter()
        .map(|(r, h)| (r, h.expect("serving jobs do not fail")))
        .unzip();
    Batch {
        reports,
        hashes,
        wall,
        totals: ens.cache().totals(),
        stats: ens.stats(),
        resident: ens.cache().resident_bytes(),
    }
}

/// The scheduler leg's job population: `k` jobs over `groups`
/// discretization groups (distinct setup-artifact working sets),
/// submitted round-robin — the worst case for a bounded cache under
/// FIFO, the case affinity batching exists for.
fn sched_jobs(k: usize, groups: usize, steps: usize) -> Vec<JobSpec<SweepJob>> {
    (0..k)
        .map(|i| {
            let g = i % groups;
            let np = 2 + g % 2;
            let p = 3 + g / 2;
            SweepJob::channel(8, np, p, 0.25 + 0.005 * i as f64, steps).spec()
        })
        .collect()
}

/// Resident setup bytes of the whole sweep's artifact working set (one
/// job per distinct affinity group into one unbounded cache) — the
/// number the bounded cache capacity is derived from.
fn sweep_bytes(specs: &[JobSpec<SweepJob>]) -> u64 {
    let ens = Ensemble::new(CacheMode::Process);
    let mut seen = std::collections::HashSet::new();
    for s in specs {
        if !seen.insert(s.affinity) {
            continue;
        }
        ens.serve(
            std::slice::from_ref(s),
            &SweepOps,
            &SchedulerConfig::default(),
        );
    }
    ens.cache().resident_bytes()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        Config {
            nx: 8,
            ny: 2,
            p: 4,
            k: 3,
            steps: 2,
            sched_jobs: 12,
            sched_groups: 4,
        }
    } else {
        Config {
            nx: 24,
            ny: 4,
            p: 8,
            k: 8,
            steps: 3,
            sched_jobs: 102,
            sched_groups: 6,
        }
    };
    let specs = sweep(&cfg);
    let secs = |s: f64| format!("{s:.6}");
    let hex = |h: u64| format!("{h:016x}");
    let mut rows = Vec::new();

    header(&format!(
        "ensemble serving: K={} multipatch jobs, P={}, {}x{} elems, 2 patches",
        cfg.k, cfg.p, cfg.nx, cfg.ny
    ));
    let inline = SchedulerConfig::default(); // FIFO on the calling thread
    let cold = run_batch(&Ensemble::new(CacheMode::Off), &specs, &inline);
    let warm = run_batch(&Ensemble::new(CacheMode::Process), &specs, &inline);
    assert_eq!(
        cold.hashes, warm.hashes,
        "cold and warm batches diverged bitwise"
    );
    assert_eq!(cold.totals.hits, 0, "CacheMode::Off must never hit");
    assert!(warm.totals.hits > 0, "warm batch produced no cache hits");
    let eclass = warm.stats.iter().find(|(kind, _)| *kind == "eclass");
    assert!(
        eclass.is_some_and(|(_, st)| st.hit_rate() > 0.0),
        "warm batch shared no element class: {eclass:?}"
    );

    // Warm setup: jobs after the first, which pay only cache lookups.
    let cold_setup = median(cold.setups());
    let warm_setup = median(warm.setups().split_off(1));
    let speedup = cold_setup / warm_setup;
    println!("cold setup (median of {}): {cold_setup:.4} s", cfg.k);
    println!(
        "warm setup (median of jobs 2..{}): {warm_setup:.4} s  ({speedup:.1}x)",
        cfg.k
    );
    println!(
        "batch wall: cold {:.3} s ({:.0} jobs/h), warm {:.3} s ({:.0} jobs/h)",
        cold.wall,
        cold.jobs_per_hour(),
        warm.wall,
        warm.jobs_per_hour()
    );
    println!("warm cache hit rate: {:.3}", warm.totals.hit_rate());
    rows.push(
        Row::new("serve_cold_warm")
            .num("k", cfg.k)
            .num("p", cfg.p)
            .num("nx", cfg.nx)
            .num("ny", cfg.ny)
            .num("patches", 2)
            .num("steps", cfg.steps)
            .num("cold_setup_seconds", secs(cold_setup))
            .num("warm_setup_seconds", secs(warm_setup))
            .num("warm_speedup", format_args!("{speedup:.3}"))
            .num("cold_batch_seconds", secs(cold.wall))
            .num("warm_batch_seconds", secs(warm.wall))
            .num(
                "cold_jobs_per_hour",
                format_args!("{:.1}", cold.jobs_per_hour()),
            )
            .num(
                "warm_jobs_per_hour",
                format_args!("{:.1}", warm.jobs_per_hour()),
            )
            .num(
                "warm_hit_rate",
                format_args!("{:.4}", warm.totals.hit_rate()),
            )
            .text("golden_hash", &hex(combined_hash(&warm.hashes))),
    );
    for (kind, st) in &warm.stats {
        let build = st.build_ns as f64 / 1e9;
        println!(
            "  kind {kind:16} hits {:4}  misses {:3}  bytes {:9}  pinned {:9}  build {build:.4} s",
            st.hits, st.misses, st.bytes, st.pinned_bytes
        );
        rows.push(
            Row::new("serve_cache_kind")
                .text("kind", kind)
                .num("hits", st.hits)
                .num("misses", st.misses)
                .num("disk_hits", st.disk_hits)
                .num("bytes", st.bytes)
                .num("build_seconds", secs(build)),
        );
    }

    // ---- Disk tier: populate a directory, then "restart the process" --
    // a fresh ensemble over the same directory whose in-memory cache is
    // empty — and warm-start from disk, bit-exact.
    header("disk tier: cold process, warm disk");
    let dir = std::env::temp_dir().join(format!("nkg-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_cold = run_batch(&Ensemble::with_disk(&dir), &specs, &inline);
    let disk_warm = run_batch(&Ensemble::with_disk(&dir), &specs, &inline);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        disk_cold.hashes, disk_warm.hashes,
        "disk-warmed batch diverged bitwise after simulated restart"
    );
    let disk_hits = disk_warm.totals.disk_hits;
    assert!(disk_hits > 0, "restarted batch never hit the disk tier");
    let disk_cold_setup = median(disk_cold.setups());
    let disk_warm_setup = median(disk_warm.setups());
    let disk_speedup = disk_cold_setup / disk_warm_setup;
    println!(
        "disk: cold-process setup {disk_cold_setup:.4} s, warm-disk setup {disk_warm_setup:.4} s \
         ({disk_speedup:.1}x), {disk_hits} disk hits"
    );
    rows.push(
        Row::new("serve_disk_tier")
            .num("k", cfg.k)
            .num("cold_process_setup_seconds", secs(disk_cold_setup))
            .num("warm_disk_setup_seconds", secs(disk_warm_setup))
            .num("disk_speedup", format_args!("{disk_speedup:.3}"))
            .num("disk_hits", disk_hits)
            .text("golden_hash", &hex(combined_hash(&disk_warm.hashes))),
    );

    // ---- Scheduler: FIFO vs cost-model+affinity under a bounded cache --
    let workers = host_cores().clamp(2, 4);
    let (k, groups) = (cfg.sched_jobs, cfg.sched_groups);
    let specs = sched_jobs(k, groups, 2);
    // Capacity: 40% of the sweep's total setup working set, so fewer than
    // half of the groups stay resident. Round-robin FIFO's reuse distance
    // spans all groups and thrashes the LRU; affinity batching keeps the
    // active group's working set warm.
    let total_bytes = sweep_bytes(&specs);
    let cap_bytes = total_bytes * 2 / 5;
    header(&format!(
        "scheduler: {k} queued jobs, {groups} discretization groups, {workers} workers, cache cap {:.2} MiB of {:.2} MiB working set",
        cap_bytes as f64 / (1024.0 * 1024.0),
        total_bytes as f64 / (1024.0 * 1024.0),
    ));
    let serve_bounded = |policy| {
        let cache = ArtifactCache::new(CacheMode::Process).with_capacity_bytes(cap_bytes);
        let cfg = SchedulerConfig {
            workers,
            policy,
            ..SchedulerConfig::default()
        };
        run_batch(&Ensemble::from_cache(Arc::new(cache)), &specs, &cfg)
    };
    let fifo = serve_bounded(SchedPolicy::Fifo);
    let affinity = serve_bounded(SchedPolicy::CostAffinity);
    assert_eq!(
        fifo.hashes, affinity.hashes,
        "scheduling policy changed job physics"
    );
    for (name, leg) in [("fifo", &fifo), ("affinity", &affinity)] {
        let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|q| leg.latency(q));
        let (jph, hit_rate) = (leg.jobs_per_hour(), leg.totals.hit_rate());
        let (evictions, pinned) = (leg.totals.evictions, leg.totals.pinned_bytes);
        println!(
            "  {name:9} p50 {p50:.4} s  p95 {p95:.4} s  p99 {p99:.4} s  {jph:>8.0} jobs/h  hit rate {hit_rate:.3}  evictions {evictions}  pinned {pinned} of {} resident bytes",
            leg.resident
        );
        rows.push(
            Row::new("serve_scheduler")
                .text("policy", name)
                .num("jobs", k)
                .num("groups", groups)
                .num("workers", workers)
                .num("cache_capacity_bytes", cap_bytes)
                .num("p50_latency_seconds", secs(p50))
                .num("p95_latency_seconds", secs(p95))
                .num("p99_latency_seconds", secs(p99))
                .num("jobs_per_hour", format_args!("{jph:.1}"))
                .num("warm_hit_rate", format_args!("{hit_rate:.4}"))
                .num("evictions", evictions)
                .num("pinned_bytes", pinned)
                .text("golden_hash", &hex(combined_hash(&leg.hashes))),
        );
    }
    write_jsonl(&bench_path("serve", smoke), &rows);
    if smoke {
        return;
    }

    assert!(
        affinity.totals.hit_rate() > fifo.totals.hit_rate(),
        "affinity hit rate not strictly above FIFO's"
    );
    assert!(
        affinity.jobs_per_hour() > fifo.jobs_per_hour(),
        "affinity jobs/hour not strictly above FIFO's"
    );
    println!("acceptance gates passed: affinity > FIFO on hit rate and jobs/hour");
}

/// Order-sensitive FNV over the per-job golden hashes — one number
/// pinning the whole batch's physics.
fn combined_hash(hashes: &[u64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for x in hashes {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}
