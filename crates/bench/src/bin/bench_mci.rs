//! Message latency and fault-tolerance overhead of the MCI runtime,
//! measured per transport backend (in-process mailbox, framed UDS and TCP
//! sockets):
//!
//! * `mci_fault_tolerance` — latency of the plain three-step exchange vs
//!   the retrying [`InterfaceLink::exchange_ft`] on a clean network and on
//!   a lossy one, plus the wall-clock time-to-recover of a replica failover
//!   (master killed mid-exchange, slave promoted, resumed from the dead
//!   master's checkpoint);
//! * `mci_allreduce_latency` — µs per one-element `allreduce` on 2, 4 and
//!   8 thread-ranks: what every CG inner product waits for;
//! * `mci_dist_solve` — one 2-rank distributed Poisson solve over UDS (the
//!   `ranks_uds` problem of `bench_e2e`): µs and messages per CG iteration;
//! * `mci_restart_in_place` — the supervised restart path (UDS process
//!   mode): a zero-standby sharded run with one scripted worker death,
//!   healed by respawn + rejoin + resume.
//!
//! Overwrites `BENCH_mci.json` in the current directory (one row per
//! transport, rank count or drill) and prints the same numbers. `--smoke`
//! runs every leg at toy size.

use nkg_bench::{bench_path, header, median, time_median, write_jsonl, Row};
use nkg_coupling::dist::DistSpace2d;
use nkg_coupling::failover::{driver_outcome, run_replicated, FailoverConfig};
use nkg_coupling::Scenario;
use nkg_mci::{
    Backend, FaultPlan, InterfaceLink, MsgAction, MsgMatcher, Pick, ProcessOptions, RestartPolicy,
    RetryPolicy, Universe,
};
use nkg_mesh::quad::QuadMesh;
use nkg_sem::space2d::Space2d;
use std::time::{Duration, Instant};

const PAYLOAD: usize = 1024; // f64 values per side per exchange

/// How much of each leg one run does.
#[derive(Clone, Copy)]
struct Size {
    exchanges: usize,
    allreduces: usize,
    reps: usize,
}

/// Seconds per exchange for one 2-rank universe performing
/// `size.exchanges` root-to-root exchanges of `PAYLOAD` values each way
/// over `backend`.
fn seconds_per_exchange(backend: Backend, ft: bool, plan: Option<FaultPlan>, size: Size) -> f64 {
    let total = time_median(size.reps, || {
        let mut u = Universe::new(2)
            .with_backend(backend)
            .with_recv_timeout(Duration::from_secs(60));
        if let Some(p) = plan.clone() {
            u = u.with_fault_plan(p);
        }
        let out = u.run_surviving(move |world| {
            let l3 = world.split(Some(world.rank()), 0).unwrap();
            let l4 = l3.split(Some(0), 0).unwrap();
            let peer = 1 - world.rank();
            let link = InterfaceLink::new(l4, peer, 7);
            let mine = vec![world.rank() as f64; PAYLOAD];
            let policy = RetryPolicy {
                max_attempts: 40,
                attempt_timeout: Duration::from_millis(5),
                backoff: Duration::from_millis(1),
                backoff_factor: 2,
            };
            for _ in 0..size.exchanges {
                let got = if ft {
                    link.exchange_ft(&world, &mine, PAYLOAD, &policy)
                        .expect("retry schedule must outlast the drop plan")
                } else {
                    link.exchange(&world, &mine, PAYLOAD)
                };
                std::hint::black_box(got.len());
            }
            if ft {
                // The last window's frame can be the one the plan drops: its
                // sender holds the peer's frame, returns and leaves, and the
                // peer retries into an exited rank — a router panic in-proc,
                // forty doubling backoffs over a hub. One more window,
                // allowed to fail, keeps the sender in the protocol long
                // enough to answer that retransmission, and the barrier
                // keeps both ranks alive until both are out of it.
                let closing = RetryPolicy {
                    max_attempts: 4,
                    ..policy
                };
                let _ = link.exchange_ft(&world, &mine, PAYLOAD, &closing);
                world.barrier();
            }
        });
        assert!(out.dead.is_empty());
    });
    total / size.exchanges as f64
}

/// Seconds per one-element `allreduce` on `n` thread-ranks over `backend`:
/// rank 0's clock around `size.allreduces` back-to-back calls.
fn seconds_per_allreduce(backend: Backend, n: usize, size: Size) -> f64 {
    let calls = size.allreduces;
    let samples = (0..size.reps)
        .map(|_| {
            let u = Universe::new(n)
                .with_backend(backend)
                .with_recv_timeout(Duration::from_secs(60));
            u.run(move |world| {
                world.barrier();
                let t0 = Instant::now();
                for k in 0..calls {
                    std::hint::black_box(world.allreduce_scalar_sum(k as f64));
                }
                t0.elapsed().as_secs_f64()
            })[0]
        })
        .collect();
    median(samples) / calls as f64
}

/// The `ranks_uds` Poisson problem of `bench_e2e` (16×8 elements, p = 4)
/// on 2 ranks over UDS, capped at `max_iter` CG iterations. Returns
/// (rank 0's solve seconds, iterations, messages the universe routed).
fn dist_solve(tol: f64, max_iter: usize) -> (f64, usize, u64) {
    let pi = std::f64::consts::PI;
    let u = Universe::new(2)
        .with_backend(Backend::Uds)
        .with_recv_timeout(Duration::from_secs(60));
    let (secs, iters) = u.run(move |world| {
        let mesh = QuadMesh::rectangle(16, 8, 0.0, 2.0, 0.0, 1.0);
        let space = Space2d::new(mesh, 4, false);
        let ds = DistSpace2d::new(&space, &world, 4);
        let rhs =
            space.weak_rhs(move |x, y| pi * pi * 1.25 * (pi * x / 2.0).sin() * (pi * y).sin());
        let bnd = space.boundary_dofs(|_| true);
        world.barrier();
        let t0 = Instant::now();
        let (x, iters) = ds.solve_dirichlet(&world, 0.0, &rhs, &bnd, tol, max_iter);
        std::hint::black_box(x);
        (t0.elapsed().as_secs_f64(), iters)
    })[0];
    (secs, iters, u.stats().messages)
}

/// Failover drill on `backend`: 3 replicas, master killed posting its
/// window-2 report. Returns (time-to-recover, whole-run wall time).
fn failover_drill(backend: Backend) -> (f64, f64) {
    let dir = std::env::temp_dir().join("nkg_bench_mci");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let cfg = FailoverConfig {
        status_deadline: Duration::from_secs(5),
        ctrl_deadline: Duration::from_secs(120),
        ..FailoverConfig::new(3, 12, dir.join(format!("bench_{}.nkgc", backend.name())))
    };
    let u = Universe::new(4)
        .with_backend(backend)
        .with_fault_plan(FaultPlan::new().kill_rank(1, 2));
    let t0 = Instant::now();
    // The small coupled system the fault-tolerance tests use: 12 continuum
    // steps, 3 exchange windows.
    let run = run_replicated(&u, cfg, || Scenario::small().build());
    let total = t0.elapsed().as_secs_f64();
    let driver = driver_outcome(&run);
    let recover = driver
        .time_to_recover
        .expect("the kill plan must force a failover")
        .as_secs_f64();
    (recover, total)
}

/// One `coupled_restart` process-mode run over UDS: a driver plus
/// `shards` single-master workers, each rank its own OS process. Returns
/// (wall seconds, respawn count, summed backoff seconds).
fn sharded_run_seconds(worker: &std::path::Path, die_at: &str) -> (f64, u64, f64) {
    let dir = std::env::temp_dir().join("nkg_bench_mci");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let base = dir.join("bench_restart.nkgc");
    for s in 0..3 {
        let p = nkg_ckpt::rank_path(&base, s);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(nkg_ckpt::prev_path(&p));
    }
    let mut env = vec![
        (
            "NKG_CKPT_BASE".to_string(),
            base.to_string_lossy().into_owned(),
        ),
        ("NKG_RESTART_GRACE_MS".to_string(), "20000".to_string()),
    ];
    if !die_at.is_empty() {
        env.push(("NKG_DIE_AT".to_string(), die_at.to_string()));
    }
    let u = Universe::new(4)
        .with_backend(Backend::Uds)
        .with_recv_timeout(Duration::from_secs(120))
        .with_restart_policy(RestartPolicy::default());
    let t0 = Instant::now();
    let run = u.spawn_processes(&ProcessOptions {
        worker: worker.to_path_buf(),
        program: "coupled_restart".to_string(),
        env,
    });
    let total = t0.elapsed().as_secs_f64();
    assert!(
        run.dead.is_empty() && run.failures.is_empty(),
        "restart drill must heal: dead {:?} failures {:?}",
        run.dead,
        run.failures
    );
    let backoff: f64 = run.restarts.iter().map(|r| r.delay.as_secs_f64()).sum();
    (total, run.restarts.len() as u64, backoff)
}

/// Restart-in-place drill: zero-standby sharded run, one worker scripted
/// to die after computing window 2, supervised respawn + rejoin + resume.
/// Time-to-recover is the wall-clock cost of the death: faulty run minus
/// an identical clean run (includes backoff, relaunch, replay to the lost
/// window, and the re-exchange).
fn restart_drill() -> Option<(f64, u64, f64, f64, f64)> {
    let worker = std::env::current_exe().ok()?.with_file_name("nkg-rank");
    if !worker.is_file() {
        return None;
    }
    let (clean, clean_respawns, _) = sharded_run_seconds(&worker, "");
    assert_eq!(clean_respawns, 0, "clean run must not respawn anyone");
    let (faulty, respawns, backoff) = sharded_run_seconds(&worker, "1:2:0");
    let recover = (faulty - clean).max(0.0);
    Some((recover, respawns, backoff, clean, faulty))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let size = if smoke {
        Size {
            exchanges: 40,
            allreduces: 100,
            reps: 1,
        }
    } else {
        Size {
            exchanges: 500,
            allreduces: 2000,
            reps: 3,
        }
    };
    let Size {
        exchanges,
        allreduces,
        reps,
    } = size;
    let mut rows: Vec<Row> = Vec::new();

    header(&format!(
        "MCI fault tolerance per transport: {PAYLOAD} f64 per side, {exchanges} exchanges, \
         median of {reps}"
    ));

    // A lossy network dropping 1 in 8 of one side's root-to-root frames:
    // every loss costs at least one 5 ms attempt timeout before the
    // retransmission protocol repairs the window.
    let drop_plan = FaultPlan::new().with_rule(
        MsgMatcher::flow(0, 1).with_tag(7),
        Pick::Seeded {
            seed: 2024,
            num: 1,
            den: 8,
        },
        MsgAction::Drop,
    );

    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "transport", "plain µs/exch", "ft-clean µs", "ft-lossy µs", "recover s", "ft ovhd %"
    );
    for backend in Backend::ALL {
        let plain = seconds_per_exchange(backend, false, None, size);
        let ft_clean = seconds_per_exchange(backend, true, None, size);
        let ft_lossy = seconds_per_exchange(backend, true, Some(drop_plan.clone()), size);
        let (recover, run_total) = failover_drill(backend);
        let overhead_pct = (ft_clean / plain - 1.0) * 100.0;
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>14.1} {:>12.4} {:>+12.1}",
            backend.name(),
            plain * 1e6,
            ft_clean * 1e6,
            ft_lossy * 1e6,
            recover,
            overhead_pct
        );
        let per_exchange = |s: f64| format!("{s:.9}");
        rows.push(
            Row::new("mci_fault_tolerance")
                .text("transport", backend.name())
                .num("payload_f64", PAYLOAD)
                .num("exchanges", exchanges)
                .num("reps", reps)
                .num("plain_seconds_per_exchange", per_exchange(plain))
                .num("ft_clean_seconds_per_exchange", per_exchange(ft_clean))
                .num("ft_lossy_seconds_per_exchange", per_exchange(ft_lossy))
                .num(
                    "failover_time_to_recover_seconds",
                    format_args!("{recover:.6}"),
                )
                .num("failover_run_seconds", format_args!("{run_total:.6}")),
        );
    }

    header(&format!(
        "allreduce latency: one f64, {allreduces} calls, median of {reps} \
         (butterfly on these sizes; a blocked receive spins only while ranks <= cores)"
    ));
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "transport", "n=2 µs", "n=4 µs", "n=8 µs"
    );
    for backend in Backend::ALL {
        let us = [2usize, 4, 8].map(|n| {
            let secs = seconds_per_allreduce(backend, n, size);
            rows.push(
                Row::new("mci_allreduce_latency")
                    .text("transport", backend.name())
                    .num("ranks", n)
                    .num("calls", allreduces)
                    .num("reps", reps)
                    .num("us_per_allreduce", format_args!("{:.3}", secs * 1e6)),
            );
            secs * 1e6
        });
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1}",
            backend.name(),
            us[0],
            us[1],
            us[2]
        );
    }

    // One more iteration costs the same messages wherever it falls, so two
    // capped solves that cannot converge differ by exactly one iteration's
    // worth.
    let (_, _, capped) = dist_solve(0.0, 8);
    let (_, _, capped_plus_one) = dist_solve(0.0, 9);
    let msgs_per_iter = capped_plus_one - capped;
    // The iteration count is a property of the problem, not of the run.
    let mut iters = 0;
    let solve_secs = median(
        (0..reps)
            .map(|_| {
                let (secs, n, _) = dist_solve(1e-10, 4000);
                iters = n;
                secs
            })
            .collect(),
    );
    let us_per_iter = solve_secs * 1e6 / iters as f64;
    println!(
        "\ndist_solve (uds, 2 ranks, 16x8 p=4 Poisson): {iters} iterations, \
         {us_per_iter:.1} µs and {msgs_per_iter} messages per CG iteration"
    );
    rows.push(
        Row::new("mci_dist_solve")
            .text("transport", "uds")
            .num("ranks", 2)
            .num("reps", reps)
            .num("iters", iters)
            .num("us_per_cg_iter", format_args!("{us_per_iter:.3}"))
            .num("messages_per_cg_iter", msgs_per_iter),
    );

    match restart_drill() {
        Some((recover, respawns, backoff, clean, faulty)) => {
            println!(
                "\nrestart_in_place (uds, 3 shards, 1 scripted death): \
                 recover {recover:.3} s ({respawns} respawn, {backoff:.3} s backoff; \
                 clean {clean:.3} s, faulty {faulty:.3} s)"
            );
            let secs = |s: f64| format!("{s:.6}");
            rows.push(
                Row::new("mci_restart_in_place")
                    .text("transport", "uds")
                    .num("shards", 3)
                    .num("scripted_deaths", 1)
                    .num("respawns", respawns)
                    .num("restart_backoff_seconds", secs(backoff))
                    .num("clean_run_seconds", secs(clean))
                    .num("faulty_run_seconds", secs(faulty))
                    .num("time_to_recover_seconds", secs(recover)),
            );
        }
        None => println!(
            "\nrestart_in_place drill skipped: nkg-rank binary not found next to bench_mci \
             (build the workspace bins first)"
        ),
    }
    write_jsonl(&bench_path("mci", smoke), &rows);
}
