//! Fault-injection integration suite: the MCI transport fault layer, the
//! retrying exchange, and replica failover of the coupled metasolver.
//!
//! The headline guarantee (ISSUE 3 acceptance): a 3-replica coupled run
//! with the master killed mid-exchange completes via slave promotion plus
//! rank-scoped checkpoint resume, and the final interface trace and the
//! promoted replica's physics match the fault-free run **bitwise**,
//! because failover lands on an exchange boundary. Message
//! drop/delay/duplicate plans are deterministic under a fixed seed and
//! leave exchange results bitwise identical to the clean run.

use nektarg::coupling::failover::{
    driver_outcome, replica_report, run_replicated, DegradationEvent, FailoverConfig,
};
use nektarg::coupling::{NektarG, Scenario};
use nektarg::mci::{FaultPlan, InterfaceLink, MsgAction, MsgMatcher, Pick, RetryPolicy, Universe};
use std::path::PathBuf;
use std::time::Duration;

/// The same small coupled system the metasolver unit tests use: 12
/// continuum steps with `TimeProgression::new(5, 4)` gives 3 exchange
/// windows (exchanges at steps 0, 4, 8).
fn small_metasolver() -> NektarG {
    Scenario::small().build()
}

const TOTAL_STEPS: usize = 12;
const N_REPLICAS: usize = 3;

fn ckpt_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nkg_fault_integration");
    std::fs::create_dir_all(&dir).unwrap();
    // Scrub any rank-scoped generations from previous runs of this test.
    for r in 0..N_REPLICAS {
        let p = nektarg::ckpt::rank_path(&dir.join(format!("{tag}.nkgc")), r);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(nektarg::ckpt::prev_path(&p));
    }
    dir.join(format!("{tag}.nkgc"))
}

fn failover_cfg(tag: &str) -> FailoverConfig {
    FailoverConfig {
        // Generous enough that a replica's per-window compute never
        // trips it on a loaded CI box; a dead master is detected via
        // PeerDead long before it expires.
        status_deadline: Duration::from_secs(5),
        ctrl_deadline: Duration::from_secs(120),
        ..FailoverConfig::new(N_REPLICAS, TOTAL_STEPS, ckpt_base(tag))
    }
}

/// The headline acceptance test: 3 replicas; the master (replica 0 on
/// world rank 1) is killed while posting its window-2 report — i.e.
/// mid-exchange. The run completes via promotion of the lowest live
/// slave, which resumes from the dead master's rank-scoped checkpoint;
/// the driver's final trace is bitwise identical to the fault-free
/// replicated run, and the promoted replica's physics match the serial
/// reference bitwise.
#[test]
fn three_replica_master_kill_failover_bitwise() {
    // Serial reference for replica physics.
    let mut serial = small_metasolver();
    let serial_report = serial.run(TOTAL_STEPS);

    // Clean replicated run for the driver-trace reference.
    let clean_u = Universe::new(N_REPLICAS + 1);
    let clean = run_replicated(&clean_u, failover_cfg("clean"), small_metasolver);
    assert!(clean.dead.is_empty());
    let clean_driver = driver_outcome(&clean);
    assert!(clean_driver.events.is_empty());
    assert_eq!(clean_driver.trace.len(), 3);
    assert_eq!(clean_driver.active_master, 0);

    // Faulty run: rank 1 (master replica 0) dies attempting its 2nd post,
    // which is its window-2 status report.
    let u = Universe::new(N_REPLICAS + 1).with_fault_plan(FaultPlan::new().kill_rank(1, 2));
    let run = run_replicated(&u, failover_cfg("kill"), small_metasolver);

    assert_eq!(run.dead, vec![1], "exactly the master rank must die");
    let driver = driver_outcome(&run);
    assert_eq!(driver.active_master, 1, "lowest live replica promoted");
    assert_eq!(
        driver.events,
        vec![
            DegradationEvent::HeldLastValue { window: 2 },
            DegradationEvent::Failover {
                window: 2,
                from: 0,
                to: 1
            },
            DegradationEvent::Recovered { window: 2 },
        ]
    );
    assert!(
        driver.time_to_recover.is_some(),
        "failover must report its time-to-recover"
    );

    // Bitwise: the recovered trace equals the fault-free trace.
    assert_eq!(driver.trace.len(), clean_driver.trace.len());
    for (w, (a, b)) in driver.trace.iter().zip(&clean_driver.trace).enumerate() {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "driver trace diverged at window {}",
                w + 1
            );
        }
    }

    // The dead master produced no report.
    assert!(replica_report(&run, 0).is_none());

    // The promoted replica finished the run; its physics match the serial
    // reference bitwise and it recorded the degradation.
    let promoted = replica_report(&run, 1).unwrap();
    assert!(
        promoted.physics_matches(&serial_report),
        "promoted replica physics diverged from the fault-free run"
    );
    assert_eq!(promoted.held_exchanges, vec![2]);
    assert_eq!(promoted.failovers, vec![(2, 0, 1)]);

    // The untouched slave is a bitwise clone of the serial run with no
    // degradations at all.
    let slave = replica_report(&run, 2).unwrap();
    assert_eq!(slave, &serial_report);
}

/// Hold-last-value without failover: the master's window-2 report is
/// delayed past the status deadline but the master stays alive. The
/// driver degrades window 2 to the window-1 values for one τ, records the
/// degradation on both sides, and no promotion happens.
#[test]
fn delayed_status_degrades_to_hold_last_value() {
    // Park the 2nd message on the master→driver flow until one later
    // message on that flow (the window-3 report) is delivered.
    let plan = FaultPlan::new().with_rule(
        MsgMatcher::flow(1, 0),
        Pick::Nth(2),
        MsgAction::Delay { after_flow_msgs: 1 },
    );
    let u = Universe::new(N_REPLICAS + 1).with_fault_plan(plan);
    let run = run_replicated(&u, failover_cfg("delay"), small_metasolver);

    assert!(run.dead.is_empty());
    assert_eq!(run.stats.rule_fired, vec![1]);
    let driver = driver_outcome(&run);
    assert_eq!(
        driver.events,
        vec![DegradationEvent::HeldLastValue { window: 2 }]
    );
    assert_eq!(driver.active_master, 0, "no failover on a transient miss");
    assert!(driver.time_to_recover.is_none());
    // The held window repeats window 1's boundary values bitwise.
    for (x, y) in driver.trace[1].iter().zip(&driver.trace[0]) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // The master recorded the held window; physics were never perturbed.
    let mut serial = small_metasolver();
    let serial_report = serial.run(TOTAL_STEPS);
    let master = replica_report(&run, 0).unwrap();
    assert_eq!(master.held_exchanges, vec![2]);
    assert!(master.physics_matches(&serial_report));
}

/// Transport duplicates are invisible: sequence-numbered envelopes are
/// deduplicated at the mailbox, so a plan duplicating every root-to-root
/// interface message leaves the exchanged values bitwise identical.
#[test]
fn duplicated_interface_messages_are_bitwise_invisible() {
    let exchange_trace = |plan: Option<FaultPlan>| -> (Vec<Vec<f64>>, u64) {
        let mut u = Universe::new(2);
        if let Some(p) = plan {
            u = u.with_fault_plan(p);
        }
        let out = u.run_surviving(|world| {
            let l3 = world.split(Some(world.rank()), 0).unwrap();
            let l4 = l3.split(Some(0), 0).unwrap();
            let peer = 1 - world.rank();
            let link = InterfaceLink::establish(&world, l4, peer, 40);
            let mut got = Vec::new();
            for k in 0..5u64 {
                let payload = [world.rank() as f64 + k as f64 * 0.25, -(k as f64)];
                got.extend(link.exchange(&world, &payload, 2));
            }
            got
        });
        assert!(out.dead.is_empty());
        let trace = out.results.into_iter().map(Option::unwrap).collect();
        (trace, u.stats().messages)
    };

    let (clean, clean_msgs) = exchange_trace(None);
    let dup_plan = FaultPlan::new().with_rule(
        MsgMatcher::any().with_tag(40),
        Pick::Always,
        MsgAction::Duplicate,
    );
    let (dup, dup_msgs) = exchange_trace(Some(dup_plan));
    for (a, b) in clean.iter().zip(&dup) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "duplication perturbed the exchange"
            );
        }
    }
    // The duplicates did hit the wire (posted-message counters agree, the
    // extra deliveries are transport-internal).
    assert_eq!(clean_msgs, dup_msgs, "posted counts must match");
}

/// A dropped root-to-root frame is recovered by the retry layer: the
/// fault-tolerant exchange resends after its per-attempt deadline and the
/// result is bitwise identical to the clean run.
#[test]
fn dropped_interface_message_recovered_by_retry() {
    let ft_trace = |plan: Option<FaultPlan>| -> Vec<Vec<f64>> {
        let mut u = Universe::new(2).with_recv_timeout(Duration::from_secs(10));
        if let Some(p) = plan {
            u = u.with_fault_plan(p);
        }
        let out = u.run_surviving(|world| {
            let l3 = world.split(Some(world.rank()), 0).unwrap();
            let l4 = l3.split(Some(0), 0).unwrap();
            let peer = 1 - world.rank();
            let link = InterfaceLink::new(l4, peer, 41);
            let policy = RetryPolicy {
                max_attempts: 5,
                attempt_timeout: Duration::from_millis(100),
                backoff: Duration::from_millis(1),
                backoff_factor: 2,
            };
            let mut got = Vec::new();
            for k in 0..4u64 {
                let payload = [world.rank() as f64 * 3.0 + k as f64];
                got.extend(
                    link.exchange_ft(&world, &payload, 1, &policy)
                        .expect("retry layer must recover a single drop"),
                );
            }
            got
        });
        assert!(out.dead.is_empty());
        out.results.into_iter().map(Option::unwrap).collect()
    };

    let clean = ft_trace(None);
    // Drop the 2nd frame on the 0→1 interface flow (a window-2 loss).
    let drop_plan = FaultPlan::new().with_rule(
        MsgMatcher::flow(0, 1).with_tag(41),
        Pick::Nth(2),
        MsgAction::Drop,
    );
    let dropped = ft_trace(Some(drop_plan));
    for (a, b) in clean.iter().zip(&dropped) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "retry recovery must be bitwise");
        }
    }
}

/// Seeded fault picks replay deterministically. A *duplicate* action does
/// not perturb message flow (dedup makes it invisible), so with a
/// directional matcher the occurrence stream is the sender's program
/// order and the fired counts must be bitwise reproducible — and the
/// exchanged values identical to a clean run.
#[test]
fn seeded_duplicate_plan_replays_deterministically() {
    let run_with = |plan: Option<FaultPlan>| -> (Vec<Vec<f64>>, Vec<u64>, Vec<u64>) {
        let mut u = Universe::new(2);
        if let Some(p) = plan {
            u = u.with_fault_plan(p);
        }
        let out = u.run_surviving(|world| {
            let l3 = world.split(Some(world.rank()), 0).unwrap();
            let l4 = l3.split(Some(0), 0).unwrap();
            let peer = 1 - world.rank();
            let link = InterfaceLink::new(l4, peer, 42);
            let mut got = Vec::new();
            for k in 0..10u64 {
                let payload = [world.rank() as f64 + k as f64 * 1.5];
                got.extend(link.exchange(&world, &payload, 1));
            }
            got
        });
        assert!(out.dead.is_empty());
        let trace = out.results.into_iter().map(Option::unwrap).collect();
        (trace, out.stats.rule_matches, out.stats.rule_fired)
    };
    let seeded = |seed: u64| {
        Some(FaultPlan::new().with_rule(
            MsgMatcher::flow(0, 1).with_tag(42),
            Pick::Seeded {
                seed,
                num: 1,
                den: 2,
            },
            MsgAction::Duplicate,
        ))
    };

    let (clean, _, _) = run_with(None);
    let (trace_a, matches_a, fired_a) = run_with(seeded(1234));
    let (trace_b, matches_b, fired_b) = run_with(seeded(1234));
    assert_eq!(matches_a, matches_b, "same seed, same match counts");
    assert_eq!(fired_a, fired_b, "same seed, same fired counts");
    assert_eq!(matches_a, vec![10], "ten directional frames considered");
    assert!(fired_a[0] > 0, "a 1/2 pick over 10 frames should fire");
    for (a, b) in trace_a.iter().zip(&trace_b) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "seeded runs must replay bitwise");
        }
    }
    // Duplicates are invisible: results equal the clean run regardless of
    // which occurrences the seed picked.
    for (a, c) in clean.iter().zip(&trace_a) {
        for (x, y) in a.iter().zip(c) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "duplication perturbed the exchange"
            );
        }
    }
}

/// Seeded *drops* are recovered by the retry layer: whatever occurrences
/// the seed kills, the retransmission protocol re-delivers them and the
/// exchanged values stay bitwise identical to the clean run.
#[test]
fn seeded_drops_recovered_bitwise() {
    let run_with = |plan: Option<FaultPlan>| -> Vec<Vec<f64>> {
        let mut u = Universe::new(2).with_recv_timeout(Duration::from_secs(30));
        if let Some(p) = plan {
            u = u.with_fault_plan(p);
        }
        let out = u.run_surviving(|world| {
            let l3 = world.split(Some(world.rank()), 0).unwrap();
            let l4 = l3.split(Some(0), 0).unwrap();
            let peer = 1 - world.rank();
            let link = InterfaceLink::new(l4, peer, 43);
            let policy = RetryPolicy {
                max_attempts: 10,
                attempt_timeout: Duration::from_millis(80),
                backoff: Duration::from_millis(1),
                backoff_factor: 2,
            };
            let mut got = Vec::new();
            for k in 0..6u64 {
                let payload = [world.rank() as f64 + k as f64 * 1.5];
                got.extend(
                    link.exchange_ft(&world, &payload, 1, &policy)
                        .expect("retry layer must outlast seeded drops"),
                );
            }
            got
        });
        assert!(out.dead.is_empty());
        out.results.into_iter().map(Option::unwrap).collect()
    };

    let clean = run_with(None);
    for seed in [7u64, 4242] {
        let plan = FaultPlan::new().with_rule(
            MsgMatcher::flow(0, 1).with_tag(43),
            Pick::Seeded {
                seed,
                num: 1,
                den: 4,
            },
            MsgAction::Drop,
        );
        let dropped = run_with(Some(plan));
        for (a, b) in clean.iter().zip(&dropped) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "seeded drops must be invisible after retry (seed {seed})"
                );
            }
        }
    }
}

/// Typed receive surface: a receive on a scripted-dead peer resolves to
/// `PeerDead` promptly instead of burning the full deadline, and
/// `try_recv` reports the same condition non-blockingly.
#[test]
fn dead_peer_resolves_typed_receives() {
    use nektarg::mci::RecvError;
    let u = Universe::new(2)
        .with_recv_timeout(Duration::from_secs(30))
        .with_fault_plan(FaultPlan::new().kill_rank(1, 1));
    let out = u.run_surviving(|world| {
        if world.rank() == 1 {
            // First post dies by plan.
            world.send(&[1.0f64], 0, 6);
            unreachable!();
        }
        // Give the kill a moment to land, then observe it.
        let started = std::time::Instant::now();
        let err = world
            .recv_deadline::<f64>(1, 6, Duration::from_secs(20))
            .unwrap_err();
        assert_eq!(err, RecvError::PeerDead { src: 1 });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "PeerDead must resolve well before the deadline"
        );
        assert_eq!(
            world.try_recv::<f64>(1, 6),
            Err(RecvError::PeerDead { src: 1 })
        );
        assert!(!world.is_alive(1));
        let view = world.liveness();
        assert_eq!(view.dead_ranks(), vec![1]);
        true
    });
    assert_eq!(out.dead, vec![1]);
    assert_eq!(out.results[0], Some(true));
}
