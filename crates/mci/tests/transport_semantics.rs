//! Transport-boundary semantics, parameterized over every backend: the
//! typed receive surface (`Timeout` vs `PeerDead`) must behave
//! identically whether a peer is a thread wired by a channel or by a
//! framed socket — and the physics of an exchange must be bitwise
//! identical across all of them.

use nkg_mci::{Backend, FaultPlan, RecvError, Universe};
use std::time::Duration;

const ALL_BACKENDS: [Backend; 3] = [Backend::InProc, Backend::Uds, Backend::Tcp];

/// A deliberately slow peer: rank 1 stalls 50 ms before sending. The
/// receiver's first deadline (10 ms) must report `Timeout` with the
/// waited duration; a follow-up patient receive must then succeed — the
/// message was late, not lost.
#[test]
fn slow_peer_times_out_then_delivers() {
    for backend in ALL_BACKENDS {
        let u = Universe::new(2)
            .with_backend(backend)
            .with_recv_timeout(Duration::from_secs(30));
        let out = u.run(move |comm| {
            if comm.rank() == 1 {
                std::thread::sleep(Duration::from_millis(50));
                comm.send(&[42.0f64], 0, 7);
                return 0.0;
            }
            let early = comm.recv_deadline::<f64>(1, 7, Duration::from_millis(10));
            match early {
                Err(RecvError::Timeout { waited, .. }) => {
                    assert!(
                        waited >= Duration::from_millis(10),
                        "{}: waited {waited:?}",
                        backend.name()
                    );
                }
                other => panic!("{}: expected Timeout, got {other:?}", backend.name()),
            }
            let late = comm
                .recv_deadline::<f64>(1, 7, Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{}: late receive failed: {e}", backend.name()));
            late[0]
        });
        assert_eq!(out[0], 42.0, "{}", backend.name());
    }
}

/// A scripted kill mid-run: the blocked receiver must resolve to
/// `PeerDead` (not burn its deadline), and `try_recv` must agree — on
/// every backend.
#[test]
fn killed_peer_resolves_peer_dead() {
    for backend in ALL_BACKENDS {
        let u = Universe::new(2)
            .with_backend(backend)
            .with_recv_timeout(Duration::from_secs(30))
            .with_fault_plan(FaultPlan::new().kill_rank(1, 2));
        let run = u.run_surviving(move |comm| {
            if comm.rank() == 1 {
                comm.send(&[1.0f64], 0, 5); // delivered
                comm.send(&[2.0f64], 0, 6); // the kill lands here
                unreachable!("rank 1 dies on its second post");
            }
            let first = comm.recv_deadline::<f64>(1, 5, Duration::from_secs(10));
            assert_eq!(first.unwrap(), vec![1.0], "{}", backend.name());
            match comm.recv_deadline::<f64>(1, 6, Duration::from_secs(10)) {
                Err(RecvError::PeerDead { src }) => assert_eq!(src, 1),
                other => panic!("{}: expected PeerDead, got {other:?}", backend.name()),
            }
            match comm.try_recv::<f64>(1, 6) {
                Err(RecvError::PeerDead { src }) => assert_eq!(src, 1),
                other => panic!("{}: try_recv disagrees: {other:?}", backend.name()),
            }
            assert!(!comm.is_alive(1), "{}", backend.name());
            3.0
        });
        assert_eq!(run.dead, vec![1], "{}", backend.name());
        assert_eq!(run.results[0], Some(3.0), "{}", backend.name());
        assert_eq!(run.stats.sends_per_rank[1], 2, "{}", backend.name());
    }
}

/// The same collective program produces bitwise-identical results and
/// identical traffic counters on every backend: the wire changes, the
/// physics (and the router) do not.
#[test]
fn collectives_bitwise_identical_across_backends() {
    let run = |backend: Backend| {
        let u = Universe::new(4)
            .with_backend(backend)
            .with_recv_timeout(Duration::from_secs(60));
        let results = u.run(|comm| {
            let mine = vec![
                (comm.rank() as f64 + 1.0) * 1.25,
                1.0 / (comm.rank() as f64 + 3.0),
            ];
            let summed = comm.allreduce_sum(&mine);
            let gathered = comm.allgather(&[comm.rank() as f64 * 0.1]);
            let mut out = summed;
            out.extend(gathered.into_iter().flatten());
            out
        });
        (results, u.stats())
    };
    let (reference, ref_stats) = run(Backend::InProc);
    for backend in [Backend::Uds, Backend::Tcp] {
        let (results, stats) = run(backend);
        assert_eq!(results, reference, "{} diverged", backend.name());
        assert_eq!(stats, ref_stats, "{} traffic differs", backend.name());
    }
}

/// Drop/duplicate/delay fault rules fire identically (same counters, same
/// surviving messages) on framed backends as in-proc: the plan is judged
/// at the router, not at the wire.
#[test]
fn fault_rules_judged_identically_across_backends() {
    use nkg_mci::{MsgAction, MsgMatcher, Pick};
    let run = |backend: Backend| {
        let plan = FaultPlan::new()
            .with_rule(
                MsgMatcher::flow(0, 1).with_tag(5),
                Pick::Nth(1),
                MsgAction::Drop,
            )
            .with_rule(MsgMatcher::flow(1, 0), Pick::Always, MsgAction::Duplicate);
        let u = Universe::new(2)
            .with_backend(backend)
            .with_recv_timeout(Duration::from_secs(30))
            .with_fault_plan(plan);
        let out = u.run_surviving(|comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64], 1, 5); // dropped
                comm.send(&[2.0f64], 1, 5); // delivered
                let v: Vec<f64> = comm.recv(1, 9);
                v[0]
            } else {
                let v: Vec<f64> = comm.recv(0, 5);
                comm.send(&[v[0] * 10.0], 0, 9); // duplicated, deduped
                0.0
            }
        });
        (out.results, out.stats)
    };
    let (ref_results, ref_stats) = run(Backend::InProc);
    assert_eq!(
        ref_results[0],
        Some(20.0),
        "dropped first, delivered second"
    );
    for backend in [Backend::Uds, Backend::Tcp] {
        let (results, stats) = run(backend);
        assert_eq!(results, ref_results, "{} diverged", backend.name());
        assert_eq!(stats, ref_stats, "{} counters differ", backend.name());
    }
}
