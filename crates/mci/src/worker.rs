//! The rank side of process mode: a registry of named SPMD programs and
//! the `worker_main` entry point the `nkg-rank` binary wraps.
//!
//! A worker process is launched by [`Universe::spawn_processes`] with its
//! rank, the hub endpoint, and a program name in environment variables
//! (see `nkg_net::endpoint`). It connects, handshakes, runs the named
//! program over a [`Comm`] indistinguishable from a thread-mode one, and
//! translates the outcome into its exit code — which is how the launcher
//! tells a clean finish from a scripted kill from a genuine panic.
//!
//! [`Universe::spawn_processes`]: crate::Universe::spawn_processes

use crate::comm::Comm;
use crate::envelope::{Mailbox, RecvError};
use crate::universe::{install_quiet_kill_hook, run_rank, RankNet, RemoteNet};
use nkg_net::endpoint::{
    WorkerEnv, EXIT_BAD_ENV, EXIT_CONNECT_FAILED, EXIT_OK, EXIT_PANIC, EXIT_SCRIPTED_KILL,
    EXIT_UNKNOWN_PROGRAM,
};
use nkg_net::fault::ScriptedKill;
use nkg_net::port::RemotePort;
use nkg_net::wire::encode;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// An SPMD program a worker can run: the same shape as a closure passed
/// to `Universe::run`, with a `Vec<f64>` result so it can travel the wire.
pub type Program = fn(Comm) -> Vec<f64>;

/// Test hook: a worker whose rank matches this env var exits (code 3)
/// before ever contacting the hub — simulating death before `Hello`, the
/// one failure mode no hub pump can observe.
pub const ENV_CRASH_BEFORE_CONNECT: &str = "NKG_CRASH_BEFORE_CONNECT";
/// Victim rank for the fault-scenario builtins (default: last rank).
pub const ENV_VICTIM: &str = "NKG_VICTIM";

/// Named programs a worker binary knows how to run.
#[derive(Default)]
pub struct Registry {
    entries: Vec<(String, Program)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in programs every `nkg-rank` binary carries: smoke tests
    /// and fault scenarios the integration suite drives across processes.
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        reg.register("ring", prog_ring);
        reg.register("exchange", prog_exchange);
        reg.register("sender", prog_sender);
        reg.register("panic_early", prog_panic_early);
        reg.register("survivor", prog_survivor);
        reg
    }

    /// Register `prog` under `name` (replacing any previous entry).
    pub fn register(&mut self, name: &str, prog: Program) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 = prog;
        } else {
            self.entries.push((name.to_string(), prog));
        }
    }

    /// Registered program names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    fn lookup(&self, name: &str) -> Option<Program> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }
}

/// Run one worker process to completion and return its exit code.
///
/// Reads the launch contract from the environment, connects to the hub,
/// runs the named program, reports the result, and maps the outcome to
/// the exit-code protocol (`EXIT_OK`, `EXIT_SCRIPTED_KILL`, `EXIT_PANIC`,
/// or a launch error code). The binary should `std::process::exit` with
/// the returned value.
pub fn worker_main(reg: &Registry) -> i32 {
    let env = match WorkerEnv::from_env() {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("nkg-rank: {msg}");
            return EXIT_BAD_ENV;
        }
    };
    // Honor the launcher's placement before any program code can touch a
    // rayon pool (the global pool snapshots RAYON_NUM_THREADS on first
    // use). An explicit RAYON_NUM_THREADS in the worker's environment
    // always wins over the placement.
    if let Some(w) = env.pool_width {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", w.to_string());
        }
    }
    let program = match reg.lookup(&env.program) {
        Some(p) => p,
        None => {
            eprintln!(
                "nkg-rank: unknown program {:?} (known: {:?})",
                env.program,
                reg.names()
            );
            return EXIT_UNKNOWN_PROGRAM;
        }
    };
    if std::env::var(ENV_CRASH_BEFORE_CONNECT).is_ok_and(|v| v == env.rank.to_string()) {
        // Vanish before the hub ever hears from us; only the launcher's
        // exit watcher can report this death to our peers.
        std::process::exit(3);
    }
    install_quiet_kill_hook();
    let (reader, writer) = match env.endpoint.connect() {
        Ok(halves) => halves,
        Err(e) => {
            eprintln!("nkg-rank: connect to {}: {e}", env.endpoint);
            return EXIT_CONNECT_FAILED;
        }
    };
    let (port, env_rx) = match RemotePort::connect(
        reader,
        writer,
        env.rank,
        env.world,
        env.incarnation,
        env.recv_timeout,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nkg-rank: handshake with {}: {e}", env.endpoint);
            return EXIT_CONNECT_FAILED;
        }
    };
    let port = Rc::new(port);
    let mailbox = Rc::new(RefCell::new(Mailbox::new(
        env_rx,
        env.recv_timeout,
        env.rank,
        Arc::clone(port.liveness()),
        port.dedup(),
    )));
    let net: Rc<dyn RankNet> = Rc::new(RemoteNet {
        port: Rc::clone(&port),
    });
    match run_rank(net, mailbox, env.rank, env.world, program) {
        Ok(result) => {
            // Result before Goodbye: Goodbye is the stream's last word.
            port.send_result(&encode(&result));
            port.goodbye();
            EXIT_OK
        }
        Err(e) if e.downcast_ref::<ScriptedKill>().is_some() => EXIT_SCRIPTED_KILL,
        Err(_) => EXIT_PANIC,
    }
}

fn victim_rank(world: usize) -> usize {
    std::env::var(ENV_VICTIM)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(world - 1)
}

/// All ranks allreduce their rank; returns `[total, my_rank]`.
fn prog_ring(comm: Comm) -> Vec<f64> {
    let total = comm.allreduce_sum(&[comm.rank() as f64]);
    vec![total[0], comm.rank() as f64]
}

/// Neighbor exchange around the rank ring: five tagged rounds, each rank
/// passing a payload to its successor; returns the received checksum.
fn prog_exchange(comm: Comm) -> Vec<f64> {
    let n = comm.size();
    let next = (comm.rank() + 1) % n;
    let prev = (comm.rank() + n - 1) % n;
    let mut acc = 0.0;
    for round in 0..5u32 {
        let payload = vec![(comm.rank() + round as usize) as f64; 8];
        comm.send(&payload, next, 100 + round);
        let got: Vec<f64> = comm.recv(prev, 100 + round);
        acc += got.iter().sum::<f64>();
    }
    vec![acc]
}

/// Every rank but 0 sends three tagged messages to rank 0; rank 0 counts
/// what arrives, tolerating dead senders. With a kill plan installed the
/// count shows exactly how many posts the victim survived.
fn prog_sender(comm: Comm) -> Vec<f64> {
    if comm.rank() == 0 {
        let mut got = 0.0;
        for src in 1..comm.size() {
            for k in 0..3u32 {
                if comm
                    .recv_deadline::<f64>(src, 300 + k, Duration::from_secs(5))
                    .is_ok()
                {
                    got += 1.0;
                }
            }
        }
        vec![got]
    } else {
        for k in 0..3u32 {
            comm.send(&[k as f64], 0, 300 + k);
        }
        vec![3.0]
    }
}

/// The victim panics before its first post; every other rank blocks on it
/// and must resolve to `PeerDead` — proving death reaches peers even when
/// the dead rank never said a word on the data plane. Returns `[13.0]` on
/// the expected outcome.
fn prog_panic_early(comm: Comm) -> Vec<f64> {
    let victim = victim_rank(comm.size());
    if comm.rank() == victim {
        panic!("deliberate early death (before first post)");
    }
    match comm.recv_deadline::<f64>(victim, 42, Duration::from_secs(10)) {
        Err(RecvError::PeerDead { .. }) => vec![13.0],
        other => panic!("expected PeerDead from victim, got {other:?}"),
    }
}

/// Failover probe: the victim delivers one good window then aborts
/// without a word; rank 0 keeps integrating, holding the last received
/// value through the dead windows — the `exchange_ft` recovery pattern,
/// across a process boundary.
fn prog_survivor(comm: Comm) -> Vec<f64> {
    assert!(comm.size() >= 2, "survivor needs at least 2 ranks");
    let victim = victim_rank(comm.size());
    assert!(victim != 0, "rank 0 is the survivor");
    const WINDOWS: u32 = 5;
    if comm.rank() == victim {
        comm.send(&[11.0f64], 0, 200);
        // Crash hard: no Dying frame, no Goodbye, no unwinding — the hub
        // must detect this from the stream alone.
        std::process::abort();
    }
    if comm.rank() != 0 {
        return vec![0.0];
    }
    let mut trace = vec![1.0];
    let mut held = 1.0;
    for w in 0..WINDOWS {
        if let Ok(v) = comm.recv_deadline::<f64>(victim, 200 + w, Duration::from_secs(5)) {
            held = v[0];
        }
        trace.push(held);
    }
    trace.push(4.0);
    trace
}
