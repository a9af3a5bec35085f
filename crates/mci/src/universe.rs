//! The virtual machine: rank launch, transport selection, traffic
//! statistics, and the process-mode launcher.
//!
//! Every backend funnels traffic through one `nkg-net` [`RouterCore`], so
//! fault judging, sequence stamping, liveness and statistics behave
//! identically whether ranks are threads wired by channels (in-proc),
//! threads wired by framed sockets, or whole OS
//! processes connected over Unix-domain/TCP sockets
//! ([`Universe::spawn_processes`]).

use crate::comm::Comm;
use crate::envelope::{Envelope, Mailbox};
use crate::supervisor::{RestartCause, RestartEvent, RestartPolicy};
use nkg_net::endpoint::{
    split_tcp, split_unix, Endpoint, ENV_CONNECT, ENV_INCARNATION, ENV_POOL_WIDTH, ENV_PROGRAM,
    ENV_RANK, ENV_TIMEOUT_MS, ENV_WORLD, EXIT_OK, EXIT_SCRIPTED_KILL,
};
use nkg_net::fault::{FaultPlan, FaultStats, ScriptedKill};
use nkg_net::hub::{Hub, HubConfig};
use nkg_net::liveness::Liveness;
use nkg_net::port::RemotePort;
use nkg_net::router::{RouterCore, Verdict};
use nkg_net::Backend;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// Aggregate traffic counters for one run. Collectives are implemented with
/// point-to-point messages, so these counters capture *all* traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgStats {
    /// Total point-to-point messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

/// What one rank's communicator needs from its transport. The in-proc
/// backend satisfies it with a shared router; the framed backends with a
/// per-rank connection ([`RemotePort`]). `Comm` never learns which.
pub(crate) trait RankNet {
    /// Post one envelope to world rank `dst`. Panics `ScriptedKill` if the
    /// fault plan kills the sender at this post.
    fn post(&self, dst: usize, env: Envelope);
    /// Allocate `n` consecutive communicator contexts.
    fn alloc_ctx(&self, n: u64) -> u64;
    /// The liveness table this rank consults (shared in-proc; a local
    /// replica fed by death broadcasts on the framed backends).
    fn liveness(&self) -> &Arc<Liveness>;
    /// Record a heartbeat for this rank.
    fn beat(&self);
    /// Announce this rank's death (genuine panic unwinding).
    fn report_death(&self);
}

/// In-process backend: every rank shares one router; posts are judged and
/// delivered synchronously on the sender's thread.
pub(crate) struct InProcNet {
    core: Arc<RouterCore<Sender<Envelope>>>,
    rank: usize,
}

impl RankNet for InProcNet {
    fn post(&self, dst: usize, env: Envelope) {
        // In-proc ranks are never respawned mid-run, so the posting
        // incarnation is always the current one.
        let inc = self.core.liveness().incarnation(self.rank);
        match self.core.route(dst, env, inc) {
            Verdict::Posted => {}
            Verdict::Killed => std::panic::panic_any(ScriptedKill { rank: self.rank }),
        }
    }
    fn alloc_ctx(&self, n: u64) -> u64 {
        self.core.alloc_ctx(n)
    }
    fn liveness(&self) -> &Arc<Liveness> {
        self.core.liveness()
    }
    fn beat(&self) {
        self.core.liveness().beat(self.rank);
    }
    fn report_death(&self) {
        self.core.liveness().mark_dead(self.rank);
    }
}

/// Framed backend: the rank talks to the hub through its [`RemotePort`].
pub(crate) struct RemoteNet {
    pub(crate) port: Rc<RemotePort>,
}

impl RankNet for RemoteNet {
    fn post(&self, dst: usize, env: Envelope) {
        self.port.post(dst, env);
    }
    fn alloc_ctx(&self, n: u64) -> u64 {
        self.port.alloc_ctx(n)
    }
    fn liveness(&self) -> &Arc<Liveness> {
        self.port.liveness()
    }
    fn beat(&self) {
        self.port.beat();
    }
    fn report_death(&self) {
        self.port.report_death();
    }
}

/// Run one rank's program over an established transport: build the world
/// communicator, run `f`, and on an unwind report the death (scripted
/// kills are already announced by the transport itself). The caller
/// handles the success side (goodbye/result) because its protocol differs
/// between thread and process mode.
pub(crate) fn run_rank<R>(
    net: Rc<dyn RankNet>,
    mailbox: Rc<RefCell<Mailbox>>,
    rank: usize,
    world_size: usize,
    f: impl FnOnce(Comm) -> R,
) -> Result<R, Box<dyn std::any::Any + Send + 'static>> {
    let world = Comm::world(
        Rc::clone(&net),
        mailbox,
        rank,
        (0..world_size).collect::<Vec<_>>().into(),
    );
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(world))) {
        Ok(r) => Ok(r),
        Err(e) => {
            // Any unwind marks this rank dead so peers blocked on it
            // resolve to PeerDead promptly instead of waiting out the full
            // receive timeout. Scripted kills were already marked and
            // announced inside `post`.
            if e.downcast_ref::<ScriptedKill>().is_none() {
                net.report_death();
            }
            Err(e)
        }
    }
}

/// Outcome of a [`Universe::run_surviving`] call: per-rank results with
/// `None` for ranks the fault plan killed, the set of dead ranks, and the
/// plan's fired/match counters for determinism assertions.
#[derive(Debug)]
pub struct FaultRun<R> {
    /// Per-rank results in rank order; `None` where the rank was killed.
    pub results: Vec<Option<R>>,
    /// World ranks killed by the fault plan, in rank order.
    pub dead: Vec<usize>,
    /// Fault-plan counters for this run.
    pub stats: FaultStats,
}

/// Install (once per process) a panic hook that stays silent for scripted
/// kills — they are the *plan*, not a bug — while delegating every other
/// panic to the previous hook.
pub(crate) fn install_quiet_kill_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ScriptedKill>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// How a worker process is launched in [`Universe::spawn_processes`].
#[derive(Debug, Clone)]
pub struct ProcessOptions {
    /// Path to the worker binary (typically `nkg-rank`).
    pub worker: PathBuf,
    /// Name of the registered program the workers run.
    pub program: String,
    /// Extra environment variables passed to every worker.
    pub env: Vec<(String, String)>,
}

/// Outcome of one process-mode run. Unlike the thread backends, genuine
/// worker failures are *reported*, not propagated as panics — the launcher
/// is supervising foreign processes, and tests assert on the report.
#[derive(Debug)]
pub struct ProcessRun {
    /// Per-rank decoded results; `None` where the worker died.
    pub results: Vec<Option<Vec<f64>>>,
    /// World ranks that did not complete cleanly, in rank order.
    pub dead: Vec<usize>,
    /// Ranks that failed for reasons other than a scripted kill, with a
    /// description (exit code, signal, missing result).
    pub failures: Vec<(usize, String)>,
    /// Traffic counters for the run.
    pub stats: MsgStats,
    /// Fault-plan counters for the run.
    pub fault_stats: FaultStats,
    /// Supervised respawns performed during the run, in the order they
    /// happened (empty without a [`RestartPolicy`]).
    pub restarts: Vec<RestartEvent>,
}

/// A virtual parallel machine with a fixed number of ranks.
///
/// [`Universe::run`] executes one SPMD program: the closure is invoked once
/// per rank, on its own OS thread, with that rank's world [`Comm`]. The call
/// blocks until every rank returns and yields the per-rank results in rank
/// order.
///
/// The default receive timeout is 120 s; deadlocked programs therefore fail
/// with a panic naming the blocked `(ctx, src, tag)` instead of hanging.
///
/// A [`FaultPlan`] installed with [`Universe::with_fault_plan`] scripts
/// deterministic disasters — rank kills and message drop/delay/duplicate —
/// at the transport; run such programs with [`Universe::run_surviving`],
/// which reports killed ranks instead of panicking.
///
/// The transport [`Backend`] defaults to the `NKG_TRANSPORT` environment
/// variable (in-proc when unset); [`Universe::with_backend`] overrides it
/// per machine. All backends run the same router, so programs, fault
/// plans, and assertions carry across unchanged.
pub struct Universe {
    size: usize,
    recv_timeout: Duration,
    stats: Arc<(AtomicU64, AtomicU64)>,
    fault_plan: Option<FaultPlan>,
    backend: Backend,
    restart_policy: Option<RestartPolicy>,
}

impl Universe {
    /// Create a machine with `size` ranks, on the backend named by
    /// `NKG_TRANSPORT` (in-proc when unset).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a universe needs at least one rank");
        Self {
            size,
            recv_timeout: Duration::from_secs(120),
            stats: Arc::new((AtomicU64::new(0), AtomicU64::new(0))),
            fault_plan: None,
            backend: Backend::from_env(),
            restart_policy: None,
        }
    }

    /// Override the blocked-receive timeout (deadlock detector).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Install a fault plan. Every subsequent run applies it at the
    /// transport; mailboxes additionally deduplicate by sequence number so
    /// duplicated/retried deliveries are idempotent.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Select the transport backend explicitly (overrides `NKG_TRANSPORT`).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Supervise process-mode workers under `policy`: a worker that dies
    /// for a genuine reason (non-zero exit, signal — never a scripted
    /// kill) is respawned in place with the next incarnation number, up
    /// to the policy's per-rank budget. Only [`Universe::spawn_processes`]
    /// consults this; thread backends cannot respawn a rank.
    pub fn with_restart_policy(mut self, policy: RestartPolicy) -> Self {
        self.restart_policy = Some(policy);
        self
    }

    /// The transport backend this machine runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters accumulated across all `run` calls on this universe.
    pub fn stats(&self) -> MsgStats {
        MsgStats {
            messages: self.stats.0.load(Ordering::Relaxed),
            bytes: self.stats.1.load(Ordering::Relaxed),
        }
    }

    /// Run an SPMD program: one thread per rank, each receiving the world
    /// communicator. Returns per-rank results in rank order.
    ///
    /// # Panics
    /// Joins **all** rank threads, then propagates a combined panic naming
    /// every failed rank with its payload — a multi-rank failure reports
    /// the whole failed set, not an arbitrary first casualty. Also panics
    /// if an installed fault plan killed any rank; use
    /// [`Universe::run_surviving`] for programs expected to lose ranks.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let out = self.run_surviving(f);
        assert!(
            out.dead.is_empty(),
            "fault plan killed rank(s) {:?}; use run_surviving for runs that lose ranks",
            out.dead
        );
        out.results.into_iter().map(|r| r.unwrap()).collect()
    }

    /// Run an SPMD program that may lose ranks to the installed fault plan.
    ///
    /// Scripted kills are absorbed: the killed rank's result slot is `None`
    /// and its world rank is listed in [`FaultRun::dead`]. Genuine panics
    /// (assertion failures, deadlock timeouts) are still collected from
    /// *all* ranks and propagated as one combined panic.
    pub fn run_surviving<R, F>(&self, f: F) -> FaultRun<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        if self
            .fault_plan
            .as_ref()
            .is_some_and(|p| !p.kills.is_empty())
        {
            install_quiet_kill_hook();
        }
        match self.backend {
            Backend::InProc => self.run_inproc(f),
            Backend::Uds | Backend::Tcp => self.run_hubbed(f),
        }
    }

    /// The in-proc backend: one shared router, rank mailboxes wired
    /// directly to it by channels.
    fn run_inproc<R, F>(&self, f: F) -> FaultRun<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let n = self.size;
        let liveness = Arc::new(Liveness::new(n));
        let dedup = self.fault_plan.is_some();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let core = Arc::new(RouterCore::new(
            senders,
            Arc::clone(&liveness),
            self.fault_plan.clone(),
        ));
        let f = Arc::new(f);
        let mut handles = Vec::with_capacity(n);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let core = Arc::clone(&core);
            let liveness = Arc::clone(&liveness);
            let f = Arc::clone(&f);
            let timeout = self.recv_timeout;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    // Rank stacks host SEM/DPD workspaces in tests; 8 MiB is
                    // the Linux default but be explicit for portability.
                    .stack_size(8 << 20)
                    .spawn(move || {
                        let mailbox = Rc::new(RefCell::new(Mailbox::new(
                            rx,
                            timeout,
                            rank,
                            Arc::clone(&liveness),
                            dedup,
                        )));
                        let net: Rc<dyn RankNet> = Rc::new(InProcNet { core, rank });
                        match run_rank(net, mailbox, rank, n, |world| f(world)) {
                            Ok(r) => r,
                            Err(e) => std::panic::resume_unwind(e),
                        }
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        let (results, dead, failures) = join_ranks(handles);
        self.fold_traffic(core.messages(), core.bytes());
        let stats = core.fault_stats();
        raise_combined(n, failures);
        FaultRun {
            results,
            dead,
            stats,
        }
    }

    /// The framed thread backends (UDS / TCP): ranks
    /// are still threads, but every byte travels the same framed protocol
    /// a multi-process run uses, through a hub that owns the router.
    fn run_hubbed<R, F>(&self, f: F) -> FaultRun<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let n = self.size;
        let hub = Hub::new(HubConfig {
            world: n,
            plan: self.fault_plan.clone(),
            deliver_grace: self.recv_timeout,
        });
        // One duplex connection per rank; the hub adopts its half now, the
        // rank half rides into the rank thread and handshakes there.
        let mut rank_conns: Vec<(
            Box<dyn std::io::Read + Send>,
            Box<dyn std::io::Write + Send>,
        )> = Vec::with_capacity(n);
        match self.backend {
            Backend::Uds => {
                for _ in 0..n {
                    let (a, b) = std::os::unix::net::UnixStream::pair().expect("socketpair failed");
                    let (hr, hw) = split_unix(a).expect("split hub stream");
                    hub.adopt(hr, hw);
                    let (rr, rw) = split_unix(b).expect("split rank stream");
                    rank_conns.push((rr, rw));
                }
            }
            Backend::Tcp => {
                let listener =
                    std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
                let addr = listener.local_addr().expect("listener address");
                for _ in 0..n {
                    // The OS backlog completes the connect before accept.
                    let c = std::net::TcpStream::connect(addr).expect("loopback connect");
                    let (s, _) = listener.accept().expect("loopback accept");
                    let (hr, hw) = split_tcp(s).expect("split hub stream");
                    hub.adopt(hr, hw);
                    let (rr, rw) = split_tcp(c).expect("split rank stream");
                    rank_conns.push((rr, rw));
                }
            }
            Backend::InProc => unreachable!("in-proc runs never build a hub"),
        }
        let f = Arc::new(f);
        let mut handles = Vec::with_capacity(n);
        for (rank, (reader, writer)) in rank_conns.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let timeout = self.recv_timeout;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(8 << 20)
                    .spawn(move || {
                        let (port, env_rx) =
                            RemotePort::connect(reader, writer, rank, n, 0, timeout)
                                .unwrap_or_else(|e| panic!("rank {rank}: handshake failed: {e}"));
                        let port = Rc::new(port);
                        let mailbox = Rc::new(RefCell::new(Mailbox::new(
                            env_rx,
                            timeout,
                            rank,
                            Arc::clone(port.liveness()),
                            port.dedup(),
                        )));
                        let net: Rc<dyn RankNet> = Rc::new(RemoteNet {
                            port: Rc::clone(&port),
                        });
                        match run_rank(net, mailbox, rank, n, |world| f(world)) {
                            Ok(r) => {
                                port.goodbye();
                                r
                            }
                            Err(e) => std::panic::resume_unwind(e),
                        }
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        let (results, dead, failures) = join_ranks(handles);
        let report = hub.shutdown();
        self.fold_traffic(report.messages, report.bytes);
        raise_combined(n, failures);
        assert!(
            report.panics.is_empty(),
            "transport hub failed: {}",
            report.panics.join("; ")
        );
        FaultRun {
            results,
            dead,
            stats: report.fault_stats,
        }
    }

    /// Launch one OS process per rank over a real socket (UDS or TCP) and
    /// supervise them to completion.
    ///
    /// Each worker is `opts.worker` (typically the `nkg-rank` binary),
    /// told its rank, the hub endpoint, and the registered program to run
    /// through environment variables. The same hub, router, fault plan and
    /// liveness protocol as the thread backends apply; a worker that exits
    /// without a `Goodbye` — panic, abort, or death before it ever said
    /// `Hello` — is declared dead to its blocked peers immediately.
    ///
    /// # Panics
    /// Panics if the backend is not a socket backend, or if workers cannot
    /// be spawned at all. Worker *failures* do not panic; they are
    /// reported in [`ProcessRun::failures`].
    pub fn spawn_processes(&self, opts: &ProcessOptions) -> ProcessRun {
        let n = self.size;
        let hub = Arc::new(Hub::new(HubConfig {
            world: n,
            plan: self.fault_plan.clone(),
            deliver_grace: self.recv_timeout,
        }));

        enum Listener {
            Uds(std::os::unix::net::UnixListener),
            Tcp(std::net::TcpListener),
        }
        static SOCK_SEQ: AtomicUsize = AtomicUsize::new(0);
        let (listener, endpoint) = match self.backend {
            Backend::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "nkg-hub-{}-{}.sock",
                    std::process::id(),
                    SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let l = std::os::unix::net::UnixListener::bind(&path)
                    .unwrap_or_else(|e| panic!("bind {}: {e}", path.display()));
                l.set_nonblocking(true).expect("nonblocking listener");
                (Listener::Uds(l), Endpoint::Uds(path))
            }
            Backend::Tcp => {
                let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
                l.set_nonblocking(true).expect("nonblocking listener");
                let addr = l.local_addr().expect("listener address");
                (Listener::Tcp(l), Endpoint::Tcp(addr.to_string()))
            }
            other => panic!(
                "spawn_processes needs a socket backend (uds or tcp), not {}",
                other.name()
            ),
        };

        // Acceptor: adopt every connection until told to stop. Workers
        // self-identify in the handshake, so accept order is irrelevant.
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("nkg-acceptor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let adopted = match &listener {
                            Listener::Uds(l) => match l.accept() {
                                Ok((s, _)) => {
                                    s.set_nonblocking(false).expect("blocking stream");
                                    let (r, w) = split_unix(s).expect("split worker stream");
                                    hub.adopt(r, w);
                                    true
                                }
                                Err(_) => false,
                            },
                            Listener::Tcp(l) => match l.accept() {
                                Ok((s, _)) => {
                                    s.set_nonblocking(false).expect("blocking stream");
                                    let (r, w) = split_tcp(s).expect("split worker stream");
                                    hub.adopt(r, w);
                                    true
                                }
                                Err(_) => false,
                            },
                        };
                        if !adopted {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })
                .expect("failed to spawn acceptor thread")
        };

        // One spawner shared by the initial launch and supervised
        // respawns: only the incarnation env var differs per attempt.
        let spawn_worker = {
            let opts = opts.clone();
            let endpoint_str = endpoint.to_string();
            let timeout_ms = self.recv_timeout.as_millis().to_string();
            // Topology placement: all n ranks are co-scheduled on this
            // host, so each gets an equal share of its cores as rayon
            // pool width. Callers override via `opts.env` (set after).
            let pool_width = nkg_topo::rank_pool_width(
                std::thread::available_parallelism().map_or(1, |c| c.get()),
                n,
            )
            .to_string();
            Arc::new(
                move |rank: usize, incarnation: u64| -> std::process::Child {
                    let mut cmd = std::process::Command::new(&opts.worker);
                    cmd.env(ENV_RANK, rank.to_string())
                        .env(ENV_WORLD, n.to_string())
                        .env(ENV_CONNECT, &endpoint_str)
                        .env(ENV_PROGRAM, &opts.program)
                        .env(ENV_TIMEOUT_MS, &timeout_ms)
                        .env(ENV_INCARNATION, incarnation.to_string())
                        .env(ENV_POOL_WIDTH, &pool_width);
                    for (k, v) in &opts.env {
                        cmd.env(k, v);
                    }
                    cmd.spawn()
                        .unwrap_or_else(|e| panic!("spawn worker {}: {e}", opts.worker.display()))
                },
            )
        };
        let children: Vec<std::process::Child> = (0..n).map(|rank| spawn_worker(rank, 0)).collect();

        // One supervisor per worker: the *instant* a worker exits without
        // a Goodbye it is declared dead, so peers blocked on it unblock
        // even if it died before ever reaching the hub (no Hello, no
        // pump). Under a restart policy the supervisor then respawns
        // genuinely-failed workers in place — backoff, next incarnation —
        // until the rank completes or its restart budget is spent.
        let restart_log: Arc<Mutex<Vec<RestartEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let watchers: Vec<_> = children
            .into_iter()
            .enumerate()
            .map(|(rank, child)| {
                let hub = Arc::clone(&hub);
                let policy = self.restart_policy.clone();
                let spawn_worker = Arc::clone(&spawn_worker);
                let restart_log = Arc::clone(&restart_log);
                std::thread::Builder::new()
                    .name(format!("nkg-watch-{rank}"))
                    .spawn(move || {
                        let mut child = child;
                        let mut incarnation: u64 = 0;
                        loop {
                            let status = child.wait().expect("wait on worker");
                            if !hub.handshaken(rank, incarnation) {
                                // This incarnation died before completing
                                // a handshake: no pump owns it, so only
                                // the launcher can declare it dead.
                                hub.force_dead(rank, incarnation);
                            } else if status.success() {
                                // A successful exit wrote Result + Goodbye
                                // before exiting — but `wait()` can win
                                // the race against the pump still draining
                                // those frames from the socket buffer.
                                // Grant a grace window before treating the
                                // silence as death (a worker that exits 0
                                // *without* a Goodbye is still caught
                                // after it).
                                let deadline = Instant::now() + Duration::from_secs(10);
                                while !hub.finished(rank) && Instant::now() < deadline {
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                if !hub.finished(rank) {
                                    hub.force_dead(rank, incarnation);
                                }
                            }
                            // Connected + non-success exit: the pump
                            // drains the rank's in-flight frames in order
                            // and announces death at EOF/Dying; forcing
                            // death here would overtake messages the rank
                            // sent before dying.

                            // Restart decision. A scripted kill (exit 86)
                            // is a *plan*, never respawned; a clean exit
                            // needs no help.
                            let cause = match status.code() {
                                Some(EXIT_OK) | Some(EXIT_SCRIPTED_KILL) => None,
                                Some(code) => Some(RestartCause::ExitCode(code)),
                                None => Some(RestartCause::Signal),
                            };
                            let (Some(cause), Some(policy)) = (cause, policy.as_ref()) else {
                                return (rank, status);
                            };
                            let attempt = incarnation + 1;
                            if !policy.allows(attempt) {
                                return (rank, status);
                            }
                            let delay = policy.delay(rank, attempt);
                            // The backoff (floored above death-detection
                            // latency) must elapse *before* the respawn,
                            // so the old incarnation's death is observed
                            // everywhere before the new one says Hello.
                            std::thread::sleep(delay);
                            incarnation = attempt;
                            restart_log.lock().unwrap().push(RestartEvent {
                                rank,
                                incarnation,
                                delay,
                                cause,
                            });
                            child = spawn_worker(rank, incarnation);
                        }
                    })
                    .expect("failed to spawn watcher thread")
            })
            .collect();
        let mut statuses: Vec<Option<std::process::ExitStatus>> = (0..n).map(|_| None).collect();
        for w in watchers {
            let (rank, status) = w.join().expect("watcher thread panicked");
            statuses[rank] = Some(status);
        }

        stop.store(true, Ordering::Release);
        acceptor.join().expect("acceptor thread panicked");
        let report = Arc::try_unwrap(hub)
            .unwrap_or_else(|_| unreachable!("all hub holders joined"))
            .shutdown();
        if let Endpoint::Uds(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }

        let mut results: Vec<Option<Vec<f64>>> = (0..n).map(|_| None).collect();
        let mut dead = Vec::new();
        let mut failures = Vec::new();
        for (rank, status) in statuses.iter().enumerate() {
            let status = status.expect("every worker has a status");
            match status.code() {
                Some(EXIT_OK) => match &report.results[rank] {
                    Some(data) => results[rank] = Some(nkg_net::wire::decode(data)),
                    None => {
                        dead.push(rank);
                        failures.push((rank, "worker exited 0 without reporting a result".into()));
                    }
                },
                Some(EXIT_SCRIPTED_KILL) => dead.push(rank),
                Some(code) => {
                    dead.push(rank);
                    failures.push((rank, format!("worker exited with code {code}")));
                }
                None => {
                    dead.push(rank);
                    failures.push((rank, format!("worker killed by signal ({status})")));
                }
            }
        }
        self.fold_traffic(report.messages, report.bytes);
        let restarts = Arc::try_unwrap(restart_log)
            .unwrap_or_else(|_| unreachable!("all watchers joined"))
            .into_inner()
            .unwrap();
        ProcessRun {
            results,
            dead,
            failures,
            stats: MsgStats {
                messages: report.messages,
                bytes: report.bytes,
            },
            fault_stats: report.fault_stats,
            restarts,
        }
    }

    /// Fold one run's traffic into the universe-level counters.
    fn fold_traffic(&self, messages: u64, bytes: u64) {
        self.stats.0.fetch_add(messages, Ordering::Relaxed);
        self.stats.1.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Join all rank threads, sorting outcomes into results / scripted-kill
/// deaths / genuine failures.
type Joined<R> = (Vec<Option<R>>, Vec<usize>, Vec<(usize, String)>);
fn join_ranks<R>(handles: Vec<std::thread::JoinHandle<R>>) -> Joined<R> {
    let mut results = Vec::with_capacity(handles.len());
    let mut dead = Vec::new();
    let mut failures = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(r) => results.push(Some(r)),
            Err(e) => {
                results.push(None);
                if e.downcast_ref::<ScriptedKill>().is_some() {
                    dead.push(rank);
                } else {
                    failures.push((rank, nkg_net::panic_message(e.as_ref())));
                }
            }
        }
    }
    (results, dead, failures)
}

/// Propagate genuine rank panics as one combined panic naming every
/// failed rank.
fn raise_combined(n: usize, failures: Vec<(usize, String)>) {
    if failures.is_empty() {
        return;
    }
    let ranks: Vec<usize> = failures.iter().map(|(r, _)| *r).collect();
    let detail: Vec<String> = failures
        .iter()
        .map(|(r, msg)| format!("rank {r}: {msg}"))
        .collect();
    panic!(
        "{}/{} ranks panicked (failed ranks {:?}) — {}",
        failures.len(),
        n,
        ranks,
        detail.join("; ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkg_net::fault::{MsgAction, MsgMatcher, Pick};

    #[test]
    fn single_rank_runs() {
        let u = Universe::new(1);
        let out = u.run(|comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            7
        });
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn results_in_rank_order() {
        let u = Universe::new(8);
        let out = u.run(|comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = Universe::new(0);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        let u = Universe::new(3);
        u.run(|comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn all_rank_panics_reported() {
        let u = Universe::new(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            u.run(|comm| {
                if comm.rank() % 2 == 1 {
                    panic!("boom-{}", comm.rank());
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("2/4 ranks panicked"), "got: {msg}");
        assert!(msg.contains("[1, 3]"), "got: {msg}");
        assert!(msg.contains("rank 1: boom-1"), "got: {msg}");
        assert!(msg.contains("rank 3: boom-3"), "got: {msg}");
    }

    #[test]
    fn stats_accumulate() {
        let u = Universe::new(2);
        u.run(|comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64, 2.0], 1, 5);
            } else {
                let v: Vec<f64> = comm.recv(0, 5);
                assert_eq!(v, vec![1.0, 2.0]);
            }
        });
        let s = u.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.bytes, 16);
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn deadlock_detected() {
        let u = Universe::new(2).with_recv_timeout(Duration::from_millis(100));
        u.run(|comm| {
            if comm.rank() == 0 {
                // Nobody ever sends this message.
                let _: Vec<f64> = comm.recv(1, 9);
            }
        });
    }

    #[test]
    fn scripted_kill_reported_not_propagated() {
        let u = Universe::new(3).with_fault_plan(FaultPlan::new().kill_rank(2, 1));
        let out = u.run_surviving(|comm| {
            if comm.rank() == 2 {
                // This send is rank 2's first post: it dies here.
                comm.send(&[1.0f64], 0, 3);
                unreachable!("rank 2 must die on its first send");
            }
            comm.rank()
        });
        assert_eq!(out.dead, vec![2]);
        assert_eq!(out.results[0], Some(0));
        assert_eq!(out.results[1], Some(1));
        assert_eq!(out.results[2], None);
        assert_eq!(out.stats.sends_per_rank[2], 1);
    }

    #[test]
    fn duplicate_rule_is_invisible_to_receiver() {
        let plan =
            FaultPlan::new().with_rule(MsgMatcher::flow(0, 1), Pick::Always, MsgAction::Duplicate);
        let u = Universe::new(2).with_fault_plan(plan);
        let out = u.run_surviving(|comm| {
            if comm.rank() == 0 {
                comm.send(&[4.0f64, 5.0], 1, 7);
                0.0
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                assert_eq!(v, vec![4.0, 5.0]);
                // The duplicate was dropped by seq dedup, so a second
                // receive would block; verify nothing extra is pending.
                std::thread::sleep(Duration::from_millis(20));
                v.iter().sum()
            }
        });
        assert!(out.dead.is_empty());
        assert_eq!(out.results[1], Some(9.0));
        assert_eq!(out.stats.rule_fired, vec![1]);
    }

    #[test]
    fn delay_rule_reorders_flow() {
        // Delay the first message on 0→1 until one later message on the
        // same flow has been delivered; the receiver still gets both by
        // tag, just in swapped arrival order.
        let plan = FaultPlan::new().with_rule(
            MsgMatcher::flow(0, 1),
            Pick::Nth(1),
            MsgAction::Delay { after_flow_msgs: 1 },
        );
        let u = Universe::new(2).with_fault_plan(plan);
        let out = u.run_surviving(|comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64], 1, 11);
                comm.send(&[2.0f64], 1, 12);
                vec![]
            } else {
                // Receive in reverse tag order to show both arrived.
                let b: Vec<f64> = comm.recv(0, 12);
                let a: Vec<f64> = comm.recv(0, 11);
                vec![a[0], b[0]]
            }
        });
        assert!(out.dead.is_empty());
        assert_eq!(out.results[1], Some(vec![1.0, 2.0]));
    }

    #[test]
    fn drop_rule_counts_fire() {
        let plan = FaultPlan::new().with_rule(
            MsgMatcher::flow(0, 1).with_tag(5),
            Pick::Nth(1),
            MsgAction::Drop,
        );
        let u = Universe::new(2).with_fault_plan(plan);
        let out = u.run_surviving(|comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64], 1, 5); // dropped
                comm.send(&[2.0f64], 1, 5); // delivered
            } else {
                let v: Vec<f64> = comm.recv(0, 5);
                assert_eq!(v, vec![2.0]);
            }
        });
        assert!(out.dead.is_empty());
        assert_eq!(out.stats.rule_matches, vec![2]);
        assert_eq!(out.stats.rule_fired, vec![1]);
    }

    #[test]
    fn explicit_backend_overrides_env() {
        let u = Universe::new(2).with_backend(Backend::Tcp);
        assert_eq!(u.backend(), Backend::Tcp);
        let out = u.run(|comm| comm.allreduce_sum(&[comm.rank() as f64 + 1.0])[0]);
        assert_eq!(out, vec![3.0, 3.0]);
    }
}
