//! The coordinator side of the process engine: listen, spawn W
//! workers, relay their traffic, collect final states, merge
//! accounting.
//!
//! Topology is a star: every worker holds exactly one TCP connection —
//! to the coordinator — and worker-to-worker messages travel as
//! `Route` frames that the coordinator forwards as `Deliver` frames.
//! The relay preserves per-(sender, receiver) FIFO order (one reader
//! thread per source reads frames in order and appends to the
//! destination's write queue in order), which is the property Safra's
//! message counting needs: a token can never overtake the basic
//! messages sent before it on the same path.
//!
//! Crash semantics: a worker connection that ends before its `Final`
//! frame is a dead worker. With a respawn budget the coordinator is a
//! `Supervisor`: it fences the ring in a fresh epoch, respawns the
//! position and hands it its shard's latest retained snapshots back in
//! a re-`Assign`; when the budget is spent the survivors adopt the
//! shard. With a budget of zero (or no survivor left) it broadcasts
//! `Terminate` so the surviving workers (whose token ring is now broken
//! and would otherwise block forever) finish up and report, then
//! returns a non-quiescent result listing the failures. Non-quiescent
//! termination fires the flight-recorder trigger, so a killed worker
//! produces a dump, not a hang.

use super::proto::{
    decode_ctrl, encode_ctrl, is_final, Assign, CtrlMsg, FinalReport, Handoff, JobSpec,
    PROTOCOL_VERSION,
};
use super::{frame, NetError};
use crate::executor::{join_reports, Msg};
use crate::faults::FaultStats;
use crate::reliable::LinkCounters;
use crate::WorkerStats;
use calm_obs::{ArgValue, Obs};
use calm_transducer::runtime::{FinalStates, Metrics};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ephemeral-port binding is retried: a transient `EADDRINUSE` (the OS
/// briefly exhausting the ephemeral range under parallel test load)
/// should not fail the run.
const BIND_RETRIES: u32 = 5;
const BIND_BACKOFF: Duration = Duration::from_millis(50);

/// How long the coordinator waits for all W workers to connect and say
/// hello. Covers process spawn latency; a worker that dies before
/// connecting surfaces here.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(30);

/// Per-stream timeout for the `Hello` frame once a connection is
/// accepted (a connected-but-silent peer must not stall the others).
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// After a worker failure, how long the coordinator waits for the
/// survivors to honor the `Terminate` broadcast and report their
/// finals before giving up on them too.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Poll granularity of the event loop.
const TICK: Duration = Duration::from_millis(50);

/// Parameters of a process-engine run.
pub struct ProcessConfig {
    /// Worker processes. Clamped to `[1, |N|]` like the threaded
    /// engine's worker count.
    pub procs: usize,
    /// The job, handed to every worker. `trace_prefix` / `flight_path`
    /// here are the *base* paths; the coordinator suffixes them per
    /// worker (`PREFIX.worker3`, plus `.rN` per respawn) before sending
    /// each `Assign`, so concurrent writers never share a file.
    pub spec: JobSpec,
    /// Respawns allowed per ring position before its shard is adopted
    /// by survivors. `0` disables supervision entirely: no snapshot
    /// retention, no heartbeats, and a worker death aborts the run the
    /// PR 8 way (Terminate broadcast, non-quiescent result, flight
    /// dump).
    pub respawn_budget: u32,
    /// Backoff before the first respawn of a position; doubled on each
    /// further respawn of the same position.
    pub respawn_backoff: Duration,
    /// How long the handshake barrier waits for all W workers to
    /// connect *and* say Hello. A worker that misses it is named in the
    /// error (nonzero exit, never a hang).
    pub handshake_deadline: Duration,
    /// Supervised runs only: a worker whose last frame (heartbeats
    /// count) is older than this is declared hung, killed, and handled
    /// exactly like a dead socket. `None` disables the check.
    pub liveness_timeout: Option<Duration>,
}

impl ProcessConfig {
    /// `procs` workers with default supervision: a small respawn
    /// budget, exponential backoff from 100ms, the standard handshake
    /// deadline, and a 10s liveness timeout.
    pub fn new(procs: usize, spec: JobSpec) -> ProcessConfig {
        ProcessConfig {
            procs,
            spec,
            respawn_budget: 3,
            respawn_backoff: Duration::from_millis(100),
            handshake_deadline: HANDSHAKE_DEADLINE,
            liveness_timeout: Some(Duration::from_secs(10)),
        }
    }

    /// Override the respawn budget (0 restores the PR 8 abort path).
    pub fn with_respawn_budget(mut self, budget: u32) -> ProcessConfig {
        self.respawn_budget = budget;
        self
    }
}

/// A spawned worker, however it was started: a real OS process (the
/// CLI re-invoking its own binary as `calm net-worker`) or a thread
/// driving [`run_net_worker`](super::run_net_worker) directly (the
/// equivalence tests, which still exercise real TCP sockets).
pub enum SpawnHandle {
    /// An OS child process.
    Process(std::process::Child),
    /// An in-process worker thread.
    Thread(std::thread::JoinHandle<()>),
}

/// Starts worker `k`, telling it the coordinator's address.
pub type Spawner<'a> = dyn Fn(usize, &str) -> Result<SpawnHandle, String> + 'a;

/// The result of a process-engine run. Same accounting as
/// [`ThreadedRunResult`](crate::ThreadedRunResult) minus the output
/// instance: the transport is program-agnostic, so the caller (which
/// knows the output schema) asks `states` for `out(R)`
/// ([`FinalStates::united`], [`FinalStates::output`]).
#[derive(Debug)]
pub struct ProcessRunResult {
    /// Final per-node states (missing the nodes of failed workers), as
    /// the rows each `Final` frame was read into.
    pub states: FinalStates,
    /// Merged run counters (fold of per-worker metrics in worker
    /// order).
    pub metrics: Metrics,
    /// Per-worker accounting, in worker order; failed workers are
    /// absent.
    pub per_worker: Vec<WorkerStats>,
    /// Every worker reported, clean. `false` whenever `failed_workers`
    /// is non-empty.
    pub quiescent: bool,
    /// Workers whose connection ended before their `Final` frame (or
    /// that never honored the drain deadline) and whose shard could not
    /// be recovered. Empty when every death was absorbed by a respawn
    /// or an adoption.
    pub failed_workers: Vec<usize>,
    /// Ring positions whose respawn budget ran out and whose shard was
    /// re-assigned to survivors (graceful degradation — the run can
    /// still be quiescent and byte-identical).
    pub adopted_workers: Vec<usize>,
    /// Worker processes respawned by the supervisor over the run.
    pub respawns: u64,
    /// Merged fault counters. Each failed worker adds one `crashes`
    /// tick on top of whatever the survivors report.
    pub faults: FaultStats,
    /// Merged per-link wire accounting.
    pub link_counters: BTreeMap<(usize, usize), LinkCounters>,
    /// Merged delta-encoded payload bytes (workers count them exactly
    /// as the threaded engine does — the transport framing itself is
    /// not payload and is not counted).
    pub wire_bytes: u64,
}

impl ProcessRunResult {
    /// Total ring hops across workers.
    pub fn token_passes(&self) -> u64 {
        self.per_worker.iter().map(|w| w.token_passes).sum()
    }
}

// Short-lived channel payloads, one in flight per worker thread — the
// variant size spread does not matter.
#[allow(clippy::large_enum_variant)]
enum Event {
    /// `(worker, incarnation, report)` — a final report. The
    /// incarnation tag lets the supervisor ignore frames from an
    /// incarnation it already replaced.
    Final(usize, u64, FinalReport),
    /// The connection ended (cleanly or not) — only a failure if no
    /// `Final` was seen first from the *same* incarnation.
    Gone(usize, u64, String),
    /// `(worker, node, version, blob)` — a shipped checkpoint to
    /// retain (keep the highest version per node).
    Snapshot(usize, usize, u64, Vec<u8>),
    /// Liveness beacon from a worker.
    Heartbeat(usize),
    /// A relayed `Route` carried `Msg::Terminate`: the ring concluded.
    /// A death after this point only needs a respawn + immediate
    /// Terminate (no ring recovery — the survivors are already gone).
    TerminateSeen,
}

fn bind_with_retry() -> Result<TcpListener, NetError> {
    let mut last: Option<std::io::Error> = None;
    for _ in 0..BIND_RETRIES {
        match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => return Ok(l),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(BIND_BACKOFF);
            }
        }
    }
    Err(NetError::Listen(last.expect("at least one bind attempt")))
}

fn suffixed(base: &Option<String>, worker: usize, incarnation: u64) -> Option<String> {
    base.as_ref().map(|p| {
        if incarnation == 0 {
            format!("{p}.worker{worker}")
        } else {
            // A respawn must not clobber the dead incarnation's dump —
            // that file is the post-mortem.
            format!("{p}.worker{worker}.r{incarnation}")
        }
    })
}

/// One accepted connection's Hello verdict: a worker that spoke, or a
/// dud connection (connected, then hung up / went silent) that should
/// not doom the barrier while the deadline still has time on it.
enum HelloOutcome {
    Worker(usize, TcpStream),
    Dud(String),
}

/// Read an accepted connection's `Hello`, enforcing the protocol
/// version. The read timeout is capped by the remaining barrier time, so
/// a connected-but-silent peer cannot stall past the deadline.
fn read_hello(mut stream: TcpStream, deadline: Instant) -> Result<HelloOutcome, NetError> {
    stream.set_nodelay(true).ok();
    let remaining = deadline.saturating_duration_since(Instant::now());
    let timeout = remaining.clamp(Duration::from_millis(10), HELLO_TIMEOUT);
    stream.set_read_timeout(Some(timeout)).ok();
    // A connection that never produces a Hello frame is a dud, not a
    // fatal barrier failure: other workers may still be dialing in, and
    // the barrier's own deadline decides when to give up.
    let payload = match frame::read_frame(&mut stream) {
        Ok(p) => p,
        Err(e) => return Ok(HelloOutcome::Dud(format!("hello frame: {e}"))),
    };
    let (version, worker) = match decode_ctrl(&payload) {
        Ok(CtrlMsg::Hello { version, worker }) => (version, worker),
        Ok(_) => return Err(NetError::Handshake("first frame was not Hello".into())),
        Err(e) => return Err(NetError::Handshake(format!("hello did not decode: {e}"))),
    };
    if version != PROTOCOL_VERSION {
        return Err(NetError::Handshake(format!(
            "worker {worker} speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"
        )));
    }
    stream.set_read_timeout(None).ok();
    Ok(HelloOutcome::Worker(worker, stream))
}

/// A Hello verdict, as the acceptor hands it over.
type Verdict = Result<HelloOutcome, NetError>;

/// Accept connections on `listener` for the whole run, reading each
/// one's Hello in turn — a silent peer waits out at most `wait` — and
/// handing the verdict over `verdicts`. Ends at the first connection made
/// once the run stopped listening. A run has one per worker and one more:
/// a silent peer holds up one of them, and no other Hello.
fn accept_hellos(listener: TcpListener, wait: Duration, verdicts: Sender<Verdict>) {
    while let Ok((stream, _)) = listener.accept() {
        let verdict = read_hello(stream, Instant::now() + wait);
        if verdicts.send(verdict).is_err() {
            return;
        }
    }
}

/// Take Hello verdicts until each of the ring positions `workers` spoke,
/// enforcing protocol version and index uniqueness; the streams, in
/// position order. A connection is taken the moment it is made. A
/// failure names the positions still missing, so a worker that never
/// connects, or never speaks, is an error, not a hang.
fn handshake(
    verdict: &Receiver<Verdict>,
    workers: std::ops::Range<usize>,
    deadline: Duration,
) -> Result<Vec<TcpStream>, NetError> {
    let deadline = Instant::now() + deadline;
    let mut streams: Vec<Option<TcpStream>> = workers.clone().map(|_| None).collect();
    let mut last_dud: Option<String> = None;
    while streams.iter().any(Option::is_none) {
        let missing: Vec<String> = (workers.clone().zip(&streams))
            .filter(|(_, s)| s.is_none())
            .map(|(k, _)| k.to_string())
            .collect();
        let left = deadline.saturating_duration_since(Instant::now());
        let outcome = verdict
            .recv_timeout(left)
            .unwrap_or_else(|_| Err(NetError::Handshake("never connected".into())));
        let (worker, stream) = match outcome {
            Ok(HelloOutcome::Worker(w, s)) => (w, s),
            Ok(HelloOutcome::Dud(why)) => {
                // A connection that went silent before Hello. Keep
                // accepting (the real worker may still be coming) until
                // the barrier deadline names whoever never made it.
                last_dud = Some(why);
                continue;
            }
            Err(NetError::Handshake(msg)) => {
                let msg = match &last_dud {
                    Some(dud) => format!("{msg} (a connection stalled earlier: {dud})"),
                    None => msg,
                };
                return Err(NetError::Handshake(format!(
                    "worker(s) {} missing from the handshake barrier: {msg}",
                    missing.join(",")
                )));
            }
            Err(e) => return Err(e),
        };
        if !workers.contains(&worker) {
            return Err(NetError::Handshake(format!(
                "worker index {worker} out of range (W = {})",
                workers.end
            )));
        }
        if streams[worker - workers.start].replace(stream).is_some() {
            return Err(NetError::Handshake(format!(
                "duplicate worker index {worker}"
            )));
        }
    }
    Ok(streams.into_iter().flatten().collect())
}

/// Lock the shared writer table, recovering from poisoning. A relay
/// thread that panics while holding this lock must degrade into the
/// counted link-fault path — its traffic is lost and re-covered by the
/// senders' retransmissions — not poison every other relay and abort
/// the coordinator. The table stays structurally valid across a
/// poisoned section: it only ever sees whole-`Sender` pushes and
/// single-slot swaps, never a partially-written entry.
fn lock_writers(
    writers: &Mutex<Vec<Sender<Vec<u8>>>>,
) -> std::sync::MutexGuard<'_, Vec<Sender<Vec<u8>>>> {
    writers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One worker's relay reader: decode frames and forward. `Route`
/// frames go straight onto the destination's write queue (single
/// reader per source + in-order queue append = per-link FIFO through
/// the star). `Final` — read into rows here, on the source's own thread,
/// under the span `net/final.decode` — goes to the collector. Any
/// transport or protocol error ends the stream and reports `Gone`.
fn relay_reader(
    src: usize,
    incarnation: u64,
    mut stream: TcpStream,
    writers: Arc<Mutex<Vec<Sender<Vec<u8>>>>>,
    events: Sender<Event>,
    obs: Obs,
) {
    let why = loop {
        let payload = match frame::read_frame(&mut stream) {
            Ok(p) => p,
            Err(frame::FrameError::Closed) => break "closed".to_string(),
            Err(e) => break e.to_string(),
        };
        let _span = is_final(&payload).then(|| {
            obs.counter("net", "final.bytes", payload.len() as u64);
            obs.span_on("net", src as u32 + 1, || "final.decode".to_string())
        });
        match decode_ctrl(&payload) {
            Ok(CtrlMsg::Route { dst, msg }) => {
                if matches!(msg, Msg::Terminate) {
                    let _ = events.send(Event::TerminateSeen);
                }
                // The writer table is shared so a respawn can swap in
                // the new incarnation's queue: routes resolve at
                // delivery time, never against a stale snapshot of the
                // fabric. A send to a dead worker's queue fails; the
                // loss is re-covered by the sender's retransmissions.
                let writers = lock_writers(&writers);
                if dst >= writers.len() {
                    break format!("route to out-of-range worker {dst}");
                }
                let _ = writers[dst].send(encode_ctrl(&CtrlMsg::Deliver(msg)));
            }
            Ok(CtrlMsg::Final(report)) => {
                let _ = events.send(Event::Final(src, incarnation, report));
            }
            Ok(CtrlMsg::Snapshot {
                node,
                version,
                blob,
            }) => {
                let _ = events.send(Event::Snapshot(src, node, version, blob));
            }
            Ok(CtrlMsg::Heartbeat { .. }) => {
                let _ = events.send(Event::Heartbeat(src));
            }
            Ok(_) => break "out-of-phase control frame".to_string(),
            Err(e) => break format!("frame did not decode: {e}"),
        }
    };
    let _ = events.send(Event::Gone(src, incarnation, why));
}

/// One worker's relay writer: drain the queue onto the socket. A write
/// failure ends the thread — the reader side of the same worker
/// reports the loss.
fn relay_writer(mut stream: TcpStream, queue: std::sync::mpsc::Receiver<Vec<u8>>) {
    while let Ok(payload) = queue.recv() {
        if frame::write_frame(&mut stream, &payload).is_err() {
            break;
        }
    }
}

/// Reap a spawn handle: give an OS child a moment to exit on its own
/// (workers exit right after their `Final`), then kill it; join
/// threads (unblocked by the stream shutdowns that precede reaping).
fn reap(handle: SpawnHandle) {
    match handle {
        SpawnHandle::Process(mut child) => {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => return,
                    Ok(None) if Instant::now() > deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                    Err(_) => return,
                }
            }
        }
        SpawnHandle::Thread(handle) => {
            let _ = handle.join();
        }
    }
}

/// Keep a shipped checkpoint of `node` unless a later version is held.
fn retain(
    retained: &mut BTreeMap<usize, (u64, Vec<u8>)>,
    node: usize,
    version: u64,
    blob: Vec<u8>,
) {
    if retained.get(&node).is_none_or(|(held, _)| *held <= version) {
        retained.insert(node, (version, blob));
    }
}

/// The nodes worker `k` owns.
fn owned_by(k: usize, owner: &[usize]) -> impl Iterator<Item = usize> + '_ {
    (0..owner.len()).filter(move |&g| owner[g] == k)
}

/// The retained checkpoints of `nodes` as `(node, version, blob)`: what
/// a [`Handoff`] carries, to a respawned worker in its re-`Assign` and
/// to an adoptive one in a `Reassign`. A node that never shipped one is
/// left out — its fresh start is its committed history.
fn handed_back(
    nodes: impl IntoIterator<Item = usize>,
    retained: &BTreeMap<usize, (u64, Vec<u8>)>,
) -> Vec<(usize, u64, Vec<u8>)> {
    let held = |g| retained.get(&g).map(|(v, b)| (g, *v, b.clone()));
    nodes.into_iter().filter_map(held).collect()
}

/// Deal dead position `k`'s nodes round-robin over `survivors` (not
/// empty) in `owner`. Returns what each survivor adopts.
fn deal(k: usize, owner: &mut [usize], survivors: &[usize]) -> BTreeMap<usize, Vec<usize>> {
    let mut adopts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut turn = survivors.iter().cycle();
    for (g, o) in owner.iter_mut().enumerate() {
        if *o == k {
            *o = *turn.next().expect("a survivor to adopt");
            adopts.entry(*o).or_default().push(g);
        }
    }
    adopts
}

/// Whether position `k` still owes its final report: it has not
/// reported, its shard has not been adopted, and it has not failed.
/// The run is done when no position does.
fn owes_final(k: usize, finals: &[Option<FinalReport>], live: &[bool], failed: &[usize]) -> bool {
    finals[k].is_none() && live[k] && !failed.contains(&k)
}

/// The coordinator of one process-engine run: the worker processes,
/// the relay between them, and — when the respawn budget is not zero —
/// their supervision. Without supervision a death fails the run:
/// Terminate is broadcast, the survivors drain.
struct Supervisor<'a> {
    cfg: &'a ProcessConfig,
    spawner: &'a Spawner<'a>,
    obs: &'a Obs,
    workers: usize,
    supervised: bool,
    /// The Hello verdicts of the connections made to `addr`.
    hellos: Receiver<Verdict>,
    addr: String,

    // The relay fabric.
    /// Per-position write queues, behind a shared lock so that routes
    /// resolve at delivery time and a respawn can swap the dead
    /// position's queue for the new incarnation's. A position's queue
    /// is closed until its worker is wired in.
    writers: Arc<Mutex<Vec<Sender<Vec<u8>>>>>,
    /// What the relay readers report through. Dropped after the start
    /// of an unsupervised run, whose receiver must disconnect once
    /// every reader has exited.
    events_tx: Option<Sender<Event>>,
    events_rx: Receiver<Event>,
    reader_threads: Vec<JoinHandle<()>>,
    writer_threads: Vec<JoinHandle<()>>,
    shutdown_streams: Vec<Option<TcpStream>>,
    handles: Vec<Option<SpawnHandle>>,

    // The ring positions.
    finals: Vec<Option<FinalReport>>,
    failed: Vec<usize>,
    adopted: Vec<usize>,
    incarnation: Vec<u64>,
    respawns_left: Vec<u32>,
    last_seen: Vec<Instant>,
    live: Vec<bool>,
    owner: Vec<usize>,
    /// Node → the latest checkpoint its worker shipped.
    retained: BTreeMap<usize, (u64, Vec<u8>)>,
    ring_epoch: u64,
    /// A relayed `Route` carried `Msg::Terminate`: the ring concluded.
    terminate_seen: bool,
    /// Set once this coordinator has broadcast `Terminate` itself: when
    /// it stops waiting for the survivors' reports.
    drain_deadline: Option<Instant>,
    respawns: u64,
    downs: u64,
}

impl<'a> Supervisor<'a> {
    fn new(
        cfg: &'a ProcessConfig,
        spawner: &'a Spawner<'a>,
        obs: &'a Obs,
    ) -> Result<Supervisor<'a>, NetError> {
        let workers = cfg.procs.clamp(1, cfg.spec.nodes.max(1));
        let listener = bind_with_retry()?;
        let addr = listener.local_addr().map_err(NetError::Listen)?.to_string();
        let (verdicts, hellos) = std::sync::mpsc::channel();
        let wait = cfg.handshake_deadline;
        let listeners: Result<Vec<_>, _> = (0..=workers).map(|_| listener.try_clone()).collect();
        for listener in listeners.map_err(NetError::Listen)? {
            let verdicts = verdicts.clone();
            std::thread::spawn(move || accept_hellos(listener, wait, verdicts));
        }
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let closed = |_| std::sync::mpsc::channel().0;
        Ok(Supervisor {
            cfg,
            spawner,
            obs,
            workers,
            supervised: cfg.respawn_budget > 0,
            hellos,
            addr,
            writers: Arc::new(Mutex::new((0..workers).map(closed).collect())),
            events_tx: Some(events_tx),
            events_rx,
            reader_threads: Vec::with_capacity(workers),
            writer_threads: Vec::with_capacity(workers),
            shutdown_streams: (0..workers).map(|_| None).collect(),
            handles: (0..workers).map(|_| None).collect(),
            finals: (0..workers).map(|_| None).collect(),
            failed: Vec::new(),
            adopted: Vec::new(),
            incarnation: vec![0; workers],
            respawns_left: vec![cfg.respawn_budget; workers],
            last_seen: vec![Instant::now(); workers],
            live: vec![true; workers],
            owner: (0..cfg.spec.nodes).map(|g| g % workers).collect(),
            retained: BTreeMap::new(),
            ring_epoch: 0,
            terminate_seen: false,
            drain_deadline: None,
            respawns: 0,
            downs: 0,
        })
    }

    /// Spawn the workers, pass the handshake barrier and wire each one
    /// in: every `Assign` is sent only after *all* workers said hello.
    fn start(&mut self) -> Result<(), NetError> {
        let (workers, nodes) = (self.workers as u64, self.cfg.spec.nodes as u64);
        self.obs.event("net", "executor_start", 0, || {
            vec![
                ("workers", ArgValue::U64(workers)),
                ("nodes", ArgValue::U64(nodes)),
                ("engine", ArgValue::Str("process".into())),
            ]
        });
        for k in 0..self.workers {
            let spawned = (self.spawner)(k, &self.addr);
            let handle = spawned.map_err(|e| NetError::Spawn(format!("worker {k}: {e}")))?;
            self.handles[k] = Some(handle);
        }
        let streams = handshake(&self.hellos, 0..self.workers, self.cfg.handshake_deadline)?;
        // The table stays locked until the whole fleet is wired in: a
        // relay reader started here routes only once every queue it may
        // route to exists.
        let table = self.writers.clone();
        let mut writers = lock_writers(&table);
        for (k, stream) in streams.into_iter().enumerate() {
            let assign = self.assign(k);
            self.wire_in(&mut writers, k, stream, assign)?;
        }
        if !self.supervised {
            self.events_tx = None;
        }
        Ok(())
    }

    /// The assignment of worker `k`'s current incarnation, its trace
    /// and flight paths suffixed so concurrent writers never share a
    /// file, with the default topology.
    fn assign(&self, k: usize) -> Assign {
        let inc = self.incarnation[k];
        let spec = JobSpec {
            trace_prefix: suffixed(&self.cfg.spec.trace_prefix, k, inc),
            flight_path: suffixed(&self.cfg.spec.flight_path, k, inc),
            ..self.cfg.spec.clone()
        };
        let mut assign = Assign::new(k, self.workers, spec);
        assign.supervised = self.supervised;
        assign.incarnation = inc;
        assign
    }

    /// The hand-off that gives a worker `nodes` — a respawned incarnation
    /// its own, a survivor those dealt to it — in the current topology.
    fn handoff(&self, nodes: impl IntoIterator<Item = usize>) -> Handoff {
        Handoff {
            owner: self.owner.clone(),
            live: self.live.clone(),
            nodes: handed_back(nodes, &self.retained),
        }
    }

    /// Hand an incarnation of worker `k` its assignment and wire it
    /// into the relay, the first and every later one alike: the `Assign`
    /// frame, then a fresh write queue in position `k` of `writers`
    /// (the queue of a dead incarnation dies with its writer thread,
    /// silently discarding crash-window traffic — the senders' outbox
    /// obligations replay it), then the relay pair.
    fn wire_in(
        &mut self,
        writers: &mut [Sender<Vec<u8>>],
        k: usize,
        mut stream: TcpStream,
        assign: Assign,
    ) -> Result<(), NetError> {
        let incarnation = assign.incarnation;
        frame::write_frame(&mut stream, &encode_ctrl(&CtrlMsg::Assign(assign)))
            .map_err(|e| NetError::Handshake(format!("assign to worker {k}: {e}")))?;
        let write_half = stream.try_clone().map_err(NetError::Listen)?;
        self.shutdown_streams[k] = stream.try_clone().ok();
        let (tx, rx) = std::sync::mpsc::channel();
        writers[k] = tx;
        let writer = std::thread::spawn(move || relay_writer(write_half, rx));
        self.writer_threads.push(writer);
        let table = self.writers.clone();
        let events = self.events_tx.clone().expect("held while workers join");
        let obs = self.obs.clone();
        let reader =
            std::thread::spawn(move || relay_reader(k, incarnation, stream, table, events, obs));
        self.reader_threads.push(reader);
        self.last_seen[k] = Instant::now();
        Ok(())
    }

    /// Queue `msg` for the writer of every position in `to`. A dead
    /// position's queue swallows the send; the substrate's
    /// retransmissions re-cover the loss.
    fn push(&self, to: impl IntoIterator<Item = usize>, msg: Msg) {
        let frame = encode_ctrl(&CtrlMsg::Deliver(msg));
        let writers = lock_writers(&self.writers);
        for k in to {
            let _ = writers[k].send(frame.clone());
        }
    }

    /// Tell the positions in `to` that the ring is in `ring_epoch` now.
    fn reset_ring(&self, to: impl IntoIterator<Item = usize>) {
        let epoch = self.ring_epoch;
        self.push(to, Msg::Reset { epoch });
    }

    /// Break the survivors out of the ring (once) and give them the
    /// drain deadline to report.
    fn terminate_and_drain(&mut self) {
        if self.drain_deadline.is_none() {
            self.push(0..self.workers, Msg::Terminate);
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
    }

    fn owes_final(&self, k: usize) -> bool {
        owes_final(k, &self.finals, &self.live, &self.failed)
    }

    fn live_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.workers).filter(|&w| self.live[w])
    }

    /// The event loop: relay reports until every position has reported,
    /// been adopted or failed.
    fn supervise(&mut self) {
        while (0..self.workers).any(|k| self.owes_final(k)) {
            if self.drain_deadline.is_some_and(|d| Instant::now() > d) {
                // Survivors that never honored the Terminate are
                // failures too.
                let late: Vec<usize> = (0..self.workers).filter(|&k| self.owes_final(k)).collect();
                self.failed.extend(late);
                break;
            }
            match self.events_rx.recv_timeout(TICK) {
                Ok(Event::Final(k, inc, report)) => {
                    if inc == self.incarnation[k] {
                        self.last_seen[k] = Instant::now();
                        self.finals[k] = Some(report);
                    }
                }
                Ok(Event::Snapshot(src, node, version, blob)) => {
                    self.last_seen[src] = Instant::now();
                    retain(&mut self.retained, node, version, blob);
                }
                Ok(Event::Heartbeat(src)) => self.last_seen[src] = Instant::now(),
                Ok(Event::TerminateSeen) => self.terminate_seen = true,
                Ok(Event::Gone(k, inc, why)) => self.on_gone(k, inc, why),
                Err(RecvTimeoutError::Timeout) => self.sweep_liveness(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Worker `k`'s connection ended. Unless it is a zombie frame, a
    /// clean close or a position already dealt with: abort the run
    /// (unsupervised), or fence the ring and respawn the worker — and
    /// when its budget is spent, have the survivors adopt its shard.
    fn on_gone(&mut self, k: usize, inc: u64, why: String) {
        if inc != self.incarnation[k] || !self.owes_final(k) {
            return;
        }
        self.downs += 1;
        self.obs.event("net", "worker_down", k as u32 + 1, || {
            vec![
                ("worker", ArgValue::U64(k as u64)),
                ("incarnation", ArgValue::U64(inc)),
                ("reason", ArgValue::Str(why)),
            ]
        });
        if !self.supervised {
            // The PR 8 abort path: fail the run, break the survivors
            // out of the ring, drain.
            self.failed.push(k);
            return self.terminate_and_drain();
        }
        // Fence the ring for the crash window: bump the epoch so tokens
        // written to the dead socket die stale, and every survivor
        // blackens and withholds conclusions until the post-recovery
        // reset.
        self.ring_epoch += 1;
        self.reset_ring(self.live_positions().filter(|&w| w != k));
        if !self.respawn(k) {
            self.adopt(k);
        }
    }

    /// Respawn position `k` with exponential backoff until one attempt
    /// sticks (`true`) or its budget runs out.
    fn respawn(&mut self, k: usize) -> bool {
        while self.respawns_left[k] > 0 {
            self.respawns_left[k] -= 1;
            self.respawns += 1;
            let attempt = self.cfg.respawn_budget - self.respawns_left[k];
            if let Some(h) = self.handles[k].take() {
                reap(h);
            }
            let doublings = attempt.saturating_sub(1).min(8);
            std::thread::sleep(self.cfg.respawn_backoff * 2u32.saturating_pow(doublings));
            self.incarnation[k] += 1;
            let Ok(handle) = (self.spawner)(k, &self.addr) else {
                continue;
            };
            self.handles[k] = Some(handle);
            let Ok(mut stream) = handshake(&self.hellos, k..k + 1, self.cfg.handshake_deadline)
            else {
                continue;
            };
            let stream = stream.remove(0);
            // Recovery epoch: minted into the re-Assign and broadcast
            // once the new incarnation is wired in.
            self.ring_epoch += 1;
            let mut assign = self.assign(k);
            let handoff = self.handoff(owned_by(k, &self.owner));
            let (inc, restored_nodes) = (assign.incarnation, handoff.nodes.len() as u64);
            assign.epoch = self.ring_epoch;
            assign.handoff = Some(handoff);
            let table = self.writers.clone();
            let wired = self.wire_in(&mut lock_writers(&table), k, stream, assign);
            if wired.is_err() {
                continue;
            }
            // Recovery complete: reset the ring in the new epoch so the
            // initiator relaunches the probe.
            self.reset_ring(self.live_positions());
            if self.terminate_seen {
                // The ring already concluded; the respawn only needs to
                // flush its restored states.
                self.push([k], Msg::Terminate);
            }
            let epoch = self.ring_epoch;
            self.obs.event("net", "worker_respawn", k as u32 + 1, || {
                vec![
                    ("worker", ArgValue::U64(k as u64)),
                    ("incarnation", ArgValue::U64(inc)),
                    ("restored_nodes", ArgValue::U64(restored_nodes)),
                    ("epoch", ArgValue::U64(epoch)),
                ]
            });
            return true;
        }
        false
    }

    /// Position `k`'s budget is spent: degrade gracefully. Remove it
    /// from the ring and hand its shard — latest retained snapshot per
    /// node — to the survivors, round-robin; with no survivor left, the
    /// run has failed.
    fn adopt(&mut self, k: usize) {
        self.live[k] = false;
        self.incarnation[k] += 1; // fence stragglers
        let survivors: Vec<usize> = (0..self.workers).filter(|&w| self.owes_final(w)).collect();
        if survivors.is_empty() {
            self.failed.push(k);
            return self.terminate_and_drain();
        }
        self.adopted.push(k);
        let mut adopts = deal(k, &mut self.owner, &survivors);
        self.ring_epoch += 1;
        // Reassign before Reset on every survivor's queue: the adoptive
        // worker installs its new shard, then joins the fresh ring
        // epoch.
        for &w in &survivors {
            let handoff = self.handoff(adopts.remove(&w).unwrap_or_default());
            self.push([w], Msg::Reassign(handoff));
        }
        self.reset_ring(survivors.iter().copied());
        let epoch = self.ring_epoch;
        self.obs.event("net", "reassign", k as u32 + 1, || {
            vec![
                ("worker", ArgValue::U64(k as u64)),
                ("survivors", ArgValue::U64(survivors.len() as u64)),
                ("epoch", ArgValue::U64(epoch)),
            ]
        });
    }

    /// Supervised: a connected-but-silent worker past the liveness
    /// timeout is killed and recovered like a dead socket (its reader
    /// reports `Gone`).
    fn sweep_liveness(&mut self) {
        let (true, Some(timeout)) = (self.supervised, self.cfg.liveness_timeout) else {
            return;
        };
        for w in 0..self.workers {
            if !self.owes_final(w) || self.last_seen[w].elapsed() <= timeout {
                continue;
            }
            let inc = self.incarnation[w];
            self.obs.event("net", "worker_hung", w as u32 + 1, || {
                vec![
                    ("worker", ArgValue::U64(w as u64)),
                    ("incarnation", ArgValue::U64(inc)),
                ]
            });
            self.last_seen[w] = Instant::now();
            if let Some(s) = &self.shutdown_streams[w] {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            if let Some(SpawnHandle::Process(child)) = self.handles[w].as_mut() {
                let _ = child.kill();
            }
        }
    }

    /// Stop listening (a Hello not taken closes its stream: its worker
    /// ends now), close every stream (unblocks workers parked in recv
    /// and our own reader threads), join the readers, drop the
    /// write-queue table (the readers' clones go with them), join the
    /// writers, reap every worker.
    fn teardown(&mut self) {
        self.hellos = std::sync::mpsc::channel().1;
        for _ in 0..=self.workers {
            let _ = TcpStream::connect(&self.addr);
        }
        for s in self.shutdown_streams.iter().flatten() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.events_tx = None;
        for t in self.reader_threads.drain(..) {
            let _ = t.join();
        }
        lock_writers(&self.writers).clear();
        for t in self.writer_threads.drain(..) {
            let _ = t.join();
        }
        for h in self.handles.iter_mut().filter_map(Option::take) {
            reap(h);
        }
    }

    /// Tear the run down and come out through the join the threaded
    /// engine uses, so the merged metrics are deterministic given the
    /// per-worker values.
    fn finish(mut self) -> ProcessRunResult {
        self.teardown();
        self.failed.sort_unstable();
        self.adopted.sort_unstable();
        // Every death counts as a crash, whether supervision absorbed
        // it or not; the unsupervised path has no `downs` beyond the
        // failures.
        let deaths = if self.supervised {
            self.downs
        } else {
            self.failed.len() as u64
        };
        let joined = join_reports(
            self.finals.into_iter().flatten().collect(),
            self.workers,
            self.cfg.spec.faults.is_some(),
            self.failed.is_empty(),
            deaths,
            self.obs,
        );
        ProcessRunResult {
            states: joined.states,
            metrics: joined.metrics,
            per_worker: joined.per_worker,
            quiescent: joined.quiescent,
            failed_workers: self.failed,
            adopted_workers: self.adopted,
            respawns: self.respawns,
            faults: joined.faults,
            link_counters: joined.link_counters,
            wire_bytes: joined.wire_bytes,
        }
    }
}

/// Run a transducer network as `cfg.procs` worker processes plus this
/// coordinator. Spawns workers with `spawner`, performs the handshake
/// barrier (every `Assign` is sent only after *all* workers said
/// hello, so every relay target exists before any traffic flows),
/// relays — and, with a respawn budget, supervises — until all finals
/// are in, and comes out through the join the threaded engine uses.
pub fn run_process(
    cfg: &ProcessConfig,
    spawner: &Spawner<'_>,
    obs: &Obs,
) -> Result<ProcessRunResult, NetError> {
    let mut supervisor = Supervisor::new(cfg, spawner, obs)?;
    if let Err(e) = supervisor.start() {
        // Kill what we started; a partial fleet would otherwise sit in
        // connect-retry until its own timeout.
        supervisor.teardown();
        return Err(e);
    }
    supervisor.supervise();
    Ok(supervisor.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panic-injection regression for the lock-poisoning aborts: a
    /// relay thread dying mid-critical-section used to turn every
    /// subsequent `expect("writer table")` into a coordinator panic.
    /// `lock_writers` must recover the table and keep routing.
    #[test]
    fn writer_table_survives_poisoning() {
        let writers: Arc<Mutex<Vec<Sender<Vec<u8>>>>> = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        lock_writers(&writers).push(tx);

        // Inject a panic while the lock is held, as a crashing relay
        // thread would.
        let poisoner = writers.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("injected relay panic");
        })
        .join();
        assert!(writers.is_poisoned(), "injection must poison the mutex");

        // Every post-poison access pattern used by the coordinator
        // still works: route lookup + send, respawn slot swap, push.
        {
            let table = lock_writers(&writers);
            assert_eq!(table.len(), 1);
            table[0].send(b"frame".to_vec()).unwrap();
        }
        assert_eq!(rx.recv().unwrap(), b"frame");
        let (tx2, rx2) = std::sync::mpsc::channel::<Vec<u8>>();
        lock_writers(&writers)[0] = tx2;
        lock_writers(&writers)[0]
            .send(b"after swap".to_vec())
            .unwrap();
        assert_eq!(rx2.recv().unwrap(), b"after swap");
        assert!(rx.try_recv().is_err(), "old incarnation queue is dead");
    }

    #[test]
    fn a_re_assign_carries_the_latest_retained_snapshot_of_each_node_its_worker_owns() {
        // Six nodes over three workers; versions arrive out of order
        // (a zombie incarnation's frame after its successor's).
        let owner: Vec<usize> = (0..6).map(|g| g % 3).collect();
        let mut retained = BTreeMap::new();
        for (node, version) in [(1, 0), (4, 2), (4, 1), (1, 3), (0, 5), (2, 1), (4, 2)] {
            retain(
                &mut retained,
                node,
                version,
                vec![node as u8, version as u8],
            );
        }
        let back = handed_back(owned_by(1, &owner), &retained);
        assert_eq!(back, vec![(1, 3, vec![1, 3]), (4, 2, vec![4, 2])]);
        // Worker 2 owns nodes 2 and 5; node 5 never shipped one.
        assert_eq!(
            handed_back(owned_by(2, &owner), &retained),
            vec![(2, 1, vec![2, 1])]
        );
        // An equal version replaces (the same checkpoint, re-shipped).
        retain(&mut retained, 2, 1, vec![9]);
        assert_eq!(retained[&2], (1, vec![9]));
    }

    #[test]
    fn adoption_deals_a_dead_positions_nodes_round_robin_and_leaves_the_rest_alone() {
        // Eight nodes over four workers; position 1 dies, position 3
        // has already reported: 0 and 2 survive.
        let mut owner: Vec<usize> = (0..8).map(|g| g % 4).collect();
        let adopts = deal(1, &mut owner, &[0, 2]);
        assert_eq!(owner, [0, 0, 2, 3, 0, 2, 2, 3]);
        assert_eq!(adopts, BTreeMap::from([(0, vec![1]), (2, vec![5])]));
        // A second death deals over whoever is left, adopted nodes
        // included.
        let adopts = deal(2, &mut owner, &[0]);
        assert_eq!(owner, [0, 0, 0, 3, 0, 0, 0, 3]);
        assert_eq!(adopts, BTreeMap::from([(0, vec![2, 5, 6])]));
        // A position that owns nothing hands nothing over.
        assert!(deal(2, &mut owner, &[0]).is_empty());
    }

    #[test]
    fn a_position_owes_its_final_until_it_reports_is_adopted_or_fails() {
        let report = || FinalReport {
            stats: WorkerStats::default(),
            states: Default::default(),
            clean: true,
        };
        let mut finals: Vec<Option<FinalReport>> = (0..4).map(|_| None).collect();
        let mut live = vec![true; 4];
        let mut failed = Vec::new();
        let owing = |finals: &[Option<FinalReport>], live: &[bool], failed: &[usize]| {
            (0..4)
                .filter(|&k| owes_final(k, finals, live, failed))
                .collect::<Vec<_>>()
        };
        assert_eq!(owing(&finals, &live, &failed), [0, 1, 2, 3]);
        finals[0] = Some(report());
        live[1] = false;
        failed.push(2);
        assert_eq!(owing(&finals, &live, &failed), [3]);
        // Settled twice over is still settled once: a position that
        // reported and then failed the drain, a dead one that reported.
        failed.push(0);
        finals[1] = Some(report());
        assert_eq!(
            owing(&finals, &live, &failed),
            [3],
            "3 still owes: not done"
        );
        finals[3] = Some(report());
        assert!(owing(&finals, &live, &failed).is_empty());
    }
}
