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
//! frame is a failed worker. The coordinator does not try to resurrect
//! it — it broadcasts `Terminate` so the surviving workers (whose token
//! ring is now broken and would otherwise block forever) finish up and
//! report, then returns a non-quiescent result listing the failures.
//! Non-quiescent termination fires the flight-recorder trigger, so a
//! killed worker produces a dump, not a hang.

use super::proto::{
    decode_ctrl, encode_ctrl, Assign, CtrlMsg, FinalReport, JobSpec, PROTOCOL_VERSION,
};
use super::{frame, NetError};
use crate::executor::{join_reports, Msg};
use crate::faults::FaultStats;
use crate::reliable::LinkCounters;
use crate::WorkerStats;
use calm_common::instance::Instance;
use calm_obs::{ArgValue, Obs};
use calm_transducer::network::NodeId;
use calm_transducer::runtime::Metrics;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
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

    /// Override the handshake barrier deadline.
    pub fn with_handshake_deadline(mut self, deadline: Duration) -> ProcessConfig {
        self.handshake_deadline = deadline;
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
/// knows the output schema) projects `out(R)` from `states`.
#[derive(Debug)]
pub struct ProcessRunResult {
    /// Final per-node states (missing the nodes of failed workers).
    pub states: BTreeMap<NodeId, Instance>,
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

/// Accept one connection and read its `Hello`, enforcing the protocol
/// version. The per-stream read timeout is capped by the remaining
/// barrier time, so a connected-but-silent peer cannot stall past the
/// deadline.
/// One accepted connection's Hello verdict: a worker that spoke, or a
/// dud connection (connected, then hung up / went silent) that should
/// not doom the barrier while the deadline still has time on it.
enum HelloOutcome {
    Worker(usize, TcpStream),
    Dud(String),
}

fn accept_hello(listener: &TcpListener, deadline: Instant) -> Result<HelloOutcome, NetError> {
    let mut stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(NetError::Handshake("never connected".into()));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(NetError::Listen(e)),
        }
    };
    stream.set_nonblocking(false).map_err(NetError::Listen)?;
    stream.set_nodelay(true).ok();
    let remaining = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    stream
        .set_read_timeout(Some(remaining.min(HELLO_TIMEOUT)))
        .ok();
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

/// Accept `workers` connections and read each one's `Hello`, enforcing
/// protocol version and index uniqueness. Returns streams indexed by
/// worker. Any failure names the ring positions still missing, so a
/// worker that never connects — or connects and never speaks — produces
/// a diagnosable error, not a hang.
fn handshake(
    listener: &TcpListener,
    workers: usize,
    deadline: Duration,
) -> Result<Vec<TcpStream>, NetError> {
    listener.set_nonblocking(true).map_err(NetError::Listen)?;
    let deadline = Instant::now() + deadline;
    let mut streams: Vec<Option<TcpStream>> = (0..workers).map(|_| None).collect();
    let mut connected = 0usize;
    let mut last_dud: Option<String> = None;
    while connected < workers {
        let missing: Vec<String> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(k, _)| k.to_string())
            .collect();
        let (worker, stream) = match accept_hello(listener, deadline) {
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
        if worker >= workers {
            return Err(NetError::Handshake(format!(
                "worker index {worker} out of range (W = {workers})"
            )));
        }
        if streams[worker].is_some() {
            return Err(NetError::Handshake(format!(
                "duplicate worker index {worker}"
            )));
        }
        streams[worker] = Some(stream);
        connected += 1;
    }
    Ok(streams
        .into_iter()
        .map(|s| s.expect("all connected"))
        .collect())
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
/// the star). `Final` goes to the collector. Any transport or protocol
/// error ends the stream and reports `Gone`.
fn relay_reader(
    src: usize,
    incarnation: u64,
    mut stream: TcpStream,
    writers: Arc<Mutex<Vec<Sender<Vec<u8>>>>>,
    events: Sender<Event>,
) {
    let why = loop {
        let payload = match frame::read_frame(&mut stream) {
            Ok(p) => p,
            Err(frame::FrameError::Closed) => break "closed".to_string(),
            Err(e) => break e.to_string(),
        };
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

/// Run a transducer network as `cfg.procs` worker processes plus this
/// coordinator. Spawns workers with `spawner`, performs the handshake
/// barrier (every `Assign` is sent only after *all* workers said
/// hello, so every relay target exists before any traffic flows),
/// relays until all finals are in, and comes out through the join the
/// threaded engine uses, so the merged metrics are deterministic given
/// the per-worker values.
pub fn run_process(
    cfg: &ProcessConfig,
    spawner: &Spawner<'_>,
    obs: &Obs,
) -> Result<ProcessRunResult, NetError> {
    let workers = cfg.procs.clamp(1, cfg.spec.nodes.max(1));
    let listener = bind_with_retry()?;
    let addr = listener.local_addr().map_err(NetError::Listen)?.to_string();

    obs.event("net", "executor_start", 0, || {
        vec![
            ("workers", ArgValue::U64(workers as u64)),
            ("nodes", ArgValue::U64(cfg.spec.nodes as u64)),
            ("engine", ArgValue::Str("process".into())),
        ]
    });

    let mut handles: Vec<SpawnHandle> = Vec::with_capacity(workers);
    for k in 0..workers {
        match spawner(k, &addr) {
            Ok(h) => handles.push(h),
            Err(e) => {
                // Kill what we started; the partial fleet would
                // otherwise sit in connect-retry until its own timeout.
                drop(listener);
                for h in handles {
                    reap(h);
                }
                return Err(NetError::Spawn(format!("worker {k}: {e}")));
            }
        }
    }

    let supervised = cfg.respawn_budget > 0;
    let streams = match handshake(&listener, workers, cfg.handshake_deadline) {
        Ok(s) => s,
        Err(e) => {
            for h in handles {
                reap(h);
            }
            return Err(e);
        }
    };

    // Handshake barrier passed: hand every worker its assignment.
    let mut reader_streams = Vec::with_capacity(workers);
    let mut writer_streams = Vec::with_capacity(workers);
    for (k, mut stream) in streams.into_iter().enumerate() {
        let mut a = Assign::new(
            k,
            workers,
            JobSpec {
                trace_prefix: suffixed(&cfg.spec.trace_prefix, k, 0),
                flight_path: suffixed(&cfg.spec.flight_path, k, 0),
                ..cfg.spec.clone()
            },
        );
        a.supervised = supervised;
        if let Err(e) = frame::write_frame(&mut stream, &encode_ctrl(&CtrlMsg::Assign(a))) {
            for h in handles {
                reap(h);
            }
            return Err(NetError::Handshake(format!("assign to worker {k}: {e}")));
        }
        let clone = match stream.try_clone() {
            Ok(c) => c,
            Err(e) => {
                for h in handles {
                    reap(h);
                }
                return Err(NetError::Listen(e));
            }
        };
        reader_streams.push(stream);
        writer_streams.push(clone);
    }

    // Relay fabric: per-worker writer queues + per-worker readers. The
    // writer table sits behind a shared lock so a respawn can swap the
    // dead position's queue for the new incarnation's.
    let writer_txs: Arc<Mutex<Vec<Sender<Vec<u8>>>>> =
        Arc::new(Mutex::new(Vec::with_capacity(workers)));
    let mut writer_threads = Vec::with_capacity(workers);
    for stream in writer_streams {
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        lock_writers(&writer_txs).push(tx);
        writer_threads.push(std::thread::spawn(move || relay_writer(stream, rx)));
    }
    let (events_tx, events_rx) = std::sync::mpsc::channel::<Event>();
    let mut reader_threads = Vec::with_capacity(workers);
    let mut shutdown_streams = Vec::with_capacity(workers);
    for (k, stream) in reader_streams.into_iter().enumerate() {
        shutdown_streams.push(stream.try_clone().ok());
        let writers = writer_txs.clone();
        let events = events_tx.clone();
        reader_threads.push(std::thread::spawn(move || {
            relay_reader(k, 0, stream, writers, events)
        }));
    }
    // The supervisor keeps a sender for respawned readers; without
    // supervision the receiver disconnects once every reader exits,
    // exactly as before.
    let respawn_events_tx = supervised.then(|| events_tx.clone());
    drop(events_tx);

    // Supervisor state. Without supervision (budget 0) everything
    // below degenerates to the old collect-finals loop: a death fails
    // the run, Terminate is broadcast, survivors drain.
    let mut finals: Vec<Option<FinalReport>> = (0..workers).map(|_| None).collect();
    let mut failed: Vec<usize> = Vec::new();
    let mut adopted_workers: Vec<usize> = Vec::new();
    let mut incarnation: Vec<u64> = vec![0; workers];
    let mut respawns_left: Vec<u32> = vec![cfg.respawn_budget; workers];
    let mut last_seen: Vec<Instant> = vec![Instant::now(); workers];
    let mut handles: Vec<Option<SpawnHandle>> = handles.into_iter().map(Some).collect();
    let mut live: Vec<bool> = vec![true; workers];
    let mut owner: Vec<usize> = (0..cfg.spec.nodes).map(|g| g % workers).collect();
    let mut retained: BTreeMap<usize, (u64, Vec<u8>)> = BTreeMap::new();
    let mut ring_epoch: u64 = 0;
    let mut terminate_seen = false;
    let mut respawn_count: u64 = 0;
    let mut downs: u64 = 0;
    let mut terminated = false;
    let mut drain_deadline: Option<Instant> = None;

    // Enqueue one encoded frame for worker `k`'s writer. A dead
    // position's queue swallows the send; the substrate's
    // retransmissions re-cover the loss.
    let push_to = |k: usize, payload: Vec<u8>| {
        let txs = lock_writers(&writer_txs);
        if k < txs.len() {
            let _ = txs[k].send(payload);
        }
    };

    loop {
        let done = (0..workers)
            .filter(|&w| finals[w].is_some() || !live[w] || failed.contains(&w))
            .count();
        if done >= workers {
            break;
        }
        if drain_deadline.is_some_and(|d| Instant::now() > d) {
            // Survivors that never honored the Terminate are failures
            // too.
            for (k, f) in finals.iter().enumerate() {
                if f.is_none() && live[k] && !failed.contains(&k) {
                    failed.push(k);
                }
            }
            break;
        }
        match events_rx.recv_timeout(TICK) {
            Ok(Event::Final(k, inc, report)) => {
                if inc == incarnation[k] {
                    last_seen[k] = Instant::now();
                    finals[k] = Some(report);
                }
            }
            Ok(Event::Snapshot(src, node, version, blob)) => {
                last_seen[src] = Instant::now();
                let entry = retained
                    .entry(node)
                    .or_insert_with(|| (version, Vec::new()));
                if version >= entry.0 {
                    *entry = (version, blob);
                }
            }
            Ok(Event::Heartbeat(src)) => last_seen[src] = Instant::now(),
            Ok(Event::TerminateSeen) => terminate_seen = true,
            Ok(Event::Gone(k, inc, why)) => {
                if inc != incarnation[k] || finals[k].is_some() || !live[k] || failed.contains(&k) {
                    continue; // zombie frame, clean close, or already handled
                }
                downs += 1;
                obs.event("net", "worker_down", k as u32 + 1, || {
                    vec![
                        ("worker", ArgValue::U64(k as u64)),
                        ("incarnation", ArgValue::U64(inc)),
                        ("reason", ArgValue::Str(why.clone())),
                    ]
                });
                if !supervised {
                    // The PR 8 abort path, unchanged: fail the run,
                    // break the survivors out of the ring, drain.
                    failed.push(k);
                    if !terminated {
                        terminated = true;
                        let term = encode_ctrl(&CtrlMsg::Deliver(Msg::Terminate));
                        for w in 0..workers {
                            push_to(w, term.clone());
                        }
                    }
                    drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
                    continue;
                }

                // Fence the ring for the crash window: bump the epoch
                // so tokens written to the dead socket die stale, and
                // every survivor blackens and withholds conclusions
                // until the post-recovery reset.
                ring_epoch += 1;
                let reset = encode_ctrl(&CtrlMsg::Deliver(Msg::Reset { epoch: ring_epoch }));
                for (w, &alive) in live.iter().enumerate() {
                    if w != k && alive {
                        push_to(w, reset.clone());
                    }
                }

                // Respawn with exponential backoff until one attempt
                // sticks or the budget runs out.
                let mut recovered = false;
                while !recovered && respawns_left[k] > 0 {
                    respawns_left[k] -= 1;
                    respawn_count += 1;
                    let attempt = cfg.respawn_budget - respawns_left[k];
                    if let Some(h) = handles[k].take() {
                        reap(h);
                    }
                    std::thread::sleep(
                        cfg.respawn_backoff * 2u32.saturating_pow(attempt.saturating_sub(1).min(8)),
                    );
                    incarnation[k] += 1;
                    let inc = incarnation[k];
                    let handle = match spawner(k, &addr) {
                        Ok(h) => h,
                        Err(_) => continue,
                    };
                    handles[k] = Some(handle);
                    let deadline = Instant::now() + cfg.handshake_deadline;
                    let mut stream = match accept_hello(&listener, deadline) {
                        Ok(HelloOutcome::Worker(w, s)) if w == k => s,
                        _ => continue,
                    };
                    // Recovery epoch: minted into the re-Assign and
                    // broadcast once the new incarnation is wired in.
                    ring_epoch += 1;
                    let restore: Vec<(usize, u64, Vec<u8>)> = (0..owner.len())
                        .filter(|&g| owner[g] == k)
                        .filter_map(|g| retained.get(&g).map(|(v, b)| (g, *v, b.clone())))
                        .collect();
                    let restored_nodes = restore.len() as u64;
                    let mut a = Assign::new(
                        k,
                        workers,
                        JobSpec {
                            trace_prefix: suffixed(&cfg.spec.trace_prefix, k, inc),
                            flight_path: suffixed(&cfg.spec.flight_path, k, inc),
                            ..cfg.spec.clone()
                        },
                    );
                    a.supervised = true;
                    a.incarnation = inc;
                    a.epoch = ring_epoch;
                    a.owner = Some(owner.clone());
                    a.live = live.clone();
                    a.restore = restore;
                    if frame::write_frame(&mut stream, &encode_ctrl(&CtrlMsg::Assign(a))).is_err() {
                        continue;
                    }
                    let write_half = match stream.try_clone() {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    // Swap the write queue: the dead incarnation's
                    // queue dies with its writer thread, silently
                    // discarding crash-window traffic (the senders'
                    // outbox obligations replay it).
                    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
                    lock_writers(&writer_txs)[k] = tx;
                    writer_threads.push(std::thread::spawn(move || relay_writer(write_half, rx)));
                    shutdown_streams[k] = stream.try_clone().ok();
                    let writers = writer_txs.clone();
                    let events = respawn_events_tx.clone().expect("supervised");
                    reader_threads.push(std::thread::spawn(move || {
                        relay_reader(k, inc, stream, writers, events)
                    }));
                    last_seen[k] = Instant::now();
                    // Recovery complete: reset the ring in the new
                    // epoch so the initiator relaunches the probe.
                    let reset = encode_ctrl(&CtrlMsg::Deliver(Msg::Reset { epoch: ring_epoch }));
                    for (w, &alive) in live.iter().enumerate() {
                        if alive {
                            push_to(w, reset.clone());
                        }
                    }
                    if terminate_seen {
                        // The ring already concluded; the respawn only
                        // needs to flush its restored states.
                        push_to(k, encode_ctrl(&CtrlMsg::Deliver(Msg::Terminate)));
                    }
                    obs.event("net", "worker_respawn", k as u32 + 1, || {
                        vec![
                            ("worker", ArgValue::U64(k as u64)),
                            ("incarnation", ArgValue::U64(inc)),
                            ("restored_nodes", ArgValue::U64(restored_nodes)),
                            ("epoch", ArgValue::U64(ring_epoch)),
                        ]
                    });
                    recovered = true;
                }

                if !recovered {
                    // Budget exhausted: degrade gracefully. Remove the
                    // position from the ring and hand its shard —
                    // latest retained snapshot per node — to the
                    // survivors, round-robin.
                    live[k] = false;
                    incarnation[k] += 1; // fence stragglers
                    let survivors: Vec<usize> = (0..workers)
                        .filter(|&w| live[w] && finals[w].is_none() && !failed.contains(&w))
                        .collect();
                    if survivors.is_empty() {
                        failed.push(k);
                        if !terminated {
                            terminated = true;
                            let term = encode_ctrl(&CtrlMsg::Deliver(Msg::Terminate));
                            for w in 0..workers {
                                push_to(w, term.clone());
                            }
                        }
                        drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
                    } else {
                        adopted_workers.push(k);
                        let mut blobs: BTreeMap<usize, Vec<(usize, u64, Vec<u8>)>> =
                            BTreeMap::new();
                        let mut rr = 0usize;
                        for (g, o) in owner.iter_mut().enumerate() {
                            if *o == k {
                                let w = survivors[rr % survivors.len()];
                                rr += 1;
                                *o = w;
                                let handed = retained.get(&g).map(|(v, b)| (g, *v, b.clone()));
                                blobs.entry(w).or_default().extend(handed);
                            }
                        }
                        ring_epoch += 1;
                        for &w in &survivors {
                            // Reassign before Reset, per-link FIFO: the
                            // adoptive worker installs its new shard,
                            // then joins the fresh ring epoch.
                            let msg = Msg::Reassign {
                                owner: owner.clone(),
                                live: live.clone(),
                                adopted: blobs.remove(&w).unwrap_or_default(),
                            };
                            push_to(w, encode_ctrl(&CtrlMsg::Deliver(msg)));
                            push_to(
                                w,
                                encode_ctrl(&CtrlMsg::Deliver(Msg::Reset { epoch: ring_epoch })),
                            );
                        }
                        obs.event("net", "reassign", k as u32 + 1, || {
                            vec![
                                ("worker", ArgValue::U64(k as u64)),
                                ("survivors", ArgValue::U64(survivors.len() as u64)),
                                ("epoch", ArgValue::U64(ring_epoch)),
                            ]
                        });
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Liveness sweep: a connected-but-silent worker past
                // the timeout is killed and recovered like a dead
                // socket (its reader reports Gone).
                if let (true, Some(lt)) = (supervised, cfg.liveness_timeout) {
                    for w in 0..workers {
                        if live[w]
                            && finals[w].is_none()
                            && !failed.contains(&w)
                            && last_seen[w].elapsed() > lt
                        {
                            obs.event("net", "worker_hung", w as u32 + 1, || {
                                vec![
                                    ("worker", ArgValue::U64(w as u64)),
                                    ("incarnation", ArgValue::U64(incarnation[w])),
                                ]
                            });
                            last_seen[w] = Instant::now();
                            if let Some(s) = &shutdown_streams[w] {
                                let _ = s.shutdown(std::net::Shutdown::Both);
                            }
                            if let Some(SpawnHandle::Process(child)) = handles[w].as_mut() {
                                let _ = child.kill();
                            }
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    failed.sort_unstable();
    adopted_workers.sort_unstable();

    // Teardown: close every stream (unblocks workers parked in recv and
    // our own reader threads), join readers, drop the write-queue table
    // (the readers' clones go with them), join writers, reap.
    for s in shutdown_streams.iter().flatten() {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
    drop(respawn_events_tx);
    for t in reader_threads {
        let _ = t.join();
    }
    drop(writer_txs);
    for t in writer_threads {
        let _ = t.join();
    }
    for h in handles.into_iter().flatten() {
        reap(h);
    }

    // Every death counts as a crash, whether supervision absorbed it or
    // not; the unsupervised path has no `downs` beyond the failures.
    let deaths = if supervised {
        downs
    } else {
        failed.len() as u64
    };
    let joined = join_reports(
        finals.into_iter().flatten().collect(),
        workers,
        cfg.spec.faults.is_some(),
        failed.is_empty(),
        deaths,
        obs,
    );
    Ok(ProcessRunResult {
        states: joined.states,
        metrics: joined.metrics,
        per_worker: joined.per_worker,
        quiescent: joined.quiescent,
        failed_workers: failed,
        adopted_workers,
        respawns: respawn_count,
        faults: joined.faults,
        link_counters: joined.link_counters,
        wire_bytes: joined.wire_bytes,
    })
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
}
