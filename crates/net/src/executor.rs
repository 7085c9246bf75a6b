//! The threaded executor: nodes sharded over worker threads, per-worker
//! `mpsc` channels carrying fact batches, Safra-ring termination.

use crate::faults::{FaultPlan, FaultStats};
use crate::reliable::{LinkCounters, NodeSnapshot, ReliableNet, Wire};
use crate::termination::Token;
use crate::transport::proto::{decode_snapshot_blob, encode_snapshot_blob, FinalReport, Handoff};
use crate::wirefmt;
use calm_common::instance::Instance;
use calm_common::storage::{CanonicalOrder, SharedSymbols};
use calm_obs::{ArgValue, Obs};
use calm_transducer::engine::{NodeEngine, NodeStepOutcome};
use calm_transducer::network::NodeId;
use calm_transducer::policy::DistributionPolicy;
use calm_transducer::rows::{input_batches, Batch, StateRows};
use calm_transducer::runtime::{Delivery, FinalStates, Metrics};
use calm_transducer::schema::SystemConfig;
use calm_transducer::transducer::Transducer;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker with standing reliability obligations (unacked
/// sends, delayed wires, recovering nodes) waits for traffic before
/// advancing its fault clock and firing due timers.
const TIMER_WAIT: Duration = Duration::from_micros(200);

/// Supervised mode: how often an otherwise-idle worker proves liveness
/// to the coordinator. Hung-but-connected workers miss this deadline
/// (several times over, per the coordinator's grace multiple) and get
/// killed and respawned like a dead socket.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// How workers obtain their per-node transducer program: each worker
/// builds its own instance from a factory, on its own thread, so no
/// program state is shared between workers.
pub enum Programs<'a> {
    /// A factory invoked once per worker, on that worker's thread.
    PerWorker(&'a (dyn Fn() -> Box<dyn Transducer> + Sync)),
}

/// A transducer network ready to run threaded: the same ingredients as
/// the sequential [`calm_transducer::TransducerNetwork`], with the
/// program supplied per worker.
pub struct ThreadedNetwork<'a> {
    /// The per-node transducer program(s).
    pub programs: Programs<'a>,
    /// The distribution policy (also supplies the network).
    pub policy: &'a dyn DistributionPolicy,
    /// Which system relations nodes see (model variant).
    pub config: SystemConfig,
}

/// Execution parameters of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Worker threads. Clamped to `[1, |N|]` (a worker with no nodes
    /// would only slow the ring down); `net/executor_start` and
    /// [`NetRunReport::per_worker`] show the count that ran.
    pub workers: usize,
    /// Per-worker step budget: the most node transitions one worker may
    /// execute. A run that exhausts any worker's budget reports
    /// `quiescent: false`.
    pub step_budget: usize,
    /// Fault injection + reliable delivery (see [`crate::faults`]).
    /// `None` — the default — sends over perfect channels with zero
    /// reliability overhead; `Some(plan)` interposes the fault
    /// gauntlet on every send (local and remote) and rides the
    /// seq/ack/retransmit/snapshot substrate underneath it.
    pub faults: Option<FaultPlan>,
}

impl ThreadedConfig {
    /// `workers` threads with the default step budget (1M per worker).
    pub fn new(workers: usize) -> ThreadedConfig {
        ThreadedConfig {
            workers,
            step_budget: 1_000_000,
            faults: None,
        }
    }

    /// Run under a fault plan (with the reliability substrate enabled).
    pub fn with_faults(mut self, plan: FaultPlan) -> ThreadedConfig {
        self.faults = Some(plan);
        self
    }
}

/// Per-worker accounting, reported at join.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index (ring position).
    pub worker: usize,
    /// The nodes this worker owned.
    pub nodes: Vec<NodeId>,
    /// This worker's share of the run counters. `metrics.transitions`
    /// is the worker's step count; the executor's merged metrics are
    /// the fold of these in worker order.
    pub metrics: Metrics,
    /// Message occurrences enqueued *to* this worker's nodes (from its
    /// own nodes directly, from other workers via channel batches).
    /// Per-worker conservation: `enqueued == metrics.messages_delivered
    /// + buffered` at exit.
    pub enqueued: usize,
    /// Occurrences still undelivered in this worker's inboxes at exit
    /// (zero on a clean quiescent run).
    pub buffered: usize,
    /// Ring hops this worker performed (token forwards + probes).
    pub token_passes: u64,
    /// Whether the worker hit its step budget.
    pub exhausted: bool,
    /// Fault/reliability counters (all zero on a fault-free run).
    pub faults: FaultStats,
    /// This worker's half of the per-link wire accounting: sender-side
    /// counters live at the sending worker, receiver-side at the
    /// receiving worker; the merged map reconciles (see
    /// [`LinkCounters`]).
    pub link_counters: BTreeMap<(usize, usize), LinkCounters>,
    /// Delta-encoded payload bytes this worker put on the wire: one
    /// `Msg::Batch` payload per (send, other worker) on the fault-free
    /// path, every transmitted copy (retransmissions and duplicates
    /// included) under a fault plan, one per (send, destination node).
    /// Same-worker deliveries move in memory and cost no wire bytes.
    pub wire_bytes: u64,
}

crate::codec::wire_struct!(WorkerStats: worker, nodes, metrics, enqueued, buffered,
    token_passes, exhausted, faults, link_counters, wire_bytes);

/// What a run of either network engine comes out as: the fold of its
/// workers' final reports, and what the process engine's supervisor did.
/// `out(R)` is built only on request, from `states`
/// ([`FinalStates::output`], [`FinalStates::united`]): the process
/// engine's transport is program-agnostic, so the caller knows its schema.
#[derive(Debug)]
pub struct NetRunReport {
    /// Final per-node states (output ∪ memory facts), as the rows the
    /// workers held them in (the process engine: as each `Final` frame
    /// was read into, missing the nodes of failed workers).
    pub states: FinalStates,
    /// Merged run counters (fold of the per-worker metrics, in worker
    /// order — deterministic given the per-worker values).
    pub metrics: Metrics,
    /// Whether the network reached quiescence (every node at local
    /// fixpoint, nothing in flight, no message abandoned to a retry
    /// budget, every worker reported clean) within every worker's budget.
    /// `false` whenever `failed_workers` is non-empty.
    pub quiescent: bool,
    /// Per-worker accounting, in worker order; failed workers are absent.
    pub per_worker: Vec<WorkerStats>,
    /// Merged fault/reliability counters (all zero without a plan). Each
    /// worker process lost adds one `crashes` tick, absorbed or not.
    pub faults: FaultStats,
    /// Merged per-link wire accounting. On a quiescent faulty run every
    /// link satisfies `attempts == delivered + suppressed + dropped`
    /// (and `buffered == 0`).
    pub link_counters: BTreeMap<(usize, usize), LinkCounters>,
    /// Merged delta-encoded payload bytes (fold of the per-worker
    /// [`WorkerStats::wire_bytes`]; transport framing is not payload).
    pub wire_bytes: u64,
    /// Process engine: workers whose connection ended before their
    /// `Final` frame (or that missed the drain deadline) and whose shard
    /// could not be recovered — not every death, only those no respawn
    /// or adoption absorbed.
    pub failed_workers: Vec<usize>,
    /// Process engine: ring positions whose respawn budget ran out and
    /// whose shard was re-assigned to survivors (the run can still be
    /// quiescent and byte-identical).
    pub adopted_workers: Vec<usize>,
    /// Process engine: worker processes respawned by the supervisor.
    pub respawns: u64,
}

impl NetRunReport {
    /// Total ring hops across workers.
    pub fn token_passes(&self) -> u64 {
        self.per_worker.iter().map(|w| w.token_passes).sum()
    }
}

/// What [`run_threaded`] comes out as: `out(R)` built once, and the
/// counters beside it — the fields its callers read, which want the
/// answer and nothing of the states. Every other caller takes the
/// [`NetRunReport`] of [`run_threaded_with`].
#[derive(Debug)]
pub struct ThreadedRunResult {
    /// `out(R)` — the union of output facts across nodes.
    pub output: Instance,
    /// Merged run counters.
    pub metrics: Metrics,
    /// Whether the network reached quiescence.
    pub quiescent: bool,
    /// Per-worker accounting.
    pub per_worker: Vec<WorkerStats>,
    /// Merged fault/reliability counters.
    pub faults: FaultStats,
    /// Merged delta-encoded bytes on the wire.
    pub wire_bytes: u64,
}

/// Messages on the per-worker channels. `Batch` is the basic message of
/// the termination-detection algorithm (counted in Safra counters);
/// `Token` and `Terminate` are control traffic (not counted).
pub(crate) enum Msg {
    /// One step's send, for every node of the receiving worker (the
    /// sender is on another): the fault-free path, one per (send, other
    /// worker).
    Batch {
        /// The send in the delta wire format of [`crate::wirefmt`] (a
        /// multiset: the same fact may be in flight several times from
        /// different senders). Encoded once per step and shared (`Arc`)
        /// across workers; decoded once at the receiving worker and
        /// enqueued, as one batch, at each of its nodes.
        payload: Arc<[u8]>,
    },
    /// A wire of the reliability substrate (fault mode only): sequenced
    /// data or a cumulative ack. Like `Batch`, a basic message of the
    /// termination-detection algorithm (counted in Safra counters).
    Wire(Wire),
    /// The termination probe token.
    Token(Token),
    /// The initiator detected termination: finish up and report.
    Terminate,
    /// Supervised process engine only: the coordinator opened ring
    /// epoch `epoch` (a worker died or recovered). Receivers at an
    /// older epoch zero their Safra counter, blacken, drop any held
    /// token and clear their probe state; tokens minted in older epochs
    /// are fenced out on receipt.
    Reset {
        /// The new ring epoch.
        epoch: u64,
    },
    /// Supervised process engine only: a dead worker's respawn budget
    /// ran out and its shards move to survivors: the hand-off of each,
    /// taken over like a respawned incarnation's `Assign`.
    Reassign(Handoff),
}

/// How a worker reaches its peers. The worker loop is written against
/// this trait so the same Safra/step/fault logic drives both the
/// in-process executor (peers behind `mpsc` channels) and the
/// multi-process engine (peers behind TCP frames relayed by a
/// coordinator — see [`crate::transport`]).
pub(crate) trait Ports {
    /// Send `msg` toward worker `dst`. Transports must preserve
    /// per-(sender, receiver) FIFO order — Safra's message counting
    /// relies on a token never overtaking the basic messages that
    /// precede it on the same path.
    fn send(&self, dst: usize, msg: Msg);
    /// Non-blocking receive.
    fn try_recv(&self) -> Result<Msg, TryRecvError>;
    /// Blocking receive.
    fn recv(&self) -> Result<Msg, RecvError>;
    /// Blocking receive with a timeout (fault mode's timer wait).
    fn recv_timeout(&self, timeout: Duration) -> Result<Msg, RecvTimeoutError>;
    /// Whether the transport is still healthy. A lost link (TCP reset,
    /// peer EOF) makes this `false`: the worker finishes non-clean —
    /// a counted fault, never a panic.
    fn link_ok(&self) -> bool {
        true
    }
    /// Supervised process engine only: ship a versioned snapshot blob
    /// of `node` to the coordinator. MUST be written to the transport
    /// *before* any wire the snapshot released — the coordinator then
    /// retains version `v` before any peer can observe a `v`-released
    /// message, which is what makes restoring the latest retained blob
    /// sound. The in-process transport has no supervisor: no-op.
    fn ship_snapshot(&self, _node: usize, _version: u64, _blob: Vec<u8>) {}
    /// Supervised process engine only: a liveness heartbeat to the
    /// coordinator. No-op in-process.
    fn heartbeat(&self) {}
}

/// The in-process transport: one `mpsc` receiver per worker, senders to
/// every peer. A send to a worker that has ended — it panicked, and its
/// panic ends the run — is lost.
pub(crate) struct ChannelPorts {
    rx: Receiver<Msg>,
    senders: Vec<Sender<Msg>>,
}

impl Ports for ChannelPorts {
    fn send(&self, dst: usize, msg: Msg) {
        let _ = self.senders[dst].send(msg);
    }

    fn try_recv(&self) -> Result<Msg, TryRecvError> {
        self.rx.try_recv()
    }

    fn recv(&self) -> Result<Msg, RecvError> {
        self.rx.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Msg, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }
}

/// Run the network to quiescence on `input`. See [`run_threaded_with`].
pub fn run_threaded(
    tn: &ThreadedNetwork<'_>,
    input: &Instance,
    cfg: &ThreadedConfig,
) -> ThreadedRunResult {
    let r = run_threaded_with(tn, input, cfg, &Obs::noop());
    let Programs::PerWorker(build) = tn.programs;
    ThreadedRunResult {
        output: r.states.output(&build().schema().output),
        metrics: r.metrics,
        quiescent: r.quiescent,
        per_worker: r.per_worker,
        faults: r.faults,
        wire_bytes: r.wire_bytes,
    }
}

/// As [`run_threaded`], reporting per-transition events, message-class
/// counters and queue-depth gauges to `obs` with the same categories,
/// names and tracks as the sequential engine, plus `net`-category
/// events for executor start and termination detection.
///
/// Node `i` (in network order) runs on worker `i mod W`. Each worker
/// owns its nodes — states and inboxes, rows over the worker's own symbol
/// table — and a local [`Metrics`]; nothing is shared between workers but
/// the channels (and the read-only program/policy/input). Workers step
/// their nodes to local fixpoint, exchange fact batches, and detect
/// global quiescence with the Safra ring in `crate::termination`. At
/// join the workers' final states are handed over as they are — `out(R)`
/// is the caller's to unite from them ([`FinalStates::output`]) — and the
/// per-worker metrics are folded in worker order with [`Metrics::merge`]:
/// the merged totals are deterministic given the per-worker values, and
/// the *output* is deterministic for coordination-free programs by the
/// paper's confluence guarantee (the equivalence tests check it against
/// the sequential engine).
///
/// The ring concludes once the sends stop, and nothing here stops them:
/// the strategies mark in their state what they sent and send it once. A
/// program that derives its sends anew at every step (`DatalogTransducer`,
/// net-compiled) is the sequential engine's to run; here it exhausts its
/// step budget (`quiescent: false`).
pub fn run_threaded_with(
    tn: &ThreadedNetwork<'_>,
    input: &Instance,
    cfg: &ThreadedConfig,
    obs: &Obs,
) -> NetRunReport {
    let total_nodes = tn.policy.network().len();
    let workers = cfg.workers.clamp(1, total_nodes.max(1));

    obs.event("net", "executor_start", 0, || {
        vec![
            ("workers", ArgValue::U64(workers as u64)),
            ("nodes", ArgValue::U64(total_nodes as u64)),
        ]
    });

    // One channel per worker; every worker holds senders to all.
    let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(workers);
    let mut receivers: Vec<Receiver<Msg>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = std::sync::mpsc::channel();
        senders.push(tx);
        receivers.push(rx);
    }

    // A worker that panics tells every peer to terminate before it
    // unwinds; its panic is raised here once every worker has ended.
    let ended = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (id, rx) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            handles.push(scope.spawn(move || {
                let ports = ChannelPorts { rx, senders };
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let Programs::PerWorker(build) = tn.programs;
                    let transducer = build();
                    let symbols = SharedSymbols::new();
                    let fab = NodeFactory::new(&*transducer, tn.policy, tn.config, input, symbols);
                    let outcome = run_worker(WorkerCtx {
                        id,
                        workers,
                        fab,
                        ports: &ports,
                        budget: cfg.step_budget,
                        faults: cfg.faults.as_ref(),
                        obs,
                        proc: ProcCtx::default(),
                    });
                    outcome.report
                }));
                run.unwrap_or_else(|panic| {
                    for peer in (0..workers).filter(|&peer| peer != id) {
                        ports.send(peer, Msg::Terminate);
                    }
                    std::panic::resume_unwind(panic)
                })
            }));
        }
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let outcomes = (ended.into_iter())
        .map(|worker| worker.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        .collect();
    join_reports(outcomes, workers, cfg.faults.is_some(), true, 0, obs)
}

/// The counters of [`FaultStats`] that `net/fault_summary` carries, by
/// label, in the event's argument order.
const FAULT_SUMMARY: [&str; 7] = [
    "attempts",
    "retransmissions",
    "duplicates_suppressed",
    "dropped",
    "crashes",
    "snapshots",
    "retry_exhausted",
];

/// The deterministic join behind both engines: fold the workers' final
/// reports in worker order (whatever order they arrived in) — so the
/// merged totals are a function of the per-worker values alone — and
/// report the run to `obs` (`net/termination`, the fault counters and
/// `net/fault_summary` when the run was `faulted`, `net/wire.bytes`,
/// `net/final.rows`, `runtime/run_summary`). The workers' final states
/// are kept as they came, one part per report. `complete` is false when
/// some worker never reported, which forfeits quiescence; `deaths` counts
/// worker processes lost on the way (each one a crash, absorbed or not).
/// The supervisor's fields are left empty for the process engine to set.
pub(crate) fn join_reports(
    mut reports: Vec<FinalReport>,
    workers: usize,
    faulted: bool,
    complete: bool,
    deaths: u64,
    obs: &Obs,
) -> NetRunReport {
    reports.sort_by_key(|r| r.stats.worker);
    let mut parts = Vec::with_capacity(reports.len());
    let mut j = NetRunReport {
        states: FinalStates::default(),
        metrics: Metrics::default(),
        quiescent: complete,
        per_worker: Vec::with_capacity(reports.len()),
        faults: FaultStats::default(),
        link_counters: BTreeMap::new(),
        wire_bytes: 0,
        failed_workers: Vec::new(),
        adopted_workers: Vec::new(),
        respawns: 0,
    };
    for report in reports {
        j.metrics.merge(&report.stats.metrics);
        j.quiescent &= report.clean;
        j.faults.merge(&report.stats.faults);
        j.wire_bytes += report.stats.wire_bytes;
        for (link, counters) in &report.stats.link_counters {
            j.link_counters.entry(*link).or_default().merge(counters);
        }
        parts.push(report.states);
        j.per_worker.push(report.stats);
    }
    j.faults.crashes += deaths;
    let states = parts.iter().flat_map(|part: &StateRows| &part.nodes);
    let rows: usize = states.map(|(_, state)| state.len()).sum();
    obs.counter("net", "final.rows", rows as u64);
    j.states = FinalStates::new(parts, obs);

    let (quiescent, faults, token_passes) = (j.quiescent, j.faults, j.token_passes());
    obs.event("net", "termination", 0, || {
        vec![
            ("quiescent", ArgValue::Bool(quiescent)),
            ("token_passes", ArgValue::U64(token_passes)),
            ("workers", ArgValue::U64(workers as u64)),
        ]
    });
    if faulted && obs.enabled() {
        let pairs = faults.as_pairs();
        for (name, value) in &pairs {
            obs.counter("net", &format!("faults.{name}"), *value);
        }
        obs.event("net", "fault_summary", 0, || {
            (FAULT_SUMMARY.iter())
                .filter_map(|label| pairs.iter().find(|(name, _)| name == label))
                .map(|&(name, value)| (name, ArgValue::U64(value)))
                .collect()
        });
    }
    obs.counter("net", "wire.bytes", j.wire_bytes);
    j.metrics.report_run_summary(obs, quiescent);
    j
}

/// Everything one worker needs to run: its ring position, the nodes it
/// can mint, and its transport. Built by [`run_threaded_with`] (channel
/// ports) and by the process engine's remote worker
/// ([`crate::transport::worker`], socket ports).
pub(crate) struct WorkerCtx<'a> {
    pub(crate) id: usize,
    pub(crate) workers: usize,
    pub(crate) fab: NodeFactory<'a>,
    pub(crate) ports: &'a dyn Ports,
    pub(crate) budget: usize,
    pub(crate) faults: Option<&'a FaultPlan>,
    pub(crate) obs: &'a Obs,
    /// What the process engine adds; the threaded engine runs the
    /// default: no pkills, no supervision, epoch 0, `g % workers`.
    pub(crate) proc: ProcCtx,
}

/// What the process engine's worker knows beyond the threaded engine:
/// its incarnation, the ring epoch it starts in, whether a supervisor
/// retains its snapshots, and what a respawn hands it.
#[derive(Default)]
pub(crate) struct ProcCtx {
    /// 0 for a worker's first process, +1 per respawn. Selects which
    /// `pkill` entries this incarnation still honors.
    pub(crate) incarnation: u64,
    /// Ring epoch at Assign time (0 on a fresh run).
    pub(crate) epoch: u64,
    /// Whether the coordinator supervises (retains snapshots, expects
    /// heartbeats, respawns). `false` keeps the PR 8 abort semantics.
    pub(crate) supervised: bool,
    /// A respawned incarnation's hand-off (`None`: `g % workers`, all
    /// live, nothing to restore), taken over like a `Msg::Reassign`.
    pub(crate) handoff: Option<Handoff>,
}

pub(crate) struct WorkerOutcome {
    /// States, accounting and the clean flag — what the join folds.
    pub(crate) report: FinalReport,
    /// A `pkill` fired: the caller must die abruptly — no `Final`
    /// frame, no ack flush, a nonzero exit.
    pub(crate) killed: bool,
}

/// One node's worker-local slot: the node itself (state, inbox and
/// causal ids are its own) and what only this executor keeps about it.
struct Slot<'a> {
    global: usize,
    node: NodeEngine<'a>,
    /// Needs another step: never stepped, or the last step delivered
    /// facts, changed state, or sent messages.
    dirty: bool,
    /// Monotone transition count (fault mode: does *not* roll back with
    /// the state, so each crash point fires at most once).
    transitions: usize,
    /// Transitions since the last snapshot (fault mode).
    since_snapshot: usize,
    /// Last crash-recovery checkpoint (fault mode only; `None` on the
    /// fault-free fast path).
    snap: Option<NodeSnapshot>,
    /// Version of `snap`, monotone per node *across incarnations*
    /// (restore hands the retained version back, and the respawned
    /// worker resumes numbering above it), so the coordinator's
    /// keep-the-latest rule is a simple max.
    snap_version: u64,
}

impl Slot<'_> {
    /// Whether the node has inbox facts or is not at its local fixpoint.
    fn has_work(&self) -> bool {
        self.dirty || self.node.buffered() > 0
    }

    /// Go back to `snap` — a crash rollback to the node's own last
    /// checkpoint, or a checkpoint the supervisor retained: the node is
    /// rebuilt from the snapshot's state and inbox alone (it comes back
    /// cold; the ids it mints stay above every one it handed out; what
    /// it sent is in the state, as its program's marks), and
    /// `ReliableNet::restore` re-arms every unacked outbox entry.
    fn roll_back(&mut self, snap: &NodeSnapshot, rnet: &mut ReliableNet<'_>) {
        self.node.restore(&snap.state, &snap.pending);
        self.dirty = true;
        self.since_snapshot = 0;
        rnet.restore(self.global, snap.links.clone());
    }

    /// Reinstall a checkpoint the supervisor retained (respawn or shard
    /// adoption), with the counters that do not roll back.
    fn restore(
        &mut self,
        snap: NodeSnapshot,
        version: u64,
        transitions: u64,
        next_seq: u64,
        rnet: &mut ReliableNet<'_>,
    ) {
        self.roll_back(&snap, rnet);
        self.transitions = transitions as usize;
        self.node.resume_ids_from(next_seq);
        self.snap_version = version;
        self.snap = Some(snap);
    }
}

/// Take a crash-recovery snapshot of one node: capture state, inbox
/// and link state atomically — the state and the inbox as the node holds
/// them, rows and batch handles. Cumulative acks for any
/// receive-cursor advance are pushed into `out` (to be pumped by the
/// caller) — the ack-on-snapshot discipline that makes rollback sound.
fn take_snapshot(slot: &mut Slot<'_>, rnet: &mut ReliableNet<'_>, out: &mut Vec<Wire>) {
    let links = rnet.snapshot(slot.global, out);
    let (state, pending) = slot.node.checkpoint();
    slot.snap = Some(NodeSnapshot {
        state,
        pending,
        links,
    });
    slot.since_snapshot = 0;
}

/// One step's send in the delta wire format, with the trace context
/// stamped in when the send was traced: written from the sent rows over
/// the worker's table, ranked by the worker's `order` (extended here).
fn encode(
    outcome: &NodeStepOutcome,
    symbols: &SharedSymbols,
    order: &mut CanonicalOrder,
) -> Arc<[u8]> {
    let table = symbols.read();
    order.extend(&table);
    let ctx = outcome
        .mid
        .map(|(origin_node, origin_seq)| wirefmt::TraceCtx {
            origin_node,
            origin_seq,
            cause: outcome.cause,
        });
    wirefmt::encode_rows(outcome.sent.rows(), &table, order, ctx.as_ref()).into()
}

/// The next live ring position after `id` (wrapping). With every
/// position live this is `(id + 1) % W` — the classical ring.
fn next_live(live: &[bool], id: usize) -> usize {
    let w = live.len();
    (1..w)
        .map(|d| (id + d) % w)
        .find(|&p| live[p])
        .unwrap_or(id)
}

/// The read-only ingredients a node is minted from — for the worker's
/// own shard at start-up and for the nodes it adopts later.
pub(crate) struct NodeFactory<'a> {
    node_ids: Vec<NodeId>,
    transducer: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    sys: SystemConfig,
    /// `H(x)` of every node, in network order, over `symbols`.
    inputs: Vec<Batch>,
    /// The worker's symbol table: every node it mints is over it, so a
    /// send between two of them is enqueued by handle.
    symbols: SharedSymbols,
}

impl<'a> NodeFactory<'a> {
    /// The factory of a worker whose table is `symbols`: `input` is
    /// walked once, into the `H(x)` of every node of `policy`'s network.
    pub(crate) fn new(
        transducer: &'a dyn Transducer,
        policy: &'a dyn DistributionPolicy,
        sys: SystemConfig,
        input: &Instance,
        symbols: SharedSymbols,
    ) -> Self {
        let inputs = input_batches(policy, input, &mut symbols.write());
        NodeFactory {
            node_ids: policy.network().nodes().cloned().collect(),
            transducer,
            policy,
            sys,
            inputs,
            symbols,
        }
    }

    /// Node `g`, not stepped yet.
    fn slot(&self, g: usize) -> Slot<'a> {
        let (id, input) = (self.node_ids[g].clone(), &self.inputs[g]);
        let (transducer, policy) = (self.transducer, self.policy);
        Slot {
            global: g,
            node: NodeEngine::new(transducer, policy, self.sys, id, input, &self.symbols),
            dirty: true,
            transitions: 0,
            since_snapshot: 0,
            snap: None,
            snap_version: 0,
        }
    }
}

/// The worker's nodes and the accounting every delivery touches.
struct Shard<'a> {
    slots: Vec<Slot<'a>>,
    metrics: Metrics,
    stats: WorkerStats,
}

impl Shard<'_> {
    /// Enqueue `batch` by its handle at each node of this shard that `to`
    /// names, on the worker's account: a send at each but its sender, a
    /// decoded [`Msg::Batch`] at each, an accepted wire at its one
    /// destination. `mid` is the delivery's causal message id, if traced.
    fn enqueue(
        &mut self,
        to: impl Fn(usize) -> bool,
        batch: &Arc<Batch>,
        mid: Option<(u64, u64)>,
        obs: &Obs,
    ) {
        for slot in self.slots.iter_mut().filter(|slot| to(slot.global)) {
            self.stats.enqueued += batch.len();
            slot.dirty |= !batch.is_empty();
            slot.node.enqueue(batch, mid, &mut self.metrics, obs);
        }
    }
}

/// What the worker loop does after a phase.
enum Flow {
    /// Go on to the next phase.
    Next,
    /// Start the loop over: something happened that the earlier phases
    /// must see before this worker may look passive.
    Again,
    /// Leave the loop.
    Exit,
}

/// One worker's whole state: its shard, its reliability substrate (fault
/// mode only), its seat in the Safra ring and what steers its loop.
struct Worker<'a> {
    id: usize,
    ports: &'a dyn Ports,
    obs: &'a Obs,
    fab: NodeFactory<'a>,
    /// Display lane of the loop's phase spans: past every node's.
    track: u32,
    /// 0 for a worker's first process, +1 per respawn.
    incarnation: u64,
    /// Whether the coordinator supervises (process engine only). If so,
    /// the worker does not count basic messages in the Safra
    /// counters: a ring reset (epoch bump on worker death/recovery)
    /// zeroes the sender's count while the receipt lands after the
    /// reset, so counting would skew permanently negative and the ring
    /// could never conclude. Soundness is carried by the substrate
    /// instead — supervision forces a fault plan, so every data message
    /// rides `Msg::Wire` and stays a sender obligation until the
    /// receiver's snapshot acks it; a worker with obligations withholds
    /// the token. Epochs still fence *tokens*: one written to a dead
    /// worker's socket must not resurface and race a fresh probe.
    supervised: bool,
    /// Node -> owning worker: as the last hand-off said (`g % W` for a
    /// first spawn).
    owner: Vec<usize>,
    /// Live ring positions; dead positions are skipped when forwarding
    /// the token and never sent Terminate.
    live: Vec<bool>,
    shard: Shard<'a>,
    /// Ranks what the worker encodes (a send, a blob); extended, never rebuilt.
    order: CanonicalOrder,
    rnet: Option<ReliableNet<'a>>,
    /// Transitions between a node's periodic snapshots (fault mode).
    snapshot_every: usize,
    /// The most node transitions this worker may execute.
    budget: u64,
    /// Node transitions this incarnation has executed or died at.
    steps_done: u64,
    /// `pkill(worker=K@step=S)`: the step count, in this incarnation's
    /// own numbering, at which this process dies in place of stepping.
    /// Entries consumed by earlier incarnations are not ours; later
    /// ones belong to later incarnations — the process is gone by then.
    kill_at: Option<u64>,
    killed: bool,
    /// A hand-off could not be applied: the worker stops, non-clean.
    refused: bool,
    /// Supervised: when this worker last proved liveness.
    last_beat: Instant,
    // Safra state.
    /// Channel batches sent - received.
    counter: i64,
    black: bool,
    held_token: Option<Token>,
    probe_outstanding: bool,
    ring_epoch: u64,
}

impl<'a> Worker<'a> {
    /// The worker in its start configuration: the nodes its hand-off
    /// gives it, taken over by [`Worker::take_over`].
    fn new(ctx: WorkerCtx<'a>) -> Worker<'a> {
        let (id, workers, obs, proc, faults) = (ctx.id, ctx.workers, ctx.obs, ctx.proc, ctx.faults);
        let total_nodes = ctx.fab.node_ids.len();
        let first = Handoff {
            owner: (0..total_nodes).map(|g| g % workers).collect(),
            live: vec![true; workers],
            nodes: Vec::new(),
        };
        let mut w = Worker {
            id,
            ports: ctx.ports,
            obs,
            track: (total_nodes + 1 + id) as u32,
            incarnation: proc.incarnation,
            supervised: proc.supervised,
            owner: first.owner.clone(),
            live: first.live.clone(),
            shard: Shard {
                slots: Vec::new(),
                metrics: Metrics::default(),
                stats: WorkerStats {
                    worker: id,
                    ..WorkerStats::default()
                },
            },
            fab: ctx.fab,
            order: CanonicalOrder::default(),
            rnet: faults.map(|plan| ReliableNet::new(plan, obs)),
            snapshot_every: faults.map_or(usize::MAX, |plan| plan.snapshot_every),
            budget: ctx.budget as u64,
            steps_done: 0,
            kill_at: faults.and_then(|p| p.pkill_steps(id, proc.incarnation).first().copied()),
            killed: false,
            refused: false,
            last_beat: Instant::now(),
            counter: 0,
            black: false,
            held_token: None,
            probe_outstanding: false,
            ring_epoch: proc.epoch,
        };
        w.take_over(proc.handoff.unwrap_or(first), false);
        w
    }

    /// Take over the nodes `handoff` gives this worker — its shard at
    /// start-up, a dead peer's nodes on a `Msg::Reassign` (`adopting`):
    /// install the owner map and the live mask, mint a slot for every
    /// owned node that has none, restore each node the hand-off carries
    /// a checkpoint of (a node without one never shipped one, so its
    /// fresh start is its committed history), and under a fault plan
    /// checkpoint every slot that has none yet — supervised, that
    /// publishes v0 before any traffic. A hand-off that does not fit —
    /// `owner` not one live position per node, `live` not one entry per
    /// position, a node taken away, a checkpoint of a node this worker
    /// will not own or already holds — or a checkpoint that does not
    /// decode is [`Worker::refuse`]d (`false`).
    fn take_over(&mut self, handoff: Handoff, adopting: bool) -> bool {
        let Handoff { owner, live, nodes } = handoff;
        let (id, slots) = (self.id, &self.shard.slots);
        let held = |g: usize| slots.iter().any(|s| s.global == g);
        let fits = owner.len() == self.owner.len()
            && live.len() == self.live.len()
            && owner.iter().all(|&k| live.get(k) == Some(&true))
            && slots.iter().all(|s| owner[s.global] == id)
            && (nodes.iter()).all(|&(g, ..)| owner.get(g) == Some(&id) && !held(g))
            && (nodes.is_empty() || self.rnet.is_some());
        let table = &self.fab.symbols;
        let decode = |(g, version, blob): (usize, u64, Vec<u8>)| {
            decode_snapshot_blob(&blob, &mut table.write()).map(|snap| (g, version, snap))
        };
        let decoded = fits.then(|| nodes.into_iter().map(decode).collect::<Result<Vec<_>, _>>());
        let Some(Ok(decoded)) = decoded else {
            return self.refuse();
        };
        let minted: Vec<usize> = (0..owner.len())
            .filter(|&g| owner[g] == id && !held(g))
            .collect();
        (self.owner, self.live) = (owner, live);
        let fresh = self.shard.slots.len();
        for g in minted {
            self.shard.slots.push(self.fab.slot(g));
            if let Some(rnet) = self.rnet.as_mut() {
                rnet.adopt(g);
            }
        }
        for (g, version, (snap, transitions, next_seq)) in decoded {
            let rnet = self.rnet.as_mut().expect("checked above");
            let slot = (self.shard.slots[fresh..].iter_mut()).find(|s| s.global == g);
            let slot = slot.expect("minted above");
            slot.restore(snap, version, transitions, next_seq, rnet);
        }
        for slot in &self.shard.slots[fresh..] {
            let g = slot.global;
            let version = ("version", ArgValue::U64(slot.snap_version));
            let node = ("node", ArgValue::U64(g as u64));
            let worker = ("worker", ArgValue::U64(id as u64));
            if adopting {
                let restored = ("restored", ArgValue::Bool(slot.snap.is_some()));
                let args = || vec![node, worker, version, restored];
                self.obs.event("net", "adopt", g as u32 + 1, args);
            } else if slot.snap.is_some() {
                let incarnation = ("incarnation", ArgValue::U64(self.incarnation));
                let args = || vec![node, worker, incarnation, version];
                self.obs.event("net", "restore", g as u32 + 1, args);
            }
        }
        let (mut none, faulty) = (Vec::new(), self.rnet.is_some());
        for l in 0..self.shard.slots.len() {
            if faulty && self.shard.slots[l].snap.is_none() {
                self.checkpoint(l, false, &mut none);
            }
        }
        debug_assert!(none.is_empty(), "fresh links cannot emit acks");
        true
    }

    /// Stop on a hand-off that cannot be applied, so that no node ever
    /// starts over fresh after shipping a snapshot: count a decode
    /// failure, leave non-clean and end the run for every live peer.
    fn refuse(&mut self) -> bool {
        self.refused = true;
        if let Some(rnet) = self.rnet.as_mut() {
            rnet.stats.decode_failures += 1;
        }
        self.terminate_peers();
        false
    }

    /// Send `Terminate` to every other live ring position.
    fn terminate_peers(&self) {
        for (peer, &alive) in self.live.iter().enumerate() {
            if peer != self.id && alive {
                self.ports.send(peer, Msg::Terminate);
            }
        }
    }

    /// A span around one phase of the loop, on the worker's own lane.
    fn phase(&self, name: &'static str) -> calm_obs::SpanGuard {
        self.obs.span_on("net", self.track, || name.to_string())
    }

    /// Route wires until none remain: local arrivals run through the
    /// substrate's receive path (which may emit re-ack wires, queued
    /// back here); remote wires go onto the owning worker's channel as
    /// [`Msg::Wire`] — counted in the Safra counter like any basic
    /// message, unless supervised.
    fn pump(&mut self, start: Vec<Wire>) {
        let mut queue: VecDeque<Wire> = start.into();
        while let Some(wire) = queue.pop_front() {
            let dst = wire.dst();
            if self.owner[dst] == self.id {
                let rnet = self.rnet.as_mut().expect("wire without a fault plan");
                let mut replies = Vec::new();
                let accepted = rnet.receive(wire, &mut self.fab.symbols.write(), &mut replies);
                queue.extend(replies);
                if let Some((node, rows, mid)) = accepted {
                    (self.shard).enqueue(|g| g == node, &Arc::new(rows), mid, self.obs);
                }
            } else {
                if !self.supervised {
                    self.counter += 1;
                }
                self.ports.send(self.owner[dst], Msg::Wire(wire));
            }
        }
    }

    /// Checkpoint slot `l` into `acks`; supervised, also publish it —
    /// as the next version when `bump` (progress since the last one),
    /// as the version it already carries otherwise (a node's first
    /// checkpoint).
    fn checkpoint(&mut self, l: usize, bump: bool, acks: &mut Vec<Wire>) {
        let rnet = self.rnet.as_mut().expect("checkpoint without a fault plan");
        let slot = &mut self.shard.slots[l];
        take_snapshot(slot, rnet, acks);
        if self.supervised {
            // Output commit: the snapshot frame goes on the socket
            // *before* any wire it released (same transport, same
            // writer — the caller pumps `acks` after this), so the
            // supervisor's retained version always covers everything
            // peers may see.
            slot.snap_version += bump as u64;
            let snap = slot.snap.as_ref().expect("just taken");
            let table = self.fab.symbols.read();
            self.order.extend(&table);
            let (transitions, next_seq) = (slot.transitions as u64, slot.node.next_seq());
            let blob = encode_snapshot_blob(snap, &table, &self.order, transitions, next_seq);
            rnet.stats.snapshot_bytes += blob.len() as u64;
            self.ports
                .ship_snapshot(slot.global, slot.snap_version, blob);
        }
    }

    /// React to one received message. `true` to leave the loop: on
    /// `Terminate`, or a hand-off refused.
    fn on_msg(&mut self, msg: Msg) -> bool {
        if matches!(msg, Msg::Batch { .. } | Msg::Wire(_)) {
            // A basic message of the termination-detection algorithm.
            if !self.supervised {
                self.counter -= 1;
            }
            self.black = true;
        }
        match msg {
            Msg::Batch { payload } => {
                let decoded = wirefmt::decode_rows(&payload, &mut self.fab.symbols.write());
                let (rows, ctx) = decoded.expect("channel batch decodes");
                (self.shard).enqueue(|_| true, &Arc::new(rows), ctx.map(|c| c.id()), self.obs);
            }
            Msg::Wire(wire) => self.pump(vec![wire]),
            Msg::Token(t) => {
                if t.epoch == self.ring_epoch {
                    self.held_token = Some(t);
                }
            }
            Msg::Terminate => return true,
            Msg::Reset { epoch } => {
                if epoch > self.ring_epoch {
                    self.ring_epoch = epoch;
                    self.counter = 0;
                    self.black = true;
                    self.held_token = None;
                    self.probe_outstanding = false;
                }
            }
            Msg::Reassign(handoff) => {
                self.black = true;
                return !self.take_over(handoff, true);
            }
        }
        false
    }

    /// Supervised: prove liveness on a clock, not on progress — a busy
    /// loop that never idles must still beat.
    fn beat(&mut self) {
        if self.supervised && self.last_beat.elapsed() >= HEARTBEAT_EVERY {
            self.ports.heartbeat();
            self.last_beat = Instant::now();
        }
    }

    /// Phase 1: take everything the transport holds, without blocking.
    fn drain(&mut self) -> Flow {
        let mut span = None;
        let mut terminate = false;
        while let Ok(msg) = self.ports.try_recv() {
            span.get_or_insert_with(|| self.phase("worker.drain"));
            terminate |= self.on_msg(msg);
        }
        if terminate {
            Flow::Exit
        } else {
            Flow::Next
        }
    }

    /// Phase 2, fault mode: advance the logical clock — release due
    /// delayed wires and fire due retransmissions.
    fn tick(&mut self) -> Flow {
        if let Some(rnet) = self.rnet.as_mut() {
            let mut wires = Vec::new();
            rnet.advance(&mut wires);
            if !wires.is_empty() {
                let _span = self.phase("worker.drain");
                self.pump(wires);
            }
        }
        Flow::Next
    }

    /// Phase 3: step, once each, the nodes that have inbox facts or are
    /// not yet at their local fixpoint — then start over, to re-drain
    /// before deciding passivity. A worker out of budget acts passive
    /// so the ring can still conclude (the run reports `quiescent:
    /// false`).
    fn step_shard(&mut self) -> Flow {
        if !self.shard.slots.iter().any(Slot::has_work) {
            return Flow::Next;
        }
        if self.steps_done >= self.budget {
            self.shard.stats.exhausted = true;
            return Flow::Next;
        }
        let _span = self.phase("worker.step");
        for l in 0..self.shard.slots.len() {
            let slot = &self.shard.slots[l];
            // A crashed node takes no steps until its recovery window
            // closes.
            let down = |r: &ReliableNet<'_>| r.node_down(slot.global);
            if !slot.has_work() || self.rnet.as_ref().is_some_and(down) {
                continue;
            }
            if self.steps_done >= self.budget {
                break;
            }
            self.steps_done += 1;
            if self.kill_at.is_some_and(|s| self.steps_done >= s) {
                // This incarnation dies in place of its S-th step —
                // nothing from the aborted step is derived, staged, or
                // sent. The event triggers a flight dump so even the
                // killed incarnation leaves a post-mortem behind.
                let (id, incarnation, step) = (self.id, self.incarnation, self.steps_done);
                self.obs.event("net", "worker_killed", id as u32 + 1, || {
                    vec![
                        ("worker", ArgValue::U64(id as u64)),
                        ("incarnation", ArgValue::U64(incarnation)),
                        ("step", ArgValue::U64(step)),
                    ]
                });
                self.killed = true;
                return Flow::Exit;
            }
            self.step_slot(l);
        }
        Flow::Again
    }

    /// One transition of local node `l`: deliver everything (`m =
    /// b(x)`; asynchrony comes from the thread interleaving instead of
    /// submultiset sampling), step, route what it sent, and under a
    /// fault plan keep the crash schedule and the snapshot cadence.
    fn step_slot(&mut self, l: usize) {
        let Shard { slots, metrics, .. } = &mut self.shard;
        let slot = &mut slots[l];
        let outcome = slot.node.step(Delivery::All, metrics, self.obs);
        slot.dirty = outcome.state_changed || !outcome.sent.is_empty() || outcome.delivered > 0;
        slot.transitions += 1;
        slot.since_snapshot += 1;
        let (sender, transitions) = (slot.global, slot.transitions);
        self.route(sender, &outcome);

        let Some(rnet) = self.rnet.as_mut() else {
            return;
        };
        if let Some(point) = rnet.due_crash(sender, transitions) {
            // Crash: roll back to the last snapshot, drop in-flight
            // outgoing wires, go down. Blacken the worker — the
            // rollback may have erased receipts the current probe round
            // already observed (see `termination.rs`).
            self.black = true;
            let slot = &mut self.shard.slots[l];
            let snap = slot
                .snap
                .take()
                .expect("every node snapshots before it can crash");
            slot.roll_back(&snap, rnet);
            slot.snap = Some(snap);
            rnet.crash(sender, point.down_ticks);
            self.obs.event("net", "crash", sender as u32 + 1, || {
                vec![
                    ("node", ArgValue::U64(sender as u64)),
                    ("down_ticks", ArgValue::U64(point.down_ticks)),
                ]
            });
        } else if self.shard.slots[l].since_snapshot >= self.snapshot_every {
            let mut acks = Vec::new();
            self.checkpoint(l, true, &mut acks);
            self.pump(acks);
        }
    }

    /// Send what node `sender`'s step sent to every other node. Under a
    /// fault plan every send is staged in the substrate per (sender,
    /// destination node) link and the next snapshot commits it to the
    /// wire through the fault gauntlet. Without one (so unsupervised),
    /// the shard's other nodes take the sent slice in memory and every
    /// other worker one [`Msg::Batch`] for all its nodes, counted in the
    /// Safra counter. One encoding of the send — with the trace context
    /// stamped in when tracing is on — serves every destination that
    /// needs bytes.
    fn route(&mut self, sender: usize, outcome: &NodeStepOutcome) {
        if outcome.sent.is_empty() {
            return;
        }
        let track = sender as u32 + 1;
        let _span = self.obs.span_on("runtime", track, || "route".to_string());
        let mut encoded: Option<Arc<[u8]>> = None;
        let (symbols, order) = (&self.fab.symbols, &mut self.order);
        let mut payload = || {
            let bytes = encoded.get_or_insert_with(|| encode(outcome, symbols, order));
            Arc::clone(bytes)
        };
        if let Some(rnet) = self.rnet.as_mut() {
            for g in (0..self.owner.len()).filter(|&g| g != sender) {
                rnet.send_payload(sender, g, payload());
            }
            return;
        }
        (self.shard).enqueue(|g| g != sender, &outcome.sent, outcome.mid, self.obs);
        for peer in (0..self.live.len()).filter(|&k| k != self.id && self.live[k]) {
            let payload = payload();
            self.shard.stats.wire_bytes += payload.len() as u64;
            self.counter += 1;
            self.ports.send(peer, Msg::Batch { payload });
        }
    }

    /// Phase 4, fault mode: the extended passivity predicate. Before
    /// joining the token protocol, flush snapshots for slots whose
    /// receive cursors can advance (emitting the cumulative acks peers
    /// are waiting for) or that hold staged sends (committing them to
    /// the wire). If the substrate still has obligations — unacked
    /// sends, wires in the delay buffer, nodes in recovery — the worker
    /// is *not* passive: it withholds the token and waits with a
    /// timeout so the fault clock keeps ticking and due retransmissions
    /// fire. This is how Safra is taught about retransmissions and
    /// in-recovery nodes.
    fn flush(&mut self) -> Flow {
        if self.rnet.is_none() {
            return Flow::Next;
        }
        let mut span = None;
        let mut acks = Vec::new();
        for l in 0..self.shard.slots.len() {
            // Supervised adds a third flush reason: *any* progress
            // since the last shipped snapshot. The supervisor's
            // retained version then equals the final state once the
            // ring concludes — a kill landing after Terminate can
            // still be restored byte-identically.
            let slot = &self.shard.slots[l];
            let rnet = self.rnet.as_ref().expect("checked above");
            if rnet.ackable(slot.global)
                || rnet.staged(slot.global)
                || (self.supervised && slot.since_snapshot > 0)
            {
                span.get_or_insert_with(|| self.phase("worker.flush"));
                self.checkpoint(l, true, &mut acks);
            }
        }
        self.pump(acks);
        drop(span);
        if !self.rnet.as_ref().is_some_and(ReliableNet::has_obligations) {
            return Flow::Next;
        }
        let _span = self.phase("worker.wait");
        let terminate = match self.ports.recv_timeout(TIMER_WAIT) {
            Ok(msg) => self.on_msg(msg),
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => true,
        };
        if terminate {
            Flow::Exit
        } else {
            Flow::Again
        }
    }

    /// Phase 5, passive: the token protocol, over the *live* ring. The
    /// initiator is the lowest live position (worker 0 unless its
    /// budget ran out and its shard was adopted), and the token skips
    /// dead positions.
    fn token_turn(&mut self) -> Flow {
        let live_count = self.live.iter().filter(|&&b| b).count();
        if live_count <= 1 {
            // Sole live worker: passivity is global quiescence.
            return Flow::Exit;
        }
        let _span = self.phase("worker.token");
        let next = next_live(&self.live, self.id);
        let initiator = self.live.iter().position(|&b| b).unwrap_or(0);
        if self.id != initiator {
            if let Some(mut token) = self.held_token.take() {
                token.absorb(self.counter, self.black);
                self.black = false;
                self.shard.stats.token_passes += 1;
                self.ports.send(next, Msg::Token(token));
            }
            return Flow::Next;
        }
        let returned = self.held_token.take();
        if let Some(token) = &returned {
            if token.concludes(self.counter, self.black) {
                // Termination: nothing in flight, all passive through a
                // full white round.
                self.terminate_peers();
                return Flow::Exit;
            }
        }
        if returned.is_some() || !self.probe_outstanding {
            // The first probe, or an inconclusive one is back: whiten
            // and probe (again).
            self.probe_outstanding = true;
            self.black = false;
            self.shard.stats.token_passes += 1;
            let mut probe = Token::probe(self.ring_epoch);
            probe.passes = returned.map_or(0, |t| t.passes + 1);
            self.ports.send(next, Msg::Token(probe));
        }
        Flow::Next
    }

    /// Phase 6: block until something arrives (a batch reactivates us,
    /// a token resumes the probe, Terminate ends the run). Supervised:
    /// wake on the heartbeat clock so an idle worker still proves
    /// liveness (and its supervisor never mistakes waiting for a token
    /// withheld across a crash window for a hang).
    fn wait(&mut self) -> Flow {
        let _span = self.phase("worker.wait");
        let msg = if self.supervised {
            match self.ports.recv_timeout(HEARTBEAT_EVERY) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    self.ports.heartbeat();
                    self.last_beat = Instant::now();
                    return Flow::Again;
                }
                Err(RecvTimeoutError::Disconnected) => return Flow::Exit,
            }
        } else {
            match self.ports.recv() {
                Ok(m) => m,
                Err(_) => return Flow::Exit,
            }
        };
        if self.on_msg(msg) {
            Flow::Exit
        } else {
            Flow::Again
        }
    }

    /// Take the worker apart into its final report: accounting, and
    /// every node's state as the rows it is.
    fn finish(mut self) -> WorkerOutcome {
        let _span = self.phase("worker.finish");
        let Shard {
            slots,
            metrics,
            mut stats,
            ..
        } = self.shard;
        // A lost transport link forfeits the quiescence claim: facts may
        // have been abandoned in flight. So does a scripted kill — the
        // process is about to die without flushing anything — and a
        // refused hand-off.
        let mut clean = !slots.iter().any(Slot::has_work)
            && !stats.exhausted
            && self.ports.link_ok()
            && !self.killed
            && !self.refused;
        if let Some(rnet) = self.rnet.as_mut() {
            // A message abandoned to the retry budget means fairness was
            // not restored: the run must not claim quiescence.
            rnet.finalize();
            clean &= rnet.stats.retry_exhausted == 0;
            stats.faults = rnet.stats;
            stats.link_counters = std::mem::take(&mut rnet.link_counters);
            stats.wire_bytes += rnet.wire_bytes;
        }
        // Adoption may have grown the shard since the initial assignment.
        let node_ids = &self.fab.node_ids;
        stats.nodes = slots.iter().map(|s| node_ids[s.global].clone()).collect();
        stats.buffered = slots.iter().map(|s| s.node.buffered()).sum();
        stats.metrics = metrics;
        let states = StateRows {
            symbols: self.fab.symbols.clone(),
            nodes: (slots.into_iter())
                .map(|s| (node_ids[s.global].clone(), s.node.into_rows().0))
                .collect(),
        };
        WorkerOutcome {
            report: FinalReport {
                states,
                stats,
                clean,
            },
            killed: self.killed,
        }
    }
}

/// Build a [`Worker`], loop over its phases until one says to leave —
/// not at all if it refused its hand-off — take it apart.
pub(crate) fn run_worker<'a>(ctx: WorkerCtx<'a>) -> WorkerOutcome {
    let mut w = Worker::new(ctx);
    let phases: [fn(&mut Worker<'a>) -> Flow; 6] = [
        Worker::drain,
        Worker::tick,
        Worker::step_shard,
        Worker::flush,
        Worker::token_turn,
        Worker::wait,
    ];
    'run: while !w.refused {
        w.beat();
        for phase in phases {
            match phase(&mut w) {
                Flow::Next => {}
                Flow::Again => continue 'run,
                Flow::Exit => break 'run,
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::{fact, Fact};
    use calm_common::storage::{store_to_instance, Storage};
    use calm_common::value::Value;
    use calm_spec::{node_pending, node_state};
    use calm_transducer::multiset::Multiset;

    /// A synthetic final report for worker `k`, every folded quantity
    /// different per worker.
    fn report(k: usize) -> FinalReport {
        let n = k as u64 + 1;
        let mut stats = WorkerStats {
            worker: k,
            token_passes: n,
            wire_bytes: 100 * n,
            ..WorkerStats::default()
        };
        stats.metrics.transitions = 10 * (k + 1);
        stats.metrics.messages_sent = 7 * (k + 1);
        stats.metrics.first_output_at = Some(5 - k);
        stats
            .metrics
            .buffered_high_water
            .insert(Value::Int(k as i64), k + 2);
        stats.faults.attempts = 3 * n;
        stats.faults.dropped = n;
        let sent = stats.link_counters.entry((k, 0)).or_default();
        sent.attempts = n;
        let shared = stats.link_counters.entry((0, 1)).or_default();
        shared.delivered = n;
        let state = Instance::from_facts([fact("T", [k as i64, 1])]);
        FinalReport {
            stats,
            states: crate::codec::tests::rows_of(&[(Value::Int(k as i64), state)]),
            clean: true,
        }
    }

    /// `facts` as one batch over `symbols`.
    fn batch_of(facts: &[Fact], symbols: &SharedSymbols) -> Arc<Batch> {
        let facts: Multiset<Fact> = facts.iter().cloned().collect();
        Arc::new(Batch::of_facts(&facts, &mut symbols.write()))
    }

    /// Whether `snap` holds the batches `inbox` — the very handles.
    fn holds_by_handle(snap: &NodeSnapshot, inbox: &[&Arc<Batch>]) -> bool {
        let pending = snap.pending.iter().zip(inbox);
        snap.pending.len() == inbox.len() && pending.into_iter().all(|(a, b)| Arc::ptr_eq(a, b))
    }

    fn sent(batch: &Batch, symbols: &SharedSymbols) -> Multiset<Fact> {
        let mut facts = Multiset::new();
        batch.add_to(&symbols.read(), &mut facts);
        facts
    }

    #[test]
    fn a_restored_slot_is_rebuilt_from_the_snapshot_state_alone() {
        use calm_transducer::{HashPolicy, MonotoneBroadcast, Network};
        let t = MonotoneBroadcast::new(Box::new(calm_queries::tc::tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let sys = SystemConfig::ORIGINAL;
        let fab = NodeFactory::new(&t, &policy, sys, &input, SharedSymbols::new());
        let symbols = fab.symbols.clone();
        let plan = FaultPlan::none(1);
        // A live handle, so that the node mints ids.
        let obs = Obs::new(Arc::new(calm_obs::ReportSink::new()));
        let mut rnet = ReliableNet::new(&plan, &obs);
        rnet.adopt(0);
        let mut metrics = Metrics::default();
        let mut slot = fab.slot(0);
        let mut step = |slot: &mut Slot<'_>, delivered: &[Fact]| {
            let delivered = batch_of(delivered, &symbols);
            slot.node
                .enqueue(&delivered, Some((1, 0)), &mut metrics, &obs);
            slot.node.step(Delivery::All, &mut metrics, &obs)
        };
        assert_eq!(step(&mut slot, &[]).mid, Some((0, 0)));
        take_snapshot(&mut slot, &mut rnet, &mut Vec::new());
        let snap = slot.snap.clone().expect("just taken");
        let state = node_state(&slot.node, &symbols);
        assert_eq!(store_to_instance(&snap.state, &symbols), state);
        assert!(holds_by_handle(&snap, &[]), "an empty inbox");
        // Progress past the checkpoint, with the engine warm and a fact
        // waiting in the inbox. A delivered fact is stored, not sent on:
        // no send, no id.
        assert_eq!(step(&mut slot, &[fact("m_E", [3, 4])]).mid, None);
        let waiting = batch_of(&[fact("m_E", [4, 5])], &symbols);
        let node = &mut slot.node;
        node.enqueue(&waiting, None, &mut Metrics::default(), &obs);
        assert!(!slot.node.is_cold());
        assert_ne!(node_state(&slot.node, &symbols), state);
        // A checkpoint holds the inbox by handle.
        take_snapshot(&mut slot, &mut rnet, &mut Vec::new());
        let later = slot.snap.clone().expect("just taken");
        assert!(holds_by_handle(&later, &[&waiting]));
        // Crash rollback and supervised restore share this path.
        slot.roll_back(&snap, &mut rnet);
        assert!(slot.node.is_cold(), "nothing warm survives a restore");
        assert_eq!(node_state(&slot.node, &symbols), state);
        assert!(
            node_pending(&slot.node, &symbols).is_empty(),
            "the inbox goes back too"
        );
        assert!(slot.dirty);
        // The redone step lands where the first one did.
        step(&mut slot, &[fact("m_E", [3, 4])]);
        let mut reference = fab.slot(0);
        step(&mut reference, &[]);
        step(&mut reference, &[fact("m_E", [3, 4])]);
        assert_eq!(
            node_state(&slot.node, &symbols),
            node_state(&reference.node, &symbols)
        );
        // Forward again, to the later checkpoint: its inbox comes back
        // as the handle it was.
        slot.roll_back(&later, &mut rnet);
        let restored = node_state(&slot.node, &symbols);
        assert_eq!(store_to_instance(&later.state, &symbols), restored);
        assert_eq!(slot.node.checkpoint().1.len(), 1);
        assert!(Arc::ptr_eq(&slot.node.checkpoint().1[0], &waiting));
        // Back at the start configuration the node says its own facts
        // again — as a new send event: the ids do not roll back with
        // the state.
        let start = NodeSnapshot {
            state: Storage::new(),
            pending: Vec::new(),
            links: snap.links.clone(),
        };
        slot.roll_back(&start, &mut rnet);
        assert_eq!(slot.node.next_seq(), 1);
        assert_eq!(step(&mut slot, &[]).mid, Some((0, 1)));
        // A supervised restore resumes a dead incarnation's numbering.
        reference.restore(snap, 3, 7, 40, &mut rnet);
        assert_eq!((reference.transitions, reference.snap_version), (7, 3));
        assert_eq!(reference.node.next_seq(), 40);
    }

    #[test]
    fn a_checkpoint_blob_read_into_another_table_restores_the_same_node() {
        use calm_queries::tc::edges_without_source_loop;
        use calm_transducer::{DistinctStrategy, HashPolicy, Network};
        let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
        let policy = HashPolicy::new(Network::of_size(2));
        let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 2]), fact("E", [3, 1])]);
        let sys = SystemConfig::POLICY_AWARE;
        let fab = |symbols: SharedSymbols| NodeFactory::new(&t, &policy, sys, &input, symbols);
        let (plan, obs) = (FaultPlan::none(1), Obs::noop());
        let mut metrics = Metrics::default();
        let (original, other) = (fab(SharedSymbols::new()), SharedSymbols::new());
        let symbols = original.symbols.clone();
        let mut slot = original.slot(0);
        slot.node.step(Delivery::All, &mut metrics, &obs);
        // Two batches waiting, one fact in both.
        let waiting = [
            batch_of(&[fact("m_E", [4, 5]), fact("n_E", [6, 6])], &symbols),
            batch_of(&[fact("m_E", [4, 5]), fact("m_E", [7, 1])], &symbols),
        ];
        for batch in &waiting {
            slot.node.enqueue(batch, None, &mut metrics, &obs);
        }
        let mut rnet = ReliableNet::new(&plan, &obs);
        rnet.adopt(0);
        take_snapshot(&mut slot, &mut rnet, &mut Vec::new());
        let snap = slot.snap.clone().expect("just taken");
        assert!(holds_by_handle(&snap, &[&waiting[0], &waiting[1]]));

        // The blob, read into a table where the indexes already mean
        // other values and other relations.
        let mut order = CanonicalOrder::default();
        order.extend(&symbols.read());
        let blob = encode_snapshot_blob(&snap, &symbols.read(), &order, 5, 9);
        for k in 0..40 {
            let mut table = other.write();
            table.rel(&format!("r{k}"));
            table.sym(&Value::Int(1000 - k));
        }
        let (back, transitions, next_seq) =
            decode_snapshot_blob(&blob, &mut other.write()).expect("the blob reads");
        let adopter = fab(other.clone());
        let mut restored = adopter.slot(0);
        let mut adopter_net = ReliableNet::new(&plan, &obs);
        adopter_net.adopt(0);
        restored.restore(back, 1, transitions, next_seq, &mut adopter_net);
        let pending = node_pending(&restored.node, &other);
        assert_eq!(
            node_state(&restored.node, &other),
            node_state(&slot.node, &symbols)
        );
        assert_eq!(pending, node_pending(&slot.node, &symbols));
        assert_eq!(pending.count(&fact("m_E", [4, 5])), 2);
        // And it goes on as the original does.
        let (a, b) = (
            slot.node.step(Delivery::All, &mut metrics, &obs),
            restored
                .node
                .step(Delivery::All, &mut Metrics::default(), &obs),
        );
        assert!(!a.sent.is_empty(), "new values: absences to send");
        assert_eq!(sent(&b.sent, &other), sent(&a.sent, &symbols));
        assert_eq!(
            node_state(&restored.node, &other),
            node_state(&slot.node, &symbols)
        );
    }

    /// The broadcast strategy over `tc`, except that the second program
    /// the instances sharing `opened` open panics when it is first
    /// advanced.
    struct SecondFails {
        strategy: calm_transducer::MonotoneBroadcast,
        opened: Arc<std::sync::atomic::AtomicUsize>,
    }

    struct Fails;

    impl calm_transducer::transducer::NodeProgram for Fails {
        fn advance(
            &mut self,
            _: &mut calm_transducer::transducer::NodeView<'_>,
        ) -> calm_common::storage::EvalMetrics {
            panic!("the second program fails")
        }
    }

    impl Transducer for SecondFails {
        fn schema(&self) -> &calm_transducer::TransducerSchema {
            self.strategy.schema()
        }
        fn step(&self, d: &Instance) -> calm_transducer::transducer::TransducerStep {
            self.strategy.step(d)
        }
        fn open(
            &self,
            table: &mut calm_common::storage::SymbolTable,
        ) -> Box<dyn calm_transducer::transducer::NodeProgram + '_> {
            match self
                .opened
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            {
                1 => Box::new(Fails),
                _ => self.strategy.open(table),
            }
        }
    }

    #[test]
    fn a_worker_that_panics_ends_the_run_with_its_panic() {
        // Its peers used to wait for a token that never came, and the run
        // with them.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let opened = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let factory = move || -> Box<dyn Transducer> {
                Box::new(SecondFails {
                    strategy: calm_transducer::MonotoneBroadcast::new(Box::new(
                        calm_queries::tc::tc_datalog(),
                    )),
                    opened: Arc::clone(&opened),
                })
            };
            let policy = calm_transducer::HashPolicy::new(calm_transducer::Network::of_size(4));
            let tn = ThreadedNetwork {
                programs: Programs::PerWorker(&factory),
                policy: &policy,
                config: SystemConfig::ORIGINAL,
            };
            let input = calm_common::generator::path(20);
            let cfg = ThreadedConfig::new(2);
            let run =
                std::panic::catch_unwind(AssertUnwindSafe(|| run_threaded(&tn, &input, &cfg)));
            let panic = run
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            tx.send(panic).expect("the test waits");
        });
        let ended = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(ended, Ok(Some("the second program fails".to_string())));
    }

    /// Worker 0 of a supervised two-worker ring over four `tc` nodes,
    /// started with `handoff` and with `inbox` waiting for it, run to
    /// its end: its final report, and what its peer was sent.
    fn run_handed_over(handoff: Option<Handoff>, inbox: Vec<Msg>) -> (FinalReport, Vec<Msg>) {
        use calm_transducer::{HashPolicy, MonotoneBroadcast, Network};
        let t = MonotoneBroadcast::new(Box::new(calm_queries::tc::tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(4));
        let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let sys = SystemConfig::ORIGINAL;
        let fab = NodeFactory::new(&t, &policy, sys, &input, SharedSymbols::new());
        let ((tx, rx), (peer, peer_rx)) = (std::sync::mpsc::channel(), std::sync::mpsc::channel());
        for msg in inbox {
            tx.send(msg).expect("the worker's own channel");
        }
        let ports = ChannelPorts {
            rx,
            senders: vec![tx, peer],
        };
        let plan = FaultPlan::none(0);
        let outcome = run_worker(WorkerCtx {
            id: 0,
            workers: 2,
            fab,
            ports: &ports,
            budget: 10_000,
            faults: Some(&plan),
            obs: &Obs::noop(),
            proc: ProcCtx {
                supervised: true,
                handoff,
                ..ProcCtx::default()
            },
        });
        (outcome.report, peer_rx.try_iter().collect())
    }

    /// A hand-off after worker 1 died for good: worker 0 owns every
    /// node, and `nodes` are the checkpoints it carries.
    fn sole_survivor(nodes: Vec<(usize, u64, Vec<u8>)>) -> Handoff {
        Handoff {
            owner: vec![0; 4],
            live: vec![true, false],
            nodes,
        }
    }

    /// Whether `report` is that of a worker that refused its hand-off and
    /// told its peer to terminate.
    fn refused(report: &FinalReport, to_peer: &[Msg]) -> bool {
        !report.clean
            && report.stats.faults.decode_failures == 1
            && matches!(to_peer, [.., Msg::Terminate])
    }

    #[test]
    fn a_checkpoint_that_does_not_decode_stops_the_worker_on_either_path() {
        let garbage = || vec![(1, 3, vec![0xff; 5])];
        // Adopted: the worker used to count the failure and start node 1
        // over fresh, though it had shipped a snapshot.
        let reassign = Msg::Reassign(sole_survivor(garbage()));
        let (report, to_peer) = run_handed_over(None, vec![reassign]);
        assert!(refused(&report, &to_peer));
        assert_eq!(report.states.nodes.len(), 2, "its own two nodes alone");
        // Respawned: the same outcome, before any node is minted.
        let (report, to_peer) = run_handed_over(Some(sole_survivor(garbage())), Vec::new());
        assert!(refused(&report, &to_peer));
        assert!(report.states.nodes.is_empty());
    }

    #[test]
    fn a_handoff_that_does_not_fit_is_refused_like_an_undecodable_checkpoint() {
        // A `Terminate` waits in case the hand-off is taken over: the
        // worker then owns every node and leaves at once, none stepped.
        let run = |handoff| run_handed_over(Some(handoff), vec![Msg::Terminate]);
        let (report, to_peer) = run(sole_survivor(Vec::new()));
        assert!(!refused(&report, &to_peer));
        assert_eq!(report.states.nodes.len(), 4);
        let short = Handoff {
            owner: vec![0; 3],
            ..sole_survivor(Vec::new())
        };
        let dead_owner = Handoff {
            owner: vec![0, 1, 0, 0],
            ..sole_survivor(Vec::new())
        };
        let short_live = Handoff {
            live: vec![true],
            ..sole_survivor(Vec::new())
        };
        let not_ours = Handoff {
            owner: vec![0, 1, 0, 1],
            live: vec![true, true],
            nodes: vec![(3, 0, Vec::new())],
        };
        for handoff in [short, dead_owner, short_live, not_ours] {
            let (report, to_peer) = run(handoff.clone());
            assert!(refused(&report, &to_peer), "{handoff:?}");
        }
    }

    /// The channel transport, keeping the message id and the length of
    /// every [`Msg::Batch`] the worker receives.
    struct Tapped {
        ports: ChannelPorts,
        batches: std::sync::Mutex<Vec<((u64, u64), usize)>>,
    }

    impl Tapped {
        fn tap(&self, msg: Msg) -> Msg {
            if let Msg::Batch { payload } = &msg {
                let id = wirefmt::peek_trace(payload).expect("a traced send").id();
                self.batches.lock().unwrap().push((id, payload.len()));
            }
            msg
        }
    }

    impl Ports for Tapped {
        fn send(&self, dst: usize, msg: Msg) {
            self.ports.send(dst, msg);
        }
        fn try_recv(&self) -> Result<Msg, TryRecvError> {
            self.ports.try_recv().map(|msg| self.tap(msg))
        }
        fn recv(&self) -> Result<Msg, RecvError> {
            self.ports.recv().map(|msg| self.tap(msg))
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Msg, RecvTimeoutError> {
            self.ports.recv_timeout(timeout).map(|msg| self.tap(msg))
        }
    }

    /// The id of every non-empty send: each `trace/send` event's
    /// `(origin, seq)`.
    #[derive(Default)]
    struct Sends(std::sync::Mutex<Vec<(u64, u64)>>);

    impl calm_obs::Sink for Sends {
        fn span(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}
        fn event(&self, cat: &str, name: &str, _: u32, _: u64, args: &[(&str, ArgValue)]) {
            let arg = |key: &str| match args.iter().find(|(k, _)| *k == key) {
                Some((_, ArgValue::U64(n))) => *n,
                _ => panic!("a send event without {key}"),
            };
            if (cat, name) == ("trace", "send") {
                self.0.lock().unwrap().push((arg("origin"), arg("seq")));
            }
        }
        fn counter(&self, _: &str, _: &str, _: u64, _: u64) {}
        fn gauge(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}
        fn histogram(&self, _: &str, _: &str, _: u64) {}
    }

    #[test]
    fn a_send_reaches_each_other_worker_once() {
        use calm_transducer::{HashPolicy, MonotoneBroadcast, Network};
        let t = MonotoneBroadcast::new(Box::new(calm_queries::tc::tc_datalog()));
        let input = calm_common::generator::path(20);
        for nodes in [4, 6] {
            let policy = HashPolicy::new(Network::of_size(nodes));
            let sends = Arc::new(Sends::default());
            let obs = Obs::new(sends.clone());
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..2).map(|_| std::sync::mpsc::channel()).unzip();
            let taps: Vec<Tapped> = (receivers.into_iter())
                .map(|rx| Tapped {
                    ports: ChannelPorts {
                        rx,
                        senders: senders.clone(),
                    },
                    batches: Default::default(),
                })
                .collect();
            // What each worker reported, and the batches it received.
            let ended: Vec<(FinalReport, Vec<_>)> = std::thread::scope(|scope| {
                let run = |(id, ports): (usize, Tapped)| {
                    let (t, policy, input, obs) = (&t, &policy, &input, &obs);
                    scope.spawn(move || {
                        let sys = SystemConfig::ORIGINAL;
                        let fab = NodeFactory::new(t, policy, sys, input, SharedSymbols::new());
                        let proc = ProcCtx::default();
                        let (budget, faults) = (10_000, None);
                        let ctx = WorkerCtx {
                            id,
                            workers: 2,
                            fab,
                            ports: &ports,
                            budget,
                            faults,
                            obs,
                            proc,
                        };
                        let report = run_worker(ctx).report;
                        (report, ports.batches.into_inner().unwrap())
                    })
                };
                let handles: Vec<_> = taps.into_iter().enumerate().map(run).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let sent = sends.0.lock().unwrap().clone();
            for (k, (report, received)) in ended.iter().enumerate() {
                assert!(report.clean, "{nodes} nodes");
                // Node g runs on worker g % 2: every send of a node on the
                // other worker, each once.
                let from_peer = |&(origin, _): &(u64, u64)| origin as usize % 2 != k;
                let mut expected: Vec<(u64, u64)> =
                    sent.iter().copied().filter(from_peer).collect();
                let mut ids: Vec<(u64, u64)> = received.iter().map(|&(id, _)| id).collect();
                expected.sort_unstable();
                ids.sort_unstable();
                assert!(!ids.is_empty(), "{nodes} nodes");
                assert_eq!(ids, expected, "worker {k} of 2, {nodes} nodes");
                // The peer put those payloads on the wire, each once.
                let bytes: usize = received.iter().map(|&(_, len)| len).sum();
                let peer = &ended[1 - k].0.stats;
                assert_eq!(peer.wire_bytes, bytes as u64, "worker {k}, {nodes} nodes");
            }
        }
    }

    #[test]
    fn join_is_independent_of_the_order_reports_arrive_in() {
        let join = |order: [usize; 3]| {
            let reports = order.iter().map(|&k| report(k)).collect();
            join_reports(reports, 3, true, true, 0, &Obs::noop())
        };
        let base = join([0, 1, 2]);
        assert_eq!(base.metrics.transitions, 60);
        assert_eq!(base.metrics.first_output_at, Some(3));
        assert_eq!(base.faults.attempts, 18);
        assert_eq!(base.link_counters[&(0, 1)].delivered, 6);
        assert_eq!(base.wire_bytes, 600);
        assert!(base.quiescent);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let j = join(order);
            assert_eq!(j.metrics, base.metrics, "{order:?}");
            assert_eq!(j.faults, base.faults, "{order:?}");
            assert_eq!(j.link_counters, base.link_counters, "{order:?}");
            let (states, base) = (j.states.materialize(), base.states.materialize());
            assert_eq!(states, base, "{order:?}");
            let workers: Vec<usize> = j.per_worker.iter().map(|w| w.worker).collect();
            assert_eq!(workers, [0, 1, 2], "{order:?}");
        }
        // A missing report or a lost process forfeits quiescence and is
        // counted as a crash.
        let lossy = join_reports(vec![report(0)], 2, true, false, 1, &Obs::noop());
        assert!(!lossy.quiescent);
        assert_eq!(lossy.faults.crashes, 1);
    }
}
