//! Control-plane messages of the process engine, and their binary
//! codec.
//!
//! Five message kinds cross the coordinator↔worker streams, each one
//! frame ([`super::frame`]):
//!
//! * `Hello` — worker → coordinator, first frame of a connection:
//!   protocol version + the worker's ring position.
//! * `Assign` — coordinator → worker, the reply: the full job hand-off
//!   (program + input sources, strategy, node count, fault spec, obs
//!   paths) plus this worker's index and the ring size. Node-shard
//!   assignment is implied: node `i` runs on worker `i mod W`, the same
//!   rule as the threaded executor.
//! * `Route` — worker → coordinator: an executor message ([`Msg`])
//!   addressed to another worker. The coordinator relays it; batch
//!   payloads pass through verbatim in the canonical [`crate::wirefmt`]
//!   encoding, trace extension headers included.
//! * `Deliver` — coordinator → worker: a relayed executor message.
//! * `Final` — worker → coordinator, last frame: the worker's final
//!   node states, its [`WorkerStats`], and its clean/quiescent verdict.
//! * `Snapshot` — worker → coordinator (supervised runs): a versioned,
//!   canonically encoded checkpoint of one node (instance state,
//!   undelivered inbox, outbox and seq/ack floors).
//!   The coordinator retains the latest per node and hands it back in
//!   the re-`Assign` after a respawn, or inside a `Reassign` when a
//!   survivor adopts a dead worker's shard.
//! * `Heartbeat` — worker → coordinator: liveness beacon, so a
//!   hung-but-connected worker trips the supervisor's timeout instead
//!   of stalling the run forever.
//!
//! The codec reuses the varint/value primitives of [`crate::wirefmt`],
//! and decoding is strict in the same spirit: unknown tags, truncation
//! and trailing bytes all surface as [`WireError`]s.

use crate::executor::Msg;
use crate::faults::FaultStats;
use crate::reliable::{LinkCounters, NodeLinks, NodeSnapshot, OutEntry, Wire};
use crate::termination::Token;
use crate::wirefmt::{put_bytes, put_value, put_varint, zigzag, Reader, WireError};
use crate::WorkerStats;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_transducer::multiset::Multiset;
use calm_transducer::network::NodeId;
use calm_transducer::runtime::Metrics;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The process-engine protocol version, checked at handshake. A
/// coordinator refuses a worker speaking a different version — the two
/// sides are expected to be the same binary, so a mismatch means a
/// stale spawn, not a negotiation opportunity.
///
/// v2 adds supervision: `Snapshot`/`Heartbeat` control frames, ring
/// epochs on tokens, `Reset`/`Reassign` executor messages, and the
/// incarnation/epoch/restore fields of `Assign`. v3 drops the naive
/// wire-byte baseline from outbox entries and worker stats.
pub const PROTOCOL_VERSION: u32 = 3;

/// The job a coordinator hands every worker: sources and knobs, all
/// engine-agnostic strings the worker's builder interprets (the
/// transport never parses the program itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Datalog program source (not a path — the hand-off is by value,
    /// so workers need no shared filesystem).
    pub program: String,
    /// Input facts source.
    pub facts: String,
    /// Strategy family name (`monotone` | `distinct` | `disjoint`).
    pub strategy: String,
    /// Network size (node `i` runs on worker `i mod W`).
    pub nodes: usize,
    /// Data-parallel eval threads inside each node-local fixpoint.
    pub eval_threads: usize,
    /// Per-worker step budget (the threaded engine's default is 1M).
    pub step_budget: usize,
    /// Fault-plan spec string (see [`crate::FaultPlan::parse`]), or
    /// `None` for the perfect-channel fast path.
    pub faults: Option<String>,
    /// Per-worker `--trace-out` prefix, already suffixed by the
    /// coordinator (e.g. `PREFIX.worker3`) so concurrent writers never
    /// interleave into one file.
    pub trace_prefix: Option<String>,
    /// Per-worker flight-recorder path, already suffixed likewise.
    pub flight_path: Option<String>,
}

/// The `Assign` hand-off: the job plus this worker's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// This worker's ring position.
    pub worker: usize,
    /// Ring size W.
    pub workers: usize,
    /// The job.
    pub spec: JobSpec,
    /// How many times this ring position has been (re)spawned: 0 on
    /// the first spawn, k after the k-th respawn. A worker uses it to
    /// skip the kill-plan entries its prior incarnations consumed.
    pub incarnation: u64,
    /// Current ring epoch — tokens minted in earlier epochs are stale
    /// and dropped (a token written to a dead worker's socket is lost;
    /// the coordinator bumps the epoch at every recovery event).
    pub epoch: u64,
    /// Whether the coordinator supervises this run: when true the
    /// worker ships versioned `Snapshot` frames so a respawn can
    /// restore its shard instead of aborting the run.
    pub supervised: bool,
    /// Explicit node→worker ownership map, or `None` for the default
    /// `node i mod W` rule. Becomes `Some` after shard adoption.
    pub owner: Option<Vec<usize>>,
    /// Liveness mask over ring positions (`empty` = all live). Dead
    /// positions are skipped by the token ring and receive no traffic.
    pub live: Vec<bool>,
    /// Snapshot hand-back for a respawned or adoptive worker: for each
    /// restored node, its latest retained `(node, version, blob)`.
    pub restore: Vec<(usize, u64, Vec<u8>)>,
}

impl Assign {
    /// A first-spawn assignment with default topology (no supervision
    /// extras): incarnation 0, epoch 0, implicit ownership, all live.
    pub fn new(worker: usize, workers: usize, spec: JobSpec) -> Assign {
        Assign {
            worker,
            workers,
            spec,
            incarnation: 0,
            epoch: 0,
            supervised: false,
            owner: None,
            live: Vec::new(),
            restore: Vec::new(),
        }
    }
}

/// A worker's final report: its share of the run, mirroring what a
/// threaded worker returns at join.
#[derive(Debug, Clone)]
pub struct FinalReport {
    /// Per-worker accounting (metrics, token passes, fault counters,
    /// wire bytes).
    pub stats: WorkerStats,
    /// Final state of every node this worker owned.
    pub states: Vec<(NodeId, Instance)>,
    /// No pending inbox facts, every node at local fixpoint, no retry
    /// exhaustion, transport link intact.
    pub clean: bool,
}

/// A control-plane message (one per frame).
// One CtrlMsg lives at a time per connection thread; the small/large
// variant spread is irrelevant to memory, so boxing would only add hops.
#[allow(clippy::large_enum_variant)]
pub(crate) enum CtrlMsg {
    /// Worker → coordinator: version + ring position.
    Hello { version: u32, worker: usize },
    /// Coordinator → worker: the job hand-off.
    Assign(Assign),
    /// Worker → coordinator: relay `msg` to worker `dst`.
    Route { dst: usize, msg: Msg },
    /// Coordinator → worker: a relayed message.
    Deliver(Msg),
    /// Worker → coordinator: final states + accounting.
    Final(FinalReport),
    /// Worker → coordinator: a versioned node checkpoint (see
    /// [`encode_snapshot_blob`] for the blob layout). Shipped *before*
    /// the wires the snapshot released, so by per-link FIFO the
    /// coordinator retains version v before any peer can observe a
    /// message released at v — restoring the latest retained blob is
    /// therefore always output-commit sound.
    Snapshot {
        /// Global node id.
        node: usize,
        /// Monotone per-node version counter.
        version: u64,
        /// Canonical blob bytes.
        blob: Vec<u8>,
    },
    /// Worker → coordinator: liveness beacon.
    Heartbeat { worker: usize },
}

const TAG_HELLO: u8 = 0;
const TAG_ASSIGN: u8 = 1;
const TAG_ROUTE: u8 = 2;
const TAG_DELIVER: u8 = 3;
const TAG_FINAL: u8 = 4;
const TAG_SNAPSHOT: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;

const MSG_BATCH: u8 = 0;
const MSG_WIRE_DATA: u8 = 1;
const MSG_WIRE_ACK: u8 = 2;
const MSG_TOKEN: u8 = 3;
const MSG_TERMINATE: u8 = 4;
const MSG_RESET: u8 = 5;
const MSG_REASSIGN: u8 = 6;

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_bytes(out, s.as_bytes());
        }
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?.to_string())),
        _ => Err(WireError::NonCanonical("bad option flag")),
    }
}

fn put_opt_varint(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
    }
}

fn read_opt_varint(r: &mut Reader<'_>) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.varint()?)),
        _ => Err(WireError::NonCanonical("bad option flag")),
    }
}

/// Shared list layout for snapshot hand-backs: `(node, version, blob)`
/// triples, used by both `Assign.restore` and `Msg::Reassign.adopted`.
fn put_restores(out: &mut Vec<u8>, rs: &[(usize, u64, Vec<u8>)]) {
    put_varint(out, rs.len() as u64);
    for (node, version, blob) in rs {
        put_varint(out, *node as u64);
        put_varint(out, *version);
        put_bytes(out, blob);
    }
}

fn read_restores(r: &mut Reader<'_>) -> Result<Vec<(usize, u64, Vec<u8>)>, WireError> {
    let n = r.count()?;
    let mut rs = Vec::with_capacity(n);
    for _ in 0..n {
        let node = r.varint()? as usize;
        let version = r.varint()?;
        let blob = r.prefixed_bytes()?.to_vec();
        rs.push((node, version, blob));
    }
    Ok(rs)
}

fn put_owner(out: &mut Vec<u8>, owner: &Option<Vec<usize>>) {
    match owner {
        None => out.push(0),
        Some(map) => {
            out.push(1);
            put_varint(out, map.len() as u64);
            for w in map {
                put_varint(out, *w as u64);
            }
        }
    }
}

fn read_owner(r: &mut Reader<'_>) -> Result<Option<Vec<usize>>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.count()?;
            let mut map = Vec::with_capacity(n);
            for _ in 0..n {
                map.push(r.varint()? as usize);
            }
            Ok(Some(map))
        }
        _ => Err(WireError::NonCanonical("bad option flag")),
    }
}

fn put_live(out: &mut Vec<u8>, live: &[bool]) {
    put_varint(out, live.len() as u64);
    for b in live {
        out.push(*b as u8);
    }
}

fn read_live(r: &mut Reader<'_>) -> Result<Vec<bool>, WireError> {
    let n = r.count()?;
    let mut live = Vec::with_capacity(n);
    for _ in 0..n {
        live.push(r.bool()?);
    }
    Ok(live)
}

fn put_msg(out: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Batch { node, payload } => {
            out.push(MSG_BATCH);
            put_varint(out, *node as u64);
            put_bytes(out, payload);
        }
        Msg::Wire(Wire::Data {
            src,
            dst,
            seq,
            payload,
        }) => {
            out.push(MSG_WIRE_DATA);
            put_varint(out, *src as u64);
            put_varint(out, *dst as u64);
            put_varint(out, *seq);
            put_bytes(out, payload);
        }
        Msg::Wire(Wire::Ack { src, dst, cum }) => {
            out.push(MSG_WIRE_ACK);
            put_varint(out, *src as u64);
            put_varint(out, *dst as u64);
            put_varint(out, *cum);
        }
        Msg::Token(t) => {
            out.push(MSG_TOKEN);
            put_varint(out, zigzag(t.count));
            out.push(t.black as u8);
            put_varint(out, t.passes);
            put_varint(out, t.epoch);
        }
        Msg::Terminate => out.push(MSG_TERMINATE),
        Msg::Reset { epoch } => {
            out.push(MSG_RESET);
            put_varint(out, *epoch);
        }
        Msg::Reassign {
            owner,
            live,
            adopted,
        } => {
            out.push(MSG_REASSIGN);
            put_varint(out, owner.len() as u64);
            for w in owner {
                put_varint(out, *w as u64);
            }
            put_live(out, live);
            put_restores(out, adopted);
        }
    }
}

fn read_msg(r: &mut Reader<'_>) -> Result<Msg, WireError> {
    Ok(match r.u8()? {
        MSG_BATCH => Msg::Batch {
            node: r.varint()? as usize,
            payload: Arc::from(r.prefixed_bytes()?),
        },
        MSG_WIRE_DATA => Msg::Wire(Wire::Data {
            src: r.varint()? as usize,
            dst: r.varint()? as usize,
            seq: r.varint()?,
            payload: Arc::from(r.prefixed_bytes()?),
        }),
        MSG_WIRE_ACK => Msg::Wire(Wire::Ack {
            src: r.varint()? as usize,
            dst: r.varint()? as usize,
            cum: r.varint()?,
        }),
        MSG_TOKEN => Msg::Token(Token {
            count: crate::wirefmt::unzigzag(r.varint()?),
            black: r.bool()?,
            passes: r.varint()?,
            epoch: r.varint()?,
        }),
        MSG_TERMINATE => Msg::Terminate,
        MSG_RESET => Msg::Reset { epoch: r.varint()? },
        MSG_REASSIGN => {
            let n = r.count()?;
            let mut owner = Vec::with_capacity(n);
            for _ in 0..n {
                owner.push(r.varint()? as usize);
            }
            Msg::Reassign {
                owner,
                live: read_live(r)?,
                adopted: read_restores(r)?,
            }
        }
        _ => return Err(WireError::NonCanonical("unknown msg tag")),
    })
}

/// One fact: relation name, arity, values.
fn put_fact(out: &mut Vec<u8>, f: &Fact) {
    put_bytes(out, f.relation().as_bytes());
    put_varint(out, f.arity() as u64);
    for v in f.values() {
        put_value(out, v);
    }
}

fn read_fact(r: &mut Reader<'_>) -> Result<Fact, WireError> {
    let name: Arc<str> = Arc::from(r.str()?);
    let arity = r.count()?;
    if arity == 0 {
        // The paper's model has no nullary relations; `Fact` enforces
        // arity >= 1, so a zero here is a corrupt or hostile frame.
        return Err(WireError::NonCanonical("nullary fact"));
    }
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        args.push(r.value(0)?);
    }
    Ok(Fact::from_rel(name, args))
}

fn put_instance(out: &mut Vec<u8>, i: &Instance) {
    let facts: Vec<Fact> = i.facts().collect();
    put_varint(out, facts.len() as u64);
    for f in &facts {
        put_fact(out, f);
    }
}

fn read_instance(r: &mut Reader<'_>) -> Result<Instance, WireError> {
    let n = r.count()?;
    let mut i = Instance::new();
    for _ in 0..n {
        i.insert(read_fact(r)?);
    }
    Ok(i)
}

fn put_metrics(out: &mut Vec<u8>, m: &Metrics) {
    put_varint(out, m.transitions as u64);
    put_varint(out, m.heartbeats as u64);
    put_varint(out, m.messages_sent as u64);
    put_varint(out, m.messages_delivered as u64);
    put_opt_varint(out, m.first_output_at.map(|v| v as u64));
    put_opt_varint(out, m.last_output_growth_at.map(|v| v as u64));
    for n in [
        m.by_class.fact,
        m.by_class.absence,
        m.by_class.value,
        m.by_class.request,
        m.by_class.ok,
        m.by_class.ack,
        m.by_class.other,
    ] {
        put_varint(out, n as u64);
    }
    put_varint(out, m.buffered_high_water.len() as u64);
    for (node, hw) in &m.buffered_high_water {
        put_value(out, node);
        put_varint(out, *hw as u64);
    }
    for n in [
        m.eval.iterations,
        m.eval.derivations,
        m.eval.new_facts,
        m.eval.index_probes,
        m.eval.index_hits,
        m.eval.merge_probes,
        m.eval.merge_hits,
        m.eval.bytes_moved,
    ] {
        put_varint(out, n as u64);
    }
}

// Decoders assign field-by-field because each `varint()?` is an ordered,
// fallible read — a struct literal would hide the wire order.
#[allow(clippy::field_reassign_with_default)]
fn read_metrics(r: &mut Reader<'_>) -> Result<Metrics, WireError> {
    let mut m = Metrics::default();
    m.transitions = r.varint()? as usize;
    m.heartbeats = r.varint()? as usize;
    m.messages_sent = r.varint()? as usize;
    m.messages_delivered = r.varint()? as usize;
    m.first_output_at = read_opt_varint(r)?.map(|v| v as usize);
    m.last_output_growth_at = read_opt_varint(r)?.map(|v| v as usize);
    m.by_class.fact = r.varint()? as usize;
    m.by_class.absence = r.varint()? as usize;
    m.by_class.value = r.varint()? as usize;
    m.by_class.request = r.varint()? as usize;
    m.by_class.ok = r.varint()? as usize;
    m.by_class.ack = r.varint()? as usize;
    m.by_class.other = r.varint()? as usize;
    let hw_count = r.count()?;
    for _ in 0..hw_count {
        let node = r.value(0)?;
        let hw = r.varint()? as usize;
        m.buffered_high_water.insert(node, hw);
    }
    m.eval.iterations = r.varint()? as usize;
    m.eval.derivations = r.varint()? as usize;
    m.eval.new_facts = r.varint()? as usize;
    m.eval.index_probes = r.varint()? as usize;
    m.eval.index_hits = r.varint()? as usize;
    m.eval.merge_probes = r.varint()? as usize;
    m.eval.merge_hits = r.varint()? as usize;
    m.eval.bytes_moved = r.varint()? as usize;
    Ok(m)
}

fn put_fault_stats(out: &mut Vec<u8>, f: &FaultStats) {
    for n in [
        f.attempts,
        f.retransmissions,
        f.duplicates_injected,
        f.dropped,
        f.delayed,
        f.delivered_batches,
        f.duplicates_suppressed,
        f.replayed_facts_suppressed,
        f.acks_sent,
        f.snapshots,
        f.crashes,
        f.retry_exhausted,
        f.decode_failures,
        f.replayed,
        f.snapshot_bytes,
    ] {
        put_varint(out, n);
    }
}

#[allow(clippy::field_reassign_with_default)]
fn read_fault_stats(r: &mut Reader<'_>) -> Result<FaultStats, WireError> {
    let mut f = FaultStats::default();
    f.attempts = r.varint()?;
    f.retransmissions = r.varint()?;
    f.duplicates_injected = r.varint()?;
    f.dropped = r.varint()?;
    f.delayed = r.varint()?;
    f.delivered_batches = r.varint()?;
    f.duplicates_suppressed = r.varint()?;
    f.replayed_facts_suppressed = r.varint()?;
    f.acks_sent = r.varint()?;
    f.snapshots = r.varint()?;
    f.crashes = r.varint()?;
    f.retry_exhausted = r.varint()?;
    f.decode_failures = r.varint()?;
    f.replayed = r.varint()?;
    f.snapshot_bytes = r.varint()?;
    Ok(f)
}

/// Encode one node checkpoint into the blob carried by
/// `CtrlMsg::Snapshot` and handed back in `Assign.restore` /
/// `Msg::Reassign.adopted`.
///
/// Layout (all lengths varint-prefixed, canonical wirefmt values):
/// instance state, pending inbox as a `(fact, multiplicity)` multiset,
/// the link state (`out` outboxes with payload bytes verbatim + staged
/// flag, `cum`, `seen`, `sent_floor`, `recv_dedup`), then the node's monotone transition
/// count and trace-seq allocator. Retry timers (`attempt`, `retry_at`)
/// are deliberately *not* shipped: a restore re-arms every unacked
/// entry from zero, since the old backoff schedule belonged to a dead
/// incarnation's clock.
pub(crate) fn encode_snapshot_blob(
    snap: &NodeSnapshot,
    transitions: u64,
    trace_next_seq: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_instance(&mut out, &snap.state);
    put_varint(&mut out, snap.pending.iter().count() as u64);
    for (f, n) in snap.pending.iter() {
        put_fact(&mut out, f);
        put_varint(&mut out, n as u64);
    }
    let l = &snap.links;
    put_varint(&mut out, l.out.len() as u64);
    for (dst, entries) in &l.out {
        put_varint(&mut out, *dst as u64);
        put_varint(&mut out, entries.len() as u64);
        for (seq, e) in entries {
            put_varint(&mut out, *seq);
            put_bytes(&mut out, &e.payload);
            out.push(e.staged as u8);
        }
    }
    put_varint(&mut out, l.cum.len() as u64);
    for (src, cum) in &l.cum {
        put_varint(&mut out, *src as u64);
        put_varint(&mut out, *cum);
    }
    put_varint(&mut out, l.seen.len() as u64);
    for (src, seqs) in &l.seen {
        put_varint(&mut out, *src as u64);
        put_varint(&mut out, seqs.len() as u64);
        for s in seqs {
            put_varint(&mut out, *s);
        }
    }
    put_varint(&mut out, l.sent_floor.len() as u64);
    for (dst, floor) in &l.sent_floor {
        put_varint(&mut out, *dst as u64);
        put_varint(&mut out, *floor);
    }
    put_varint(&mut out, l.recv_dedup.len() as u64);
    for (src, facts) in &l.recv_dedup {
        put_varint(&mut out, *src as u64);
        put_varint(&mut out, facts.len() as u64);
        for f in facts {
            put_fact(&mut out, f);
        }
    }
    put_varint(&mut out, transitions);
    put_varint(&mut out, trace_next_seq);
    out
}

/// Decode a snapshot blob. Strict: truncation and trailing bytes are
/// errors, like every other frame in this protocol.
pub(crate) fn decode_snapshot_blob(bytes: &[u8]) -> Result<(NodeSnapshot, u64, u64), WireError> {
    let mut r = Reader::new(bytes);
    let state = read_instance(&mut r)?;
    let pending_count = r.count()?;
    let mut pending = Multiset::new();
    for _ in 0..pending_count {
        let f = read_fact(&mut r)?;
        let n = r.varint()? as usize;
        pending.insert_n(f, n);
    }
    let mut links = NodeLinks::default();
    let out_count = r.count()?;
    for _ in 0..out_count {
        let dst = r.varint()? as usize;
        let entry_count = r.count()?;
        let mut entries = BTreeMap::new();
        for _ in 0..entry_count {
            let seq = r.varint()?;
            let payload: Arc<[u8]> = Arc::from(r.prefixed_bytes()?);
            let staged = r.bool()?;
            entries.insert(
                seq,
                OutEntry {
                    payload,
                    attempt: 0,
                    retry_at: 0,
                    staged,
                },
            );
        }
        links.out.insert(dst, entries);
    }
    let cum_count = r.count()?;
    for _ in 0..cum_count {
        let src = r.varint()? as usize;
        let cum = r.varint()?;
        links.cum.insert(src, cum);
    }
    let seen_count = r.count()?;
    for _ in 0..seen_count {
        let src = r.varint()? as usize;
        let n = r.count()?;
        let mut seqs = BTreeSet::new();
        for _ in 0..n {
            seqs.insert(r.varint()?);
        }
        links.seen.insert(src, seqs);
    }
    let floor_count = r.count()?;
    for _ in 0..floor_count {
        let dst = r.varint()? as usize;
        let floor = r.varint()?;
        links.sent_floor.insert(dst, floor);
    }
    let dedup_count = r.count()?;
    for _ in 0..dedup_count {
        let src = r.varint()? as usize;
        let n = r.count()?;
        let mut facts = BTreeSet::new();
        for _ in 0..n {
            facts.insert(read_fact(&mut r)?);
        }
        links.recv_dedup.insert(src, facts);
    }
    let transitions = r.varint()?;
    let trace_next_seq = r.varint()?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok((
        NodeSnapshot {
            state,
            pending,
            links,
        },
        transitions,
        trace_next_seq,
    ))
}

fn put_worker_stats(out: &mut Vec<u8>, s: &WorkerStats) {
    put_varint(out, s.worker as u64);
    put_varint(out, s.nodes.len() as u64);
    for n in &s.nodes {
        put_value(out, n);
    }
    put_metrics(out, &s.metrics);
    put_varint(out, s.enqueued as u64);
    put_varint(out, s.buffered as u64);
    put_varint(out, s.token_passes);
    out.push(s.exhausted as u8);
    put_fault_stats(out, &s.faults);
    put_varint(out, s.link_counters.len() as u64);
    for ((src, dst), c) in &s.link_counters {
        put_varint(out, *src as u64);
        put_varint(out, *dst as u64);
        for n in [c.attempts, c.dropped, c.delivered, c.suppressed, c.buffered] {
            put_varint(out, n);
        }
    }
    put_varint(out, s.wire_bytes);
}

#[allow(clippy::field_reassign_with_default)]
fn read_worker_stats(r: &mut Reader<'_>) -> Result<WorkerStats, WireError> {
    let mut s = WorkerStats {
        worker: r.varint()? as usize,
        ..WorkerStats::default()
    };
    let node_count = r.count()?;
    for _ in 0..node_count {
        s.nodes.push(r.value(0)?);
    }
    s.metrics = read_metrics(r)?;
    s.enqueued = r.varint()? as usize;
    s.buffered = r.varint()? as usize;
    s.token_passes = r.varint()?;
    s.exhausted = r.bool()?;
    s.faults = read_fault_stats(r)?;
    let link_count = r.count()?;
    let mut links: BTreeMap<(usize, usize), LinkCounters> = BTreeMap::new();
    for _ in 0..link_count {
        let src = r.varint()? as usize;
        let dst = r.varint()? as usize;
        let mut c = LinkCounters::default();
        c.attempts = r.varint()?;
        c.dropped = r.varint()?;
        c.delivered = r.varint()?;
        c.suppressed = r.varint()?;
        c.buffered = r.varint()?;
        links.insert((src, dst), c);
    }
    s.link_counters = links;
    s.wire_bytes = r.varint()?;
    Ok(s)
}

/// Encode a control-plane message into one frame payload.
pub(crate) fn encode_ctrl(msg: &CtrlMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        CtrlMsg::Hello { version, worker } => {
            out.push(TAG_HELLO);
            put_varint(&mut out, *version as u64);
            put_varint(&mut out, *worker as u64);
        }
        CtrlMsg::Assign(a) => {
            out.push(TAG_ASSIGN);
            put_varint(&mut out, a.worker as u64);
            put_varint(&mut out, a.workers as u64);
            put_bytes(&mut out, a.spec.program.as_bytes());
            put_bytes(&mut out, a.spec.facts.as_bytes());
            put_bytes(&mut out, a.spec.strategy.as_bytes());
            put_varint(&mut out, a.spec.nodes as u64);
            put_varint(&mut out, a.spec.eval_threads as u64);
            put_varint(&mut out, a.spec.step_budget as u64);
            put_opt_str(&mut out, &a.spec.faults);
            put_opt_str(&mut out, &a.spec.trace_prefix);
            put_opt_str(&mut out, &a.spec.flight_path);
            put_varint(&mut out, a.incarnation);
            put_varint(&mut out, a.epoch);
            out.push(a.supervised as u8);
            put_owner(&mut out, &a.owner);
            put_live(&mut out, &a.live);
            put_restores(&mut out, &a.restore);
        }
        CtrlMsg::Route { dst, msg } => {
            out.push(TAG_ROUTE);
            put_varint(&mut out, *dst as u64);
            put_msg(&mut out, msg);
        }
        CtrlMsg::Deliver(msg) => {
            out.push(TAG_DELIVER);
            put_msg(&mut out, msg);
        }
        CtrlMsg::Final(f) => {
            out.push(TAG_FINAL);
            put_worker_stats(&mut out, &f.stats);
            put_varint(&mut out, f.states.len() as u64);
            for (node, state) in &f.states {
                put_value(&mut out, node);
                put_instance(&mut out, state);
            }
            out.push(f.clean as u8);
        }
        CtrlMsg::Snapshot {
            node,
            version,
            blob,
        } => {
            out.push(TAG_SNAPSHOT);
            put_varint(&mut out, *node as u64);
            put_varint(&mut out, *version);
            put_bytes(&mut out, blob);
        }
        CtrlMsg::Heartbeat { worker } => {
            out.push(TAG_HEARTBEAT);
            put_varint(&mut out, *worker as u64);
        }
    }
    out
}

/// Decode one frame payload. Strict: unknown tags, truncation and
/// trailing bytes are all errors.
pub(crate) fn decode_ctrl(bytes: &[u8]) -> Result<CtrlMsg, WireError> {
    let mut r = Reader::new(bytes);
    let msg = match r.u8()? {
        TAG_HELLO => CtrlMsg::Hello {
            version: r.varint()? as u32,
            worker: r.varint()? as usize,
        },
        TAG_ASSIGN => CtrlMsg::Assign(Assign {
            worker: r.varint()? as usize,
            workers: r.varint()? as usize,
            spec: JobSpec {
                program: r.str()?.to_string(),
                facts: r.str()?.to_string(),
                strategy: r.str()?.to_string(),
                nodes: r.varint()? as usize,
                eval_threads: r.varint()? as usize,
                step_budget: r.varint()? as usize,
                faults: read_opt_str(&mut r)?,
                trace_prefix: read_opt_str(&mut r)?,
                flight_path: read_opt_str(&mut r)?,
            },
            incarnation: r.varint()?,
            epoch: r.varint()?,
            supervised: r.bool()?,
            owner: read_owner(&mut r)?,
            live: read_live(&mut r)?,
            restore: read_restores(&mut r)?,
        }),
        TAG_ROUTE => CtrlMsg::Route {
            dst: r.varint()? as usize,
            msg: read_msg(&mut r)?,
        },
        TAG_DELIVER => CtrlMsg::Deliver(read_msg(&mut r)?),
        TAG_FINAL => {
            let stats = read_worker_stats(&mut r)?;
            let state_count = r.count()?;
            let mut states = Vec::with_capacity(state_count);
            for _ in 0..state_count {
                let node = r.value(0)?;
                let state = read_instance(&mut r)?;
                states.push((node, state));
            }
            let clean = r.bool()?;
            CtrlMsg::Final(FinalReport {
                stats,
                states,
                clean,
            })
        }
        TAG_SNAPSHOT => CtrlMsg::Snapshot {
            node: r.varint()? as usize,
            version: r.varint()?,
            blob: r.prefixed_bytes()?.to_vec(),
        },
        TAG_HEARTBEAT => CtrlMsg::Heartbeat {
            worker: r.varint()? as usize,
        },
        _ => return Err(WireError::NonCanonical("unknown ctrl tag")),
    };
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wirefmt;
    use calm_common::fact::fact;
    use calm_common::value::Value;
    use calm_transducer::multiset::Multiset;

    fn round(msg: &CtrlMsg) -> CtrlMsg {
        let bytes = encode_ctrl(msg);
        // Every strict prefix of a ctrl frame must fail to decode.
        for cut in 0..bytes.len() {
            assert!(
                decode_ctrl(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.push(7);
        assert!(decode_ctrl(&long).is_err(), "trailing byte must not decode");
        decode_ctrl(&bytes).expect("round trip")
    }

    fn spec() -> JobSpec {
        JobSpec {
            program: "@output T.\nT(x,y) :- E(x,y).".into(),
            facts: "E(1,2).".into(),
            strategy: "monotone".into(),
            nodes: 4,
            eval_threads: 2,
            step_budget: 1_000_000,
            faults: Some("seed=7,drop=0.1".into()),
            trace_prefix: Some("/tmp/run.worker3".into()),
            flight_path: None,
        }
    }

    #[test]
    fn hello_and_assign_round_trip() {
        match round(&CtrlMsg::Hello {
            version: PROTOCOL_VERSION,
            worker: 3,
        }) {
            CtrlMsg::Hello { version, worker } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(worker, 3);
            }
            _ => panic!("wrong tag"),
        }
        let assign = Assign::new(1, 4, spec());
        match round(&CtrlMsg::Assign(assign.clone())) {
            CtrlMsg::Assign(a) => assert_eq!(a, assign),
            _ => panic!("wrong tag"),
        }
        // A recovery re-Assign: every supervision field populated.
        let reassign = Assign {
            incarnation: 2,
            epoch: 5,
            supervised: true,
            owner: Some(vec![0, 1, 0, 1]),
            live: vec![true, true, false, true],
            restore: vec![(2, 7, vec![1, 2, 3]), (6, 1, Vec::new())],
            ..Assign::new(2, 4, spec())
        };
        match round(&CtrlMsg::Assign(reassign.clone())) {
            CtrlMsg::Assign(a) => assert_eq!(a, reassign),
            _ => panic!("wrong tag"),
        }
    }

    #[test]
    fn routed_messages_round_trip_with_payloads_verbatim() {
        let mut batch: Multiset<Fact> = Multiset::new();
        batch.insert_n(fact("E", [1, 2]), 2);
        let ctx = wirefmt::TraceCtx {
            origin_node: 3,
            origin_seq: 9,
            cause: Some((1, 4)),
        };
        let payload: Arc<[u8]> = wirefmt::encode_traced(&batch, Some(&ctx)).into();
        match round(&CtrlMsg::Route {
            dst: 2,
            msg: Msg::Batch {
                node: 5,
                payload: payload.clone(),
            },
        }) {
            CtrlMsg::Route {
                dst: 2,
                msg:
                    Msg::Batch {
                        node: 5,
                        payload: p,
                    },
            } => {
                // The canonical batch bytes — trace header included —
                // survive the relay hop byte-for-byte.
                assert_eq!(&p[..], &payload[..]);
                assert_eq!(wirefmt::peek_trace(&p), Some(ctx));
            }
            _ => panic!("wrong shape"),
        }
        match round(&CtrlMsg::Deliver(Msg::Wire(Wire::Data {
            src: 1,
            dst: 6,
            seq: 44,
            payload: payload.clone(),
        }))) {
            CtrlMsg::Deliver(Msg::Wire(Wire::Data {
                src: 1,
                dst: 6,
                seq: 44,
                payload: p,
            })) => {
                assert_eq!(&p[..], &payload[..]);
            }
            _ => panic!("wrong shape"),
        }
        match round(&CtrlMsg::Deliver(Msg::Wire(Wire::Ack {
            src: 2,
            dst: 0,
            cum: 17,
        }))) {
            CtrlMsg::Deliver(Msg::Wire(Wire::Ack {
                src: 2,
                dst: 0,
                cum: 17,
            })) => {}
            _ => panic!("wrong shape"),
        }
        match round(&CtrlMsg::Deliver(Msg::Token(Token {
            count: -3,
            black: true,
            passes: 12,
            epoch: 4,
        }))) {
            CtrlMsg::Deliver(Msg::Token(t)) => {
                assert_eq!(t.count, -3);
                assert!(t.black);
                assert_eq!(t.passes, 12);
                assert_eq!(t.epoch, 4);
            }
            _ => panic!("wrong shape"),
        }
        assert!(matches!(
            round(&CtrlMsg::Deliver(Msg::Terminate)),
            CtrlMsg::Deliver(Msg::Terminate)
        ));
    }

    #[test]
    fn recovery_messages_round_trip() {
        match round(&CtrlMsg::Deliver(Msg::Reset { epoch: 9 })) {
            CtrlMsg::Deliver(Msg::Reset { epoch: 9 }) => {}
            _ => panic!("wrong shape"),
        }
        let reassign = Msg::Reassign {
            owner: vec![0, 1, 0, 1, 0, 1],
            live: vec![true, false],
            adopted: vec![(1, 3, vec![9, 9, 9]), (3, 2, vec![7])],
        };
        match round(&CtrlMsg::Deliver(reassign)) {
            CtrlMsg::Deliver(Msg::Reassign {
                owner,
                live,
                adopted,
            }) => {
                assert_eq!(owner, vec![0, 1, 0, 1, 0, 1]);
                assert_eq!(live, vec![true, false]);
                assert_eq!(adopted.len(), 2);
                assert_eq!(adopted[0], (1, 3, vec![9, 9, 9]));
                assert_eq!(adopted[1], (3, 2, vec![7]));
            }
            _ => panic!("wrong shape"),
        }
        match round(&CtrlMsg::Heartbeat { worker: 3 }) {
            CtrlMsg::Heartbeat { worker: 3 } => {}
            _ => panic!("wrong shape"),
        }
    }

    /// Build a realistic node snapshot for blob round-trip tests.
    fn snapshot_fixture(salt: u64) -> NodeSnapshot {
        let mut state = Instance::new();
        state.insert(fact("T", [salt as i64, 2]));
        state.insert(fact("Ready", ["up"]));
        let mut pending: Multiset<Fact> = Multiset::new();
        pending.insert_n(fact("E", [1, salt as i64]), 2);
        pending.insert_n(fact("E", [4, 5]), 1);
        let mut links = NodeLinks::default();
        let mut entries = BTreeMap::new();
        entries.insert(
            salt + 3,
            OutEntry {
                payload: Arc::from(&[1u8, 2, 3][..]),
                attempt: 7, // deliberately non-zero: must NOT survive
                retry_at: 99,
                staged: false,
            },
        );
        links.out.insert(2, entries);
        links.cum.insert(0, salt);
        links.seen.insert(0, BTreeSet::from([salt + 2, salt + 4]));
        links.sent_floor.insert(2, salt + 4);
        links
            .recv_dedup
            .insert(0, BTreeSet::from([fact("E", [1, 1])]));
        NodeSnapshot {
            state,
            pending,
            links,
        }
    }

    #[test]
    fn snapshot_blobs_round_trip_and_reset_retry_timers() {
        let snap = snapshot_fixture(10);
        let blob = encode_snapshot_blob(&snap, 17, 23);
        let (back, transitions, trace_seq) = decode_snapshot_blob(&blob).expect("blob round trip");
        assert_eq!(transitions, 17);
        assert_eq!(trace_seq, 23);
        assert_eq!(back.state, snap.state);
        assert_eq!(
            back.pending
                .iter()
                .map(|(f, n)| (f.clone(), n))
                .collect::<Vec<_>>(),
            snap.pending
                .iter()
                .map(|(f, n)| (f.clone(), n))
                .collect::<Vec<_>>()
        );
        assert_eq!(back.links.cum, snap.links.cum);
        assert_eq!(back.links.seen, snap.links.seen);
        assert_eq!(back.links.sent_floor, snap.links.sent_floor);
        assert_eq!(back.links.recv_dedup, snap.links.recv_dedup);
        let e = &back.links.out[&2][&13];
        assert_eq!(&e.payload[..], &[1, 2, 3]);
        assert!(!e.staged);
        // The dead incarnation's retry schedule is not shipped: the
        // restorer re-arms entries on its own clock.
        assert_eq!(e.attempt, 0);
        assert_eq!(e.retry_at, 0);
        // Strictness of the blob codec itself.
        for cut in 0..blob.len() {
            assert!(decode_snapshot_blob(&blob[..cut]).is_err());
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(decode_snapshot_blob(&long).is_err());
    }

    /// Satellite proptest: *any* strict prefix of *any* Snapshot frame
    /// is rejected. Frames are generated from a deterministic LCG so
    /// the case set is reproducible; `round` checks every prefix cut.
    #[test]
    fn any_snapshot_frame_strict_prefix_is_rejected() {
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for case in 0..24 {
            let snap = snapshot_fixture(next() % 1000);
            let blob = if case % 4 == 0 {
                Vec::new() // empty blob is legal at the frame layer
            } else {
                encode_snapshot_blob(&snap, next(), next())
            };
            match round(&CtrlMsg::Snapshot {
                node: (next() % 64) as usize,
                version: next(),
                blob: blob.clone(),
            }) {
                CtrlMsg::Snapshot { blob: b, .. } => assert_eq!(b, blob),
                _ => panic!("wrong tag"),
            }
        }
    }

    #[test]
    fn final_reports_round_trip() {
        let mut stats = WorkerStats {
            worker: 2,
            nodes: vec![Value::Int(2), Value::Int(6)],
            enqueued: 31,
            buffered: 0,
            token_passes: 5,
            exhausted: false,
            wire_bytes: 900,
            ..WorkerStats::default()
        };
        stats.metrics.transitions = 19;
        stats.metrics.messages_sent = 40;
        stats.metrics.by_class.fact = 40;
        stats.metrics.first_output_at = Some(3);
        stats.metrics.buffered_high_water.insert(Value::Int(2), 7);
        stats.metrics.eval.derivations = 88;
        stats.faults.attempts = 12;
        stats.faults.dropped = 2;
        stats.link_counters.insert(
            (0, 2),
            LinkCounters {
                attempts: 12,
                dropped: 2,
                delivered: 9,
                suppressed: 1,
                buffered: 0,
            },
        );
        let mut state = Instance::new();
        state.insert(fact("T", [1, 2]));
        state.insert(fact("Ready", ["up"]));
        let report = FinalReport {
            stats: stats.clone(),
            states: vec![(Value::Int(2), state.clone())],
            clean: true,
        };
        match round(&CtrlMsg::Final(report)) {
            CtrlMsg::Final(f) => {
                assert!(f.clean);
                assert_eq!(f.stats.worker, 2);
                assert_eq!(f.stats.nodes, stats.nodes);
                assert_eq!(f.stats.metrics.transitions, 19);
                assert_eq!(f.stats.metrics.by_class.fact, 40);
                assert_eq!(f.stats.metrics.first_output_at, Some(3));
                assert_eq!(f.stats.metrics.eval.derivations, 88);
                assert_eq!(f.stats.faults, stats.faults);
                assert_eq!(f.stats.link_counters, stats.link_counters);
                assert_eq!(f.stats.wire_bytes, 900);
                assert_eq!(f.states.len(), 1);
                assert_eq!(f.states[0].0, Value::Int(2));
                assert_eq!(f.states[0].1, state);
            }
            _ => panic!("wrong tag"),
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(decode_ctrl(&[99]).is_err());
        assert!(decode_ctrl(&[]).is_err());
        assert!(decode_ctrl(&[TAG_ROUTE, 0, 77]).is_err(), "unknown msg tag");
    }
}
