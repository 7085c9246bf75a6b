//! Control-plane messages of the process engine, and their binary
//! codec.
//!
//! Seven message kinds cross the coordinator↔worker streams, each one
//! frame ([`super::frame`]):
//!
//! * `Hello` — worker → coordinator, first frame of a connection:
//!   protocol version + the worker's ring position.
//! * `Assign` — coordinator → worker, the reply: the full job hand-off
//!   (program + input sources, strategy, node count, fault spec, obs
//!   paths) plus this worker's index and the ring size. A first spawn
//!   carries no [`Handoff`]: node `i` runs on worker `i mod W`, the same
//!   rule as the threaded executor. A respawned incarnation's carries
//!   one — the owner map, the live mask and the retained checkpoints of
//!   its nodes — the same hand-off a `Reassign` brings a survivor.
//! * `Route` — worker → coordinator: an executor message (`Msg`)
//!   addressed to another worker. The coordinator relays it; batch
//!   payloads pass through verbatim in the canonical [`crate::wirefmt`]
//!   encoding, trace extension headers included.
//! * `Deliver` — coordinator → worker: a relayed executor message.
//! * `Final` — worker → coordinator, last frame: the worker's final
//!   node states, its [`WorkerStats`], and its clean/quiescent verdict.
//! * `Snapshot` — worker → coordinator (supervised runs): a versioned,
//!   canonically encoded checkpoint of one node (state, undelivered
//!   inbox, outbox and seq/ack floors).
//!   The coordinator retains the latest per node and hands it back in a
//!   [`Handoff`]: in the re-`Assign` after a respawn, or in the
//!   `Reassign` of a survivor that adopts a dead worker's shard.
//! * `Heartbeat` — worker → coordinator: liveness beacon, so a
//!   hung-but-connected worker trips the supervisor's timeout instead
//!   of stalling the run forever.
//!
//! ## Layouts
//!
//! Every layout is said once, over `crate::codec`: a struct is its
//! field list in wire order — `wire_struct!(Name: a, b, c)`, beside the
//! declaration for the structs of this crate, below for the run
//! counters of `calm-transducer` / `calm-common` — and an enum is a tag
//! byte, then the variant's fields, matched explicitly below (`Wire`'s
//! two variants live in `Msg`'s tag space). Decoding is strict: an
//! unknown tag, truncation at any prefix and trailing bytes are
//! [`WireError`]s, on top of what the one reader refuses everywhere
//! (see `crate::codec`).
//!
//! ## How to add a field
//!
//! Add it to the struct and, at the position it takes on the wire, to
//! the struct's `wire_struct!` list — a field left out of the list does
//! not compile. Then `golden_bytes` (below) fails on every frame whose
//! bytes moved: re-pin those lines and bump [`PROTOCOL_VERSION`] in the
//! same commit. A change that moves no byte — a `not shipped` field, a
//! rename — touches neither.

use crate::codec::{decode_all, decode_state, wire_struct, Codec};
use crate::executor::Msg;
use crate::reliable::{NodeLinks, NodeSnapshot, Wire};
use crate::wirefmt::{decode_rows, encode_rows, encode_state, Reader, WireError};
use crate::WorkerStats;
use calm_common::storage::{CanonicalOrder, EvalMetrics, Rows, SymbolTable};
use calm_transducer::rows::StateRows;
use calm_transducer::runtime::Metrics;
use calm_transducer::strategy::MessageClassCounts;
use std::sync::Arc;

/// The process-engine protocol version, checked at handshake. A
/// coordinator refuses a worker speaking a different version — the two
/// sides are expected to be the same binary, so a mismatch means a
/// stale spawn, not a negotiation opportunity.
///
/// v2 adds supervision: `Snapshot`/`Heartbeat` control frames, ring
/// epochs on tokens, `Reset`/`Reassign` executor messages, and the
/// incarnation/epoch/restore fields of `Assign`. v3 drops the naive
/// wire-byte baseline from outbox entries and worker stats. v4 writes
/// each node's state in `Final` as one delta-coded batch
/// ([`crate::wirefmt`]) instead of a record per fact. v5 does the same
/// for a `Snapshot` blob: its state, inbox and each receive-filter entry
/// are one batch each. v6 has one hand-off: `Assign`'s `owner`, `live`
/// and `restore` become one optional [`Handoff`], which `Reassign`
/// carries too (its bytes are the three fields they replace). v7 sends a
/// batch to a worker, for each of its nodes: `Msg::Batch` names no node.
pub const PROTOCOL_VERSION: u32 = 7;

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
    /// A respawned incarnation's hand-off; `None` on a first spawn: node
    /// `i` on worker `i mod W`, all live, nothing to restore.
    pub handoff: Option<Handoff>,
}

/// How a worker takes over nodes — a respawned incarnation its own (in
/// its `Assign`), a survivor a dead worker's (in a `Reassign`) — applied
/// the same way both times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handoff {
    /// Node → worker owner map, one live position per node.
    pub owner: Vec<usize>,
    /// Which ring positions are live, one entry per position.
    pub live: Vec<bool>,
    /// `(node, version, blob)`: the latest retained checkpoint of each
    /// node taken over that ever shipped one; the others start fresh.
    pub nodes: Vec<(usize, u64, Vec<u8>)>,
}

impl Assign {
    /// A first-spawn assignment with default topology (no supervision
    /// extras): incarnation 0, epoch 0, implicit ownership, all live.
    pub(crate) fn new(worker: usize, workers: usize, spec: JobSpec) -> Assign {
        Assign {
            worker,
            workers,
            spec,
            incarnation: 0,
            epoch: 0,
            supervised: false,
            handoff: None,
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
    /// Final state of every node this worker owned, in the rows the
    /// worker held them in. On the wire, per node, its id and one
    /// delta-coded batch of its facts ([`crate::wirefmt`]).
    pub states: StateRows,
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

wire_struct!(JobSpec: program, facts, strategy, nodes, eval_threads, step_budget, faults,
    trace_prefix, flight_path);
wire_struct!(Assign: worker, workers, spec, incarnation, epoch, supervised, handoff);
wire_struct!(Handoff: owner, live, nodes);
wire_struct!(FinalReport: stats, states, clean);

// The run counters of `calm-transducer` and `calm-common`, laid out
// from here (the trait is local to this crate).
wire_struct!(Metrics: transitions, heartbeats, messages_sent, messages_delivered,
    first_output_at, last_output_growth_at, by_class, buffered_high_water, eval);
wire_struct!(MessageClassCounts: fact, absence, value, request, ok, ack, other);
wire_struct!(EvalMetrics: iterations, derivations, new_facts, index_probes, index_hits,
    merge_probes, merge_hits, bytes_moved);

impl Codec for Msg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Batch { payload } => {
                out.push(MSG_BATCH);
                payload.put(out);
            }
            Msg::Wire(Wire::Data {
                src,
                dst,
                seq,
                payload,
            }) => {
                out.push(MSG_WIRE_DATA);
                src.put(out);
                dst.put(out);
                seq.put(out);
                payload.put(out);
            }
            Msg::Wire(Wire::Ack { src, dst, cum }) => {
                out.push(MSG_WIRE_ACK);
                src.put(out);
                dst.put(out);
                cum.put(out);
            }
            Msg::Token(token) => {
                out.push(MSG_TOKEN);
                token.put(out);
            }
            Msg::Terminate => out.push(MSG_TERMINATE),
            Msg::Reset { epoch } => {
                out.push(MSG_RESET);
                epoch.put(out);
            }
            Msg::Reassign(handoff) => {
                out.push(MSG_REASSIGN);
                handoff.put(out);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Msg, WireError> {
        Ok(match r.u8()? {
            MSG_BATCH => Msg::Batch {
                payload: Codec::read(r)?,
            },
            MSG_WIRE_DATA => Msg::Wire(Wire::Data {
                src: Codec::read(r)?,
                dst: Codec::read(r)?,
                seq: Codec::read(r)?,
                payload: Codec::read(r)?,
            }),
            MSG_WIRE_ACK => Msg::Wire(Wire::Ack {
                src: Codec::read(r)?,
                dst: Codec::read(r)?,
                cum: Codec::read(r)?,
            }),
            MSG_TOKEN => Msg::Token(Codec::read(r)?),
            MSG_TERMINATE => Msg::Terminate,
            MSG_RESET => Msg::Reset {
                epoch: Codec::read(r)?,
            },
            MSG_REASSIGN => Msg::Reassign(Codec::read(r)?),
            _ => return Err(WireError::NonCanonical("unknown msg tag")),
        })
    }
}

impl Codec for CtrlMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            CtrlMsg::Hello { version, worker } => {
                out.push(TAG_HELLO);
                version.put(out);
                worker.put(out);
            }
            CtrlMsg::Assign(assign) => {
                out.push(TAG_ASSIGN);
                assign.put(out);
            }
            CtrlMsg::Route { dst, msg } => {
                out.push(TAG_ROUTE);
                dst.put(out);
                msg.put(out);
            }
            CtrlMsg::Deliver(msg) => {
                out.push(TAG_DELIVER);
                msg.put(out);
            }
            CtrlMsg::Final(report) => {
                out.push(TAG_FINAL);
                report.put(out);
            }
            CtrlMsg::Snapshot {
                node,
                version,
                blob,
            } => {
                out.push(TAG_SNAPSHOT);
                node.put(out);
                version.put(out);
                blob.put(out);
            }
            CtrlMsg::Heartbeat { worker } => {
                out.push(TAG_HEARTBEAT);
                worker.put(out);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<CtrlMsg, WireError> {
        Ok(match r.u8()? {
            TAG_HELLO => CtrlMsg::Hello {
                version: Codec::read(r)?,
                worker: Codec::read(r)?,
            },
            TAG_ASSIGN => CtrlMsg::Assign(Codec::read(r)?),
            TAG_ROUTE => CtrlMsg::Route {
                dst: Codec::read(r)?,
                msg: Codec::read(r)?,
            },
            TAG_DELIVER => CtrlMsg::Deliver(Codec::read(r)?),
            TAG_FINAL => CtrlMsg::Final(Codec::read(r)?),
            TAG_SNAPSHOT => CtrlMsg::Snapshot {
                node: Codec::read(r)?,
                version: Codec::read(r)?,
                blob: Codec::read(r)?,
            },
            TAG_HEARTBEAT => CtrlMsg::Heartbeat {
                worker: Codec::read(r)?,
            },
            _ => return Err(WireError::NonCanonical("unknown ctrl tag")),
        })
    }
}

/// Encode a control-plane message into one frame payload.
pub(crate) fn encode_ctrl(msg: &CtrlMsg) -> Vec<u8> {
    let mut out = Vec::new();
    msg.put(&mut out);
    out
}

/// Whether a frame payload says it is a worker's final report — the one
/// frame whose decoding is worth a span.
pub(crate) fn is_final(payload: &[u8]) -> bool {
    payload.first() == Some(&TAG_FINAL)
}

/// Decode one frame payload. Strict: unknown tags, truncation and
/// trailing bytes are all errors.
pub(crate) fn decode_ctrl(bytes: &[u8]) -> Result<CtrlMsg, WireError> {
    decode_all(bytes)
}

/// Encode one node checkpoint into the blob carried by
/// `CtrlMsg::Snapshot` and handed back in a [`Handoff`]: the
/// [`NodeSnapshot`] — its state, its inbox
/// and each source's receive filter as one length-prefixed wire batch
/// each ([`crate::wirefmt`]), written from rows over `table` ranked by
/// `order`, with the link state between inbox and filter — then the
/// transition count and trace-seq.
pub(crate) fn encode_snapshot_blob(
    snap: &NodeSnapshot,
    table: &SymbolTable,
    order: &CanonicalOrder,
    transitions: u64,
    trace_next_seq: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_state(&snap.state, table, order).put(&mut out);
    let pending = snap.pending.iter().flat_map(|batch| batch.rows());
    encode_rows(pending, table, order, None).put(&mut out);
    snap.links.put(&mut out);
    snap.links.recv_dedup.len().put(&mut out);
    for (src, accepted) in &snap.links.recv_dedup {
        src.put(&mut out);
        encode_state(accepted, table, order).put(&mut out);
    }
    (transitions, trace_next_seq).put(&mut out);
    out
}

/// Decode a snapshot blob into rows over `table`, the table of the
/// worker that restores or adopts the node, every batch through the one
/// row decoder. Strict: truncation and trailing bytes are errors, like
/// every other frame in this protocol.
pub(crate) fn decode_snapshot_blob(
    bytes: &[u8],
    table: &mut SymbolTable,
) -> Result<(NodeSnapshot, u64, u64), WireError> {
    let (mut r, rows) = (Reader::new(bytes), &mut Rows::default());
    let state = decode_state(r.prefixed_bytes()?, table, rows)?;
    let (pending, _) = decode_rows(r.prefixed_bytes()?, table)?;
    let mut links = NodeLinks::read(&mut r)?;
    for _ in 0..r.count()? {
        let src = usize::read(&mut r)?;
        let accepted = decode_state(r.prefixed_bytes()?, table, rows)?;
        links.recv_dedup.insert(src, accepted);
    }
    let (transitions, trace_next_seq) = Codec::read(&mut r)?;
    let snap = NodeSnapshot {
        state,
        pending: vec![Arc::new(pending)],
        links,
    };
    match r.remaining() {
        0 => Ok((snap, transitions, trace_next_seq)),
        _ => Err(WireError::TrailingBytes),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::tests::rows_of;
    use crate::reliable::{LinkCounters, NodeLinks, OutEntry};
    use crate::termination::Token;
    use crate::wirefmt::{self, put_bytes, put_value, put_varint};
    use calm_common::fact::{fact, Fact};
    use calm_common::instance::Instance;
    use calm_common::storage::{load_instance, store_to_instance, SharedSymbols, Storage};
    use calm_common::value::Value;
    use calm_obs::Obs;
    use calm_transducer::multiset::Multiset;
    use calm_transducer::rows::Batch;
    use calm_transducer::runtime::FinalStates;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

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

    /// A recovery re-Assign: every supervision field populated.
    fn full_assign() -> Assign {
        Assign {
            incarnation: 2,
            epoch: 5,
            supervised: true,
            handoff: Some(Handoff {
                owner: vec![0, 1, 0, 1],
                live: vec![true, true, false, true],
                nodes: vec![(2, 7, vec![1, 2, 3]), (6, 1, Vec::new())],
            }),
            ..Assign::new(2, 4, spec())
        }
    }

    /// A traced batch payload, as the executor puts it in a `Msg`.
    fn traced_payload() -> (Arc<[u8]>, wirefmt::TraceCtx) {
        let mut batch: Multiset<Fact> = Multiset::new();
        batch.insert_n(fact("E", [1, 2]), 2);
        let ctx = wirefmt::TraceCtx {
            origin_node: 3,
            origin_seq: 9,
            cause: Some((1, 4)),
        };
        (wirefmt::encode_traced(&batch, Some(&ctx)).into(), ctx)
    }

    fn reassign_handoff() -> Handoff {
        Handoff {
            owner: vec![0, 1, 0, 1, 0, 1],
            live: vec![true, false],
            nodes: vec![(1, 3, vec![9, 9, 9]), (3, 2, vec![7])],
        }
    }

    /// A worker's accounting with fault stats and link counters, and
    /// the node state it reports.
    fn final_fixture() -> (WorkerStats, Instance) {
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
        (stats, state)
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
        let reassign = full_assign();
        match round(&CtrlMsg::Assign(reassign.clone())) {
            CtrlMsg::Assign(a) => assert_eq!(a, reassign),
            _ => panic!("wrong tag"),
        }
    }

    #[test]
    fn routed_messages_round_trip_with_payloads_verbatim() {
        let (payload, ctx) = traced_payload();
        match round(&CtrlMsg::Route {
            dst: 2,
            msg: Msg::Batch {
                payload: payload.clone(),
            },
        }) {
            CtrlMsg::Route {
                dst: 2,
                msg: Msg::Batch { payload: p },
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
        match round(&CtrlMsg::Deliver(Msg::Reassign(reassign_handoff()))) {
            CtrlMsg::Deliver(Msg::Reassign(handoff)) => assert_eq!(handoff, reassign_handoff()),
            _ => panic!("wrong shape"),
        }
        match round(&CtrlMsg::Heartbeat { worker: 3 }) {
            CtrlMsg::Heartbeat { worker: 3 } => {}
            _ => panic!("wrong shape"),
        }
    }

    /// Build a realistic node snapshot for blob round-trip tests, in
    /// rows over `symbols`.
    fn snapshot_fixture(salt: u64, symbols: &SharedSymbols) -> NodeSnapshot {
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
        let (mut rows, mut accepted) = (Storage::new(), Storage::new());
        load_instance(&state, symbols, &mut rows);
        let from_0 = Instance::from_facts([fact("E", [1, 1])]);
        load_instance(&from_0, symbols, &mut accepted);
        links.recv_dedup.insert(0, accepted);
        NodeSnapshot {
            state: rows,
            pending: vec![Arc::new(Batch::of_facts(&pending, &mut symbols.write()))],
            links,
        }
    }

    /// `snap`'s blob, written from its rows over `symbols`.
    fn blob_of(
        snap: &NodeSnapshot,
        symbols: &SharedSymbols,
        transitions: u64,
        seq: u64,
    ) -> Vec<u8> {
        let table = symbols.read();
        let mut order = CanonicalOrder::default();
        order.extend(&table);
        encode_snapshot_blob(snap, &table, &order, transitions, seq)
    }

    /// The facts a snapshot's rows over `symbols` stand for: state, inbox
    /// and receive filter.
    fn facts_of(
        snap: &NodeSnapshot,
        symbols: &SharedSymbols,
    ) -> (Instance, Multiset<Fact>, BTreeMap<usize, Instance>) {
        let mut pending = Multiset::new();
        for batch in &snap.pending {
            batch.add_to(&symbols.read(), &mut pending);
        }
        let dedup = snap.links.recv_dedup.iter();
        let dedup = dedup.map(|(&src, rows)| (src, store_to_instance(rows, symbols)));
        (
            store_to_instance(&snap.state, symbols),
            pending,
            dedup.collect(),
        )
    }

    #[test]
    fn snapshot_blobs_round_trip_and_reset_retry_timers() {
        let symbols = SharedSymbols::new();
        let snap = snapshot_fixture(10, &symbols);
        let blob = blob_of(&snap, &symbols, 17, 23);
        let restorer = SharedSymbols::new();
        let (back, transitions, trace_seq) =
            decode_snapshot_blob(&blob, &mut restorer.write()).expect("blob round trip");
        assert_eq!(transitions, 17);
        assert_eq!(trace_seq, 23);
        assert_eq!(facts_of(&back, &restorer), facts_of(&snap, &symbols));
        assert_eq!(back.links.cum, snap.links.cum);
        assert_eq!(back.links.seen, snap.links.seen);
        assert_eq!(back.links.sent_floor, snap.links.sent_floor);
        let e = &back.links.out[&2][&13];
        assert_eq!(&e.payload[..], &[1, 2, 3]);
        assert!(!e.staged);
        // The dead incarnation's retry schedule is not shipped: the
        // restorer re-arms entries on its own clock.
        assert_eq!(e.attempt, 0);
        assert_eq!(e.retry_at, 0);
        // Strictness of the blob codec itself.
        let decode = |bytes: &[u8]| decode_snapshot_blob(bytes, &mut SymbolTable::new());
        for cut in 0..blob.len() {
            assert!(decode(&blob[..cut]).is_err());
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(decode(&long).is_err());
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
            let symbols = SharedSymbols::new();
            let snap = snapshot_fixture(next() % 1000, &symbols);
            let blob = if case % 4 == 0 {
                Vec::new() // empty blob is legal at the frame layer
            } else {
                blob_of(&snap, &symbols, next(), next())
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
        let (stats, state) = final_fixture();
        let report = FinalReport {
            stats: stats.clone(),
            states: rows_of(&[(Value::Int(2), state.clone())]),
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
                let states = FinalStates::new(vec![f.states], &Obs::noop()).materialize();
                assert_eq!(states, BTreeMap::from([(Value::Int(2), state)]));
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

    /// One frame per `CtrlMsg` and `Msg` variant — the fixtures of the
    /// round-trip tests above — then two snapshot blobs.
    pub(crate) fn corpus() -> Vec<(&'static str, Vec<u8>)> {
        let (payload, _) = traced_payload();
        let (stats, state) = final_fixture();
        let symbols = SharedSymbols::new();
        let blob = blob_of(&snapshot_fixture(10, &symbols), &symbols, 17, 23);
        let deliver = |msg| encode_ctrl(&CtrlMsg::Deliver(msg));
        vec![
            (
                "hello",
                encode_ctrl(&CtrlMsg::Hello {
                    version: PROTOCOL_VERSION,
                    worker: 3,
                }),
            ),
            (
                "assign",
                encode_ctrl(&CtrlMsg::Assign(Assign::new(1, 4, spec()))),
            ),
            ("assign/full", encode_ctrl(&CtrlMsg::Assign(full_assign()))),
            (
                "route/batch",
                encode_ctrl(&CtrlMsg::Route {
                    dst: 2,
                    msg: Msg::Batch {
                        payload: payload.clone(),
                    },
                }),
            ),
            (
                "deliver/data",
                deliver(Msg::Wire(Wire::Data {
                    src: 1,
                    dst: 6,
                    seq: 44,
                    payload,
                })),
            ),
            (
                "deliver/ack",
                deliver(Msg::Wire(Wire::Ack {
                    src: 2,
                    dst: 0,
                    cum: 17,
                })),
            ),
            (
                "deliver/token",
                deliver(Msg::Token(Token {
                    count: -3,
                    black: true,
                    passes: 12,
                    epoch: 4,
                })),
            ),
            ("deliver/terminate", deliver(Msg::Terminate)),
            ("deliver/reset", deliver(Msg::Reset { epoch: 9 })),
            (
                "deliver/reassign",
                deliver(Msg::Reassign(reassign_handoff())),
            ),
            (
                "final",
                encode_ctrl(&CtrlMsg::Final(FinalReport {
                    stats,
                    states: rows_of(&[(Value::Int(2), state)]),
                    clean: true,
                })),
            ),
            (
                "snapshot",
                encode_ctrl(&CtrlMsg::Snapshot {
                    node: 6,
                    version: 2,
                    blob: blob.clone(),
                }),
            ),
            ("heartbeat", encode_ctrl(&CtrlMsg::Heartbeat { worker: 3 })),
            ("blob/10", blob),
            (
                "blob/0",
                blob_of(&snapshot_fixture(0, &symbols), &symbols, 0, 1 << 40),
            ),
        ]
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every fixture's length and FNV-1a-64. `hello` (it carries the
    /// version) and `route/batch` (a batch names no node) were re-pinned
    /// with v7. `assign` (a first spawn's three empty topology fields
    /// became one `None` hand-off) was re-pinned with v6 — `assign/full`
    /// and `deliver/reassign` did not move: a [`Handoff`]'s bytes are the
    /// fields it replaced. `snapshot` and the two blobs (state, inbox and
    /// receive filter each one delta-coded batch) were re-pinned with v5,
    /// `final` (each state one delta-coded batch) with v4; the other
    /// layouts have not moved since they were last written by hand.
    /// Re-pin a line only together with a version bump.
    #[test]
    fn golden_bytes() {
        assert_eq!(PROTOCOL_VERSION, 7);
        let golden = [
            ("hello", 3, 0xd9354b186bfafeb1),
            ("assign", 94, 0xeed062f9e66b50b4),
            ("assign/full", 114, 0x2d61f0d581a64042),
            ("route/batch", 24, 0xded2e63f42142aee),
            ("deliver/data", 26, 0xa984c81dd179b7a5),
            ("deliver/ack", 5, 0xc2c8e1f2ffdff4c9),
            ("deliver/token", 6, 0x9058611ba1bd6e01),
            ("deliver/terminate", 2, 0x0835f207b4ee59e2),
            ("deliver/reset", 3, 0xe20792187105aa14),
            ("deliver/reassign", 23, 0x4ff6b11917172371),
            ("final", 96, 0xdca46ddb9dc00a25),
            ("snapshot", 95, 0xd2a38ba11772c068),
            ("heartbeat", 2, 0x082bbd07b4e5ab4e),
            ("blob/10", 91, 0xe6d379191a7bbc94),
            ("blob/0", 96, 0x8ad4447c1f37328b),
        ];
        let got: Vec<(&str, usize, u64)> = corpus()
            .iter()
            .map(|(name, bytes)| (*name, bytes.len(), fnv1a64(bytes)))
            .collect();
        assert_eq!(got, golden);
    }

    /// A naive batch's body: the count, then one `(E(i), multiplicity)`
    /// record per entry — written by hand so that it can lie.
    fn multiset_records(mults: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, mults.len() as u64);
        for (i, m) in mults.iter().enumerate() {
            put_bytes(&mut out, b"E");
            put_varint(&mut out, 1);
            put_value(&mut out, &Value::Int(i as i64));
            put_varint(&mut out, *m);
        }
        out
    }

    /// An inbox on the wire: one batch of an `E(i)` row per entry of
    /// `mults`, each with that multiplicity — written by hand so that it
    /// can lie.
    fn inbox_batch(mults: &[u64]) -> Vec<u8> {
        let mut out = vec![wirefmt::MAGIC, wirefmt::FORMAT_DELTA];
        put_varint(&mut out, mults.len() as u64);
        for i in 0..mults.len() {
            put_value(&mut out, &Value::Int(i as i64));
        }
        put_varint(&mut out, 1); // one group
        put_bytes(&mut out, b"E");
        put_varint(&mut out, 1); // arity 1
        put_varint(&mut out, mults.len() as u64);
        for (i, m) in mults.iter().enumerate() {
            put_varint(&mut out, u64::from(i > 0)); // E(i) after E(i - 1)
            put_varint(&mut out, *m);
        }
        out
    }

    /// Multiplicities cross a socket (a [`Handoff`]'s blobs): the
    /// row decoder bounds them to `1..=u32::MAX` in a blob's inbox, and the
    /// multiset reader in `decode_naive`. Two entries of 2⁶³ used to
    /// overflow `Multiset::insert_n`'s running total (a panic in this build).
    #[test]
    fn hostile_multiplicities_are_rejected() {
        // An empty state, the inbox, four empty link maps, an empty
        // receive filter, the transition count and the trace seq.
        let blob = |mults: &[u64]| {
            let mut out = Vec::new();
            put_bytes(&mut out, &[wirefmt::MAGIC, wirefmt::FORMAT_DELTA, 0, 0]);
            put_bytes(&mut out, &inbox_batch(mults));
            out.extend([0; 7]);
            out
        };
        let naive = |mults: &[u64]| {
            [
                &[wirefmt::MAGIC, wirefmt::FORMAT_NAIVE][..],
                &multiset_records(mults),
            ]
            .concat()
        };
        let decode = |bytes: &[u8]| decode_snapshot_blob(bytes, &mut SymbolTable::new());
        let (snap, _, _) = decode(&blob(&[2, 1])).unwrap();
        assert_eq!(snap.pending.iter().map(|b| b.len()).sum::<usize>(), 3);
        assert_eq!(wirefmt::decode_naive(&naive(&[2, 1])).unwrap().len(), 3);
        for mults in [
            &[1 << 63, 1 << 63][..],
            &[0],
            &[u32::MAX as u64 + 1],
            &[3, u64::MAX],
        ] {
            assert!(
                matches!(decode(&blob(mults)), Err(WireError::NonCanonical(_))),
                "blob with multiplicities {mults:?}"
            );
            assert!(
                matches!(
                    wirefmt::decode_naive(&naive(mults)),
                    Err(WireError::NonCanonical(_))
                ),
                "naive batch with multiplicities {mults:?}"
            );
        }
    }

    /// The control plane's mutation target (ROADMAP 3(c)): seeded insert
    /// / delete / bit-flip / splice over the corpus, hostile varints among
    /// the inserted bytes (`codec::tests::mutate`). Nothing panics; what
    /// decodes re-encodes to at most the input's length — no value is
    /// larger than the bytes that made it — and to a fixed point: decoding
    /// that and encoding again gives the same bytes, so the two values are
    /// equal.
    #[test]
    fn decoders_survive_mutated_frames() {
        use calm_common::rng::Rng;
        let corpus = corpus();
        let mut rng = Rng::seed_from_u64(0xc0de_c0de);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let (name, frame) = rng.choose(&corpus).unwrap();
            let mut bytes = frame.clone();
            crate::codec::tests::mutate(&mut rng, &mut bytes, &corpus);
            let recode = |bytes: &[u8]| -> Result<Vec<u8>, WireError> {
                if name.starts_with("blob") {
                    // Read into a table of its own, written back from it.
                    let symbols = SharedSymbols::new();
                    let decoded = decode_snapshot_blob(bytes, &mut symbols.write());
                    decoded.map(|(s, t, n)| blob_of(&s, &symbols, t, n))
                } else {
                    decode_ctrl(bytes).map(|m| encode_ctrl(&m))
                }
            };
            match recode(&bytes) {
                Err(_) => rejected += 1,
                Ok(again) => {
                    accepted += 1;
                    assert!(again.len() <= bytes.len(), "{name}: {bytes:?}");
                    assert_eq!(recode(&again).as_ref(), Ok(&again), "{name}: {bytes:?}");
                }
            }
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }
}
