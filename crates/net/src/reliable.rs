//! Reliable delivery: fair runs out of an unfair network.
//!
//! [`ReliableNet`] is the per-worker substrate that restores the
//! fairness a [`FaultPlan`] takes away: per-link sequence numbers,
//! receiver-side dedup, cumulative acks, retransmission with
//! exponential backoff and a retry budget, and periodic node snapshots
//! for crash recovery.
//!
//! **The correctness discipline.** A node's snapshot captures — in one
//! atomic clone — its state (which holds its program's marks of what it
//! sent), its undelivered inbox, and its link state (receive cursors
//! *and* unacked outboxes). A
//! receiver only acknowledges sequence numbers its snapshot has
//! persisted. Together these give the invariant that makes crash
//! recovery sound: *every delivered-but-unsnapshotted effect at the
//! receiver still has its cause retained in some sender's outbox.*
//! Roll a node back and whatever it forgot is retransmitted; re-deliver
//! a message it remembered and the receiver-side dedup (or the
//! engines' monotone state accumulation) makes it a no-op. At-least-
//! once delivery plus idempotent application is exactly-once *effect*.
//!
//! **Output commit.** Exactly-once effect covers a node's *own* state,
//! but a rollback must also be invisible to *peers* — and a message
//! sent from unsnapshotted state is a promise the rollback breaks. The
//! concrete failure (caught by the chaos suite on `Mdisjoint`): a
//! requester collects a fact, acks it, crashes, and rolls back to
//! before the collection; the owner has already consumed the ghost ack
//! and certifies the value with `OK`, so the restarted requester
//! declares a component complete while missing one of its edges and
//! emits output the sequential semantics forbids. The rule that closes
//! this (and every other ghost): a wire leaves a node only after a
//! snapshot has captured the state that derived it — sends are staged
//! in the outbox and *released by the next snapshot* (see
//! [`OutEntry::staged`]). A restore then never un-derives anything a
//! peer could have observed, which is also what lets the sequence
//! allocator roll back over staged-only seqs instead of leaving holes.

use crate::codec::{counters, wire_struct};
use crate::faults::{CrashPoint, FaultPlan, FaultStats, Tick};
use crate::wirefmt;
use calm_common::storage::{Storage, SymbolTable};
use calm_obs::{ArgValue, Obs};
use calm_transducer::rows::Batch;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// What a fresh data wire brings: see [`ReliableNet::receive`].
pub(crate) type TracedArrival = (usize, Batch, Option<(u64, u64)>);

/// A message on the (possibly faulty) wire. `Data` carries a sequenced
/// fact batch and is subject to the fault plan; `Ack` is the
/// substrate's control plane (like the Safra token, it rides the
/// channels unfaulted — dropping acks only causes retransmission,
/// which dropping data already exercises).
#[derive(Debug, Clone)]
pub(crate) enum Wire {
    /// A sequenced fact batch on link `src → dst`.
    Data {
        /// Sending node (global index).
        src: usize,
        /// Receiving node (global index).
        dst: usize,
        /// Per-link sequence number (1-based).
        seq: u64,
        /// One step's send to one destination, in the delta wire
        /// format of [`crate::wirefmt`]. Shared (`Arc`) so the copies
        /// of a duplicated or retransmitted wire are free to clone and
        /// byte-identical by construction; decoded once, at the
        /// receiver, by [`ReliableNet::receive`].
        payload: Arc<[u8]>,
    },
    /// A cumulative acknowledgment: `src` is the acking node, `dst` the
    /// original data sender (whose outbox it clears), and `cum` says
    /// "my snapshot has persisted every seq ≤ cum on your link to me".
    Ack {
        /// Acking node (the data receiver).
        src: usize,
        /// Original data sender (where the outbox lives).
        dst: usize,
        /// Cumulative snapshotted sequence number.
        cum: u64,
    },
}

impl Wire {
    /// The node this wire is addressed to.
    pub(crate) fn dst(&self) -> usize {
        match self {
            Wire::Data { dst, .. } | Wire::Ack { dst, .. } => *dst,
        }
    }
}

/// One outbox entry: a batch staged for release or awaiting its
/// cumulative ack.
#[derive(Debug, Clone)]
pub(crate) struct OutEntry {
    /// The encoded batch (retransmitted byte-for-byte under its
    /// original seq — the shared buffer makes "verbatim" structural).
    pub payload: Arc<[u8]>,
    /// Transmission attempts so far (0 while staged).
    pub attempt: u32,
    /// Next retransmission tick (ignored while staged).
    pub retry_at: Tick,
    /// Output commit: a staged entry has *never been on the wire* and
    /// is released (first transmission) only by the next snapshot of
    /// its sender. This is what makes crash rollback transparent to
    /// peers: every message a peer can ever observe is recorded in a
    /// snapshot together with the state that derived it, so a restore
    /// never "un-derives" a message someone already consumed. Without
    /// it, a ghost send from rolled-back state (e.g. an ack for a fact
    /// the node no longer holds) lets a peer certify knowledge the
    /// network has lost — the classic output-commit failure.
    pub staged: bool,
}

// The retry timers are not shipped: a restore re-arms every unacked
// entry from zero, since the old backoff schedule belonged to a dead
// incarnation's clock.
wire_struct!(OutEntry: payload, staged; not shipped: attempt = 0, retry_at = 0);

/// The snapshot-able link state of one node: unacked outboxes per
/// destination, and per-source receive cursors (`cum` = highest
/// contiguous snapshotted seq; `seen` = out-of-order seqs above it).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeLinks {
    /// `dst → seq → entry`: batches sent and not yet cumulatively acked.
    pub out: BTreeMap<usize, BTreeMap<u64, OutEntry>>,
    /// `src → cum`: every seq ≤ cum has been received *and snapshotted*.
    pub cum: BTreeMap<usize, u64>,
    /// `src → seqs` received above `cum` (delivered, not yet folded
    /// into a snapshot).
    pub seen: BTreeMap<usize, BTreeSet<u64>>,
    /// `dst → next_seq` at snapshot time. Crash restore rolls the
    /// allocator back here: seqs in `[floor, next)` were allocated
    /// post-snapshot, and because staged sends only reach the wire via
    /// a snapshot release, none of them was ever transmitted — reuse
    /// is collision-free, and receivers' cumulative cursors never wait
    /// on a hole no surviving sender will fill.
    pub sent_floor: BTreeMap<usize, u64>,
    /// `src → rows` ever accepted from that source, over the worker's
    /// table — the end-to-end extension of the senders' own marks. A
    /// strategy marks in its state what it sent and sends it once; a
    /// crashed sender's marks roll back with its state, so it
    /// legitimately re-sends facts its peers already consumed under fresh
    /// sequence numbers; wire-level dedup cannot catch those, and
    /// non-monotone strategies (request/OK memory protocols) are not
    /// duplicate-tolerant at the engine level. Because fault-free traffic
    /// carries each `(sender, fact)` pair at most once (the marks),
    /// filtering repeats here restores exactly the reachable fault-free
    /// delivery multisets. Lives in the snapshot so a receiver rollback
    /// (which also un-applies the facts' effects) forgets the filter
    /// entries consistently.
    pub recv_dedup: BTreeMap<usize, Storage>,
}

// `recv_dedup` is rows over the worker's table: a snapshot blob lays it
// out after these fields, one wire batch per source.
wire_struct!(NodeLinks: out, cum, seen, sent_floor; not shipped: recv_dedup = BTreeMap::new());

impl NodeLinks {
    fn unacked(&self) -> usize {
        self.out.values().map(BTreeMap::len).sum()
    }
}

/// A node's crash-recovery checkpoint: state and undelivered inbox as
/// the node holds them, in rows over the worker's table, and link state,
/// captured atomically. The receive cursors in `links.cum` are exactly
/// what the node has acknowledged, which makes restoring it sound.
#[derive(Debug, Clone)]
pub(crate) struct NodeSnapshot {
    /// The node's state (output ∪ memory rows).
    pub state: Storage,
    /// The node's undelivered inbox: the batches it held, by handle.
    pub pending: Vec<Arc<Batch>>,
    /// Outboxes and receive cursors.
    pub links: NodeLinks,
}

counters! {
    /// Per-link wire accounting. The sender side fills `attempts`,
    /// `dropped` and `buffered`; the receiver side fills `delivered` and
    /// `suppressed`; merged across workers they reconcile:
    /// `attempts == delivered + suppressed + dropped + buffered`
    /// (the chaos suite asserts it per link at exit).
    pub struct LinkCounters {
        /// Data wires put on the link (all copies, all attempts).
        pub attempts: u64,
        /// Wires lost to drops, partitions, crash-clears or down receivers.
        pub dropped: u64,
        /// Wires accepted at the receiver (fresh seq).
        pub delivered: u64,
        /// Wires dedup-suppressed at the receiver.
        pub suppressed: u64,
        /// Wires still sitting in the delay buffer at exit.
        pub buffered: u64,
    }
}

/// The per-worker reliability substrate: owns the link state of the
/// worker's local nodes, the delay buffer ("the network"), and the
/// per-link sequence counters.
pub(crate) struct ReliableNet<'a> {
    plan: &'a FaultPlan,
    /// Trace handle: retransmit/drop/dedup events and the
    /// `retry_exhausted`/`decode_failure` anomalies carry the causal
    /// message ids read (cheaply, header-only) from traced payloads.
    obs: Obs,
    tick: Tick,
    /// `(src, dst) → next seq`. Rolled back to the snapshot's
    /// `sent_floor` on crash restore — safe because seqs allocated
    /// after a snapshot are staged, never transmitted (see
    /// [`OutEntry::staged`]).
    next_seq: BTreeMap<(usize, usize), u64>,
    /// Wires in the simulated network, keyed by release tick.
    delayed: BTreeMap<(Tick, u64), Wire>,
    delayed_ctr: u64,
    /// Link state per local node.
    links: BTreeMap<usize, NodeLinks>,
    /// Crashed nodes in their recovery window.
    down_until: BTreeMap<usize, Tick>,
    /// Per local node: crash points not yet fired (sorted by
    /// transition, consumed front to back).
    crash_queue: BTreeMap<usize, VecDeque<CrashPoint>>,
    /// Per-fault-class counters.
    pub stats: FaultStats,
    /// Per-link wire accounting (this worker's half).
    pub link_counters: BTreeMap<(usize, usize), LinkCounters>,
    /// Delta-encoded payload bytes put on the wire (every copy of
    /// every attempt, including retransmissions and duplicates).
    pub wire_bytes: u64,
}

impl<'a> ReliableNet<'a> {
    /// Build the substrate of a worker that holds no node yet: each one
    /// it takes over is registered by [`ReliableNet::adopt`]. Wire-level
    /// trace events (retransmits, drops, dedup suppressions, anomalies)
    /// go to `obs`; pass [`Obs::noop`] to trace nothing.
    pub(crate) fn new(plan: &'a FaultPlan, obs: &Obs) -> ReliableNet<'a> {
        ReliableNet {
            plan,
            obs: obs.clone(),
            tick: 0,
            next_seq: BTreeMap::new(),
            delayed: BTreeMap::new(),
            delayed_ctr: 0,
            links: BTreeMap::new(),
            down_until: BTreeMap::new(),
            crash_queue: BTreeMap::new(),
            stats: FaultStats::default(),
            link_counters: BTreeMap::new(),
            wire_bytes: 0,
        }
    }

    /// Advance one tick: release due delayed wires and retransmit due
    /// unacked entries into `out`.
    pub(crate) fn advance(&mut self, out: &mut Vec<Wire>) {
        self.tick += 1;
        // Release the network's delay buffer.
        let later = self.delayed.split_off(&(self.tick + 1, 0));
        out.extend(std::mem::replace(&mut self.delayed, later).into_values());
        // Retransmit due outbox entries; abandon those out of budget.
        let (tick, plan, mut due) = (self.tick, self.plan, Vec::new());
        for (&src, nl) in &mut self.links {
            for (&dst, entries) in &mut nl.out {
                entries.retain(|&seq, entry| {
                    if entry.staged || entry.retry_at > tick {
                        return true;
                    }
                    let retry = entry.attempt < plan.retry_budget;
                    if retry {
                        entry.attempt += 1;
                        let backoff = plan.backoff_base << (entry.attempt - 1).min(16);
                        entry.retry_at = tick + backoff.min(plan.max_backoff.max(1)).max(1);
                    }
                    due.push(((src, dst, seq), entry.payload.clone(), entry.attempt, retry));
                    retry
                });
            }
        }
        for (link, payload, attempt, retry) in due {
            if retry {
                self.stats.retransmissions += 1;
                let nth = Some(("attempt", attempt as u64));
                self.link_event("trace", "retransmit", link.0, link, &payload, nth);
                self.transmit(link.0, link.1, link.2, payload, attempt, out);
            } else {
                self.stats.retry_exhausted += 1;
                let attempts = Some(("attempts", attempt as u64));
                self.link_event("net", "retry_exhausted", link.0, link, &payload, attempts);
            }
        }
    }

    /// Stage one step's encoded batch on link `src → dst`: allocate a
    /// sequence number and record the outbox entry. Nothing touches
    /// the wire until the sender's next snapshot releases it (see
    /// [`OutEntry::staged`]) — sends are committed output, and output
    /// is only committed by a checkpoint that contains it.
    pub(crate) fn send_payload(&mut self, src: usize, dst: usize, payload: Arc<[u8]>) {
        let seq = {
            let next = self.next_seq.entry((src, dst)).or_insert(1);
            let seq = *next;
            *next += 1;
            seq
        };
        self.links
            .get_mut(&src)
            .expect("send from non-local node")
            .out
            .entry(dst)
            .or_default()
            .insert(
                seq,
                OutEntry {
                    payload,
                    attempt: 0,
                    retry_at: Tick::MAX,
                    staged: true,
                },
            );
    }

    /// Whether `node` has staged sends waiting on a snapshot to be
    /// released — a passivity obligation: the worker must checkpoint
    /// (committing and transmitting them) before it may look quiet.
    pub(crate) fn staged(&self, node: usize) -> bool {
        self.links.get(&node).is_some_and(|nl| {
            nl.out
                .values()
                .any(|e| e.values().any(|entry| entry.staged))
        })
    }

    /// Emit a wire-level trace event about one data wire (`link` is its
    /// `(src, dst, link_seq)`) on `node`'s track, with one event-specific
    /// counter and — when the payload is traced — its causal message id.
    fn link_event(
        &self,
        cat: &'static str,
        name: &str,
        node: usize,
        (src, dst, seq): (usize, usize, u64),
        payload: &[u8],
        extra: Option<(&'static str, u64)>,
    ) {
        if !self.obs.enabled() {
            return;
        }
        let mid = wirefmt::peek_trace(payload).map(|c| c.id());
        self.obs.event(cat, name, node as u32 + 1, || {
            let mut args = vec![
                ("src", ArgValue::U64(src as u64)),
                ("dst", ArgValue::U64(dst as u64)),
                ("link_seq", ArgValue::U64(seq)),
            ];
            args.extend(extra.map(|(label, n)| (label, ArgValue::U64(n))));
            if let Some((o, s)) = mid {
                args.push(("origin", ArgValue::U64(o)));
                args.push(("seq", ArgValue::U64(s)));
            }
            args
        });
    }

    /// `trace/drop`: one data-wire copy lost to a fault or partition
    /// drop, a down-node refusal, or a crash-cleared in-flight wire.
    fn note_drop(&self, src: usize, dst: usize, seq: u64, payload: &[u8]) {
        self.link_event("trace", "drop", src, (src, dst, seq), payload, None);
    }

    /// One transmission attempt through the fault gauntlet: duplicate,
    /// drop (faults and partitions), delay, or pass through.
    fn transmit(
        &mut self,
        src: usize,
        dst: usize,
        seq: u64,
        payload: Arc<[u8]>,
        attempt: u32,
        out: &mut Vec<Wire>,
    ) {
        let lf = *self.plan.link_faults(src, dst);
        let copies = {
            let mut rng = self.plan.rolls(src, dst, seq, attempt, 0);
            if lf.dup_p > 0.0 && rng.gen_bool(lf.dup_p) {
                self.stats.duplicates_injected += 1;
                2
            } else {
                1
            }
        };
        for copy in 1..=copies {
            let mut rng = self.plan.rolls(src, dst, seq, attempt, copy);
            self.stats.attempts += 1;
            self.wire_bytes += payload.len() as u64;
            let lc = self.link_counters.entry((src, dst)).or_default();
            lc.attempts += 1;
            if self.plan.partitioned(src, dst, self.tick)
                || (lf.drop_p > 0.0 && rng.gen_bool(lf.drop_p))
            {
                self.stats.dropped += 1;
                lc.dropped += 1;
                self.note_drop(src, dst, seq, &payload);
                continue;
            }
            let wire = Wire::Data {
                src,
                dst,
                seq,
                payload: payload.clone(),
            };
            if lf.delay_p > 0.0 && lf.max_delay > 0 && rng.gen_bool(lf.delay_p) {
                let ticks = rng.gen_range(1..=lf.max_delay);
                self.stats.delayed += 1;
                self.delayed_ctr += 1;
                self.delayed
                    .insert((self.tick + ticks, self.delayed_ctr), wire);
            } else {
                out.push(wire);
            }
        }
    }

    /// Process an arriving wire addressed to one of this worker's
    /// nodes, pushing any response wires (re-acks) into `out`. A fresh
    /// data wire is decoded into `table`, the worker's: it yields the
    /// destination, the rows the node had not yet accepted from that
    /// sender, and — when the send was traced — its causal message id.
    pub(crate) fn receive(
        &mut self,
        wire: Wire,
        table: &mut SymbolTable,
        out: &mut Vec<Wire>,
    ) -> Option<TracedArrival> {
        match wire {
            Wire::Data {
                src,
                dst,
                seq,
                payload,
            } => {
                if self.node_down(dst) {
                    // A crashed node refuses arrivals; the sender's
                    // outbox will retransmit after the restart.
                    self.stats.dropped += 1;
                    self.link_counters.entry((src, dst)).or_default().dropped += 1;
                    self.note_drop(src, dst, seq, &payload);
                    return None;
                }
                let nl = self.links.get_mut(&dst).expect("receive at non-local node");
                let cum = nl.cum.get(&src).copied().unwrap_or(0);
                let seen = nl.seen.entry(src).or_default();
                if seq <= cum || seen.contains(&seq) {
                    self.stats.duplicates_suppressed += 1;
                    self.link_counters.entry((src, dst)).or_default().suppressed += 1;
                    self.link_event("trace", "dedup", dst, (src, dst, seq), &payload, None);
                    // Re-ack so a sender whose ack got lost in a crash
                    // window can clear its outbox.
                    self.stats.acks_sent += 1;
                    out.push(Wire::Ack {
                        src: dst,
                        dst: src,
                        cum,
                    });
                    None
                } else {
                    // Validate the payload before committing the seq:
                    // a corrupted wire is refused like a dropped one
                    // (no `seen` entry, no ack), so a clean retransmit
                    // of the same seq can still land.
                    let (rows, ctx) = match wirefmt::decode_rows(&payload, table) {
                        Ok(decoded) => decoded,
                        Err(_) => {
                            self.stats.dropped += 1;
                            self.stats.decode_failures += 1;
                            self.link_counters.entry((src, dst)).or_default().dropped += 1;
                            self.obs.event("net", "decode_failure", dst as u32 + 1, || {
                                vec![
                                    ("src", ArgValue::U64(src as u64)),
                                    ("dst", ArgValue::U64(dst as u64)),
                                    ("link_seq", ArgValue::U64(seq)),
                                ]
                            });
                            return None;
                        }
                    };
                    seen.insert(seq);
                    // End-to-end fact dedup: drop occurrences this node
                    // already accepted from `src` (replays from a
                    // crashed sender whose marks rolled back).
                    let dedup = nl.recv_dedup.entry(src).or_default();
                    let mut fresh = Batch::default();
                    let mut replayed = 0u64;
                    for (r, row, n) in rows.rows() {
                        if dedup.insert(r, row) {
                            fresh.push_n(r, row, 1);
                            replayed += n as u64 - 1;
                        } else {
                            replayed += n as u64;
                        }
                    }
                    self.stats.replayed_facts_suppressed += replayed;
                    self.stats.delivered_batches += 1;
                    self.link_counters.entry((src, dst)).or_default().delivered += 1;
                    Some((dst, fresh, ctx.map(|c| c.id())))
                }
            }
            Wire::Ack { src, dst, cum } => {
                // `dst` is the original data sender: clear its outbox
                // toward the acker up to the cumulative seq.
                if let Some(entries) = self.links.get_mut(&dst).and_then(|nl| nl.out.get_mut(&src))
                {
                    entries.retain(|&seq, _| seq > cum);
                }
                None
            }
        }
    }

    /// Whether `node`'s receive cursor can advance — i.e. a snapshot
    /// now would fold fresh receipts into `cum` and emit acks peers
    /// are waiting for.
    pub(crate) fn ackable(&self, node: usize) -> bool {
        let Some(nl) = self.links.get(&node) else {
            return false;
        };
        nl.seen.iter().any(|(src, seen)| {
            let cum = nl.cum.get(src).copied().unwrap_or(0);
            seen.contains(&(cum + 1))
        })
    }

    /// Take a snapshot of `node`'s link state: advance each receive
    /// cursor over its contiguous prefix, emit cumulative acks for the
    /// links that advanced, record the per-destination sequence floor,
    /// and return the (cloned) link state to store in the node's
    /// [`NodeSnapshot`].
    pub(crate) fn snapshot(&mut self, node: usize, out: &mut Vec<Wire>) -> NodeLinks {
        // Output commit: the checkpoint being taken now contains every
        // staged entry, so they may be released — first transmission,
        // through the fault gauntlet.
        let retry_at = self.tick + self.plan.backoff_base.max(1);
        let nl = self
            .links
            .get_mut(&node)
            .expect("snapshot of non-local node");
        let mut staged = Vec::new();
        for (&dst, entries) in &mut nl.out {
            for (&seq, entry) in entries.iter_mut().filter(|(_, entry)| entry.staged) {
                (entry.staged, entry.attempt, entry.retry_at) = (false, 1, retry_at);
                staged.push((dst, seq, entry.payload.clone()));
            }
        }
        for (dst, seq, payload) in staged {
            self.transmit(node, dst, seq, payload, 1, out);
        }
        let floors = self.next_seq.range((node, 0)..=(node, usize::MAX));
        let sent_floor = floors.map(|(&(_, dst), &next)| (dst, next)).collect();
        let nl = self
            .links
            .get_mut(&node)
            .expect("snapshot of non-local node");
        nl.sent_floor = sent_floor;
        for (&src, seen) in nl.seen.iter_mut() {
            let cum = nl.cum.entry(src).or_insert(0);
            let before = *cum;
            while seen.remove(&(*cum + 1)) {
                *cum += 1;
            }
            if *cum > before {
                self.stats.acks_sent += 1;
                out.push(Wire::Ack {
                    src: node,
                    dst: src,
                    cum: *cum,
                });
            }
        }
        self.stats.snapshots += 1;
        self.links[&node].clone()
    }

    /// Restore `node`'s link state from a snapshot (crash recovery).
    /// Outbox entries come back with a reset attempt budget and an
    /// immediate retry. The per-link `next_seq` counters roll back to
    /// the snapshot's [`NodeLinks::sent_floor`]: every seq in
    /// `[floor, next)` was allocated post-snapshot and — because sends
    /// are staged until a snapshot releases them — was *never on the
    /// wire*, so reusing it cannot collide with an in-flight or
    /// delivered wire, and a receiver's cumulative cursor never waits
    /// on a hole no one will fill.
    pub(crate) fn restore(&mut self, node: usize, mut snap: NodeLinks) {
        for entries in snap.out.values_mut() {
            for entry in entries.values_mut() {
                if !entry.staged {
                    entry.attempt = 0;
                    entry.retry_at = self.tick + 1;
                    self.stats.replayed += 1;
                }
            }
        }
        // Install the snapshot's floors unconditionally: a respawned
        // incarnation starts with an *empty* `next_seq` map, so rolling
        // back only pre-existing keys would restart every link at seq 1
        // and collide with seqs the previous incarnation already put on
        // the wire. Links absent from `sent_floor` never carried a wire
        // before the snapshot, so their counters reset.
        self.next_seq.retain(|&(src, _), _| src != node);
        for (&dst, &floor) in &snap.sent_floor {
            self.next_seq.insert((node, dst), floor);
        }
        self.links.insert(node, snap);
    }

    /// Register a node with this worker — its own at start-up, or one
    /// it did not originally own (shard adoption after a dead peer's
    /// respawn budget ran out): create its link state — overwritten
    /// right away by [`ReliableNet::restore`] when a hand-off carries
    /// the node's retained snapshot — and queue any of the plan's crash
    /// points for it, sorted by transition.
    pub(crate) fn adopt(&mut self, node: usize) {
        self.links.entry(node).or_default();
        let mut points: Vec<CrashPoint> = self
            .plan
            .crashes
            .iter()
            .filter(|c| c.node == node)
            .copied()
            .collect();
        points.sort_by_key(|c| c.at_transition);
        if !points.is_empty() {
            self.crash_queue
                .entry(node)
                .or_insert_with(|| points.into());
        }
    }

    /// Crash bookkeeping: drop the node's in-flight outgoing wires from
    /// the delay buffer (the network loses them; the restored outbox
    /// retransmits) and open the recovery window.
    pub(crate) fn crash(&mut self, node: usize, down_ticks: Tick) {
        let from_node = |w: &Wire| matches!(w, Wire::Data { src, .. } if *src == node);
        let (lost, kept): (BTreeMap<_, _>, _) = std::mem::take(&mut self.delayed)
            .into_iter()
            .partition(|(_, w)| from_node(w));
        self.delayed = kept;
        for wire in lost.into_values() {
            if let Wire::Data {
                src,
                dst,
                seq,
                payload,
            } = wire
            {
                self.stats.dropped += 1;
                self.link_counters.entry((src, dst)).or_default().dropped += 1;
                self.note_drop(src, dst, seq, &payload);
            }
        }
        if down_ticks > 0 {
            self.down_until.insert(node, self.tick + down_ticks);
        }
        self.stats.crashes += 1;
    }

    /// The next crash point due for `node`, given its (monotone)
    /// transition count. Consumes the point.
    pub(crate) fn due_crash(&mut self, node: usize, transitions: usize) -> Option<CrashPoint> {
        let queue = self.crash_queue.get_mut(&node)?;
        queue.pop_front_if(|c| transitions >= c.at_transition)
    }

    /// Whether `node` is inside its crash-recovery window.
    pub(crate) fn node_down(&self, node: usize) -> bool {
        self.down_until.get(&node).is_some_and(|&t| t > self.tick)
    }

    /// Whether the substrate has standing obligations: unacked
    /// outboxes, wires in the delay buffer, or nodes in recovery. A
    /// worker with obligations is *not* passive — this is the
    /// fault-mode extension of the Safra passivity predicate.
    pub(crate) fn has_obligations(&self) -> bool {
        !self.delayed.is_empty()
            || self.down_until.values().any(|&t| t > self.tick)
            || self.links.values().any(|nl| nl.unacked() > 0)
    }

    /// Exit accounting: fold wires still in the delay buffer into the
    /// per-link `buffered` counters (zero on a clean quiescent run).
    pub(crate) fn finalize(&mut self) {
        for wire in self.delayed.values() {
            if let Wire::Data { src, dst, .. } = wire {
                self.link_counters.entry((*src, *dst)).or_default().buffered += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::{fact, Fact};
    use calm_common::rng::Rng;
    use calm_common::storage::CanonicalOrder;
    use calm_common::value::Value;
    use calm_transducer::multiset::Multiset;

    fn batch(n: i64) -> Multiset<Fact> {
        [fact("m", [n, n])].into_iter().collect()
    }

    fn payload(n: i64) -> Arc<[u8]> {
        wirefmt::encode(&batch(n)).into()
    }

    /// The substrate of a worker holding node `g` alone.
    fn net_of(plan: &FaultPlan, g: usize) -> ReliableNet<'_> {
        let mut net = ReliableNet::new(plan, &Obs::noop());
        net.adopt(g);
        net
    }

    /// Total unacked outbox entries across `net`'s nodes.
    fn unacked(net: &ReliableNet<'_>) -> usize {
        net.links.values().map(NodeLinks::unacked).sum()
    }

    /// An arrival with its rows as the facts they stand for.
    type Arrival = (usize, Multiset<Fact>, Option<(u64, u64)>);

    /// [`ReliableNet::receive`] into `table` — the table of every row the
    /// net holds — the rows it accepted as the facts they stand for.
    fn receive(
        net: &mut ReliableNet<'_>,
        wire: Wire,
        table: &mut SymbolTable,
        out: &mut Vec<Wire>,
    ) -> Option<Arrival> {
        let (dst, rows, mid) = net.receive(wire, table, out)?;
        let mut facts = Multiset::new();
        rows.add_to(table, &mut facts);
        Some((dst, facts, mid))
    }

    #[test]
    fn dedup_suppresses_and_reacks() {
        let plan = FaultPlan::none(1);
        let mut net = net_of(&plan, 1);
        let (mut out, table) = (Vec::new(), &mut SymbolTable::new());
        let d = |seq| Wire::Data {
            src: 0,
            dst: 1,
            seq,
            payload: payload(seq as i64),
        };
        assert!(receive(&mut net, d(1), table, &mut out).is_some());
        assert!(out.is_empty(), "fresh data is not acked until snapshot");
        // Duplicate: suppressed, re-acked at the snapshotted cum (0).
        assert!(receive(&mut net, d(1), table, &mut out).is_none());
        assert_eq!(net.stats.duplicates_suppressed, 1);
        assert!(matches!(out.pop(), Some(Wire::Ack { cum: 0, .. })));
        // Snapshot folds seq 1 into cum and acks it.
        let links = net.snapshot(1, &mut out);
        assert_eq!(links.cum[&0], 1);
        assert!(matches!(
            out.pop(),
            Some(Wire::Ack {
                src: 1,
                dst: 0,
                cum: 1
            })
        ));
        // Later duplicate of seq 1: suppressed by the cursor.
        assert!(receive(&mut net, d(1), table, &mut out).is_none());
        assert_eq!(net.stats.duplicates_suppressed, 2);
    }

    #[test]
    fn out_of_order_receipt_acks_only_the_contiguous_prefix() {
        let plan = FaultPlan::none(1);
        let mut net = net_of(&plan, 1);
        let (mut out, table) = (Vec::new(), &mut SymbolTable::new());
        for seq in [3u64, 1] {
            receive(
                &mut net,
                Wire::Data {
                    src: 0,
                    dst: 1,
                    seq,
                    payload: payload(seq as i64),
                },
                table,
                &mut out,
            );
        }
        let links = net.snapshot(1, &mut out);
        assert_eq!(links.cum[&0], 1, "seq 2 is missing: cum stops at 1");
        assert!(links.seen[&0].contains(&3), "seq 3 stays in the gap set");
        // The gap arrives; the next snapshot advances over both.
        receive(
            &mut net,
            Wire::Data {
                src: 0,
                dst: 1,
                seq: 2,
                payload: payload(2),
            },
            table,
            &mut out,
        );
        out.clear();
        let links = net.snapshot(1, &mut out);
        assert_eq!(links.cum[&0], 3);
        assert!(links.seen[&0].is_empty());
        assert!(matches!(out.pop(), Some(Wire::Ack { cum: 3, .. })));
    }

    #[test]
    fn retransmission_backs_off_and_acks_clear_the_outbox() {
        let plan = FaultPlan::none(3);
        let mut net = net_of(&plan, 0);
        let mut out = Vec::new();
        net.send_payload(0, 1, payload(1));
        assert!(out.is_empty(), "sends are staged until a snapshot");
        assert!(net.staged(0));
        net.snapshot(0, &mut out);
        assert_eq!(out.len(), 1, "the snapshot releases the first attempt");
        assert!(!net.staged(0));
        assert_eq!(unacked(&net), 1);
        // Run past the first backoff: exactly one retransmission.
        out.clear();
        for _ in 0..plan.backoff_base {
            net.advance(&mut out);
        }
        assert_eq!(net.stats.retransmissions, 1);
        assert!(matches!(out[0], Wire::Data { seq: 1, .. }));
        // The cumulative ack clears it; no further retransmissions.
        out.clear();
        receive(
            &mut net,
            Wire::Ack {
                src: 1,
                dst: 0,
                cum: 1,
            },
            &mut SymbolTable::new(),
            &mut out,
        );
        assert_eq!(unacked(&net), 0);
        for _ in 0..64 {
            net.advance(&mut out);
        }
        assert_eq!(net.stats.retransmissions, 1);
        assert!(!net.has_obligations());
    }

    #[test]
    fn retry_budget_exhaustion_is_counted_and_unblocks() {
        let mut plan = FaultPlan::uniform(5, 1.0, 0.0); // every attempt dropped
        plan.retry_budget = 3;
        plan.backoff_base = 1;
        plan.max_backoff = 1;
        let mut net = net_of(&plan, 0);
        let mut out = Vec::new();
        net.send_payload(0, 1, payload(1));
        net.snapshot(0, &mut out);
        assert!(out.is_empty(), "drop_p=1 eats the first attempt");
        for _ in 0..32 {
            net.advance(&mut out);
        }
        assert_eq!(net.stats.retry_exhausted, 1);
        assert_eq!(unacked(&net), 0, "exhausted entries are abandoned");
        assert!(!net.has_obligations());
        assert_eq!(net.stats.attempts, 3);
        assert_eq!(net.stats.dropped, 3);
    }

    #[test]
    fn partition_drops_until_heal_then_retransmission_crosses() {
        let mut plan = FaultPlan::parse("seed=5,partition=0>1@0..10,backoff=2").unwrap();
        plan.max_backoff = 2;
        let mut net = net_of(&plan, 0);
        let mut out = Vec::new();
        net.send_payload(0, 1, payload(1));
        net.snapshot(0, &mut out);
        assert!(out.is_empty(), "partitioned at tick 0");
        while net.tick < 20 && out.is_empty() {
            net.advance(&mut out);
        }
        assert!(!out.is_empty(), "retransmission crosses after the heal");
        assert!(net.tick >= 10);
        // Reverse direction was never partitioned.
        let mut rev = Vec::new();
        let mut net2 = net_of(&plan, 1);
        net2.send_payload(1, 0, payload(2));
        net2.snapshot(1, &mut rev);
        assert_eq!(rev.len(), 1);
    }

    #[test]
    fn delay_buffers_and_releases_in_tick_order() {
        // A long backoff keeps retransmission out of the picture.
        let plan = FaultPlan::parse("seed=9,delay=1.0/4,backoff=64").unwrap();
        let mut net = net_of(&plan, 0);
        let mut out = Vec::new();
        net.send_payload(0, 1, payload(1));
        net.snapshot(0, &mut out);
        assert!(out.is_empty(), "delay_p=1 holds every copy");
        assert_eq!(net.stats.delayed, 1);
        assert!(net.has_obligations());
        let mut released = Vec::new();
        for _ in 0..5 {
            net.advance(&mut released);
        }
        assert_eq!(
            released
                .iter()
                .filter(|w| matches!(w, Wire::Data { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn crash_restore_rolls_back_staged_sends_and_reissues_their_seqs() {
        let plan = FaultPlan::parse("seed=11,crash=0@1~2").unwrap();
        let mut net = net_of(&plan, 0);
        let mut out = Vec::new();
        // Release seq 1 with a snapshot; stage seq 2 with no covering
        // snapshot.
        net.send_payload(0, 1, payload(1));
        let snap = net.snapshot(0, &mut out);
        assert!(matches!(out[0], Wire::Data { seq: 1, .. }));
        net.send_payload(0, 1, payload(2));
        assert_eq!(unacked(&net), 2);
        // Crash: the staged entry vanishes with the rollback and its
        // sequence number is reissued — safe, because a staged send was
        // never on the wire; the released entry survives for
        // retransmission.
        assert!(net.due_crash(0, 1).is_some());
        assert!(net.due_crash(0, 1).is_none(), "each point fires once");
        net.crash(0, 2);
        net.restore(0, snap);
        assert_eq!(unacked(&net), 1, "only the committed entry survives");
        assert_eq!(
            net.links[&0].out[&1].keys().copied().collect::<Vec<_>>(),
            vec![1]
        );
        assert!(net.node_down(0));
        assert!(net.has_obligations(), "a node in recovery is an obligation");
        for _ in 0..3 {
            net.advance(&mut out);
        }
        assert!(!net.node_down(0), "recovery window expires");
        // The restart re-derives and re-stages under the reissued seq.
        out.clear();
        net.send_payload(0, 1, payload(2));
        net.snapshot(0, &mut out);
        assert!(
            out.iter().any(|w| matches!(w, Wire::Data { seq: 2, .. })),
            "rolled-back seq 2 is reused: {out:?}"
        );
    }

    #[test]
    fn down_node_refuses_arrivals() {
        let plan = FaultPlan::none(13);
        let mut net = net_of(&plan, 1);
        net.crash(1, 5);
        let (mut out, table) = (Vec::new(), &mut SymbolTable::new());
        let got = receive(
            &mut net,
            Wire::Data {
                src: 0,
                dst: 1,
                seq: 1,
                payload: payload(1),
            },
            table,
            &mut out,
        );
        assert!(got.is_none());
        assert_eq!(net.stats.dropped, 1);
        assert!(out.is_empty(), "a down node does not ack");
    }

    #[test]
    fn corrupted_payload_is_refused_and_the_seq_stays_free() {
        let plan = FaultPlan::none(17);
        let mut net = net_of(&plan, 1);
        let (mut out, table) = (Vec::new(), &mut SymbolTable::new());
        // Corrupt the payload past the header: decode fails, the wire
        // counts as a drop, and no ack is emitted.
        let mut bad: Vec<u8> = payload(1).to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        bad.truncate(last);
        let got = receive(
            &mut net,
            Wire::Data {
                src: 0,
                dst: 1,
                seq: 1,
                payload: bad.into(),
            },
            table,
            &mut out,
        );
        assert!(got.is_none());
        assert_eq!(net.stats.decode_failures, 1);
        assert_eq!(net.stats.dropped, 1);
        assert!(out.is_empty(), "a refused wire is not acked");
        // A clean retransmission of the same seq still lands: the
        // refusal did not consume the sequence number.
        let got = receive(
            &mut net,
            Wire::Data {
                src: 0,
                dst: 1,
                seq: 1,
                payload: payload(1),
            },
            table,
            &mut out,
        );
        assert_eq!(got, Some((1, batch(1), None)));
        assert_eq!(net.stats.duplicates_suppressed, 0);
    }

    /// The receive filter as it was kept, in facts: what a fresh data wire
    /// carrying `payload` from one source delivers, and how many of its
    /// occurrences it suppresses.
    fn filter_by_facts(
        accepted: &mut BTreeSet<Fact>,
        payload: &Multiset<Fact>,
    ) -> (Multiset<Fact>, u64) {
        let (mut fresh, mut replayed) = (Multiset::new(), 0);
        for (f, n) in payload.iter() {
            if accepted.insert(f.clone()) {
                fresh.insert(f.clone());
                replayed += n as u64 - 1;
            } else {
                replayed += n as u64;
            }
        }
        (fresh, replayed)
    }

    /// One to four facts of `m_E` / `n_E`, arities 1–2, over small ints
    /// and strings, each up to three times.
    fn random_payload(rng: &mut Rng) -> Multiset<Fact> {
        let mut payload = Multiset::new();
        for _ in 0..rng.gen_range(1..5usize) {
            let relation = rng.choose(&["m_E", "n_E"]).unwrap();
            let args = (0..rng.gen_range(1..3usize)).map(|_| match rng.gen_range(0..2u32) {
                0 => Value::Int(rng.gen_range(0..4i64) - 1),
                _ => Value::str(rng.choose(&["a", "-1"]).unwrap()),
            });
            let f = Fact::new(relation, args.collect());
            payload.insert_n(f, rng.gen_range(1..4usize));
        }
        payload
    }

    #[test]
    fn the_row_filter_accepts_what_the_fact_filter_accepted() {
        // Three senders to node 3: fresh payloads under fresh seqs, a wire
        // sent twice (the seq cursor's to refuse), a payload sent again
        // under a fresh seq (a crashed sender whose marks rolled back: the
        // filter's). The receiver checkpoints now and then and rolls back
        // to its checkpoint — in place, or through the blob into another
        // table — and the filter with it.
        use crate::transport::proto::{decode_snapshot_blob, encode_snapshot_blob};
        let plan = FaultPlan::none(23);
        let mut rng = Rng::seed_from_u64(0xdedf);
        let (mut fresh_wires, mut replays, mut restores, mut through_blobs) = (0, 0, 0, 0);
        for _ in 0..40 {
            let mut net = net_of(&plan, 3);
            let mut table = SymbolTable::new();
            let mut model: BTreeMap<usize, BTreeSet<Fact>> = BTreeMap::new();
            let mut sent: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); 3];
            let mut checkpoint = (net.snapshot(3, &mut Vec::new()), model.clone());
            let mut suppressed = 0;
            for _ in 0..80 {
                let src = rng.gen_range(0..3usize);
                let (seq, payload) = match rng.gen_range(0..8u32) {
                    0 if !sent[src].is_empty() => {
                        let at = rng.gen_range(0..sent[src].len());
                        (at + 1, sent[src][at].clone())
                    }
                    1 if !sent[src].is_empty() => {
                        let again = rng.choose(&sent[src]).unwrap().clone();
                        sent[src].push(again.clone());
                        replays += 1;
                        (sent[src].len(), again)
                    }
                    2 => {
                        checkpoint = (net.snapshot(3, &mut Vec::new()), model.clone());
                        continue;
                    }
                    3 => {
                        if rng.gen_bool(0.5) {
                            // The checkpoint moves to another table.
                            let snap = NodeSnapshot {
                                state: Storage::new(),
                                pending: Vec::new(),
                                links: checkpoint.0,
                            };
                            let mut order = CanonicalOrder::default();
                            order.extend(&table);
                            let blob = encode_snapshot_blob(&snap, &table, &order, 0, 0);
                            table = SymbolTable::new();
                            table.sym(&Value::str("the indexes mean other values"));
                            let back = decode_snapshot_blob(&blob, &mut table).expect("reads");
                            checkpoint.0 = back.0.links;
                            through_blobs += 1;
                        }
                        net.restore(3, checkpoint.0.clone());
                        model = checkpoint.1.clone();
                        restores += 1;
                        continue;
                    }
                    _ => {
                        let payload: Arc<[u8]> = wirefmt::encode(&random_payload(&mut rng)).into();
                        sent[src].push(payload.clone());
                        (sent[src].len(), payload)
                    }
                };
                let wire = Wire::Data {
                    src,
                    dst: 3,
                    seq: seq as u64,
                    payload: payload.clone(),
                };
                let Some((_, facts, _)) = receive(&mut net, wire, &mut table, &mut Vec::new())
                else {
                    continue;
                };
                let decoded = wirefmt::decode(&payload).expect("a payload of ours");
                let (fresh, replayed) = filter_by_facts(model.entry(src).or_default(), &decoded);
                assert_eq!(facts, fresh, "from {src}, seq {seq}: {decoded:?}");
                suppressed += replayed;
                assert_eq!(net.stats.replayed_facts_suppressed, suppressed);
                fresh_wires += 1;
            }
        }
        assert!(
            fresh_wires > 1_500 && replays > 200 && restores > 200 && through_blobs > 100,
            "{fresh_wires} fresh wires, {replays} replays, {restores} restores \
             ({through_blobs} through a blob)"
        );
    }

    #[test]
    fn wire_bytes_count_every_copy() {
        let plan = FaultPlan::none(19);
        let mut net = net_of(&plan, 0);
        let mut out = Vec::new();
        let dense: Multiset<Fact> = (0..64).map(|i| fact("reach", [i, i + 1])).collect();
        net.send_payload(0, 1, wirefmt::encode(&dense).into());
        assert_eq!(net.wire_bytes, 0, "staged sends are not on the wire yet");
        net.snapshot(0, &mut out);
        assert!(net.wire_bytes > 0);
        // A retransmission pays the same bytes again.
        let first = net.wire_bytes;
        for _ in 0..plan.backoff_base {
            net.advance(&mut out);
        }
        assert_eq!(net.stats.retransmissions, 1);
        assert_eq!(net.wire_bytes, first * 2);
    }

    /// A random batch: a few relations of random arity (1..=8) over a
    /// small mixed int/str/Skolem domain, with multiplicities.
    fn random_batch(rng: &mut Rng) -> Multiset<Fact> {
        let mut batch = Multiset::new();
        let relations = 1 + (rng.gen_u64() % 4) as usize;
        for r in 0..relations {
            let name = format!("rel_{r}");
            let arity = 1 + (rng.gen_u64() % 8) as usize;
            let rows = rng.gen_u64() % 12;
            for _ in 0..rows {
                let args: Vec<Value> = (0..arity)
                    .map(|_| match rng.gen_u64() % 4 {
                        0 => Value::Int(rng.gen_u64() as i64 % 100),
                        1 => Value::Int(-((rng.gen_u64() % 1_000_000) as i64)),
                        2 => Value::str(format!("node-{}", rng.gen_u64() % 8)),
                        _ => Value::skolem("f", vec![Value::Int((rng.gen_u64() % 16) as i64)]),
                    })
                    .collect();
                let mult = 1 + (rng.gen_u64() % 3) as usize;
                batch.insert_n(Fact::new(&name, args), mult);
            }
        }
        batch
    }

    #[test]
    fn reliability_layer_refuses_corrupted_prefixes_and_recovers() {
        // End-to-end corruption handling: feed truncated payloads through
        // the substrate's receive path. Each must be refused (counted as a
        // dropped decode failure, no ack, seq unconsumed); the intact
        // payload must then land exactly once.
        let plan = FaultPlan::none(23);
        for seed in 0..10u64 {
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0DE);
            let mut batch = random_batch(&mut rng);
            if batch.is_empty() {
                batch.insert(Fact::new("pad", vec![Value::Int(0)]));
            }
            let bytes = wirefmt::encode(&batch);
            let mut net = net_of(&plan, 1);
            let (mut out, mut table) = (Vec::new(), SymbolTable::new());
            let wire = |payload: &[u8]| Wire::Data {
                src: 0,
                dst: 1,
                seq: 1,
                payload: payload.into(),
            };
            let cuts = [2usize, bytes.len() / 2, bytes.len() - 1];
            for &cut in &cuts {
                let got = receive(&mut net, wire(&bytes[..cut]), &mut table, &mut out);
                assert!(got.is_none(), "seed {seed}: truncated wire must be refused");
                assert!(out.is_empty(), "seed {seed}: refused wires are not acked");
            }
            assert_eq!(net.stats.decode_failures, cuts.len() as u64);
            assert_eq!(net.stats.dropped, cuts.len() as u64);
            // The sender retransmits the intact payload under the same seq.
            let got = receive(&mut net, wire(&bytes), &mut table, &mut out);
            // The substrate's end-to-end per-source dedup collapses
            // multiplicities: what lands is the batch's support.
            let support: Multiset<Fact> = batch.support().cloned().collect();
            assert_eq!(
                got,
                Some((1, support, None)),
                "seed {seed}: the clean retransmission lands"
            );
            assert_eq!(
                net.stats.duplicates_suppressed, 0,
                "seed {seed}: refusals must not have consumed the seq"
            );
        }
    }

    /// Feed `wires` into a fresh receiver and return the accepted
    /// fact-occurrence multiset (what the engine would enqueue into the
    /// node's inbox, i.e. what determines `Instance` state), with the
    /// delivered and suppressed counts.
    fn accepted(plan: &FaultPlan, wires: &[Wire]) -> (Multiset<Fact>, u64, u64) {
        let mut net = net_of(plan, 1);
        let (mut out, mut table) = (Vec::new(), SymbolTable::new());
        let mut got = Multiset::new();
        for w in wires {
            if let Some((_, rows, _)) = net.receive(w.clone(), &mut table, &mut out) {
                rows.add_to(&table, &mut got);
            }
        }
        (
            got,
            net.stats.delivered_batches,
            net.stats.duplicates_suppressed,
        )
    }

    #[test]
    fn duplicating_any_wire_prefix_never_changes_delivery() {
        // Property: for every stream of data wires and every prefix length
        // k, re-injecting the first k wires (the network duplicating a
        // prefix in flight) leaves the accepted fact multiset — and hence
        // the receiving node's `Instance` state — unchanged, while every
        // duplicate is counted suppressed and re-acked.
        let plan = FaultPlan::none(0);
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1CE);
            let n = 3 + (rng.gen_u64() % 8) as usize;
            let stream: Vec<Wire> = (1..=n as u64)
                .map(|seq| {
                    let facts = 1 + (rng.gen_u64() % 3) as i64;
                    let batch: Multiset<Fact> = (0..facts)
                        .map(|_| {
                            fact(
                                "m",
                                [(rng.gen_u64() % 5) as i64, (rng.gen_u64() % 5) as i64],
                            )
                        })
                        .collect();
                    Wire::Data {
                        src: 0,
                        dst: 1,
                        seq,
                        payload: wirefmt::encode(&batch).into(),
                    }
                })
                .collect();
            let (base, base_batches, base_supp) = accepted(&plan, &stream);
            assert_eq!(base_supp, 0, "seed {seed}: clean stream has no duplicates");
            for k in 1..=n {
                let mut dup: Vec<Wire> = stream[..k].to_vec();
                dup.extend_from_slice(&stream[..k]); // the duplicated prefix
                dup.extend_from_slice(&stream[k..]);
                let (got, batches, supp) = accepted(&plan, &dup);
                assert_eq!(got, base, "seed {seed} k {k}: delivery must not change");
                assert_eq!(batches, base_batches, "seed {seed} k {k}: batches");
                assert_eq!(supp, k as u64, "seed {seed} k {k}: duplicates suppressed");
            }
        }
    }
}
