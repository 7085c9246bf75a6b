//! The node ([`NodeEngine`]) shared by every execution engine: the
//! sequential simulator ([`crate::runtime`]) and the threaded and
//! process executors (the `calm-net` crate).
//!
//! A transition of node `x` (§4.1.3) is: deliver a submultiset
//! `m ⊆ b(x)`, step on `D = H(x) ∪ s(x) ∪ M ∪ S` (`M` is `m` collapsed
//! to a set), enqueue `Qsnd(D)` at every other node. The node owns the
//! first two and the receiving end of the third:
//!
//! * [`NodeEngine::step`] chooses `m` per [`Delivery`], counts the
//!   delivery and the heartbeat, runs the node's program, reads back
//!   what it added to the state and — with tracing on — mints the
//!   send's causal id;
//! * [`NodeEngine::enqueue`] puts a send — a step's batch, a decoded
//!   wire batch — into `b(x)` by its handle, with the accounting
//!   (high-water mark, gauge, `trace/deliver`, causal parent).
//!
//! What is left to an engine is scheduling and carrying what a step
//! sent to the other nodes' doors, so the equivalence tests compare
//! engines that differ *only* in that.
//!
//! **Inside the node everything is a row** — a `(RelId, &[Sym])` over
//! the one [`SymbolTable`] of the engine instance it runs in (handed to
//! [`NodeEngine::new`]; the nodes of a run share it, so a sent
//! [`Batch`] is enqueued by handle). `D` is a [`Storage`], `H(x)` a
//! [`Batch`], the buffer an [`Inbox`] of shared batches, the known values
//! sets of symbols. A state enters and leaves the node as rows
//! ([`NodeEngine::restore`], [`NodeEngine::checkpoint`]). The node
//! speaks no [`Fact`] but the traced `new_output`: the specification
//! (`calm-spec`) reads its state, buffer and `D` as facts from
//! [`NodeEngine::checkpoint`] and [`NodeEngine::rows`] (DESIGN §17).
//!
//! The engine *is* the node: it keeps `D` (without `M`) across
//! transitions, so a transition costs what it delivers, not what the
//! node already knows. A **warm** engine holds `D = H(x) ∪ s(x) ∪ S`,
//! the value set `A` that `S` was built over, and the node's open
//! [`NodeProgram`]; a transition extends `S` by the values that are new
//! and the program writes only new rows. A **cold** engine holds
//! `H(x) ∪ s(x)` and nothing else — the state after [`NodeEngine::new`]
//! and [`NodeEngine::restore`], so everything warm is reconstructible
//! from `(H(x), s(x))` — and its next transition builds `A`, `S` and the
//! program from scratch through the same code, with every value new.
//! The engine cools itself whenever a transition might have *shrunk*
//! `A` or the memory: a deletion took effect, or a value seen only in a
//! delivered message was not stored.

use crate::network::NodeId;
use crate::policy::DistributionPolicy;
use crate::rows::{canonical_rows, fact_of, Batch, Inbox, SymSet};
use crate::runtime::{Delivery, Metrics};
use crate::schema::{policy_relation, SystemConfig, TransducerSchema};
use crate::strategy::{class_arg_counts, classify_message, MessageClass, MessageClassCounts};
use crate::system_facts::{for_each_new_tuple, POLICY_ARITY_CAP};
use crate::transducer::{NodeProgram, NodeView, Transducer};
use calm_common::fact::Fact;
use calm_common::rng::Rng;
use calm_common::storage::{CanonicalOrder, RelId, SharedSymbols, Storage, Sym, SymbolTable};
use calm_common::value::Value;
use calm_obs::{ArgValue, Obs};
use std::sync::Arc;

/// One node of a transducer network: its state `s(x)`, its buffer
/// `b(x)`, and the step between them. Construct once per node, feed it
/// through [`NodeEngine::enqueue`] and call [`NodeEngine::step`] per
/// transition.
pub struct NodeEngine<'a> {
    transducer: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    sys: SystemConfig,
    node: NodeId,
    /// The table the node's rows are over, shared with the other nodes
    /// of the same engine instance.
    symbols: SharedSymbols,
    /// What the node knows about the relations of that table.
    rels: Relations,
    /// `H(x)` — the node's fragment of the distributed input. Its facts
    /// named like an output or memory relation never enter `D`: `H(x)` is
    /// over `Υin`, and the state is told from the rest of `D` by relation.
    input: Batch,
    /// Obs display lane: `1 + <node index>` (track 0 is engine-level).
    /// The index is also the origin of the message ids the node mints.
    track: u32,
    /// `|N| - 1`: every sent fact is enqueued once per other node.
    recipients: usize,
    /// `H(x) ∪ s(x)`, plus `S` while warm. The node state `s(x)` is the
    /// part over the relations of `Υout ∪ Υmem` — it is stored nowhere
    /// else. No column index is built on it, and between transitions it
    /// holds no tombstone.
    d: Storage,
    /// `A`, the values `S` covers; empty while cold.
    known: SymSet,
    /// Values that entered the state after `S` was last extended (a
    /// constant of a rule head, say): they join `A` at the next
    /// transition, as they would in `adom(J)` computed from scratch.
    unseen: SymSet,
    /// The node's program; `None` while cold.
    program: Option<Box<dyn NodeProgram + 'a>>,
    /// `b(x)` — sent to this node and not yet delivered.
    inbox: Inbox,
    /// `M` of the transition under way: the delivered rows, each once.
    m: Storage,
    /// Ranks the symbols of the table for a sampled delivery, which
    /// draws over the buffer in fact order; extended, never rebuilt.
    order: CanonicalOrder,
    /// The next message id this node mints (tracing only). Never moves
    /// back: a send re-derived after a restore is a new send event.
    next_seq: u64,
    /// Id of the last message enqueued here — the causal parent of the
    /// node's next send (tracing only). `None` until the first traced
    /// arrival, so sends triggered by the input alone are causal roots.
    last_arrival: Option<(u64, u64)>,
}

/// What one [`NodeEngine::step`] produced, for the caller to route.
#[derive(Debug, Clone, Default)]
pub struct NodeStepOutcome {
    /// `|m|` — the buffered occurrences the step consumed.
    pub delivered: usize,
    /// Whether the node's state (output ∪ memory) changed.
    pub state_changed: bool,
    /// Whether the node's *output* portion grew.
    pub grew_output: bool,
    /// `Qsnd(D)` — message rows, each once, to be enqueued at every
    /// other node by handle (already counted in the metrics; the caller
    /// only routes).
    pub sent: Arc<Batch>,
    /// The `(origin, seq)` id minted for this send: `Some` iff tracing
    /// is on and `sent` is not empty. Recipients take it at their door.
    pub mid: Option<(u64, u64)>,
    /// The send's causal parent, for the wire's trace context.
    pub cause: Option<(u64, u64)>,
}

/// Whether `relation` holds node state (`Υout ∪ Υmem`).
fn is_state(schema: &TransducerSchema, relation: &str) -> bool {
    schema.output.contains(relation) || schema.mem.contains(relation)
}

/// What a node needs to know about a relation, by id.
#[derive(Debug, Clone, Copy)]
struct RelInfo {
    /// Holds node state (`Υout ∪ Υmem`).
    state: bool,
    /// Is an output relation (`Υout`).
    output: bool,
    /// Its class as a message relation.
    class: MessageClass,
}

/// The relations of the node's table as the node sees them: the system
/// relations by id (interned once, at construction), and for every id
/// it meets its [`RelInfo`] — asked of the schema and of
/// [`classify_message`] once, when the id is first met.
struct Relations {
    id: RelId,
    all: RelId,
    my_adom: RelId,
    /// Per input relation `R` of arity `k`: an `R` fact to ask the
    /// policy about (its arguments overwritten per candidate tuple),
    /// `k`, and `policy_R`.
    policy: Vec<(Fact, usize, RelId)>,
    /// `Id`, `All`, `MyAdom` and every `policy_R`.
    system: Vec<RelId>,
    info: Vec<RelInfo>,
}

impl Relations {
    fn new(transducer: &dyn Transducer, table: &mut SymbolTable) -> Self {
        let (id, all, my_adom) = (table.rel("Id"), table.rel("All"), table.rel("MyAdom"));
        let mut system = vec![id, all, my_adom];
        let mut policy = Vec::new();
        for (r, arity) in transducer.schema().input.iter() {
            let policy_r = table.rel(&policy_relation(r));
            system.push(policy_r);
            if arity > 0 {
                let candidate = Fact::from_rel(r.clone(), vec![Value::Int(0); arity]);
                policy.push((candidate, arity, policy_r));
            }
        }
        Relations {
            id,
            all,
            my_adom,
            policy,
            system,
            info: Vec::new(),
        }
    }

    /// What the node knows about `r`, a relation of `table`.
    fn info(&mut self, r: RelId, transducer: &dyn Transducer, table: &SymbolTable) -> RelInfo {
        let schema = transducer.schema();
        for next in self.info.len()..table.rel_count().max(r.0 as usize + 1) {
            let name = table.rel_name(RelId(next as u32));
            self.info.push(RelInfo {
                state: is_state(schema, name),
                output: schema.output.contains(name),
                class: classify_message(name),
            });
        }
        self.info[r.0 as usize]
    }
}

/// What reading back a step's insertions found.
#[derive(Default)]
struct Folded {
    state_changed: bool,
    grew_output: bool,
    deleted: bool,
    /// The new output facts as text, in fact order (tracing only).
    new_output: Vec<String>,
}

impl<'a> NodeEngine<'a> {
    /// The node `node` with input fragment `input` (`H(x)`, its share of
    /// `dist_P(I)`: [`crate::rows::input_batches`]), in the start
    /// configuration: empty state, cold. Its rows, `input`'s among them,
    /// are over `symbols` — one table per engine instance, the same for
    /// every node of it.
    pub fn new(
        transducer: &'a dyn Transducer,
        policy: &'a dyn DistributionPolicy,
        sys: SystemConfig,
        node: NodeId,
        input: &Batch,
        symbols: &SharedSymbols,
    ) -> Self {
        let track = policy
            .network()
            .nodes()
            .position(|n| n == &node)
            .map_or(0, |i| i as u32 + 1);
        let recipients = policy.network().len() - 1;
        let mut engine = NodeEngine {
            transducer,
            policy,
            sys,
            node,
            symbols: symbols.clone(),
            rels: Relations::new(transducer, &mut symbols.write()),
            input: input.clone(),
            track,
            recipients,
            d: Storage::new(),
            known: SymSet::default(),
            unseen: SymSet::default(),
            program: None,
            inbox: Inbox::default(),
            m: Storage::new(),
            order: CanonicalOrder::default(),
            next_seq: 0,
            last_arrival: None,
        };
        engine.cool(&symbols.read());
        engine
    }

    /// Make `(state, inbox)` the node's `(s(x), b(x))` and go cold: the
    /// one way a state enters a node — a checkpoint
    /// ([`NodeEngine::checkpoint`], or a blob read into this node's
    /// table), a configuration interned at its edge. Both are rows over
    /// the node's table; the inbox is taken by its handles. The ids the
    /// node mints are not part of it.
    pub fn restore(&mut self, state: &Storage, inbox: &[Arc<Batch>]) {
        let symbols = self.symbols.clone();
        self.d.clear();
        self.cool(&symbols.read());
        for r in state.rel_ids() {
            let rows = state.relation(r).expect("a listed relation").live_rows();
            self.d.insert_batch(r, rows);
        }
        self.inbox = Inbox::default();
        for batch in inbox.iter().filter(|batch| !batch.is_empty()) {
            self.inbox.push(Arc::clone(batch));
        }
    }

    /// Rebuild `D` as `H(x) ∪ s(x)` and forget everything warm — at
    /// construction, on [`NodeEngine::restore`], and when the engine
    /// cools itself.
    fn cool(&mut self, table: &SymbolTable) {
        self.keep_state_only(table);
        self.d.compact_retractions();
        for (r, row, _) in self.input.rows() {
            if !self.rels.info(r, self.transducer, table).state {
                self.d.insert(r, row);
            }
        }
        self.known.clear();
        self.unseen.clear();
        self.program = None;
    }

    /// Empty every relation of `D` that does not hold node state.
    fn keep_state_only(&mut self, table: &SymbolTable) {
        let relations: Vec<RelId> = self.d.rel_ids().collect();
        for r in relations {
            if !self.rels.info(r, self.transducer, table).state {
                self.d.clear_relation(r);
            }
        }
    }

    /// The node's index in network order: the origin of the message
    /// ids it mints.
    fn origin(&self) -> u64 {
        u64::from(self.track.saturating_sub(1))
    }

    /// Whether the next transition rebuilds `A`, `S` and the program
    /// from `(H(x), s(x))`.
    pub fn is_cold(&self) -> bool {
        self.program.is_none()
    }

    /// `D` as it stands between transitions: `H(x) ∪ s(x)`, and `S`
    /// while warm (for the tests that hold `S` to its specification).
    pub fn rows(&self) -> &Storage {
        &self.d
    }

    /// The node as a checkpoint holds it, in rows over its table: a copy
    /// of `s(x)` and the handles of `b(x)` — what [`NodeEngine::restore`]
    /// takes back. Nothing is un-interned.
    pub fn checkpoint(&self) -> (Storage, Vec<Arc<Batch>>) {
        let table = &*self.symbols.read();
        let schema = self.transducer.schema();
        let mut state = Storage::new();
        let stateful = |&r: &RelId| is_state(schema, table.rel_name(r));
        for r in self.d.rel_ids().filter(stateful) {
            state.insert_batch(r, self.d.relation(r).expect("listed").live_rows());
        }
        (state, self.inbox.batches().to_vec())
    }

    /// `|b(x)|` in occurrences — what the engines' passivity tests and
    /// accounts read.
    pub fn buffered(&self) -> usize {
        self.inbox.len()
    }

    /// Whether every row of `b(x)` is in `M`, the set the node's last
    /// transition was delivered: what the sequential engine's quiescence
    /// test asks of every node after a sweep ([`crate::runtime::run`]).
    pub(crate) fn holds_only_redeliveries(&self) -> bool {
        let mut groups = self.inbox.batches().iter().flat_map(|batch| batch.groups());
        groups.all(|(r, mut rows)| rows.all(|row| self.m.contains(r, row)))
    }

    /// The node taken apart, still in rows over its table: `(s(x),
    /// b(x))` — how a run's end takes it ([`crate::rows::StateRows`]).
    pub fn into_rows(mut self) -> (Storage, Inbox) {
        let symbols = self.symbols.clone();
        self.keep_state_only(&symbols.read());
        (self.d, self.inbox)
    }

    /// The next message id the node would mint (for a checkpoint).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Mint no id below `next_seq`: a node rebuilt in another process
    /// from a shipped checkpoint continues its predecessor's numbering.
    pub fn resume_ids_from(&mut self, next_seq: u64) {
        self.next_seq = self.next_seq.max(next_seq);
    }

    /// Enqueue one send into `b(x)` by its handle: the batch a sender's
    /// step returned, or one a wire payload was decoded into. Its rows
    /// must be over this node's table. `mid` is the send's id when it
    /// was traced. An arrival is accounted for: the high-water mark, the
    /// `queue_depth` gauge, and for a traced send the `trace/deliver`
    /// event and the causal parent of this node's next send.
    pub fn enqueue(
        &mut self,
        sent: &Arc<Batch>,
        mid: Option<(u64, u64)>,
        metrics: &mut Metrics,
        obs: &Obs,
    ) {
        if sent.is_empty() {
            return;
        }
        let n = sent.len();
        self.inbox.push(Arc::clone(sent));
        let depth = self.inbox.len();
        metrics.note_depth(&self.node, depth);
        if let Some((origin, seq)) = mid {
            self.last_arrival = mid;
            let dst = self.origin();
            obs.event("trace", "deliver", self.track, || {
                vec![
                    ("origin", ArgValue::U64(origin)),
                    ("seq", ArgValue::U64(seq)),
                    ("dst", ArgValue::U64(dst)),
                    ("facts", ArgValue::U64(n as u64)),
                ]
            });
        }
        obs.gauge("runtime", "queue_depth", self.track, depth as u64);
    }

    /// Choose the submultiset `m ⊆ b(x)` that `delivery` names, take it
    /// out of the inbox and collapse it to the set `M` (`self.m`).
    /// Returns `|m|`.
    fn deliver(&mut self, delivery: Delivery, table: &SymbolTable) -> usize {
        if !self.m.is_empty() {
            self.m.clear();
        }
        match delivery {
            Delivery::None => 0,
            Delivery::All => {
                let delivered_n = self.inbox.len();
                for batch in self.inbox.take() {
                    for (r, rows) in batch.groups() {
                        self.m.insert_batch(r, rows);
                    }
                }
                delivered_n
            }
            // Reached only under a random schedule, whose coins tests and
            // experiments pin by seed: one coin per occurrence, the rows in
            // the order of the facts they stand for; the rest goes back.
            Delivery::Sample { seed, deliver_p } => {
                let mut rng = Rng::seed_from_u64(seed);
                self.order.extend(table);
                let batches = self.inbox.take();
                let buffered = batches.iter().flat_map(|batch| batch.rows());
                let (mut delivered_n, mut kept) = (0, Batch::default());
                for (r, row, count) in canonical_rows(buffered, table, &self.order, false) {
                    let kept_back = (0..count).filter(|_| !rng.gen_bool(deliver_p)).count();
                    delivered_n += count - kept_back;
                    if kept_back < count {
                        self.m.insert(r, row);
                    }
                    kept.push_n(r, row, kept_back);
                }
                if !kept.is_empty() {
                    self.inbox.push(Arc::new(kept));
                }
                delivered_n
            }
        }
    }

    /// One transition's share of this node: deliver per `delivery`,
    /// step, and — with tracing on — mint the id of what was sent and
    /// emit `trace/send` (id, causal parent, fan-out, fact count,
    /// per-class counts). A transition with `|m| = 0` is a heartbeat,
    /// whichever `delivery` asked for it. Counts `transitions`,
    /// `messages_delivered`, `heartbeats` and the sends per class,
    /// tracks output growth, and reports the `runtime/transition` event
    /// with per-class counter deltas to `obs`.
    pub fn step(
        &mut self,
        delivery: Delivery,
        metrics: &mut Metrics,
        obs: &Obs,
    ) -> NodeStepOutcome {
        let _span = obs.span_on("runtime", self.track, || "step".to_string());
        let symbols = self.symbols.clone();
        let table = &mut *symbols.write();
        let delivered_n = self.deliver(delivery, table);
        metrics.messages_delivered += delivered_n;
        if delivered_n == 0 {
            metrics.heartbeats += 1;
        } else if obs.enabled() {
            // What a sampled delivery kept back.
            let depth = self.inbox.len() as u64;
            obs.gauge("runtime", "queue_depth", self.track, depth);
        }
        let mut outcome = self.apply(table, delivered_n, metrics, obs);
        if obs.enabled() && !outcome.sent.is_empty() {
            let id = (self.origin(), self.next_seq);
            self.next_seq += 1;
            outcome.mid = Some(id);
            outcome.cause = self.last_arrival;
            let classes: Vec<(MessageClass, usize)> = (outcome.sent.groups())
                .map(|(r, rows)| (self.rels.info(r, self.transducer, table).class, rows.len()))
                .collect();
            obs.event("trace", "send", self.track, || {
                let mut args = vec![
                    ("origin", ArgValue::U64(id.0)),
                    ("seq", ArgValue::U64(id.1)),
                    ("fanout", ArgValue::U64(self.recipients as u64)),
                    ("facts", ArgValue::U64(outcome.sent.len() as u64)),
                ];
                if let Some((co, cs)) = outcome.cause {
                    args.push(("cause_origin", ArgValue::U64(co)));
                    args.push(("cause_seq", ArgValue::U64(cs)));
                }
                for (name, n) in class_arg_counts(classes.into_iter()) {
                    args.push((name, ArgValue::U64(n)));
                }
                args
            });
        }
        outcome
    }

    /// Grow `A` by the values of `M` (cold: build it from
    /// `N ∪ adom(H(x) ∪ s(x))` first) and `S` by what the new values
    /// add: `MyAdom(v)` and the `policy_R` tuples over `A` that contain
    /// one — `|A'|^k − |A|^k` policy questions, where
    /// `S` from scratch (`calm-spec`'s `system_facts`) asks `|A'|^k`. The new
    /// system rows go into `D` above its delta watermark. Returns the
    /// new values that `H(x) ∪ s(x)` does not hold (they came with a
    /// message). A model without policy relations has no use for `A`:
    /// `S` is `Id` and `All`.
    fn extend_system_facts(&mut self, table: &mut SymbolTable) -> SymSet {
        let mut from_messages = SymSet::default();
        if self.is_cold() {
            let network = self.policy.network();
            if self.sys.policy_relations {
                let held = self.d.rel_ids().filter_map(|r| self.d.relation(r));
                for &v in held.flat_map(|rel| rel.live_rows()).flatten() {
                    self.unseen.insert(v);
                }
                if self.sys.include_all {
                    for y in network.nodes() {
                        self.unseen.insert(table.sym(y));
                    }
                } else {
                    self.unseen.insert(table.sym(&self.node));
                }
            }
            if self.sys.include_id {
                self.d.insert(self.rels.id, &[table.sym(&self.node)]);
            }
            if self.sys.include_all {
                for y in network.nodes() {
                    self.d.insert(self.rels.all, &[table.sym(y)]);
                }
            }
        }
        if self.sys.policy_relations {
            let mut fresh = SymSet::default();
            for &v in self.unseen.as_slice() {
                if !self.known.contains(v) {
                    fresh.insert(v);
                }
            }
            self.unseen.clear();
            let delivered = self.m.rel_ids().filter_map(|r| self.m.relation(r));
            for &v in delivered.flat_map(|rel| rel.live_rows()).flatten() {
                if !self.known.contains(v) && !fresh.contains(v) {
                    from_messages.insert(v);
                }
            }
            for &v in from_messages.as_slice() {
                fresh.insert(v);
            }
            self.policy_facts_over(fresh.as_slice(), table);
            for &v in fresh.as_slice() {
                self.known.insert(v);
            }
        }
        from_messages
    }

    /// `MyAdom(v)` for every value of `fresh`, and `policy_R(ā)` for
    /// every tuple `ā` over `A ∪ fresh` that holds one and is this
    /// node's under the policy. The tuples are enumerated as symbols;
    /// one fact per input relation is un-interned into for the question.
    fn policy_facts_over(&mut self, fresh: &[Sym], table: &SymbolTable) {
        for &v in fresh {
            self.d.insert(self.rels.my_adom, &[v]);
        }
        for (candidate, arity, policy_r) in &mut self.rels.policy {
            assert!(
                *arity <= POLICY_ARITY_CAP,
                "policy relation enumeration capped at arity {POLICY_ARITY_CAP} (got {arity} for {})",
                candidate.relation()
            );
            for_each_new_tuple(self.known.as_slice(), fresh, *arity, |tuple| {
                for (arg, &s) in candidate.args_mut().iter_mut().zip(tuple) {
                    arg.clone_from(table.value(s));
                }
                if self.policy.assigns_to(candidate, &self.node) {
                    self.d.insert(*policy_r, tuple);
                }
            });
        }
    }

    /// Read back what the program wrote into the state: the rows above
    /// the delta watermark of the relations of `Υout ∪ Υmem`, and
    /// whether a row was retracted. The values of a new row are struck
    /// from `unstored` (the message values still waiting to be stored)
    /// and, when `A` does not cover them, queued for the next
    /// transition.
    fn read_back(&mut self, table: &SymbolTable, unstored: &mut SymSet, trace: bool) -> Folded {
        let deleted = self.d.any_dead();
        let mut folded = Folded {
            state_changed: deleted,
            deleted,
            ..Folded::default()
        };
        let mut new_output = Vec::new();
        for r in self.d.rel_ids() {
            let info = self.rels.info(r, self.transducer, table);
            let relation = self.d.relation(r).expect("a listed relation");
            if !info.state {
                continue;
            }
            for id in relation.added_ids() {
                let row = relation.row(id);
                folded.state_changed = true;
                folded.grew_output |= info.output;
                if self.sys.policy_relations {
                    for &v in row {
                        unstored.remove(v);
                        if !self.known.contains(v) {
                            self.unseen.insert(v);
                        }
                    }
                }
                if trace && info.output {
                    new_output.push(fact_of(table, r, row));
                }
            }
        }
        new_output.sort();
        folded.new_output = new_output.iter().map(Fact::to_string).collect();
        folded
    }

    /// The step proper, after the delivery: `self.m` holds the collapsed
    /// set `M`, `delivered_occurrences` is `|m|` (for the observability
    /// event; [`NodeEngine::step`] has counted it).
    fn apply(
        &mut self,
        table: &mut SymbolTable,
        delivered_occurrences: usize,
        metrics: &mut Metrics,
        obs: &Obs,
    ) -> NodeStepOutcome {
        metrics.transitions += 1;

        // S, for J = H(x) ∪ s(x) ∪ M.
        let cold = self.is_cold();
        self.d.mark_deltas();
        let before = self.d.len();
        let mut unstored = self.extend_system_facts(table);
        if obs.enabled() {
            if cold {
                obs.counter("runtime", "engine.cold_starts", 1);
            }
            let handed = self.d.len() - if cold { 0 } else { before } + self.m.len();
            obs.histogram("runtime", "step.new_facts", handed as u64);
        }

        // The four queries: the program writes Qout and Qins into D,
        // retracts Qdel, stages Qsnd.
        let transducer = self.transducer;
        let program = (self.program).get_or_insert_with(|| transducer.open(table));
        let mut sent = Batch::default();
        let system = &self.rels.system;
        let mut view = NodeView::new(table, &mut self.d, system, &self.m, &mut sent);
        metrics.eval.merge(&program.advance(&mut view));
        let folded = self.read_back(table, &mut unstored, obs.enabled());
        // Sends count once per (row, recipient), by the row's class.
        let mut by_class = MessageClassCounts::default();
        for (r, rows) in sent.groups() {
            let class = self.rels.info(r, self.transducer, table).class;
            by_class.record(class, rows.len() * self.recipients);
        }
        metrics.by_class.merge(&by_class);
        let sent_n = sent.len() * self.recipients;
        metrics.messages_sent += sent_n;

        // A deletion may have taken values out of adom(s), and a message
        // value that was not stored leaves A with the message: either
        // way A and S (and what the program remembers) may now be too
        // large. Start over from (H(x), s(x)).
        if folded.deleted || !unstored.is_empty() {
            self.cool(table);
        }

        // Output growth bookkeeping (transition index is 1-based and was
        // incremented above).
        if folded.grew_output {
            if metrics.first_output_at.is_none() {
                metrics.first_output_at = Some(metrics.transitions);
            }
            metrics.last_output_growth_at = Some(metrics.transitions);
        }

        if obs.enabled() {
            obs.event("runtime", "transition", self.track, || {
                vec![
                    ("node", ArgValue::Str(self.node.to_string())),
                    ("delivered", ArgValue::U64(delivered_occurrences as u64)),
                    ("sent", ArgValue::U64(sent_n as u64)),
                    ("state_changed", ArgValue::Bool(folded.state_changed)),
                    ("new_output", ArgValue::List(folded.new_output)),
                ]
            });
            if delivered_occurrences > 0 {
                obs.counter(
                    "runtime",
                    "messages.delivered",
                    delivered_occurrences as u64,
                );
                obs.histogram("runtime", "delivered_batch", delivered_occurrences as u64);
            }
            if sent_n > 0 {
                obs.counter("runtime", "messages.sent", sent_n as u64);
                for (label, n) in by_class.as_pairs().into_iter().filter(|&(_, n)| n > 0) {
                    obs.counter("strategy", &format!("messages.{label}"), n as u64);
                }
            }
        }

        NodeStepOutcome {
            delivered: delivered_occurrences,
            state_changed: folded.state_changed,
            grew_output: folded.grew_output,
            sent: Arc::new(sent),
            mid: None,
            cause: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiset::Multiset;
    use crate::network::Network;
    use crate::policy::{distribute, DomainGuidedPolicy, HashPolicy};
    use crate::rows::input_batches;
    use crate::runtime::Metrics;
    use crate::strategy::MonotoneBroadcast;
    use calm_common::fact::fact;
    use calm_common::instance::Instance;
    use calm_common::storage::{store_to_instance, SharedSymbols};
    use calm_queries::tc::tc_datalog;
    use std::collections::BTreeSet;

    /// `s(x)` of `engine`, as facts.
    fn state_of(engine: &NodeEngine<'_>) -> Instance {
        store_to_instance(&engine.checkpoint().0, &engine.symbols)
    }

    /// `D` of `engine` between transitions, as facts.
    fn visible_of(engine: &NodeEngine<'_>) -> Instance {
        store_to_instance(engine.rows(), &engine.symbols)
    }

    /// `b(x)` of `engine`, as facts.
    fn pending_of(engine: &NodeEngine<'_>) -> Multiset<Fact> {
        engine.inbox.to_multiset(&engine.symbols.read())
    }

    /// Node `x` of `t` holding `input` as `H(x)`, over a table of its
    /// own: the instance interned at the edge, as `transition` does.
    fn new_node<'a>(
        t: &'a dyn Transducer,
        policy: &'a dyn DistributionPolicy,
        sys: SystemConfig,
        x: NodeId,
        input: &Instance,
    ) -> NodeEngine<'a> {
        let symbols = SharedSymbols::new();
        let h = Batch::of_facts(&input.facts().collect(), &mut symbols.write());
        NodeEngine::new(t, policy, sys, x, &h, &symbols)
    }

    /// A heartbeat: the node steps on what it holds.
    fn beat(engine: &mut NodeEngine<'_>, metrics: &mut Metrics) -> NodeStepOutcome {
        engine.step(Delivery::None, metrics, &Obs::noop())
    }

    /// `facts` as one send — each once — over `engine`'s table.
    fn send(engine: &NodeEngine<'_>, facts: &[Fact]) -> Arc<Batch> {
        let facts: Multiset<Fact> = facts.iter().cloned().collect();
        Arc::new(Batch::of_facts(&facts, &mut engine.symbols.write()))
    }

    /// Enqueue `facts` as one send and deliver everything.
    fn hand(engine: &mut NodeEngine<'_>, facts: &[Fact], metrics: &mut Metrics) -> NodeStepOutcome {
        engine.enqueue(&send(engine, facts), None, metrics, &Obs::noop());
        engine.step(Delivery::All, metrics, &Obs::noop())
    }

    #[test]
    fn apply_counts_sends_per_recipient() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.first().clone();
        let mut engine = new_node(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let mut metrics = Metrics::default();
        let outcome = beat(&mut engine, &mut metrics);
        assert!(outcome.state_changed);
        assert!(outcome.grew_output);
        // One broadcast fact, two other nodes.
        assert_eq!(outcome.sent.len(), 1);
        assert_eq!(metrics.messages_sent, 2);
        assert_eq!(metrics.by_class.fact, 2);
        assert_eq!(metrics.transitions, 1);
        assert_eq!(metrics.first_output_at, Some(1));
    }

    #[test]
    fn apply_reaches_local_fixpoint() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(2);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let x = net.first().clone();
        let mut engine = new_node(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let mut metrics = Metrics::default();
        let first = beat(&mut engine, &mut metrics);
        assert!(first.state_changed);
        // Repeating with no new deliveries converges: the second step
        // changes nothing and sends nothing (the strategy remembers what
        // it broadcast).
        let second = beat(&mut engine, &mut metrics);
        assert!(!second.state_changed);
        assert!(second.sent.is_empty());
    }

    #[test]
    fn track_is_one_plus_node_index() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        for (i, n) in net.nodes().enumerate() {
            let sys = SystemConfig::ORIGINAL;
            let engine = new_node(&t, &policy, sys, n.clone(), &Instance::new());
            assert_eq!(engine.track, i as u32 + 1);
        }
    }

    #[test]
    fn a_node_born_of_rows_holds_what_distribute_assigns_it() {
        // `H(x)` from the one walk over `I`, against `dist_P(I)(x)`: the
        // batch is the node's share, replicas included, and the node
        // holds it less the facts named like its state — as a node
        // holds the specification's `Instance` interned at the edge.
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let replicated = [Value::str("n1"), Value::str("n3")];
        let nodes: Vec<&NodeId> = net.nodes().collect();
        let two_replicas = (0..10).fold(DomainGuidedPolicy::new(net.clone()), |p, k| {
            let pair = [nodes[k % 3].clone(), nodes[(k + 1) % 3].clone()];
            p.with_value_assignment(Value::Int(k as i64), pair)
        });
        let policies: [(&str, Box<dyn DistributionPolicy>); 3] = [
            ("hash", Box::new(HashPolicy::new(net.clone()))),
            (
                "domain-guided, 2 on two nodes",
                Box::new(
                    DomainGuidedPolicy::new(net.clone())
                        .with_value_assignment(Value::Int(2), replicated),
                ),
            ),
            ("two replicas", Box::new(two_replicas)),
        ];
        // A path, a second arity, a string, and the memory and output
        // relations of the strategy (`c_E`, `out_T`) among the input.
        let mut input = calm_common::generator::path(8);
        let more = [
            fact("E", [2, 3, 4]),
            fact("c_E", [1, 9]),
            fact("out_T", [5, 2]),
        ];
        input.extend(more.into_iter().chain([fact("Other", ["a"])]));
        let schema = t.schema();
        for (name, policy) in &policies {
            let dist = distribute(policy.as_ref(), &input);
            let symbols = SharedSymbols::new();
            let batches = input_batches(policy.as_ref(), &input, &mut symbols.write());
            let (mut held, mut dropped) = (0, 0);
            for (x, h) in net.nodes().zip(&batches) {
                let mut facts = Multiset::new();
                h.add_to(&symbols.read(), &mut facts);
                let want: Multiset<Fact> = dist[x].facts().collect();
                assert_eq!(facts, want, "{name}: H({x}) in rows");
                let sys = SystemConfig::POLICY_AWARE;
                let mut born = NodeEngine::new(&t, policy.as_ref(), sys, x.clone(), h, &symbols);
                let mut edge = new_node(&t, policy.as_ref(), sys, x.clone(), &dist[x]);
                let mut without_state = dist[x].clone();
                without_state.retain_relations(|r| !is_state(schema, r));
                assert_eq!(visible_of(&born), without_state, "{name}: {x}");
                assert_eq!(visible_of(&born), visible_of(&edge), "{name}: {x}");
                let mut metrics = Metrics::default();
                beat(&mut born, &mut metrics);
                beat(&mut edge, &mut metrics);
                assert_eq!(visible_of(&born), visible_of(&edge), "{name}: {x}, stepped");
                held += h.len();
                dropped += dist[x].len() - without_state.len();
            }
            assert!(dropped > 0, "{name}: a state-named fact was assigned");
            let replicates = !name.starts_with("hash");
            assert_eq!(held > input.len(), replicates, "{name}: {held} rows");
        }
    }

    #[test]
    fn a_warm_engine_is_its_state_and_restore_cools_it() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(2);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.first().clone();
        let sys = SystemConfig::POLICY_AWARE;
        let mut engine = new_node(&t, &policy, sys, x.clone(), &input);
        assert!(engine.is_cold());
        assert!(state_of(&engine).is_empty());
        let mut metrics = Metrics::default();
        beat(&mut engine, &mut metrics);
        assert!(!engine.is_cold());
        // D holds the input and S beside the state; the state is the
        // part over Υout ∪ Υmem.
        let state = state_of(&engine);
        assert!(visible_of(&engine).contains(&fact("E", [1, 2])));
        assert_eq!(visible_of(&engine).relation_len("MyAdom"), 4);
        assert!(state.contains(&fact("c_E", [1, 2])));
        assert!(state.contains(&fact("out_T", [1, 2])));
        assert_eq!(state.len(), 3, "c_E, s_E, out_T: {state:?}");
        // A delivered fact whose values are all stored keeps it warm.
        let m = [fact("m_E", [2, 3])];
        let outcome = hand(&mut engine, &m, &mut metrics);
        assert!(outcome.grew_output && !engine.is_cold());
        assert!(
            !visible_of(&engine).contains(&m[0]),
            "M leaves D with the step"
        );
        assert_eq!(visible_of(&engine).relation_len("MyAdom"), 5);
        // Restoring a state — even its own — starts over.
        let (state, rows) = (state_of(&engine), engine.checkpoint().0);
        assert_eq!(rows.len(), state.len());
        engine.restore(&rows, &[]);
        assert!(engine.is_cold());
        assert_eq!(visible_of(&engine).relation_len("MyAdom"), 0);
        let again = beat(&mut engine, &mut metrics);
        assert!(!again.state_changed && again.sent.is_empty());
        assert_eq!(state_of(&engine), state);
    }

    #[test]
    fn a_transition_that_delivers_nothing_is_a_heartbeat_whatever_asked_for_it() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let x = policy.network().first().clone();
        let mut node = new_node(&t, &policy, SystemConfig::ORIGINAL, x, &Instance::new());
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        // Everything, of an empty buffer: |m| = 0.
        assert_eq!(node.step(Delivery::All, &mut m, &obs).delivered, 0);
        assert_eq!(m.heartbeats, 1);
        // Everything, of a buffer that holds something: not a heartbeat.
        node.enqueue(&send(&node, &[fact("m_E", [1, 2])]), None, &mut m, &obs);
        assert_eq!(node.step(Delivery::All, &mut m, &obs).delivered, 1);
        assert_eq!((m.heartbeats, m.messages_delivered), (1, 1));
        // A sample that keeps every occurrence back.
        node.enqueue(&send(&node, &[fact("m_E", [2, 3])]), None, &mut m, &obs);
        let kept = Delivery::Sample {
            seed: 5,
            deliver_p: 0.0,
        };
        assert_eq!(node.step(kept, &mut m, &obs).delivered, 0);
        assert_eq!((m.heartbeats, node.buffered()), (2, 1));
        // And the heartbeat the schedule names.
        node.step(Delivery::None, &mut m, &obs);
        assert_eq!((m.heartbeats, m.transitions), (3, 4));
        assert_eq!(m.messages_delivered, 1);
    }

    #[test]
    fn a_sample_delivers_some_occurrences_and_returns_the_rest_to_the_buffer() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let x = policy.network().first().clone();
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        let facts: Vec<Fact> = (0..40).map(|i| fact("m_E", [i, i + 1])).collect();
        let mut split = false;
        for seed in 0..8 {
            let sys = SystemConfig::ORIGINAL;
            let mut node = new_node(&t, &policy, sys, x.clone(), &Instance::new());
            // Two sends of the same facts: two occurrences of each.
            let sent = send(&node, &facts);
            node.enqueue(&sent, None, &mut m, &obs);
            node.enqueue(&sent, None, &mut m, &obs);
            let before = m.messages_delivered;
            let outcome = node.step(Delivery::sample(seed), &mut m, &obs);
            assert_eq!(m.messages_delivered - before, outcome.delivered);
            assert_eq!(outcome.delivered + node.buffered(), 80, "seed {seed}");
            assert!(pending_of(&node).support().all(|f| facts.contains(f)));
            assert!(pending_of(&node).iter().all(|(_, n)| n <= 2));
            split |= outcome.delivered > 0 && node.buffered() > 0;
            // M is m collapsed: what was delivered is stored once.
            let stored = state_of(&node).relation_len("c_E");
            assert!(
                stored <= 40 && stored * 2 >= outcome.delivered,
                "seed {seed}"
            );
            // The rest is still there for a full delivery.
            let rest = node.step(Delivery::All, &mut m, &obs);
            assert_eq!(outcome.delivered + rest.delivered, 80, "seed {seed}");
            assert_eq!(state_of(&node).relation_len("c_E"), 40);
        }
        assert!(split, "p = 0.6 over 80 occurrences splits the buffer");
    }

    /// The sampled delivery as the node made it while it drew over a
    /// `Multiset<Fact>`: one coin per occurrence, the facts in order.
    /// Returns `|m|`, `M` and what is kept back.
    fn sample_by_facts(
        buffer: Multiset<Fact>,
        seed: u64,
        deliver_p: f64,
    ) -> (usize, BTreeSet<Fact>, Multiset<Fact>) {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut delivered_n, mut delivered, mut kept) = (0, BTreeSet::new(), Multiset::new());
        for (f, count) in buffer.iter() {
            let kept_back = (0..count).filter(|_| !rng.gen_bool(deliver_p)).count();
            delivered_n += count - kept_back;
            if kept_back < count {
                delivered.insert(f.clone());
            }
            kept.insert_n(f.clone(), kept_back);
        }
        (delivered_n, delivered, kept)
    }

    /// One to four batches over `table`: `m_E` and `n_E` rows of arities
    /// 1–3 over negative ints and strings that read like them, counts up
    /// to 3, and from the second batch on the first row of the batch
    /// before once more. With the number of rows repeated so.
    fn random_inbox(rng: &mut Rng, table: &mut SymbolTable) -> (Vec<Arc<Batch>>, usize) {
        let (mut batches, mut repeated) = (Vec::<Arc<Batch>>::new(), 0);
        for _ in 0..rng.gen_range(1..5usize) {
            let mut batch = Batch::default();
            if let Some((r, row, _)) = batches.last().and_then(|b| b.rows().next()) {
                batch.push(r, row);
                repeated += 1;
            }
            for _ in 0..rng.gen_range(0..6usize) {
                let row: Vec<Sym> = (0..rng.gen_range(1..4usize))
                    .map(|_| match rng.gen_range(0..2u32) {
                        0 => table.sym(&Value::Int(rng.gen_range(0..7i64) - 3)),
                        _ => table.sym(&Value::str(rng.choose(&["", "a", "-1", "2"]).unwrap())),
                    })
                    .collect();
                let r = table.rel(rng.choose(&["m_E", "n_E"]).unwrap());
                batch.push_n(r, &row, rng.gen_range(1..4usize));
            }
            batches.push(Arc::new(batch));
        }
        (batches, repeated)
    }

    #[test]
    fn a_sampled_delivery_over_rows_flips_the_coins_of_the_multiset_arm() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(3));
        let x = policy.network().first().clone();
        let sys = SystemConfig::ORIGINAL;
        let mut rng = Rng::seed_from_u64(0x5a_4d1e);
        let mut node = new_node(&t, &policy, sys, x.clone(), &Instance::new());
        let (mut repeated, mut counted, mut two_arities, mut split) = (0, 0, 0, 0);
        for case in 0..400 {
            // One node over eight inboxes: its order is extended, not
            // rebuilt, as the table grows under it.
            if case % 8 == 0 {
                node = new_node(&t, &policy, sys, x.clone(), &Instance::new());
            }
            let symbols = node.symbols.clone();
            let (inbox, shared) = random_inbox(&mut rng, &mut symbols.write());
            let seed = rng.gen_u64();
            node.restore(&Storage::new(), &inbox);
            let buffer = pending_of(&node);
            repeated += shared;
            counted += buffer.iter().filter(|&(_, n)| n > 1).count();
            let arities: BTreeSet<(&str, usize)> = buffer
                .support()
                .map(|f| (&**f.relation(), f.arity()))
                .collect();
            two_arities +=
                arities.len() - arities.iter().map(|a| a.0).collect::<BTreeSet<_>>().len();
            for deliver_p in [0.0, 0.3, 0.6, 1.0] {
                node.restore(&Storage::new(), &inbox);
                let (n, m, kept) = sample_by_facts(buffer.clone(), seed, deliver_p);
                let sample = Delivery::Sample { seed, deliver_p };
                let at = format!("case {case}, p = {deliver_p}: {buffer:?}");
                assert_eq!(node.deliver(sample, &symbols.read()), n, "{at}: |m|");
                let table = &*symbols.read();
                let rows = node
                    .m
                    .rel_ids()
                    .filter_map(|r| Some((r, node.m.relation(r)?)));
                let rows = rows.flat_map(|(r, rel)| rel.live_rows().map(move |row| (r, row)));
                let delivered: BTreeSet<Fact> =
                    rows.map(|(r, row)| fact_of(table, r, row)).collect();
                assert_eq!(delivered, m, "{at}: M");
                assert_eq!(pending_of(&node), kept, "{at}: kept back");
                split += usize::from(n > 0 && !kept.is_empty());
            }
        }
        assert!(
            repeated > 300 && counted > 300 && two_arities > 300 && split > 300,
            "{repeated} repeated, {counted} counted, {two_arities} two arities, {split} split"
        );
    }

    #[test]
    fn the_high_water_mark_is_the_deepest_the_buffer_ever_was_by_either_door() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let x = policy.network().first().clone();
        let sys = SystemConfig::ORIGINAL;
        let mut node = new_node(&t, &policy, sys, x.clone(), &Instance::new());
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        let hw = |m: &Metrics| m.buffered_high_water.get(&x).copied();
        node.enqueue(&send(&node, &[]), None, &mut m, &obs);
        assert_eq!(hw(&m), None, "an empty send is no arrival");
        let two = send(&node, &[fact("m_E", [1, 2]), fact("m_E", [2, 3])]);
        node.enqueue(&two, None, &mut m, &obs);
        assert_eq!(hw(&m), Some(2));
        // A wire batch: three occurrences of one fact, one of another.
        let mut batch = Multiset::new();
        batch.insert_n(fact("m_E", [1, 2]), 3);
        batch.insert(fact("m_E", [4, 5]));
        let batch = Arc::new(Batch::of_facts(&batch, &mut node.symbols.write()));
        node.enqueue(&batch, None, &mut m, &obs);
        assert_eq!((hw(&m), node.buffered()), (Some(6), 6));
        // Draining does not lower it, and a shallower refill does not
        // raise it.
        assert_eq!(node.step(Delivery::All, &mut m, &obs).delivered, 6);
        node.enqueue(&send(&node, &[fact("m_E", [7, 8])]), None, &mut m, &obs);
        assert_eq!((hw(&m), node.buffered()), (Some(6), 1));
        assert_eq!(m.max_queue_depth(), 6);
    }
}
