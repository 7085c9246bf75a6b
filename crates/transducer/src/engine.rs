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
//!   delivery and the heartbeat, applies the four queries, folds
//!   `out`/`ins`/`del` into the state and — with tracing on — mints the
//!   send's causal id;
//! * [`NodeEngine::enqueue`] / [`NodeEngine::enqueue_batch`] put a send
//!   into `b(x)` with one accounting (high-water mark, gauge,
//!   `trace/deliver`, causal parent).
//!
//! What is left to an engine is scheduling and carrying what a step
//! sent to the other nodes' doors, so the equivalence tests compare
//! engines that differ *only* in that.
//!
//! The engine *is* the node: it keeps `D` (without `M`) across
//! transitions, so a transition costs what it delivers, not what the
//! node already knows. A **warm** engine holds `D = H(x) ∪ s(x) ∪ S`,
//! the value set `A` that `S` was built over, and the node's open
//! [`NodeProgram`]; a transition extends `S` by the values that are new
//! and folds only new facts. A **cold** engine holds `H(x) ∪ s(x)` and
//! nothing else — the state after [`NodeEngine::new`] and
//! [`NodeEngine::restore`], so everything warm is reconstructible from
//! `(H(x), s(x))` — and its next transition builds `A`, `S` and the
//! program from scratch through the same code, with every value new.
//! The engine cools itself whenever a transition might have *shrunk*
//! `A` or the memory: a deletion took effect, or a value seen only in a
//! delivered message was not stored.

use crate::multiset::Multiset;
use crate::network::NodeId;
use crate::policy::DistributionPolicy;
use crate::runtime::{Delivery, Metrics};
use crate::schema::{policy_relation, SystemConfig, TransducerSchema};
use crate::strategy::{class_arg_counts, classify_message};
use crate::system_facts::{for_each_new_tuple, POLICY_ARITY_CAP};
use crate::transducer::{NodeProgram, NodeView, Transducer, TransducerStep};
use calm_common::fact::{rel, Fact};
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::value::Value;
use calm_obs::{ArgValue, Obs};
use std::collections::BTreeSet;

/// One node of a transducer network: its state `s(x)`, its buffer
/// `b(x)`, and the step between them. Construct once per node, feed it
/// through [`NodeEngine::enqueue`] and call [`NodeEngine::step`] per
/// transition.
pub struct NodeEngine<'a> {
    transducer: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    sys: SystemConfig,
    node: NodeId,
    /// `H(x)` — the node's fragment of the distributed input.
    input: &'a Instance,
    /// Obs display lane: `1 + <node index>` (track 0 is engine-level).
    /// The index is also the origin of the message ids the node mints.
    track: u32,
    /// `|N| - 1`: every sent fact is enqueued once per other node.
    recipients: usize,
    /// `H(x) ∪ s(x)`, plus `S` while warm. The node state `s(x)` is the
    /// part over the relations of `Υout ∪ Υmem` — it is stored nowhere
    /// else.
    d: Instance,
    /// `A`, the values `S` covers; empty while cold.
    known: BTreeSet<Value>,
    /// Values that entered the state after `S` was last extended (a
    /// constant of a rule head, say): they join `A` at the next
    /// transition, as they would in `adom(J)` computed from scratch.
    unseen: BTreeSet<Value>,
    /// The node's program; `None` while cold.
    program: Option<Box<dyn NodeProgram + 'a>>,
    /// `b(x)` — sent to this node and not yet delivered.
    inbox: Multiset<Fact>,
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
    /// `Qsnd(D)` — message facts, each to be enqueued at every other
    /// node (already counted in the metrics; the caller only routes).
    pub sent: Vec<Fact>,
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

impl<'a> NodeEngine<'a> {
    /// The node `node` with input fragment `input` (`H(x)`, its share of
    /// `dist_P(I)`), in the start configuration: empty state, cold.
    pub fn new(
        transducer: &'a dyn Transducer,
        policy: &'a dyn DistributionPolicy,
        sys: SystemConfig,
        node: NodeId,
        input: &'a Instance,
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
            input,
            track,
            recipients,
            d: Instance::new(),
            known: BTreeSet::new(),
            unseen: BTreeSet::new(),
            program: None,
            inbox: Multiset::new(),
            next_seq: 0,
            last_arrival: None,
        };
        engine.cool(Instance::new());
        engine
    }

    /// Make `(state, inbox)` the node's `(s(x), b(x))` and go cold: the
    /// one way a state enters a node — from a configuration, from a
    /// checkpoint. The ids the node mints are not part of it.
    pub fn restore(&mut self, state: Instance, inbox: Multiset<Fact>) {
        self.cool(state);
        self.inbox = inbox;
    }

    /// Rebuild `D` as `H(x) ∪ state` and forget everything warm — at
    /// construction, on [`NodeEngine::restore`], and when the engine
    /// cools itself. Input facts named like an output or memory
    /// relation are left out of `D`: `H(x)` is over `Υin`, and the state
    /// is told from the rest of `D` by relation name.
    fn cool(&mut self, state: Instance) {
        let schema = self.transducer.schema();
        self.d = self.input.clone();
        self.d.retain_relations(|r| !is_state(schema, r));
        self.d.extend(state);
        self.known.clear();
        self.unseen.clear();
        self.program = None;
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

    /// A copy of the node's state `s(x)` (for a checkpoint).
    pub fn state(&self) -> Instance {
        let schema = self.transducer.schema();
        let mut state = self.d.clone();
        state.retain_relations(|r| is_state(schema, r));
        state
    }

    /// The node taken apart: `(s(x), b(x))`, by move.
    pub fn into_parts(mut self) -> (Instance, Multiset<Fact>) {
        (self.take_state(), self.inbox)
    }

    /// `b(x)` as it stands (for a checkpoint, and for the engines'
    /// passivity and quiescence tests).
    pub fn inbox(&self) -> &Multiset<Fact> {
        &self.inbox
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

    /// Enqueue one send — the slice a sender's step returned, one
    /// occurrence of each fact — into `b(x)`. `mid` is the send's id
    /// when it was traced.
    pub fn enqueue(
        &mut self,
        sent: &[Fact],
        mid: Option<(u64, u64)>,
        metrics: &mut Metrics,
        obs: &Obs,
    ) {
        self.inbox.extend(sent.iter().cloned());
        self.note_arrival(sent.len(), mid, metrics, obs);
    }

    /// As [`NodeEngine::enqueue`], for the multiset a wire batch
    /// decoded into.
    pub fn enqueue_batch(
        &mut self,
        batch: Multiset<Fact>,
        mid: Option<(u64, u64)>,
        metrics: &mut Metrics,
        obs: &Obs,
    ) {
        let n = batch.len();
        self.inbox.extend_from(batch);
        self.note_arrival(n, mid, metrics, obs);
    }

    /// The accounting behind both doors, for `n` occurrences that just
    /// went into the inbox: the high-water mark, the `queue_depth`
    /// gauge, and for a traced send the `trace/deliver` event and the
    /// causal parent of this node's next send.
    fn note_arrival(
        &mut self,
        n: usize,
        mid: Option<(u64, u64)>,
        metrics: &mut Metrics,
        obs: &Obs,
    ) {
        if n == 0 {
            return;
        }
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
    /// out of the inbox and collapse it to the set `M`. Returns `M` and
    /// `|m|`.
    fn deliver(&mut self, delivery: Delivery) -> (Vec<Fact>, usize) {
        let mut delivered_n = 0usize;
        let delivered = match delivery {
            Delivery::All => self
                .inbox
                .drain_all()
                .map(|(f, count)| {
                    delivered_n += count;
                    f
                })
                .collect(),
            Delivery::None => Vec::new(),
            Delivery::Sample { seed, deliver_p } => {
                let mut rng = Rng::seed_from_u64(seed);
                let mut support = Vec::new();
                // `drain_all` empties the inbox, so kept-back occurrences
                // go straight back in.
                let drained: Vec<(Fact, usize)> = self.inbox.drain_all().collect();
                for (f, count) in drained {
                    let kept_back = (0..count).filter(|_| !rng.gen_bool(deliver_p)).count();
                    delivered_n += count - kept_back;
                    if kept_back < count {
                        support.push(f.clone());
                    }
                    self.inbox.insert_n(f, kept_back);
                }
                support
            }
        };
        (delivered, delivered_n)
    }

    /// One transition's share of this node: deliver per `delivery`,
    /// step, and — with tracing on — mint the id of what was sent and
    /// emit `trace/send` (id, causal parent, fan-out, fact count,
    /// per-class counts). A transition with `|m| = 0` is a heartbeat,
    /// whichever `delivery` asked for it. Counts `transitions`,
    /// `messages_delivered`, `heartbeats` and the sends per class,
    /// tracks output growth, and reports the `runtime/transition` event
    /// with per-class counter deltas to `obs`.
    ///
    /// `sent_filter`, when present, is this node's set of every message
    /// fact it ever sent: facts already in the set are suppressed (not
    /// returned, not counted), fresh facts are added. The threaded
    /// executor passes it so the message flow is finite and its
    /// termination-detection ring can conclude — sound for the same
    /// reason the sequential engine's quiescence detection is (states
    /// accumulate everything they react to, so a re-delivered fact is a
    /// no-op at every receiver). The sequential engine passes `None`:
    /// its delivered-set bookkeeping lives in [`crate::runtime::run`].
    pub fn step(
        &mut self,
        delivery: Delivery,
        sent_filter: Option<&mut BTreeSet<Fact>>,
        metrics: &mut Metrics,
        obs: &Obs,
    ) -> NodeStepOutcome {
        let _span = obs.span_on("runtime", self.track, || "step".to_string());
        let (delivered, delivered_n) = self.deliver(delivery);
        metrics.messages_delivered += delivered_n;
        if delivered_n == 0 {
            metrics.heartbeats += 1;
        } else if obs.enabled() {
            // What a sampled delivery kept back.
            let depth = self.inbox.len() as u64;
            obs.gauge("runtime", "queue_depth", self.track, depth);
        }
        let mut outcome = self.apply(&delivered, delivered_n, sent_filter, metrics, obs);
        if obs.enabled() && !outcome.sent.is_empty() {
            let id = (self.origin(), self.next_seq);
            self.next_seq += 1;
            outcome.mid = Some(id);
            outcome.cause = self.last_arrival;
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
                for (name, n) in class_arg_counts(&outcome.sent) {
                    args.push((name, ArgValue::U64(n)));
                }
                args
            });
        }
        outcome
    }

    fn take_state(&mut self) -> Instance {
        let schema = self.transducer.schema();
        let mut state = std::mem::take(&mut self.d);
        state.retain_relations(|r| is_state(schema, r));
        state
    }

    /// `D` as it stands between transitions: `H(x) ∪ s(x)`, and `S`
    /// while warm.
    pub fn visible(&self) -> &Instance {
        &self.d
    }

    /// Grow `A` by the values of `delivered` (cold: build it from
    /// `N ∪ adom(H(x) ∪ s(x))` first) and `S` by what the new values
    /// add: `MyAdom(v)` and the `policy_R` tuples over `A` that contain
    /// one — `|A'|^k − |A|^k` policy calls, where
    /// [`crate::system_facts::system_facts`] makes `|A'|^k`. Returns the
    /// system facts added, and the new values that `H(x) ∪ s(x)` does
    /// not hold (they came with a message). A model without policy
    /// relations has no use for `A`: `S` is `Id` and `All`.
    fn extend_system_facts(&mut self, delivered: &[Fact]) -> (Instance, BTreeSet<Value>) {
        let mut new_sys = Instance::new();
        let mut from_messages = BTreeSet::new();
        if self.is_cold() {
            let network = self.policy.network();
            if self.sys.include_id {
                new_sys.insert(Fact::new("Id", vec![self.node.clone()]));
            }
            if self.sys.include_all {
                new_sys.extend(network.nodes().map(|y| Fact::new("All", vec![y.clone()])));
            }
            if self.sys.policy_relations {
                if self.sys.include_all {
                    self.unseen.extend(network.nodes().cloned());
                } else {
                    self.unseen.insert(self.node.clone());
                }
                self.unseen.extend(self.d.adom());
            }
        }
        if self.sys.policy_relations {
            let mut fresh = std::mem::take(&mut self.unseen);
            fresh.retain(|v| !self.known.contains(v));
            for v in delivered.iter().flat_map(Fact::values) {
                if !self.known.contains(v) && !fresh.contains(v) {
                    from_messages.insert(v.clone());
                }
            }
            fresh.extend(from_messages.iter().cloned());
            self.policy_facts_over(&fresh, &mut new_sys);
            self.known.extend(fresh);
        }
        for (r, tuple) in new_sys.iter() {
            self.d.insert_tuple(r, tuple.clone());
        }
        (new_sys, from_messages)
    }

    /// `MyAdom(v)` for every value of `fresh`, and `policy_R(ā)` for
    /// every tuple `ā` over `A ∪ fresh` that holds one and is this
    /// node's under the policy.
    fn policy_facts_over(&self, fresh: &BTreeSet<Value>, new_sys: &mut Instance) {
        if fresh.is_empty() {
            return;
        }
        let my_adom = rel("MyAdom");
        for v in fresh {
            new_sys.insert_tuple(&my_adom, vec![v.clone()]);
        }
        let old: Vec<Value> = self.known.iter().cloned().collect();
        let new: Vec<Value> = fresh.iter().cloned().collect();
        for (r, arity) in self.transducer.schema().input.iter() {
            assert!(
                arity <= POLICY_ARITY_CAP,
                "policy relation enumeration capped at arity {POLICY_ARITY_CAP} (got {arity} for {r})"
            );
            let policy_r = rel(policy_relation(r));
            for_each_new_tuple(&old, &new, arity, |tuple| {
                let candidate = Fact::from_rel(r.clone(), tuple.to_vec());
                if self.policy.assign(&candidate).contains(&self.node) {
                    new_sys.insert_tuple(&policy_r, candidate.into_parts().1);
                }
            });
        }
    }

    /// Store a state fact and account for its values: they are struck
    /// from `unstored` (the message values still waiting to be stored)
    /// and, when `A` does not cover them, queued for the next
    /// transition. (For a fact already stored both are no-ops: its
    /// values went through here before.) Returns whether it was new.
    fn store(&mut self, f: Fact, unstored: &mut BTreeSet<Value>) -> bool {
        if self.sys.policy_relations {
            for v in f.values() {
                unstored.remove(v);
                if !self.known.contains(v) {
                    self.unseen.insert(v.clone());
                }
            }
        }
        self.d.insert(f)
    }

    /// The step proper, after the delivery: `delivered` is the collapsed
    /// set `M`, `delivered_occurrences` is `|m|` (for the observability
    /// event; [`NodeEngine::step`] has counted it).
    fn apply(
        &mut self,
        delivered: &[Fact],
        delivered_occurrences: usize,
        mut sent_filter: Option<&mut BTreeSet<Fact>>,
        metrics: &mut Metrics,
        obs: &Obs,
    ) -> NodeStepOutcome {
        metrics.transitions += 1;

        // S, for J = H(x) ∪ s(x) ∪ M.
        let cold = self.is_cold();
        let (new_sys, mut unstored) = self.extend_system_facts(delivered);
        if obs.enabled() {
            if cold {
                obs.counter("runtime", "engine.cold_starts", 1);
            }
            let handed = if cold { self.d.len() } else { new_sys.len() } + delivered.len();
            obs.histogram("runtime", "step.new_facts", handed as u64);
        }

        let transducer = self.transducer;
        let program = self.program.get_or_insert_with(|| transducer.open());
        let TransducerStep {
            out,
            ins,
            del,
            snd,
            metrics: eval,
        } = program.advance(&mut NodeView::new(&mut self.d, &new_sys, delivered));
        metrics.eval.merge(&eval);

        // Update state: cumulative output, insert/delete memory. Change
        // tracking is incremental (`store`/`remove` return whether they
        // had an effect) — no state snapshot.
        let schema = transducer.schema();
        let mut state_changed = false;
        let mut grew_output = false;
        let mut new_output: Vec<String> = Vec::new();
        for f in out {
            debug_assert!(schema.output.covers(&f), "Qout must target Υout: {f}");
            if obs.enabled() && !self.d.contains(&f) {
                new_output.push(f.to_string());
            }
            if self.store(f, &mut unstored) {
                state_changed = true;
                grew_output = true;
            }
        }
        // s' = (s ∪ (ins \ del)) \ (del \ ins).
        let mut deleted = false;
        let ins = if del.is_empty() {
            ins
        } else {
            for f in del.difference(&ins) {
                deleted |= self.d.remove(&f);
            }
            ins.difference(&del)
        };
        for f in ins {
            debug_assert!(schema.mem.covers(&f), "Qins must target Υmem: {f}");
            state_changed |= self.store(f, &mut unstored);
        }
        state_changed |= deleted;

        // Count the sends: one occurrence per (fact, recipient) pair.
        let mut sent = Vec::with_capacity(snd.len());
        let class_before = metrics.by_class;
        for f in snd {
            debug_assert!(schema.msg.covers(&f), "Qsnd must target Υmsg: {f}");
            if let Some(filter) = sent_filter.as_deref_mut() {
                if !filter.insert(f.clone()) {
                    continue;
                }
            }
            metrics
                .by_class
                .record(classify_message(&f), self.recipients);
            sent.push(f);
        }
        let sent_n = sent.len() * self.recipients;
        metrics.messages_sent += sent_n;

        // A deletion may have taken values out of adom(s), and a message
        // value that was not stored leaves A with the message: either
        // way A and S (and what the program remembers) may now be too
        // large. Start over from (H(x), s(x)).
        if deleted || !unstored.is_empty() {
            let state = self.take_state();
            self.cool(state);
        }

        // Output growth bookkeeping (transition index is 1-based and was
        // incremented above).
        if grew_output {
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
                    ("state_changed", ArgValue::Bool(state_changed)),
                    ("new_output", ArgValue::List(new_output)),
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
                for ((label, now), (_, was)) in metrics
                    .by_class
                    .as_pairs()
                    .iter()
                    .zip(class_before.as_pairs().iter())
                {
                    if now > was {
                        obs.counter("strategy", &format!("messages.{label}"), (now - was) as u64);
                    }
                }
            }
        }

        NodeStepOutcome {
            delivered: delivered_occurrences,
            state_changed,
            grew_output,
            sent,
            mid: None,
            cause: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::HashPolicy;
    use crate::runtime::Metrics;
    use crate::schema::TransducerSchema;
    use crate::strategy::MonotoneBroadcast;
    use crate::transducer::DatalogTransducer;
    use calm_common::fact::fact;
    use calm_common::schema::Schema;
    use calm_queries::tc::tc_datalog;

    /// A heartbeat: the node steps on what it holds.
    fn beat(engine: &mut NodeEngine<'_>, metrics: &mut Metrics) -> NodeStepOutcome {
        engine.step(Delivery::None, None, metrics, &Obs::noop())
    }

    /// Enqueue `facts` as one send and deliver everything.
    fn hand(engine: &mut NodeEngine<'_>, facts: &[Fact], metrics: &mut Metrics) -> NodeStepOutcome {
        engine.enqueue(facts, None, metrics, &Obs::noop());
        engine.step(Delivery::All, None, metrics, &Obs::noop())
    }

    #[test]
    fn apply_counts_sends_per_recipient() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.first().clone();
        let mut engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
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
        let mut engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
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
        let input = Instance::new();
        for (i, n) in net.nodes().enumerate() {
            let engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, n.clone(), &input);
            assert_eq!(engine.track, i as u32 + 1);
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
        let mut engine = NodeEngine::new(&t, &policy, sys, x.clone(), &input);
        assert!(engine.is_cold());
        assert!(engine.state().is_empty());
        let mut metrics = Metrics::default();
        beat(&mut engine, &mut metrics);
        assert!(!engine.is_cold());
        // D holds the input and S beside the state; the state is the
        // part over Υout ∪ Υmem.
        let state = engine.state();
        assert!(engine.visible().contains(&fact("E", [1, 2])));
        assert_eq!(engine.visible().relation_len("MyAdom"), 4);
        assert!(state.contains(&fact("c_E", [1, 2])));
        assert!(state.contains(&fact("out_T", [1, 2])));
        assert_eq!(state.len(), 3, "c_E, s_E, out_T: {state:?}");
        // A delivered fact whose values are all stored keeps it warm.
        let m = [fact("m_E", [2, 3])];
        let outcome = hand(&mut engine, &m, &mut metrics);
        assert!(outcome.grew_output && !engine.is_cold());
        assert!(
            !engine.visible().contains(&m[0]),
            "M leaves D with the step"
        );
        assert_eq!(engine.visible().relation_len("MyAdom"), 5);
        // Restoring a state — even its own — starts over.
        let state = engine.state();
        engine.restore(state.clone(), Multiset::new());
        assert!(engine.is_cold());
        assert_eq!(engine.visible().relation_len("MyAdom"), 0);
        let again = beat(&mut engine, &mut metrics);
        assert!(!again.state_changed && again.sent.is_empty());
        assert_eq!(engine.into_parts().0, state);
    }

    #[test]
    fn deletions_and_unstored_message_values_cool_the_engine() {
        let schema = || {
            TransducerSchema::new(
                Schema::from_pairs([("E", 2)]),
                Schema::from_pairs([("out_seen", 1)]),
                Schema::from_pairs([("msg_v", 1)]),
                Schema::from_pairs([("flag", 2)]),
            )
        };
        let net = Network::of_size(1);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.first().clone();
        let sys = SystemConfig::POLICY_AWARE;
        let mut metrics = Metrics::default();

        // A toggle deletes every other transition.
        let toggle = DatalogTransducer::parse(
            "toggle",
            schema(),
            "flag(x,y) :- E(x,y), not flag(x,y).\n\
             del_flag(x,y) :- E(x,y), flag(x,y).",
        )
        .unwrap();
        let mut engine = NodeEngine::new(&toggle, &policy, sys, x.clone(), &input);
        beat(&mut engine, &mut metrics);
        assert!(!engine.is_cold(), "an insertion keeps the engine warm");
        let off = beat(&mut engine, &mut metrics);
        assert!(off.state_changed && engine.is_cold() && engine.state().is_empty());

        // A program that stores nothing of a delivered value: A shrinks
        // back when the message leaves.
        let forgetful =
            DatalogTransducer::parse("forgetful", schema(), "out_seen(x) :- E(x,y).").unwrap();
        let mut engine = NodeEngine::new(&forgetful, &policy, sys, x.clone(), &input);
        beat(&mut engine, &mut metrics);
        assert!(!engine.is_cold());
        hand(&mut engine, &[fact("msg_v", [1])], &mut metrics);
        assert!(!engine.is_cold(), "1 is a value of H(x)");
        hand(&mut engine, &[fact("msg_v", [9])], &mut metrics);
        assert!(engine.is_cold(), "9 was seen in the message only");
    }

    #[test]
    fn a_transition_that_delivers_nothing_is_a_heartbeat_whatever_asked_for_it() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let input = Instance::new();
        let x = policy.network().first().clone();
        let mut node = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        // Everything, of an empty buffer: |m| = 0.
        assert_eq!(node.step(Delivery::All, None, &mut m, &obs).delivered, 0);
        assert_eq!(m.heartbeats, 1);
        // Everything, of a buffer that holds something: not a heartbeat.
        node.enqueue(&[fact("m_E", [1, 2])], None, &mut m, &obs);
        assert_eq!(node.step(Delivery::All, None, &mut m, &obs).delivered, 1);
        assert_eq!((m.heartbeats, m.messages_delivered), (1, 1));
        // A sample that keeps every occurrence back.
        node.enqueue(&[fact("m_E", [2, 3])], None, &mut m, &obs);
        let kept = Delivery::Sample {
            seed: 5,
            deliver_p: 0.0,
        };
        assert_eq!(node.step(kept, None, &mut m, &obs).delivered, 0);
        assert_eq!((m.heartbeats, node.inbox().len()), (2, 1));
        // And the heartbeat the schedule names.
        node.step(Delivery::None, None, &mut m, &obs);
        assert_eq!((m.heartbeats, m.transitions), (3, 4));
        assert_eq!(m.messages_delivered, 1);
    }

    #[test]
    fn a_sample_delivers_some_occurrences_and_returns_the_rest_to_the_buffer() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let input = Instance::new();
        let x = policy.network().first().clone();
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        let facts: Vec<Fact> = (0..40).map(|i| fact("m_E", [i, i + 1])).collect();
        let mut split = false;
        for seed in 0..8 {
            let mut node = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x.clone(), &input);
            // Two sends of the same facts: two occurrences of each.
            node.enqueue(&facts, None, &mut m, &obs);
            node.enqueue(&facts, None, &mut m, &obs);
            let before = m.messages_delivered;
            let outcome = node.step(Delivery::sample(seed), None, &mut m, &obs);
            assert_eq!(m.messages_delivered - before, outcome.delivered);
            assert_eq!(outcome.delivered + node.inbox().len(), 80, "seed {seed}");
            assert!(node.inbox().support().all(|f| facts.contains(f)));
            assert!(node.inbox().iter().all(|(_, n)| n <= 2));
            split |= outcome.delivered > 0 && !node.inbox().is_empty();
            // M is m collapsed: what was delivered is stored once.
            let stored = node.state().relation_len("c_E");
            assert!(
                stored <= 40 && stored * 2 >= outcome.delivered,
                "seed {seed}"
            );
            // The rest is still there for a full delivery.
            let rest = node.step(Delivery::All, None, &mut m, &obs);
            assert_eq!(outcome.delivered + rest.delivered, 80, "seed {seed}");
            assert_eq!(node.state().relation_len("c_E"), 40);
        }
        assert!(split, "p = 0.6 over 80 occurrences splits the buffer");
    }

    #[test]
    fn the_high_water_mark_is_the_deepest_the_buffer_ever_was_by_either_door() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let policy = HashPolicy::new(Network::of_size(2));
        let input = Instance::new();
        let x = policy.network().first().clone();
        let mut node = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x.clone(), &input);
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        let hw = |m: &Metrics| m.buffered_high_water.get(&x).copied();
        node.enqueue(&[], None, &mut m, &obs);
        assert_eq!(hw(&m), None, "an empty send is no arrival");
        node.enqueue(
            &[fact("m_E", [1, 2]), fact("m_E", [2, 3])],
            None,
            &mut m,
            &obs,
        );
        assert_eq!(hw(&m), Some(2));
        // A wire batch: three occurrences of one fact, one of another.
        let mut batch = Multiset::new();
        batch.insert_n(fact("m_E", [1, 2]), 3);
        batch.insert(fact("m_E", [4, 5]));
        node.enqueue_batch(batch, None, &mut m, &obs);
        assert_eq!((hw(&m), node.inbox().len()), (Some(6), 6));
        // Draining does not lower it, and a shallower refill does not
        // raise it.
        assert_eq!(node.step(Delivery::All, None, &mut m, &obs).delivered, 6);
        node.enqueue(&[fact("m_E", [7, 8])], None, &mut m, &obs);
        assert_eq!((hw(&m), node.inbox().len()), (Some(6), 1));
        assert_eq!(m.max_queue_depth(), 6);
    }

    #[test]
    fn a_traced_send_mints_increasing_ids_and_names_the_last_arrival_as_its_cause() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.nodes().nth(1).unwrap().clone();
        let mut node = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let mut m = Metrics::default();
        // Untraced: no id.
        let quiet = node.step(Delivery::None, None, &mut m, &Obs::noop());
        assert!(!quiet.sent.is_empty() && quiet.mid.is_none());
        let obs = Obs::new(std::sync::Arc::new(calm_obs::NoopSink));
        node.restore(Instance::new(), Multiset::new());
        let first = node.step(Delivery::None, None, &mut m, &obs);
        assert_eq!((first.mid, first.cause), (Some((1, 0)), None));
        node.enqueue(&[fact("m_E", [2, 3])], Some((0, 7)), &mut m, &obs);
        let second = node.step(Delivery::All, None, &mut m, &obs);
        assert_eq!((second.mid, second.cause), (Some((1, 1)), Some((0, 7))));
        // A restore does not hand an id out twice; a predecessor's
        // numbering can only push the next one up.
        node.restore(Instance::new(), Multiset::new());
        node.resume_ids_from(1);
        assert_eq!(node.next_seq(), 2);
        node.resume_ids_from(9);
        let third = node.step(Delivery::None, None, &mut m, &obs);
        assert_eq!(third.mid, Some((1, 9)));
    }
}
