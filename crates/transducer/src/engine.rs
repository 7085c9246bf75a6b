//! The node ([`NodeEngine`]) shared by every execution engine: the
//! sequential simulator ([`crate::runtime`]) and the threaded and
//! process executors (the `calm-net` crate).
//!
//! A transition of node `x` factors into two halves:
//!
//! 1. **delivery** — choose the submultiset `m ⊆ b(x)` and hand the
//!    collapsed set `M` to the node (engine-specific: the sequential
//!    simulator owns every buffer, the threaded executor owns per-node
//!    inboxes fed by channels);
//! 2. **the step itself** — expose `D = H(x) ∪ s(x) ∪ M ∪ S`, apply
//!    the four queries, fold `out`/`ins`/`del` into the node state, and
//!    emit the messages of `Qsnd` (engine-independent).
//!
//! [`NodeEngine::apply`] is half 2. It owns all the bookkeeping the
//! engines must agree on — per-class message counters, output-growth
//! indices, engine counters, and the per-transition observability
//! event — so the equivalence tests compare engines that differ *only*
//! in scheduling.
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

use crate::network::NodeId;
use crate::policy::DistributionPolicy;
use crate::schema::{policy_relation, SystemConfig, TransducerSchema};
use crate::strategy::classify_message;
use crate::system_facts::{for_each_new_tuple, POLICY_ARITY_CAP};
use crate::transducer::{NodeProgram, NodeView, Transducer, TransducerStep};
use calm_common::fact::{rel, Fact};
use calm_common::instance::Instance;
use calm_common::value::Value;
use calm_obs::{ArgValue, Obs};
use std::collections::BTreeSet;

/// One node of a transducer network: its state, and the step that
/// follows a delivery. Construct once per node and call
/// [`NodeEngine::apply`] per transition.
pub struct NodeEngine<'a> {
    transducer: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    sys: SystemConfig,
    node: NodeId,
    /// `H(x)` — the node's fragment of the distributed input.
    input: &'a Instance,
    /// Obs display lane: `1 + <node index>` (track 0 is engine-level).
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
}

/// What one [`NodeEngine::apply`] produced, for the caller to route.
#[derive(Debug, Clone, Default)]
pub struct NodeStepOutcome {
    /// Whether the node's state (output ∪ memory) changed.
    pub state_changed: bool,
    /// Whether the node's *output* portion grew.
    pub grew_output: bool,
    /// `Qsnd(D)` — message facts, each to be enqueued at every other
    /// node (already counted in the metrics; the caller only routes).
    pub sent: Vec<Fact>,
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
        };
        engine.restore(Instance::new());
        engine
    }

    /// The obs display lane (`1 + <node index>`).
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Make `state` the node's state `s(x)` and go cold: the one way a
    /// state enters an engine — at construction, from a snapshot, and
    /// when the engine cools itself. Input facts named like an output
    /// or memory relation are left out of `D`: `H(x)` is over `Υin`, and
    /// the state is told from the rest of `D` by relation name.
    pub fn restore(&mut self, state: Instance) {
        let schema = self.transducer.schema();
        self.d = self.input.clone();
        self.d.retain_relations(|r| !is_state(schema, r));
        self.d.extend(state);
        self.known.clear();
        self.unseen.clear();
        self.program = None;
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

    /// The node's state `s(x)`, by move.
    pub fn into_state(mut self) -> Instance {
        self.take_state()
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

    /// Execute the post-delivery half of one transition.
    ///
    /// `delivered` is the collapsed set `M` (distinct facts);
    /// `delivered_occurrences` is `|m|`, the multiset occurrences the
    /// caller consumed (already added to `metrics.messages_delivered` by
    /// the caller — it is passed here only for the observability event).
    /// Increments `metrics.transitions`, counts sends per class, tracks
    /// output growth, and emits the per-transition `runtime/transition`
    /// event with per-class counter deltas to `obs`.
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
    pub fn apply(
        &mut self,
        delivered: &[Fact],
        delivered_occurrences: usize,
        mut sent_filter: Option<&mut BTreeSet<Fact>>,
        metrics: &mut crate::runtime::Metrics,
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
            self.restore(state);
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
            state_changed,
            grew_output,
            sent,
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

    #[test]
    fn apply_counts_sends_per_recipient() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.first().clone();
        let mut engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let mut metrics = Metrics::default();
        let outcome = engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
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
        let first = engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
        assert!(first.state_changed);
        // Repeating with no new deliveries converges: the second step
        // changes nothing and sends nothing (the strategy remembers what
        // it broadcast).
        let second = engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
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
            assert_eq!(engine.track(), i as u32 + 1);
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
        engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
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
        let outcome = engine.apply(&m, 1, None, &mut metrics, &Obs::noop());
        assert!(outcome.grew_output && !engine.is_cold());
        assert!(
            !engine.visible().contains(&m[0]),
            "M leaves D with the step"
        );
        assert_eq!(engine.visible().relation_len("MyAdom"), 5);
        // Restoring a state — even its own — starts over.
        let state = engine.state();
        engine.restore(state.clone());
        assert!(engine.is_cold());
        assert_eq!(engine.visible().relation_len("MyAdom"), 0);
        let again = engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
        assert!(!again.state_changed && again.sent.is_empty());
        assert_eq!(engine.into_state(), state);
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
        engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
        assert!(!engine.is_cold(), "an insertion keeps the engine warm");
        let off = engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
        assert!(off.state_changed && engine.is_cold() && engine.state().is_empty());

        // A program that stores nothing of a delivered value: A shrinks
        // back when the message leaves.
        let forgetful =
            DatalogTransducer::parse("forgetful", schema(), "out_seen(x) :- E(x,y).").unwrap();
        let mut engine = NodeEngine::new(&forgetful, &policy, sys, x.clone(), &input);
        engine.apply(&[], 0, None, &mut metrics, &Obs::noop());
        assert!(!engine.is_cold());
        engine.apply(&[fact("msg_v", [1])], 1, None, &mut metrics, &Obs::noop());
        assert!(!engine.is_cold(), "1 is a value of H(x)");
        engine.apply(&[fact("msg_v", [9])], 1, None, &mut metrics, &Obs::noop());
        assert!(engine.is_cold(), "9 was seen in the message only");
    }
}
