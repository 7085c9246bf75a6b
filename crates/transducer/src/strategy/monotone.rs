//! The `M` strategy (the CALM baseline, Section 4.3 first bullet): every
//! node broadcasts its local input facts; output is generated for every
//! newly received fact, with no waiting at all. Correct exactly for
//! monotone queries.
//!
//! A node *originates* — marks in `s_R`, sends as `m_R`, once — the facts
//! of its own fragment `H(x)` and only *stores* (`c_R`) what it is sent:
//! nothing is forwarded (see [the module doc](super)).

use super::{
    coll_rel, collected_input, msg_rel, originate, out_relations, rename_to_out,
    renamed_output_schema, Gossip,
};
use crate::schema::TransducerSchema;
use crate::transducer::{NodeProgram, NodeView, Transducer, TransducerStep};
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::{Query, QuerySession, RowBatch};
use calm_common::schema::Schema;
use calm_common::storage::{EvalMetrics, RelId, Sym, SymbolTable};

/// The broadcast-everything strategy for monotone queries.
pub struct MonotoneBroadcast {
    query: Box<dyn Query>,
    schema: TransducerSchema,
    name: String,
}

/// Memory relation marking the node's own facts already broadcast.
fn sent_rel(r: &str) -> String {
    format!("s_{r}")
}

impl MonotoneBroadcast {
    /// Wrap a (monotone) query. The strategy is always *defined*; it
    /// *computes* the query distributedly iff the query is monotone —
    /// experiment E1/E8 exercises both sides.
    pub fn new(query: Box<dyn Query>) -> Self {
        let input = query.input_schema().clone();
        let mut msg = Schema::new();
        let mut mem = Schema::new();
        for (r, a) in input.iter() {
            msg.add(&msg_rel(r), a);
            mem.add(&coll_rel(r), a);
            mem.add(&sent_rel(r), a);
        }
        let output = renamed_output_schema(query.as_ref());
        let name = format!("monotone-broadcast({})", query.name());
        MonotoneBroadcast {
            schema: TransducerSchema::new(input, output, msg, mem),
            query,
            name,
        }
    }

    /// The wrapped query.
    pub fn query(&self) -> &dyn Query {
        self.query.as_ref()
    }
}

impl Transducer for MonotoneBroadcast {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        let mut step = TransducerStep::default();
        let collected = collected_input(self.query.input_schema(), d);
        for (r, _) in self.query.input_schema().iter() {
            // The facts of H(x) are ours to broadcast; everything we
            // know, delivered facts included, is remembered.
            originate(d, &mut step, d.tuples(r), (&sent_rel(r), &msg_rel(r)));
            for t in collected.tuples(r) {
                step.ins.insert(Fact::new(coll_rel(r), t.clone()));
            }
        }
        // Output Q over everything currently known — monotonicity makes
        // every such fact final.
        step.out = rename_to_out(self.query.eval(&collected));
        step
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, table: &mut SymbolTable) -> Box<dyn NodeProgram + '_> {
        let relations = self.query.input_schema().names().map(|r| Collected {
            input: table.rel(r),
            facts: Gossip::new(table, &coll_rel(r), &sent_rel(r), &msg_rel(r)),
        });
        Box::new(Broadcast {
            relations: relations.collect(),
            out: out_relations(self.query.as_ref(), table),
            session: self.query.session(table),
            started: false,
            collected: RowBatch::default(),
        })
    }
}

/// An input relation `R` with its `c_R`/`s_R`/`m_R`: where its facts
/// are collected, marked as broadcast, and broadcast.
struct Collected {
    input: RelId,
    facts: Gossip,
}

/// One node's [`MonotoneBroadcast`]: `H(x)` is broadcast, each fact is
/// collected and handed to the query once — when it is first seen — and
/// the query is a session over everything collected, which only grows.
struct Broadcast<'a> {
    relations: Vec<Collected>,
    /// `R` ↦ `out_R`, by id.
    out: Vec<(RelId, RelId)>,
    session: Box<dyn QuerySession + 'a>,
    started: bool,
    /// What this step collected, for the session: rows of `R`.
    collected: RowBatch,
}

impl Broadcast<'_> {
    /// A fact of input relation `i` is at hand. The session is told when
    /// it is new — and on a first call in any case: the memory may be
    /// there already (a restored state).
    fn collect(&mut self, view: &mut NodeView<'_>, i: usize, first: bool, t: &[Sym]) {
        let relation = &self.relations[i];
        if relation.facts.store(view, t) || first {
            self.collected.insert.push(relation.input, t);
        }
    }
}

impl NodeProgram for Broadcast<'_> {
    fn advance(&mut self, view: &mut NodeView<'_>) -> EvalMetrics {
        let first = !std::mem::replace(&mut self.started, true);
        if first {
            for i in 0..self.relations.len() {
                // What D held before this call: collecting writes to `c_R`.
                let Collected { input, facts, .. } = &self.relations[i];
                let held = [*input, facts.known].map(|r| (r, view.all_ids(r)));
                // H(x) is this node's to broadcast.
                view.for_rows(*input, held[0].1.clone(), |view, t| {
                    facts.originate(view, t)
                });
                for (r, ids) in held {
                    view.for_rows(r, ids, |view, t| self.collect(view, i, true, t));
                }
            }
        }
        let delivered = view.delivered();
        for r in delivered.rel_ids() {
            if let Some(i) = self.relations.iter().position(|c| c.facts.msg == r) {
                for t in delivered
                    .relation(r)
                    .expect("a listed relation")
                    .live_rows()
                {
                    self.collect(view, i, first, t);
                }
            }
        }
        if first || self.collected != RowBatch::default() {
            view.answer(&mut *self.session, &self.collected, &self.out);
            self.collected.insert.clear();
        }
        EvalMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::HashPolicy;
    use crate::runtime::{run, Scheduler, TransducerNetwork};
    use crate::schema::SystemConfig;
    use calm_common::generator::path;
    use calm_common::instance::Instance;
    use calm_queries::tc::tc_datalog;

    fn tc_strategy() -> MonotoneBroadcast {
        MonotoneBroadcast::new(Box::new(tc_datalog()))
    }

    #[test]
    fn message_volume_is_once_per_fact_per_recipient() {
        let t = tc_strategy();
        let input = path(4);
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 20_000);
        assert!(r.quiescent);
        // Each of the 4 facts is sent by the one node that holds it, to
        // the 2 others; a received fact is stored, not passed on.
        assert_eq!(r.metrics.messages_sent, 4 * 2);
        assert_eq!(r.metrics.messages_delivered, 4 * 2);
    }

    #[test]
    fn a_restored_node_originates_what_its_marks_do_not_cover_and_nothing_it_stored() {
        use crate::engine::NodeEngine;
        use crate::multiset::Multiset;
        use crate::rows::Batch;
        use crate::runtime::{Delivery, Metrics};
        use calm_common::fact::{fact, Fact};
        use calm_common::storage::{load_instance, store_to_instance, SharedSymbols, Storage};
        use calm_obs::Obs;
        use std::sync::Arc;

        let t = tc_strategy();
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let x = net.first().clone();
        let own: Multiset<Fact> = [fact("E", [1, 2]), fact("E", [2, 3])].into_iter().collect();
        let symbols = SharedSymbols::new();
        let own = Batch::of_facts(&own, &mut symbols.write());
        let mut node = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &own, &symbols);
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        let sent = |outcome: crate::engine::NodeStepOutcome| {
            let mut facts = Multiset::new();
            outcome.sent.add_to(&symbols.read(), &mut facts);
            facts.support().cloned().collect::<Vec<Fact>>()
        };
        // Its own two facts, once.
        let first = sent(node.step(Delivery::None, &mut m, &obs));
        assert_eq!(first, [fact("m_E", [1, 2]), fact("m_E", [2, 3])]);
        // A delivered fact is stored and answered from, not sent on.
        let theirs: Multiset<Fact> = [fact("m_E", [3, 4])].into_iter().collect();
        let batch = Arc::new(Batch::of_facts(&theirs, &mut symbols.write()));
        node.enqueue(&batch, None, &mut m, &obs);
        let outcome = node.step(Delivery::All, &mut m, &obs);
        assert!(outcome.grew_output && outcome.sent.is_empty());
        let state_of = |node: &NodeEngine<'_>| store_to_instance(&node.checkpoint().0, &symbols);
        let state = state_of(&node);
        assert!(state.contains(&fact("c_E", [3, 4])) && state.contains(&fact("out_T", [1, 4])));
        assert_eq!(state.relation_len("s_E"), 2, "marks: the node's own facts");

        // A state as the rows a checkpoint holds.
        let rows = |state: &Instance| {
            let mut rows = Storage::new();
            load_instance(state, &symbols, &mut rows);
            rows
        };
        // Restored whole, it has nothing to say.
        node.restore(&rows(&state), &[]);
        assert!(node.step(Delivery::None, &mut m, &obs).sent.is_empty());
        // Restored from a checkpoint whose marks cover one fact only —
        // taken between the two sends, had they been two — it sends the
        // other: not the covered one, not the one it merely stored.
        let mut earlier = state.clone();
        earlier.remove(&fact("s_E", [2, 3]));
        node.restore(&rows(&earlier), &[]);
        let again = sent(node.step(Delivery::None, &mut m, &obs));
        assert_eq!(again, [fact("m_E", [2, 3])]);
        assert_eq!(state_of(&node), state);
    }

    #[test]
    fn empty_input() {
        let t = tc_strategy();
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r = run(&tn, &Instance::new(), &Scheduler::RoundRobin, 100);
        assert!(r.quiescent);
        assert!(r.output.is_empty());
        assert_eq!(r.metrics.messages_sent, 0);
    }
}
