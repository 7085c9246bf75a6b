//! The `Mdistinct` strategy (proof of Theorem 4.3): broadcast local input
//! facts **and deduced absences**, output `Q` on complete value-subsets.
//!
//! A node `x` deduces the absence of fact `R(ā)` when the system relation
//! `policy_R` shows `x` is responsible for `R(ā)` but the fact is not in
//! `x`'s local input — then it is globally absent. Facts and absences are
//! broadcast; a set of values `C` is *complete* at `x` when the
//! presence/absence of every fact over `C` is known, and then
//! `Q({f | adom(f) ⊆ C})` is output (sound for `Q ∈ Mdistinct` because
//! the rest of the input is domain-distinct from the complete part).
//!
//! A node *originates* — marks in `sf_R` / `sb_R`, sends as `m_R` / `n_R`,
//! once — the input facts it *holds* and the non-facts it is
//! *responsible for*, and only *stores* (`c_R`, `ab_R`) what it is sent:
//! nothing is forwarded (see [the module doc](super)).

use super::{
    absence_rel, coll_rel, collected_input, msg_rel, originate, out_relations, rename_to_out,
    renamed_output_schema, Gossip,
};
use crate::schema::{policy_relation, TransducerSchema};
use crate::system_facts::{for_each_new_tuple, tuples_over};
use crate::transducer::{NodeProgram, NodeView, Transducer, TransducerStep};
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::{Query, QuerySession, RowBatch};
use calm_common::schema::Schema;
use calm_common::storage::{EvalMetrics, RelId, Storage, Sym, SymbolTable};
use calm_common::value::Value;
use std::collections::BTreeSet;

/// Memory: absences known (`ab_R`), own facts already broadcast
/// (`sf_R`), own deductions already broadcast (`sb_R`).
fn known_absence_rel(r: &str) -> String {
    format!("ab_{r}")
}

fn sent_fact_rel(r: &str) -> String {
    format!("sf_{r}")
}

fn sent_absence_rel(r: &str) -> String {
    format!("sb_{r}")
}

/// The facts-and-non-facts strategy for `Mdistinct` queries
/// (policy-aware model; never reads `All`).
pub struct DistinctStrategy {
    query: Box<dyn Query>,
    schema: TransducerSchema,
    name: String,
}

impl DistinctStrategy {
    /// Wrap a query. Distributedly computes it (for all policies) iff
    /// the query is domain-distinct-monotone.
    pub fn new(query: Box<dyn Query>) -> Self {
        let input = query.input_schema().clone();
        let mut msg = Schema::new();
        let mut mem = Schema::new();
        for (r, a) in input.iter() {
            msg.add(&msg_rel(r), a);
            msg.add(&absence_rel(r), a);
            mem.add(&coll_rel(r), a);
            mem.add(&known_absence_rel(r), a);
            mem.add(&sent_fact_rel(r), a);
            mem.add(&sent_absence_rel(r), a);
        }
        let output = renamed_output_schema(query.as_ref());
        let name = format!("distinct-strategy({})", query.name());
        DistinctStrategy {
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

impl Transducer for DistinctStrategy {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        let mut step = TransducerStep::default();
        let input_schema = self.query.input_schema();
        let collected = collected_input(input_schema, d);

        // Known values (the paper's MyAdom, supplied by the simulator).
        let myadom: Vec<Value> = d.tuples("MyAdom").map(|t| t[0].clone()).collect();

        // Per relation: absences = remembered ∪ delivered ∪ freshly
        // deduced from the policy relations.
        let mut undetermined_values: BTreeSet<Value> = BTreeSet::new();
        for (r, arity) in input_schema.iter() {
            let pol = policy_relation(r);
            // Deduce: responsible for R(ā) but R(ā) not locally given.
            let deduced: BTreeSet<Vec<Value>> = (tuples_over(&myadom, arity).into_iter())
                .filter(|t| d.contains_tuple(&pol, t) && !d.contains_tuple(r, t))
                .collect();
            // Deductions and the facts of H(x) are ours to broadcast.
            let names = (&*sent_absence_rel(r), &*absence_rel(r));
            originate(d, &mut step, deduced.iter(), names);
            originate(d, &mut step, d.tuples(r), (&sent_fact_rel(r), &msg_rel(r)));
            // Persist everything known, delivered tuples included.
            let absences: BTreeSet<Vec<Value>> = (d.tuples(&known_absence_rel(r)))
                .chain(d.tuples(&absence_rel(r)))
                .cloned()
                .chain(deduced)
                .collect();
            for t in &absences {
                step.ins.insert(Fact::new(known_absence_rel(r), t.clone()));
            }
            for t in collected.tuples(r) {
                step.ins.insert(Fact::new(coll_rel(r), t.clone()));
            }
            // Undetermined tuples poison their values.
            for tuple in tuples_over(&myadom, arity) {
                let determined = collected.contains_tuple(r, &tuple) || absences.contains(&tuple);
                if !determined {
                    undetermined_values.extend(tuple.iter().cloned());
                }
            }
        }

        // The maximal "clean" complete subset: values untouched by any
        // undetermined tuple. Every tuple over C is determined.
        let complete: BTreeSet<Value> = myadom
            .iter()
            .filter(|v| !undetermined_values.contains(v))
            .cloned()
            .collect();
        let mut restricted = collected.clone();
        restricted.retain(|_, tuple| tuple.iter().all(|v| complete.contains(v)));
        step.out = rename_to_out(self.query.eval(&restricted));
        step
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, table: &mut SymbolTable) -> Box<dyn NodeProgram + '_> {
        let names = self.query.input_schema().iter().map(|(r, arity)| Names {
            arity,
            input: table.rel(r),
            policy: table.rel(&policy_relation(r)),
            fact: Gossip::new(table, &coll_rel(r), &sent_fact_rel(r), &msg_rel(r)),
            absence: Gossip::new(
                table,
                &known_absence_rel(r),
                &sent_absence_rel(r),
                &absence_rel(r),
            ),
        });
        Box::new(FactsAndAbsences {
            names: names.collect(),
            my_adom: table.rel("MyAdom"),
            out: out_relations(self.query.as_ref(), table),
            session: self.query.session(table),
            started: false,
            dirty: false,
            values: Vec::new(),
            undetermined: Vec::new(),
            restricted: Storage::new(),
        })
    }
}

/// The relations one input relation `R` gives rise to, interned.
struct Names {
    arity: usize,
    /// `R`.
    input: RelId,
    /// `policy_R`.
    policy: RelId,
    /// `c_R`, `sf_R`, `m_R`.
    fact: Gossip,
    /// `ab_R`, `sb_R`, `n_R`.
    absence: Gossip,
}

impl Names {
    /// Whether `t` is known to be a fact or known to be absent.
    fn determined(&self, t: &[Sym], view: &NodeView<'_>) -> bool {
        view.d().contains(self.fact.known, t) || view.d().contains(self.absence.known, t)
    }
}

/// In [`FactsAndAbsences::undetermined`]: not a known value.
const UNKNOWN: u32 = u32::MAX;

/// One node's [`DistinctStrategy`]. Each fact or absence is remembered
/// once, when it is first seen, the node's own broadcast; the complete
/// set is kept
/// through a count per known value of the undetermined tuples over the
/// known values that contain it (a value is complete at zero), so a
/// determination decrements and only a *new* value makes tuples to
/// enumerate. The query runs as a session over the collected facts on
/// complete values. That input is not insert-only: a new value starts
/// out sharing undetermined tuples with every old one, which takes
/// them out of the complete set until those are determined.
struct FactsAndAbsences<'a> {
    names: Vec<Names>,
    my_adom: RelId,
    /// `R` ↦ `out_R`, by id.
    out: Vec<(RelId, RelId)>,
    session: Box<dyn QuerySession + 'a>,
    started: bool,
    /// Whether the session's input may have changed in this call.
    dirty: bool,
    /// The known values (`MyAdom`).
    values: Vec<Sym>,
    /// By symbol: the undetermined tuples holding a known value, counted
    /// per occurrence; [`UNKNOWN`] for any other symbol.
    undetermined: Vec<u32>,
    /// The session's input: rows of `R`.
    restricted: Storage,
}

impl FactsAndAbsences<'_> {
    /// The tuple `t` of input relation `i` became known, as a fact or
    /// as an absence: remember it, and release the values of a tuple
    /// that was counted — one over values known before this call,
    /// undetermined until now.
    fn learn(&mut self, view: &mut NodeView<'_>, i: usize, is_fact: bool, t: &[Sym]) {
        let names = &self.names[i];
        let (k, other) = match is_fact {
            true => (&names.fact, &names.absence),
            false => (&names.absence, &names.fact),
        };
        let newly = k.store(view, t);
        self.dirty |= newly && is_fact;
        let known = |v: &Sym| {
            self.undetermined
                .get(v.0 as usize)
                .is_some_and(|&n| n != UNKNOWN)
        };
        let counted = newly
            && t.len() == names.arity
            && t.iter().all(known)
            && !view.d().contains(other.known, t);
        if counted {
            for v in t {
                let n = &mut self.undetermined[v.0 as usize];
                *n -= 1;
                self.dirty |= *n == 0;
            }
        }
    }

    /// Whether every value of `t` is complete.
    fn complete(&self, t: &[Sym]) -> bool {
        (t.iter()).all(|v| self.undetermined.get(v.0 as usize) == Some(&0))
    }
}

impl NodeProgram for FactsAndAbsences<'_> {
    fn advance(&mut self, view: &mut NodeView<'_>) -> EvalMetrics {
        let first = !std::mem::replace(&mut self.started, true);
        self.dirty = first;

        // 1. What became known: remember it, and broadcast the node's own.
        for i in 0..self.names.len() {
            let names = &self.names[i];
            let (input, policy) = (names.input, names.policy);
            if first {
                // What D held before this call: learning writes to it.
                let held = [
                    (input, true),
                    (names.fact.known, true),
                    (names.absence.known, false),
                ]
                .map(|(r, is_fact)| (r, view.all_ids(r), is_fact));
                // H(x) is this node's to broadcast.
                let (ids, own) = (held[0].1.clone(), &names.fact);
                view.for_rows(input, ids, |view, t| own.originate(view, t));
                for (r, ids, is_fact) in held {
                    view.for_rows(r, ids, |view, t| self.learn(view, i, is_fact, t));
                }
            }
            // Responsible for R(ā), and R(ā) not locally given: absent.
            let ids = view.new_ids(policy);
            view.for_rows(policy, ids, |view, t| {
                if !view.d().contains(input, t) {
                    self.learn(view, i, false, t);
                    self.names[i].absence.originate(view, t);
                }
            });
        }
        let delivered = view.delivered();
        for r in delivered.rel_ids() {
            let from = (self.names.iter().enumerate()).find_map(|(i, n)| {
                (n.fact.msg == r)
                    .then_some((i, true))
                    .or((n.absence.msg == r).then_some((i, false)))
            });
            if let Some((i, is_fact)) = from {
                for t in delivered
                    .relation(r)
                    .expect("a listed relation")
                    .live_rows()
                {
                    self.learn(view, i, is_fact, t);
                }
            }
        }

        // 2. New values: the tuples that contain one are new too, and
        // count against every value in them until determined.
        let new_values: Vec<Sym> = (view.new_ids(self.my_adom))
            .map(|id| view.d().relation(self.my_adom).expect("has rows").row(id)[0])
            .collect();
        if !new_values.is_empty() {
            self.dirty = true;
            self.undetermined.resize(view.table.sym_count(), UNKNOWN);
            for v in &new_values {
                self.undetermined[v.0 as usize] = 0;
            }
            for names in &self.names {
                for_each_new_tuple(&self.values, &new_values, names.arity, |t| {
                    if !names.determined(t, view) {
                        for v in t {
                            self.undetermined[v.0 as usize] += 1;
                        }
                    }
                });
            }
            self.values.extend(new_values);
        }

        // 3. The session's input — the collected facts over complete
        // values — and the signed difference to what it was.
        if self.dirty {
            let mut change = RowBatch::default();
            for names in &self.names {
                let r = names.input;
                if let Some(held) = self.restricted.relation(r) {
                    for t in held.live_rows().filter(|t| !self.complete(t)) {
                        change.delete.push(r, t);
                    }
                }
                let Some(collected) = view.d().relation(names.fact.known) else {
                    continue;
                };
                let entering = |t: &&[Sym]| self.complete(t) && !self.restricted.contains(r, t);
                for t in collected.live_rows().filter(entering) {
                    change.insert.push(r, t);
                }
            }
            for (r, rows) in change.delete.runs() {
                for t in rows {
                    self.restricted.retract(r, t);
                }
            }
            self.restricted.compact_retractions();
            for (r, rows) in change.insert.runs() {
                self.restricted.insert_batch(r, rows);
            }
            if first || change != RowBatch::default() {
                view.answer(&mut *self.session, &change, &self.out);
            }
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
    use calm_queries::tc::edges_without_source_loop;

    fn strategy() -> DistinctStrategy {
        DistinctStrategy::new(Box::new(edges_without_source_loop()))
    }

    #[test]
    fn message_volume_is_once_per_tuple_per_recipient() {
        // 4 facts and, over the 5 values of the path and the 3 node ids,
        // 8² − 4 absent tuples: each sent by its one owner to the 2
        // other nodes, and passed on by nobody.
        let t = strategy();
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        for scheduler in [Scheduler::RoundRobin, Scheduler::random(3, 40)] {
            let r = run(&tn, &path(4), &scheduler, 50_000);
            assert!(r.quiescent);
            assert_eq!(r.metrics.by_class.fact, 4 * 2);
            assert_eq!(r.metrics.by_class.absence, (8 * 8 - 4) * 2);
            assert_eq!(r.metrics.messages_sent, r.metrics.messages_delivered);
        }
    }
}
