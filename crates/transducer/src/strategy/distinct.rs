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

use super::{
    absence_rel, coll_rel, collected_input, msg_rel, rename_to_out, renamed_output_schema, Gossip,
};
use crate::schema::{policy_relation, TransducerSchema};
use crate::system_facts::{for_each_new_tuple, tuples_over};
use crate::transducer::{NodeProgram, NodeView, Transducer, TransducerStep};
use calm_common::fact::{rel, Fact, RelName};
use calm_common::instance::Instance;
use calm_common::query::{Query, QuerySession};
use calm_common::schema::Schema;
use calm_common::update::UpdateBatch;
use calm_common::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Memory: absences known (`ab_R`), facts already broadcast (`sf_R`),
/// absences already broadcast (`sb_R`).
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
            let mut absences: BTreeSet<Vec<Value>> = d
                .tuples(&known_absence_rel(r))
                .cloned()
                .chain(d.tuples(&absence_rel(r)).cloned())
                .collect();
            // Deduce: responsible for R(ā) but R(ā) not locally given.
            for tuple in tuples_over(&myadom, arity) {
                if d.contains_tuple(&pol, &tuple) && !d.contains_tuple(r, &tuple) {
                    absences.insert(tuple);
                }
            }
            // Persist and broadcast.
            for t in &absences {
                step.ins.insert(Fact::new(known_absence_rel(r), t.clone()));
                if !d.contains_tuple(&sent_absence_rel(r), t) {
                    step.snd.insert(Fact::new(absence_rel(r), t.clone()));
                    step.ins.insert(Fact::new(sent_absence_rel(r), t.clone()));
                }
            }
            for t in collected.tuples(r) {
                step.ins.insert(Fact::new(coll_rel(r), t.clone()));
                if !d.contains_tuple(&sent_fact_rel(r), t) {
                    step.snd.insert(Fact::new(msg_rel(r), t.clone()));
                    step.ins.insert(Fact::new(sent_fact_rel(r), t.clone()));
                }
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

    fn open(&self) -> Box<dyn NodeProgram + '_> {
        let names = self.query.input_schema().iter().map(|(r, arity)| Names {
            arity,
            input: r.clone(),
            policy: rel(policy_relation(r)),
            fact: Gossip::new(coll_rel(r), sent_fact_rel(r), msg_rel(r)),
            absence: Gossip::new(known_absence_rel(r), sent_absence_rel(r), absence_rel(r)),
        });
        Box::new(FactsAndAbsences {
            names: names.collect(),
            session: self.query.session(),
            started: false,
            undetermined: BTreeMap::new(),
            restricted: Instance::new(),
        })
    }
}

/// The relations one input relation `R` gives rise to, interned.
struct Names {
    arity: usize,
    /// `R`.
    input: RelName,
    /// `policy_R`.
    policy: RelName,
    /// `c_R`, `sf_R`, `m_R`.
    fact: Gossip,
    /// `ab_R`, `sb_R`, `n_R`.
    absence: Gossip,
}

impl Names {
    /// Whether `t` is known to be a fact or known to be absent.
    fn determined(&self, t: &[Value], d: &Instance, ins: &Instance) -> bool {
        [&self.fact.known, &self.absence.known]
            .into_iter()
            .any(|known| d.contains_tuple(known, t) || ins.contains_tuple(known, t))
    }
}

/// One node's [`DistinctStrategy`]. Each fact or absence is remembered
/// and broadcast once, when it is first seen; the complete set is kept
/// through a count per known value of the undetermined tuples over the
/// known values that contain it (a value is complete at zero), so a
/// determination decrements and only a *new* value makes tuples to
/// enumerate. The query runs as a session over the collected facts on
/// complete values. That input is not insert-only: a new value starts
/// out sharing undetermined tuples with every old one, which takes
/// them out of the complete set until those are determined.
struct FactsAndAbsences<'a> {
    names: Vec<Names>,
    session: Box<dyn QuerySession + 'a>,
    started: bool,
    /// Known value (`MyAdom`) ↦ undetermined tuples holding it, counted
    /// per occurrence.
    undetermined: BTreeMap<Value, usize>,
    /// The session's input.
    restricted: Instance,
}

impl NodeProgram for FactsAndAbsences<'_> {
    fn advance(&mut self, view: &mut NodeView<'_>) -> TransducerStep {
        let d = view.d();
        let mut step = TransducerStep::default();
        let first = !std::mem::replace(&mut self.started, true);
        // Whether the session's input may have changed.
        let mut dirty = first;

        // 1. What became known: remember and broadcast it.
        let undetermined = &mut self.undetermined;
        let mut learn = |names: &Names, is_fact: bool, t: &[Value]| {
            let (k, other) = match is_fact {
                true => (&names.fact, &names.absence),
                false => (&names.absence, &names.fact),
            };
            let newly = k.learn(d, t, &mut step);
            dirty |= newly && is_fact;
            // Release the values of a tuple that was counted: one over
            // values known before this call, undetermined until now.
            let counted = newly
                && t.len() == names.arity
                && t.iter().all(|v| undetermined.contains_key(v))
                && !d.contains_tuple(&other.known, t)
                && !step.ins.contains_tuple(&other.known, t);
            if counted {
                for v in t {
                    let n = undetermined.get_mut(v).expect("checked above");
                    *n -= 1;
                    dirty |= *n == 0;
                }
            }
        };
        for names in &self.names {
            if first {
                for t in d.tuples(&names.input).chain(d.tuples(&names.fact.known)) {
                    learn(names, true, t);
                }
                for t in d.tuples(&names.absence.known) {
                    learn(names, false, t);
                }
            }
            // Responsible for R(ā), and R(ā) not locally given: absent.
            for t in view.new_sys.tuples(&names.policy) {
                if !d.contains_tuple(&names.input, t) {
                    learn(names, false, t);
                }
            }
        }
        for m in view.delivered {
            for names in &self.names {
                if names.fact.msg == *m.relation() {
                    learn(names, true, m.args());
                } else if names.absence.msg == *m.relation() {
                    learn(names, false, m.args());
                }
            }
        }

        // 2. New values: the tuples that contain one are new too, and
        // count against every value in them until determined.
        let new_values: Vec<Value> = (view.new_sys.tuples("MyAdom"))
            .map(|t| t[0].clone())
            .collect();
        if !new_values.is_empty() {
            dirty = true;
            let old_values: Vec<Value> = self.undetermined.keys().cloned().collect();
            self.undetermined
                .extend(new_values.iter().map(|v| (v.clone(), 0)));
            for names in &self.names {
                for_each_new_tuple(&old_values, &new_values, names.arity, |t| {
                    if !names.determined(t, d, &step.ins) {
                        for v in t {
                            *self.undetermined.get_mut(v).expect("a known value") += 1;
                        }
                    }
                });
            }
        }

        // 3. The session's input — the collected facts over complete
        // values — and the signed difference to what it was.
        if dirty {
            let complete = |t: &[Value]| t.iter().all(|v| self.undetermined.get(v) == Some(&0));
            let mut restricted = Instance::new();
            for names in &self.names {
                let collected = (d.tuples(&names.fact.known))
                    .chain(step.ins.tuples(&names.fact.known))
                    .filter(|t| complete(t));
                for t in collected {
                    restricted.insert_tuple(&names.input, t.clone());
                }
            }
            let batch = UpdateBatch {
                insert: restricted
                    .difference(&self.restricted)
                    .into_iter()
                    .collect(),
                delete: self
                    .restricted
                    .difference(&restricted)
                    .into_iter()
                    .collect(),
            };
            self.restricted = restricted;
            if first || !batch.is_empty() {
                step.out = rename_to_out(self.session.apply(&batch));
            }
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::{DomainGuidedPolicy, HashPolicy};
    use crate::runtime::{run, verify_computes, Scheduler, TransducerNetwork};
    use crate::schema::SystemConfig;
    use crate::strategy::expected_output;
    use calm_common::generator::path;
    use calm_queries::tc::edges_without_source_loop;

    fn strategy() -> DistinctStrategy {
        DistinctStrategy::new(Box::new(edges_without_source_loop()))
    }

    #[test]
    fn computes_sp_datalog_query_on_hash_policy() {
        // The SP-Datalog query O(x,y) :- E(x,y), ¬E(x,x) is in Mdistinct;
        // the strategy must compute it for arbitrary policies.
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [2, 2]));
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 3] {
            let policy = HashPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            verify_computes(
                &tn,
                &input,
                &expected,
                &[Scheduler::RoundRobin, Scheduler::random(3, 40)],
                50_000,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn computes_without_all_relation() {
        // Theorem 4.5 (A1 = Mdistinct): the same transducer, never reading
        // All, still computes the query.
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [0, 0]));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE_NO_ALL,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 50_000).unwrap();
    }

    #[test]
    fn no_premature_output_on_incomplete_knowledge() {
        // With messages withheld (heartbeats only), a node holding only
        // part of the input must not output facts that the full input
        // would retract. Run a heartbeat-only prefix and check the output
        // stays inside Q(I).
        use crate::policy::{distribute, DistributionPolicy};
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [0, 0]));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let dist = distribute(&policy, &input);
        let mut config = crate::runtime::Configuration::start(policy.network());
        let mut metrics = crate::runtime::Metrics::default();
        for node in policy.network().nodes() {
            for _ in 0..3 {
                crate::runtime::transition(
                    &tn,
                    &dist,
                    &mut config,
                    node,
                    crate::runtime::Delivery::None,
                    &mut metrics,
                );
            }
        }
        let partial = crate::runtime::network_output(&config.state, &t.schema().output);
        assert!(
            partial.is_subset(&expected),
            "heartbeat outputs must be sound: {partial:?} ⊄ {expected:?}"
        );
    }

    #[test]
    fn ideal_policy_completes_in_heartbeats() {
        // Coordination-freeness witness: everything at one node.
        let t = strategy();
        let mut input = path(2);
        input.insert(calm_common::fact::fact("E", [1, 1]));
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(3);
        let x = calm_common::value::Value::str("n2");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let steps = crate::coordination::heartbeat_witness(&tn, &input, &x, &expected, 10)
            .expect("heartbeat-only prefix computes Q(I)");
        assert!(steps <= 3);
    }

    #[test]
    fn non_member_query_goes_wrong() {
        // Feeding win-move (∉ Mdistinct) through the distinct strategy on
        // a 2-node network yields a wrong quiescent output for at least
        // one policy/input: the strategy's soundness argument needs
        // domain-distinct monotonicity.
        let t = DistinctStrategy::new(Box::new(calm_queries::winmove::win_move()));
        let input = calm_common::generator::chain_game(0, 2);
        let expected = expected_output(t.query(), &input);
        // Split the two move facts across nodes.
        let net = Network::of_size(2);
        let base: std::sync::Arc<dyn crate::policy::DistributionPolicy> = std::sync::Arc::new(
            DomainGuidedPolicy::all_to(net.clone(), calm_common::value::Value::str("n1")),
        );
        let policy = crate::policy::OverridePolicy::new(
            base,
            [calm_common::generator::mv(1, 2)],
            [calm_common::value::Value::str("n2")],
        );
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 50_000);
        assert!(r.quiescent);
        assert_ne!(r.output, expected, "win-move must break the strategy");
    }
}
