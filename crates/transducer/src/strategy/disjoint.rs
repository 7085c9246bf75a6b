//! The `Mdisjoint` strategy (proof of Theorem 4.4): broadcast the active
//! domain; run a per-value request/ack/OK protocol with the nodes
//! responsible for each value under the domain assignment; output `Q` on
//! complete *components* of the collected input.
//!
//! Correct under **domain-guided** policies: a node responsible for value
//! `a` (i.e. `x ∈ α(a)`, detected via `policy_R(a, ..., a)`) locally
//! holds *every* input fact containing `a`. The §4.3 discussion stresses
//! that this per-value protocol is coordination determined purely by the
//! data distribution — the strategy never reads `All` and cannot
//! globally synchronize.
//!
//! **Who originates what** (audited when the other two strategies
//! stopped forwarding; nothing to change): every send is the node's own,
//! marked in its state — `v_a` for the active domain of the *local*
//! fragment (`sv`); one `rq` per known value it does not own (`sq`);
//! `m_R` for local facts only, answering a request (`sm_R`): a collected
//! fact is never passed on; one `k_R` per collected fact (`sk_R`), the
//! per-receiver answer; one `okm` per served request (`so`).

use super::{coll_rel, collected_input, msg_rel, rename_to_out, renamed_output_schema};
use crate::schema::{policy_relation, TransducerSchema};
use crate::transducer::{Transducer, TransducerStep};
use calm_common::component::components;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_common::value::Value;
use std::collections::BTreeSet;

/// Message relation names (fixed; the per-relation ones come from
/// `strategy::msg_rel`).
const VAL_BC: &str = "v_a"; // value broadcast
const REQUEST: &str = "rq"; // (requester, value)
const OK: &str = "okm"; // (requester, value)

fn ack_rel(r: &str) -> String {
    format!("k_{r}") // (acker, fact args...)
}

// Memory relation names.
const SENT_VAL: &str = "sv"; // values broadcast
const SENT_REQ: &str = "sq"; // values requested
const REMEMBERED_REQ: &str = "rr"; // (requester, value)
const SENT_OK: &str = "so"; // (requester, value)
const GOT_OK: &str = "gk"; // values OK'd for me

fn recv_ack_rel(r: &str) -> String {
    format!("ka_{r}")
}

fn sent_ack_rel(r: &str) -> String {
    format!("sk_{r}")
}

fn sent_fact_rel(r: &str) -> String {
    format!("sm_{r}")
}

/// The request/OK strategy for `Mdisjoint` queries under domain-guided
/// distribution.
pub struct DisjointStrategy {
    query: Box<dyn Query>,
    schema: TransducerSchema,
    name: String,
}

impl DisjointStrategy {
    /// Wrap a query. Distributedly computes it under domain-guidance iff
    /// the query is domain-disjoint-monotone.
    pub fn new(query: Box<dyn Query>) -> Self {
        let input = query.input_schema().clone();
        let mut msg = Schema::new();
        let mut mem = Schema::new();
        msg.add(VAL_BC, 1);
        msg.add(REQUEST, 2);
        msg.add(OK, 2);
        mem.add(SENT_VAL, 1);
        mem.add(SENT_REQ, 1);
        mem.add(REMEMBERED_REQ, 2);
        mem.add(SENT_OK, 2);
        mem.add(GOT_OK, 1);
        for (r, a) in input.iter() {
            msg.add(&msg_rel(r), a);
            msg.add(&ack_rel(r), a + 1);
            mem.add(&coll_rel(r), a);
            mem.add(&recv_ack_rel(r), a + 1);
            mem.add(&sent_ack_rel(r), a);
            mem.add(&sent_fact_rel(r), a);
        }
        let output = renamed_output_schema(query.as_ref());
        let name = format!("disjoint-strategy({})", query.name());
        DisjointStrategy {
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

impl Transducer for DisjointStrategy {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        let mut step = TransducerStep::default();
        let input_schema = self.query.input_schema();
        let me = match d.tuples("Id").next() {
            Some(t) => t[0].clone(),
            // Oblivious model: the protocol needs Id; do nothing.
            None => return step,
        };
        let myadom: Vec<Value> = d.tuples("MyAdom").map(|t| t[0].clone()).collect();

        // Responsibility: x ∈ α(a) iff policy_R(a,...,a) is visible for
        // some input relation (paper's criterion).
        let responsible = |a: &Value| -> bool {
            input_schema.iter().any(|(r, arity)| {
                let tuple: Vec<Value> = std::iter::repeat_n(a.clone(), arity).collect();
                d.contains_tuple(&policy_relation(r), &tuple)
            })
        };

        // Collected facts (local ∪ remembered ∪ freshly delivered).
        let collected = collected_input(input_schema, d);
        for f in collected.facts() {
            step.ins
                .insert(Fact::new(coll_rel(f.relation()), f.args().to_vec()));
        }

        // 1. Broadcast the local input fragment's active domain (once per
        //    value).
        let mut local_input = Instance::new();
        for (r, _) in input_schema.iter() {
            for t in d.tuples(r) {
                local_input.insert(Fact::new(r.as_ref(), t.clone()));
            }
        }
        for a in local_input.adom() {
            if !d.contains_tuple(SENT_VAL, std::slice::from_ref(&a)) {
                step.snd.insert(Fact::new(VAL_BC, vec![a.clone()]));
                step.ins.insert(Fact::new(SENT_VAL, vec![a]));
            }
        }

        // 2. Request every known value we are not responsible for.
        for a in &myadom {
            if !responsible(a) && !d.contains_tuple(SENT_REQ, std::slice::from_ref(a)) {
                step.snd
                    .insert(Fact::new(REQUEST, vec![me.clone(), a.clone()]));
                step.ins.insert(Fact::new(SENT_REQ, vec![a.clone()]));
            }
        }

        // 3. Remember requests (delivered now or earlier).
        let mut requests: BTreeSet<(Value, Value)> = BTreeSet::new();
        for t in d.tuples(REQUEST).chain(d.tuples(REMEMBERED_REQ)) {
            requests.insert((t[0].clone(), t[1].clone()));
            step.ins.insert(Fact::new(REMEMBERED_REQ, t.clone()));
        }

        // 4. Record delivered acks and OKs.
        for (r, _) in input_schema.iter() {
            for t in d.tuples(&ack_rel(r)) {
                step.ins.insert(Fact::new(recv_ack_rel(r), t.clone()));
            }
        }
        let mut got_ok: BTreeSet<Value> = d.tuples(GOT_OK).map(|t| t[0].clone()).collect();
        for t in d.tuples(OK) {
            if t[0] == me {
                got_ok.insert(t[1].clone());
                step.ins.insert(Fact::new(GOT_OK, vec![t[1].clone()]));
            }
        }

        // 5. Serve remembered requests for values we own: send the local
        //    facts containing the value, and send OK once the requester
        //    has acknowledged all of them.
        for (requester, a) in &requests {
            if !responsible(a) {
                continue;
            }
            let mut all_acked = true;
            for (r, _) in input_schema.iter() {
                for t in local_input.tuples(r) {
                    if !t.contains(a) {
                        continue;
                    }
                    if !d.contains_tuple(&sent_fact_rel(r), t) {
                        step.snd.insert(Fact::new(msg_rel(r), t.clone()));
                        step.ins.insert(Fact::new(sent_fact_rel(r), t.clone()));
                    }
                    // Has `requester` acknowledged this fact?
                    let mut ack_key = Vec::with_capacity(t.len() + 1);
                    ack_key.push(requester.clone());
                    ack_key.extend(t.iter().cloned());
                    let acked = d.contains_tuple(&recv_ack_rel(r), &ack_key)
                        || d.contains_tuple(&ack_rel(r), &ack_key);
                    if !acked {
                        all_acked = false;
                    }
                }
            }
            if all_acked {
                let ok_key = [requester.clone(), a.clone()];
                if !d.contains_tuple(SENT_OK, &ok_key) {
                    step.snd.insert(Fact::new(OK, ok_key.to_vec()));
                    step.ins.insert(Fact::new(SENT_OK, ok_key.to_vec()));
                }
            }
        }

        // 6. Acknowledge every collected fact (once).
        for f in collected.facts() {
            let r = f.relation().as_ref().to_string();
            if !d.contains_tuple(&sent_ack_rel(&r), f.args()) {
                let mut ack = Vec::with_capacity(f.arity() + 1);
                ack.push(me.clone());
                ack.extend(f.args().iter().cloned());
                step.snd.insert(Fact::new(ack_rel(&r), ack));
                step.ins
                    .insert(Fact::new(sent_ack_rel(&r), f.args().to_vec()));
            }
        }

        // 7. Determined values; output Q on the ready components.
        let determined: BTreeSet<Value> = myadom
            .iter()
            .filter(|a| responsible(a) || got_ok.contains(*a))
            .cloned()
            .collect();
        let mut ready = Instance::new();
        for component in components(&collected) {
            if component.adom().iter().all(|a| determined.contains(a)) {
                ready.extend(component.facts());
            }
        }
        step.out = rename_to_out(self.query.eval(&ready));
        step
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::DomainGuidedPolicy;
    use crate::runtime::{run, Scheduler, TransducerNetwork};
    use crate::schema::SystemConfig;
    use crate::strategy::expected_output;
    use calm_common::generator::chain_game;
    use calm_common::value::Value;
    use calm_queries::winmove::win_move;

    #[test]
    fn wrong_under_non_domain_guided_policy() {
        // The strategy's soundness rests on "responsible for a ⇒ holds
        // every fact containing a", which only domain-guided policies
        // guarantee. Build a pathological (legal, but not domain-guided)
        // policy: diagonal facts move(a,a) — the responsibility probes —
        // all map to n3, while real facts are split between n1 and n2.
        // Every value then "belongs" to n3, which holds nothing and
        // happily OKs every request, so n1 concludes its lone fact is a
        // complete component and outputs a wrong win.
        struct Pathological {
            network: Network,
        }
        impl crate::policy::DistributionPolicy for Pathological {
            fn network(&self) -> &Network {
                &self.network
            }
            fn assign(&self, fact: &calm_common::fact::Fact) -> std::collections::BTreeSet<Value> {
                let args = fact.args();
                let target = if args[0] == args[1] {
                    "n3"
                } else if args[0] == Value::Int(0) {
                    "n1"
                } else {
                    "n2"
                };
                std::collections::BTreeSet::from([Value::str(target)])
            }
        }
        let t = DisjointStrategy::new(Box::new(win_move()));
        // Game 0 -> 1 -> 2: true answer win(1). With move(0,1) alone, n1
        // wrongly concludes win(0).
        let input = chain_game(0, 2);
        let expected = expected_output(t.query(), &input);
        let policy = Pathological {
            network: Network::of_size(3),
        };
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert!(
            !r.quiescent || r.output != expected,
            "a non-domain-guided policy must break the strategy (got {:?})",
            r.output
        );
    }

    #[test]
    fn protocol_message_kinds_appear() {
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 4);
        let policy = DomainGuidedPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert!(r.quiescent);
        // The protocol used requests and OKs (multi-node, split values).
        assert!(r.metrics.messages_sent > 0);
    }

    #[test]
    fn single_node_network_needs_no_protocol() {
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3);
        let expected = expected_output(t.query(), &input);
        let policy = DomainGuidedPolicy::new(Network::of_size(1));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 1_000);
        assert!(r.quiescent);
        assert_eq!(r.output, expected);
        assert_eq!(r.metrics.messages_sent, 0);
    }
}
