//! System facts `S` for a transition (Section 4.1.3), from scratch; the
//! definitions are in `calm_transducer::system_facts`.

use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_common::value::Value;
use calm_transducer::system_facts::{tuples_over, POLICY_ARITY_CAP};
use calm_transducer::{policy_relation, DistributionPolicy, Network, NodeId, SystemConfig};
use std::collections::BTreeSet;

/// Compute the system facts for a transition of node `x` — from
/// scratch: the specification of what a [`calm_transducer::NodeEngine`]
/// maintains.
///
/// `visible` is `J` — the union of local input facts, state, and delivered
/// messages. The enumeration of `policy_R` candidates is `|A|^k` per input
/// relation of arity `k`, capped at [`POLICY_ARITY_CAP`].
pub fn system_facts(
    x: &NodeId,
    network: &Network,
    input_schema: &Schema,
    policy: &dyn DistributionPolicy,
    config: SystemConfig,
    visible: &Instance,
) -> Instance {
    let mut s = Instance::new();
    if config.include_id {
        s.insert(Fact::new("Id", vec![x.clone()]));
    }
    if config.include_all {
        for y in network.nodes() {
            s.insert(Fact::new("All", vec![y.clone()]));
        }
    }
    // The known-value set A.
    let mut a: BTreeSet<Value> = visible.adom();
    if config.include_all {
        a.extend(network.nodes().cloned());
    } else {
        a.insert(x.clone());
    }
    if config.policy_relations {
        for val in &a {
            s.insert(Fact::new("MyAdom", vec![val.clone()]));
        }
        let a_vec: Vec<Value> = a.iter().cloned().collect();
        for (rel, arity) in input_schema.iter() {
            assert!(
                arity <= POLICY_ARITY_CAP,
                "policy relation enumeration capped at arity {POLICY_ARITY_CAP} (got {arity} for {rel})"
            );
            let pname = calm_common::fact::rel(policy_relation(rel));
            for tuple in tuples_over(&a_vec, arity) {
                let candidate = Fact::from_rel(rel.clone(), tuple);
                if policy.assign(&candidate).contains(x) {
                    s.insert_tuple(&pname, candidate.into_parts().1);
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::ParityFirstAttributePolicy;
    use calm_common::fact::fact;
    use calm_common::value::Value;

    fn setup() -> (Network, Schema, ParityFirstAttributePolicy) {
        let net = Network::of_size(2);
        let schema = Schema::from_pairs([("E", 2)]);
        let policy = ParityFirstAttributePolicy::new(net.clone());
        (net, schema, policy)
    }

    #[test]
    fn example_4_2_system_facts_at_node_1() {
        // Node 1 with local facts E(1,3), E(3,4): sees Id(n1), All(n1),
        // All(n2), MyAdom over {n1, n2, 1, 3, 4}, and policy_E(a, b) for
        // a ∈ {1, 3} (odd), b over the known values.
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::POLICY_AWARE,
            &visible,
        );
        assert!(s.contains(&Fact::new("Id", vec![n1.clone()])));
        assert_eq!(s.relation_len("All"), 2);
        // A = {n1, n2, 1, 3, 4} -> 5 MyAdom facts.
        assert_eq!(s.relation_len("MyAdom"), 5);
        // policy_E(a, b): a must be an odd integer from A -> a ∈ {1, 3},
        // b ranges over all 5 values of A: 10 facts.
        assert_eq!(s.relation_len("policy_E"), 10);
        assert!(s.contains(&Fact::new("policy_E", vec![Value::Int(3), Value::Int(4)])));
        // Node 1 is not responsible for even-first-attribute facts.
        assert!(!s.contains(&Fact::new("policy_E", vec![Value::Int(4), Value::Int(3)])));
    }

    #[test]
    fn original_model_has_no_policy_relations() {
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::ORIGINAL,
            &visible,
        );
        assert_eq!(s.relation_len("MyAdom"), 0);
        assert_eq!(s.relation_len("policy_E"), 0);
        assert!(s.contains(&Fact::new("Id", vec![n1])));
        assert_eq!(s.relation_len("All"), 2);
    }

    #[test]
    fn no_all_variant_shrinks_a() {
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::POLICY_AWARE_NO_ALL,
            &visible,
        );
        assert_eq!(s.relation_len("All"), 0);
        // A = {n1, 1, 3}.
        assert_eq!(s.relation_len("MyAdom"), 3);
        assert!(s.contains(&Fact::new("MyAdom", vec![n1.clone()])));
        assert!(!s.contains(&Fact::new("MyAdom", vec![Value::str("n2")])));
    }

    #[test]
    fn oblivious_sees_nothing() {
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::OBLIVIOUS,
            &visible,
        );
        assert!(s.is_empty());
    }

    #[test]
    fn received_values_grow_myadom() {
        // Example 4.2's remark: once node 1 stores value 6, MyAdom(6) and
        // policy_E(a, 6) appear.
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3]), fact("coll_E", [4, 6])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::POLICY_AWARE,
            &visible,
        );
        assert!(s.contains(&Fact::new("MyAdom", vec![Value::Int(6)])));
        assert!(s.contains(&Fact::new("policy_E", vec![Value::Int(3), Value::Int(6)])));
    }
}
