//! System facts `S` for a transition (Section 4.1.3).
//!
//! For active node `x` with visible facts `J`:
//!
//! * `A = N ∪ adom(J)` (or `{x} ∪ adom(J)` when `All` is removed, §4.3);
//! * `S = {Id(x)} ∪ {All(y) | y ∈ N} ∪ {MyAdom(a) | a ∈ A}
//!        ∪ {policy_R(ā) | ā ⊆ A, x ∈ P(R(ā))}`,
//!   with each part present only when the [`SystemConfig`] enables it.
//!
//! Restricting `policy_R` to tuples over `A` is the paper's safety
//! restriction: a node only sees the policy over values it already knows.

use crate::network::{Network, NodeId};
use crate::policy::DistributionPolicy;
use crate::schema::{policy_relation, SystemConfig};
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_common::value::Value;
use std::collections::BTreeSet;

/// The largest input-relation arity the policy-aware models run with:
/// the `policy_R` candidates are the `|A|^k` tuples over the known
/// values. A tractability limit, not a property of the model (all the
/// paper's schemas are binary) — a front end checks it before a node
/// steps; the `assert!`s are the library's own guard.
pub const POLICY_ARITY_CAP: usize = 4;

/// Compute the system facts for a transition of node `x` — from
/// scratch: the specification of what a [`crate::NodeEngine`] maintains.
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

/// All tuples of the given arity over a value slice (odometer order).
pub fn tuples_over(values: &[Value], arity: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::with_capacity(values.len().pow(arity as u32));
    for_each_new_tuple(&[], values, arity, |t| out.push(t.to_vec()));
    out
}

/// Call `f` on every tuple of the given arity over `old ∪ new` that
/// holds at least one value of `new` — the `|A'|^k − |A|^k` tuples a
/// grown value set adds to [`tuples_over`] (all of them, from an empty
/// `old`). `old` and `new` must be disjoint; each tuple is visited once
/// (grouped by the first position that holds a new value). Generic in
/// the value: the specification enumerates [`Value`]s, a running node
/// and its program interned symbols.
pub(crate) fn for_each_new_tuple<T: Clone>(
    old: &[T],
    new: &[T],
    arity: usize,
    mut f: impl FnMut(&[T]),
) {
    if new.is_empty() || arity == 0 {
        return;
    }
    let all: Vec<T> = old.iter().chain(new).cloned().collect();
    for first_new in 0..arity {
        let pool = |pos: usize| match pos.cmp(&first_new) {
            std::cmp::Ordering::Less => old,
            std::cmp::Ordering::Equal => new,
            std::cmp::Ordering::Greater => &all[..],
        };
        if first_new > 0 && old.is_empty() {
            break;
        }
        let mut idx = vec![0usize; arity];
        let mut tuple: Vec<T> = (0..arity).map(|pos| pool(pos)[0].clone()).collect();
        'odometer: loop {
            f(&tuple);
            for pos in 0..arity {
                idx[pos] += 1;
                if idx[pos] < pool(pos).len() {
                    tuple[pos] = pool(pos)[idx[pos]].clone();
                    continue 'odometer;
                }
                idx[pos] = 0;
                tuple[pos] = pool(pos)[0].clone();
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ParityFirstAttributePolicy;
    use calm_common::fact::fact;

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
    fn tuples_over_counts() {
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(tuples_over(&vals, 1).len(), 3);
        assert_eq!(tuples_over(&vals, 2).len(), 9);
        assert_eq!(tuples_over(&[], 2).len(), 0);
    }

    #[test]
    fn new_tuples_are_exactly_the_difference() {
        let vals: Vec<Value> = (0..5).map(Value::Int).collect();
        for arity in 1..=3 {
            for split in 0..=vals.len() {
                let (old, new) = vals.split_at(split);
                let mut seen = Vec::new();
                for_each_new_tuple(old, new, arity, |t| seen.push(t.to_vec()));
                let mut want = tuples_over(&vals, arity);
                want.retain(|t| t.iter().any(|v| new.contains(v)));
                assert_eq!(
                    seen.len(),
                    want.len(),
                    "arity {arity}, {split} old: no repeats"
                );
                seen.sort();
                want.sort();
                assert_eq!(seen, want, "arity {arity}, {split} old");
            }
        }
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
