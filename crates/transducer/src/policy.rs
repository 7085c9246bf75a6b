//! Distribution policies (Section 4.1.1).
//!
//! A distribution policy `P` is a total function from `facts(σ)` to the
//! nonempty subsets of the network: it says which nodes receive each
//! possible input fact (with replication allowed). A policy is
//! *domain-guided* when it is induced by a *domain assignment*
//! `α : dom → P⁺(N)` via `P(R(a1..ak)) = α(a1) ∪ ... ∪ α(ak)`.

use crate::network::{Network, NodeId};
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A distribution policy for some input schema and network.
pub trait DistributionPolicy: Send + Sync {
    /// The network the policy distributes over.
    fn network(&self) -> &Network;

    /// `P(f)`: the (nonempty) set of nodes the fact is assigned to.
    fn assign(&self, fact: &Fact) -> BTreeSet<NodeId>;

    /// Whether `node ∈ P(fact)` — what a node asks about every candidate
    /// tuple of its policy relations. A policy that can answer without
    /// building the set overrides this.
    fn assigns_to(&self, fact: &Fact, node: &NodeId) -> bool {
        self.assign(fact).contains(node)
    }

    /// Whether this policy is (by construction) domain-guided.
    fn is_domain_guided(&self) -> bool {
        false
    }

    /// For domain-guided policies: the underlying domain assignment
    /// `α(a)`. Default panics for non-domain-guided policies.
    fn domain_assignment(&self, _value: &Value) -> BTreeSet<NodeId> {
        panic!("policy is not domain-guided")
    }
}

/// `dist_P(I)`: distribute an instance over the network according to the
/// policy, with replication.
pub fn distribute(policy: &dyn DistributionPolicy, input: &Instance) -> BTreeMap<NodeId, Instance> {
    let mut out: BTreeMap<NodeId, Instance> = policy
        .network()
        .nodes()
        .map(|n| (n.clone(), Instance::new()))
        .collect();
    for f in input.facts() {
        let targets = policy.assign(&f);
        debug_assert!(
            !targets.is_empty(),
            "policies are total with nonempty images"
        );
        for t in targets {
            out.get_mut(&t)
                .unwrap_or_else(|| panic!("policy assigned {f} to non-node {t}"))
                .insert(f.clone());
        }
    }
    out
}

/// Hash-partitioning policy: each fact goes to exactly one node, chosen by
/// a deterministic hash of the whole fact. The "default" distribution for
/// experiments.
pub struct HashPolicy {
    network: Network,
}

impl HashPolicy {
    /// Create a hash policy over the network.
    pub fn new(network: Network) -> Self {
        HashPolicy { network }
    }
}

impl HashPolicy {
    /// The one node `fact` hashes to.
    fn owner(&self, fact: &Fact) -> &NodeId {
        self.network.hashed(fact)
    }
}

impl DistributionPolicy for HashPolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    fn assign(&self, fact: &Fact) -> BTreeSet<NodeId> {
        BTreeSet::from([self.owner(fact).clone()])
    }

    fn assigns_to(&self, fact: &Fact, node: &NodeId) -> bool {
        self.owner(fact) == node
    }
}

/// A domain-guided policy built from a domain assignment: each value is
/// hashed to one owner node (plus optional explicit overrides), and a
/// fact goes to the union of its values' owners.
pub struct DomainGuidedPolicy {
    network: Network,
    overrides: BTreeMap<Value, BTreeSet<NodeId>>,
    default_owner: Option<NodeId>,
}

impl DomainGuidedPolicy {
    /// Hash-based domain assignment over the network.
    pub fn new(network: Network) -> Self {
        DomainGuidedPolicy {
            network,
            overrides: BTreeMap::new(),
            default_owner: None,
        }
    }

    /// Explicitly assign a value to a set of nodes (must be nonempty and
    /// within the network).
    #[must_use]
    pub fn with_value_assignment(
        mut self,
        value: Value,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let nodes: BTreeSet<NodeId> = nodes.into_iter().collect();
        assert!(!nodes.is_empty(), "α(a) must be nonempty");
        assert!(
            nodes.iter().all(|n| self.network.contains(n)),
            "α(a) ⊆ N required"
        );
        self.overrides.insert(value, nodes);
        self
    }

    /// Assign *every* value to the single node `x` — the "ideal"
    /// distribution used by coordination-freeness witnesses.
    pub fn all_to(network: Network, x: NodeId) -> Self {
        assert!(network.contains(&x));
        DomainGuidedPolicy {
            network: network.clone(),
            overrides: BTreeMap::new(),
            default_owner: None,
        }
        .with_default_owner(x)
    }

    fn with_default_owner(mut self, x: NodeId) -> Self {
        // Implemented as an override-all sentinel: store under a private
        // marker by replacing the hash fallback.
        self.default_owner = Some(x);
        self
    }

    /// α(a) for this policy.
    fn alpha(&self, value: &Value) -> BTreeSet<NodeId> {
        match self.overrides.get(value) {
            Some(explicit) => explicit.clone(),
            None => BTreeSet::from([self.owner(value).clone()]),
        }
    }

    /// The single owner of a value without an explicit assignment.
    fn owner(&self, value: &Value) -> &NodeId {
        match &self.default_owner {
            Some(owner) => owner,
            None => self.network.hashed(value),
        }
    }
}

impl DistributionPolicy for DomainGuidedPolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    fn assign(&self, fact: &Fact) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for v in fact.values() {
            out.extend(self.alpha(v));
        }
        out
    }

    fn assigns_to(&self, fact: &Fact, node: &NodeId) -> bool {
        fact.values().any(|v| match self.overrides.get(v) {
            Some(explicit) => explicit.contains(node),
            None => self.owner(v) == node,
        })
    }

    fn is_domain_guided(&self) -> bool {
        true
    }

    fn domain_assignment(&self, value: &Value) -> BTreeSet<NodeId> {
        self.alpha(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;

    #[test]
    fn hash_policy_partitions_totally() {
        let p = HashPolicy::new(Network::of_size(4));
        let i = calm_common::generator::path(10);
        let dist = distribute(&p, &i);
        let total: usize = dist.values().map(Instance::len).sum();
        assert_eq!(total, i.len(), "hash policy does not replicate");
    }

    #[test]
    fn domain_guided_assign_is_union_of_alphas() {
        let p = DomainGuidedPolicy::new(Network::of_size(3));
        let f = fact("E", [1, 2]);
        let expected: BTreeSet<NodeId> = p
            .alpha(&Value::Int(1))
            .union(&p.alpha(&Value::Int(2)))
            .cloned()
            .collect();
        assert_eq!(p.assign(&f), expected);
    }

    #[test]
    fn all_to_routes_everything_to_x() {
        let net = Network::of_size(3);
        let x = Value::str("n2");
        let p = DomainGuidedPolicy::all_to(net, x.clone());
        let i = calm_common::generator::path(5);
        let dist = distribute(&p, &i);
        assert_eq!(dist[&x], i);
        assert!(dist[&Value::str("n1")].is_empty());
        assert!(p.is_domain_guided());
    }

    #[test]
    fn value_assignment_override() {
        let p = DomainGuidedPolicy::new(Network::of_size(2))
            .with_value_assignment(Value::Int(5), [Value::str("n1"), Value::str("n2")]);
        assert_eq!(p.alpha(&Value::Int(5)).len(), 2);
        // Fact containing 5 is replicated to both nodes.
        assert_eq!(p.assign(&fact("E", [5, 5])).len(), 2);
    }

    #[test]
    fn membership_is_assign_contains_for_every_policy_tuple_and_node() {
        use crate::system_facts::tuples_over;
        let values = [
            Value::Int(0),
            Value::Int(1),
            Value::Int(-7),
            Value::Int(12),
            Value::str("a"),
            Value::str("n1"),
            Value::skolem("f", vec![Value::Int(1), Value::str("a")]),
        ];
        let four = Network::of_size(4);
        let policies: Vec<(&str, Box<dyn DistributionPolicy>)> = vec![
            ("hash", Box::new(HashPolicy::new(four.clone()))),
            (
                "domain-guided",
                Box::new(
                    DomainGuidedPolicy::new(four.clone())
                        .with_value_assignment(Value::Int(1), [Value::str("n2"), Value::str("n4")]),
                ),
            ),
            (
                "all-to",
                Box::new(DomainGuidedPolicy::all_to(four, Value::str("n3"))),
            ),
        ];
        for (name, policy) in &policies {
            let mut asked = 0;
            for arity in 1..=3 {
                for tuple in tuples_over(&values, arity) {
                    let f = Fact::new("E", tuple);
                    let assigned = policy.assign(&f);
                    for node in policy.network().nodes() {
                        let member = policy.assigns_to(&f, node);
                        assert_eq!(member, assigned.contains(node), "{name}: {f} at {node}");
                        asked += 1;
                    }
                }
            }
            assert!(asked >= 2 * (7 + 49 + 343), "{name}");
        }
    }
}
