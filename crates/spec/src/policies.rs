//! Example distribution policies (Section 4.1.1): the proofs' override
//! policies, value replication, and the two parity policies of Example
//! 4.1. The engines run any [`DistributionPolicy`]; these are what the
//! paper's examples, proof replays and tests distribute with.

use calm_common::fact::Fact;
use calm_common::value::Value;
use calm_transducer::{DistributionPolicy, Network, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A policy defined by an arbitrary function on facts, with a fallback
/// policy for unlisted facts. Used to build the proofs' "override" policies
/// (e.g. `P2(g) = {y}` for `g ∈ J`, `P2(g) = P1(g)` otherwise).
pub struct OverridePolicy {
    base: Arc<dyn DistributionPolicy>,
    overrides: BTreeMap<Fact, BTreeSet<NodeId>>,
}

impl OverridePolicy {
    /// Route every fact of `facts` to exactly the given nodes; defer to
    /// `base` for everything else.
    pub fn new(
        base: Arc<dyn DistributionPolicy>,
        facts: impl IntoIterator<Item = Fact>,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let nodes: BTreeSet<NodeId> = nodes.into_iter().collect();
        assert!(!nodes.is_empty());
        OverridePolicy {
            overrides: facts.into_iter().map(|f| (f, nodes.clone())).collect(),
            base,
        }
    }
}

impl DistributionPolicy for OverridePolicy {
    fn network(&self) -> &Network {
        self.base.network()
    }

    fn assign(&self, fact: &Fact) -> BTreeSet<NodeId> {
        self.overrides
            .get(fact)
            .cloned()
            .unwrap_or_else(|| self.base.assign(fact))
    }
}

/// A domain-guided policy with a *replication factor*: every value is
/// assigned to `k` consecutive nodes (hash-ring style), so every fact is
/// stored at up to `k · arity` nodes. Exercises the paper's "possibly
/// with replication" clause: the disjoint strategy must keep working when
/// several nodes are responsible for the same value.
pub struct ReplicatedDomainPolicy {
    network: Network,
    replicas: usize,
}

impl ReplicatedDomainPolicy {
    /// Replicate each value's ownership across `replicas` nodes
    /// (`1 <= replicas <= |N|`).
    pub fn new(network: Network, replicas: usize) -> Self {
        assert!(replicas >= 1 && replicas <= network.len());
        ReplicatedDomainPolicy { network, replicas }
    }

    /// α(a): `replicas` consecutive nodes starting at the value's hash.
    fn alpha(&self, value: &Value) -> BTreeSet<NodeId> {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        let start = (h.finish() as usize) % self.network.len();
        let nodes: Vec<&NodeId> = self.network.nodes().collect();
        (0..self.replicas)
            .map(|k| nodes[(start + k) % nodes.len()].clone())
            .collect()
    }
}

impl DistributionPolicy for ReplicatedDomainPolicy {
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

    fn is_domain_guided(&self) -> bool {
        true
    }

    fn domain_assignment(&self, value: &Value) -> BTreeSet<NodeId> {
        self.alpha(value)
    }
}

/// The policy `P1` of Example 4.1: facts over `E(2)` partitioned on the
/// parity of the first attribute (odd → node 1, even → node 2).
/// Demonstrably *not* domain-guided.
pub struct ParityFirstAttributePolicy {
    network: Network,
}

impl ParityFirstAttributePolicy {
    /// Requires a network of exactly two nodes (as in the example).
    pub fn new(network: Network) -> Self {
        assert_eq!(network.len(), 2, "Example 4.1 uses a two-node network");
        ParityFirstAttributePolicy { network }
    }
}

impl DistributionPolicy for ParityFirstAttributePolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    fn assign(&self, fact: &Fact) -> BTreeSet<NodeId> {
        let odd = match &fact.args()[0] {
            Value::Int(k) => k.rem_euclid(2) == 1,
            _ => false,
        };
        let mut nodes = self.network.nodes();
        let n1 = nodes.next().expect("two nodes");
        let n2 = nodes.next().expect("two nodes");
        BTreeSet::from([if odd { n1.clone() } else { n2.clone() }])
    }
}

/// The domain-guided policy `P2` of Example 4.1: odd values owned by node
/// 1, even values by node 2.
pub struct ParityDomainGuidedPolicy {
    network: Network,
}

impl ParityDomainGuidedPolicy {
    /// Requires a two-node network.
    pub fn new(network: Network) -> Self {
        assert_eq!(network.len(), 2);
        ParityDomainGuidedPolicy { network }
    }

    fn owner(&self, value: &Value) -> NodeId {
        let odd = match value {
            Value::Int(k) => k.rem_euclid(2) == 1,
            _ => false,
        };
        let mut nodes = self.network.nodes();
        let n1 = nodes.next().expect("two nodes");
        let n2 = nodes.next().expect("two nodes");
        if odd {
            n1.clone()
        } else {
            n2.clone()
        }
    }
}

impl DistributionPolicy for ParityDomainGuidedPolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    fn assign(&self, fact: &Fact) -> BTreeSet<NodeId> {
        fact.values().map(|v| self.owner(v)).collect()
    }

    fn is_domain_guided(&self) -> bool {
        true
    }

    fn domain_assignment(&self, value: &Value) -> BTreeSet<NodeId> {
        BTreeSet::from([self.owner(value)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::instance::Instance;
    use calm_transducer::system_facts::tuples_over;
    use calm_transducer::{distribute, DomainGuidedPolicy, HashPolicy};

    fn two() -> Network {
        Network::of_size(2)
    }

    #[test]
    fn example_4_1_policy_p1() {
        // I = {E(1,3), E(3,4), E(4,6)}: node 1 gets E(1,3), E(3,4); node 2
        // gets E(4,6).
        let p1 = ParityFirstAttributePolicy::new(two());
        let i = Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4]), fact("E", [4, 6])]);
        let dist = distribute(&p1, &i);
        let n1 = Value::str("n1");
        let n2 = Value::str("n2");
        assert_eq!(dist[&n1].len(), 2);
        assert!(dist[&n1].contains(&fact("E", [1, 3])));
        assert!(dist[&n1].contains(&fact("E", [3, 4])));
        assert_eq!(dist[&n2].len(), 1);
        assert!(dist[&n2].contains(&fact("E", [4, 6])));
        assert!(!p1.is_domain_guided());
    }

    #[test]
    fn example_4_1_policy_p2_replicates() {
        // Domain-guided: E(3,4) contains odd 3 and even 4 -> both nodes.
        let p2 = ParityDomainGuidedPolicy::new(two());
        let i = Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4]), fact("E", [4, 6])]);
        let dist = distribute(&p2, &i);
        let n1 = Value::str("n1");
        let n2 = Value::str("n2");
        assert_eq!(dist[&n1].len(), 2); // E(1,3), E(3,4)
        assert_eq!(dist[&n2].len(), 2); // E(3,4), E(4,6)
        assert!(dist[&n1].contains(&fact("E", [3, 4])));
        assert!(dist[&n2].contains(&fact("E", [3, 4])));
        assert!(p2.is_domain_guided());
    }

    #[test]
    fn p1_is_not_domain_guided_on_witness() {
        // The paper's witness: no node is assigned ALL facts containing 4.
        // Under any domain assignment, the owner(s) of 4 would hold both
        // E(3,4) and E(4,6).
        let p1 = ParityFirstAttributePolicy::new(two());
        let i = Instance::from_facts([fact("E", [3, 4]), fact("E", [4, 6])]);
        let dist = distribute(&p1, &i);
        let holds_all_4 = dist
            .values()
            .any(|inst| inst.contains(&fact("E", [3, 4])) && inst.contains(&fact("E", [4, 6])));
        assert!(!holds_all_4, "no node holds every fact containing 4");
    }

    #[test]
    fn override_policy_reroutes_listed_facts() {
        let net = Network::of_size(2);
        let base: Arc<dyn DistributionPolicy> =
            Arc::new(DomainGuidedPolicy::all_to(net.clone(), Value::str("n1")));
        let j = [fact("E", [7, 8])];
        let p = OverridePolicy::new(base, j.clone(), [Value::str("n2")]);
        assert_eq!(
            p.assign(&fact("E", [7, 8])),
            BTreeSet::from([Value::str("n2")])
        );
        assert_eq!(
            p.assign(&fact("E", [1, 2])),
            BTreeSet::from([Value::str("n1")])
        );
    }

    #[test]
    fn replicated_policy_assigns_k_owners() {
        let p = ReplicatedDomainPolicy::new(Network::of_size(4), 2);
        for k in 0..10i64 {
            assert_eq!(p.alpha(&Value::Int(k)).len(), 2, "value {k}");
        }
        assert!(p.is_domain_guided());
        // Every owner of a value holds every fact containing it.
        let i = calm_common::generator::path(6);
        let dist = distribute(&p, &i);
        for f in i.facts() {
            for val in f.values() {
                for owner in p.alpha(val) {
                    assert!(dist[&owner].contains(&f), "{owner} misses {f}");
                }
            }
        }
    }

    #[test]
    fn membership_is_assign_contains_for_every_policy_tuple_and_node() {
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
        let base: Arc<dyn DistributionPolicy> = Arc::new(HashPolicy::new(four.clone()));
        let overridden = [fact("E", [0, 1]), fact("E", [12])];
        let policies: Vec<(&str, Box<dyn DistributionPolicy>)> = vec![
            (
                "override",
                Box::new(OverridePolicy::new(base, overridden, [Value::str("n2")])),
            ),
            ("replicated", Box::new(ReplicatedDomainPolicy::new(four, 2))),
            (
                "parity-first",
                Box::new(ParityFirstAttributePolicy::new(two())),
            ),
            (
                "parity-guided",
                Box::new(ParityDomainGuidedPolicy::new(two())),
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
