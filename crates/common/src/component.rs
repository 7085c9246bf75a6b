//! Components of an instance (Section 5.1, Definition 5 context).
//!
//! An instance `J` is a *component* of `I` when `J ⊆ I`, `J ≠ ∅`,
//! `adom(J) ∩ adom(I \ J) = ∅`, and `J` is minimal with this property.
//! Equivalently: group facts by the connected components of the "shares a
//! value" graph on facts. `co(I)` denotes the set of components of `I`.

use crate::instance::Instance;
use crate::value::Value;
use std::collections::BTreeMap;

/// Disjoint-set (union-find) over dense indices, with path halving.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Compute `co(I)`: the components of `I`, in deterministic order (by their
/// smallest fact).
///
/// Two facts belong to the same component iff they are connected through
/// shared active-domain values. Runs in near-linear time via union-find.
pub fn components(i: &Instance) -> Vec<Instance> {
    let facts: Vec<_> = i.facts().collect();
    if facts.is_empty() {
        return Vec::new();
    }
    let mut uf = UnionFind::new(facts.len());
    // Union facts that share a value: keep, per value, the first fact seen.
    let mut seen: BTreeMap<Value, usize> = BTreeMap::new();
    for (idx, f) in facts.iter().enumerate() {
        for val in f.values() {
            match seen.get(val) {
                Some(&first) => uf.union(idx, first),
                None => {
                    seen.insert(val.clone(), idx);
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Instance> = BTreeMap::new();
    for (idx, f) in facts.into_iter().enumerate() {
        groups.entry(uf.find(idx)).or_default().insert(f);
    }
    // BTreeMap keyed by root index already gives a deterministic order, but
    // root indices depend on union order; re-sort by content for stability.
    let mut out: Vec<Instance> = groups.into_values().collect();
    out.sort();
    out
}

/// Check Definition 5 part of the component contract: components partition
/// `I` and have pairwise disjoint active domains. Returns `true` when the
/// given decomposition is a valid `co(I)`. Used by property tests.
pub fn is_valid_component_decomposition(i: &Instance, parts: &[Instance]) -> bool {
    // Non-empty, union equals I, pairwise fact-disjoint and adom-disjoint.
    if parts.iter().any(Instance::is_empty) {
        return false;
    }
    let mut union = Instance::new();
    let mut total = 0usize;
    for p in parts {
        total += p.len();
        union.extend(p.facts());
    }
    if union != *i || total != i.len() {
        return false;
    }
    for (a, pa) in parts.iter().enumerate() {
        let adom_a = pa.adom();
        for pb in parts.iter().skip(a + 1) {
            if pb.adom().iter().any(|v| adom_a.contains(v)) {
                return false;
            }
        }
    }
    // Minimality: each part must itself be a single component.
    parts.iter().all(|p| components(p).len() == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;

    #[test]
    fn empty_instance_has_no_components() {
        assert!(components(&Instance::new()).is_empty());
    }

    #[test]
    fn single_fact_single_component() {
        let i = Instance::from_facts([fact("E", [1, 2])]);
        let co = components(&i);
        assert_eq!(co.len(), 1);
        assert_eq!(co[0], i);
    }

    #[test]
    fn chain_is_one_component() {
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("E", [3, 4])]);
        assert_eq!(components(&i).len(), 1);
    }

    #[test]
    fn disjoint_edges_are_separate_components() {
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [3, 4]), fact("E", [5, 6])]);
        let co = components(&i);
        assert_eq!(co.len(), 3);
        for c in &co {
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn cross_relation_values_connect() {
        // E(1,2) and V(2) share value 2 -> same component; V(9) separate.
        let i = Instance::from_facts([fact("E", [1, 2]), fact("V", [2]), fact("V", [9])]);
        let co = components(&i);
        assert_eq!(co.len(), 2);
        let big = co.iter().find(|c| c.len() == 2).unwrap();
        assert!(big.contains(&fact("E", [1, 2])));
        assert!(big.contains(&fact("V", [2])));
    }

    #[test]
    fn components_satisfy_contract() {
        let i = Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [2, 3]),
            fact("E", [10, 11]),
            fact("V", [11]),
            fact("V", [42]),
        ]);
        let co = components(&i);
        assert_eq!(co.len(), 3);
        assert!(is_valid_component_decomposition(&i, &co));
    }

    #[test]
    fn invalid_decompositions_rejected() {
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        // Splitting a connected instance violates adom-disjointness.
        let bad = vec![
            Instance::from_facts([fact("E", [1, 2])]),
            Instance::from_facts([fact("E", [2, 3])]),
        ];
        assert!(!is_valid_component_decomposition(&i, &bad));
        // Merging two components violates minimality.
        let j = Instance::from_facts([fact("E", [1, 2]), fact("E", [5, 6])]);
        let merged = vec![j.clone()];
        assert!(!is_valid_component_decomposition(&j, &merged));
        // Correct decomposition accepted.
        assert!(is_valid_component_decomposition(&j, &components(&j)));
    }

    #[test]
    fn transitive_bridging_across_many_facts() {
        // 1-2, 4-5 separate; then 2-4 bridges them.
        let mut i = Instance::from_facts([fact("E", [1, 2]), fact("E", [4, 5])]);
        assert_eq!(components(&i).len(), 2);
        i.insert(fact("E", [2, 4]));
        assert_eq!(components(&i).len(), 1);
    }
}
