//! Domain-distinctness and domain-disjointness (Section 3.1 of the paper).
//!
//! A fact `f` is *domain distinct* from instance `I` when
//! `adom(f) \ adom(I) ≠ ∅` (it contains at least one new value); it is
//! *domain disjoint* when `adom(f) ∩ adom(I) = ∅` (it contains only new
//! values). An instance `J` is domain distinct (resp. disjoint) from `I`
//! when every fact of `J` is.

use crate::fact::Fact;
use crate::instance::Instance;
use crate::value::Value;
use std::collections::BTreeSet;

/// Whether fact `f` is domain distinct from `I` (contains at least one
/// value outside `adom(I)`).
pub fn fact_domain_distinct(f: &Fact, adom_i: &BTreeSet<Value>) -> bool {
    f.values().any(|v| !adom_i.contains(v))
}

/// Whether fact `f` is domain disjoint from `I` (contains no value of
/// `adom(I)`).
pub fn fact_domain_disjoint(f: &Fact, adom_i: &BTreeSet<Value>) -> bool {
    f.values().all(|v| !adom_i.contains(v))
}

/// Whether instance `J` is domain distinct from instance `I`: every fact of
/// `J` contains at least one value outside `adom(I)`.
pub fn is_domain_distinct(j: &Instance, i: &Instance) -> bool {
    let adom_i = i.adom();
    j.facts().all(|f| fact_domain_distinct(&f, &adom_i))
}

/// Whether instance `J` is domain disjoint from instance `I`:
/// `adom(J) ∩ adom(I) = ∅`.
pub fn is_domain_disjoint(j: &Instance, i: &Instance) -> bool {
    let adom_i = i.adom();
    j.facts().all(|f| fact_domain_disjoint(&f, &adom_i))
}

/// Whether `J` is an *induced subinstance* of `I` (Section 3.2):
/// `J = { f ∈ I | adom(f) ⊆ adom(J) }`.
pub fn is_induced_subinstance(j: &Instance, i: &Instance) -> bool {
    if !j.is_subset(i) {
        return false;
    }
    let adom_j = j.adom();
    i.facts()
        .filter(|f| f.values().all(|v| adom_j.contains(v)))
        .all(|f| j.contains(&f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;

    fn base() -> Instance {
        Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])])
    }

    #[test]
    fn distinct_requires_one_new_value() {
        let i = base();
        // E(3,4): contains new value 4 -> distinct but not disjoint.
        let j = Instance::from_facts([fact("E", [3, 4])]);
        assert!(is_domain_distinct(&j, &i));
        assert!(!is_domain_disjoint(&j, &i));
        // E(1,2) is fully old -> not distinct.
        let k = Instance::from_facts([fact("E", [1, 2])]);
        assert!(!is_domain_distinct(&k, &i));
        assert!(!is_domain_disjoint(&k, &i));
    }

    #[test]
    fn disjoint_requires_all_new_values() {
        let i = base();
        let j = Instance::from_facts([fact("E", [10, 11]), fact("E", [11, 12])]);
        assert!(is_domain_disjoint(&j, &i));
        assert!(is_domain_distinct(&j, &i)); // disjoint implies distinct
        let mixed = Instance::from_facts([fact("E", [10, 11]), fact("E", [3, 10])]);
        assert!(!is_domain_disjoint(&mixed, &i));
        assert!(is_domain_distinct(&mixed, &i));
    }

    #[test]
    fn empty_extension_is_both() {
        let i = base();
        let j = Instance::new();
        assert!(is_domain_distinct(&j, &i));
        assert!(is_domain_disjoint(&j, &i));
    }

    #[test]
    fn induced_subinstance_definition() {
        // I = path 1->2->3, J = {E(1,2)}: adom(J)={1,2}, and I contains no
        // other fact over {1,2}, so J is induced.
        let i = base();
        let j = Instance::from_facts([fact("E", [1, 2])]);
        assert!(is_induced_subinstance(&j, &i));
        // J = {E(2,3)} over adom {2,3}: also induced.
        let j2 = Instance::from_facts([fact("E", [2, 3])]);
        assert!(is_induced_subinstance(&j2, &i));
        // Add E(2,2) to I: now {E(2,3)} misses a fact over {2,3}.
        let mut i2 = base();
        i2.insert(fact("E", [2, 2]));
        assert!(!is_induced_subinstance(&j2, &i2));
        // Not a subset at all.
        let j3 = Instance::from_facts([fact("E", [7, 7])]);
        assert!(!is_induced_subinstance(&j3, &i));
    }

    #[test]
    fn induced_iff_complement_distinct() {
        // Lemma 3.2's observation: J induced subinstance of I iff I \ J is
        // domain distinct from J.
        let i = base();
        let j = Instance::from_facts([fact("E", [1, 2])]);
        let complement = i.difference(&j);
        assert_eq!(
            is_induced_subinstance(&j, &i),
            is_domain_distinct(&complement, &j)
        );
    }
}
