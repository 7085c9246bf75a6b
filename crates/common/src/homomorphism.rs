//! Homomorphisms between instances (Section 3.2).
//!
//! A homomorphism from `I` to `J` is a mapping `h : adom(I) → adom(J)` such
//! that `R(d̄) ∈ I` implies `R(h(d̄)) ∈ J`. These checkers are backtracking
//! searches — exponential in the worst case, intended for the small witness
//! instances used by the preservation-class experiments (`H`, `Hinj`, `E`).

use crate::instance::Instance;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A (partial or total) value mapping.
pub type ValueMap = BTreeMap<Value, Value>;

/// Apply a total mapping `h` to instance `I`, producing `h(I)`.
/// Values missing from the map are left unchanged.
pub fn apply(h: &ValueMap, i: &Instance) -> Instance {
    i.map_values(|v| h.get(v).cloned().unwrap_or_else(|| v.clone()))
}

/// Search for a homomorphism from `I` to `J`. Returns one if it exists.
pub fn find_homomorphism(i: &Instance, j: &Instance) -> Option<ValueMap> {
    search(i, j, false)
}

/// Search for an *injective* homomorphism from `I` to `J`.
pub fn find_injective_homomorphism(i: &Instance, j: &Instance) -> Option<ValueMap> {
    search(i, j, true)
}

/// Whether some homomorphism `I → J` exists.
pub fn has_homomorphism(i: &Instance, j: &Instance) -> bool {
    find_homomorphism(i, j).is_some()
}

/// Whether some injective homomorphism `I → J` exists.
pub fn has_injective_homomorphism(i: &Instance, j: &Instance) -> bool {
    find_injective_homomorphism(i, j).is_some()
}

/// Verify that `h` is a homomorphism from `I` to `J` (and injective if
/// `injective` is set). Total on `adom(I)` is required.
pub fn is_homomorphism(h: &ValueMap, i: &Instance, j: &Instance, injective: bool) -> bool {
    let adom_i = i.adom();
    if !adom_i.iter().all(|v| h.contains_key(v)) {
        return false;
    }
    if injective {
        let mut images = BTreeSet::new();
        for v in &adom_i {
            if !images.insert(h.get(v).unwrap().clone()) {
                return false;
            }
        }
    }
    apply(h, i).is_subset(j)
}

fn search(i: &Instance, j: &Instance, injective: bool) -> Option<ValueMap> {
    let facts: Vec<_> = i.facts().collect();
    if facts.is_empty() {
        return Some(ValueMap::new());
    }
    // Candidate targets per source fact: same-relation tuples of J.
    let mut assignment = ValueMap::new();
    let mut used: BTreeSet<Value> = BTreeSet::new();
    if backtrack(&facts, 0, j, injective, &mut assignment, &mut used) {
        Some(assignment)
    } else {
        None
    }
}

fn backtrack(
    facts: &[crate::fact::Fact],
    idx: usize,
    j: &Instance,
    injective: bool,
    assignment: &mut ValueMap,
    used: &mut BTreeSet<Value>,
) -> bool {
    let Some(f) = facts.get(idx) else {
        return true;
    };
    let candidates: Vec<Vec<Value>> = j.tuples(f.relation()).cloned().collect();
    'cand: for target in candidates {
        if target.len() != f.arity() {
            continue;
        }
        // Try to extend the assignment to map f's args onto target.
        let mut added: Vec<Value> = Vec::new();
        let mut added_used: Vec<Value> = Vec::new();
        for (src, dst) in f.args().iter().zip(target.iter()) {
            match assignment.get(src) {
                Some(existing) if existing == dst => {}
                Some(_) => {
                    retract_assignment(assignment, used, &added, &added_used);
                    continue 'cand;
                }
                None => {
                    if injective && used.contains(dst) {
                        retract_assignment(assignment, used, &added, &added_used);
                        continue 'cand;
                    }
                    assignment.insert(src.clone(), dst.clone());
                    added.push(src.clone());
                    if injective {
                        used.insert(dst.clone());
                        added_used.push(dst.clone());
                    }
                }
            }
        }
        if backtrack(facts, idx + 1, j, injective, assignment, used) {
            return true;
        }
        retract_assignment(assignment, used, &added, &added_used);
    }
    false
}

fn retract_assignment(
    assignment: &mut ValueMap,
    used: &mut BTreeSet<Value>,
    added: &[Value],
    added_used: &[Value],
) {
    for k in added {
        assignment.remove(k);
    }
    for u in added_used {
        used.remove(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::value::v;

    fn path(n: i64) -> Instance {
        Instance::from_facts((0..n).map(|k| fact("E", [k, k + 1])))
    }

    #[test]
    fn identity_homomorphism_exists() {
        let i = path(3);
        let h = find_homomorphism(&i, &i).expect("identity exists");
        assert!(is_homomorphism(&h, &i, &i, false));
    }

    #[test]
    fn path_maps_into_cycle() {
        // A path of any length maps homomorphically into a self-loop.
        let i = path(4);
        let j = Instance::from_facts([fact("E", [0, 0])]);
        let h = find_homomorphism(&i, &j).expect("collapse onto loop");
        assert!(is_homomorphism(&h, &i, &j, false));
        // But not injectively (5 values, 1 target).
        assert!(find_injective_homomorphism(&i, &j).is_none());
    }

    #[test]
    fn no_homomorphism_triangle_into_edge() {
        // Triangle (odd cycle) has no hom into a single directed edge graph
        // without loops.
        let tri = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("E", [3, 1])]);
        let edge = Instance::from_facts([fact("E", [1, 2])]);
        assert!(!has_homomorphism(&tri, &edge));
        // The reverse direction does exist: the edge maps into the triangle.
        assert!(has_homomorphism(&edge, &tri));
    }

    #[test]
    fn injective_requires_enough_targets() {
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [3, 4])]);
        let j = Instance::from_facts([
            fact("E", [10, 11]),
            fact("E", [12, 13]),
            fact("E", [11, 12]),
        ]);
        let h = find_injective_homomorphism(&i, &j).expect("two disjoint edges fit");
        assert!(is_homomorphism(&h, &i, &j, true));
        // Cannot embed two disjoint edges injectively into one edge.
        let one = Instance::from_facts([fact("E", [10, 11])]);
        assert!(!has_injective_homomorphism(&i, &one));
    }

    #[test]
    fn empty_source_always_maps() {
        assert!(has_homomorphism(&Instance::new(), &Instance::new()));
        assert!(has_injective_homomorphism(&Instance::new(), &path(2)));
    }

    #[test]
    fn is_homomorphism_rejects_partial_maps() {
        let i = path(2);
        let mut h = ValueMap::new();
        h.insert(v(0), v(0));
        // Not total on adom(I).
        assert!(!is_homomorphism(&h, &i, &i, false));
    }

    #[test]
    fn apply_images_facts() {
        let i = Instance::from_facts([fact("E", [1, 2])]);
        let mut h = ValueMap::new();
        h.insert(v(1), v(5));
        h.insert(v(2), v(6));
        assert_eq!(apply(&h, &i), Instance::from_facts([fact("E", [5, 6])]));
    }

    #[test]
    fn cross_relation_consistency() {
        // I: E(1,2), V(1). J: E(8,9), V(9). The only E-target forces 1->8,
        // but V needs 1->9 — contradiction, no homomorphism.
        let i = Instance::from_facts([fact("E", [1, 2]), fact("V", [1])]);
        let j = Instance::from_facts([fact("E", [8, 9]), fact("V", [9])]);
        assert!(!has_homomorphism(&i, &j));
        // Fix J so V(8) exists.
        let j2 = Instance::from_facts([fact("E", [8, 9]), fact("V", [8])]);
        assert!(has_homomorphism(&i, &j2));
    }
}
