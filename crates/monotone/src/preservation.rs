//! Preservation classes `H`, `Hinj`, `E` (Section 3.2, Lemma 3.2):
//! `H ⊊ Hinj = M ⊊ E = Mdistinct`.

use calm_common::domain::is_induced_subinstance;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::rng::Rng;
use calm_common::value::{v, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A (partial or total) value mapping.
pub type ValueMap = BTreeMap<Value, Value>;

/// `h(I)`: apply `h` to every value of `I`, leaving the values it does
/// not map unchanged.
fn apply(h: &ValueMap, i: &Instance) -> Instance {
    i.map_values(|v| h.get(v).cloned().unwrap_or_else(|| v.clone()))
}

/// A witnessed preservation failure.
#[derive(Debug, Clone)]
pub struct PreservationViolation {
    /// Source instance `I`.
    pub source: Instance,
    /// Target instance `J`.
    pub target: Instance,
    /// The (injective) homomorphism used.
    pub map: ValueMap,
    /// Output facts whose image is missing from `Q(J)`.
    pub lost: Instance,
}

/// Check preservation under one specific homomorphism `h : I → J`
/// (`h(Q(I)) ⊆ Q(J)`), assuming `h` maps `I` into `J`.
pub fn check_homomorphism_preservation(
    q: &dyn Query,
    i: &Instance,
    j: &Instance,
    h: &ValueMap,
) -> Option<PreservationViolation> {
    debug_assert!(apply(h, i).is_subset(j), "h must be a homomorphism");
    let image = apply(h, &q.eval(i));
    let out_j = q.eval(j);
    let lost = image.difference(&out_j);
    if lost.is_empty() {
        None
    } else {
        Some(PreservationViolation {
            source: i.clone(),
            target: j.clone(),
            map: h.clone(),
            lost,
        })
    }
}

/// Check preservation under extensions for one induced subinstance:
/// `Q(J) ⊆ Q(I)` where `J` is an induced subinstance of `I`.
pub fn check_extension_preservation(
    q: &dyn Query,
    j: &Instance,
    i: &Instance,
) -> Option<PreservationViolation> {
    debug_assert!(is_induced_subinstance(j, i));
    let out_j = q.eval(j);
    let out_i = q.eval(i);
    let lost = out_j.difference(&out_i);
    if lost.is_empty() {
        None
    } else {
        Some(PreservationViolation {
            source: j.clone(),
            target: i.clone(),
            map: ValueMap::new(),
            lost,
        })
    }
}

/// Randomized falsifier for `H` (preservation under homomorphisms):
/// generates `I`, a random value map `h`, sets `J = h(I)` plus optional
/// extra facts, and checks. A hit certifies `Q ∉ H`.
pub fn falsify_homomorphism_preservation(
    q: &dyn Query,
    mut base_gen: impl FnMut(&mut Rng) -> Instance,
    injective: bool,
    trials: usize,
    seed: u64,
) -> Option<PreservationViolation> {
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..trials {
        let i = base_gen(&mut rng);
        let adom: Vec<Value> = i.adom().into_iter().collect();
        if adom.is_empty() {
            continue;
        }
        let h = if injective {
            // A random injective renaming into a shifted range.
            let offset = rng.gen_range(100..200i64);
            adom.iter()
                .enumerate()
                .map(|(idx, val)| (val.clone(), v(offset + idx as i64)))
                .collect::<ValueMap>()
        } else {
            // A random (possibly collapsing) map into a small target set.
            let targets: Vec<Value> = (0..rng.gen_range(1..=adom.len() as i64))
                .map(|k| v(500 + k))
                .collect();
            adom.iter()
                .map(|val| {
                    (
                        val.clone(),
                        targets[rng.gen_range(0..targets.len())].clone(),
                    )
                })
                .collect::<ValueMap>()
        };
        let mut j = apply(&h, &i);
        // Occasionally enlarge the target with fresh junk (preservation
        // must hold into any superset of the image).
        if rng.gen_bool(0.5) {
            j.extend(
                crate::classes::sample_extension(
                    q.input_schema(),
                    &j,
                    crate::classes::ExtensionKind::Any,
                    rng.gen_range(0..3usize),
                    &mut rng,
                )
                .facts(),
            );
        }
        if let Some(violation) = check_homomorphism_preservation(q, &i, &j, &h) {
            return Some(violation);
        }
    }
    None
}

/// Randomized falsifier for `E` (preservation under extensions): generate
/// `I`, carve out a random induced subinstance `J`, check
/// `Q(J) ⊆ Q(I)`.
pub fn falsify_extension_preservation(
    q: &dyn Query,
    mut base_gen: impl FnMut(&mut Rng) -> Instance,
    trials: usize,
    seed: u64,
) -> Option<PreservationViolation> {
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..trials {
        let i = base_gen(&mut rng);
        let j = random_induced_subinstance(&i, &mut rng);
        if let Some(violation) = check_extension_preservation(q, &j, &i) {
            return Some(violation);
        }
    }
    None
}

/// A random induced subinstance: pick a random subset of `adom(I)` and
/// keep exactly the facts over it.
pub fn random_induced_subinstance(i: &Instance, rng: &mut Rng) -> Instance {
    let adom: Vec<Value> = i.adom().into_iter().collect();
    let keep: BTreeSet<Value> = adom.into_iter().filter(|_| rng.gen_bool(0.6)).collect();
    Instance::from_facts(
        i.facts()
            .filter(|f| f.values().all(|val| keep.contains(val))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::generator::InstanceRng;
    use calm_common::query::FnQuery;
    use calm_common::schema::Schema;

    fn edges_neq() -> impl Query {
        // O(x,y) :- E(x,y), x != y — in M (= Hinj) but NOT in H.
        FnQuery::new(
            "edges-neq",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("O", 2)]),
            |i: &Instance| {
                Instance::from_facts(
                    i.tuples("E")
                        .filter(|t| t[0] != t[1])
                        .map(|t| fact("O", [t[0].clone(), t[1].clone()])),
                )
            },
        )
    }

    fn copy_query() -> impl Query {
        FnQuery::new(
            "copy",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("O", 2)]),
            |i: &Instance| {
                Instance::from_facts(
                    i.tuples("E")
                        .map(|t| fact("O", [t[0].clone(), t[1].clone()])),
                )
            },
        )
    }

    #[test]
    fn neq_query_breaks_h_but_not_hinj() {
        // Collapsing x and y kills O(x,y): not preserved under general
        // homomorphisms...
        let q = edges_neq();
        let hit = falsify_homomorphism_preservation(
            &q,
            |rng| InstanceRng::seeded(rng.gen_u64()).gnp(4, 0.5),
            false,
            200,
            1,
        );
        assert!(hit.is_some(), "Q ∉ H (Lemma 3.2 separation)");
        // ...but injective homomorphisms preserve it.
        let inj = falsify_homomorphism_preservation(
            &q,
            |rng| InstanceRng::seeded(rng.gen_u64()).gnp(4, 0.5),
            true,
            200,
            2,
        );
        assert!(inj.is_none(), "Q ∈ Hinj");
    }

    #[test]
    fn copy_query_preserved_everywhere() {
        let q = copy_query();
        assert!(falsify_homomorphism_preservation(
            &q,
            |rng| InstanceRng::seeded(rng.gen_u64()).gnp(4, 0.4),
            false,
            100,
            3,
        )
        .is_none());
        assert!(falsify_extension_preservation(
            &q,
            |rng| InstanceRng::seeded(rng.gen_u64()).gnp(4, 0.4),
            100,
            4,
        )
        .is_none());
    }

    #[test]
    fn random_induced_subinstance_is_induced() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..20 {
            let i = InstanceRng::seeded(rng.gen_u64()).gnp(5, 0.5);
            let j = random_induced_subinstance(&i, &mut rng);
            assert!(is_induced_subinstance(&j, &i));
        }
    }

    #[test]
    fn extension_preservation_violation_detected() {
        // "Graph is empty" query: Q(∅) nonempty but Q(I) empty.
        let q = FnQuery::new(
            "is-empty",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("O", 1)]),
            |i: &Instance| {
                if i.relation_len("E") == 0 {
                    Instance::from_facts([fact("O", [0])])
                } else {
                    Instance::new()
                }
            },
        );
        let hit = falsify_extension_preservation(
            &q,
            |rng| InstanceRng::seeded(rng.gen_u64()).gnp(3, 0.8),
            100,
            5,
        );
        assert!(hit.is_some());
    }
}
