//! Database instances: finite sets of facts.

use crate::fact::{rel, write_fact, Fact, RelName};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A tuple of values (the arguments of one fact).
pub type Tuple = Vec<Value>;

/// A database instance: a finite set of facts, stored per relation with
/// deterministic iteration order.
///
/// `Instance` is the interchange type of the whole workspace: the Datalog
/// engine, the transducer simulator and the monotonicity checkers all
/// consume and produce instances. Equality is set equality of facts.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instance {
    relations: BTreeMap<RelName, BTreeSet<Tuple>>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Build an instance from an iterator of facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Self {
        let mut i = Instance::new();
        for f in facts {
            i.insert(f);
        }
        i
    }

    /// Insert a fact; returns `true` if it was not already present.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let (r, args) = fact.into_parts();
        self.relations.entry(r).or_default().insert(args)
    }

    /// Insert a tuple into a named relation; returns `true` if new.
    pub fn insert_tuple(&mut self, relation: &RelName, tuple: Tuple) -> bool {
        assert!(!tuple.is_empty(), "nullary facts are not supported");
        if let Some(set) = self.relations.get_mut(relation) {
            set.insert(tuple)
        } else {
            self.relations
                .entry(relation.clone())
                .or_default()
                .insert(tuple)
        }
    }

    /// Insert many tuples into a named relation. Into a relation the
    /// instance does not hold yet they are sorted and the set is built
    /// from the sorted run in one pass — what un-interning a whole
    /// stored relation wants — instead of one descent per tuple.
    pub fn extend_relation(&mut self, relation: &RelName, tuples: impl IntoIterator<Item = Tuple>) {
        match self.relations.get_mut(relation) {
            Some(set) => set.extend(tuples),
            None => {
                let set: BTreeSet<Tuple> = tuples.into_iter().collect();
                if !set.is_empty() {
                    self.relations.insert(relation.clone(), set);
                }
            }
        }
    }

    /// Remove a fact; returns `true` if it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        if let Some(set) = self.relations.get_mut(fact.relation()) {
            let removed = set.remove(fact.args());
            if set.is_empty() {
                self.relations.remove(fact.relation());
            }
            removed
        } else {
            false
        }
    }

    /// Whether the instance contains the fact.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(fact.relation())
            .is_some_and(|s| s.contains(fact.args()))
    }

    /// Whether the named relation contains the tuple.
    pub fn contains_tuple(&self, relation: &str, tuple: &[Value]) -> bool {
        self.relations
            .get(relation)
            .is_some_and(|s| s.contains(tuple))
    }

    /// Number of facts `|I|`.
    pub fn len(&self) -> usize {
        self.relations.values().map(BTreeSet::len).sum()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterate all facts in deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations.iter().flat_map(|(r, tuples)| {
            tuples
                .iter()
                .map(move |t| Fact::from_rel(r.clone(), t.clone()))
        })
    }

    /// Iterate all facts in the same order as borrowed `(relation,
    /// tuple)` pairs — what [`Instance::facts`] clones into [`Fact`]s.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Tuple)> + '_ {
        (self.relations.iter()).flat_map(|(r, tuples)| tuples.iter().map(move |t| (r, t)))
    }

    /// Iterate the tuples of one relation (empty if absent).
    pub fn tuples(&self, relation: &str) -> impl Iterator<Item = &Tuple> + '_ {
        self.relations
            .get(relation)
            .into_iter()
            .flat_map(BTreeSet::iter)
    }

    /// Number of tuples in one relation.
    pub fn relation_len(&self, relation: &str) -> usize {
        self.relations.get(relation).map_or(0, BTreeSet::len)
    }

    /// The relation names that are non-empty, in deterministic order.
    pub fn relation_names(&self) -> impl Iterator<Item = &RelName> {
        self.relations.keys()
    }

    /// The active domain `adom(I)`: every value occurring in some fact.
    pub fn adom(&self) -> BTreeSet<Value> {
        self.relations
            .values()
            .flat_map(|tuples| tuples.iter().flatten())
            .cloned()
            .collect()
    }

    /// `I|σ`: the maximal subset of `I` over schema `σ`.
    pub fn restrict(&self, schema: &Schema) -> Instance {
        Instance {
            relations: self
                .relations
                .iter()
                .filter_map(|(r, tuples)| {
                    let arity = schema.arity(r)?;
                    let kept: BTreeSet<Tuple> = tuples
                        .iter()
                        .filter(|t| t.len() == arity)
                        .cloned()
                        .collect();
                    if kept.is_empty() {
                        None
                    } else {
                        Some((r.clone(), kept))
                    }
                })
                .collect(),
        }
    }

    /// Set union `I ∪ J`.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        out.extend(other.facts());
        out
    }

    /// Set difference `I \ J`.
    pub fn difference(&self, other: &Instance) -> Instance {
        Instance {
            relations: self
                .relations
                .iter()
                .filter_map(|(r, tuples)| {
                    let kept: BTreeSet<Tuple> = match other.relations.get(r) {
                        Some(theirs) => tuples.difference(theirs).cloned().collect(),
                        None => tuples.clone(),
                    };
                    if kept.is_empty() {
                        None
                    } else {
                        Some((r.clone(), kept))
                    }
                })
                .collect(),
        }
    }

    /// Set intersection `I ∩ J`.
    pub fn intersection(&self, other: &Instance) -> Instance {
        Instance {
            relations: self
                .relations
                .iter()
                .filter_map(|(r, tuples)| {
                    let theirs = other.relations.get(r)?;
                    let kept: BTreeSet<Tuple> = tuples.intersection(theirs).cloned().collect();
                    if kept.is_empty() {
                        None
                    } else {
                        Some((r.clone(), kept))
                    }
                })
                .collect(),
        }
    }

    /// Whether `self ⊆ other` as sets of facts.
    pub fn is_subset(&self, other: &Instance) -> bool {
        self.relations.iter().all(|(r, tuples)| {
            other
                .relations
                .get(r)
                .is_some_and(|theirs| tuples.is_subset(theirs))
        })
    }

    /// Keep only the facts satisfying the predicate.
    pub fn retain(&mut self, mut keep: impl FnMut(&RelName, &Tuple) -> bool) {
        self.relations.retain(|r, tuples| {
            tuples.retain(|t| keep(r, t));
            !tuples.is_empty()
        });
    }

    /// Keep only the relations satisfying the predicate, whole — one
    /// test per relation, not per tuple.
    pub fn retain_relations(&mut self, mut keep: impl FnMut(&RelName) -> bool) {
        self.relations.retain(|r, _| keep(r));
    }

    /// Apply a value mapping to every fact (the image instance `h(I)`).
    pub fn map_values(&self, mut h: impl FnMut(&Value) -> Value) -> Instance {
        let mut out = Instance::new();
        for (r, tuples) in &self.relations {
            for t in tuples {
                out.insert_tuple(&rel(r.as_ref()), t.iter().map(&mut h).collect());
            }
        }
        out
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        Instance::from_facts(iter)
    }
}

/// The facts by value, in the order of [`Instance::facts`], without a
/// clone of any tuple.
impl IntoIterator for Instance {
    type Item = Fact;
    type IntoIter = Box<dyn Iterator<Item = Fact>>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.relations.into_iter().flat_map(|(r, tuples)| {
            tuples
                .into_iter()
                .map(move |t| Fact::from_rel(r.clone(), t))
        }))
    }
}

impl Extend<Fact> for Instance {
    fn extend<T: IntoIterator<Item = Fact>>(&mut self, iter: T) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (relation, tuple)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write_fact(f, relation, tuple)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::value::v;

    fn abc() -> Instance {
        Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("V", [9])])
    }

    #[test]
    fn insert_contains_remove() {
        let mut i = Instance::new();
        assert!(i.insert(fact("E", [1, 2])));
        assert!(!i.insert(fact("E", [1, 2])));
        assert!(i.contains(&fact("E", [1, 2])));
        assert!(!i.contains(&fact("E", [2, 1])));
        assert!(i.remove(&fact("E", [1, 2])));
        assert!(!i.remove(&fact("E", [1, 2])));
        assert!(i.is_empty());
    }

    #[test]
    fn len_counts_all_relations() {
        assert_eq!(abc().len(), 3);
        assert_eq!(abc().relation_len("E"), 2);
        assert_eq!(abc().relation_len("V"), 1);
        assert_eq!(abc().relation_len("X"), 0);
    }

    #[test]
    fn adom_collects_all_values() {
        let d = abc().adom();
        assert_eq!(
            d,
            [v(1), v(2), v(3), v(9)]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn restrict_projects_schema() {
        let s = Schema::from_pairs([("E", 2)]);
        let r = abc().restrict(&s);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&fact("E", [1, 2])));
        assert!(!r.contains(&fact("V", [9])));
        // Arity mismatch filters facts out.
        let s3 = Schema::from_pairs([("E", 3)]);
        assert!(abc().restrict(&s3).is_empty());
    }

    #[test]
    fn set_algebra() {
        let i = abc();
        let j = Instance::from_facts([fact("E", [2, 3]), fact("E", [3, 4])]);
        let u = i.union(&j);
        assert_eq!(u.len(), 4);
        let d = i.difference(&j);
        assert_eq!(d.len(), 2);
        assert!(d.contains(&fact("E", [1, 2])));
        assert!(d.contains(&fact("V", [9])));
        let x = i.intersection(&j);
        assert_eq!(x.len(), 1);
        assert!(x.contains(&fact("E", [2, 3])));
        assert!(d.is_subset(&i));
        assert!(x.is_subset(&i));
        assert!(x.is_subset(&j));
        assert!(!i.is_subset(&j));
        assert!(i.is_subset(&u));
    }

    #[test]
    fn map_values_is_image() {
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 1])]);
        let h = i.map_values(|val| match val {
            Value::Int(_) => v(0),
            other => other.clone(),
        });
        // Both facts collapse to E(0,0).
        assert_eq!(h.len(), 1);
        assert!(h.contains(&fact("E", [0, 0])));
    }

    #[test]
    fn deterministic_iteration() {
        let i = abc();
        let order: Vec<String> = i.facts().map(|f| f.to_string()).collect();
        assert_eq!(order, vec!["E(1,2)", "E(2,3)", "V(9)"]);
    }

    #[test]
    fn borrowed_iteration_and_printing_match_the_facts() {
        let i = abc();
        let pairs: Vec<Fact> = (i.iter())
            .map(|(r, t)| Fact::from_rel(r.clone(), t.clone()))
            .collect();
        assert_eq!(pairs, i.facts().collect::<Vec<_>>());
        assert_eq!(format!("{i}"), "{E(1,2), E(2,3), V(9)}");
        assert_eq!(format!("{i:?}"), format!("{i}"));
        assert_eq!(format!("{}", Instance::new()), "{}");
    }

    #[test]
    fn retain_filters_in_place() {
        let mut i = abc();
        i.retain(|r, _| r.as_ref() == "E");
        assert_eq!(i.len(), 2);
        assert!(!i.contains(&fact("V", [9])));
    }

    #[test]
    fn retain_relations_and_owned_iteration() {
        let mut i = abc();
        i.retain_relations(|r| r.as_ref() == "E");
        assert_eq!(
            i,
            Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])])
        );
        let owned: Vec<Fact> = abc().into_iter().collect();
        assert_eq!(owned, abc().facts().collect::<Vec<_>>());
    }
}
