//! Database schemas: finite maps from relation names to arities.

use crate::fact::{rel, RelName};
use std::collections::BTreeMap;
use std::fmt;

/// A database schema `σ`: a collection of relation names with arities.
///
/// All arities are at least 1 (the paper's standing assumption). Schemas are
/// value types with deterministic iteration order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Schema {
    relations: BTreeMap<RelName, usize>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Build a schema from `(name, arity)` pairs.
    ///
    /// # Panics
    /// As [`Schema::add`] does, on any pair.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Self {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.add(name, arity);
        }
        s
    }

    /// Add a relation. Re-adding it with the same arity is a no-op.
    ///
    /// # Panics
    /// If `arity == 0`, or the relation is there with another arity.
    /// (The text parser refuses both before it builds a schema.)
    pub fn add(&mut self, name: &str, arity: usize) -> &mut Self {
        assert!(arity > 0, "relation {name} has arity 0");
        match self.relations.get(name) {
            Some(&first) => assert_eq!(first, arity, "relation {name}: conflicting arities"),
            None => _ = self.relations.insert(rel(name), arity),
        }
        self
    }

    /// Look up the arity of a relation.
    pub fn arity(&self, name: &str) -> Option<usize> {
        self.relations.get(name).copied()
    }

    /// Whether the schema contains the relation.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate `(name, arity)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, usize)> {
        self.relations.iter().map(|(n, &a)| (n, a))
    }

    /// Relation names in deterministic order.
    pub fn names(&self) -> impl Iterator<Item = &RelName> {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Union of two schemas.
    ///
    /// # Panics
    /// As [`Schema::add`] does, on a relation of both with two arities.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut out = self.clone();
        for (name, arity) in other.iter() {
            out.add(name, arity);
        }
        out
    }

    /// Whether the two schemas share no relation names.
    pub fn is_disjoint(&self, other: &Schema) -> bool {
        self.names().all(|n| !other.contains(n))
    }

    /// The schema restricted to relation names satisfying the predicate.
    pub fn filter(&self, mut keep: impl FnMut(&str) -> bool) -> Schema {
        Schema {
            relations: self
                .relations
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, &a)| (n.clone(), a))
                .collect(),
        }
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, a)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}({a})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let s = Schema::from_pairs([("E", 2), ("V", 1)]);
        assert_eq!(s.arity("E"), Some(2));
        assert_eq!(s.arity("V"), Some(1));
        assert_eq!(s.arity("X"), None);
        assert!(s.contains("E"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic]
    fn add_rejects_nullary() {
        Schema::new().add("P", 0);
    }

    #[test]
    #[should_panic]
    fn add_rejects_conflicting_arity() {
        let mut s = Schema::from_pairs([("E", 2)]);
        s.add("E", 2);
        assert_eq!(s.arity("E"), Some(2));
        s.add("E", 3);
    }

    #[test]
    #[should_panic]
    fn from_pairs_rejects_nullary() {
        Schema::from_pairs([("E", 2), ("P", 0)]);
    }

    #[test]
    #[should_panic]
    fn from_pairs_rejects_conflicting_arity() {
        Schema::from_pairs([("E", 2), ("E", 3)]);
    }

    #[test]
    #[should_panic]
    fn union_rejects_conflicting_arity() {
        Schema::from_pairs([("E", 2)]).union(&Schema::from_pairs([("E", 3)]));
    }

    #[test]
    fn union_and_disjoint() {
        let a = Schema::from_pairs([("E", 2)]);
        let b = Schema::from_pairs([("V", 1)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(a.is_disjoint(&b));
        assert!(!u.is_disjoint(&a));
    }

    #[test]
    fn filter_restricts() {
        let s = Schema::from_pairs([("E", 2), ("V", 1), ("Out", 1)]);
        let f = s.filter(|n| n != "Out");
        assert_eq!(f.len(), 2);
        assert!(!f.contains("Out"));
    }
}
