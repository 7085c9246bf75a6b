//! Facts: ground atoms `R(d1, ..., dk)`.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An interned relation name. Cheap to clone and compare.
pub type RelName = Arc<str>;

/// Construct a relation name.
pub fn rel(name: impl AsRef<str>) -> RelName {
    Arc::from(name.as_ref())
}

/// A ground fact `R(d1, ..., dk)` with `k >= 1`.
///
/// The paper restricts attention to relations of arity at least one
/// (Section 2); [`Fact::new`] enforces this.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    relation: RelName,
    args: Vec<Value>,
}

impl Fact {
    /// Create a fact. Panics if `args` is empty (nullary facts are outside
    /// the paper's model, see Sections 2 and 7).
    pub fn new(relation: impl AsRef<str>, args: Vec<Value>) -> Self {
        assert!(
            !args.is_empty(),
            "nullary facts are not supported (paper assumes arity >= 1)"
        );
        Fact {
            relation: rel(relation),
            args,
        }
    }

    /// Create a fact from an already-interned relation name.
    pub fn from_rel(relation: RelName, args: Vec<Value>) -> Self {
        assert!(!args.is_empty(), "nullary facts are not supported");
        Fact { relation, args }
    }

    /// The relation name.
    pub fn relation(&self) -> &RelName {
        &self.relation
    }

    /// The argument tuple.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// The argument tuple, to overwrite in place: a caller asking about
    /// many tuples of one relation reuses one fact (the arity stays).
    pub fn args_mut(&mut self) -> &mut [Value] {
        &mut self.args
    }

    /// The arity of the fact.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterate over the values occurring in this fact (`adom(f)`, with
    /// duplicates).
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.args.iter()
    }

    /// Whether any argument is an invented (Skolem) value.
    pub fn has_invented_value(&self) -> bool {
        self.args.iter().any(Value::is_invented)
    }

    /// Apply a value substitution to every argument, producing a new fact.
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Fact {
        Fact {
            relation: self.relation.clone(),
            args: self.args.iter().map(&mut f).collect(),
        }
    }

    /// Consume the fact and return its parts.
    pub fn into_parts(self) -> (RelName, Vec<Value>) {
        (self.relation, self.args)
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_fact(f, &self.relation, &self.args)
    }
}

/// Write `R(d1,...,dk)` — the text of a [`Fact`] — from borrowed parts,
/// for printing the tuples of an [`crate::Instance`] without building a
/// fact (a clone of the tuple) for each.
pub fn write_fact(out: &mut impl fmt::Write, relation: &str, args: &[Value]) -> fmt::Result {
    write!(out, "{relation}(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{a}")?;
    }
    out.write_char(')')
}

/// Shorthand for building a fact, used pervasively in tests:
/// `fact("E", [1, 2])`.
pub fn fact<V: Into<Value>, const N: usize>(relation: &str, args: [V; N]) -> Fact {
    Fact::new(relation, args.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::v;

    #[test]
    fn fact_accessors() {
        let f = fact("E", [1, 2]);
        assert_eq!(f.relation().as_ref(), "E");
        assert_eq!(f.args(), &[v(1), v(2)]);
        assert_eq!(f.arity(), 2);
        assert_eq!(f.to_string(), "E(1,2)");
    }

    #[test]
    #[should_panic(expected = "nullary")]
    fn nullary_facts_rejected() {
        let _ = Fact::new("P", vec![]);
    }

    #[test]
    fn facts_compare_by_relation_then_args() {
        let a = fact("E", [1, 2]);
        let b = fact("E", [1, 3]);
        let c = fact("F", [0, 0]);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a, fact("E", [1, 2]));
    }

    #[test]
    fn map_values_substitutes() {
        let f = fact("E", [1, 2]);
        let g = f.map_values(|x| match x {
            Value::Int(i) => Value::Int(i + 10),
            other => other.clone(),
        });
        assert_eq!(g, fact("E", [11, 12]));
    }

    #[test]
    fn invented_detection() {
        let f = fact("E", [1, 2]);
        assert!(!f.has_invented_value());
        let g = Fact::new("E", vec![v(1), Value::skolem("f", vec![v(2)])]);
        assert!(g.has_invented_value());
    }
}
