//! Domain values.
//!
//! The paper assumes an infinite universe **dom** of data values. We model a
//! value as either a 64-bit integer, an interned string symbol, or a Skolem
//! term (used by ILOG¬ value invention, see the `calm-ilog` crate). Node
//! identifiers of a network are ordinary values, matching the paper's remark
//! that "node identifiers can occur as data in relations" (Section 4.1.1).

use std::fmt;
use std::sync::Arc;

/// A single data value from **dom**.
///
/// Values are cheap to clone (`Arc`-backed for the non-integer variants),
/// totally ordered (so instances can be stored deterministically) and
/// hashable.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A named (string) value.
    Str(Arc<str>),
    /// An invented value: a ground Skolem term `f(v1, ..., vk)`.
    ///
    /// Skolem terms only arise from ILOG¬ evaluation; plain Datalog¬
    /// programs never construct them. Two invented values are equal iff
    /// their functor and arguments are equal (Herbrand interpretation).
    Skolem(Arc<SkolemTerm>),
}

/// A ground Skolem term `functor(args...)` over the Herbrand universe.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SkolemTerm {
    /// The Skolem functor name, e.g. `f_R` for invention relation `R`.
    pub functor: Arc<str>,
    /// The (ground) argument values.
    pub args: Vec<Value>,
}

impl SkolemTerm {
    /// The nesting depth of this term (a term with no Skolem arguments has
    /// depth 1). Used to bound Herbrand evaluation (divergence cutoff).
    fn depth(&self) -> usize {
        1 + self.args.iter().map(Value::skolem_depth).max().unwrap_or(0)
    }
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Construct an invented (Skolem) value.
    pub fn skolem(functor: impl AsRef<str>, args: Vec<Value>) -> Self {
        Value::Skolem(Arc::new(SkolemTerm {
            functor: Arc::from(functor.as_ref()),
            args,
        }))
    }

    /// Whether this value is an invented (Skolem) value.
    pub fn is_invented(&self) -> bool {
        matches!(self, Value::Skolem(_))
    }

    /// Skolem nesting depth: 0 for base values, term depth otherwise.
    pub fn skolem_depth(&self) -> usize {
        match self {
            Value::Skolem(t) => t.depth(),
            _ => 0,
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Whether a string value prints bare: only when the facts grammar reads
/// the bare text back as this string — an identifier, its first character
/// alphabetic or `_`, the others alphanumeric, `_` or `'`. Any other string
/// prints quoted, so no two values print alike. (The grammar has no
/// escapes: a string holding `"` has no spelling.)
pub(crate) fn prints_bare(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_' || c == '\'')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) if prints_bare(s) => f.write_str(s),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Skolem(t) => write!(f, "{t}"),
        }
    }
}

impl fmt::Debug for SkolemTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SkolemTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.functor)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// Shorthand for an integer value; used pervasively in tests and examples.
pub fn v(i: i64) -> Value {
    Value::Int(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_equality_and_ordering() {
        assert_eq!(v(1), Value::Int(1));
        assert_ne!(v(1), v(2));
        assert!(v(1) < v(2));
        assert_eq!(Value::str("a"), Value::from("a"));
        assert_ne!(Value::str("a"), v(1));
    }

    #[test]
    fn skolem_terms_are_herbrand() {
        let t1 = Value::skolem("f", vec![v(1), v(2)]);
        let t2 = Value::skolem("f", vec![v(1), v(2)]);
        let t3 = Value::skolem("f", vec![v(2), v(1)]);
        let t4 = Value::skolem("g", vec![v(1), v(2)]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_ne!(t1, t4);
    }

    #[test]
    fn skolem_depth_nests() {
        let base = v(7);
        assert_eq!(base.skolem_depth(), 0);
        let d1 = Value::skolem("f", vec![v(1)]);
        assert_eq!(d1.skolem_depth(), 1);
        let d2 = Value::skolem("g", vec![d1.clone(), v(2)]);
        assert_eq!(d2.skolem_depth(), 2);
        let d3 = Value::skolem("f", vec![d2]);
        assert_eq!(d3.skolem_depth(), 3);
        assert!(d3.is_invented());
        assert!(!base.is_invented());
    }

    #[test]
    fn display_forms() {
        assert_eq!(v(3).to_string(), "3");
        assert_eq!(Value::str("abc").to_string(), "abc");
        let t = Value::skolem("f_R", vec![v(1), Value::str("x")]);
        assert_eq!(t.to_string(), "f_R(1,x)");
        // A string prints bare only as an identifier, else quoted.
        for bare in ["_x", "x'", "n1", "élan"] {
            assert_eq!(Value::str(bare).to_string(), bare);
        }
        for quoted in ["", "5", "-1", "a b", "x,y", "(", "f(1)", "'a", "x.y"] {
            assert_eq!(Value::str(quoted).to_string(), format!("\"{quoted}\""));
        }
        let t = Value::skolem("g", vec![Value::str("a b"), Value::skolem("f", vec![v(1)])]);
        assert_eq!(t.to_string(), "g(\"a b\",f(1))");
    }
}
