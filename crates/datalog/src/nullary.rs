//! Nullary relations via the Section-7 encoding.
//!
//! The paper's model (and this workspace) excludes nullary relations; §7
//! explains the restriction is practical, not fundamental: with general
//! policies everything carries over, and for domain-guided policies one
//! additionally requires every nullary fact to be assigned to **all**
//! nodes (a nullary fact is never domain-disjoint from anything).
//!
//! This module implements the standard encoding: a conceptually nullary
//! atom `R()` becomes the unary atom `R(⊥)` over the reserved marker
//! value [`marker`]. [`encode_source`] rewrites program/fact text. For
//! domain-guided distribution, assign the marker value to every node (see
//! the test in `calm-transducer` exercising exactly that).

use calm_common::value::Value;

/// The reserved marker value standing in for "the" nullary tuple.
pub fn marker() -> Value {
    Value::str("\u{22a5}") // ⊥
}

/// Rewrite every nullary atom `Name()` in Datalog source (programs or
/// fact files) into `Name("⊥")`. Everything else is passed through
/// verbatim; string literals are respected.
pub fn encode_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_string {
            out.push(c);
            if c == '"' {
                in_string = false;
            }
            i += 1;
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
                i += 1;
            }
            '(' => {
                // Lookahead: an immediately-closing paren is a nullary
                // atom (allow interior whitespace).
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] as char == ')' {
                    out.push_str("(\"\u{22a5}\")");
                    i = j + 1;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_facts;
    use calm_common::fact::fact;
    use calm_common::instance::Instance;
    use calm_common::query::Query;

    #[test]
    fn encode_rewrites_nullary_atoms_only() {
        let src = "Nonempty() :- E(x,y).\nO(x,y) :- E(x,y), Nonempty().";
        let enc = encode_source(src);
        assert_eq!(
            enc,
            "Nonempty(\"⊥\") :- E(x,y).\nO(x,y) :- E(x,y), Nonempty(\"⊥\")."
        );
        // Non-nullary atoms untouched; strings untouched.
        let s2 = encode_source("R(\"()\", x) :- V(x).");
        assert_eq!(s2, "R(\"()\", x) :- V(x).");
    }

    #[test]
    fn encoded_program_evaluates() {
        let enc = encode_source(
            "@output O.\n\
             Nonempty() :- E(x,y).\n\
             O(x,y) :- E(x,y), Nonempty().",
        );
        let q = crate::DatalogQuery::parse("nullary", &enc).unwrap();
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let out = q.eval(&input);
        assert_eq!(out.relation_len("O"), 1);
    }

    #[test]
    fn encoded_nullary_facts_parse() {
        let enc = encode_source("Enabled(). E(1,2).");
        let i = parse_facts(&enc).unwrap();
        assert_eq!(i.len(), 2);
        assert!(i.contains(&fact("Enabled", [marker()])));
        assert!(i.contains(&fact("E", [1, 2])));
    }

    #[test]
    fn whitespace_inside_empty_parens() {
        assert_eq!(encode_source("F(  )."), "F(\"⊥\").");
    }

    #[test]
    fn marker_is_stable() {
        assert_eq!(marker(), Value::str("⊥"));
    }
}
