//! Syntactic stratification (Section 2, "Stratified semantics").
//!
//! A program `P` is syntactically stratifiable when there is
//! `ρ : sch(P) → {1..|idb(P)|}` such that for every rule with head
//! predicate `T`: `ρ(R) ≤ ρ(T)` for positive idb body atoms `R`, and
//! `ρ(R) < ρ(T)` for negative idb body atoms `R`. We compute the *minimal*
//! such `ρ` by iterating the constraints to a fixpoint, failing when a
//! stratum number would exceed `|idb(P)|` (which happens exactly when a
//! cycle through negation exists).

use crate::program::Program;
use calm_common::fact::RelName;
use std::collections::BTreeMap;
use std::fmt;

/// A stratification of a program: stratum numbers for idb predicates and
/// the induced partition of the program into semi-positive subprograms
/// `P1, ..., Pk`.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Stratum number (1-based) of each idb predicate.
    pub stratum_of: BTreeMap<RelName, usize>,
    /// The partition `P1, ..., Pk` as programs (each stratum a program whose
    /// rules have head predicates with that stratum number).
    pub strata: Vec<Program>,
}

impl Stratification {
    /// Number of strata `k`.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether the stratification has no strata (the empty program).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Verify the defining property: every stratum is a semi-positive
    /// program relative to the strata below it — positive idb
    /// dependencies stay at or below the head's stratum, negative ones
    /// strictly below. Used as an internal consistency check by tests.
    pub fn verify(&self) -> bool {
        for (level, part) in self.strata.iter().enumerate() {
            let level = level + 1;
            for rule in part.rules() {
                if self.stratum_of.get(&rule.head.relation) != Some(&level) {
                    return false;
                }
                for a in &rule.pos {
                    if let Some(&s) = self.stratum_of.get(&a.relation) {
                        if s > level {
                            return false;
                        }
                    }
                }
                for a in &rule.neg {
                    if let Some(&s) = self.stratum_of.get(&a.relation) {
                        if s >= level {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// The error raised for non-stratifiable programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotStratifiable {
    /// A predicate involved in a negative cycle.
    pub witness: String,
}

impl fmt::Display for NotStratifiable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program is not syntactically stratifiable (negative cycle through {})",
            self.witness
        )
    }
}

impl std::error::Error for NotStratifiable {}

/// Compute the minimal syntactic stratification of `P`, or report that none
/// exists.
///
/// # Errors
/// Returns [`NotStratifiable`] when `P` has a cycle through negation.
pub fn stratify(p: &Program) -> Result<Stratification, NotStratifiable> {
    let idb = p.idb();
    let n = idb.len();
    let mut stratum: BTreeMap<RelName, usize> = idb.names().map(|r| (r.clone(), 1usize)).collect();
    if n == 0 {
        return Ok(Stratification {
            stratum_of: stratum,
            strata: Vec::new(),
        });
    }
    // Iterate constraints to fixpoint. Any predicate pushed above n
    // witnesses a negative cycle.
    loop {
        let mut changed = false;
        for rule in p.rules() {
            let head = rule.head.relation.clone();
            let head_stratum = stratum[&head];
            let mut required = head_stratum;
            for a in &rule.pos {
                if let Some(&s) = stratum.get(&a.relation) {
                    required = required.max(s);
                }
            }
            for a in &rule.neg {
                if let Some(&s) = stratum.get(&a.relation) {
                    required = required.max(s + 1);
                }
            }
            if required > head_stratum {
                if required > n {
                    return Err(NotStratifiable {
                        witness: head.to_string(),
                    });
                }
                stratum.insert(head, required);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Renumber to consecutive 1..k.
    let mut used: Vec<usize> = stratum.values().copied().collect();
    used.sort_unstable();
    used.dedup();
    let renumber: BTreeMap<usize, usize> =
        used.iter().enumerate().map(|(i, &s)| (s, i + 1)).collect();
    for s in stratum.values_mut() {
        *s = renumber[s];
    }
    let k = used.len();
    let strata = (1..=k)
        .map(|level| p.filter_rules(|rule| stratum[&rule.head.relation] == level))
        .collect();
    Ok(Stratification {
        stratum_of: stratum,
        strata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn positive_program_single_stratum() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.stratum_of.get("T" as &str).copied(), Some(1));
    }

    #[test]
    fn qtc_has_two_strata() {
        let p = parse_program(
            "Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).\n\
             T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- Adom(x), Adom(y), not T(x,y).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stratum_of["T"], 1);
        assert_eq!(s.stratum_of["Adom"], 1);
        assert_eq!(s.stratum_of["O"], 2);
        // Each stratum is semi-positive w.r.t. lower strata: stratum 2's
        // rules only negate stratum-1 predicates.
        assert_eq!(s.strata[0].rules().len(), 4);
        assert_eq!(s.strata[1].rules().len(), 1);
    }

    #[test]
    fn win_move_not_stratifiable() {
        let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
        let e = stratify(&p).unwrap_err();
        assert_eq!(e.witness, "win");
        assert!(stratify(&p).is_err());
    }

    #[test]
    fn three_level_chain() {
        let p = parse_program(
            "A(x) :- V(x).\n\
             B(x) :- V(x), not A(x).\n\
             C(x) :- V(x), not B(x).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.stratum_of["A"] < s.stratum_of["B"]);
        assert!(s.stratum_of["B"] < s.stratum_of["C"]);
    }

    #[test]
    fn positive_recursion_through_two_preds_ok() {
        let p = parse_program(
            "A(x) :- B(x).\n\
             B(x) :- A(x).\n\
             A(x) :- V(x).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn negative_cycle_of_length_two() {
        let p = parse_program(
            "A(x) :- V(x), not B(x).\n\
             B(x) :- V(x), not A(x).",
        )
        .unwrap();
        assert!(stratify(&p).is_err());
    }

    #[test]
    fn mixed_positive_negative_on_same_pred_ok() {
        // Negation on a predicate that is also used positively at a higher
        // stratum is fine as long as no cycle passes through the negation.
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             S(x) :- T(x,x).\n\
             O(x) :- S(x), not T(x,x).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_of["T"], 1);
        assert!(s.stratum_of["O"] >= 2);
    }

    #[test]
    fn verify_accepts_real_stratifications() {
        for src in [
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
            "A(x) :- V(x).\nB(x) :- V(x), not A(x).\nC(x) :- V(x), not B(x).",
            "Adom(x) :- E(x,y).\nAdom(y) :- E(x,y).\nT(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\nO(x,y) :- Adom(x), Adom(y), not T(x,y).",
        ] {
            let p = parse_program(src).unwrap();
            assert!(stratify(&p).unwrap().verify(), "on:\n{src}");
        }
    }

    #[test]
    fn empty_program_stratifies_trivially() {
        let p = crate::program::Program::new(vec![]).unwrap();
        let s = stratify(&p).unwrap();
        assert!(s.is_empty());
    }
}
