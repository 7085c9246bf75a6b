//! Fragment analysis (Sections 2 and 5.1).
//!
//! Classifies programs into the fragments of Figure 2:
//! `Datalog` ⊂ `Datalog(≠)` ⊂ `SP-Datalog` ⊂ `semicon-Datalog¬` ⊂
//! `Datalog¬` (stratified), and the connected fragment `con-Datalog¬`.
//!
//! Connectivity (Definition 4): `graph+(ϕ)` has the variables of the
//! positive body atoms as nodes and an edge between two variables that
//! occur together in a positive body atom; `ϕ` is *connected* when
//! `graph+(ϕ)` is connected. A stratified program is **connected** when
//! some stratification makes every stratum a connected SP-Datalog program
//! (equivalently: every rule is connected), and **semi-connected** when
//! some stratification makes every stratum except possibly the last
//! connected.

use crate::ast::{Rule, Var};
use crate::program::Program;
use crate::stratify::stratify;
use calm_common::fact::RelName;
use std::collections::{BTreeMap, BTreeSet};

/// Whether `graph+(ϕ)` is connected.
///
/// A rule whose positive atoms contain at most one variable (or none) is
/// trivially connected.
pub fn is_rule_connected(rule: &Rule) -> bool {
    let vars: Vec<Var> = rule.positive_variables().into_iter().collect();
    if vars.len() <= 1 {
        return true;
    }
    let index: BTreeMap<&Var, usize> = vars.iter().enumerate().map(|(i, v)| (v, i)).collect();
    // Union-find over variables.
    let mut parent: Vec<usize> = (0..vars.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for atom in &rule.pos {
        let atom_vars: Vec<usize> = atom.variables().map(|v| index[v]).collect();
        for w in atom_vars.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                parent[a] = b;
            }
        }
    }
    let root = find(&mut parent, 0);
    (1..vars.len()).all(|i| find(&mut parent, i) == root)
}

/// The fragments of Figure 2 that a program can syntactically inhabit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentReport {
    /// Positive, no inequalities (`Datalog`).
    pub datalog: bool,
    /// Positive, inequalities allowed (`Datalog(≠)`).
    pub datalog_neq: bool,
    /// Semi-positive (`SP-Datalog`): negation only on edb relations.
    pub sp_datalog: bool,
    /// Syntactically stratifiable (`Datalog¬` in the paper's usage).
    pub stratifiable: bool,
    /// Connected stratified program (`con-Datalog¬`).
    pub connected: bool,
    /// Semi-connected stratified program (`semicon-Datalog¬`).
    pub semi_connected: bool,
}

/// Classify a program into the fragments of Figure 2.
pub fn classify(p: &Program) -> FragmentReport {
    let positive = p.is_positive();
    let stratifiable = stratify(p).is_ok();
    FragmentReport {
        datalog: positive && !p.uses_inequalities(),
        datalog_neq: positive,
        sp_datalog: p.is_semi_positive(),
        stratifiable,
        connected: stratifiable && is_connected_program(p),
        semi_connected: stratifiable && is_semi_connected_program(p),
    }
}

/// `con-Datalog¬`: stratifiable and every rule connected. (When every rule
/// is connected, *any* stratification consists of connected SP-Datalog
/// strata, so the exists-a-stratification condition reduces to a per-rule
/// check.)
pub fn is_connected_program(p: &Program) -> bool {
    stratify(p).is_ok() && p.rules().iter().all(is_rule_connected)
}

/// `semicon-Datalog¬`: stratifiable, and some stratification puts every
/// non-connected rule in the last stratum (with that last stratum still a
/// valid semi-positive program).
///
/// The check closes the heads of non-connected rules upward under
/// "appears in the body of": the closure `L` is the least set of idb
/// predicates containing all heads of non-connected rules such that any
/// rule using an `L`-predicate in its body has its head in `L`. The
/// program is semi-connected iff no rule with head in `L` *negates* an
/// `L`-predicate (that would force two strata inside the would-be last
/// stratum).
pub fn is_semi_connected_program(p: &Program) -> bool {
    if stratify(p).is_err() {
        return false;
    }
    let last = last_stratum_closure(p);
    // Every rule whose head is in `last` may negate only predicates
    // outside `last`.
    p.rules()
        .iter()
        .filter(|r| last.contains(&r.head.relation))
        .all(|r| r.neg.iter().all(|a| !last.contains(&a.relation)))
}

/// The upward closure `L` described at [`is_semi_connected_program`]: the
/// set of idb predicates that must live in the final stratum.
pub fn last_stratum_closure(p: &Program) -> BTreeSet<RelName> {
    let idb = p.idb();
    let mut l: BTreeSet<RelName> = p
        .rules()
        .iter()
        .filter(|r| !is_rule_connected(r))
        .map(|r| r.head.relation.clone())
        .filter(|h| idb.contains(h))
        .collect();
    loop {
        let uses_l = |r: &&Rule| r.pos.iter().chain(&r.neg).any(|a| l.contains(&a.relation));
        let heads = p
            .rules()
            .iter()
            .filter(uses_l)
            .map(|r| r.head.relation.clone());
        let grown: Vec<RelName> = heads.filter(|h| !l.contains(h)).collect();
        if grown.is_empty() {
            return l;
        }
        l.extend(grown);
    }
}

/// A stratification witnessing semi-connectedness: `(connected_prefix,
/// last_stratum)` where the prefix is a connected stratified program and
/// the last stratum is a semi-positive program over the prefix's output.
/// Returns `None` when the program is not semi-connected.
///
/// Used by Theorem 5.3's membership argument
/// (`P = P_s ∘ P_{≤s-1}`).
pub fn semicon_split(p: &Program) -> Option<(Program, Program)> {
    if !is_semi_connected_program(p) {
        return None;
    }
    let last = last_stratum_closure(p);
    let prefix = p.filter_rules(|r| !last.contains(&r.head.relation));
    let suffix = p.filter_rules(|r| last.contains(&r.head.relation));
    Some((prefix, suffix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_rule};

    #[test]
    fn single_atom_rule_is_connected() {
        let r = parse_rule("T(x,y) :- E(x,y).").unwrap();
        assert!(is_rule_connected(&r));
    }

    #[test]
    fn join_rule_connected_via_shared_variable() {
        let r = parse_rule("T(x,z) :- T(x,y), E(y,z).").unwrap();
        assert!(is_rule_connected(&r));
    }

    #[test]
    fn cartesian_product_rule_not_connected() {
        let r = parse_rule("O(x,y) :- V(x), W(y).").unwrap();
        assert!(!is_rule_connected(&r));
    }

    #[test]
    fn negative_atoms_do_not_connect() {
        // graph+ only uses positive atoms: x and y unconnected.
        let r = parse_rule("O(x,y) :- V(x), V(y), not E(x,y).").unwrap();
        assert!(!is_rule_connected(&r));
    }

    #[test]
    fn example_51_p1_is_connected_not_sp() {
        // Example 5.1 of the paper.
        let p1 = parse_program(
            "T(x) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.\n\
             O(x) :- Adom(x), not T(x).\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).",
        )
        .unwrap();
        let report = classify(&p1);
        assert!(report.connected, "P1 is in con-Datalog¬");
        assert!(report.semi_connected);
        assert!(!report.sp_datalog, "P1 negates the idb relation T");
        assert!(report.stratifiable);
        assert!(!report.datalog);
    }

    #[test]
    fn example_51_p2_not_semi_connected() {
        // P2: the D rule joins two triangles with *no* shared variable.
        let p2 = parse_program(
            "T(x,y,z) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.\n\
             D(x1) :- T(x1,x2,x3), T(y1,y2,y3), x1 != y1, x1 != y2, x1 != y3, \
                      x2 != y1, x2 != y2, x2 != y3, x3 != y1, x3 != y2, x3 != y3.\n\
             O(x) :- Adom(x), not D(x).\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).",
        )
        .unwrap();
        let report = classify(&p2);
        assert!(!report.connected);
        // D's rule is unconnected and O negates D — D is forced into the
        // last stratum together with O, but O negates D: not
        // semi-connected.
        assert!(!report.semi_connected);
    }

    #[test]
    fn unconnected_rule_in_final_stratum_is_semicon() {
        // The unconnected rule's head O is only the output: fine.
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             O(x,y) :- T(x,u), T(y,w).",
        )
        .unwrap();
        let report = classify(&p);
        assert!(!report.connected);
        assert!(report.semi_connected);
    }

    #[test]
    fn sp_datalog_is_semi_connected() {
        // Paper: SP-Datalog ⊂ semicon-Datalog¬ — any SP program can put
        // everything in the last stratum.
        let p = parse_program("O(x,y) :- V(x), W(y), not E(x,y).").unwrap();
        let report = classify(&p);
        assert!(report.sp_datalog);
        assert!(report.semi_connected);
        assert!(!report.connected);
    }

    #[test]
    fn closure_propagates_upwards() {
        // A is unconnected; B uses A positively; C negates B -> all in L,
        // and C's negation of B (in L) breaks semi-connectedness.
        let p = parse_program(
            "A(x,y) :- V(x), W(y).\n\
             B(x) :- A(x,x).\n\
             C(x) :- V(x), not B(x).",
        )
        .unwrap();
        let l = last_stratum_closure(&p);
        assert!(l.contains("A"));
        assert!(l.contains("B"));
        assert!(l.contains("C"));
        assert!(!is_semi_connected_program(&p));
    }

    #[test]
    fn semicon_split_produces_connected_prefix() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- T(x,u), T(y,w), not T(x,y).",
        )
        .unwrap();
        let (prefix, suffix) = semicon_split(&p).expect("semi-connected");
        assert!(prefix.rules().iter().all(is_rule_connected));
        assert_eq!(suffix.rules().len(), 1);
        // Suffix negates only prefix predicates: semi-positive over them.
        assert!(suffix.is_semi_positive() || suffix.rules()[0].neg[0].relation.as_ref() == "T");
    }

    #[test]
    fn positive_fragments() {
        let tc = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
        let r = classify(&tc);
        assert!(r.datalog && r.datalog_neq && r.sp_datalog && r.connected && r.semi_connected);
        let with_neq = parse_program("O(x,y) :- E(x,y), x != y.").unwrap();
        let r2 = classify(&with_neq);
        assert!(!r2.datalog && r2.datalog_neq);
    }
}
