//! The random-program generators the engine's property suites share
//! (`proptest_engine` here, the root `reference` suite through a
//! `#[path]` module): the same seed draws the same program and input in
//! both.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_datalog::ast::{Atom, Rule, Term};
use calm_datalog::parse_rule;

/// Random positive rule over a fixed schema {E(2), V(1)} with idb T(2),
/// S(1): choose a head and 1..3 body atoms over the head's variables.
pub fn rand_rule(r: &mut Rng) -> Rule {
    const VARS: [&str; 4] = ["x", "y", "z", "w"];
    let mut body = Vec::new();
    for _ in 0..r.gen_range(1..4usize) {
        if r.gen_bool(0.5) {
            let rel = *r.choose(&["E", "T"]).unwrap();
            let a = *r.choose(&VARS).unwrap();
            let b = *r.choose(&VARS).unwrap();
            body.push(Atom::new(rel, vec![Term::var(a), Term::var(b)]));
        } else {
            let rel = *r.choose(&["V", "S"]).unwrap();
            let a = *r.choose(&VARS).unwrap();
            body.push(Atom::new(rel, vec![Term::var(a)]));
        }
    }
    // Head variables drawn from the body to ensure safety.
    let mut body_vars: Vec<_> = body.iter().flat_map(|a| a.variables().cloned()).collect();
    body_vars.sort();
    body_vars.dedup();
    let head_rel = *r.choose(&["T", "S"]).unwrap();
    let arity = if head_rel == "T" { 2 } else { 1 };
    let head_terms: Vec<Term> = (0..arity)
        .map(|i| Term::Var(body_vars[i % body_vars.len()].clone()))
        .collect();
    Rule {
        head: Atom::new(head_rel, head_terms),
        pos: body,
        neg: vec![],
        ineq: vec![],
    }
}

pub fn rand_rules(r: &mut Rng, max: usize) -> Vec<Rule> {
    (0..r.gen_range(1..max)).map(|_| rand_rule(r)).collect()
}

pub fn small_instance(r: &mut Rng) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..8usize) {
        i.insert(fact("E", [r.gen_range(0..4i64), r.gen_range(0..4i64)]));
    }
    for _ in 0..r.gen_range(0..4usize) {
        i.insert(fact("V", [r.gen_range(0..4i64)]));
    }
    i
}

/// Recursive shapes the delta rounds seed differently from the
/// left-linear closure: the delta atom last (right-linear), at both
/// positions (doubling), and with a repeated variable in the seeded
/// atom — alone and next to a second recursive atom.
pub const SEEDED_SHAPES: [&str; 5] = [
    "T(x,z) :- E(x,y), T(y,z).",
    "T(x,z) :- T(x,y), T(y,z).",
    "S(x) :- T(x,x), E(x,y).",
    "T(x,y) :- T(x,x), T(y,x), V(y).",
    "T(y,x) :- S(x), T(x,y), E(y,y).",
];

/// Random *stratified* program: a positive layer defining `T`/`S`
/// (as [`rand_rules`], plus a base rule and 1..3 of [`SEEDED_SHAPES`])
/// and 1..3 second-stratum rules `O(v) :- guard, not Idb(...)` whose
/// negated atom ranges over the first layer's idb. `O` never occurs in
/// a body, so the program is stratifiable by construction.
pub fn rand_stratified_rules(r: &mut Rng) -> Vec<Rule> {
    let mut rules = rand_rules(r, 4);
    rules.push(parse_rule("T(x,y) :- E(x,y).").unwrap());
    for _ in 0..r.gen_range(1..3usize) {
        rules.push(parse_rule(r.choose(&SEEDED_SHAPES).unwrap()).unwrap());
    }
    for _ in 0..r.gen_range(1..3usize) {
        let guard = if r.gen_bool(0.5) {
            Atom::new(
                *r.choose(&["E", "T"]).unwrap(),
                vec![Term::var("x"), Term::var("y")],
            )
        } else {
            Atom::new(*r.choose(&["V", "S"]).unwrap(), vec![Term::var("x")])
        };
        let guard_vars: Vec<_> = guard.variables().cloned().collect();
        let neg_rel = *r.choose(&["T", "S"]).unwrap();
        let neg_arity = if neg_rel == "T" { 2 } else { 1 };
        let neg_terms: Vec<Term> = (0..neg_arity)
            .map(|i| Term::Var(guard_vars[i % guard_vars.len()].clone()))
            .collect();
        rules.push(Rule {
            head: Atom::new("O", vec![Term::Var(guard_vars[0].clone())]),
            pos: vec![guard],
            neg: vec![Atom::new(neg_rel, neg_terms)],
            ineq: vec![],
        });
    }
    rules
}
