//! The reference evaluator: stratified Datalog¬ with `≠` and constants,
//! as Section 2 defines it, over a `BTreeSet<Fact>` of [`Value`]s.
//!
//! It shares nothing with the engine but the AST and the parser: no
//! symbol table, no index, no plan and no delta. It stratifies the
//! program itself, by a level loop, and evaluates each stratum by naive
//! rounds: every rule's body is substituted in body order against the
//! whole set, negation and `≠` are checked on the full valuation, and
//! what a round derives is inserted only after the round, until the set
//! stops growing. The differential tests (`tests/reference.rs`) and E18
//! hold the engine's `eval_program` to it.

use calm_common::fact::{Fact, RelName};
use calm_common::instance::Instance;
use calm_common::value::Value;
use calm_datalog::ast::{Atom, Rule, Term, Var};
use calm_datalog::program::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A program with a cycle through negation: it has no stratification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unstratifiable {
    /// A relation whose stratum outgrew the number of idb relations.
    pub witness: RelName,
}

impl fmt::Display for Unstratifiable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not stratifiable: {} depends negatively on itself",
            self.witness
        )
    }
}

impl std::error::Error for Unstratifiable {}

/// A valuation: the value of each variable bound so far.
type Binding = BTreeMap<Var, Value>;

/// The full model `I ∪ P(I)` of `p` on `input` under the stratified
/// semantics, and the number of valuations the naive rounds enumerated
/// (every valuation that satisfied a rule's whole body, in every round,
/// the last round included).
///
/// # Errors
/// [`Unstratifiable`] for a program with a cycle through negation.
pub fn eval(p: &Program, input: &Instance) -> Result<(Instance, usize), Unstratifiable> {
    let mut facts: BTreeSet<Fact> = input.facts().collect();
    let mut valuations = 0;
    for stratum in strata(p.rules())? {
        loop {
            let mut derived = Vec::new();
            for rule in &stratum {
                satisfy(rule, &facts, 0, &Binding::new(), &mut |binding| {
                    valuations += 1;
                    derived.push(ground(&rule.head, binding));
                });
            }
            let before = facts.len();
            facts.extend(derived);
            if facts.len() == before {
                break;
            }
        }
    }
    Ok((Instance::from_facts(facts), valuations))
}

/// The rules grouped by stratum, lowest first. Every head relation
/// starts at level 0 and is raised until no rule asks for more: to the
/// level of each positive body atom's relation, and one past the level
/// of each negated one (relations no rule defines stay at 0). A level
/// that reaches the number of head relations can only come from a cycle
/// through negation.
fn strata(rules: &[Rule]) -> Result<Vec<Vec<&Rule>>, Unstratifiable> {
    let mut level: BTreeMap<&RelName, usize> =
        rules.iter().map(|r| (&r.head.relation, 0)).collect();
    let heads = level.len();
    let mut changed = true;
    while changed {
        changed = false;
        for rule in rules {
            let at = |a: &Atom| level.get(&a.relation).copied().unwrap_or(0);
            let pos = rule.pos.iter().map(at);
            let neg = rule.neg.iter().map(|a| at(a) + 1);
            let need = pos.chain(neg).max().unwrap_or(0);
            if need > level[&rule.head.relation] {
                if need >= heads {
                    let witness = rule.head.relation.clone();
                    return Err(Unstratifiable { witness });
                }
                level.insert(&rule.head.relation, need);
                changed = true;
            }
        }
    }
    let mut strata: BTreeMap<usize, Vec<&Rule>> = BTreeMap::new();
    for rule in rules {
        strata
            .entry(level[&rule.head.relation])
            .or_default()
            .push(rule);
    }
    Ok(strata.into_values().collect())
}

/// Extend `binding` over the positive body atoms from the `k`-th on,
/// each matched against every fact of its relation, and pass every
/// valuation of the whole body that satisfies the inequalities and
/// whose negated atoms are absent from `facts` to `emit`.
fn satisfy(
    rule: &Rule,
    facts: &BTreeSet<Fact>,
    k: usize,
    binding: &Binding,
    emit: &mut dyn FnMut(&Binding),
) {
    let Some(atom) = rule.pos.get(k) else {
        let distinct = (rule.ineq.iter()).all(|(l, r)| value(l, binding) != value(r, binding));
        if distinct && !rule.neg.iter().any(|a| facts.contains(&ground(a, binding))) {
            emit(binding);
        }
        return;
    };
    for fact in facts.iter().filter(|f| f.relation() == &atom.relation) {
        if let Some(extended) = unify(atom, fact.args(), binding) {
            satisfy(rule, facts, k + 1, &extended, emit);
        }
    }
}

/// `binding` extended so that `atom` becomes the tuple `args`, if some
/// extension does.
fn unify(atom: &Atom, args: &[Value], binding: &Binding) -> Option<Binding> {
    if atom.terms.len() != args.len() {
        return None;
    }
    let mut extended = binding.clone();
    for (term, arg) in atom.terms.iter().zip(args) {
        let bound = match term {
            Term::Var(v) => extended.entry(v.clone()).or_insert_with(|| arg.clone()),
            Term::Const(c) => c,
            Term::Invention => return None,
        };
        if bound != arg {
            return None;
        }
    }
    Some(extended)
}

/// The value of a term under a binding of all its variables.
fn value<'a>(term: &'a Term, binding: &'a Binding) -> &'a Value {
    match term {
        Term::Var(v) => &binding[v],
        Term::Const(c) => c,
        Term::Invention => unreachable!("a Datalog program has no invention symbol"),
    }
}

/// `atom` under a binding of all its variables.
fn ground(atom: &Atom, binding: &Binding) -> Fact {
    let args = atom.terms.iter().map(|t| value(t, binding).clone());
    Fact::from_rel(atom.relation.clone(), args.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_datalog::parse_program;

    fn model(src: &str, input: &[Fact]) -> (Instance, usize) {
        let p = parse_program(src).unwrap();
        eval(&p, &Instance::from_facts(input.iter().cloned())).unwrap()
    }

    #[test]
    fn closure_of_a_path_counts_every_naive_round() {
        let path = [fact("E", [1, 2]), fact("E", [2, 3]), fact("E", [3, 4])];
        let (m, valuations) = model("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", &path);
        assert_eq!(m.relation_len("T"), 6);
        assert_eq!(m.len(), 9, "the input stays in the model");
        // Four rounds (the last derives nothing new): 3 base valuations
        // each, then 0, 2, 3 and 3 recursive ones.
        assert_eq!(valuations, 4 * 3 + 2 + 3 + 3);
    }

    #[test]
    fn negation_inequality_and_constants() {
        let src = "A(x) :- V(x), not W(x).\n\
                   B(x) :- V(x), not A(x).\n\
                   O(x,y) :- B(x), V(y), x != y.\n\
                   C(x) :- E(x, 3).";
        let input = [
            fact("V", [1]),
            fact("V", [2]),
            fact("W", [1]),
            fact("E", [5, 3]),
            fact("E", [6, 4]),
            fact("E", [7]),
        ];
        let (m, _) = model(src, &input);
        let rel = |r| m.tuples(r).cloned().collect::<Vec<_>>();
        assert_eq!(rel("A"), [vec![Value::Int(2)]]);
        assert_eq!(rel("B"), [vec![Value::Int(1)]]);
        assert_eq!(rel("O"), [vec![Value::Int(1), Value::Int(2)]]);
        assert_eq!(rel("C"), [vec![Value::Int(5)]]);
    }

    #[test]
    fn a_repeated_variable_must_repeat_its_value() {
        let (m, _) = model("S(x) :- E(x,x).", &[fact("E", [1, 1]), fact("E", [1, 2])]);
        assert_eq!(m.relation_len("S"), 1);
    }

    #[test]
    fn a_cycle_through_negation_is_refused() {
        let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
        let err = eval(&p, &Instance::new()).unwrap_err();
        assert_eq!(err.witness.as_ref(), "win");
        let p = parse_program("P(x) :- V(x), not Q(x).\nQ(x) :- V(x), P(x).").unwrap();
        assert!(eval(&p, &Instance::new()).is_err());
    }
}
