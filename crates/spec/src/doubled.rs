//! The *doubled program* (Section 7): the well-known construction the
//! paper uses to place connected Datalog¬ under the well-founded
//! semantics inside `Mdisjoint`. Every idb predicate `R` gets a primed
//! companion `R__p`; alternating the two sides' evaluation reproduces the
//! alternating fixpoint of [`calm_datalog::well_founded_model`] as a pure
//! program transformation.

use calm_common::fact::{rel, Fact, RelName};
use calm_common::instance::Instance;
use calm_datalog::ast::{Atom, Rule};
use calm_datalog::program::Program;
use calm_datalog::wellfounded::WellFoundedModel;
use calm_datalog::{eval_program, EvalOptions};
use calm_obs::Obs;
use std::collections::BTreeSet;

/// The two sides of a doubled program, over a schema where every idb
/// predicate `R` has a primed companion `R__p`.
#[derive(Debug, Clone)]
pub struct DoubledProgram {
    /// Derives unprimed (true-side) facts; its negative literals mention
    /// only primed predicates.
    pub true_side: Program,
    /// Derives primed (possible-side) facts; its negative literals mention
    /// only unprimed predicates.
    pub possible_side: Program,
    /// The idb predicates that were doubled.
    pub doubled: BTreeSet<RelName>,
}

/// The primed companion name of a relation.
pub fn primed(r: &str) -> RelName {
    rel(format!("{r}__p"))
}

/// Build the doubled program of `p`.
pub fn doubled_program(p: &Program) -> DoubledProgram {
    let idb = p.idb();
    let doubled: BTreeSet<RelName> = idb.names().cloned().collect();
    let prime_atom = |a: &Atom| -> Atom {
        if doubled.contains(&a.relation) {
            Atom {
                relation: primed(&a.relation),
                terms: a.terms.clone(),
            }
        } else {
            a.clone()
        }
    };
    let mut true_rules = Vec::new();
    let mut possible_rules = Vec::new();
    for r in p.rules() {
        // True side: positive atoms unprimed, negated idb atoms primed
        // (checked against the possible-side overestimate).
        true_rules.push(Rule {
            head: r.head.clone(),
            pos: r.pos.clone(),
            neg: r.neg.iter().map(&prime_atom).collect(),
            ineq: r.ineq.clone(),
        });
        // Possible side: head and positive idb atoms primed, negated idb
        // atoms unprimed (checked against the true-side underestimate).
        possible_rules.push(Rule {
            head: prime_atom(&r.head),
            pos: r.pos.iter().map(&prime_atom).collect(),
            neg: r.neg.clone(),
            ineq: r.ineq.clone(),
        });
    }
    DoubledProgram {
        true_side: Program::new(true_rules).expect("doubling preserves well-formedness"),
        possible_side: Program::new(possible_rules).expect("doubling preserves well-formedness"),
        doubled,
    }
}

impl DoubledProgram {
    /// Evaluate the doubled program by alternating the two sides until
    /// the underestimate stabilises; returns the same model as
    /// [`calm_datalog::well_founded_model`]. Each side negates only
    /// relations the other side derives, so it is semi-positive once the
    /// other side's facts are part of its input: one stratified
    /// evaluation ([`eval_program`]) per side and round.
    pub fn eval(&self, input: &Instance) -> WellFoundedModel {
        // The possible side reads idb positives primed: the input's idb
        // facts enter in both forms.
        let over_base = self.prime(input).union(input);
        let (mut under, mut gamma_applications) = (Instance::new(), 0);
        loop {
            // Possible side: negation reads the input and `under`.
            let model = side(&self.possible_side, &over_base.union(&under));
            let over = Instance::from_facts(model.facts().filter(|f| self.is_primed(f)));
            gamma_applications += 1;

            // True side: negation reads the primed overestimate.
            let model = side(&self.true_side, &input.union(&over));
            let next = Instance::from_facts(model.facts().filter(|f| !self.is_primed(f)));
            gamma_applications += 1;

            if next == under {
                let over = over.facts().map(|f| self.unprime(f));
                return WellFoundedModel {
                    true_facts: next,
                    possible_facts: Instance::from_facts(over).union(input),
                    gamma_applications,
                };
            }
            under = next;
        }
    }

    fn prime(&self, i: &Instance) -> Instance {
        Instance::from_facts(i.facts().map(|f| {
            if self.doubled.contains(f.relation()) {
                Fact::from_rel(primed(f.relation()), f.args().to_vec())
            } else {
                f
            }
        }))
    }

    /// Whether `f` is over the primed companion of a doubled relation.
    fn is_primed(&self, f: &Fact) -> bool {
        let base = f.relation().strip_suffix("__p");
        base.is_some_and(|base| self.doubled.contains(base))
    }

    fn unprime(&self, f: Fact) -> Fact {
        match f.relation().strip_suffix("__p") {
            Some(base) if self.doubled.contains(base) => Fact::new(base, f.args().to_vec()),
            _ => f,
        }
    }
}

/// The full model of one side of a doubled program on `input`.
fn side(p: &Program, input: &Instance) -> Instance {
    let (model, _) = eval_program(p, input, EvalOptions::default(), &Obs::noop())
        .expect("each side of a doubled program is semi-positive");
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::generator::{chain_game, cycle_game, cycle_with_escape};
    use calm_datalog::{parse_program, well_founded_model};

    fn win_move() -> Program {
        parse_program("win(x) :- move(x,y), not win(y).").unwrap()
    }

    #[test]
    fn doubled_program_matches_alternating_fixpoint() {
        let p = win_move();
        let d = doubled_program(&p);
        for input in [
            chain_game(0, 4),
            cycle_game(0, 3),
            cycle_game(0, 4),
            cycle_with_escape(0),
        ] {
            let direct = well_founded_model(&p, &input, EvalOptions::default(), &Obs::noop());
            let via_doubled = d.eval(&input);
            assert_eq!(direct.true_facts, via_doubled.true_facts, "{input:?}");
            assert_eq!(
                direct.possible_facts, via_doubled.possible_facts,
                "{input:?}"
            );
        }
    }

    #[test]
    fn doubled_program_structure() {
        let d = doubled_program(&win_move());
        // True side negates only the primed predicate.
        assert_eq!(d.true_side.rules()[0].neg[0].relation.as_ref(), "win__p");
        // Possible side derives primed and negates unprimed.
        assert_eq!(d.possible_side.rules()[0].head.relation.as_ref(), "win__p");
        assert_eq!(d.possible_side.rules()[0].neg[0].relation.as_ref(), "win");
    }
}
