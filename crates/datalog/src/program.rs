//! Datalog¬ programs: rule sets with derived schemas and validation.

use crate::ast::{Atom, Rule, Term, Var};
use calm_common::fact::RelName;
use calm_common::schema::Schema;
use std::collections::BTreeSet;
use std::fmt;

/// A Datalog¬ program `P`: a set of rules plus a designated set of output
/// relations (the paper's convention marks some idb relations, typically
/// `O`, as the intended output).
#[derive(Clone, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
    outputs: BTreeSet<RelName>,
}

/// Validation errors for programs (the well-formedness conditions of
/// Section 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A rule has an empty positive body (`pos_ϕ` must be non-empty).
    EmptyPositiveBody(String),
    /// A variable of the rule does not occur in a positive body atom.
    UnsafeVariable {
        /// The offending rule, displayed.
        rule: String,
        /// The unsafe variable.
        var: String,
    },
    /// A relation is used with inconsistent arities.
    ArityConflict {
        /// The offending relation.
        relation: String,
    },
    /// A nullary atom appears.
    NullaryAtom(String),
    /// The invention symbol `*` appears (only ILOG¬ programs may use it).
    InventionSymbol(String),
    /// An output relation is not an idb relation of the program.
    OutputNotIdb(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::EmptyPositiveBody(r) => {
                write!(f, "rule has empty positive body: {r}")
            }
            ProgramError::UnsafeVariable { rule, var } => write!(
                f,
                "variable {var} does not occur in a positive body atom of: {rule}"
            ),
            ProgramError::ArityConflict { relation } => {
                write!(f, "relation {relation} used with conflicting arities")
            }
            ProgramError::NullaryAtom(r) => write!(f, "nullary atom in: {r}"),
            ProgramError::InventionSymbol(r) => write!(
                f,
                "invention symbol * is only allowed in ILOG programs: {r}"
            ),
            ProgramError::OutputNotIdb(r) => {
                write!(f, "output relation {r} is not an idb relation")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Create a program from rules; output defaults to the relation `O` if
    /// present among the rule heads, otherwise to *all* idb relations.
    ///
    /// # Errors
    /// Returns the first well-formedness violation found.
    pub fn new(rules: Vec<Rule>) -> Result<Self, ProgramError> {
        Program::with_default_outputs(rules, false)
    }

    /// Create a program with explicit output relations.
    ///
    /// # Errors
    /// Returns well-formedness violations, including outputs that are not
    /// idb relations.
    pub fn with_outputs(
        rules: Vec<Rule>,
        outputs: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Result<Self, ProgramError> {
        let mut p = Program {
            rules,
            outputs: outputs
                .into_iter()
                .map(|s| calm_common::fact::rel(s.as_ref()))
                .collect(),
        };
        p.validate(false)?;
        let idb = p.idb();
        for o in &p.outputs {
            if !idb.contains(o) {
                return Err(ProgramError::OutputNotIdb(o.to_string()));
            }
        }
        Ok(p)
    }

    /// Create a program allowing invention atoms (used by `calm-ilog`).
    /// Performs all validations except the invention-symbol rejection.
    ///
    /// # Errors
    /// Returns non-invention well-formedness violations.
    pub fn new_ilog(rules: Vec<Rule>) -> Result<Self, ProgramError> {
        Program::with_default_outputs(rules, true)
    }

    /// [`Program::new`], with invention atoms allowed when `invention`.
    fn with_default_outputs(rules: Vec<Rule>, invention: bool) -> Result<Self, ProgramError> {
        let mut p = Program {
            rules,
            outputs: BTreeSet::new(),
        };
        p.validate(invention)?;
        let idb = p.idb();
        if idb.contains("O") {
            p.outputs.insert(calm_common::fact::rel("O"));
        } else {
            p.outputs = idb.names().cloned().collect();
        }
        Ok(p)
    }

    /// Replace the output set of an already-validated program (used by the
    /// parser for ILOG programs with an `@output` directive; callers must
    /// have checked the names are idb relations).
    pub(crate) fn replace_outputs(p: Program, outs: Vec<String>) -> Program {
        Program {
            rules: p.rules,
            outputs: outs
                .into_iter()
                .map(|s| calm_common::fact::rel(&s))
                .collect(),
        }
    }

    fn validate(&mut self, allow_invention: bool) -> Result<(), ProgramError> {
        let mut arities: std::collections::BTreeMap<RelName, usize> = Default::default();
        for rule in &self.rules {
            if rule.pos.is_empty() {
                return Err(ProgramError::EmptyPositiveBody(rule.to_string()));
            }
            for atom in rule.atoms() {
                if atom.arity() == 0 {
                    return Err(ProgramError::NullaryAtom(rule.to_string()));
                }
                if atom.has_invention() {
                    if !allow_invention {
                        return Err(ProgramError::InventionSymbol(rule.to_string()));
                    }
                } else if let Some(&a) = arities.get(&atom.relation) {
                    if a != atom.arity() {
                        return Err(ProgramError::ArityConflict {
                            relation: atom.relation.to_string(),
                        });
                    }
                } else {
                    arities.insert(atom.relation.clone(), atom.arity());
                }
                // Invention atoms are checked for arity consistency too,
                // counting `*` as one position.
                if atom.has_invention() {
                    if let Some(&a) = arities.get(&atom.relation) {
                        if a != atom.arity() {
                            return Err(ProgramError::ArityConflict {
                                relation: atom.relation.to_string(),
                            });
                        }
                    } else {
                        arities.insert(atom.relation.clone(), atom.arity());
                    }
                }
            }
            // Safety: every variable of the rule occurs in pos.
            let pos_vars = rule.positive_variables();
            for v in rule.variables() {
                if !pos_vars.contains(&v) {
                    return Err(ProgramError::UnsafeVariable {
                        rule: rule.to_string(),
                        var: v.name().to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The output relations.
    pub fn outputs(&self) -> &BTreeSet<RelName> {
        &self.outputs
    }

    /// The output schema (output relations with their arities).
    pub fn output_schema(&self) -> Schema {
        self.sch()
            .filter(|n| self.outputs.iter().any(|o| o.as_ref() == n))
    }

    /// `sch(P)`: the minimal schema the program is over.
    pub fn sch(&self) -> Schema {
        let mut s = Schema::new();
        for rule in &self.rules {
            for atom in rule.atoms() {
                s.add(&atom.relation, atom.arity());
            }
        }
        s
    }

    /// `idb(P)`: relations appearing in rule heads.
    pub fn idb(&self) -> Schema {
        let heads: BTreeSet<&RelName> = self.rules.iter().map(|r| &r.head.relation).collect();
        self.sch().filter(|n| heads.iter().any(|h| h.as_ref() == n))
    }

    /// `edb(P) = sch(P) \ idb(P)`.
    pub fn edb(&self) -> Schema {
        let idb = self.idb();
        self.sch().filter(|n| !idb.contains(n))
    }

    /// Whether all rules are positive.
    pub fn is_positive(&self) -> bool {
        self.rules.iter().all(Rule::is_positive)
    }

    /// Whether any rule uses inequalities.
    pub fn uses_inequalities(&self) -> bool {
        self.rules.iter().any(|r| !r.ineq.is_empty())
    }

    /// Whether the program is semi-positive: every negative body atom is
    /// over `edb(P)`.
    pub fn is_semi_positive(&self) -> bool {
        let idb = self.idb();
        self.rules
            .iter()
            .all(|r| r.neg.iter().all(|a| !idb.contains(&a.relation)))
    }

    /// A new program consisting of the subset of rules satisfying `keep`,
    /// with the same outputs intersected with the remaining idb.
    pub fn filter_rules(&self, mut keep: impl FnMut(&Rule) -> bool) -> Program {
        let rules: Vec<Rule> = self.rules.iter().filter(|r| keep(r)).cloned().collect();
        let heads: BTreeSet<RelName> = rules.iter().map(|r| r.head.relation.clone()).collect();
        Program {
            rules,
            outputs: self
                .outputs
                .iter()
                .filter(|o| heads.contains(*o))
                .cloned()
                .collect(),
        }
    }

    /// Append the standard `Adom` rules: `Adom(x) ← R(..., x, ...)` for
    /// every position of every relation currently in `edb(P)` (the paper's
    /// convention, Section 2). Returns a new program.
    pub fn with_adom(&self) -> Program {
        let mut rules = self.rules.clone();
        for (name, arity) in self.edb().iter() {
            if name.as_ref() == "Adom" {
                continue;
            }
            for pos in 0..arity {
                let vars: Vec<Term> = (0..arity)
                    .map(|i| {
                        if i == pos {
                            Term::var("x")
                        } else {
                            Term::Var(Var::new(format!("u{i}")))
                        }
                    })
                    .collect();
                rules.push(Rule::positive(
                    Atom::vars("Adom", &["x"]),
                    vec![Atom::new(name.as_ref(), vars)],
                ));
            }
        }
        Program {
            rules,
            outputs: self.outputs.clone(),
        }
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Rule};

    fn tc_program() -> Program {
        Program::new(vec![
            Rule::positive(
                Atom::vars("T", &["x", "y"]),
                vec![Atom::vars("E", &["x", "y"])],
            ),
            Rule::positive(
                Atom::vars("T", &["x", "z"]),
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn schemas_derived() {
        let p = tc_program();
        assert_eq!(p.sch().len(), 2);
        assert_eq!(p.idb().names().next().unwrap().as_ref(), "T");
        assert_eq!(p.edb().names().next().unwrap().as_ref(), "E");
        assert!(p.is_positive());
        assert!(p.is_semi_positive());
        assert!(!p.uses_inequalities());
    }

    #[test]
    fn default_outputs_all_idb_without_o() {
        let p = tc_program();
        assert_eq!(p.outputs().len(), 1);
        assert!(p.outputs().iter().any(|o| o.as_ref() == "T"));
    }

    #[test]
    fn o_relation_becomes_default_output() {
        let p = Program::new(vec![Rule::positive(
            Atom::vars("O", &["x"]),
            vec![Atom::vars("V", &["x"])],
        )])
        .unwrap();
        assert_eq!(p.outputs().len(), 1);
        assert!(p.outputs().iter().any(|o| o.as_ref() == "O"));
        assert_eq!(p.output_schema().arity("O"), Some(1));
    }

    #[test]
    fn rejects_unsafe_variable() {
        // Head variable y not in pos.
        let err = Program::new(vec![Rule::positive(
            Atom::vars("T", &["x", "y"]),
            vec![Atom::vars("V", &["x"])],
        )])
        .unwrap_err();
        assert!(matches!(err, ProgramError::UnsafeVariable { .. }));
    }

    #[test]
    fn rejects_unsafe_negated_variable() {
        let err = Program::new(vec![Rule {
            head: Atom::vars("T", &["x"]),
            pos: vec![Atom::vars("V", &["x"])],
            neg: vec![Atom::vars("W", &["y"])],
            ineq: vec![],
        }])
        .unwrap_err();
        assert!(matches!(err, ProgramError::UnsafeVariable { .. }));
    }

    #[test]
    fn rejects_empty_body_and_arity_conflicts() {
        let err = Program::new(vec![Rule::positive(Atom::vars("T", &["x"]), vec![])]);
        assert!(matches!(err, Err(ProgramError::EmptyPositiveBody(_))));
        let err = Program::new(vec![Rule::positive(
            Atom::vars("T", &["x"]),
            vec![Atom::vars("E", &["x", "x"]), Atom::vars("E", &["x"])],
        )]);
        assert!(matches!(err, Err(ProgramError::ArityConflict { .. })));
    }

    #[test]
    fn rejects_invention_in_plain_datalog() {
        use crate::ast::Term;
        let err = Program::new(vec![Rule::positive(
            Atom::new("R", vec![Term::Invention, Term::var("x")]),
            vec![Atom::vars("E", &["x", "x"])],
        )]);
        assert!(matches!(err, Err(ProgramError::InventionSymbol(_))));
    }

    #[test]
    fn semi_positive_detection() {
        let p = Program::new(vec![
            Rule::positive(
                Atom::vars("T", &["x", "y"]),
                vec![Atom::vars("E", &["x", "y"])],
            ),
            Rule {
                head: Atom::vars("O", &["x"]),
                pos: vec![Atom::vars("V", &["x"])],
                neg: vec![Atom::vars("E", &["x", "x"])], // edb negation: ok
                ineq: vec![],
            },
        ])
        .unwrap();
        assert!(p.is_semi_positive());
        let p2 = Program::new(vec![
            Rule::positive(
                Atom::vars("T", &["x", "y"]),
                vec![Atom::vars("E", &["x", "y"])],
            ),
            Rule {
                head: Atom::vars("O", &["x"]),
                pos: vec![Atom::vars("V", &["x"])],
                neg: vec![Atom::vars("T", &["x", "x"])], // idb negation
                ineq: vec![],
            },
        ])
        .unwrap();
        assert!(!p2.is_semi_positive());
    }

    #[test]
    fn with_adom_adds_projection_rules() {
        let p = tc_program().with_adom();
        // E has two positions -> two Adom rules added.
        let adom_rules: Vec<_> = p
            .rules
            .iter()
            .filter(|r| &*r.head.relation == "Adom")
            .collect();
        assert_eq!(adom_rules.len(), 2);
        assert!(p.idb().contains("Adom"));
    }

    #[test]
    fn with_outputs_validates() {
        let r = Rule::positive(Atom::vars("T", &["x"]), vec![Atom::vars("V", &["x"])]);
        assert!(Program::with_outputs(vec![r.clone()], ["T"]).is_ok());
        assert!(matches!(
            Program::with_outputs(vec![r], ["V"]),
            Err(ProgramError::OutputNotIdb(_))
        ));
    }
}
