//! ILOG¬ programs: stratified Datalog¬ with value invention (Section 5.2).
//!
//! An *invention relation* has a distinguished first position (the
//! invention position); rules deriving it write the invention symbol `*`
//! there. Semantically, `*` is replaced by the Skolem term
//! `f_R(x1, ..., xk)` over the remaining head variables, and evaluation
//! proceeds over the Herbrand universe.

use calm_common::fact::RelName;
use calm_datalog::ast::{Atom, Rule, Term};
use calm_datalog::program::Program;
use calm_datalog::stratify::{stratify, Stratification};
use std::collections::BTreeSet;
use std::fmt;

/// A validated ILOG¬ program.
#[derive(Clone)]
pub struct IlogProgram {
    program: Program,
    invention_relations: BTreeSet<RelName>,
    stratification: Stratification,
}

/// Errors constructing an ILOG¬ program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlogError {
    /// A head uses `*` somewhere other than (exactly once, in) the first
    /// position.
    MalformedInventionAtom(String),
    /// The invention symbol appears in a rule body.
    InventionInBody(String),
    /// A relation is derived both with and without invention.
    MixedInvention(String),
    /// The program is not syntactically stratifiable.
    NotStratifiable(String),
    /// Underlying Datalog well-formedness failure.
    Program(String),
}

impl fmt::Display for IlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlogError::MalformedInventionAtom(r) => {
                write!(f, "invention symbol must appear exactly once, first: {r}")
            }
            IlogError::InventionInBody(r) => {
                write!(f, "invention symbol may not appear in a body: {r}")
            }
            IlogError::MixedInvention(r) => {
                write!(f, "relation {r} is derived both with and without invention")
            }
            IlogError::NotStratifiable(r) => write!(f, "not stratifiable: {r}"),
            IlogError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IlogError {}

impl IlogProgram {
    /// Validate and wrap a program parsed with
    /// [`calm_datalog::parser::parse_ilog_program`].
    ///
    /// # Errors
    /// Returns an [`IlogError`] on malformed invention use or
    /// non-stratifiable negation.
    pub fn new(program: Program) -> Result<Self, IlogError> {
        let mut invention_relations = BTreeSet::new();
        let mut plain_heads = BTreeSet::new();
        for rule in program.rules() {
            for atom in rule.pos.iter().chain(rule.neg.iter()) {
                if atom.has_invention() {
                    return Err(IlogError::InventionInBody(rule.to_string()));
                }
            }
            if rule.head.has_invention() {
                if !rule.head.is_invention_atom() {
                    return Err(IlogError::MalformedInventionAtom(rule.to_string()));
                }
                invention_relations.insert(rule.head.relation.clone());
            } else {
                plain_heads.insert(rule.head.relation.clone());
            }
        }
        if let Some(mixed) = invention_relations.intersection(&plain_heads).next() {
            return Err(IlogError::MixedInvention(mixed.to_string()));
        }
        let stratification =
            stratify(&program).map_err(|e| IlogError::NotStratifiable(e.witness))?;
        Ok(IlogProgram {
            program,
            invention_relations,
            stratification,
        })
    }

    /// Parse ILOG¬ source text (the Datalog syntax plus `*` in heads).
    ///
    /// # Errors
    /// Returns the combined parse/validation error message.
    pub fn parse(src: &str) -> Result<Self, String> {
        let p = calm_datalog::parser::parse_ilog_program(src).map_err(|e| e.to_string())?;
        IlogProgram::new(p).map_err(|e| e.to_string())
    }

    /// The underlying rule set.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The invention relations.
    pub fn invention_relations(&self) -> &BTreeSet<RelName> {
        &self.invention_relations
    }

    /// The stratification (each stratum evaluated as a fixpoint over the
    /// Herbrand universe).
    pub fn stratification(&self) -> &Stratification {
        &self.stratification
    }

    /// The Skolem functor name for an invention relation.
    pub fn functor(relation: &str) -> String {
        format!("f_{relation}")
    }

    /// The *Skolemization* of a rule: the invention symbol replaced by a
    /// marker constant is not expressible in first-order terms here, so we
    /// return the display form `R(f_R(x̄), x̄) ← body` used in docs/tests.
    pub fn skolemized_display(rule: &Rule) -> String {
        if !rule.head.has_invention() {
            return rule.to_string();
        }
        let rest: Vec<String> = rule.head.terms[1..].iter().map(|t| t.to_string()).collect();
        let head = format!(
            "{}({}({}),{})",
            rule.head.relation,
            Self::functor(&rule.head.relation),
            rest.join(","),
            rest.join(",")
        );
        let body = rule.to_string();
        let body = body.split_once(":-").map(|(_, b)| b.trim()).unwrap_or("");
        format!("{head} :- {body}")
    }
}

/// Helper: the non-invention head terms of an invention rule (the Skolem
/// functor arguments `x1, ..., xk`).
pub fn invention_args(head: &Atom) -> &[Term] {
    debug_assert!(head.is_invention_atom());
    &head.terms[1..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_simple_invention() {
        let p = IlogProgram::parse("R(*, x1, x2) :- E(x1, x2).").unwrap();
        assert_eq!(p.invention_relations().len(), 1);
        assert!(p.invention_relations().contains("R"));
        assert!(!p.invention_relations().is_empty());
    }

    #[test]
    fn rejects_invention_in_body() {
        let e = IlogProgram::parse("T(x) :- R(*, x).");
        assert!(e.is_err());
    }

    #[test]
    fn rejects_non_first_invention() {
        let p = calm_datalog::parser::parse_ilog_program("R(x, *) :- E(x, x).").unwrap();
        assert!(matches!(
            IlogProgram::new(p),
            Err(IlogError::MalformedInventionAtom(_))
        ));
    }

    #[test]
    fn rejects_mixed_invention() {
        let p = calm_datalog::parser::parse_ilog_program(
            "R(*, x) :- E(x, x).\n\
             R(x, x) :- E(x, x).",
        )
        .unwrap();
        assert!(matches!(
            IlogProgram::new(p),
            Err(IlogError::MixedInvention(_))
        ));
    }

    #[test]
    fn rejects_non_stratifiable() {
        let e = IlogProgram::parse("win(x) :- move(x,y), not win(y).");
        assert!(e.is_err());
    }

    #[test]
    fn skolemized_display_matches_paper() {
        let p = IlogProgram::parse("R(*, x1, x2) :- E(x1, x2).").unwrap();
        let s = IlogProgram::skolemized_display(&p.program().rules()[0]);
        assert_eq!(s, "R(f_R(x1,x2),x1,x2) :- E(x1,x2).");
    }

    #[test]
    fn plain_datalog_is_invention_free() {
        let p = IlogProgram::parse("T(x,y) :- E(x,y).").unwrap();
        assert!(p.invention_relations().is_empty());
    }
}
