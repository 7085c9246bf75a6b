//! # calm-datalog
//!
//! Datalog with stratified negation, exactly as defined in Section 2 of
//! *"Weaker Forms of Monotonicity for Declarative Networking"* (PODS 2014):
//! rules `(head, pos, neg, ineq)`, semi-positive and stratified semantics,
//! plus the fragment analysis of Section 5.1 (connected and semi-connected
//! stratified Datalog¬) and the well-founded semantics (alternating
//! fixpoint) used for win-move; the doubled-program construction is
//! `calm-spec`'s.
//!
//! Entry points, one per job:
//! * [`parser::parse_program`] — text syntax → [`program::Program`];
//! * [`query::DatalogQuery`] — a program packaged as a
//!   [`calm_common::query::Query`], compiled once: `eval` for the
//!   answer `P(I)|σ'`, `open` for a maintained evaluation under signed
//!   update batches;
//! * [`eval::eval_program`] — the full stratified model of an
//!   instance and each stratum's counters, under [`eval::EvalOptions`]
//!   (the data-parallel driver) and an observer; [`eval::eval_database`] is the same evaluation over rows
//!   already loaded into a [`eval::Database`];
//! * [`fragment::classify`] — Figure 2 fragment membership;
//! * [`wellfounded::well_founded_model`] — the three-valued WFS.

#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod fragment;
pub mod nullary;
pub mod parser;
pub mod program;
pub mod query;
pub mod stratify;
pub mod wellfounded;

pub use ast::{Atom, Rule, Term, Var};
pub use eval::{eval_database, eval_program, plan_report, EvalOptions};
pub use eval::{MaintenancePlan, UpdateStats};
pub use fragment::{classify, is_rule_connected, FragmentReport};
pub use parser::{parse_facts, parse_program, parse_rule, parse_updates};
pub use program::{Program, ProgramError};
pub use query::{DatalogQuery, IncrementalEvaluation};
pub use stratify::{stratify, Stratification};
pub use wellfounded::{well_founded_model, WellFoundedModel, WellFoundedQuery};
