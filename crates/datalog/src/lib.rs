//! # calm-datalog
//!
//! Datalog with stratified negation, exactly as defined in Section 2 of
//! *"Weaker Forms of Monotonicity for Declarative Networking"* (PODS 2014):
//! rules `(head, pos, neg, ineq)`, semi-positive and stratified semantics,
//! plus the fragment analysis of Section 5.1 (connected and semi-connected
//! stratified Datalog¬) and the well-founded semantics (alternating
//! fixpoint and the doubled-program construction) used for win-move.
//!
//! Entry points:
//! * [`parser::parse_program`] — text syntax → [`program::Program`];
//! * [`eval::eval_query`] — stratified evaluation projected onto the
//!   output schema;
//! * [`query::DatalogQuery`] — a program packaged as a
//!   [`calm_common::query::Query`];
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
pub use eval::{apply_update_compiled, MaintenancePlan, UpdateStats};
pub use eval::{eval_database, eval_program, eval_query, eval_query_opts, plan_report, Engine};
pub use fragment::{classify, is_rule_connected, FragmentReport};
pub use parser::{parse_facts, parse_program, parse_rule, parse_updates};
pub use program::{Program, ProgramError};
pub use query::{DatalogQuery, IncrementalEvaluation};
pub use stratify::{is_stratifiable, stratify, Stratification};
pub use wellfounded::{
    well_founded_model, well_founded_model_opts, WellFoundedModel, WellFoundedQuery,
    WellFoundedSession,
};
