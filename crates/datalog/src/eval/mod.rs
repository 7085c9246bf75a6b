//! Evaluation engines for Datalog¬.
//!
//! * [`database`] — the internal relation store over the shared
//!   substrate ([`calm_common::storage`]): interned symbols, indexed
//!   delta-tracked rows;
//! * [`compile`] — rule compilation into interned slot form, and the
//!   one planner: every access path of every rule;
//! * `join` — the one kernel that enumerates body valuations along
//!   those paths;
//! * [`seminaive`] — naive and semi-naive fixpoints for semi-positive
//!   programs;
//! * [`stratified`] — the stratified semantics driver;
//! * [`incremental`] — DRed maintenance of a materialized stratified
//!   database under signed update batches.

pub mod compile;
pub mod database;
pub mod incremental;
mod join;
pub mod seminaive;
pub mod stratified;

pub use database::Database;
pub use incremental::{apply_update_compiled, MaintenancePlan, UpdateStats};
pub use seminaive::{
    body_valuations, derive_once, fixpoint_naive, fixpoint_seminaive, fixpoint_seminaive_compiled,
    fixpoint_seminaive_full, CompiledProgram, EvalMetrics, EvalOptions, RuleSet, ValuationQuery,
};
pub use stratified::{
    eval_database, eval_program, eval_program_with, eval_query, eval_query_opts,
    eval_stratification_opts, plan_report, Engine,
};
