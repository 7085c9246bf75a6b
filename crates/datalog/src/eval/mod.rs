//! Evaluation of Datalog¬: one fixpoint, its stores and its maintenance.
//!
//! * [`database`] — the internal relation store over the shared
//!   substrate ([`calm_common::storage`]): interned symbols, indexed
//!   delta-tracked rows;
//! * [`compile`] — rule compilation into interned slot form, and the
//!   one planner: every access path of every rule;
//! * `join` — the one kernel that enumerates body valuations along
//!   those paths;
//! * [`seminaive`] — the fixpoint of a semi-positive program: planned
//!   semi-naive, data-parallel at [`EvalOptions::eval_threads`] > 1;
//! * [`stratified`] — the stratified semantics driver and its two
//!   doors, [`eval_database`] over rows and [`eval_program`] over an
//!   [`calm_common::instance::Instance`];
//! * [`incremental`] — maintenance of a materialized stratified
//!   database under signed update batches.

pub mod compile;
pub mod database;
pub mod incremental;
mod join;
pub mod seminaive;
pub mod stratified;

pub use database::Database;
pub use incremental::{MaintenancePlan, UpdateStats};
pub use seminaive::{
    fixpoint_seminaive_compiled, CompiledProgram, EvalMetrics, EvalOptions, RuleSet, ValuationQuery,
};
pub use stratified::{eval_database, eval_program, plan_report};
