//! # calm-common
//!
//! The relational substrate shared by every crate in the `calm` workspace:
//! domain values, facts, schemas, instances, active domains,
//! domain-distinctness/disjointness, components `co(I)`, a seeded PRNG,
//! instance generators, and the interned row store (symbol table,
//! relations, fact printer) the engines evaluate over.
//!
//! Terminology follows the paper *"Weaker Forms of Monotonicity for
//! Declarative Networking"* (Ameloot, Ketsman, Neven, Zinn — PODS 2014),
//! Section 2.

#![warn(missing_docs)]

pub mod component;
pub mod domain;
pub mod fact;
pub mod generator;
pub mod instance;
pub mod query;
pub mod rng;
pub mod schema;
pub mod storage;
pub mod update;
pub mod value;

pub use component::components;
pub use domain::{is_domain_disjoint, is_domain_distinct, is_induced_subinstance};
pub use fact::{fact, rel, Fact, RelName};
pub use instance::{Instance, Tuple};
pub use query::{FnQuery, Query, QuerySession, RowBatch};
pub use schema::Schema;
pub use update::UpdateBatch;
pub use value::{v, SkolemTerm, Value};
