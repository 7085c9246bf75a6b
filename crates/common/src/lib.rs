//! # calm-common
//!
//! The relational substrate shared by every crate in the `calm` workspace:
//! domain values, facts, schemas, instances, active domains,
//! domain-distinctness/disjointness, components, homomorphisms, and
//! deterministic/seeded instance generators.
//!
//! Terminology follows the paper *"Weaker Forms of Monotonicity for
//! Declarative Networking"* (Ameloot, Ketsman, Neven, Zinn — PODS 2014),
//! Section 2.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod component;
pub mod domain;
pub mod fact;
pub mod generator;
pub mod homomorphism;
pub mod instance;
pub mod query;
pub mod rng;
pub mod schema;
pub mod storage;
pub mod update;
pub mod value;

pub use component::{component_count, components};
pub use domain::{is_domain_disjoint, is_domain_distinct, is_induced_subinstance, FreshValues};
pub use fact::{fact, rel, Fact, RelName};
pub use instance::{Instance, Tuple};
pub use query::{FnQuery, Query, QuerySession};
pub use schema::{Schema, SchemaError};
pub use update::UpdateBatch;
pub use value::{v, SkolemTerm, Value};
