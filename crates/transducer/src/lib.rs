//! # calm-transducer
//!
//! Relational transducer networks (Section 4): the original model of
//! Ameloot–Neven–Van den Bussche, the policy-aware and domain-guided
//! extensions of Zinn–Green–Ludäscher, the asynchronous operational
//! semantics with multiset message buffers and fair schedulers, and the
//! three generic coordination-free evaluation strategies that witness
//! `F0 = M`, `F1 = Mdistinct` and `F2 = Mdisjoint`.
//!
//! A simulation is assembled from four ingredients:
//!
//! ```text
//! TransducerNetwork {
//!     transducer: &dyn Transducer,       // the per-node program
//!     policy:     &dyn DistributionPolicy, // how inputs are distributed
//!     config:     SystemConfig,          // which system relations exist
//! }
//! ```
//!
//! and driven with [`runtime::run`] (to quiescence). The semantics it is
//! checked against — transitions one configuration to the next, the
//! coordination-freeness witnesses, the proof replays — are the
//! `calm-spec` crate's.

#![warn(missing_docs)]

pub mod engine;
pub mod multiset;
pub mod network;
pub mod policy;
pub mod rows;
pub mod runtime;
pub mod schema;
pub mod strategy;
pub mod system_facts;
pub mod trace;
pub mod transducer;

pub use engine::{NodeEngine, NodeStepOutcome};
pub use multiset::Multiset;
pub use network::{Network, NodeId};
pub use policy::{distribute, DistributionPolicy, DomainGuidedPolicy, HashPolicy};
pub use rows::{input_batches, Batch, StateRows};
pub use runtime::{
    run, run_with, Delivery, FinalStates, Metrics, RunReport, RunResult, Scheduler,
    TransducerNetwork, DEFAULT_DELIVER_P,
};
pub use schema::{policy_relation, SystemConfig, TransducerSchema};
pub use strategy::{
    expected_output, DisjointStrategy, DistinctStrategy, MessageClassCounts, MonotoneBroadcast,
};
pub use trace::{Trace, TraceEvent, TraceSink};
pub use transducer::{Transducer, TransducerStep};
