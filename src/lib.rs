//! # calm — weaker forms of monotonicity for declarative networking
//!
//! An executable reproduction of *"Weaker Forms of Monotonicity for
//! Declarative Networking: a More Fine-grained Answer to the
//! CALM-conjecture"* (Ameloot, Ketsman, Neven, Zinn — PODS 2014).
//!
//! The paper refines the CALM theorem ("coordination-free ⟺ monotone")
//! into a three-level hierarchy, each level pairing a transducer-network
//! model with a weaker form of monotonicity and a Datalog fragment:
//!
//! | Model | Class | Fragment |
//! |---|---|---|
//! | original (`F0`) | `M` — monotone | `Datalog(≠)` / `wILOG(≠)` |
//! | policy-aware (`F1`) | `Mdistinct` — domain-distinct-monotone | `SP-Datalog` / `SP-wILOG` |
//! | domain-guided (`F2`) | `Mdisjoint` — domain-disjoint-monotone | `semicon-Datalog¬` / `semicon-wILOG¬` |
//!
//! This facade re-exports the workspace crates:
//!
//! * [`common`] — values, facts, instances, components, the
//!   domain-distinct/disjoint predicates, generators, the interned row
//!   store, and the [`common::query::Query`] trait;
//! * [`datalog`] — the Datalog¬ engine (parser, stratified semantics,
//!   fragments, well-founded semantics);
//! * [`ilog`] — value invention (ILOG¬, weak safety, wILOG¬ fragments);
//! * [`monotone`] — falsifiers and exhaustive certifiers for the
//!   monotonicity and preservation classes;
//! * [`queries`] — the paper's concrete separating queries;
//! * [`transducer`] — relational transducer networks and the three
//!   coordination-free evaluation strategies;
//! * [`spec`] — the semantics they are checked against: transitions,
//!   coordination-freeness witnesses, proof replays, Datalog transducers.
//!
//! ## Quickstart
//!
//! ```
//! use calm::prelude::*;
//!
//! // The complement-of-transitive-closure query (Mdisjoint \ Mdistinct).
//! let qtc = calm::queries::qtc_datalog();
//! let input = calm::common::generator::path(3);
//! let answer = qtc.eval(&input);
//! assert!(answer.contains(&calm::common::fact("O", [3, 0])));
//!
//! // Run it coordination-free on a 3-node network under a domain-guided
//! // distribution (Theorem 4.4).
//! let strategy = DisjointStrategy::new(Box::new(calm::queries::qtc_datalog()));
//! let expected = expected_output(strategy.query(), &input);
//! let policy = DomainGuidedPolicy::new(Network::of_size(3));
//! let network = TransducerNetwork {
//!     transducer: &strategy,
//!     policy: &policy,
//!     config: SystemConfig::POLICY_AWARE,
//! };
//! let result = run(&network, &input, &Scheduler::RoundRobin, 100_000);
//! assert!(result.quiescent);
//! assert_eq!(result.output, expected);
//! ```
//!
//! ## Incremental maintenance
//!
//! When the input changes, fold a signed [`prelude::UpdateBatch`] into a
//! maintained evaluation instead of re-running the fixpoint — the result
//! is byte-identical to evaluating the updated input from scratch:
//!
//! ```
//! use calm::prelude::*;
//!
//! let qtc = calm::queries::qtc_datalog();
//! let mut input = calm::common::generator::path(3);
//! let mut live = qtc.open(&input);              // evaluates once
//!
//! let batch = UpdateBatch::default()
//!     .with_delete(fact("E", [1, 2]))           // cut the path
//!     .with_insert(fact("E", [0, 2]));          // add a shortcut
//! let stats = live.apply(&batch);
//! assert!(stats.retractions > 0);               // T-facts withdrawn
//!
//! batch.apply_to_instance(&mut input);
//! assert_eq!(live.output(), qtc.eval(&input));  // the oracle
//! ```

pub use calm_common as common;
pub use calm_datalog as datalog;
pub use calm_ilog as ilog;
pub use calm_monotone as monotone;
pub use calm_queries as queries;
pub use calm_spec as spec;
pub use calm_transducer as transducer;

/// The most commonly used items in one import.
pub mod prelude {
    pub use calm_common::query::{FnQuery, Query};
    pub use calm_common::update::UpdateBatch;
    pub use calm_common::{fact, v, Fact, Instance, Schema, Value};
    pub use calm_datalog::{parse_program, DatalogQuery, IncrementalEvaluation, WellFoundedQuery};
    pub use calm_monotone::{ExtensionKind, Falsifier};
    pub use calm_transducer::{
        expected_output, run, DisjointStrategy, DistinctStrategy, DistributionPolicy,
        DomainGuidedPolicy, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig,
        TransducerNetwork,
    };
}
