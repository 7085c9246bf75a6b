//! # calm-spec
//!
//! The paper's semantics of transducer networks, executable: the
//! [`semantics`] of configurations and transitions (§4.1.3) and a node
//! read as facts, `S` from scratch, coordination-freeness witnesses
//! (Definition 3), the proof replays of Theorems 4.3–4.5 with the
//! example [`policies`] they and Example 4.1 use, win-move's
//! [`doubled`] program (§7), Datalog transducers with the network
//! compiler, and the [`reference`] evaluator of stratified Datalog¬.
//! The engines are checked against it; none depends on it.

#![warn(missing_docs)]

pub mod coordination;
pub mod datalog_transducer;
pub mod doubled;
pub mod netcompile;
pub mod policies;
pub mod proof_replay;
pub mod reference;
pub mod semantics;
pub mod system_facts;

pub use coordination::heartbeat_witness;
pub use datalog_transducer::DatalogTransducer;
pub use doubled::{doubled_program, DoubledProgram};
pub use netcompile::{compile_monotone_program, NetCompileError};
pub use policies::{
    OverridePolicy, ParityDomainGuidedPolicy, ParityFirstAttributePolicy, ReplicatedDomainPolicy,
};
pub use proof_replay::{replay_no_all_indistinguishability, replay_policy_surgery, ReplayOutcome};
pub use semantics::{
    final_config, network_output, node_pending, node_state, node_visible, transition,
    verify_computes, Configuration,
};
pub use system_facts::system_facts;
