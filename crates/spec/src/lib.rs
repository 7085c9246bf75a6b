//! # calm-spec
//!
//! The paper's semantics of transducer networks, executable: the
//! [`semantics`] of configurations and transitions (§4.1.3), `S` from
//! scratch, coordination-freeness witnesses (Definition 3), the proof
//! replays of Theorems 4.3–4.5, and Datalog transducers with the network
//! compiler. The engines are checked against it; none depends on it.

#![warn(missing_docs)]

pub mod coordination;
pub mod datalog_transducer;
pub mod netcompile;
pub mod proof_replay;
pub mod semantics;
pub mod system_facts;

pub use coordination::heartbeat_witness;
pub use datalog_transducer::DatalogTransducer;
pub use netcompile::{compile_monotone_program, NetCompileError};
pub use proof_replay::{replay_no_all_indistinguishability, replay_policy_surgery, ReplayOutcome};
pub use semantics::{final_config, network_output, transition, verify_computes, Configuration};
pub use system_facts::system_facts;
