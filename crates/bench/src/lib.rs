//! # calm-bench
//!
//! The executable form of the paper's claims: the `repro` binary
//! regenerates every figure and numbered claim (experiments E1–E17 of
//! DESIGN.md) and the equivalences the engines built around them owe
//! (E18–E27).
//!
//! The paper is a theory paper — its "evaluation" is Figure 1 (the
//! monotonicity hierarchy), Figure 2 (the class/fragment/model diagram)
//! and the numbered theorems, and in the transducer-network semantics a
//! coordination-free strategy produces the same output under every fair
//! run. So everything checked here is an equality or a count
//! (`messages_sent` per class, derivations, bytes); `repro` turns each
//! into a PASS/FAIL row and a table, and EXPERIMENTS.md records the
//! output. Nothing in this crate reads a clock: what a run costs is
//! measured by `benchmark/` (BENCHMARK.json), at sizes where the
//! number means something.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::{Report, Status};
