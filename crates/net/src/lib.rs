//! # calm-net
//!
//! Two network engines for relational transducer networks, over one
//! worker loop. The threaded executor ([`run_threaded`]) gives each
//! worker thread a shard of the nodes (node `i` on worker `i mod W`)
//! and carries messages over `mpsc` channels; the process engine
//! ([`run_process`], [`transport`]) runs them as OS processes that a
//! coordinator relays for over TCP, and under supervision respawns a
//! killed one from its nodes' shipped checkpoints. A send
//! crosses as a delta-coded fact batch ([`wirefmt`]), a fault plan
//! ([`faults`]) makes the wire hostile and a reliability layer repairs
//! it, and global quiescence is detected with a Safra-style token ring.
//!
//! The sequential simulator in `calm-transducer` is the semantic
//! oracle: every engine runs the same per-node step core
//! ([`calm_transducer::engine::NodeEngine`]), so they can differ only
//! in *scheduling* — and for coordination-free programs the paper's
//! confluence guarantee says scheduling cannot matter. The equivalence
//! tests in this crate execute that guarantee: `out(R)` united from the
//! final states of a threaded or process run ([`NetRunReport::states`])
//! equals the sequential engine's ([`calm_transducer::RunReport::states`])
//! for all three strategy families, across seeds and worker counts.
//!
//! ```
//! use calm_net::{run_threaded, Programs, ThreadedConfig, ThreadedNetwork};
//! use calm_transducer::{
//!     run, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig, Transducer,
//!     TransducerNetwork,
//! };
//! use calm_common::{fact, FnQuery, Instance, Schema};
//!
//! // The broadcast strategy over a copy of `E`; every worker builds its own.
//! fn strategy() -> Box<dyn Transducer> {
//!     let copy = FnQuery::new(
//!         "copy",
//!         Schema::from_pairs([("E", 2)]),
//!         Schema::from_pairs([("E2", 2)]),
//!         |i: &Instance| Instance::from_facts(
//!             i.tuples("E").map(|t| fact("E2", [t[0].clone(), t[1].clone()])),
//!         ),
//!     );
//!     Box::new(MonotoneBroadcast::new(Box::new(copy)))
//! }
//! let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
//! let policy = HashPolicy::new(Network::of_size(3));
//!
//! // Sequential oracle…
//! let seq = run(
//!     &TransducerNetwork { transducer: &*strategy(), policy: &policy, config: SystemConfig::ORIGINAL },
//!     &input,
//!     &Scheduler::RoundRobin,
//!     10_000,
//! );
//! // …and the threaded engine agree, per the CALM confluence guarantee.
//! let thr = run_threaded(
//!     &ThreadedNetwork { programs: Programs::PerWorker(&strategy), policy: &policy, config: SystemConfig::ORIGINAL },
//!     &input,
//!     &ThreadedConfig::new(2),
//! );
//! assert!(seq.quiescent && thr.quiescent);
//! assert_eq!(thr.output, seq.output);
//! ```

#![warn(missing_docs)]

mod codec;
pub mod executor;
pub mod faults;
mod reliable;
mod termination;
pub mod transport;
pub mod wirefmt;

pub use executor::{
    run_threaded, run_threaded_with, NetRunReport, Programs, ThreadedConfig, ThreadedNetwork,
    ThreadedRunResult, WorkerStats,
};
pub use faults::{CrashPoint, FaultPlan, FaultStats, LinkFaults, Partition};
pub use reliable::LinkCounters;
pub use transport::{
    run_net_worker, run_process, Assign, JobSpec, NetError, ProcessConfig, SpawnHandle, Spawner,
    WorkerBuilder, WorkerSetup, PROTOCOL_VERSION,
};
pub use wirefmt::WireError;
