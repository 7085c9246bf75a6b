//! The process engine: a transducer network as W OS worker processes
//! plus a coordinator, over `std::net` TCP.
//!
//! Layered bottom-up:
//!
//! * [`frame`] — the length-prefixed frame codec. Explicit partial
//!   read/write handling; resets and EOFs surface as typed errors,
//!   never panics.
//! * [`proto`] — the control-plane messages (handshake, job hand-off,
//!   message relay, final-state collection), each laid out once over
//!   the crate's `Codec`.
//! * [`worker`] — the worker side: connect, handshake, then run the
//!   shared executor loop over a socket-backed `executor::Ports` instead of
//!   channels.
//! * [`coordinator`] — the coordinator side: listen, spawn W workers,
//!   relay their messages (star topology — per-link FIFO survives the
//!   relay, so cross-process Safra counting stays sound), collect
//!   final states, and merge accounting exactly like the threaded
//!   engine's join.
//!
//! The executor logic is *identical* to the threaded engine — same
//! `run_worker`, same reliable-delivery substrate, same token ring —
//! parameterized only by the transport. That is what makes the process
//! engine byte-identical to `--engine sequential` by construction.

pub mod coordinator;
pub mod frame;
pub mod proto;
pub mod worker;

pub use coordinator::{run_process, ProcessConfig, ProcessRunResult, SpawnHandle, Spawner};
pub use frame::{read_frame, write_frame, FrameError, FRAME_MAGIC, MAX_FRAME_LEN};
pub use proto::{Assign, FinalReport, JobSpec, PROTOCOL_VERSION};
pub use worker::{run_net_worker, WorkerBuilder, WorkerSetup};

use std::fmt;

/// Why a process-engine run could not complete.
#[derive(Debug)]
pub enum NetError {
    /// The coordinator could not bind or accept on its listener.
    Listen(std::io::Error),
    /// Spawning a worker failed.
    Spawn(String),
    /// A handshake violated the protocol (wrong version, duplicate or
    /// out-of-range worker index, wrong first frame).
    Handshake(String),
    /// A control frame failed to decode.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Listen(e) => write!(f, "coordinator listen failed: {e}"),
            NetError::Spawn(e) => write!(f, "worker spawn failed: {e}"),
            NetError::Handshake(e) => write!(f, "handshake failed: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}
