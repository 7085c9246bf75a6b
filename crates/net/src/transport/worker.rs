//! The worker side of the process engine: connect to the coordinator,
//! handshake, then run the *same* worker loop as the threaded engine
//! over socket-backed ports.
//!
//! The worker is program-agnostic: calm-net knows nothing about Datalog
//! parsing, so the caller supplies a [`WorkerBuilder`] that turns the
//! received [`Assign`] into a transducer + policy + input (the CLI's
//! builder parses the program and facts sources carried by value in the
//! [`JobSpec`](super::JobSpec); tests build toy networks directly).
//!
//! Transport failures never panic: a reset, broken pipe, or coordinator
//! EOF marks the link down, the worker loop exits non-clean (the lost
//! link forfeits the quiescence claim through
//! `Ports::link_ok`), and every
//! message that could not be put on the wire is counted in
//! [`FaultStats::dropped`](crate::FaultStats::dropped).

use super::frame::{read_frame, write_frame, FrameError};
use super::proto::{decode_ctrl, encode_ctrl, Assign, CtrlMsg, PROTOCOL_VERSION};
use crate::executor::{run_worker, Msg, NodeFactory, Ports, ProcCtx, WorkerCtx};
use crate::faults::FaultPlan;
use calm_common::instance::Instance;
use calm_common::storage::SharedSymbols;
use calm_obs::Obs;
use calm_transducer::policy::DistributionPolicy;
use calm_transducer::schema::SystemConfig;
use calm_transducer::transducer::Transducer;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the worker keeps retrying the initial connect. The
/// coordinator binds its listener before spawning workers, so this only
/// covers slow process start-up, not a race.
const CONNECT_RETRIES: u32 = 50;
const CONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// How long the worker waits for the `Assign` after sending `Hello`.
/// The coordinator holds Assigns until all W workers have said hello
/// (the handshake barrier), so this must cover the slowest sibling's
/// spawn, not just one round-trip.
const ASSIGN_TIMEOUT: Duration = Duration::from_secs(30);

/// What the builder must produce from an [`Assign`]: the ingredients of
/// a [`ThreadedNetwork`](crate::ThreadedNetwork), owned, plus this
/// worker's observability sink (already routed to per-worker paths by
/// the coordinator's suffixing — see [`JobSpec`](super::JobSpec)).
pub struct WorkerSetup {
    /// This worker's own transducer instance (own scratch database and
    /// interner — workers share no memory at all here).
    pub transducer: Box<dyn Transducer>,
    /// The distribution policy (also supplies the network).
    pub policy: Box<dyn DistributionPolicy>,
    /// Which system relations nodes see (model variant).
    pub config: SystemConfig,
    /// The network input `I`. Every worker interns the `H(x)` of every
    /// node from it locally — the policy is deterministic, so all
    /// workers agree on it without further coordination.
    pub input: Instance,
    /// Per-worker observability (trace/flight paths already suffixed).
    pub obs: Obs,
}

/// Turns the coordinator's `Assign` into a runnable network.
pub type WorkerBuilder<'a> = dyn Fn(&Assign) -> Result<WorkerSetup, String> + 'a;

/// The socket transport behind the shared worker loop. Outbound
/// messages become `Route` frames written under a mutex (one writer at
/// a time keeps per-link FIFO); inbound frames are decoded by a reader
/// thread and fed through an in-process channel, which gives the three
/// receive flavors the [`Ports`] trait wants for free.
struct SocketPorts {
    writer: Mutex<TcpStream>,
    rx: Receiver<Msg>,
    /// Set by either side on the first transport failure. Once down,
    /// sends are counted as drops and the worker loop's exit is
    /// non-clean.
    down: Arc<AtomicBool>,
    /// Messages that could not be written because the link was down.
    send_drops: AtomicU64,
    /// This worker's ring position, stamped into `Heartbeat` frames.
    worker: usize,
}

impl SocketPorts {
    /// Write one control frame under the writer mutex. The shared mutex
    /// is the output-commit mechanism: a `Snapshot` written before a
    /// `Route` is on the socket before it, and per-link FIFO does the
    /// rest.
    fn write_ctrl(&self, ctrl: &CtrlMsg) -> bool {
        if self.down.load(Ordering::SeqCst) {
            return false;
        }
        let payload = encode_ctrl(ctrl);
        let mut stream = self.writer.lock().expect("writer mutex");
        if write_frame(&mut *stream, &payload).is_err() {
            self.down.store(true, Ordering::SeqCst);
            return false;
        }
        true
    }
}

impl Ports for SocketPorts {
    fn send(&self, dst: usize, msg: Msg) {
        if !self.write_ctrl(&CtrlMsg::Route { dst, msg }) {
            self.send_drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn ship_snapshot(&self, node: usize, version: u64, blob: Vec<u8>) {
        // A failed ship is not a drop: the supervisor just keeps its
        // older version, and restore replays from further back.
        self.write_ctrl(&CtrlMsg::Snapshot {
            node,
            version,
            blob,
        });
    }

    fn heartbeat(&self) {
        self.write_ctrl(&CtrlMsg::Heartbeat {
            worker: self.worker,
        });
    }

    fn try_recv(&self) -> Result<Msg, TryRecvError> {
        self.rx.try_recv()
    }

    fn recv(&self) -> Result<Msg, RecvError> {
        self.rx.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Msg, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    fn link_ok(&self) -> bool {
        !self.down.load(Ordering::SeqCst)
    }
}

/// The reader half: decode frames into executor messages until the
/// stream ends. A clean close after `Terminate` is the normal shutdown;
/// anything else marks the link down. Dropping `tx` on exit is what
/// unblocks a worker loop parked in `recv()`.
fn reader_loop(mut stream: TcpStream, tx: Sender<Msg>, down: Arc<AtomicBool>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => break,
            Err(_) => {
                down.store(true, Ordering::SeqCst);
                break;
            }
        };
        let msg = match decode_ctrl(&payload) {
            Ok(CtrlMsg::Deliver(msg)) => msg,
            _ => {
                // Undecodable or out-of-phase control traffic: the
                // stream cannot be trusted past this point.
                down.store(true, Ordering::SeqCst);
                break;
            }
        };
        let terminate = matches!(msg, Msg::Terminate);
        if tx.send(msg).is_err() || terminate {
            break;
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..CONNECT_RETRIES {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(CONNECT_BACKOFF);
            }
        }
    }
    Err(format!(
        "could not connect to coordinator at {addr}: {last}"
    ))
}

/// Run one process-engine worker to completion: connect to the
/// coordinator at `addr`, introduce ourselves as worker `worker`, build
/// the network from the received assignment, run the shared worker loop
/// over the socket, and report final states. Returns the assignment's
/// worker index on success so callers can log it.
///
/// Errors are strings (this is the `calm net-worker` entry point's
/// backend; the CLI turns them into exit codes). A transport failure
/// *during* the run is not an error — the run completes non-clean and
/// the final report (if the link still permits one) says so.
pub fn run_net_worker(
    addr: &str,
    worker: usize,
    builder: &WorkerBuilder<'_>,
) -> Result<(), String> {
    let mut stream = connect(addr)?;
    stream.set_nodelay(true).ok();

    // Handshake: Hello, then wait (bounded) for the Assign.
    write_frame(
        &mut stream,
        &encode_ctrl(&CtrlMsg::Hello {
            version: PROTOCOL_VERSION,
            worker,
        }),
    )
    .map_err(|e| format!("hello failed: {e}"))?;
    stream.set_read_timeout(Some(ASSIGN_TIMEOUT)).ok();
    let payload = read_frame(&mut stream).map_err(|e| format!("no assignment: {e}"))?;
    let mut assign = match decode_ctrl(&payload) {
        Ok(CtrlMsg::Assign(a)) => a,
        Ok(_) => return Err("expected Assign as the second frame".into()),
        Err(e) => return Err(format!("assignment did not decode: {e}")),
    };
    if assign.worker != worker {
        return Err(format!(
            "coordinator assigned index {} to worker {worker}",
            assign.worker
        ));
    }
    stream.set_read_timeout(None).ok();

    let setup = builder(&assign)?;
    let mut faults = match &assign.spec.faults {
        Some(spec) => Some(FaultPlan::parse(spec)?),
        None => None,
    };
    if assign.supervised && faults.is_none() {
        // Supervision needs the reliability substrate underneath even
        // when no faults are injected: every data message must ride a
        // wire — a sender obligation until the receiver's snapshot acks
        // it — for snapshot restore and replay to cover the crash
        // window. The empty plan is exactly that: no injected faults,
        // full substrate.
        faults = Some(FaultPlan::none(0));
    }

    let proc = ProcCtx {
        incarnation: assign.incarnation,
        epoch: assign.epoch,
        supervised: assign.supervised,
        handoff: assign.handoff.take(),
    };

    let (transducer, policy) = (setup.transducer.as_ref(), setup.policy.as_ref());
    let symbols = SharedSymbols::new();
    let fab = NodeFactory::new(transducer, policy, setup.config, &setup.input, symbols);

    let reader_stream = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let down = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn({
        let down = down.clone();
        move || reader_loop(reader_stream, tx, down)
    });

    let ports = SocketPorts {
        writer: Mutex::new(stream),
        rx,
        down,
        send_drops: AtomicU64::new(0),
        worker: assign.worker,
    };
    let mut outcome = run_worker(WorkerCtx {
        id: assign.worker,
        workers: assign.workers,
        fab,
        ports: &ports,
        budget: assign.spec.step_budget,
        faults: faults.as_ref(),
        obs: &setup.obs,
        proc,
    });
    // Writes the transport refused are counted link faults, not losses
    // the accounting forgets about.
    outcome.report.stats.faults.dropped += ports.send_drops.load(Ordering::SeqCst);

    if outcome.killed {
        // Scripted process kill: die the way a real crash does — no
        // Final frame, no ack flush, a hard socket shutdown the
        // supervisor sees as EOF — but flush the observability sinks
        // first so post-mortem JSONL from the dead incarnation is
        // never truncated mid-line.
        setup.obs.finish();
        {
            let stream = ports.writer.lock().expect("writer mutex");
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = reader.join();
        return Err(format!(
            "worker {} incarnation {} killed by fault plan",
            assign.worker, assign.incarnation
        ));
    }

    // Report. Best effort: if the link died this write fails too, and
    // the coordinator has already counted us down.
    let report = CtrlMsg::Final(outcome.report);
    {
        let _span = setup.obs.span("net", || "final.encode".to_string());
        let mut stream = ports.writer.lock().expect("writer mutex");
        let _ = write_frame(&mut *stream, &encode_ctrl(&report));
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    setup.obs.finish();
    let _ = reader.join();
    Ok(())
}
