//! E25: the three engines against each other — the sequential
//! simulator, the threaded executor at W ∈ {1, 2, 4, 8} and the process
//! engine (coordinator + W workers over loopback TCP) at W ∈ {1, 2, 4}:
//! outputs, messages, wire bytes and token passes. (Their wall clocks
//! are `net.executor.overhead_w1` and `net.transport.{seq, thr_w2,
//! proc_p1, proc_p2}_wall_s` in BENCHMARK.json.)
//!
//! The process workers here are thread-backed (the same
//! [`run_net_worker`] entry point the `calm net-worker` binary drives),
//! so every run still crosses real sockets, frames and the relay; the
//! CLI test suite covers genuine OS processes.
//!
//! Two claims per strategy family: the engines agree byte-for-byte
//! (confluence across thread and process boundaries), and the process
//! engine's wire accounting matches the threaded engine's — both count
//! the same canonical delta-encoded batch payloads and nothing else
//! (the TCP framing is not payload). What is compared is what
//! scheduling cannot move: at W = 1 both engines count exactly zero
//! bytes (no cross-worker traffic), which pins the accounting itself,
//! and at every W both ship exactly the same number of messages. The
//! byte totals above W = 1 are reported, not gated: batch *boundaries*
//! depend on how deliveries interleave with steps — confluence fixes
//! the facts, not the number of batches (each with its own header and
//! dictionary) carrying them.

use crate::report::{markdown_table, Report};
use crate::workloads::{families, scaling_graph};
use calm_common::Instance;
use calm_net::{
    run_net_worker, run_process, Assign, JobSpec, NetRunReport, ProcessConfig, SpawnHandle,
    ThreadedConfig, WorkerSetup,
};
use calm_obs::Obs;

pub(super) const NODES: usize = 8;
const THREADED: [usize; 4] = [1, 2, 4, 8];
const PROCS: [usize; 3] = [1, 2, 4];

/// The process-engine job for one strategy family on `NODES` nodes.
/// Program and facts stay empty: the thread-backed workers of
/// [`run_process_tcp`] rebuild the family from the strategy name.
pub(super) fn job(strategy: &str, procs: usize, faults: Option<String>) -> ProcessConfig {
    ProcessConfig::new(
        procs,
        JobSpec {
            program: String::new(),
            facts: String::new(),
            strategy: strategy.to_string(),
            nodes: NODES,
            eval_threads: 1,
            step_budget: 5_000_000,
            faults,
            trace_prefix: None,
            flight_path: None,
        },
    )
}

/// Run the process engine over real sockets with thread-backed workers;
/// `obs` observes the coordinator.
pub(super) fn run_process_tcp(cfg: &ProcessConfig, input: &Instance, obs: &Obs) -> NetRunReport {
    let input = input.clone();
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input.clone();
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            let builder = move |assign: &Assign| -> Result<WorkerSetup, String> {
                let spec = &assign.spec;
                let family = families(spec.nodes)
                    .into_iter()
                    .find(|f| f.strategy == spec.strategy)
                    .ok_or_else(|| format!("unknown strategy family {}", spec.strategy))?;
                Ok(WorkerSetup {
                    transducer: family.transducer(spec.eval_threads),
                    policy: family.policy,
                    config: family.config,
                    input: input.clone(),
                    obs: Obs::noop(),
                })
            };
            if let Err(e) = run_net_worker(&addr, k, &builder) {
                // A scripted kill (E26) *is* the worker erroring out;
                // real failures also surface in the coordinator's result.
                if !e.to_string().contains("killed by fault plan") {
                    eprintln!("worker {k} failed: {e}");
                }
            }
        })))
    };
    run_process(cfg, &spawner, obs).expect("process run starts")
}

/// E25: sequential vs threaded vs process engine. `obs` sees the
/// sequential and threaded runs (the process runs keep noop workers —
/// their traffic is what is counted, not traced).
pub fn e25_process(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E25",
        "sequential vs threaded vs process engines — outputs, messages, wire bytes, token passes",
    );
    let input = scaling_graph(11, 32, 1.5);
    let mut rows = Vec::new();
    let mut row =
        |label: &str, engine: String, msgs: usize, wire: Option<(u64, u64)>, quiescent: bool| {
            rows.push(vec![
                label.to_string(),
                engine,
                msgs.to_string(),
                wire.map_or("-".into(), |(bytes, _)| bytes.to_string()),
                wire.map_or("-".into(), |(_, tokens)| tokens.to_string()),
                quiescent.to_string(),
            ]);
        };

    for f in families(NODES) {
        let label = f.label;
        let transducer = f.transducer(1);
        let (expected, seq) = f.run_sequential(&input, obs);
        let sent = seq.metrics.messages_sent;
        row(label, "sequential".into(), sent, None, seq.quiescent);

        let mut all_equal = seq.quiescent;
        let mut bytes_match = true;
        let mut worst_spread = 0.0f64;
        for workers in THREADED {
            let (output, thr) = f.run_threaded(&input, &ThreadedConfig::new(workers), obs);
            let tokens = thr.token_passes();
            all_equal &= thr.quiescent && output == expected;
            bytes_match &=
                thr.metrics.messages_sent == sent && (thr.wire_bytes == 0) == (workers == 1);
            row(
                label,
                format!("threaded x{workers}"),
                thr.metrics.messages_sent,
                Some((thr.wire_bytes, tokens)),
                thr.quiescent,
            );
            if !PROCS.contains(&workers) {
                continue;
            }

            // Unsupervised: supervision (snapshot shipping, respawns)
            // is E26's subject.
            let cfg = job(f.strategy, workers, None).with_respawn_budget(0);
            let proc = run_process_tcp(&cfg, &input, &Obs::noop());
            all_equal &= proc.quiescent
                && proc.failed_workers.is_empty()
                && proc.states.output(&transducer.schema().output) == expected;
            // Same payload-only accounting on both engines: the same
            // messages at every W, no bytes at all at W = 1 and some
            // above. (The byte totals above W = 1 wobble by up to ~15 %
            // between any two runs, of either engine: batch boundaries
            // are scheduling.)
            bytes_match &=
                proc.metrics.messages_sent == sent && (proc.wire_bytes == 0) == (workers == 1);
            let spread =
                proc.wire_bytes.abs_diff(thr.wire_bytes) as f64 / thr.wire_bytes.max(1) as f64;
            worst_spread = worst_spread.max(spread);
            row(
                label,
                format!("process x{workers}"),
                proc.metrics.messages_sent,
                Some((proc.wire_bytes, proc.token_passes())),
                proc.quiescent,
            );
        }
        r.claim(
            format!(
                "{label}: threaded (W {{1,2,4,8}}) and process (W {{1,2,4}}) outputs equal sequential"
            ),
            "byte-identical network_output, all runs quiescent, no failed workers",
            all_equal,
        );
        r.claim(
            format!("{label}: process wire accounting matches the threaded engine's at every W"),
            format!(
                "payload-only: zero bytes at W=1, nonzero above, messages_sent identical at \
                 every W (byte totals differ by up to {:.0}% here — batch boundaries are scheduling)",
                100.0 * worst_spread
            ),
            bytes_match,
        );
    }

    r.table(markdown_table(
        &[
            "strategy (query)",
            "engine",
            "msgs sent",
            "wire bytes",
            "token passes",
            "quiescent",
        ],
        &rows,
    ));
    r
}
