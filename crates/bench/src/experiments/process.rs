//! E25: the process engine (coordinator + W workers over loopback TCP)
//! against the threaded executor and the sequential simulator — wall
//! clock, wire bytes and token passes at W ∈ {1, 2, 4}.
//!
//! The workers here are thread-backed (the same [`run_net_worker`]
//! entry point the `calm net-worker` binary drives), so every run still
//! crosses real sockets, frames and the relay — the experiment isolates
//! the *transport* cost from process-spawn cost, which the CLI test
//! suite covers with genuine OS processes.
//!
//! Two claims ride on the numbers: the engines agree byte-for-byte
//! (confluence across process boundaries), and the process engine's
//! wire accounting matches the threaded engine's — both count the same
//! canonical delta-encoded batch payloads and nothing else (the TCP
//! framing is not payload). What is compared is what scheduling cannot
//! move: at W = 1 both engines count exactly zero bytes (no
//! cross-worker traffic), which pins the accounting itself, and at
//! every W both ship exactly the same number of messages. The byte
//! totals above W = 1 are reported, not gated: batch *boundaries*
//! depend on how deliveries interleave with steps — confluence fixes
//! the facts, not the number of batches (each with its own header and
//! dictionary) carrying them. The speedup claim is cores-aware, as in
//! E19: below 4 cores a parallel win is physically unavailable and the
//! claim is waived.

use std::time::{Duration, Instant};

use crate::report::{markdown_table, Report};
use crate::workloads::scaling_graph;
use calm_common::Instance;
use calm_net::{
    run_net_worker, run_process, run_threaded_with, Assign, JobSpec, ProcessConfig,
    ProcessRunResult, Programs, SpawnHandle, ThreadedConfig, ThreadedNetwork, WorkerSetup,
};
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_transducer::{
    run_with, DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy,
    HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig, Transducer, TransducerNetwork,
};

const NODES: usize = 8;
const WORKERS: [usize; 3] = [1, 2, 4];

/// Build one strategy family by name — the same resolution the CLI's
/// net-worker performs; by name because the worker threads rebuild it
/// from the `Assign` they receive over the socket.
fn family(
    strategy: &str,
    nodes: usize,
) -> (
    Box<dyn Transducer>,
    Box<dyn DistributionPolicy>,
    SystemConfig,
) {
    match strategy {
        "monotone" => (
            Box::new(MonotoneBroadcast::new(Box::new(tc_datalog()))),
            Box::new(HashPolicy::new(Network::of_size(nodes))),
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(Box::new(edges_without_source_loop()))),
            Box::new(HashPolicy::new(Network::of_size(nodes))),
            SystemConfig::POLICY_AWARE,
        ),
        "disjoint" => (
            Box::new(DisjointStrategy::new(Box::new(qtc_datalog()))),
            Box::new(DomainGuidedPolicy::new(Network::of_size(nodes))),
            SystemConfig::POLICY_AWARE,
        ),
        other => panic!("unknown strategy family {other}"),
    }
}

/// Run the process engine over real sockets with thread-backed workers.
fn run_process_tcp(strategy: &'static str, input: &Instance, procs: usize) -> ProcessRunResult {
    let cfg = ProcessConfig::new(
        procs,
        JobSpec {
            program: String::new(),
            facts: String::new(),
            strategy: strategy.to_string(),
            nodes: NODES,
            eval_threads: 1,
            step_budget: 5_000_000,
            faults: None,
            trace_prefix: None,
            flight_path: None,
        },
    )
    // Unsupervised: E25 measures transport cost; supervision (snapshot
    // shipping, respawns) is E26's subject.
    .with_respawn_budget(0);
    let input = input.clone();
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input.clone();
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            let builder = move |assign: &Assign| -> Result<WorkerSetup, String> {
                let (transducer, policy, config) = family(&assign.spec.strategy, assign.spec.nodes);
                Ok(WorkerSetup {
                    transducer,
                    policy,
                    config,
                    input: input.clone(),
                    obs: Obs::noop(),
                })
            };
            if let Err(e) = run_net_worker(&addr, k, &builder) {
                eprintln!("e25 worker {k} failed: {e}");
            }
        })))
    };
    run_process(&cfg, &spawner, &Obs::noop()).expect("process run starts")
}

/// Project `out(R)` from the collected states (the transport is
/// program-agnostic, so the output schema lives with the caller).
fn project_output(t: &dyn Transducer, r: &ProcessRunResult) -> Instance {
    let out_schema = &t.schema().output;
    let mut output = Instance::new();
    for state in r.states.values() {
        output.extend(state.restrict(out_schema).facts());
    }
    output
}

/// E25: sequential vs threaded vs process engine.
pub fn e25_process() -> Report {
    e25_process_obs(&Obs::noop())
}

/// As [`e25_process`], threading an [`Obs`] through the sequential and
/// threaded runs so `repro --trace-out` captures their events (the
/// process runs keep noop workers — their traffic is what is measured,
/// not traced).
pub fn e25_process_obs(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E25",
        "sequential vs threaded vs process engines — wall clock, wire bytes, token passes",
    );
    let input = scaling_graph(11, 32, 1.5);
    let mut rows = Vec::new();
    let mut best_speedup = 0.0f64;

    for (label, strategy) in [
        ("M/broadcast (TC)", "monotone"),
        ("Mdistinct/non-facts (SP)", "distinct"),
        ("Mdisjoint/request-OK (Q_TC)", "disjoint"),
    ] {
        let (oracle, policy, config) = family(strategy, NODES);
        let tn = TransducerNetwork {
            transducer: oracle.as_ref(),
            policy: policy.as_ref(),
            config,
        };
        let start = Instant::now();
        let seq = run_with(&tn, &input, &Scheduler::RoundRobin, 5_000_000, obs);
        let seq_wall = start.elapsed();
        rows.push(row(
            label,
            "sequential",
            seq_wall,
            None,
            0,
            0,
            seq.quiescent,
        ));

        let mut all_equal = seq.quiescent;
        let mut bytes_match = true;
        let mut worst_spread = 0.0f64;
        for workers in WORKERS {
            let factory = move || family(strategy, NODES).0;
            let net = ThreadedNetwork {
                programs: Programs::PerWorker(&factory),
                policy: policy.as_ref(),
                config,
            };
            let start = Instant::now();
            let thr = run_threaded_with(&net, &input, &ThreadedConfig::new(workers), obs);
            let thr_wall = start.elapsed();
            let thr_tokens: u64 = thr.per_worker.iter().map(|w| w.token_passes).sum();
            all_equal &= thr.quiescent && thr.output == seq.output;
            rows.push(row(
                label,
                &format!("threaded x{workers}"),
                thr_wall,
                Some(seq_wall.as_secs_f64() / thr_wall.as_secs_f64().max(1e-9)),
                thr.wire_bytes,
                thr_tokens,
                thr.quiescent,
            ));

            let start = Instant::now();
            let proc = run_process_tcp(strategy, &input, workers);
            let proc_wall = start.elapsed();
            let speedup = seq_wall.as_secs_f64() / proc_wall.as_secs_f64().max(1e-9);
            best_speedup = best_speedup.max(speedup);
            all_equal &= proc.quiescent
                && proc.failed_workers.is_empty()
                && project_output(oracle.as_ref(), &proc) == seq.output;
            // Same payload-only accounting on both engines: the same
            // messages at every W, no bytes at all at W = 1 and some
            // above. (The byte totals above W = 1 wobble by up to ~15 %
            // between any two runs, of either engine: batch boundaries
            // are scheduling.)
            bytes_match &= proc.metrics.messages_sent == thr.metrics.messages_sent
                && (proc.wire_bytes == 0) == (workers == 1)
                && (thr.wire_bytes == 0) == (workers == 1);
            let spread =
                proc.wire_bytes.abs_diff(thr.wire_bytes) as f64 / thr.wire_bytes.max(1) as f64;
            worst_spread = worst_spread.max(spread);
            rows.push(row(
                label,
                &format!("process x{workers}"),
                proc_wall,
                Some(speedup),
                proc.wire_bytes,
                proc.token_passes(),
                proc.quiescent,
            ));
        }
        r.claim(
            format!("{label}: threaded and process outputs equal sequential at W {{1,2,4}}"),
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
            "wall ms",
            "speedup vs seq",
            "wire bytes",
            "token passes",
            "quiescent",
        ],
        &rows,
    ));
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    r.claim(
        "the process engine beats sequential wall clock at some W (waived below 4 cores)",
        format!("best process speedup {best_speedup:.2}× on a {cores}-core host"),
        best_speedup >= 1.0 || cores < 4,
    );
    r
}

fn row(
    label: &str,
    engine: &str,
    wall: Duration,
    speedup: Option<f64>,
    wire_bytes: u64,
    token_passes: u64,
    quiescent: bool,
) -> Vec<String> {
    vec![
        label.to_string(),
        engine.to_string(),
        format!("{:.1}", wall.as_secs_f64() * 1e3),
        speedup.map_or("-".into(), |s| format!("{s:.2}x")),
        if engine == "sequential" {
            "-".into()
        } else {
            wire_bytes.to_string()
        },
        if engine == "sequential" {
            "-".into()
        } else {
            token_passes.to_string()
        },
        quiescent.to_string(),
    ]
}
