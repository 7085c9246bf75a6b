//! The cross-process equivalence suite: the CALM confluence guarantee
//! across *process* boundaries.
//!
//! Every run here goes over real TCP sockets — a coordinator with a
//! listener on an ephemeral port, workers connecting, handshaking, and
//! exchanging framed control traffic. Workers are driven on threads
//! (calling the same [`run_net_worker`] entry point the `calm
//! net-worker` binary uses) so the suite is hermetic and fast; the CLI
//! test suite and the CI job run the same engine with genuine OS
//! processes.
//!
//! Asserted, per the issue: all three strategy families × ≥10 seeds ×
//! procs {2, 4} byte-identical to the sequential oracle; the merged
//! wire-accounting identity `attempts == delivered + suppressed +
//! dropped + buffered` across process boundaries under a fault plan;
//! and a worker death mid-run ending in a reported non-quiescent
//! result instead of a hang.

mod common;

use calm_common::Instance;
use calm_net::{
    run_net_worker, run_process, Assign, NetRunReport, ProcessConfig, SpawnHandle, WorkerSetup,
};
use calm_obs::Obs;
use calm_transducer::{run, Scheduler, TransducerNetwork};
use common::{family, random_edges, seed_base, spec_for};

const PROC_COUNTS: [usize; 2] = [2, 4];

/// Run the process engine over real sockets with thread-backed workers.
fn run_process_tcp(
    strategy: &'static str,
    input: &Instance,
    nodes: usize,
    procs: usize,
    faults: Option<String>,
) -> NetRunReport {
    // Budget 0: the un-supervised transport, exactly as before PR 9.
    // The supervised (respawn + restore) paths have their own suite in
    // `recovery.rs`.
    let cfg = ProcessConfig::new(procs, spec_for(strategy, nodes, faults)).with_respawn_budget(0);
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
                eprintln!("worker {k} failed: {e}");
            }
        })))
    };
    run_process(&cfg, &spawner, &Obs::noop()).expect("process run starts")
}

/// Sequential oracle + process engine at every proc count; assert
/// byte-identical output and per-worker conservation.
fn assert_process_confluent(strategy: &'static str, nodes: usize, input: &Instance, label: &str) {
    let (t, policy, sys) = family(strategy, nodes);
    let seq = run(
        &TransducerNetwork {
            transducer: t.as_ref(),
            policy: policy.as_ref(),
            config: sys,
        },
        input,
        &Scheduler::RoundRobin,
        500_000,
    );
    assert!(seq.quiescent, "{label}: sequential oracle must quiesce");
    for procs in PROC_COUNTS {
        let r = run_process_tcp(strategy, input, nodes, procs, None);
        let tag = format!("{label} [process x{procs}]");
        assert!(r.failed_workers.is_empty(), "{tag}: no worker may fail");
        assert!(r.quiescent, "{tag}: termination must be detected");
        assert_eq!(
            r.states.output(&t.schema().output),
            seq.output,
            "{tag}: output differs from the sequential oracle"
        );
        // Per-worker conservation survives the process boundary.
        for w in &r.per_worker {
            assert_eq!(
                w.enqueued,
                w.metrics.messages_delivered + w.buffered,
                "{tag}: worker {} conservation",
                w.worker
            );
        }
        let buffered: usize = r.per_worker.iter().map(|w| w.buffered).sum();
        assert_eq!(buffered, 0, "{tag}: quiescent run left facts buffered");
        assert_eq!(
            r.metrics.messages_sent, r.metrics.messages_delivered,
            "{tag}: merged conservation"
        );
        let reported = r.states.materialize().len();
        assert_eq!(reported, nodes, "{tag}: every node reported a state");
    }
}

#[test]
fn monotone_process_runs_match_oracle_across_10_seeds() {
    for i in 0..10 {
        let seed = seed_base() * 1000 + i;
        let input = random_edges(seed, 6, 3 + (i as usize % 5));
        assert_process_confluent("monotone", 4, &input, &format!("M seed {seed}"));
    }
}

#[test]
fn distinct_process_runs_match_oracle_across_10_seeds() {
    for i in 0..10 {
        let seed = seed_base() * 1000 + 100 + i;
        let input = random_edges(seed, 5, 3 + (i as usize % 3));
        assert_process_confluent("distinct", 3, &input, &format!("Mdistinct seed {seed}"));
    }
}

#[test]
fn disjoint_process_runs_match_oracle_across_10_seeds() {
    for i in 0..10 {
        let seed = seed_base() * 1000 + 200 + i;
        // The request/OK/ack protocol is per-value: keep domains small.
        let input = random_edges(seed, 4, 2 + (i as usize % 2));
        assert_process_confluent("disjoint", 3, &input, &format!("Mdisjoint seed {seed}"));
    }
}

#[test]
fn faulty_process_runs_keep_the_wire_accounting_identity() {
    // TCP is reliable, but the fault *plan* still injects loss,
    // duplication and delay above it — and the merged accounting
    // identity must hold with link counters split across processes
    // (sender-side counters at the sending worker, receiver-side at
    // the receiving worker).
    for i in 0..3u64 {
        let seed = seed_base() * 1000 + 300 + i;
        let input = random_edges(seed, 6, 4);
        let (t, policy, sys) = family("monotone", 4);
        let seq = run(
            &TransducerNetwork {
                transducer: t.as_ref(),
                policy: policy.as_ref(),
                config: sys,
            },
            &input,
            &Scheduler::RoundRobin,
            500_000,
        );
        assert!(seq.quiescent);
        for procs in PROC_COUNTS {
            let spec = format!("seed={seed},drop=0.1,dup=0.05,delay=0.2/4");
            let r = run_process_tcp("monotone", &input, 4, procs, Some(spec));
            let tag = format!("faulty seed {seed} x{procs}");
            assert!(r.failed_workers.is_empty(), "{tag}: no worker may fail");
            assert!(r.quiescent, "{tag}: termination must be detected");
            assert_eq!(
                r.states.output(&t.schema().output),
                seq.output,
                "{tag}: output differs from the sequential oracle"
            );
            let mut buffered_total = 0;
            for ((src, dst), lc) in &r.link_counters {
                assert_eq!(
                    lc.attempts,
                    lc.delivered + lc.suppressed + lc.dropped + lc.buffered,
                    "{tag}: link {src}->{dst} wire conservation across processes"
                );
                buffered_total += lc.buffered;
            }
            let f = &r.faults;
            assert!(f.attempts > 0, "{tag}: the gauntlet ran");
            assert_eq!(
                f.attempts,
                f.delivered_batches + f.duplicates_suppressed + f.dropped + buffered_total,
                "{tag}: global wire conservation across processes"
            );
            assert_eq!(f.retry_exhausted, 0, "{tag}: nothing abandoned");
            assert_eq!(
                buffered_total, 0,
                "{tag}: quiescent run left wires in flight"
            );
        }
    }
}

#[test]
fn worker_death_reports_non_quiescent_instead_of_hanging() {
    // Worker 1 handshakes and then dies (its builder fails — the same
    // socket-level signature as a `kill -9` right after Assign). The
    // coordinator must detect the lost connection, break the
    // survivors' now-headless token ring with a Terminate broadcast,
    // and return a *non-quiescent* result naming the failure — not
    // hang waiting for a Final that will never come.
    let input = calm_common::generator::path(5);
    // Budget 0 keeps the abort-on-death contract this test pins down;
    // with a budget the same death would be respawned or adopted.
    let cfg = ProcessConfig::new(4, spec_for("monotone", 4, None)).with_respawn_budget(0);
    let input_c = input.clone();
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input_c.clone();
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            let builder = move |assign: &Assign| -> Result<WorkerSetup, String> {
                if assign.worker == 1 {
                    return Err("simulated worker death".into());
                }
                let (transducer, policy, config) = family(&assign.spec.strategy, assign.spec.nodes);
                Ok(WorkerSetup {
                    transducer,
                    policy,
                    config,
                    input: input.clone(),
                    obs: Obs::noop(),
                })
            };
            let _ = run_net_worker(&addr, k, &builder);
        })))
    };
    let r = run_process(&cfg, &spawner, &Obs::noop()).expect("run completes");
    assert!(!r.quiescent, "a lost worker forfeits quiescence");
    assert_eq!(r.failed_workers, vec![1], "the dead worker is named");
    assert!(
        r.faults.crashes >= 1,
        "the death is counted as a crash in the merged fault stats"
    );
    assert_eq!(
        r.per_worker.len(),
        3,
        "the three survivors still report their finals"
    );
}

#[test]
fn handshake_barrier_names_a_worker_that_never_says_hello() {
    // Worker 1 is a stub TCP client: it connects to the coordinator and
    // then goes silent — no Hello frame, ever. The barrier must expire
    // at the configured deadline and fail with an error *naming* the
    // missing worker, not hang waiting on a read.
    let input = calm_common::generator::path(4);
    let cfg = ProcessConfig {
        handshake_deadline: std::time::Duration::from_millis(500),
        ..ProcessConfig::new(2, spec_for("monotone", 4, None)).with_respawn_budget(0)
    };
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input.clone();
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            if k == 1 {
                // Connect, say nothing, hold the socket open past the
                // deadline. (Dropping it early would look like a clean
                // EOF; holding it is the truly-hung shape.)
                let s = std::net::TcpStream::connect(&addr);
                std::thread::sleep(std::time::Duration::from_millis(1500));
                drop(s);
                return;
            }
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
            let _ = run_net_worker(&addr, k, &builder);
        })))
    };
    let start = std::time::Instant::now();
    let err = run_process(&cfg, &spawner, &Obs::noop())
        .expect_err("a silent worker must fail the barrier");
    let msg = err.to_string();
    assert!(
        msg.contains("worker(s) 1"),
        "the silent worker is named: {msg}"
    );
    assert!(
        msg.contains("handshake"),
        "the failure is attributed to the barrier: {msg}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "the barrier must expire at its deadline, not hang"
    );
}

#[test]
fn a_silent_peer_that_connects_first_delays_no_other_workers_hello() {
    // Worker 1 connects and says nothing; worker 0 dials in once it
    // has. Hellos used to be read one connection at a time, so worker
    // 0's waited behind the silent one past the deadline: the barrier
    // named `worker(s) 0,1`, and worker 0 then sat out its 30 s wait
    // for an Assign before it was reaped.
    let input = calm_common::generator::path(4);
    let cfg = ProcessConfig {
        handshake_deadline: std::time::Duration::from_millis(500),
        ..ProcessConfig::new(2, spec_for("monotone", 4, None)).with_respawn_budget(0)
    };
    let (connected, silent_first) = std::sync::mpsc::channel::<()>();
    let silent_first = std::sync::Arc::new(std::sync::Mutex::new(silent_first));
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input.clone();
        let (connected, silent_first) = (connected.clone(), silent_first.clone());
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            if k == 1 {
                let s = std::net::TcpStream::connect(&addr);
                connected.send(()).expect("worker 0 waits for it");
                std::thread::sleep(std::time::Duration::from_millis(1500));
                drop(s);
                return;
            }
            let first = silent_first.lock().expect("one waiter").recv();
            first.expect("the silent peer connects");
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
            let _ = run_net_worker(&addr, k, &builder);
        })))
    };
    let start = std::time::Instant::now();
    let err = run_process(&cfg, &spawner, &Obs::noop())
        .expect_err("a silent worker must fail the barrier");
    let msg = err.to_string();
    assert!(
        msg.contains("worker(s) 1 missing"),
        "only the silent worker is named: {msg}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
}

#[test]
fn handshake_barrier_names_a_worker_that_never_connects() {
    // Worker 1 never even dials in. Same contract: deadline, named
    // worker, nonzero error.
    let input = calm_common::generator::path(4);
    let cfg = ProcessConfig {
        handshake_deadline: std::time::Duration::from_millis(400),
        ..ProcessConfig::new(2, spec_for("monotone", 4, None)).with_respawn_budget(0)
    };
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input.clone();
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            if k == 1 {
                return; // vanishes without connecting
            }
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
            let _ = run_net_worker(&addr, k, &builder);
        })))
    };
    let err = run_process(&cfg, &spawner, &Obs::noop())
        .expect_err("a missing worker must fail the barrier");
    let msg = err.to_string();
    assert!(msg.contains("worker(s) 1"), "{msg}");
}

#[test]
fn proc_counts_clamp_to_the_network_size() {
    let input = calm_common::generator::path(5);
    let (t, policy, sys) = family("monotone", 4);
    let expected = run(
        &TransducerNetwork {
            transducer: t.as_ref(),
            policy: policy.as_ref(),
            config: sys,
        },
        &input,
        &Scheduler::RoundRobin,
        500_000,
    )
    .output;
    // procs=1 degenerates to the sequential shard; procs=16 clamps to
    // the node count.
    for procs in [1, 16] {
        let r = run_process_tcp("monotone", &input, 4, procs, None);
        assert!(r.quiescent, "procs {procs}");
        assert!(r.per_worker.len() <= 4, "procs {procs} clamps to |N|");
        assert_eq!(
            r.states.output(&t.schema().output),
            expected,
            "procs {procs}"
        );
    }
}
