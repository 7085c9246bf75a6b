//! The cross-process *recovery* equivalence suite: worker processes
//! killed mid-run, respawned by the supervising coordinator, restored
//! from retained snapshots — and the output still byte-identical to
//! the sequential oracle.
//!
//! This is the supervised counterpart of `process.rs` (which pins the
//! un-supervised, abort-on-death transport). Asserted, per the issue:
//! all three strategy families × ≥10 seeds × procs {2, 4} × kill plans
//! {one kill, two staggered kills, kill + drop 0.05} byte-identical to
//! the sequential oracle; the wire-accounting identity extended with
//! replayed-after-restore traffic; and that restore converges from
//! *any* retained snapshot version (swept by moving the kill point).
//!
//! The snapshot-frame strict-prefix rejection property lives with the
//! codec (`transport::proto` unit tests,
//! `any_snapshot_frame_strict_prefix_is_rejected`) — the frame types
//! are crate-private by design.

mod common;

use calm_common::Instance;
use calm_net::{
    run_net_worker, run_process, Assign, NetRunReport, ProcessConfig, SpawnHandle, WorkerSetup,
};
use calm_obs::Obs;
use calm_spec::final_config;
use calm_transducer::{run, run_with, Scheduler, TransducerNetwork};
use common::{family, random_edges, seed_base, spec_for};

const PROC_COUNTS: [usize; 2] = [2, 4];

/// Run the *supervised* process engine over real sockets with
/// thread-backed workers: respawn budget 3, short backoff (the suite
/// kills workers on purpose and wants the respawns fast).
fn run_supervised_tcp(
    strategy: &'static str,
    input: &Instance,
    nodes: usize,
    procs: usize,
    faults: String,
) -> NetRunReport {
    let mut cfg = ProcessConfig::new(procs, spec_for(strategy, nodes, Some(faults)));
    cfg.respawn_backoff = std::time::Duration::from_millis(5);
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
            // A pkill'd incarnation returns Err by design; only log the
            // unexpected failures.
            if let Err(e) = run_net_worker(&addr, k, &builder) {
                if !e.contains("killed by fault plan") {
                    eprintln!("worker {k} failed: {e}");
                }
            }
        })))
    };
    run_process(&cfg, &spawner, &Obs::noop()).expect("supervised run starts")
}

/// The three kill-plan families of the issue, parameterized by seed.
/// Worker indices stay < 2 so every plan is valid at procs 2 and 4.
fn kill_plans(seed: u64) -> [(&'static str, String); 3] {
    [
        ("one kill", format!("seed={seed},pkill(worker=1@step=4)")),
        (
            "two staggered kills",
            format!("seed={seed},pkill(worker=1@step=3),pkill(worker=0@step=7)"),
        ),
        (
            "kill + drop",
            format!("seed={seed},drop=0.05,pkill(worker=1@step=5)"),
        ),
    ]
}

/// Which workers a plan kills (for the accounting exemption below).
fn killed_workers(plan: &str) -> Vec<usize> {
    plan.match_indices("pkill(worker=")
        .filter_map(|(i, pat)| {
            plan[i + pat.len()..]
                .split('@')
                .next()
                .and_then(|w| w.parse().ok())
        })
        .collect()
}

/// Sequential oracle + supervised engine under every kill plan at every
/// proc count: byte-identical output, clean exit, extended accounting.
/// Returns the total replayed-after-restore wire count (the sweep
/// asserts it is nonzero in aggregate — any single kill may land before
/// traffic exists).
fn assert_recovery_confluent(
    strategy: &'static str,
    nodes: usize,
    input: &Instance,
    seed: u64,
    label: &str,
) -> u64 {
    let (t, policy, sys) = family(strategy, nodes);
    let seq = run_with(
        &TransducerNetwork {
            transducer: t.as_ref(),
            policy: policy.as_ref(),
            config: sys,
        },
        input,
        &Scheduler::RoundRobin,
        500_000,
        &Obs::noop(),
    );
    assert!(seq.quiescent, "{label}: sequential oracle must quiesce");
    let expected = seq.states.output(&t.schema().output);
    let expected_states = final_config(&seq).state;
    let mut replayed_total = 0u64;
    for procs in PROC_COUNTS {
        for (plan_name, plan) in kill_plans(seed) {
            let r = run_supervised_tcp(strategy, input, nodes, procs, plan.clone());
            let tag = format!("{label} [{plan_name} x{procs}]");
            assert!(
                r.failed_workers.is_empty(),
                "{tag}: supervision must absorb the deaths, not fail the run"
            );
            assert!(r.quiescent, "{tag}: termination must be detected");
            assert_eq!(
                r.states.output(&t.schema().output),
                expected,
                "{tag}: output differs from the sequential oracle"
            );
            // A respawned worker rebuilds every engine of its shard from
            // the retained `NodeSnapshot.state` alone; each node must
            // still end exactly where the sequential node ends — send
            // marks (`s_R`, `sf_R`, `sb_R`, …) included.
            assert_eq!(
                r.states.materialize(),
                expected_states,
                "{tag}: a node's final state differs from the sequential oracle"
            );

            // Extended accounting. A killed incarnation takes its
            // counters down with it (they are per-process state, not
            // part of the replicated snapshot), so the strict identity
            // holds on links *between surviving workers*; links
            // touching a killed worker's shard keep only the weaker
            // no-buffered guarantee. Replays re-enter the gauntlet as
            // fresh attempts, so they are already inside `attempts`.
            let workers = procs.clamp(1, nodes);
            let killed = killed_workers(&plan);
            let mut buffered_total = 0;
            for ((src, dst), lc) in &r.link_counters {
                buffered_total += lc.buffered;
                let touches_killed =
                    killed.contains(&(src % workers)) || killed.contains(&(dst % workers));
                if touches_killed {
                    continue;
                }
                assert_eq!(
                    lc.attempts,
                    lc.delivered + lc.suppressed + lc.dropped + lc.buffered,
                    "{tag}: link {src}->{dst} wire conservation between survivors"
                );
            }
            assert_eq!(
                buffered_total, 0,
                "{tag}: quiescent run left wires in flight"
            );
            assert!(
                r.faults.attempts >= r.faults.replayed,
                "{tag}: replays are counted inside attempts"
            );
            replayed_total += r.faults.replayed;
        }
    }
    replayed_total
}

#[test]
fn monotone_recovery_matches_oracle_across_10_seeds() {
    let mut replayed = 0;
    for i in 0..10 {
        let seed = seed_base() * 1000 + i;
        let input = random_edges(seed, 6, 3 + (i as usize % 5));
        replayed +=
            assert_recovery_confluent("monotone", 4, &input, seed, &format!("M seed {seed}"));
    }
    assert!(
        replayed > 0,
        "the sweep must exercise replay-after-restore at least once"
    );
}

#[test]
fn distinct_recovery_matches_oracle_across_10_seeds() {
    for i in 0..10 {
        let seed = seed_base() * 1000 + 100 + i;
        let input = random_edges(seed, 5, 3 + (i as usize % 3));
        assert_recovery_confluent(
            "distinct",
            3,
            &input,
            seed,
            &format!("Mdistinct seed {seed}"),
        );
    }
}

#[test]
fn disjoint_recovery_matches_oracle_across_10_seeds() {
    for i in 0..10 {
        let seed = seed_base() * 1000 + 200 + i;
        let input = random_edges(seed, 4, 2 + (i as usize % 2));
        assert_recovery_confluent(
            "disjoint",
            3,
            &input,
            seed,
            &format!("Mdisjoint seed {seed}"),
        );
    }
}

/// Property: restore converges from *any* retained snapshot version.
/// Moving the kill point across the run makes the coordinator hand back
/// a different retained version every time (v0 right after the
/// handshake, later versions as periodic and passivity snapshots ship);
/// every restore must land on the same oracle output.
#[test]
fn restore_converges_from_any_retained_snapshot_version() {
    let seed = seed_base() * 1000 + 400;
    let input = random_edges(seed, 6, 5);
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
    for step in 1..=10u64 {
        let plan = format!("seed={seed},pkill(worker=1@step={step})");
        let r = run_supervised_tcp("monotone", &input, 4, 2, plan);
        assert!(r.failed_workers.is_empty(), "kill at step {step}");
        assert!(r.quiescent, "kill at step {step}");
        assert_eq!(
            r.states.output(&t.schema().output),
            seq.output,
            "restore from the version retained at step {step} diverged"
        );
    }
}

/// Budget exhaustion degrades gracefully: a worker killed more times
/// than its respawn budget allows has its shard adopted by the
/// survivors — and the run still completes quiescent with the oracle's
/// output (`adopted_workers` names the position; `failed_workers` stays
/// empty).
#[test]
fn budget_exhaustion_adopts_the_shard_and_still_converges() {
    let seed = seed_base() * 1000 + 500;
    let input = random_edges(seed, 6, 4);
    let (t, policy, sys) = family("monotone", 4);
    let seq = run_with(
        &TransducerNetwork {
            transducer: t.as_ref(),
            policy: policy.as_ref(),
            config: sys,
        },
        &input,
        &Scheduler::RoundRobin,
        500_000,
        &Obs::noop(),
    );
    assert!(seq.quiescent);
    // Budget 1, two kills on worker 1: incarnation 0 dies, incarnation
    // 1 (the only respawn allowed) dies too — the shard must move.
    let plan = format!("seed={seed},pkill(worker=1@step=3),pkill(worker=1@step=2)");
    let mut cfg = ProcessConfig::new(2, spec_for("monotone", 4, Some(plan)));
    cfg.respawn_budget = 1;
    cfg.respawn_backoff = std::time::Duration::from_millis(5);
    let input_c = input.clone();
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let addr = addr.to_string();
        let input = input_c.clone();
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
            let _ = run_net_worker(&addr, k, &builder);
        })))
    };
    let r = run_process(&cfg, &spawner, &Obs::noop()).expect("run completes");
    assert!(
        r.failed_workers.is_empty(),
        "adoption is graceful degradation, not failure"
    );
    assert_eq!(r.adopted_workers, vec![1], "the dead position is named");
    assert!(r.respawns >= 1, "the budget was spent before adopting");
    assert!(r.quiescent, "the survivors still quiesce");
    assert_eq!(
        r.states.output(&t.schema().output),
        seq.states.output(&t.schema().output),
        "adopted shard diverged from the oracle"
    );
    assert_eq!(
        r.states.materialize(),
        final_config(&seq).state,
        "every node — adopted ones rebuilt from their snapshot state — ends where the oracle's does"
    );
}
