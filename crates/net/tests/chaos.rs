//! The chaos equivalence suite: the CALM confluence guarantee under an
//! *unfair* network, repaired by the reliability substrate.
//!
//! Each test runs a strategy family over seeded random inputs on the
//! threaded executor under adversarial fault plans — message loss,
//! duplication, bounded reordering/delay, one-way partitions, node
//! crash/restart — and asserts the run still terminates (Safra detects
//! quiescence; no timeout waivers) with output byte-identical to the
//! sequential oracle. The wire-level conservation identity is checked
//! per link: `attempts == delivered + suppressed + dropped + buffered`,
//! with `buffered == 0` and `retry_exhausted == 0` on a clean run.
//!
//! Engine-level conservation (`sent == delivered + buffered`) is *not*
//! asserted here: crash rollback legitimately re-counts engine sends
//! (metrics never roll back) — that identity belongs to the fault-free
//! suite in `equivalence.rs`.

mod common;

use calm_common::query::Query;
use calm_common::Instance;
use calm_net::{CrashPoint, FaultPlan, NetRunReport, Programs, ThreadedConfig, ThreadedNetwork};
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_spec::final_config;
use calm_transducer::{
    expected_output, run_with, DisjointStrategy, DistinctStrategy, DistributionPolicy,
    DomainGuidedPolicy, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig,
    TransducerNetwork,
};
use common::{per_worker, random_edges, seed_base, threaded, Factory};

const WORKER_COUNTS: [usize; 2] = [2, 8];

/// The three adversaries every family faces, parameterized by the run
/// seed so every repetition draws a fresh fault pattern.
///
/// * `loss+dup`: ≥10% drop with duplication — the headline plan.
/// * `havoc`: heavier loss plus duplication and a 6-tick
///   delay/reordering window.
/// * `crash`: loss + delay with two node crash/restart points (node 1
///   early, node 2 later) and a one-way partition that heals.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let (havoc, crash) = (seed ^ 0xA5A5, seed ^ 0x5A5A);
    vec![
        ("loss+dup", FaultPlan::uniform(seed, 0.10, 0.10)),
        (
            "havoc",
            plan(&format!("seed={havoc},drop=0.25,dup=0.10,delay=0.30/6")),
        ),
        (
            "crash",
            plan(&format!(
                "seed={crash},drop=0.05,dup=0.05,delay=0.20/4,crash=1@3~10,crash=2@6~5,\
                 partition=0>1@5..60"
            )),
        ),
    ]
}

/// A plan spelled as `--faults` spells it.
fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).expect("a valid fault spec")
}

/// Wire-level accounting: per-link and global conservation, no message
/// abandoned, nothing left in the network on a quiescent run.
fn check_chaos_accounting(r: &NetRunReport, label: &str) {
    let mut buffered_total = 0;
    for ((src, dst), lc) in &r.link_counters {
        assert_eq!(
            lc.attempts,
            lc.delivered + lc.suppressed + lc.dropped + lc.buffered,
            "{label}: link {src}->{dst} wire conservation"
        );
        buffered_total += lc.buffered;
    }
    let f = &r.faults;
    assert_eq!(
        f.attempts,
        f.delivered_batches + f.duplicates_suppressed + f.dropped + buffered_total,
        "{label}: global wire conservation"
    );
    assert_eq!(
        f.retry_exhausted, 0,
        "{label}: no message may be abandoned to the retry budget"
    );
    if r.quiescent {
        assert_eq!(
            buffered_total, 0,
            "{label}: quiescent run left wires in flight"
        );
    }
}

/// Run one family on one input: sequential oracle once, then the
/// threaded engine under every fault plan × worker count. Termination
/// must be *detected* (no waivers) and output must match the oracle
/// byte for byte.
fn assert_chaos_confluent(
    programs: &Factory,
    query: &dyn Query,
    policy: &dyn DistributionPolicy,
    sys: SystemConfig,
    input: &Instance,
    seed: u64,
    label: &str,
) {
    let expected = expected_output(query, input);
    let tn = TransducerNetwork {
        transducer: &*programs(),
        policy,
        config: sys,
    };
    let seq = run_with(&tn, input, &Scheduler::RoundRobin, 500_000, &Obs::noop());
    assert!(seq.quiescent, "{label}: sequential oracle must quiesce");
    let seq_output = seq.states.output(&tn.transducer.schema().output);
    assert_eq!(seq_output, expected, "{label}: oracle vs centralized");
    let seq_states = final_config(&seq).state;
    for (plan_name, plan) in fault_plans(seed) {
        for workers in WORKER_COUNTS {
            let (output, thr) = threaded(
                &ThreadedNetwork {
                    programs: Programs::PerWorker(programs),
                    policy,
                    config: sys,
                },
                input,
                &ThreadedConfig::new(workers).with_faults(plan.clone()),
            );
            let tag = format!("{label} [{plan_name} x{workers}]");
            assert!(thr.quiescent, "{tag}: termination must be detected");
            assert_eq!(
                output, seq_output,
                "{tag}: output differs from the sequential oracle"
            );
            // Every node, not only the union of the outputs: a node
            // rolled back by a crash point steps on with an engine
            // rebuilt from `NodeSnapshot.state` alone, and must end up
            // knowing — and believing it has sent — exactly what the
            // never-interrupted sequential node does (the send marks
            // `s_R`, `sf_R`, `sb_R`, … are memory).
            assert_eq!(
                thr.states.materialize(),
                seq_states,
                "{tag}: a node's final state differs from the sequential oracle"
            );
            check_chaos_accounting(&thr, &tag);
        }
    }
}

#[test]
fn monotone_broadcast_survives_chaos_across_20_seeds() {
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(4));
    for i in 0..20 {
        let seed = seed_base() * 1000 + i;
        let input = random_edges(seed, 6, 3 + (i as usize % 5));
        assert_chaos_confluent(
            &programs,
            &tc_datalog(),
            &policy,
            SystemConfig::ORIGINAL,
            &input,
            seed,
            &format!("M seed {seed}"),
        );
    }
}

#[test]
fn distinct_strategy_survives_chaos_across_20_seeds() {
    let programs = per_worker(|| DistinctStrategy::new(Box::new(edges_without_source_loop())));
    let policy = HashPolicy::new(Network::of_size(3));
    for i in 0..20 {
        let seed = seed_base() * 1000 + 100 + i;
        let input = random_edges(seed, 5, 3 + (i as usize % 3));
        assert_chaos_confluent(
            &programs,
            &edges_without_source_loop(),
            &policy,
            SystemConfig::POLICY_AWARE,
            &input,
            seed,
            &format!("Mdistinct seed {seed}"),
        );
    }
}

#[test]
fn disjoint_strategy_survives_chaos_across_20_seeds() {
    let programs = per_worker(|| DisjointStrategy::new(Box::new(qtc_datalog())));
    let policy = DomainGuidedPolicy::new(Network::of_size(3));
    for i in 0..20 {
        let seed = seed_base() * 1000 + 200 + i;
        // The request/OK/ack protocol is per-value: keep domains small.
        let input = random_edges(seed, 4, 2 + (i as usize % 2));
        assert_chaos_confluent(
            &programs,
            &qtc_datalog(),
            &policy,
            SystemConfig::POLICY_AWARE,
            &input,
            seed,
            &format!("Mdisjoint seed {seed}"),
        );
    }
}

#[test]
fn chaos_with_data_parallel_node_fixpoints_matches_the_oracle() {
    // The acceptance run from the parallel-eval work: 8 network workers
    // x 4 intra-node eval threads under 5% message loss. Every node's
    // fixpoint is partitioned over worker threads, yet the run must
    // still terminate via Safra and land byte-identical to the
    // sequential oracle — the data-parallel driver is deterministic, so
    // chaos only ever comes from the network, and the reliability
    // substrate repairs that.
    type Family = (
        &'static str,
        Box<Factory>,
        Box<dyn DistributionPolicy>,
        SystemConfig,
    );
    let families: Vec<Family> = vec![
        (
            "M",
            Box::new(per_worker(|| {
                MonotoneBroadcast::new(Box::new(tc_datalog().with_eval_threads(4)))
            })),
            Box::new(HashPolicy::new(Network::of_size(4))),
            SystemConfig::ORIGINAL,
        ),
        (
            "Mdistinct",
            Box::new(per_worker(|| {
                DistinctStrategy::new(Box::new(edges_without_source_loop().with_eval_threads(4)))
            })),
            Box::new(HashPolicy::new(Network::of_size(3))),
            SystemConfig::POLICY_AWARE,
        ),
        (
            "Mdisjoint",
            Box::new(per_worker(|| {
                DisjointStrategy::new(Box::new(qtc_datalog().with_eval_threads(4)))
            })),
            Box::new(DomainGuidedPolicy::new(Network::of_size(3))),
            SystemConfig::POLICY_AWARE,
        ),
    ];
    for (label, programs, policy, sys) in &families {
        for i in 0..4u64 {
            let seed = seed_base() * 1000 + 400 + i;
            let input = random_edges(seed, 4, 2 + (i as usize % 3));
            let tn = TransducerNetwork {
                transducer: &*programs(),
                policy: policy.as_ref(),
                config: *sys,
            };
            let seq = run_with(&tn, &input, &Scheduler::RoundRobin, 500_000, &Obs::noop());
            assert!(seq.quiescent, "{label} seed {seed}: oracle must quiesce");
            let seq_output = seq.states.output(&tn.transducer.schema().output);
            let (output, thr) = threaded(
                &ThreadedNetwork {
                    programs: Programs::PerWorker(programs.as_ref()),
                    policy: policy.as_ref(),
                    config: *sys,
                },
                &input,
                &ThreadedConfig::new(8).with_faults(FaultPlan::uniform(seed, 0.05, 0.0)),
            );
            let tag = format!("{label} seed {seed} [drop=0.05 x8 workers x4 eval threads]");
            assert!(thr.quiescent, "{tag}: termination must be detected");
            assert_eq!(
                output, seq_output,
                "{tag}: output differs from the sequential oracle"
            );
            // Per node, as in `assert_chaos_confluent`.
            assert_eq!(
                thr.states.materialize(),
                final_config(&seq).state,
                "{tag}: a node's final state differs from the sequential oracle"
            );
            check_chaos_accounting(&thr, &tag);
        }
    }
}

#[test]
fn a_crashed_node_steps_on_from_its_snapshot_alone() {
    // Crash points early in the run of both native node programs, on a
    // lossless network so that nothing else is going on: the node is
    // rolled back to its last checkpoint while its engine is warm — the
    // known values, the system facts, the program's counts and its
    // query session all describe a state the node no longer has — and
    // everything but `NodeSnapshot.state` must be thrown away. Each
    // node ends where the sequential node ends, send marks included.
    let monotone = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let distinct = per_worker(|| DistinctStrategy::new(Box::new(edges_without_source_loop())));
    let families: [(&str, &Factory, SystemConfig); 2] = [
        ("M", &monotone, SystemConfig::ORIGINAL),
        ("Mdistinct", &distinct, SystemConfig::POLICY_AWARE),
    ];
    let policy = HashPolicy::new(Network::of_size(3));
    for (label, programs, sys) in families {
        for i in 0..6u64 {
            let seed = seed_base() * 1000 + 500 + i;
            let input = random_edges(seed, 5, 4 + (i as usize % 3));
            let tn = TransducerNetwork {
                transducer: &*programs(),
                policy: &policy,
                config: sys,
            };
            let seq = run_with(&tn, &input, &Scheduler::RoundRobin, 500_000, &Obs::noop());
            assert!(seq.quiescent);
            let snapshot = 1 + i % 3;
            let plan = plan(&format!(
                "seed={seed},crash=0@2~3,crash=1@2~5,crash=1@4~2,snapshot={snapshot}"
            ));
            let (_, thr) = threaded(
                &ThreadedNetwork {
                    programs: Programs::PerWorker(programs),
                    policy: &policy,
                    config: sys,
                },
                &input,
                &ThreadedConfig::new(2).with_faults(plan),
            );
            let tag = format!("{label} seed {seed}");
            assert!(thr.quiescent, "{tag}");
            assert!(thr.faults.crashes >= 2, "{tag}: the crash points fired");
            let states = thr.states.materialize();
            assert_eq!(states, final_config(&seq).state, "{tag}: per-node states");
            assert!(
                thr.metrics.messages_sent >= seq.metrics.messages_sent,
                "{tag}: a rolled-back node sends again what its snapshot had not marked"
            );
        }
    }
}

#[test]
fn zero_fault_plan_pays_only_the_substrate() {
    // A `FaultPlan::none` run rides the full seq/ack/snapshot machinery
    // with no fault ever injected: every attempt is a first attempt
    // that gets delivered, nothing is suppressed or dropped, and the
    // engine-level message flow matches the fault-free engine exactly.
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(4));
    let input = random_edges(seed_base() * 1000 + 300, 6, 6);
    let (reference_output, reference) = threaded(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        },
        &input,
        &ThreadedConfig::new(2),
    );
    assert!(reference.quiescent);
    assert_eq!(reference.faults, Default::default(), "no plan, no counters");
    let (output, thr) = threaded(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        },
        &input,
        &ThreadedConfig::new(2).with_faults(FaultPlan::none(7)),
    );
    assert!(thr.quiescent);
    assert_eq!(output, reference_output);
    assert_eq!(
        thr.metrics.messages_sent, reference.metrics.messages_sent,
        "a faultless substrate must not change engine-level message flow"
    );
    let f = &thr.faults;
    assert_eq!(f.dropped, 0);
    assert_eq!(f.duplicates_injected, 0);
    assert_eq!(f.delayed, 0);
    assert_eq!(f.crashes, 0);
    assert_eq!(
        f.duplicates_suppressed, f.retransmissions,
        "only spurious retransmissions (ack still in flight) are suppressed"
    );
    assert_eq!(
        f.attempts,
        f.delivered_batches + f.duplicates_suppressed,
        "every attempt lands"
    );
    check_chaos_accounting(&thr, "zero-fault plan");
}

#[test]
fn single_worker_runs_the_gauntlet_too() {
    // Faults interpose on *local* delivery as well: one worker, no
    // channels, yet drops/dups/delays still happen and are repaired.
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(4));
    let input = random_edges(seed_base() * 1000 + 301, 6, 5);
    let expected = expected_output(&tc_datalog(), &input);
    let plan = plan("seed=11,drop=0.2,dup=0.1,delay=0.2/4");
    let (output, thr) = threaded(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        },
        &input,
        &ThreadedConfig::new(1).with_faults(plan),
    );
    assert!(thr.quiescent);
    assert_eq!(output, expected);
    assert!(
        thr.faults.dropped > 0 || thr.faults.delayed > 0,
        "gauntlet ran"
    );
    check_chaos_accounting(&thr, "single worker");
}

#[test]
fn parsed_plan_equals_built_plan() {
    // The CLI spec grammar and the plan's fields construct the same
    // plan, so a `--faults` run is reproducible from its spec string.
    let parsed = plan("seed=9,drop=0.1,dup=0.05,delay=0.2/4,crash=1@3~10");
    let mut built = FaultPlan::uniform(9, 0.1, 0.05);
    (built.link.delay_p, built.link.max_delay) = (0.2, 4);
    built.crashes.push(CrashPoint {
        node: 1,
        at_transition: 3,
        down_ticks: 10,
    });
    assert_eq!(parsed, built);
    let programs = per_worker(|| DistinctStrategy::new(Box::new(edges_without_source_loop())));
    let policy = HashPolicy::new(Network::of_size(3));
    let input = random_edges(seed_base() * 1000 + 302, 5, 4);
    let (output, thr) = threaded(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        },
        &input,
        &ThreadedConfig::new(2).with_faults(parsed),
    );
    assert!(thr.quiescent);
    assert_eq!(
        output,
        expected_output(&edges_without_source_loop(), &input)
    );
}
