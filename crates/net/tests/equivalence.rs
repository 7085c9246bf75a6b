//! The correctness heart of the threaded executor: the CALM confluence
//! guarantee, executed. For coordination-free strategies,
//! `network_output` must be identical under *every* fair schedule — the
//! sequential round-robin oracle, seeded random sequential schedules
//! (across delivery probabilities), and the threaded engine at any
//! worker count. Plus the conservation invariants: per worker,
//! `enqueued == delivered + buffered`; merged, `sent == delivered +
//! buffered`.
//!
//! Seeds generate the *inputs* (random edge relations); the threaded
//! engine's schedule nondeterminism comes from real thread
//! interleaving, so every repetition of this suite exercises a fresh
//! interleaving. CI runs it repeatedly with distinct `CALM_NET_SEED`
//! offsets to widen the swept input space.

mod common;

use calm_common::query::Query;
use calm_common::Instance;
use calm_net::{
    run_threaded, run_threaded_with, NetRunReport, Programs, ThreadedConfig, ThreadedNetwork,
};
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_spec::network_output;
use calm_transducer::{
    expected_output, run, DisjointStrategy, DistinctStrategy, DistributionPolicy,
    DomainGuidedPolicy, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig,
    TransducerNetwork,
};
use common::{per_worker, random_edges, seed_base, Factory};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn check_conservation(r: &NetRunReport, label: &str) {
    for w in &r.per_worker {
        assert_eq!(
            w.enqueued,
            w.metrics.messages_delivered + w.buffered,
            "{label}: worker {} conservation (enqueued = delivered + buffered)",
            w.worker
        );
        assert_eq!(
            w.metrics.by_class.total(),
            w.metrics.messages_sent,
            "{label}: worker {} class totals",
            w.worker
        );
    }
    let buffered: usize = r.per_worker.iter().map(|w| w.buffered).sum();
    assert_eq!(
        r.metrics.messages_sent,
        r.metrics.messages_delivered + buffered,
        "{label}: merged conservation (all channel batches drained at join)"
    );
    assert_eq!(r.metrics.by_class.total(), r.metrics.messages_sent);
    if r.quiescent {
        assert_eq!(buffered, 0, "{label}: quiescent run left facts buffered");
    }
}

/// Run one family on one input under the sequential oracle and the
/// threaded engine at every worker count; assert byte-identical output
/// everywhere (and equality with the centralized evaluation).
fn assert_confluent(
    programs: &Factory,
    query: &dyn Query,
    policy: &dyn DistributionPolicy,
    sys: SystemConfig,
    input: &Instance,
    label: &str,
) {
    let expected = expected_output(query, input);
    let t = programs();
    let tn = TransducerNetwork {
        transducer: &*t,
        policy,
        config: sys,
    };
    let seq = run(&tn, input, &Scheduler::RoundRobin, 500_000);
    assert!(seq.quiescent, "{label}: sequential oracle must quiesce");
    assert_eq!(seq.output, expected, "{label}: oracle vs centralized");
    for workers in WORKER_COUNTS {
        let thr = run_threaded_with(
            &ThreadedNetwork {
                programs: Programs::PerWorker(programs),
                policy,
                config: sys,
            },
            input,
            &ThreadedConfig::new(workers),
            &Obs::noop(),
        );
        assert!(thr.quiescent, "{label}: threaded x{workers} must quiesce");
        let output = thr.states.output(&t.schema().output);
        assert_eq!(
            output, seq.output,
            "{label}: threaded x{workers} output differs from sequential"
        );
        // `out(R)` is united from rows: the specification projects it
        // from every node's state as facts.
        assert_eq!(
            output,
            network_output(&thr.states.materialize(), &t.schema().output),
            "{label}: threaded x{workers} output is not out(R) of its states"
        );
        check_conservation(&thr, &format!("{label} x{workers}"));
    }
}

#[test]
fn monotone_broadcast_confluent_across_20_seeds() {
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(4));
    for i in 0..20 {
        let seed = seed_base() * 1000 + i;
        let input = random_edges(seed, 6, 3 + (i as usize % 5));
        assert_confluent(
            &programs,
            &tc_datalog(),
            &policy,
            SystemConfig::ORIGINAL,
            &input,
            &format!("M seed {seed}"),
        );
    }
}

#[test]
fn distinct_strategy_confluent_across_20_seeds() {
    let programs = per_worker(|| DistinctStrategy::new(Box::new(edges_without_source_loop())));
    let policy = HashPolicy::new(Network::of_size(3));
    for i in 0..20 {
        let seed = seed_base() * 1000 + 100 + i;
        let input = random_edges(seed, 5, 3 + (i as usize % 3));
        assert_confluent(
            &programs,
            &edges_without_source_loop(),
            &policy,
            SystemConfig::POLICY_AWARE,
            &input,
            &format!("Mdistinct seed {seed}"),
        );
    }
}

#[test]
fn disjoint_strategy_confluent_across_20_seeds() {
    let programs = per_worker(|| DisjointStrategy::new(Box::new(qtc_datalog())));
    let policy = DomainGuidedPolicy::new(Network::of_size(3));
    for i in 0..20 {
        let seed = seed_base() * 1000 + 200 + i;
        // The request/OK/ack protocol is per-value: keep domains small.
        let input = random_edges(seed, 4, 2 + (i as usize % 2));
        assert_confluent(
            &programs,
            &qtc_datalog(),
            &policy,
            SystemConfig::POLICY_AWARE,
            &input,
            &format!("Mdisjoint seed {seed}"),
        );
    }
}

#[test]
fn cross_schedule_confluence_includes_deliver_p_sweep() {
    // RoundRobin, Random at several seeds and delivery probabilities,
    // and threaded at 1/2/8 workers all agree.
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(4));
    let input = random_edges(seed_base() * 1000 + 300, 6, 6);
    let reference = expected_output(&tc_datalog(), &input);
    let t = programs();
    let tn = TransducerNetwork {
        transducer: &*t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    for seed in 0..5 {
        for deliver_p in [0.2, 0.6, 0.9] {
            let r = run(
                &tn,
                &input,
                &Scheduler::Random {
                    seed,
                    prefix: 40,
                    deliver_p,
                },
                500_000,
            );
            assert!(r.quiescent, "seed {seed} p {deliver_p}");
            assert_eq!(r.output, reference, "sequential seed {seed} p {deliver_p}");
        }
    }
    for workers in WORKER_COUNTS {
        let thr = run_threaded(
            &ThreadedNetwork {
                programs: Programs::PerWorker(&programs),
                policy: &policy,
                config: SystemConfig::ORIGINAL,
            },
            &input,
            &ThreadedConfig::new(workers),
        );
        assert!(thr.quiescent);
        assert_eq!(thr.output, reference, "threaded x{workers}");
    }
}

#[test]
fn exhausted_budget_reports_not_quiescent() {
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(3));
    let input = calm_common::generator::path(5);
    let thr = run_threaded_with(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        },
        &input,
        &ThreadedConfig {
            step_budget: 1,
            ..ThreadedConfig::new(2)
        },
        &Obs::noop(),
    );
    assert!(!thr.quiescent, "a 1-step budget cannot reach quiescence");
    // Conservation still holds: exhausted workers keep draining their
    // channels, so nothing is lost in flight.
    check_conservation(&thr, "exhausted");
}

#[test]
fn a_program_that_never_stops_sending_runs_out_its_budget() {
    // The ring concludes once the sends stop, and this engine has no
    // filter of its own to stop them: the strategies mark in their state
    // what they sent and fall silent. A stateless re-sender — a
    // net-compiled program says all it knows at every step — is the
    // sequential engine's to run (its quiescence test knows a
    // re-delivery); here it is cut off at the budget, and says so.
    let programs = per_worker(|| {
        let src = "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";
        let program = calm_datalog::parse_program(src).unwrap();
        calm_spec::compile_monotone_program("net-tc", &program).unwrap()
    });
    let policy = HashPolicy::new(Network::of_size(2));
    let input = calm_common::generator::path(3);
    let t = programs();
    let tn = TransducerNetwork {
        transducer: &*t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let seq = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
    assert!(seq.quiescent);
    let thr = run_threaded_with(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        },
        &input,
        &ThreadedConfig {
            step_budget: 200,
            ..ThreadedConfig::new(2)
        },
        &Obs::noop(),
    );
    assert!(!thr.quiescent, "every step sends: no step is the last");
    assert!(thr.states.output(&t.schema().output).is_subset(&seq.output));
    check_conservation(&thr, "re-sender");
}

#[test]
fn single_node_network_runs_threaded() {
    let programs = per_worker(|| MonotoneBroadcast::new(Box::new(tc_datalog())));
    let policy = HashPolicy::new(Network::of_size(1));
    let input = calm_common::generator::path(4);
    let thr = run_threaded(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        },
        &input,
        &ThreadedConfig::new(8), // clamped to 1
    );
    assert!(thr.quiescent);
    assert_eq!(thr.per_worker.len(), 1);
    assert_eq!(thr.metrics.messages_sent, 0);
    assert_eq!(thr.output, expected_output(&tc_datalog(), &input));
}
