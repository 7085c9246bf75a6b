//! The message count as a formula, under all three engines.
//!
//! On the clique of §4.1.3 a send reaches every other node, so a node
//! *originates* — sends, once — only what is its own: the facts of its
//! fragment `H(x)` and, under [`DistinctStrategy`], the absences it
//! deduced itself (`policy_R` says mine, fact not local). What it is
//! sent it stores and does not forward. Counting (tuple, recipient)
//! pairs like `messages_sent`, over a network of `n` nodes:
//!
//! * `fact    = (n − 1) · Σ_x |H(x)|`
//! * `absence = (n − 1) · Σ_x |{ā ∈ A^k ∖ H(x) : x owns R(ā)}|`, summed
//!   over the input relations `R` of arity `k`, where `A` is what the
//!   nodes come to know: `adom(I)`, and `N` where `All` is visible.
//!
//! With one owner per tuple ([`HashPolicy`]) the sums are `|I|` and
//! `|A|^k − |I|`; under a replicating policy every holder originates,
//! and the sums count a replicated tuple once per holder. The sequential
//! engine (both schedulers), the threaded engine at `W = 2` and the
//! process engine at `P = 2` must all read exactly these numbers: they
//! differ in who carries a send, not in who makes one.

use calm_common::generator::{cycle, path};
use calm_common::{fact, Fact, Instance};
use calm_net::{
    run_net_worker, run_process, run_threaded, Assign, JobSpec, ProcessConfig, Programs,
    SpawnHandle, ThreadedConfig, ThreadedNetwork, WorkerSetup,
};
use calm_obs::Obs;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_spec::OverridePolicy;
use calm_transducer::{
    run, DistinctStrategy, DistributionPolicy, HashPolicy, MessageClassCounts, Metrics,
    MonotoneBroadcast, Network, Scheduler, SystemConfig, Transducer, TransducerNetwork,
};
use std::sync::Arc;

const GRAPH: &str = include_str!("../../../examples/data/graph.facts");

fn graph() -> Instance {
    calm_datalog::parser::parse_facts(GRAPH).expect("graph.facts parses")
}

/// An edge of every input below, and one of none of them.
fn present() -> Fact {
    fact("E", [1, 2])
}
fn absent() -> Fact {
    fact("E", [2, 1])
}

/// One owner per tuple, or — `replicated` — the same with [`present`]
/// and [`absent`] each given to the first *two* nodes.
fn policy(nodes: usize, replicated: bool) -> Box<dyn DistributionPolicy> {
    let net = Network::of_size(nodes);
    let hash = HashPolicy::new(net.clone());
    match replicated {
        false => Box::new(hash),
        true => Box::new(OverridePolicy::new(
            Arc::new(hash),
            [present(), absent()],
            net.nodes().take(2).cloned(),
        )),
    }
}

fn family(strategy: &str) -> (Box<dyn Transducer>, SystemConfig) {
    match strategy {
        "monotone" => (
            Box::new(MonotoneBroadcast::new(Box::new(tc_datalog()))),
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(Box::new(edges_without_source_loop()))),
            SystemConfig::POLICY_AWARE,
        ),
        other => panic!("unknown strategy family {other}"),
    }
}

/// The formula. Every input is a binary `E` over integers, so `A` is
/// `adom(I)` plus the `n` node ids, and `k = 2`.
fn formula(strategy: &str, input: &Instance, n: usize, replicated: bool) -> MessageClassCounts {
    let extra_holders = usize::from(replicated && n > 1);
    let known = input.adom().len() + n;
    let absences = known * known - input.len();
    MessageClassCounts {
        fact: (n - 1) * (input.len() + extra_holders),
        absence: match strategy {
            "distinct" => (n - 1) * (absences + extra_holders),
            _ => 0,
        },
        ..MessageClassCounts::default()
    }
}

fn assert_counts(m: &Metrics, expected: &MessageClassCounts, label: &str) {
    assert_eq!(m.by_class, *expected, "{label}");
    assert_eq!(m.messages_sent, expected.total(), "{label}: sent");
    assert_eq!(m.messages_delivered, expected.total(), "{label}: delivered");
}

/// The process engine over real sockets, workers on threads.
fn process_metrics(
    strategy: &'static str,
    input: &Instance,
    nodes: usize,
    replicated: bool,
) -> Metrics {
    let spec = JobSpec {
        program: String::new(),
        facts: String::new(),
        strategy: strategy.to_string(),
        nodes,
        eval_threads: 1,
        step_budget: 500_000,
        faults: None,
        trace_prefix: None,
        flight_path: None,
    };
    let cfg = ProcessConfig::new(2, spec).with_respawn_budget(0);
    let input = input.clone();
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        let (addr, input) = (addr.to_string(), input.clone());
        Ok(SpawnHandle::Thread(std::thread::spawn(move || {
            let builder = move |assign: &Assign| -> Result<WorkerSetup, String> {
                let (transducer, config) = family(&assign.spec.strategy);
                Ok(WorkerSetup {
                    transducer,
                    policy: policy(assign.spec.nodes, replicated),
                    config,
                    input: input.clone(),
                    obs: Obs::noop(),
                })
            };
            run_net_worker(&addr, k, &builder).expect("worker runs");
        })))
    };
    let r = run_process(&cfg, &spawner, &Obs::noop()).expect("process run starts");
    assert!(r.quiescent && r.failed_workers.is_empty());
    r.metrics
}

/// One cell — strategy × input × `n` × policy — under every engine.
fn check(
    strategy: &'static str,
    input: &Instance,
    n: usize,
    replicated: bool,
    label: &str,
) -> MessageClassCounts {
    let expected = formula(strategy, input, n, replicated);
    let (t, sys) = family(strategy);
    let policy = policy(n, replicated);
    let tn = TransducerNetwork {
        transducer: t.as_ref(),
        policy: policy.as_ref(),
        config: sys,
    };
    for scheduler in [Scheduler::RoundRobin, Scheduler::random(17, 40)] {
        let r = run(&tn, input, &scheduler, 500_000);
        assert!(r.quiescent, "{label}: {scheduler:?}");
        assert_counts(&r.metrics, &expected, &format!("{label} {scheduler:?}"));
    }
    let programs = move || family(strategy).0;
    let threaded = run_threaded(
        &ThreadedNetwork {
            programs: Programs::PerWorker(&programs),
            policy: policy.as_ref(),
            config: sys,
        },
        input,
        &ThreadedConfig::new(2),
    );
    assert!(threaded.quiescent, "{label}: threaded");
    assert_counts(&threaded.metrics, &expected, &format!("{label} threaded"));
    let process = process_metrics(strategy, input, n, replicated);
    assert_counts(&process, &expected, &format!("{label} process"));
    expected
}

#[test]
fn one_owner_per_tuple_sends_each_tuple_to_each_other_node_once() {
    let inputs = [("graph", graph()), ("path", path(5)), ("cycle", cycle(4))];
    for strategy in ["monotone", "distinct"] {
        for (name, input) in &inputs {
            assert!(input.contains(&present()) && !input.contains(&absent()));
            for n in [1, 2, 4] {
                check(
                    strategy,
                    input,
                    n,
                    false,
                    &format!("{strategy} {name} n={n}"),
                );
            }
        }
    }
}

#[test]
fn the_numbers_on_graph_facts() {
    // 3 edges over 5 values: (n − 1) · 3 facts and, with the node ids
    // known, (n − 1) · ((5 + n)² − 3) absences.
    let graph = graph();
    let pinned = [(1, 0, 0), (2, 3, 46), (4, 9, 234)];
    for (n, fact, absence) in pinned {
        let m = check("monotone", &graph, n, false, "monotone graph");
        assert_eq!((m.fact, m.absence), (fact, 0), "monotone n={n}");
        let d = check("distinct", &graph, n, false, "distinct graph");
        assert_eq!((d.fact, d.absence), (fact, absence), "distinct n={n}");
    }
}

#[test]
fn under_a_replicating_policy_every_holder_originates() {
    // `present` is held by two nodes and `absent` owned by two: each of
    // them sends it — Σ_x |H(x)|, not |I|.
    for strategy in ["monotone", "distinct"] {
        for (name, input) in [("graph", graph()), ("path", path(5))] {
            for n in [2, 4] {
                check(
                    strategy,
                    &input,
                    n,
                    true,
                    &format!("{strategy} {name} n={n}"),
                );
            }
        }
    }
}
