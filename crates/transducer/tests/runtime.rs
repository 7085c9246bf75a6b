//! The sequential runtime on a Datalog transducer: fair runs under every
//! scheduler reach the same output, the random prefix leaves room for
//! the closing sweeps, `Metrics` merge as a monoid, the memory update
//! follows §4.1.3 transition by transition, and a run materialises no
//! state until its configuration is asked for.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_obs::{Obs, ReportSink};
use calm_spec::{
    final_config, network_output, transition, verify_computes, Configuration, DatalogTransducer,
};
use calm_transducer::{
    distribute, run, run_with, Delivery, HashPolicy, Metrics, Network, Scheduler, SystemConfig,
    Transducer, TransducerNetwork, TransducerSchema,
};
use std::sync::Arc;

/// A broadcast-union transducer: every node broadcasts its local edges
/// and outputs everything it knows. Computes the identity query on E
/// (a monotone query) — the simplest CALM-style example.
fn union_transducer() -> DatalogTransducer {
    DatalogTransducer::parse(
        "union",
        TransducerSchema::new(
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("out_E", 2)]),
            Schema::from_pairs([("msg_E", 2)]),
            Schema::from_pairs([("seen_E", 2)]),
        ),
        "msg_E(x,y) :- E(x,y).\n\
         seen_E(x,y) :- E(x,y).\n\
         seen_E(x,y) :- msg_E(x,y).\n\
         out_E(x,y) :- seen_E(x,y).\n\
         out_E(x,y) :- E(x,y).",
    )
    .unwrap()
}

fn expected_out(input: &Instance) -> Instance {
    Instance::from_facts(
        input
            .tuples("E")
            .map(|t| fact("out_E", [t[0].clone(), t[1].clone()])),
    )
}

#[test]
fn union_network_computes_identity() {
    let net = Network::of_size(3);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = calm_common::generator::path(6);
    let expected = expected_out(&input);
    let results = verify_computes(
        &tn,
        &input,
        &expected,
        &[
            Scheduler::RoundRobin,
            Scheduler::random(1, 20),
            Scheduler::random(2, 50),
        ],
        10_000,
    )
    .unwrap();
    assert!(results.iter().all(|r| r.quiescent));
    // Messages flowed (3 nodes, nonempty input).
    assert!(results[0].metrics.messages_sent > 0);
}

#[test]
fn single_node_needs_no_messages_delivered_for_output() {
    let net = Network::of_size(1);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = calm_common::generator::path(3);
    let r = run(&tn, &input, &Scheduler::RoundRobin, 1000);
    assert!(r.quiescent);
    assert_eq!(r.output, expected_out(&input));
    // No other nodes: nothing is ever enqueued.
    assert_eq!(r.metrics.messages_sent, 0);
}

#[test]
fn empty_input_quiesces_immediately() {
    let net = Network::of_size(2);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let r = run(&tn, &Instance::new(), &Scheduler::RoundRobin, 100);
    assert!(r.quiescent);
    assert!(r.output.is_empty());
}

#[test]
fn random_schedules_converge_to_same_output() {
    let net = Network::of_size(4);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = calm_common::generator::cycle(5);
    let expected = expected_out(&input);
    for seed in 0..8 {
        let r = run(&tn, &input, &Scheduler::random(seed, 60), 10_000);
        assert!(r.quiescent, "seed {seed}");
        assert_eq!(r.output, expected, "confluence under seed {seed}");
    }
}

/// An echo transducer: every node sends its local edges and, at every
/// step, what it was delivered. Its sends depend on `M`, so no buffer is
/// ever empty for good: the run stops on the quiescence test alone.
fn echo_transducer() -> DatalogTransducer {
    DatalogTransducer::parse(
        "echo",
        TransducerSchema::new(
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("out_E", 2)]),
            Schema::from_pairs([("msg_E", 2)]),
            Schema::new(),
        ),
        "msg_E(x,y) :- E(x,y).\n\
         msg_E(x,y) :- msg_E(x,y).\n\
         out_E(x,y) :- E(x,y).\n\
         out_E(x,y) :- msg_E(x,y).",
    )
    .unwrap()
}

#[test]
fn a_resender_of_its_deliveries_quiesces_with_the_whole_input() {
    let t = echo_transducer();
    let input = calm_common::generator::cycle(5);
    let expected = expected_out(&input);
    for n in 2..=5 {
        let policy = HashPolicy::new(Network::of_size(n));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let schedulers = (0..10).map(|seed| Scheduler::random(seed, 40));
        for scheduler in std::iter::once(Scheduler::RoundRobin).chain(schedulers) {
            let r = run(&tn, &input, &scheduler, 10_000);
            assert!(r.quiescent, "{n} nodes, {scheduler:?}");
            assert_eq!(r.output, expected, "{n} nodes, {scheduler:?}");
            assert!(r.metrics.messages_sent > 0, "{n} nodes, {scheduler:?}");
        }
    }
}

#[test]
fn empty_delivery_scheduler_terminates_via_heartbeats() {
    // Regression: at `deliver_p = 0` every prefix transition is a
    // heartbeat or an empty sampled delivery. An unbounded prefix
    // used to spin the entire transition budget without delivering
    // a single message, so the closing sweeps never ran and the
    // run livelocked into a non-quiescent report. The prefix cap
    // reserves budget for the sweeps: the run still quiesces, on
    // the right output, with the prefix visible as heartbeats.
    let net = Network::of_size(3);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = calm_common::generator::path(4);
    let expected = expected_out(&input);
    for deliver_p in [0.0, f64::NAN, -3.0] {
        let r = run(
            &tn,
            &input,
            &Scheduler::Random {
                seed: 3,
                prefix: usize::MAX,
                deliver_p,
            },
            2_000,
        );
        assert!(r.quiescent, "sweeps must still run at p={deliver_p}");
        assert_eq!(r.output, expected, "p={deliver_p}");
        assert!(r.metrics.heartbeats > 0, "the prefix ran, as heartbeats");
        assert!(
            r.metrics.transitions <= 2_000,
            "budget respected at p={deliver_p}"
        );
    }
}

#[test]
fn delivery_probability_is_sweepable() {
    // deliver_p = 0 keeps every sampled occurrence in flight (a
    // heartbeat), deliver_p = 1 delivers everything; the closing
    // sweeps make the output identical either way.
    let net = Network::of_size(3);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = calm_common::generator::path(4);
    let expected = expected_out(&input);
    for deliver_p in [0.0, 0.3, 1.0] {
        let r = run(
            &tn,
            &input,
            &Scheduler::Random {
                seed: 9,
                prefix: 30,
                deliver_p,
            },
            10_000,
        );
        assert!(r.quiescent, "p={deliver_p}");
        assert_eq!(r.output, expected, "confluence at p={deliver_p}");
    }
}

#[test]
fn metrics_merge_is_associative_with_identity() {
    let sample = |seed: u64| {
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net);
        let t = union_transducer();
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        run(
            &tn,
            &calm_common::generator::path(4),
            &Scheduler::random(seed, 25),
            10_000,
        )
        .metrics
    };
    let (a, b, c) = (sample(1), sample(2), sample(3));
    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right, "merge must be associative");
    // default is an identity on both sides
    let mut with_id = Metrics::default();
    with_id.merge(&a);
    assert_eq!(with_id, a);
    let mut id_after = a.clone();
    id_after.merge(&Metrics::default());
    assert_eq!(id_after, a);
}

#[test]
fn memory_update_follows_the_paper_formula() {
    // s2 = (s1 ∪ (ins \ del)) \ (del \ ins): facts both inserted and
    // deleted in one transition cancel out; deletions of stored facts
    // take effect.
    let t = DatalogTransducer::parse(
        "toggler",
        TransducerSchema::new(
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("out_probe", 2)]),
            Schema::new(),
            Schema::from_pairs([("flag", 2), ("both", 2)]),
        ),
        // flag is inserted when absent and deleted when present — a
        // genuine toggle across transitions. `both` is inserted AND
        // deleted every transition: (ins\del) and (del\ins) are both
        // empty for it, so it never appears.
        "flag(x,y) :- E(x,y), not flag(x,y).\n\
         del_flag(x,y) :- E(x,y), flag(x,y).\n\
         both(x,y) :- E(x,y).\n\
         del_both(x,y) :- E(x,y).\n\
         out_probe(x,y) :- flag(x,y).",
    )
    .unwrap();
    let net = Network::of_size(1);
    let policy = HashPolicy::new(net.clone());
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = Instance::from_facts([fact("E", [1, 2])]);
    let dist = distribute(&policy, &input);
    let mut config = Configuration::start(&net);
    let mut metrics = Metrics::default();
    let x = net.first().clone();
    // Transition 1: flag inserted.
    transition(&tn, &dist, &mut config, &x, Delivery::None, &mut metrics);
    assert!(config.state[&x].contains(&fact("flag", [1, 2])));
    assert!(!config.state[&x].contains(&fact("both", [1, 2])));
    // Transition 2: flag present -> deleted (the insertion rule needs
    // ¬flag, so only the deletion fires).
    transition(&tn, &dist, &mut config, &x, Delivery::None, &mut metrics);
    assert!(!config.state[&x].contains(&fact("flag", [1, 2])));
    // Transition 3: toggles back on.
    transition(&tn, &dist, &mut config, &x, Delivery::None, &mut metrics);
    assert!(config.state[&x].contains(&fact("flag", [1, 2])));
    // Output is cumulative: the probe survives flag-off transitions.
    assert!(config.state[&x].contains(&fact("out_probe", [1, 2])));
}

/// How many `runtime/finish` spans `report` holds: the `n=` of its line.
fn finish_spans(report: &ReportSink) -> u64 {
    let rendered = report.render();
    let line = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("runtime/finish "));
    line.map_or(0, |l| {
        let n = l.split_whitespace().find_map(|w| w.strip_prefix("n="));
        n.expect("a span line has n=").parse().unwrap()
    })
}

#[test]
fn a_run_builds_neither_out_r_nor_a_nodes_state_until_it_is_asked() {
    let policy = HashPolicy::new(Network::of_size(3));
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let report = Arc::new(ReportSink::new());
    let input = calm_common::generator::path(5);
    let r = run_with(
        &tn,
        &input,
        &Scheduler::RoundRobin,
        1000,
        &Obs::new(report.clone()),
    );
    assert!(r.quiescent);
    assert_eq!(finish_spans(&report), 0, "the run united nothing");
    let output = r.states.output(&t.schema().output);
    assert_eq!(output, expected_out(&input));
    assert_eq!(
        finish_spans(&report),
        1,
        "out(R) is united once, when asked"
    );
    assert_eq!(report.counter_total("runtime", "states.materialized"), 0);
    // The configuration is the one the specification's transitions
    // reach, and `out(R)` its projection.
    let config = final_config(&r);
    assert_eq!(report.counter_total("runtime", "states.materialized"), 3);
    assert_eq!(network_output(&config.state, &t.schema().output), output);
    assert_eq!(r.states.materialize(), config.state);
    assert_eq!(finish_spans(&report), 1);
}

#[test]
fn metrics_track_first_output() {
    let net = Network::of_size(2);
    let policy = HashPolicy::new(net);
    let t = union_transducer();
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = calm_common::generator::path(2);
    let r = run(&tn, &input, &Scheduler::RoundRobin, 1000);
    assert!(r.metrics.first_output_at.is_some());
    assert!(r.metrics.first_output_at <= r.metrics.last_output_growth_at);
}
