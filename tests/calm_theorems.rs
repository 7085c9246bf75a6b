//! Integration test: the transducer-network characterizations —
//! `F0 = M` (Cor 4.6), `F1 = Mdistinct` (Thm 4.3), `F2 = Mdisjoint`
//! (Thm 4.4), and the no-`All` variants `A1`/`A2` (Thm 4.5).
//! Experiments E8–E10 of DESIGN.md.

use calm::common::generator::{chain_game, cycle_game, path, InstanceRng};
use calm::common::Instance;
use calm::prelude::*;
use calm::queries::qtc_datalog;
use calm::queries::tc::{edges_without_source_loop, tc_datalog};
use calm::queries::winmove::win_move;
use calm::spec::{heartbeat_witness, verify_computes};

fn schedulers() -> Vec<Scheduler> {
    vec![
        Scheduler::RoundRobin,
        Scheduler::random(21, 40),
        Scheduler::random(22, 80),
    ]
}

// ---------- E8a: monotone queries in the original model (F0 ⊇ M) ----------

#[test]
fn monotone_strategy_computes_tc_in_original_model() {
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    for input in [path(4), calm::common::generator::cycle(4)] {
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 3] {
            let policy = HashPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::ORIGINAL,
            };
            verify_computes(&tn, &input, &expected, &schedulers(), 100_000)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }
}

#[test]
fn monotone_strategy_heartbeat_witness() {
    // Coordination-freeness of the M strategy: the all-to-x policy plus
    // heartbeats at x computes Q(I).
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let input = path(5);
    let expected = expected_output(t.query(), &input);
    let net = Network::of_size(4);
    let x = net.first().clone();
    let policy = DomainGuidedPolicy::all_to(net, x.clone());
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    assert_eq!(heartbeat_witness(&tn, &input, &x, &expected, 5), Some(1));
}

// ---------- E8b: Mdistinct queries in the policy-aware model (F1) ----------

#[test]
fn distinct_strategy_computes_sp_query_for_arbitrary_policies() {
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let mut input = path(3);
    input.insert(fact("E", [1, 1]));
    let expected = expected_output(t.query(), &input);
    for n in [1, 2, 3] {
        let policy = HashPolicy::new(Network::of_size(n));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(&tn, &input, &expected, &schedulers(), 200_000)
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn distinct_strategy_on_random_inputs() {
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    for seed in 0..4u64 {
        let input = InstanceRng::seeded(seed).gnp(5, 0.3);
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 400_000)
            .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
    }
}

// ---------- E9: Mdisjoint queries in the domain-guided model (F2) ----------

#[test]
fn disjoint_strategy_computes_win_move_and_qtc() {
    let games = [
        chain_game(0, 4),
        chain_game(0, 3).union(&cycle_game(20, 3)),
        InstanceRng::seeded(9).move_graph(10, 2),
    ];
    let t = DisjointStrategy::new(Box::new(win_move()));
    for input in &games {
        let expected = expected_output(t.query(), input);
        for n in [1, 2, 4] {
            let policy = DomainGuidedPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            verify_computes(&tn, input, &expected, &schedulers(), 500_000)
                .unwrap_or_else(|e| panic!("n={n}, input={input:?}: {e}"));
        }
    }
    // Q_TC ∈ Mdisjoint too.
    let t2 = DisjointStrategy::new(Box::new(qtc_datalog()));
    let input = path(3);
    let expected = expected_output(t2.query(), &input);
    let policy = DomainGuidedPolicy::new(Network::of_size(3));
    let tn = TransducerNetwork {
        transducer: &t2,
        policy: &policy,
        config: SystemConfig::POLICY_AWARE,
    };
    verify_computes(&tn, &input, &expected, &schedulers(), 500_000).unwrap();
}

#[test]
fn disjoint_strategy_heartbeat_witness_on_ideal_assignment() {
    let t = DisjointStrategy::new(Box::new(win_move()));
    let input = chain_game(0, 5);
    let expected = expected_output(t.query(), &input);
    for n in [2, 4] {
        let net = Network::of_size(n);
        let x = net.first().clone();
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let beats = heartbeat_witness(&tn, &input, &x, &expected, 10).expect("witness must exist");
        assert!(beats <= 2, "n={n}");
    }
}

// ---------- E10: Theorem 4.5 — dropping All changes nothing ----------

#[test]
fn strategies_unchanged_without_all_relation() {
    // The same transducers, same inputs, same expected outputs — with the
    // All relation removed from the system schema. Outputs must be
    // identical to the All-present runs.
    let mut input = path(3);
    input.insert(fact("E", [0, 0]));

    let distinct = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let expected = expected_output(distinct.query(), &input);
    for config in [
        SystemConfig::POLICY_AWARE,
        SystemConfig::POLICY_AWARE_NO_ALL,
    ] {
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &distinct,
            policy: &policy,
            config,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 400_000)
            .unwrap_or_else(|e| panic!("{config:?}: {e}"));
    }

    let disjoint = DisjointStrategy::new(Box::new(win_move()));
    let game = chain_game(0, 4);
    let expected = expected_output(disjoint.query(), &game);
    for config in [
        SystemConfig::POLICY_AWARE,
        SystemConfig::POLICY_AWARE_NO_ALL,
    ] {
        let policy = DomainGuidedPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &disjoint,
            policy: &policy,
            config,
        };
        verify_computes(&tn, &game, &expected, &[Scheduler::RoundRobin], 400_000)
            .unwrap_or_else(|e| panic!("{config:?}: {e}"));
    }
}

#[test]
fn oblivious_transducers_still_compute_monotone_queries() {
    // Corollary 4.6: even without Id and All, monotone queries go
    // through.
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let input = path(4);
    let expected = expected_output(t.query(), &input);
    let policy = HashPolicy::new(Network::of_size(3));
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::OBLIVIOUS,
    };
    verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 100_000).unwrap();
}

// ---------- The negative side: strategies fail outside their class ----------

#[test]
fn strategy_class_mismatch_grid() {
    // M strategy on an Mdistinct-but-not-M query must fail on some
    // distribution (E(x,y),¬E(x,x) with the loop and the edge separated).
    let t = DistinctStrategyFailureFixture::m_on_sp();
    let mut input = Instance::new();
    input.insert(fact("E", [1, 2]));
    input.insert(fact("E", [1, 1]));
    let expected = expected_output(t.query(), &input);
    assert!(expected.is_empty());
    let net = Network::of_size(2);
    let base: std::sync::Arc<dyn calm::transducer::DistributionPolicy> = std::sync::Arc::new(
        DomainGuidedPolicy::all_to(net.clone(), calm::common::Value::str("n1")),
    );
    let policy = calm::spec::OverridePolicy::new(
        base,
        [fact("E", [1, 1])],
        [calm::common::Value::str("n2")],
    );
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let r = calm::transducer::run(&tn, &input, &Scheduler::RoundRobin, 100_000);
    assert!(r.quiescent);
    assert_ne!(r.output, expected, "n1 emits O(1,2) before learning E(1,1)");
}

/// Tiny helper namespace to keep the negative-grid test readable.
struct DistinctStrategyFailureFixture;
impl DistinctStrategyFailureFixture {
    fn m_on_sp() -> MonotoneBroadcast {
        MonotoneBroadcast::new(Box::new(edges_without_source_loop()))
    }
}

#[test]
fn distinct_strategy_fails_on_win_move_somewhere() {
    // win-move ∉ Mdistinct, so the distinct strategy must fail on some
    // policy-aware network (Theorem 4.3's converse direction).
    let t = DistinctStrategy::new(Box::new(win_move()));
    let input = chain_game(0, 2);
    let expected = expected_output(t.query(), &input);
    let net = Network::of_size(2);
    let base: std::sync::Arc<dyn calm::transducer::DistributionPolicy> = std::sync::Arc::new(
        DomainGuidedPolicy::all_to(net.clone(), calm::common::Value::str("n1")),
    );
    let policy = calm::spec::OverridePolicy::new(
        base,
        [calm::common::generator::mv(1, 2)],
        [calm::common::Value::str("n2")],
    );
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::POLICY_AWARE,
    };
    let r = calm::transducer::run(&tn, &input, &Scheduler::RoundRobin, 100_000);
    assert!(r.quiescent);
    assert_ne!(r.output, expected);
}
