//! The three strategies compute what their class says, checked by the
//! specification: every scheduler's fair run quiesces on `Q(I)`
//! ([`calm_spec::verify_computes`]), a heartbeat-only prefix under the
//! ideal policy computes it (Definition 3), and a heartbeat-only prefix
//! on part of the input outputs nothing `Q(I)` refutes.

mod monotone {
    use calm_common::generator::{cycle, path};
    use calm_queries::tc::tc_datalog;
    use calm_spec::verify_computes;
    use calm_transducer::{
        expected_output, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig,
        TransducerNetwork,
    };

    fn tc_strategy() -> MonotoneBroadcast {
        MonotoneBroadcast::new(Box::new(tc_datalog()))
    }

    #[test]
    fn computes_tc_on_all_network_sizes() {
        let t = tc_strategy();
        let input = path(5);
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 4] {
            let policy = HashPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::ORIGINAL,
            };
            verify_computes(
                &tn,
                &input,
                &expected,
                &[Scheduler::RoundRobin, Scheduler::random(7, 30)],
                20_000,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn works_without_all_and_oblivious() {
        // The strategy reads no system relations at all: Corollary 4.6's
        // F0 = A0 = M (oblivious transducers compute monotone queries).
        let t = tc_strategy();
        let input = cycle(4);
        let expected = expected_output(t.query(), &input);
        for config in [
            SystemConfig::ORIGINAL_NO_ALL,
            SystemConfig::OBLIVIOUS,
            SystemConfig::POLICY_AWARE,
        ] {
            let policy = HashPolicy::new(Network::of_size(3));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config,
            };
            verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 20_000)
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
        }
    }

    #[test]
    fn non_monotone_query_miscomputed() {
        // Running the M strategy on Q_TC (not monotone) on a 2-node
        // network produces wrong (unretractable) outputs for some
        // distribution: the core of the CALM only-if direction.
        //
        // Input: the cycle 0 -> 1 -> 2 -> 0, whose complement-of-TC is
        // empty. Place E(0,1), E(2,0) on n1 and E(1,2) on n2: before the
        // exchange completes, n1 sees a graph where (e.g.) 0 cannot reach
        // 2 and emits O-facts that the full input refutes.
        use calm_common::value::Value;
        use calm_spec::OverridePolicy;
        use calm_transducer::{DistributionPolicy, DomainGuidedPolicy};
        use std::sync::Arc;
        let t = MonotoneBroadcast::new(Box::new(calm_queries::qtc::qtc_datalog()));
        let input = calm_common::generator::cycle(3);
        let expected = expected_output(t.query(), &input);
        assert!(expected.is_empty(), "complement of TC on a cycle is empty");
        let net = Network::of_size(2);
        let base: Arc<dyn DistributionPolicy> =
            Arc::new(DomainGuidedPolicy::all_to(net.clone(), Value::str("n1")));
        let policy = OverridePolicy::new(
            base,
            [calm_common::fact::fact("E", [1, 2])],
            [Value::str("n2")],
        );
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r = calm_transducer::run(&tn, &input, &Scheduler::RoundRobin, 20_000);
        // The run quiesces but output ⊋ Q(I) = ∅: nodes answered on
        // partial inputs and could never retract.
        assert!(r.quiescent);
        assert!(
            !r.output.is_empty(),
            "the M strategy must overshoot on a non-monotone query"
        );
    }
}

mod distinct {
    use calm_common::fact::Fact;
    use calm_common::generator::path;
    use calm_queries::tc::edges_without_source_loop;
    use calm_spec::verify_computes;
    use calm_transducer::{
        expected_output, DistinctStrategy, DomainGuidedPolicy, HashPolicy, Network, Scheduler,
        SystemConfig, Transducer, TransducerNetwork,
    };

    fn strategy() -> DistinctStrategy {
        DistinctStrategy::new(Box::new(edges_without_source_loop()))
    }

    #[test]
    fn computes_sp_datalog_query_on_hash_policy() {
        // The SP-Datalog query O(x,y) :- E(x,y), ¬E(x,x) is in Mdistinct;
        // the strategy must compute it for arbitrary policies.
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [2, 2]));
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 3] {
            let policy = HashPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            verify_computes(
                &tn,
                &input,
                &expected,
                &[Scheduler::RoundRobin, Scheduler::random(3, 40)],
                50_000,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn computes_without_all_relation() {
        // Theorem 4.5 (A1 = Mdistinct): the same transducer, never reading
        // All, still computes the query.
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [0, 0]));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE_NO_ALL,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 50_000).unwrap();
    }

    #[test]
    fn no_premature_output_on_incomplete_knowledge() {
        // With messages withheld (heartbeats only), a node holding only
        // part of the input must not output facts that the full input
        // would retract. Run a heartbeat-only prefix and check the output
        // stays inside Q(I).
        use calm_transducer::{distribute, DistributionPolicy};
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [0, 0]));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let dist = distribute(&policy, &input);
        let mut config = calm_spec::Configuration::start(policy.network());
        let mut metrics = calm_transducer::Metrics::default();
        for node in policy.network().nodes() {
            for _ in 0..3 {
                calm_spec::transition(
                    &tn,
                    &dist,
                    &mut config,
                    node,
                    calm_transducer::Delivery::None,
                    &mut metrics,
                );
            }
        }
        let partial = calm_spec::network_output(&config.state, &t.schema().output);
        assert!(
            partial.is_subset(&expected),
            "heartbeat outputs must be sound: {partial:?} ⊄ {expected:?}"
        );
    }

    #[test]
    fn a_restored_node_originates_what_its_marks_do_not_cover_and_nothing_it_stored() {
        use calm_spec::{transition, Configuration};
        use calm_transducer::{Delivery, Metrics};

        // The specification, one configuration to the next: every node
        // is rebuilt from its state alone at every transition.
        let t = strategy();
        let net = Network::of_size(2);
        let policy = HashPolicy::new(net.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let input = path(2);
        let dist = calm_transducer::distribute(&policy, &input);
        let mut config = Configuration::start(&net);
        let mut m = Metrics::default();
        let nodes: Vec<_> = net.nodes().cloned().collect();
        for _ in 0..3 {
            for x in &nodes {
                transition(&tn, &dist, &mut config, x, Delivery::All, &mut m);
            }
        }
        // 2 facts and (3 + 2)² − 2 absences, each to the one other node.
        assert_eq!((m.by_class.fact, m.by_class.absence), (2, 23));
        let x = &nodes[0];
        let done = config.state[x].clone();
        // The marks are the node's own tuples; the memory is everyone's.
        let (own_facts, own_absences) = (done.relation_len("sf_E"), done.relation_len("sb_E"));
        assert_eq!(own_facts, dist[x].len());
        assert_eq!(
            (done.relation_len("c_E"), done.relation_len("ab_E")),
            (2, 23)
        );
        assert!(own_absences < 23 && own_facts + own_absences > 0);

        // Forget that the own facts and one own deduction were sent: the
        // node sends exactly those again, and not one of the tuples it
        // holds because another node sent them.
        let absence_mark = done.tuples("sb_E").next().expect("owns an absence");
        let state = config.state.get_mut(x).unwrap();
        state.retain_relations(|r| &**r != "sf_E");
        state.remove(&Fact::new("sb_E", absence_mark.clone()));
        let expected = own_facts + 1;
        let before = m.messages_sent;
        transition(&tn, &dist, &mut config, x, Delivery::None, &mut m);
        assert_eq!(m.messages_sent - before, expected);
        assert_eq!(config.state[x], done);
    }

    #[test]
    fn ideal_policy_completes_in_heartbeats() {
        // Coordination-freeness witness: everything at one node.
        let t = strategy();
        let mut input = path(2);
        input.insert(calm_common::fact::fact("E", [1, 1]));
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(3);
        let x = calm_common::value::Value::str("n2");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let steps = calm_spec::heartbeat_witness(&tn, &input, &x, &expected, 10)
            .expect("heartbeat-only prefix computes Q(I)");
        assert!(steps <= 3);
    }

    #[test]
    fn non_member_query_goes_wrong() {
        // Feeding win-move (∉ Mdistinct) through the distinct strategy on
        // a 2-node network yields a wrong quiescent output for at least
        // one policy/input: the strategy's soundness argument needs
        // domain-distinct monotonicity.
        let t = DistinctStrategy::new(Box::new(calm_queries::winmove::win_move()));
        let input = calm_common::generator::chain_game(0, 2);
        let expected = expected_output(t.query(), &input);
        // Split the two move facts across nodes.
        let net = Network::of_size(2);
        let base: std::sync::Arc<dyn calm_transducer::DistributionPolicy> =
            std::sync::Arc::new(calm_transducer::DomainGuidedPolicy::all_to(
                net.clone(),
                calm_common::value::Value::str("n1"),
            ));
        let policy = calm_spec::OverridePolicy::new(
            base,
            [calm_common::generator::mv(1, 2)],
            [calm_common::value::Value::str("n2")],
        );
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = calm_transducer::run(&tn, &input, &Scheduler::RoundRobin, 50_000);
        assert!(r.quiescent);
        assert_ne!(r.output, expected, "win-move must break the strategy");
    }
}

mod disjoint {
    use calm_common::generator::{chain_game, cycle_game, path};
    use calm_common::value::Value;
    use calm_queries::qtc::qtc_datalog;
    use calm_queries::winmove::win_move;
    use calm_spec::verify_computes;
    use calm_transducer::{
        expected_output, run, DisjointStrategy, DomainGuidedPolicy, Network, Scheduler,
        SystemConfig, TransducerNetwork,
    };

    #[test]
    fn computes_win_move_under_domain_guidance() {
        // The paper's headline: the non-monotone win-move query computed
        // coordination-free in the domain-guided model.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3).union(&cycle_game(10, 3));
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 4] {
            let policy = DomainGuidedPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            verify_computes(
                &tn,
                &input,
                &expected,
                &[Scheduler::RoundRobin, Scheduler::random(5, 60)],
                100_000,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn computes_qtc_under_domain_guidance() {
        // Q_TC ∈ Mdisjoint (Theorem 3.1): the strategy computes it.
        let t = DisjointStrategy::new(Box::new(qtc_datalog()));
        let input = path(3);
        let expected = expected_output(t.query(), &input);
        let policy = DomainGuidedPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 100_000).unwrap();
    }

    #[test]
    fn computes_without_all_relation() {
        // Theorem 4.5 (A2 = Mdisjoint): same transducer, no All.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 4);
        let expected = expected_output(t.query(), &input);
        let policy = DomainGuidedPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE_NO_ALL,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 100_000).unwrap();
    }

    #[test]
    fn heartbeat_witness_on_ideal_assignment() {
        // Coordination-freeness: assign every value to x; x answers in
        // heartbeats alone.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3);
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(3);
        let x = Value::str("n1");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let steps = calm_spec::heartbeat_witness(&tn, &input, &x, &expected, 10)
            .expect("heartbeat-only witness");
        assert!(steps <= 2);
    }

    #[test]
    fn works_with_replicated_domain_assignments() {
        // The paper allows α(a) with several owners ("possibly with
        // replication"); the protocol must stay correct when every value
        // has two responsible nodes.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 4).union(&cycle_game(30, 3));
        let expected = expected_output(t.query(), &input);
        let policy = calm_spec::ReplicatedDomainPolicy::new(Network::of_size(4), 2);
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(
            &tn,
            &input,
            &expected,
            &[Scheduler::RoundRobin, Scheduler::random(8, 80)],
            500_000,
        )
        .unwrap();
    }

    #[test]
    fn nullary_encoding_under_domain_guidance() {
        // Section 7: nullary facts (encoded over the ⊥ marker) must be
        // assigned to all nodes in a domain-guided policy. With the
        // marker's α(⊥) = N, the strategy computes the query.
        use calm_datalog::nullary::{encode_source, marker};
        let src = encode_source("@output O.\nO(x,y) :- E(x,y), Enabled().");
        let q = calm_datalog::DatalogQuery::parse("flagged", &src).unwrap();
        let t = DisjointStrategy::new(Box::new(q));
        let input =
            calm_datalog::parse_facts(&encode_source("E(1,2). E(2,3). Enabled().")).unwrap();
        let expected = expected_output(t.query(), &input);
        assert_eq!(expected.len(), 2, "Enabled() gates the copy");
        let net = Network::of_size(3);
        let policy = DomainGuidedPolicy::new(net.clone())
            .with_value_assignment(marker(), net.nodes().cloned());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 200_000).unwrap();
        // Without the flag, nothing is output.
        let bare = calm_datalog::parse_facts("E(1,2).").unwrap();
        let r = run(&tn, &bare, &Scheduler::RoundRobin, 200_000);
        assert!(r.quiescent && r.output.is_empty());
    }
}
