//! Executable replays of the paper's proof arguments.
//!
//! The inclusions `F1 ⊆ Mdistinct` and `F2 ⊆ Mdisjoint` (Theorems
//! 4.3/4.4) and `A1 ⊆ Mdistinct` (Theorem 4.5) are proved by *policy
//! surgery*: take the ideal policy `P1` whose heartbeat-prefix run at a
//! node `x` computes `Q(I)`, reroute the extension `J` to a different
//! node `y` (policy `P2`), and observe that `x` cannot tell the
//! difference — it reproduces `Q(I)` with heartbeats on input `I ∪ J`,
//! and the extended fair run therefore puts `Q(I)` inside `Q(I ∪ J)`.
//!
//! This module runs that argument on concrete transducers and inputs,
//! returning the measured artifacts of each step.

use crate::coordination::heartbeat_witness;
use crate::policies::OverridePolicy;
use crate::semantics::{network_output, transition, Configuration};
use calm_common::instance::Instance;
use calm_transducer::{
    distribute, run, Delivery, DistributionPolicy, DomainGuidedPolicy, Metrics, Network, Scheduler,
    SystemConfig, Transducer, TransducerNetwork,
};
use std::sync::Arc;

/// The measured artifacts of one policy-surgery replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Heartbeats needed at `x` under the ideal policy `P1` on `I`.
    pub heartbeats_p1: Option<usize>,
    /// Whether `x` under the surgically modified `P2` on `I ∪ J`
    /// reproduced exactly the same output with heartbeats only.
    pub same_behaviour_under_p2: bool,
    /// The full fair-run output on `I ∪ J` under `P2`.
    pub output_union: Instance,
    /// Whether `Q(I) ⊆ Q(I ∪ J)` held for this pair — the monotonicity
    /// consequence the proof derives.
    pub inclusion_holds: bool,
}

/// Replay the `F1 ⊆ Mdistinct` / `F2 ⊆ Mdisjoint` argument for a
/// transducer on a concrete `(I, J)`.
///
/// * `expected_qi` — `Q(I)` in the transducer's (renamed) output schema;
/// * the caller guarantees `J` is admissible for the class under test
///   (domain-distinct for Theorem 4.3, domain-disjoint for Theorem 4.4).
///
/// Panics if the transducer has no heartbeat witness under the ideal
/// policy (i.e. is not coordination-free in the sense of Definition 3).
pub fn replay_policy_surgery(
    transducer: &dyn Transducer,
    config: SystemConfig,
    input: &Instance,
    extension: &Instance,
    expected_qi: &Instance,
) -> ReplayOutcome {
    let net = Network::of_size(2);
    let x = net.first().clone();
    let y = net.nodes().nth(1).expect("two nodes").clone();

    // Step 1: the ideal policy P1 (everything at x) admits a
    // heartbeat-only prefix computing Q(I).
    let p1 = DomainGuidedPolicy::all_to(net.clone(), x.clone());
    let tn1 = TransducerNetwork {
        transducer,
        policy: &p1,
        config,
    };
    let heartbeats_p1 = heartbeat_witness(&tn1, input, &x, expected_qi, 32);
    let k = heartbeats_p1.expect("transducer must be coordination-free on the ideal policy");

    // Step 2: surgery — P2 routes J to y, everything else as P1.
    let base: Arc<dyn DistributionPolicy> =
        Arc::new(DomainGuidedPolicy::all_to(net.clone(), x.clone()));
    let p2 = OverridePolicy::new(base, extension.facts(), [y]);

    // Step 3: run k heartbeats at x under P2 on I ∪ J; x must go through
    // the same state changes (its local input is unchanged) and output
    // exactly Q(I).
    let union = input.union(extension);
    let tn2 = TransducerNetwork {
        transducer,
        policy: &p2,
        config,
    };
    let dist = distribute(&p2, &union);
    let mut cfg = Configuration::start(&net);
    let mut metrics = Metrics::default();
    for _ in 0..k {
        transition(&tn2, &dist, &mut cfg, &x, Delivery::None, &mut metrics);
    }
    let prefix_output = network_output(&cfg.state, &tn2.transducer.schema().output);
    let same_behaviour_under_p2 = prefix_output == *expected_qi;

    // Step 4: extend to a full fair run; out = Q(I ∪ J) must contain the
    // prefix output Q(I).
    let full = run(&tn2, &union, &Scheduler::RoundRobin, 1_000_000);
    let inclusion_holds = expected_qi.is_subset(&full.output) && full.quiescent;

    ReplayOutcome {
        heartbeats_p1,
        same_behaviour_under_p2,
        output_union: full.output,
        inclusion_holds,
    }
}

/// Replay the `A1 ⊆ Mdistinct` argument of Theorem 4.5: a transducer that
/// never sees `All` behaves identically at `x` on a single-node network
/// with input `I` and on a two-node network where `J` sits at the other
/// node — it "can not detect the difference". Returns whether the two
/// heartbeat-prefix states of `x` matched step for step.
pub fn replay_no_all_indistinguishability(
    transducer: &dyn Transducer,
    config: SystemConfig,
    input: &Instance,
    extension: &Instance,
    steps: usize,
) -> bool {
    assert!(
        !config.include_all,
        "the argument requires the All-free model"
    );
    // Single-node network {x}.
    let single = Network::of_size(1);
    let x = single.first().clone();
    let p_single = DomainGuidedPolicy::all_to(single.clone(), x.clone());
    let tn_single = TransducerNetwork {
        transducer,
        policy: &p_single,
        config,
    };
    let dist_single = distribute(&p_single, input);
    let mut cfg_single = Configuration::start(&single);

    // Two-node network {x, y} with J at y (x keeps exactly I).
    let double = Network::from_nodes([x.clone(), calm_common::value::Value::str("n2")]);
    let y = calm_common::value::Value::str("n2");
    let base: Arc<dyn DistributionPolicy> =
        Arc::new(DomainGuidedPolicy::all_to(double.clone(), x.clone()));
    let p_double = OverridePolicy::new(base, extension.facts(), [y]);
    let tn_double = TransducerNetwork {
        transducer,
        policy: &p_double,
        config,
    };
    let dist_double = distribute(&p_double, &input.union(extension));
    let mut cfg_double = Configuration::start(&double);

    let mut m1 = Metrics::default();
    let mut m2 = Metrics::default();
    for _ in 0..steps {
        transition(
            &tn_single,
            &dist_single,
            &mut cfg_single,
            &x,
            Delivery::None,
            &mut m1,
        );
        transition(
            &tn_double,
            &dist_double,
            &mut cfg_double,
            &x,
            Delivery::None,
            &mut m2,
        );
        if cfg_single.state[&x] != cfg_double.state[&x] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::generator::{chain_game, cycle_game, edge, path};
    use calm_common::{fact, is_domain_disjoint, is_domain_distinct};
    use calm_queries::tc::edges_without_source_loop;
    use calm_queries::winmove::win_move;
    use calm_transducer::{expected_output, DisjointStrategy, DistinctStrategy};

    #[test]
    fn theorem_4_3_replay_on_distinct_strategy() {
        let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
        let mut input = path(2);
        input.insert(fact("E", [1, 1]));
        // J domain-distinct from I: fresh-valued edges plus one touching
        // an old value.
        let j = Instance::from_facts([edge(2, 50), edge(50, 51)]);
        assert!(is_domain_distinct(&j, &input));
        let expected_qi = expected_output(t.query(), &input);
        let outcome =
            replay_policy_surgery(&t, SystemConfig::POLICY_AWARE, &input, &j, &expected_qi);
        assert!(outcome.heartbeats_p1.is_some());
        assert!(outcome.same_behaviour_under_p2, "x cannot tell I from I∪J");
        assert!(outcome.inclusion_holds, "Q(I) ⊆ Q(I ∪ J) derived");
        // And the fair-run output is exactly Q(I ∪ J).
        assert_eq!(
            outcome.output_union,
            expected_output(t.query(), &input.union(&j))
        );
    }

    #[test]
    fn theorem_4_4_replay_on_disjoint_strategy() {
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3);
        let j = cycle_game(100, 3);
        assert!(is_domain_disjoint(&j, &input));
        let expected_qi = expected_output(t.query(), &input);
        let outcome =
            replay_policy_surgery(&t, SystemConfig::POLICY_AWARE, &input, &j, &expected_qi);
        assert!(outcome.same_behaviour_under_p2);
        assert!(outcome.inclusion_holds);
    }

    #[test]
    fn theorem_4_5_no_all_indistinguishability() {
        let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
        let input = path(2);
        let j = Instance::from_facts([edge(60, 61)]);
        assert!(replay_no_all_indistinguishability(
            &t,
            SystemConfig::POLICY_AWARE_NO_ALL,
            &input,
            &j,
            4,
        ));
    }

    #[test]
    #[should_panic(expected = "All-free")]
    fn no_all_replay_requires_all_free_model() {
        let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
        let _ = replay_no_all_indistinguishability(
            &t,
            SystemConfig::POLICY_AWARE,
            &Instance::new(),
            &Instance::new(),
            1,
        );
    }
}
