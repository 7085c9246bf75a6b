//! Coordination-freeness (Definition 3) witnesses.
//!
//! A transducer is coordination-free when for every network and input
//! there is an "ideal" distribution policy under which some run computes
//! `Q(I)` in a prefix of **heartbeat transitions only** (no messages
//! read). This module runs exactly those prefixes.

use crate::semantics::{network_output, transition, Configuration};
use calm_common::instance::Instance;
use calm_transducer::{distribute, Delivery, Metrics, NodeId, TransducerNetwork};

/// Drive a heartbeat-only prefix at node `x` and report how many
/// heartbeats it takes until the network output equals `expected`
/// (`Q(I)`), or `None` if `max_heartbeats` is reached first.
///
/// Per Definition 3, a `Some(_)` result under some policy for each
/// network/input is the coordination-freeness witness; the caller picks
/// the policy (typically [`calm_transducer::DomainGuidedPolicy::all_to`]).
pub fn heartbeat_witness(
    tn: &TransducerNetwork<'_>,
    input: &Instance,
    x: &NodeId,
    expected: &Instance,
    max_heartbeats: usize,
) -> Option<usize> {
    let dist = distribute(tn.policy, input);
    let mut config = Configuration::start(tn.policy.network());
    let mut metrics = Metrics::default();
    for step in 1..=max_heartbeats {
        transition(tn, &dist, &mut config, x, Delivery::None, &mut metrics);
        if network_output(&config.state, &tn.transducer.schema().output) == *expected {
            return Some(step);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::generator::path;
    use calm_common::value::Value;
    use calm_queries::tc::tc_datalog;
    use calm_transducer::{
        expected_output, DomainGuidedPolicy, MonotoneBroadcast, Network, SystemConfig,
    };

    /// The stronger diagnostic: check that the heartbeat
    /// prefix *never* overshoots (output stays within `expected`)
    /// and eventually reaches it. Returns `(heartbeats, overshoot)`.
    fn heartbeat_profile(
        tn: &TransducerNetwork<'_>,
        input: &Instance,
        x: &NodeId,
        expected: &Instance,
        max_heartbeats: usize,
    ) -> (Option<usize>, bool) {
        let dist = distribute(tn.policy, input);
        let mut config = Configuration::start(tn.policy.network());
        let mut metrics = Metrics::default();
        let mut overshoot = false;
        for step in 1..=max_heartbeats {
            transition(tn, &dist, &mut config, x, Delivery::None, &mut metrics);
            let out = network_output(&config.state, &tn.transducer.schema().output);
            if !out.is_subset(expected) {
                overshoot = true;
            }
            if out == *expected {
                return (Some(step), overshoot);
            }
        }
        (None, overshoot)
    }

    #[test]
    fn monotone_strategy_witnesses_on_ideal_policy() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let input = path(4);
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(4);
        let x = Value::str("n3");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let steps = heartbeat_witness(&tn, &input, &x, &expected, 5).expect("witness");
        assert_eq!(steps, 1, "one heartbeat suffices with all data local");
    }

    #[test]
    fn wrong_node_cannot_witness() {
        // With all data at n3, heartbeats at n1 produce nothing.
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let input = path(4);
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(4);
        let policy = DomainGuidedPolicy::all_to(net, Value::str("n3"));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        assert!(heartbeat_witness(&tn, &input, &Value::str("n1"), &expected, 5).is_none());
    }

    #[test]
    fn profile_reports_no_overshoot_for_monotone() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let input = path(3);
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(2);
        let x = Value::str("n1");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let (steps, overshoot) = heartbeat_profile(&tn, &input, &x, &expected, 5);
        assert!(steps.is_some());
        assert!(!overshoot);
    }
}
