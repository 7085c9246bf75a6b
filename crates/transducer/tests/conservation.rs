//! Conservation invariants of the runtime's metrics: every message
//! occurrence ever enqueued is either delivered or still buffered, the
//! per-class breakdown always sums to `messages_sent`, and the per-node
//! high-water marks dominate every observed queue depth.

use calm_common::generator::path;
use calm_common::Instance;
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_spec::{final_config, transition, Configuration};
use calm_transducer::{
    distribute, run_with, Delivery, DisjointStrategy, DistinctStrategy, DistributionPolicy,
    DomainGuidedPolicy, HashPolicy, Metrics, MonotoneBroadcast, Network, RunReport, Scheduler,
    SystemConfig, Transducer, TransducerNetwork,
};

fn check_conservation(r: &RunReport, label: &str) {
    let m = &r.metrics;
    let config = final_config(r);
    assert_eq!(
        m.messages_sent,
        m.messages_delivered + config.buffered(),
        "{label}: sent = delivered + buffered must hold at quiescence"
    );
    assert_eq!(
        m.by_class.total(),
        m.messages_sent,
        "{label}: per-class counts must sum to messages_sent"
    );
    // High-water marks dominate the final depths.
    for (node, buf) in &config.buffer {
        let hw = m.buffered_high_water.get(node).copied().unwrap_or(0);
        assert!(
            hw >= buf.len(),
            "{label}: high-water {hw} < final depth {} at {node}",
            buf.len()
        );
    }
}

fn run_both_schedulers(
    t: &dyn Transducer,
    policy: &dyn DistributionPolicy,
    config: SystemConfig,
    input: &Instance,
    label: &str,
) -> RunReport {
    let tn = TransducerNetwork {
        transducer: t,
        policy,
        config,
    };
    let rr = run_with(&tn, input, &Scheduler::RoundRobin, 500_000, &Obs::noop());
    assert!(rr.quiescent, "{label}: round-robin run must quiesce");
    check_conservation(&rr, label);
    let rand = run_with(
        &tn,
        input,
        &Scheduler::random(23, 40),
        500_000,
        &Obs::noop(),
    );
    assert!(rand.quiescent, "{label}: random run must quiesce");
    check_conservation(&rand, label);
    rr
}

#[test]
fn monotone_broadcast_sends_only_fact_broadcasts() {
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let policy = HashPolicy::new(Network::of_size(3));
    let rr = run_both_schedulers(&t, &policy, SystemConfig::ORIGINAL, &path(5), "M");
    let by_class = rr.metrics.by_class;
    assert!(by_class.fact > 0, "M broadcasts input facts");
    assert_eq!(by_class.absence, 0, "M never sends absences");
    assert_eq!(by_class.coordination(), 0, "M is protocol-free");
    assert_eq!(by_class.other, 0);
    assert!(rr.metrics.max_queue_depth() > 0, "messages were buffered");
}

#[test]
fn distinct_strategy_adds_absence_broadcasts() {
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let policy = HashPolicy::new(Network::of_size(3));
    let rr = run_both_schedulers(
        &t,
        &policy,
        SystemConfig::POLICY_AWARE,
        &path(4),
        "Mdistinct",
    );
    let by_class = rr.metrics.by_class;
    assert!(by_class.fact > 0, "Mdistinct broadcasts facts");
    assert!(by_class.absence > 0, "Mdistinct broadcasts non-facts");
    assert_eq!(by_class.coordination(), 0, "no per-value protocol");
}

#[test]
fn disjoint_strategy_pays_the_request_ok_protocol() {
    let t = DisjointStrategy::new(Box::new(qtc_datalog()));
    let policy = DomainGuidedPolicy::new(Network::of_size(3));
    let rr = run_both_schedulers(
        &t,
        &policy,
        SystemConfig::POLICY_AWARE,
        &path(3),
        "Mdisjoint",
    );
    let by_class = rr.metrics.by_class;
    assert!(by_class.value > 0, "Mdisjoint broadcasts the active domain");
    assert!(by_class.request > 0, "Mdisjoint sends per-value requests");
    assert!(by_class.ok > 0, "Mdisjoint sends per-value OKs");
    assert!(by_class.coordination() > 0);
    assert_eq!(by_class.absence, 0, "no absence broadcasting");
}

#[test]
fn conservation_holds_after_every_single_transition() {
    // Step a network by hand and check the invariant mid-run, not just at
    // quiescence: an enqueued occurrence is either consumed by a delivery
    // or still sitting in some buffer.
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let net = Network::of_size(3);
    let policy = HashPolicy::new(net.clone());
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let input = path(4);
    let dist = distribute(&policy, &input);
    let mut config = Configuration::start(&net);
    let mut metrics = Metrics::default();
    let nodes: Vec<_> = net.nodes().cloned().collect();
    for step in 0..30 {
        let x = &nodes[step % nodes.len()];
        let delivery = match step % 3 {
            0 => Delivery::All,
            1 => Delivery::None,
            _ => Delivery::sample(step as u64),
        };
        transition(&tn, &dist, &mut config, x, delivery, &mut metrics);
        assert_eq!(
            metrics.messages_sent,
            metrics.messages_delivered + config.buffered(),
            "conservation violated after transition {step}"
        );
        assert_eq!(metrics.by_class.total(), metrics.messages_sent);
        for (node, buf) in &config.buffer {
            let hw = metrics.buffered_high_water.get(node).copied().unwrap_or(0);
            assert!(hw >= buf.len(), "high-water behind live depth at {node}");
        }
    }
}

#[test]
fn single_node_network_has_empty_class_counts() {
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let policy = HashPolicy::new(Network::of_size(1));
    let rr = run_both_schedulers(&t, &policy, SystemConfig::ORIGINAL, &path(3), "M/1");
    assert_eq!(rr.metrics.messages_sent, 0);
    assert_eq!(rr.metrics.by_class.total(), 0);
    assert_eq!(rr.metrics.max_queue_depth(), 0);
}
