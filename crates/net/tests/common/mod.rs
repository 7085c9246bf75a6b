//! What the seeded suites of this directory share: the seed offset, the
//! random input, the three strategy families and the process engine's
//! job for them. Each test binary uses a subset.
#![allow(dead_code)]

use calm_common::rng::Rng;
use calm_common::{fact, Instance};
use calm_net::{
    run_threaded_with, JobSpec, NetRunReport, Programs, ThreadedConfig, ThreadedNetwork,
};
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_transducer::{
    DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy, HashPolicy,
    MonotoneBroadcast, Network, SystemConfig, Transducer,
};

/// What `Programs::PerWorker` takes: a program factory each worker calls.
pub type Factory = dyn Fn() -> Box<dyn Transducer> + Sync;

/// The `Programs::PerWorker` factory of the strategy `make` builds:
/// every worker builds its own.
pub fn per_worker<T: Transducer + 'static>(
    make: fn() -> T,
) -> impl Fn() -> Box<dyn Transducer> + Sync {
    move || Box::new(make())
}

/// Base offset for the seed sweep, so CI can rerun the suites over
/// disjoint input spaces (`CALM_NET_SEED=1`, `2`, …).
pub fn seed_base() -> u64 {
    std::env::var("CALM_NET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A small random edge relation over `domain` values, `edges` tuples.
pub fn random_edges(seed: u64, domain: i64, edges: usize) -> Instance {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Instance::from_facts((0..edges).map(|_| {
        fact(
            "E",
            [
                rng.gen_range(0..domain as u64) as i64,
                rng.gen_range(0..domain as u64) as i64,
            ],
        )
    }))
}

/// Build one strategy family by name — the same resolution the CLI's
/// net-worker builder performs, minus the Datalog-source parsing (the
/// process suites close over the input instance instead).
pub fn family(
    strategy: &str,
    nodes: usize,
) -> (
    Box<dyn Transducer>,
    Box<dyn DistributionPolicy>,
    SystemConfig,
) {
    match strategy {
        "monotone" => (
            Box::new(MonotoneBroadcast::new(Box::new(tc_datalog()))),
            Box::new(HashPolicy::new(Network::of_size(nodes))),
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(Box::new(edges_without_source_loop()))),
            Box::new(HashPolicy::new(Network::of_size(nodes))),
            SystemConfig::POLICY_AWARE,
        ),
        "disjoint" => (
            Box::new(DisjointStrategy::new(Box::new(qtc_datalog()))),
            Box::new(DomainGuidedPolicy::new(Network::of_size(nodes))),
            SystemConfig::POLICY_AWARE,
        ),
        other => panic!("unknown strategy family {other}"),
    }
}

/// The job of a process-engine suite: the builder closes over the
/// input, so program and facts travel empty (the hand-off by value is
/// exercised end to end by the CLI tests).
pub fn spec_for(strategy: &str, nodes: usize, faults: Option<String>) -> JobSpec {
    JobSpec {
        program: String::new(),
        facts: String::new(),
        strategy: strategy.to_string(),
        nodes,
        eval_threads: 1,
        step_budget: 500_000,
        faults,
        trace_prefix: None,
        flight_path: None,
    }
}

/// A threaded run and its `out(R)`, united from its states once, under
/// the schema its programs declare.
pub fn threaded(
    tn: &ThreadedNetwork<'_>,
    input: &Instance,
    cfg: &ThreadedConfig,
) -> (Instance, NetRunReport) {
    let r = run_threaded_with(tn, input, cfg, &Obs::noop());
    let Programs::PerWorker(build) = tn.programs;
    (r.states.output(&build().schema().output), r)
}
