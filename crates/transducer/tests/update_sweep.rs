//! Transducer-level differential sweep for incremental maintenance:
//! every strategy family, run repeatedly from ONE transducer instance
//! while the input shrinks and grows through random [`UpdateBatch`]es,
//! must produce the same quiescent output as a freshly-built transducer
//! on the same input.
//!
//! The reused transducer is the interesting half: its per-node
//! `StepContext` scratch [`Database`] persists across transitions *and*
//! across runs, so every delivery over a shrunk instance exercises the
//! scratch database's diff-reload path (the `Instance::remove` /
//! scratch-database mismatch regression at the network level, not just
//! the single-step level).
//!
//! [`UpdateBatch`]: calm_common::update::UpdateBatch
//! [`Database`]: calm_datalog::eval::Database

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::update::UpdateBatch;
use calm_datalog::DatalogQuery;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_transducer::{
    run, DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy, HashPolicy,
    MonotoneBroadcast, Network, RunResult, Scheduler, SystemConfig, Transducer, TransducerNetwork,
};

const SEEDS: u64 = 5;
const ROUNDS: usize = 3;

fn random_edges(rng: &mut Rng, domain: i64, edges: usize) -> Instance {
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

/// A random signed batch over the `E` input relation; deletions are
/// drawn from the current input so they actually remove something.
fn rand_batch(rng: &mut Rng, current: &Instance, domain: i64) -> UpdateBatch {
    let mut b = UpdateBatch::default();
    let present: Vec<_> = current.facts().collect();
    for _ in 0..rng.gen_range(0..3usize) {
        if !present.is_empty() {
            b.delete
                .push(present[rng.gen_range(0..present.len() as u64) as usize].clone());
        }
    }
    for _ in 0..rng.gen_range(1..3usize) {
        b.insert.push(fact(
            "E",
            [
                rng.gen_range(0..domain as u64) as i64,
                rng.gen_range(0..domain as u64) as i64,
            ],
        ));
    }
    b
}

/// Same family builder as `parallel_eval.rs` (integration tests cannot
/// import each other).
fn family(
    name: &str,
) -> (
    Box<dyn Transducer>,
    Box<dyn DistributionPolicy>,
    SystemConfig,
) {
    let q = |q: DatalogQuery| Box::new(q);
    match name {
        "monotone" => (
            Box::new(MonotoneBroadcast::new(q(tc_datalog()))),
            Box::new(HashPolicy::new(Network::of_size(4))),
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(q(edges_without_source_loop()))),
            Box::new(HashPolicy::new(Network::of_size(3))),
            SystemConfig::POLICY_AWARE,
        ),
        "disjoint" => (
            Box::new(DisjointStrategy::new(q(qtc_datalog()))),
            Box::new(DomainGuidedPolicy::new(Network::of_size(3))),
            SystemConfig::POLICY_AWARE,
        ),
        other => panic!("unknown family {other}"),
    }
}

fn run_once(
    t: &dyn Transducer,
    policy: &dyn DistributionPolicy,
    config: SystemConfig,
    input: &Instance,
) -> RunResult {
    let tn = TransducerNetwork {
        transducer: t,
        policy,
        config,
    };
    run(&tn, input, &Scheduler::RoundRobin, 500_000)
}

#[test]
fn reused_transducers_survive_updates_between_runs() {
    for name in ["monotone", "distinct", "disjoint"] {
        for seed in 0..SEEDS {
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0xc0ffee) ^ 0x0b5e55ed);
            // The request/OK/ack protocol is per-value: keep domains small.
            let mut input = random_edges(&mut rng, 4, 3);
            let (reused, policy, config) = family(name);
            for round in 0..ROUNDS {
                let got = run_once(reused.as_ref(), policy.as_ref(), config, &input);
                let (fresh, fpolicy, fconfig) = family(name);
                let want = run_once(fresh.as_ref(), fpolicy.as_ref(), fconfig, &input);
                assert!(
                    got.quiescent && want.quiescent,
                    "{name} seed {seed} round {round}: both runs must quiesce"
                );
                assert_eq!(
                    got.output, want.output,
                    "{name} seed {seed} round {round}: reused transducer diverged from fresh"
                );
                // Evolve the input for the next round: some deliveries in
                // that run will hand the reused transducer instances that
                // no longer contain rows its scratch database still holds.
                rand_batch(&mut rng, &input, 4).apply_to_instance(&mut input);
            }
        }
    }
}
