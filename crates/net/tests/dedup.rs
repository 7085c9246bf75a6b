//! Property tests (hand-rolled, seeded — the workspace is
//! dependency-free) for the reliability substrate's dedup and
//! accounting invariants, end to end through the threaded engine:
//!
//! * injected duplicates never change `Instance` state or
//!   `messages_sent` at the engine level (that duplicating any prefix of
//!   a wire stream never changes what one receiver delivers is a unit
//!   test of `reliable.rs`);
//! * the ack/retransmit counters reconcile per link:
//!   `attempts == delivered + suppressed + dropped + buffered`.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_net::{
    run_threaded, run_threaded_with, FaultPlan, Programs, ThreadedConfig, ThreadedNetwork,
};
use calm_obs::Obs;
use calm_queries::tc::tc_datalog;
use calm_transducer::{HashPolicy, MonotoneBroadcast, Network, SystemConfig, Transducer};

/// The broadcast strategy over `tc`: every worker builds its own.
fn tc_broadcast() -> Box<dyn Transducer> {
    Box::new(MonotoneBroadcast::new(Box::new(tc_datalog())))
}

#[test]
fn injected_duplicates_never_change_output_or_engine_sends() {
    // Duplication end to end: a duplication-only fault plan must
    // be invisible to the engine — identical output (Instance state)
    // and identical `messages_sent` — with the wire-level dedup
    // absorbing every extra copy.
    let policy = HashPolicy::new(Network::of_size(4));
    for seed in 0..10u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFACE);
        let input = Instance::from_facts((0..5).map(|_| {
            fact(
                "E",
                [(rng.gen_u64() % 6) as i64, (rng.gen_u64() % 6) as i64],
            )
        }));
        let mk = |plan: FaultPlan| {
            run_threaded(
                &ThreadedNetwork {
                    programs: Programs::PerWorker(&tc_broadcast),
                    policy: &policy,
                    config: SystemConfig::ORIGINAL,
                },
                &input,
                &ThreadedConfig::new(2).with_faults(plan),
            )
        };
        let clean = mk(FaultPlan::none(seed));
        let dup = mk(FaultPlan::uniform(seed, 0.0, 0.9));
        assert!(clean.quiescent && dup.quiescent, "seed {seed}");
        assert_eq!(
            dup.output, clean.output,
            "seed {seed}: output must not change"
        );
        assert_eq!(
            dup.metrics.messages_sent, clean.metrics.messages_sent,
            "seed {seed}: duplication is invisible to engine-level sends"
        );
        assert!(
            dup.faults.duplicates_injected > 0,
            "seed {seed}: the plan must actually inject duplicates"
        );
        assert_eq!(
            dup.faults.attempts,
            dup.faults.delivered_batches + dup.faults.duplicates_suppressed + dup.faults.dropped,
            "seed {seed}: every injected copy is delivered once or suppressed"
        );
    }
}

#[test]
fn link_counters_reconcile_under_random_fault_plans() {
    // Property: whatever the fault plan does, per-link wire accounting
    // balances — every attempt is delivered, suppressed, dropped, or
    // still buffered — and the global stats agree with the per-link
    // sums.
    let policy = HashPolicy::new(Network::of_size(4));
    for seed in 0..12u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xACC7);
        let input = Instance::from_facts((0..4).map(|_| {
            fact(
                "E",
                [(rng.gen_u64() % 5) as i64, (rng.gen_u64() % 5) as i64],
            )
        }));
        let drop_p = (rng.gen_u64() % 30) as f64 / 100.0;
        let dup_p = (rng.gen_u64() % 30) as f64 / 100.0;
        let mut plan = FaultPlan::uniform(seed, drop_p, dup_p);
        (plan.link.delay_p, plan.link.max_delay) = (0.2, 4);
        let r = run_threaded_with(
            &ThreadedNetwork {
                programs: Programs::PerWorker(&tc_broadcast),
                policy: &policy,
                config: SystemConfig::ORIGINAL,
            },
            &input,
            &ThreadedConfig::new(3).with_faults(plan),
            &Obs::noop(),
        );
        assert!(r.quiescent, "seed {seed} (drop {drop_p}, dup {dup_p})");
        let mut sums = (0u64, 0u64, 0u64, 0u64, 0u64);
        for ((src, dst), lc) in &r.link_counters {
            assert_eq!(
                lc.attempts,
                lc.delivered + lc.suppressed + lc.dropped + lc.buffered,
                "seed {seed}: link {src}->{dst} must reconcile"
            );
            sums.0 += lc.attempts;
            sums.1 += lc.delivered;
            sums.2 += lc.suppressed;
            sums.3 += lc.dropped;
            sums.4 += lc.buffered;
        }
        let f = &r.faults;
        assert_eq!(f.attempts, sums.0, "seed {seed}: global attempts");
        assert_eq!(f.delivered_batches, sums.1, "seed {seed}: global delivered");
        assert_eq!(
            f.duplicates_suppressed, sums.2,
            "seed {seed}: global suppressed"
        );
        assert_eq!(f.dropped, sums.3, "seed {seed}: global dropped");
        assert_eq!(sums.4, 0, "seed {seed}: quiescent run left wires buffered");
    }
}
