//! Property tests for the transducer substrate: multiset laws, policy
//! totality and replication invariants, and the safety restriction on
//! system facts (Section 4.1.3: `policy_R` only over known values).
//!
//! Deterministic seeded loops over [`calm_common::rng::Rng`].

use calm_common::fact::{fact, Fact};
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::schema::Schema;
use calm_common::value::v;
use calm_spec::{system_facts, ReplicatedDomainPolicy};
use calm_transducer::{
    distribute, DistributionPolicy, DomainGuidedPolicy, HashPolicy, Multiset, Network, SystemConfig,
};

const CASES: u64 = 64;

fn edge_instance(r: &mut Rng) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..10usize) {
        i.insert(fact("E", [r.gen_range(0..6i64), r.gen_range(0..6i64)]));
    }
    i
}

fn small_vec(r: &mut Rng, max_val: i64, max_len: usize) -> Vec<i64> {
    (0..r.gen_range(0..max_len))
        .map(|_| r.gen_range(0..max_val))
        .collect()
}

// ---------- Multiset laws ----------

#[test]
fn multiset_counts_are_occurrences() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let items = small_vec(&mut r, 5, 20);
        let m: Multiset<i64> = items.iter().copied().collect();
        assert_eq!(m.len(), items.len(), "seed {seed}");
        for x in 0..5i64 {
            let occurrences = items.iter().filter(|&&y| y == x).count();
            assert_eq!(m.count(&x), occurrences, "seed {seed}");
        }
        assert_eq!(
            m.support().count(),
            (0..5).filter(|x| items.contains(x)).count()
        );
    }
}

// ---------- Policy invariants ----------

#[test]
fn distribution_covers_every_fact() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let i = edge_instance(&mut r);
        let n = r.gen_range(1..5usize);
        let policy = HashPolicy::new(Network::of_size(n));
        let dist = distribute(&policy, &i);
        // Every input fact is somewhere; nothing extra appears.
        let mut union = Instance::new();
        for part in dist.values() {
            union.extend(part.facts());
        }
        assert_eq!(union, i, "seed {seed}");
    }
}

#[test]
fn domain_guided_owner_holds_all_its_values_facts() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let i = edge_instance(&mut r);
        let n = r.gen_range(1..5usize);
        let policy = DomainGuidedPolicy::new(Network::of_size(n));
        let dist = distribute(&policy, &i);
        for f in i.facts() {
            for val in f.values() {
                for owner in policy.domain_assignment(val) {
                    assert!(
                        dist[&owner].contains(&f),
                        "seed {seed}: owner of {val} must hold {f}"
                    );
                }
            }
        }
    }
}

#[test]
fn replicated_policy_alpha_size() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let n = r.gen_range(2..6usize);
        let val = r.gen_range(0..100i64);
        let k = 2usize.min(n);
        let policy = ReplicatedDomainPolicy::new(Network::of_size(n), k);
        assert_eq!(policy.domain_assignment(&v(val)).len(), k, "seed {seed}");
    }
}

// ---------- System facts safety restriction ----------

#[test]
fn policy_relations_bounded_by_known_values() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        // The paper's safety restriction: policy_R tuples range only over
        // A = N ∪ adom(J).
        let net = Network::of_size(2);
        let policy = HashPolicy::new(net.clone());
        let schema = Schema::from_pairs([("E", 2)]);
        let x = net.first().clone();
        let s = system_facts(&x, &net, &schema, &policy, SystemConfig::POLICY_AWARE, &i);
        let mut allowed = i.adom();
        allowed.extend(net.nodes().cloned());
        for t in s.tuples("policy_E") {
            for val in t {
                assert!(allowed.contains(val), "seed {seed}: {val} outside A");
            }
        }
        // MyAdom is exactly A.
        let myadom: std::collections::BTreeSet<_> =
            s.tuples("MyAdom").map(|t| t[0].clone()).collect();
        assert_eq!(myadom, allowed, "seed {seed}");
    }
}

#[test]
fn policy_truthful_about_assignments() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        // Every policy_R(ā) shown to x really is assigned to x, and every
        // E-tuple over A assigned to x is shown.
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let schema = Schema::from_pairs([("E", 2)]);
        for x in net.nodes() {
            let s = system_facts(x, &net, &schema, &policy, SystemConfig::POLICY_AWARE, &i);
            for t in s.tuples("policy_E") {
                let f = Fact::new("E", t.clone());
                assert!(policy.assign(&f).contains(x), "seed {seed}");
            }
        }
    }
}
