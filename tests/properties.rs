//! Property-based tests over the core data structures and the paper's
//! structural invariants: instances, components (Lemma 5.2 / experiment
//! E13), domain predicates, the Datalog engine, and the transducer
//! runtime's confluence.
//!
//! Deterministic seeded loops over [`calm::common::rng::Rng`].

use calm::common::component::{components, is_valid_component_decomposition};
use calm::common::generator::InstanceRng;
use calm::common::rng::Rng;
use calm::common::{
    fact, is_domain_disjoint, is_domain_distinct, is_induced_subinstance, v, Instance,
};
use calm::datalog::eval::{eval_program, EvalOptions};
use calm::datalog::parse_program;
use calm::monotone::check_distributes_over_components;
use calm::prelude::*;

const CASES: u64 = 64;

/// A small random edge instance.
fn edge_instance(r: &mut Rng, max_v: i64, max_e: usize) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..max_e) {
        i.insert(fact("E", [r.gen_range(0..max_v), r.gen_range(0..max_v)]));
    }
    i
}

/// Move-graph instances (no self-loops) for win-move properties.
fn move_instance(r: &mut Rng, max_v: i64, max_e: usize) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..max_e) {
        let (a, b) = (r.gen_range(0..max_v), r.gen_range(0..max_v));
        if a != b {
            i.insert(fact("move", [a, b]));
        }
    }
    i
}

// ---------- Instance algebra ----------

#[test]
fn union_is_commutative_and_idempotent() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 6, 10);
        let b = edge_instance(&mut r, 6, 10);
        assert_eq!(a.union(&b), b.union(&a), "seed {seed}");
        assert_eq!(a.union(&a), a, "seed {seed}");
        assert!(a.is_subset(&a.union(&b)), "seed {seed}");
    }
}

#[test]
fn difference_and_intersection_laws() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 6, 10);
        let b = edge_instance(&mut r, 6, 10);
        let d = a.difference(&b);
        let i = a.intersection(&b);
        assert_eq!(d.union(&i), a, "seed {seed}");
        assert!(d.intersection(&b).is_empty(), "seed {seed}");
        assert_eq!(d.len() + i.len(), a.len(), "seed {seed}");
    }
}

#[test]
fn adom_is_union_of_fact_adoms() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 8, 12);
        let mut expected = std::collections::BTreeSet::new();
        for f in a.facts() {
            expected.extend(f.values().cloned());
        }
        assert_eq!(a.adom(), expected, "seed {seed}");
    }
}

// ---------- Domain predicates ----------

#[test]
fn disjoint_implies_distinct() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 5, 8);
        let shift = r.gen_range(10..20i64);
        let b = a.map_values(|val| match val {
            calm::common::Value::Int(k) => v(k + shift + 10),
            other => other.clone(),
        });
        assert!(is_domain_disjoint(&b, &a), "seed {seed}");
        assert!(is_domain_distinct(&b, &a), "seed {seed}");
    }
}

#[test]
fn induced_subinstance_iff_complement_distinct() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 5, 10);
        let keep_mask = r.gen_u64();
        // Carve an induced subinstance by keeping a subset of values.
        let adom: Vec<_> = a.adom().into_iter().collect();
        let keep: std::collections::BTreeSet<_> = adom
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask >> (i % 64) & 1 == 1)
            .map(|(_, val)| val.clone())
            .collect();
        let j = Instance::from_facts(
            a.facts()
                .filter(|f| f.values().all(|val| keep.contains(val))),
        );
        assert!(is_induced_subinstance(&j, &a), "seed {seed}");
        assert!(is_domain_distinct(&a.difference(&j), &j), "seed {seed}");
    }
}

// ---------- Components (E13 substrate) ----------

#[test]
fn component_decomposition_is_valid() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 8, 14);
        let co = components(&a);
        assert!(is_valid_component_decomposition(&a, &co), "seed {seed}");
        let total: usize = co.iter().map(Instance::len).sum();
        assert_eq!(total, a.len(), "seed {seed}");
    }
}

#[test]
fn components_of_disjoint_union_are_concatenation() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 5, 8);
        let b = edge_instance(&mut r, 5, 8).map_values(|val| match val {
            calm::common::Value::Int(k) => v(k + 100),
            other => other.clone(),
        });
        let mut expected = components(&a);
        expected.extend(components(&b));
        expected.sort();
        assert_eq!(components(&a.union(&b)), expected, "seed {seed}");
    }
}

// ---------- Lemma 5.2 (E13): con-Datalog¬ distributes over components ----------

#[test]
fn connected_datalog_distributes_over_components() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 5, 8);
        let b = edge_instance(&mut r, 5, 8).map_values(|val| match val {
            calm::common::Value::Int(k) => v(k + 100),
            other => other.clone(),
        });
        let multi = a.union(&b);
        // TC is connected positive Datalog; P1 is con-Datalog¬ with
        // stratified negation.
        let tc = calm::queries::tc_datalog();
        assert!(
            check_distributes_over_components(&tc, &multi).is_none(),
            "seed {seed}"
        );
        let p1 = calm::queries::example51::p1();
        assert!(
            check_distributes_over_components(&p1, &multi).is_none(),
            "seed {seed}"
        );
    }
}

// ---------- Datalog engine invariants ----------

#[test]
fn seminaive_agrees_with_the_reference() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 6, 12);
        let p =
            parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nS(x) :- T(x,x).").unwrap();
        let options = EvalOptions::default();
        let (x, _) = eval_program(&p, &a, options, &calm_obs::Obs::noop()).unwrap();
        let (y, _) = calm::spec::reference::eval(&p, &a).unwrap();
        assert_eq!(x, y, "seed {seed}");
    }
}

#[test]
fn datalog_queries_are_generic() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 6, 10);
        let mult = r.gen_range(1..5i64);
        let off = r.gen_range(0..50i64);
        // Permute the domain with an injective affine map; evaluation
        // must commute with it.
        let q = calm::queries::qtc_datalog();
        let pi = |val: &calm::common::Value| match val {
            calm::common::Value::Int(k) => v(k * (mult * 2 + 1) + off),
            other => other.clone(),
        };
        let permuted = a.map_values(pi);
        assert_eq!(q.eval(&a).map_values(pi), q.eval(&permuted), "seed {seed}");
    }
}

#[test]
fn stratified_output_is_deterministic() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = edge_instance(&mut r, 6, 10);
        let q = calm::queries::qtc_datalog();
        assert_eq!(q.eval(&a), q.eval(&a), "seed {seed}");
    }
}

// ---------- Well-founded semantics invariants ----------

#[test]
fn wfs_true_subset_possible() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let g = move_instance(&mut r, 8, 12);
        let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
        let m = calm::datalog::well_founded_model(
            &p,
            &g,
            EvalOptions::default(),
            &calm_obs::Obs::noop(),
        );
        assert!(m.true_facts.is_subset(&m.possible_facts), "seed {seed}");
    }
}

#[test]
fn wfs_matches_native_game_solver() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let g = move_instance(&mut r, 8, 12);
        let wfs = calm::queries::win_move();
        let native = calm::queries::win_move_native();
        assert_eq!(wfs.eval(&g), native.eval(&g), "seed {seed}");
    }
}

// ---------- Transducer runtime confluence ----------

#[test]
fn monotone_network_confluent_across_schedules() {
    for seed in 0..30u64 {
        let input = InstanceRng::seeded(seed).gnp(5, 0.3);
        let t = MonotoneBroadcast::new(Box::new(calm::queries::tc_datalog()));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r = run(&tn, &input, &Scheduler::random(seed, 30), 100_000);
        assert!(r.quiescent, "seed {seed}");
        assert_eq!(r.output, expected, "seed {seed}");
    }
}
