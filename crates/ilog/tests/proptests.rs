//! Property tests for ILOG¬: invention determinism, genericity of
//! invention-free programs, and safety-analysis/runtime agreement.
//!
//! Deterministic seeded loops over [`calm_common::rng::Rng`].

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_ilog::{eval_ilog, eval_ilog_query, is_weakly_safe, IlogProgram, Limits};

const CASES: u64 = 48;

fn edge_instance(r: &mut Rng) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..8usize) {
        i.insert(fact("E", [r.gen_range(0..5i64), r.gen_range(0..5i64)]));
    }
    i
}

#[test]
fn invention_is_deterministic() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        let p = IlogProgram::parse("Pair(*, x, y) :- E(x, y).").unwrap();
        let a = eval_ilog(&p, &i, Limits::default()).unwrap();
        let b = eval_ilog(&p, &i, Limits::default()).unwrap();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn one_invented_id_per_context() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        let p = IlogProgram::parse("Pair(*, x, y) :- E(x, y).").unwrap();
        let out = eval_ilog(&p, &i, Limits::default()).unwrap();
        assert_eq!(out.relation_len("Pair"), i.relation_len("E"), "seed {seed}");
        let ids: std::collections::BTreeSet<_> = out.tuples("Pair").map(|t| t[0].clone()).collect();
        assert_eq!(ids.len(), i.relation_len("E"), "seed {seed}");
    }
}

#[test]
fn weakly_safe_programs_never_leak() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        let sources = [
            "@output O.\nPair(*, x, y) :- E(x, y).\nO(x, y) :- Pair(p, x, y).",
            "@output O.\nTok(*, x) :- E(x, y).\nO(x) :- Tok(t, x).",
        ];
        for src in sources {
            let p = IlogProgram::parse(src).unwrap();
            assert!(is_weakly_safe(&p), "seed {seed}");
            let out = eval_ilog_query(&p, &i, Limits::default()).unwrap();
            for f in out.facts() {
                assert!(!f.has_invented_value(), "seed {seed}: {f}");
            }
        }
    }
}

#[test]
fn invention_free_ilog_equals_datalog() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        let src = "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";
        let p = IlogProgram::parse(src).unwrap();
        let via_ilog = eval_ilog_query(&p, &i, Limits::default()).unwrap();
        let q = calm_datalog::DatalogQuery::parse("tc", src).unwrap();
        let via_datalog = calm_common::query::Query::eval(&q, &i);
        assert_eq!(via_ilog, via_datalog, "seed {seed}");
    }
}

#[test]
fn genericity_of_invention_outputs() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let i = edge_instance(&mut r);
        let off = r.gen_range(1..50i64);
        // Weakly safe programs are generic on their (base-value) outputs.
        let p =
            IlogProgram::parse("@output O.\nPair(*, x, y) :- E(x, y).\nO(y, x) :- Pair(p, x, y).")
                .unwrap();
        let pi = move |val: &calm_common::Value| match val {
            calm_common::Value::Int(k) => calm_common::v(k + off),
            other => other.clone(),
        };
        let out1 = eval_ilog_query(&p, &i, Limits::default())
            .unwrap()
            .map_values(pi);
        let out2 = eval_ilog_query(&p, &i.map_values(pi), Limits::default()).unwrap();
        assert_eq!(out1, out2, "seed {seed}");
    }
}
