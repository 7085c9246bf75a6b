//! Property tests for the Datalog crate: parser round-trips, engine
//! equivalence across optimization levels, stratification invariants.
//!
//! Deterministic seeded loops over the in-repo [`calm_common::rng::Rng`]:
//! every case is reproducible from the loop seed printed in the assert
//! message.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_datalog::ast::{Atom, Rule, Term};
use calm_datalog::eval::{eval_program, Engine, EvalMetrics, EvalOptions};
use calm_datalog::program::Program;
use calm_datalog::stratify::stratify;
use calm_datalog::{parse_program, parse_rule};

const CASES: u64 = 48;

/// The full model of `p` on `input` and each stratum's counters, by
/// `engine` at `threads` eval threads.
fn eval(
    p: &Program,
    input: &Instance,
    engine: Engine,
    threads: usize,
) -> (Instance, Vec<EvalMetrics>) {
    let options = EvalOptions::from(engine).with_eval_threads(threads);
    eval_program(p, input, options, &calm_obs::Obs::noop()).unwrap()
}

/// Random positive rule over a fixed schema {E(2), V(1)} with idb T(2),
/// S(1): choose a head and 1..3 body atoms over the head's variables.
fn rand_rule(r: &mut Rng) -> Rule {
    const VARS: [&str; 4] = ["x", "y", "z", "w"];
    let mut body = Vec::new();
    for _ in 0..r.gen_range(1..4usize) {
        if r.gen_bool(0.5) {
            let rel = *r.choose(&["E", "T"]).unwrap();
            let a = *r.choose(&VARS).unwrap();
            let b = *r.choose(&VARS).unwrap();
            body.push(Atom::new(rel, vec![Term::var(a), Term::var(b)]));
        } else {
            let rel = *r.choose(&["V", "S"]).unwrap();
            let a = *r.choose(&VARS).unwrap();
            body.push(Atom::new(rel, vec![Term::var(a)]));
        }
    }
    // Head variables drawn from the body to ensure safety.
    let mut body_vars: Vec<_> = body.iter().flat_map(|a| a.variables().cloned()).collect();
    body_vars.sort();
    body_vars.dedup();
    let head_rel = *r.choose(&["T", "S"]).unwrap();
    let arity = if head_rel == "T" { 2 } else { 1 };
    let head_terms: Vec<Term> = (0..arity)
        .map(|i| Term::Var(body_vars[i % body_vars.len()].clone()))
        .collect();
    Rule {
        head: Atom::new(head_rel, head_terms),
        pos: body,
        neg: vec![],
        ineq: vec![],
    }
}

fn rand_rules(r: &mut Rng, max: usize) -> Vec<Rule> {
    (0..r.gen_range(1..max)).map(|_| rand_rule(r)).collect()
}

fn small_instance(r: &mut Rng) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..8usize) {
        i.insert(fact("E", [r.gen_range(0..4i64), r.gen_range(0..4i64)]));
    }
    for _ in 0..r.gen_range(0..4usize) {
        i.insert(fact("V", [r.gen_range(0..4i64)]));
    }
    i
}

#[test]
fn rule_display_reparses_identically() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rule = rand_rule(&mut r);
        let text = rule.to_string();
        let reparsed = parse_rule(&text).unwrap();
        assert_eq!(rule, reparsed, "seed {seed}: {text}");
    }
}

#[test]
fn program_display_reparses() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        // Head/arity conflicts are impossible by construction.
        if let Ok(p) = Program::new(rand_rules(&mut r, 5)) {
            let text = p.to_string();
            let p2 = parse_program(&text).unwrap();
            assert_eq!(p.rules(), p2.rules(), "seed {seed}: {text}");
        }
    }
}

#[test]
fn engines_agree_on_random_programs() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_rules(&mut r, 5);
        let input = small_instance(&mut r);
        if let Ok(p) = Program::new(rules) {
            let (a, _) = eval(&p, &input, Engine::SemiNaive, 1);
            let (b, _) = eval(&p, &input, Engine::SemiNaiveBaseline, 1);
            let (c, _) = eval(&p, &input, Engine::Naive, 1);
            assert_eq!(a, b, "seed {seed}: optimized vs baseline\n{p}");
            assert_eq!(a, c, "seed {seed}: seminaive vs naive\n{p}");
        }
    }
}

/// Recursive shapes the delta rounds seed differently from the
/// left-linear closure: the delta atom last (right-linear), at both
/// positions (doubling), and with a repeated variable in the seeded
/// atom — alone and next to a second recursive atom.
const SEEDED_SHAPES: [&str; 5] = [
    "T(x,z) :- E(x,y), T(y,z).",
    "T(x,z) :- T(x,y), T(y,z).",
    "S(x) :- T(x,x), E(x,y).",
    "T(x,y) :- T(x,x), T(y,x), V(y).",
    "T(y,x) :- S(x), T(x,y), E(y,y).",
];

/// Random *stratified* program: a positive layer defining `T`/`S`
/// (as [`rand_rules`], plus a base rule and 1..3 of [`SEEDED_SHAPES`])
/// and 1..3 second-stratum rules `O(v) :- guard, not Idb(...)` whose
/// negated atom ranges over the first layer's idb. `O` never occurs in
/// a body, so the program is stratifiable by construction.
fn rand_stratified_rules(r: &mut Rng) -> Vec<Rule> {
    let mut rules = rand_rules(r, 4);
    rules.push(parse_rule("T(x,y) :- E(x,y).").unwrap());
    for _ in 0..r.gen_range(1..3usize) {
        rules.push(parse_rule(r.choose(&SEEDED_SHAPES).unwrap()).unwrap());
    }
    for _ in 0..r.gen_range(1..3usize) {
        let guard = if r.gen_bool(0.5) {
            Atom::new(
                *r.choose(&["E", "T"]).unwrap(),
                vec![Term::var("x"), Term::var("y")],
            )
        } else {
            Atom::new(*r.choose(&["V", "S"]).unwrap(), vec![Term::var("x")])
        };
        let guard_vars: Vec<_> = guard.variables().cloned().collect();
        let neg_rel = *r.choose(&["T", "S"]).unwrap();
        let neg_arity = if neg_rel == "T" { 2 } else { 1 };
        let neg_terms: Vec<Term> = (0..neg_arity)
            .map(|i| Term::Var(guard_vars[i % guard_vars.len()].clone()))
            .collect();
        rules.push(Rule {
            head: Atom::new("O", vec![Term::Var(guard_vars[0].clone())]),
            pos: vec![guard],
            neg: vec![Atom::new(neg_rel, neg_terms)],
            ineq: vec![],
        });
    }
    rules
}

/// Differential test across the three ways through the one kernel: the
/// indexed semi-naive engine (greedy paths, per-column hash indexes
/// maintained on insert), the unindexed baseline (body order, every
/// probe a scan), and naive re-derivation must produce identical
/// instances on random stratified programs — and the engine metrics
/// must show the baseline never touching an index while the optimized
/// path probes instead of scanning, with the order-independent counters
/// equal between the two.
#[test]
fn engines_agree_on_random_stratified_programs() {
    let mut optimized_probes = 0usize;
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_stratified_rules(&mut r);
        let input = small_instance(&mut r);
        if let Ok(p) = Program::new(rules) {
            let (a, sa) = eval(&p, &input, Engine::SemiNaive, 1);
            let (b, sb) = eval(&p, &input, Engine::SemiNaiveBaseline, 1);
            let (c, _) = eval(&p, &input, Engine::Naive, 1);
            assert_eq!(a, b, "seed {seed}: indexed vs baseline\n{p}");
            assert_eq!(a, c, "seed {seed}: semi-naive vs naive\n{p}");
            let baseline_probes: usize = sb.iter().map(|s| s.index_probes).sum();
            assert_eq!(
                baseline_probes, 0,
                "seed {seed}: baseline probed an index\n{p}"
            );
            optimized_probes += sa.iter().map(|s| s.index_probes).sum::<usize>();
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(
                    (x.iterations, x.derivations, x.new_facts, x.bytes_moved),
                    (y.iterations, y.derivations, y.new_facts, y.bytes_moved),
                    "seed {seed}: join order changed an order-independent counter\n{p}"
                );
            }
        }
    }
    assert!(
        optimized_probes > 0,
        "no random case exercised the incremental indexes"
    );
}

/// The data-parallel differential suite: on random stratified Datalog¬
/// programs the parallel driver must produce a byte-identical answer
/// AND byte-identical per-stratum [`EvalMetrics`] for T ∈ {2, 4} — for
/// both the indexed engine and the scan-only baseline (a body path that
/// starts with a probe stays whole either way).
///
/// [`EvalMetrics`]: calm_datalog::eval::EvalMetrics
#[test]
fn parallel_eval_is_byte_identical_to_sequential_on_random_programs() {
    let mut exercised = 0usize;
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_stratified_rules(&mut r);
        let input = small_instance(&mut r);
        let Ok(p) = Program::new(rules) else {
            continue;
        };
        for engine in [Engine::SemiNaive, Engine::SemiNaiveBaseline] {
            let (seq_out, seq_stats) = eval(&p, &input, engine, 1);
            for threads in [2, 4] {
                let (par_out, par_stats) = eval(&p, &input, engine, threads);
                assert_eq!(
                    seq_out, par_out,
                    "seed {seed} engine {engine:?} T={threads}: output diverged\n{p}"
                );
                assert_eq!(
                    seq_stats, par_stats,
                    "seed {seed} engine {engine:?} T={threads}: metrics diverged\n{p}"
                );
            }
        }
        exercised += 1;
    }
    assert!(exercised > 0, "no random case was evaluated");
}

#[test]
fn evaluation_is_inflationary_and_monotone_for_positive_programs() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_rules(&mut r, 4);
        let input = small_instance(&mut r);
        let extra = small_instance(&mut r);
        if let Ok(p) = Program::new(rules) {
            let (out1, _) = eval(&p, &input, Engine::SemiNaive, 1);
            // Inflationary: the input is contained in the model.
            assert!(input.is_subset(&out1), "seed {seed}\n{p}");
            // Monotone: positive programs only grow with more input.
            let (out2, _) = eval(&p, &input.union(&extra), Engine::SemiNaive, 1);
            assert!(out1.is_subset(&out2), "seed {seed}\n{p}");
        }
    }
}

#[test]
fn stratification_respects_constraints() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        if let Ok(p) = Program::new(rand_rules(&mut r, 5)) {
            let s = stratify(&p).unwrap();
            for rule in p.rules() {
                let head = s.stratum_of[&rule.head.relation];
                for a in &rule.pos {
                    if let Some(&b) = s.stratum_of.get(&a.relation) {
                        assert!(b <= head, "seed {seed}\n{p}");
                    }
                }
                for a in &rule.neg {
                    if let Some(&b) = s.stratum_of.get(&a.relation) {
                        assert!(b < head, "seed {seed}\n{p}");
                    }
                }
            }
        }
    }
}

#[test]
fn adom_rules_compute_active_domain() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let input = small_instance(&mut r);
        // Adom rules cover the program's edb (here just E); restrict the
        // comparison to the part of the input the program sees.
        let p = parse_program("T(x,y) :- E(x,y).").unwrap().with_adom();
        let visible = input.restrict(&p.edb());
        let (out, _) = eval(&p, &visible, Engine::SemiNaive, 1);
        let adom_vals: std::collections::BTreeSet<_> =
            out.tuples("Adom").map(|t| t[0].clone()).collect();
        assert_eq!(adom_vals, visible.adom(), "seed {seed}");
    }
}
