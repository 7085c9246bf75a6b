//! Property tests for the Datalog crate: parser round-trips, the
//! data-parallel driver against the sequential one, stratification
//! invariants. The engine against the reference evaluator is the root
//! `reference` suite, over the same generators.
//!
//! Deterministic seeded loops over the in-repo [`calm_common::rng::Rng`]:
//! every case is reproducible from the loop seed printed in the assert
//! message.

mod random_programs;

use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_datalog::eval::{eval_program, EvalMetrics, EvalOptions};
use calm_datalog::program::Program;
use calm_datalog::stratify::stratify;
use calm_datalog::{parse_program, parse_rule};
use random_programs::{rand_rule, rand_rules, rand_stratified_rules, small_instance};

const CASES: u64 = 48;

/// The full model of `p` on `input` and each stratum's counters at
/// `threads` eval threads.
fn eval(p: &Program, input: &Instance, threads: usize) -> (Instance, Vec<EvalMetrics>) {
    let options = EvalOptions::default().with_eval_threads(threads);
    eval_program(p, input, options, &calm_obs::Obs::noop()).unwrap()
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

/// The data-parallel differential suite: on random stratified Datalog¬
/// programs the parallel driver must produce a byte-identical answer
/// AND byte-identical per-stratum [`EvalMetrics`] for T ∈ {2, 4} (a
/// body path that starts with a probe stays whole).
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
        let (seq_out, seq_stats) = eval(&p, &input, 1);
        for threads in [2, 4] {
            let (par_out, par_stats) = eval(&p, &input, threads);
            assert_eq!(
                seq_out, par_out,
                "seed {seed} T={threads}: output diverged\n{p}"
            );
            assert_eq!(
                seq_stats, par_stats,
                "seed {seed} T={threads}: metrics diverged\n{p}"
            );
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
            let (out1, _) = eval(&p, &input, 1);
            // Inflationary: the input is contained in the model.
            assert!(input.is_subset(&out1), "seed {seed}\n{p}");
            // Monotone: positive programs only grow with more input.
            let (out2, _) = eval(&p, &input.union(&extra), 1);
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
        let (out, _) = eval(&p, &visible, 1);
        let adom_vals: std::collections::BTreeSet<_> =
            out.tuples("Adom").map(|t| t[0].clone()).collect();
        assert_eq!(adom_vals, visible.adom(), "seed {seed}");
    }
}
