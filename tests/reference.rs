//! The engine against the reference evaluator
//! ([`calm::spec::reference`]): stratified Datalog¬ over a set of
//! facts, which shares nothing with the engine but the AST and the
//! parser. Every case compares the full model `I ∪ P(I)` of
//! `eval_program` — or a maintained session's answer — with the
//! reference's, on random programs, on every program in
//! `examples/data`, and through signed update batches.
//!
//! Deterministic seeded loops over [`calm::common::rng::Rng`]: every case
//! is reproducible from the seed printed in the assert message.

#[path = "../crates/datalog/tests/random_programs/mod.rs"]
mod random_programs;

use calm::common::generator::{cycle, path};
use calm::common::rng::Rng;
use calm::common::{fact, Instance};
use calm::datalog::eval::{eval_program, EvalMetrics, EvalOptions};
use calm::datalog::program::Program;
use calm::datalog::{parse_facts, parse_program, parse_rule, parse_updates, DatalogQuery};
use calm::prelude::{Query, UpdateBatch};
use calm::spec::reference;
use random_programs::{rand_rules, rand_stratified_rules, small_instance};
use std::path::Path;

const CASES: u64 = 48;

/// The engine's full model and each stratum's counters at `threads`
/// eval threads, or `None` where it refuses the program.
fn engine(p: &Program, input: &Instance, threads: usize) -> Option<(Instance, Vec<EvalMetrics>)> {
    let options = EvalOptions::default().with_eval_threads(threads);
    eval_program(p, input, options, &calm_obs::Obs::noop()).ok()
}

/// Assert that the engine computes the reference's model of `p` on
/// `input` at one and two eval threads; the reference's model and
/// valuation count.
fn assert_agrees(p: &Program, input: &Instance, at: &str) -> (Instance, usize) {
    let (model, valuations) = reference::eval(p, input).unwrap();
    for threads in [1, 2] {
        let (out, _) = engine(p, input, threads).expect("stratifiable");
        assert_eq!(
            out, model,
            "{at} T={threads}: the engine left the reference\n{p}"
        );
    }
    (model, valuations)
}

#[test]
fn seminaive_agrees_with_the_reference_on_random_programs() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_rules(&mut r, 5);
        let input = small_instance(&mut r);
        if let Ok(p) = Program::new(rules) {
            assert_agrees(&p, &input, &format!("seed {seed}"));
        }
    }
}

/// Random stratified programs: the recursive shapes the delta rounds
/// seed differently, and negation over the first layer's idb. The
/// engine must also have probed its indexes somewhere, or the suite
/// would not reach its planned paths.
#[test]
fn seminaive_agrees_with_the_reference_on_random_stratified_programs() {
    let mut probes = 0usize;
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_stratified_rules(&mut r);
        let input = small_instance(&mut r);
        if let Ok(p) = Program::new(rules) {
            assert_agrees(&p, &input, &format!("seed {seed}"));
            let (_, stats) = engine(&p, &input, 1).unwrap();
            probes += stats.iter().map(|s| s.index_probes).sum::<usize>();
        }
    }
    assert!(probes > 0, "no random case exercised the indexes");
}

#[test]
fn closure_on_small_paths_and_cycles_is_the_reference_model() {
    let tc = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
    for n in [0, 1, 2, 5, 9] {
        for input in [path(n), cycle(n.max(1))] {
            let (model, valuations) = assert_agrees(&tc, &input, &format!("n={n}"));
            let (out, stats) = engine(&tc, &input, 8).unwrap();
            assert_eq!(out, model, "n={n} T=8");
            // A linear rule's delta rounds enumerate a subset of the
            // naive rounds' valuations.
            assert!(stats[0].derivations <= valuations, "n={n}");
        }
    }
    // A path of 5 edges: 15 pairs, 5 + 4 + 3 + 2 + 1 derivations, and
    // six naive rounds of 5 base valuations and 0 + 4 + 7 + 9 + 10 + 10
    // recursive ones.
    let (out, valuations) = reference::eval(&tc, &path(5)).unwrap();
    assert_eq!((out.relation_len("T"), valuations), (15, 6 * 5 + 40));
    let (_, stats) = engine(&tc, &path(5), 1).unwrap();
    assert_eq!(stats[0].derivations, 15);
}

#[test]
fn stratified_closure_on_a_cycle_is_the_reference_model() {
    let p = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nO(x) :- T(x,x).").unwrap();
    let input = cycle(5);
    assert_agrees(&p, &input, "cycle(5)");
    assert_eq!(engine(&p, &input, 1).unwrap().0.relation_len("O"), 5);
}

const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");

fn data(name: &str) -> String {
    std::fs::read_to_string(Path::new(DATA).join(name)).unwrap()
}

/// Every `examples/data/*.dl` on both facts files: the two sides agree,
/// or both refuse the program (`winmove.dl` has a cycle through
/// negation).
#[test]
fn every_example_program_agrees_with_the_reference() {
    let mut programs: Vec<_> = (std::fs::read_dir(DATA).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dl"))
        .collect();
    programs.sort();
    let mut refused = Vec::new();
    for file in &programs {
        let p = parse_program(&std::fs::read_to_string(file).unwrap()).unwrap();
        for facts in ["graph.facts", "game.facts"] {
            let input = parse_facts(&data(facts)).unwrap();
            let at = format!("{} on {facts}", file.display());
            match reference::eval(&p, &input) {
                Ok(_) => {
                    assert_agrees(&p, &input, &at);
                }
                Err(_) => {
                    assert!(
                        engine(&p, &input, 1).is_none(),
                        "{at}: only the reference refused"
                    );
                    refused.push(file.file_name().unwrap().to_string_lossy().into_owned());
                }
            }
        }
    }
    assert!(programs.len() >= 4, "{programs:?}");
    assert_eq!(refused, ["winmove.dl", "winmove.dl"]);
}

/// The reference's answer to `q` on `input`: its model on the input
/// schema's facts, restricted to the output schema.
fn reference_answer(q: &DatalogQuery, input: &Instance) -> Instance {
    let edb = input.restrict(q.input_schema());
    let (model, _) = reference::eval(q.program(), &edb).unwrap();
    model.restrict(q.output_schema())
}

/// Every prefix of `graph.updates`, folded into a session opened on
/// `graph.facts`, for every stratifiable example program.
#[test]
fn every_prefix_of_graph_updates_agrees_with_the_reference() {
    let batches = parse_updates(&data("graph.updates")).unwrap();
    assert!(batches.len() >= 3);
    for name in ["tc.dl", "tc_right.dl", "qtc.dl"] {
        let q = DatalogQuery::parse(name, &data(name)).unwrap();
        let mut input = parse_facts(&data("graph.facts")).unwrap();
        let mut session = q.open(&input);
        assert_eq!(session.output(), reference_answer(&q, &input), "{name}");
        for (k, batch) in batches.iter().enumerate() {
            session.apply(batch);
            batch.apply_to_instance(&mut input);
            let want = reference_answer(&q, &input);
            assert_eq!(session.output(), want, "{name} after batch {k}");
        }
    }
}

/// A random signed batch over the generators' domain: deletions mostly
/// of present facts, insertions of fresh or present ones.
fn rand_batch(r: &mut Rng, current: &Instance) -> UpdateBatch {
    let mut b = UpdateBatch::default();
    let present: Vec<_> = current.facts().collect();
    let draw = |r: &mut Rng| {
        if r.gen_bool(0.6) {
            fact("E", [r.gen_range(0..4i64), r.gen_range(0..4i64)])
        } else {
            fact("V", [r.gen_range(0..4i64)])
        }
    };
    for _ in 0..r.gen_range(0..3usize) {
        let f = match r.gen_range(0..present.len() + 1) {
            i if i < present.len() && r.gen_bool(0.7) => present[i].clone(),
            _ => draw(r),
        };
        b.delete.push(f);
    }
    for _ in 0..r.gen_range(0..3usize) {
        b.insert.push(draw(r));
    }
    b
}

/// A random stratified program, with an inequality and a constant
/// added, under random signed batches: the maintained answer is the
/// reference's after every batch.
#[test]
fn a_session_under_random_signed_batches_agrees_with_the_reference() {
    let extra = ["O(x) :- E(x,y), not S(y), x != y.", "O(x) :- T(x, 2)."];
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let mut rules = rand_stratified_rules(&mut r);
        rules.extend(extra.map(|src| parse_rule(src).unwrap()));
        let Ok(p) = Program::new(rules) else {
            continue;
        };
        let mut input = small_instance(&mut r);
        let q = DatalogQuery::new(format!("case{seed}"), p).unwrap();
        let mut session = q.open(&input);
        for k in 0..4 {
            let batch = rand_batch(&mut r, &input);
            session.apply(&batch);
            batch.apply_to_instance(&mut input);
            let want = reference_answer(&q, &input);
            assert_eq!(
                session.output(),
                want,
                "seed {seed} batch {k}\n{}",
                q.program()
            );
        }
    }
}
