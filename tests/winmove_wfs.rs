//! Integration test: win-move under the well-founded semantics
//! (experiment E16) — WFS vs. backward induction vs. the doubled program,
//! and win-move's exact position in the monotonicity hierarchy.

use calm::common::generator::{chain_game, cycle_game, cycle_with_escape, mv, InstanceRng};
use calm::common::{is_domain_disjoint, Instance};
use calm::datalog::wellfounded::WellFoundedModel;
use calm::datalog::{parse_program, well_founded_model, EvalOptions, Program};
use calm::monotone::{check_pair, Exhaustive, ExtensionKind, Falsifier};
use calm::prelude::*;
use calm::queries::winmove::{win_move, win_move_native};
use calm::spec::doubled_program;

fn wfs(p: &Program, game: &Instance) -> WellFoundedModel {
    well_founded_model(p, game, EvalOptions::default(), &calm_obs::Obs::noop())
}

#[test]
fn wfs_equals_backward_induction_on_many_random_games() {
    let wfs = win_move();
    let oracle = win_move_native();
    for seed in 0..40u64 {
        let game = InstanceRng::seeded(seed).move_graph(14, 3);
        assert_eq!(wfs.eval(&game), oracle.eval(&game), "seed {seed}");
    }
}

#[test]
fn doubled_program_equals_alternating_fixpoint_on_random_games() {
    let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
    let d = doubled_program(&p);
    for seed in 0..25u64 {
        let game = InstanceRng::seeded(1000 + seed).move_graph(10, 3);
        let direct = wfs(&p, &game);
        let doubled = d.eval(&game);
        let out = p.output_schema();
        assert_eq!(
            direct.true_facts.restrict(&out),
            doubled.true_facts.restrict(&out),
            "seed {seed}: true facts"
        );
        assert_eq!(
            direct.undefined().restrict(&out),
            doubled.undefined().restrict(&out),
            "seed {seed}: undefined facts"
        );
    }
}

#[test]
fn three_valued_structure_of_classic_games() {
    let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
    // Chains are total; even cycles fully drawn; odd cycles fully drawn;
    // cycle-with-escape total.
    assert!(wfs(&p, &chain_game(0, 6)).is_total());
    assert!(wfs(&p, &cycle_with_escape(0)).is_total());
    for n in [2, 3, 4, 5] {
        let m = wfs(&p, &cycle_game(0, n));
        assert_eq!(m.undefined().relation_len("win"), n, "cycle of {n}");
    }
}

#[test]
fn win_move_is_not_domain_distinct_monotone() {
    // Exhaustive small-domain search over move-graphs finds the witness.
    let q = win_move();
    let violation = Exhaustive::new(ExtensionKind::DomainDistinct).certify(&q);
    assert!(violation.is_some(), "win-move ∉ Mdistinct");
    // Spot-check the paper-style witness too.
    let i = Instance::from_facts([mv(1, 2)]);
    let j = Instance::from_facts([mv(2, 3)]);
    assert!(check_pair(&q, &i, &j).is_some());
}

#[test]
fn win_move_is_domain_disjoint_monotone_empirically() {
    let q = win_move();
    // Exhaustive over the move schema.
    assert!(Exhaustive::new(ExtensionKind::DomainDisjoint)
        .certify(&q)
        .is_none());
    // Randomized with game-shaped bases.
    let f = Falsifier::new(ExtensionKind::DomainDisjoint)
        .with_trials(200)
        .falsify(&q, |r| InstanceRng::seeded(r.gen_u64()).move_graph(8, 2));
    assert!(f.is_none());
}

#[test]
fn win_move_distributes_over_components() {
    // The structural reason win-move ∈ Mdisjoint (via the connected
    // doubled program, Section 7): it distributes over components.
    use calm::monotone::check_distributes_over_components;
    for seed in 0..10u64 {
        let a = InstanceRng::seeded(seed).move_graph(6, 2);
        let b = InstanceRng::seeded(100 + seed)
            .move_graph(6, 2)
            .map_values(|v| match v {
                calm::common::Value::Int(k) => calm::common::v(k + 1000),
                other => other.clone(),
            });
        let multi = a.union(&b);
        assert!(
            check_distributes_over_components(&win_move(), &multi).is_none(),
            "seed {seed}"
        );
    }
}

#[test]
fn doubled_program_sides_are_semi_positive_and_connected() {
    // The doubled program of the (connected) win-move rule is itself
    // connected and each side is semi-positive — the ingredients of the
    // Section 7 argument that win-move stays in Mdisjoint.
    let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
    let d = doubled_program(&p);
    assert!(d.true_side.is_semi_positive());
    assert!(d.possible_side.is_semi_positive());
    for rule in d.true_side.rules().iter().chain(d.possible_side.rules()) {
        assert!(calm::datalog::is_rule_connected(rule));
    }
}

#[test]
fn disjoint_subgames_never_interact() {
    // End-to-end: solving the union of far-apart games equals the union
    // of the solutions.
    let q = win_move();
    let games = [chain_game(0, 5), cycle_game(100, 4), cycle_with_escape(200)];
    let mut union_input = Instance::new();
    let mut union_answer = Instance::new();
    for g in &games {
        for other in &games {
            if !std::ptr::eq(g, other) {
                assert!(is_domain_disjoint(g, other));
            }
        }
        union_input.extend(g.facts());
        union_answer.extend(q.eval(g).facts());
    }
    assert_eq!(q.eval(&union_input), union_answer);
}
