//! Experiment E16: win-move under the well-founded semantics — the
//! flagship non-monotone coordination-free query (Section 7 and [32]).

use crate::report::{markdown_table, Report};
use crate::workloads::scaling_game;
use calm_common::generator::{chain_game, cycle_game, mv};
use calm_common::query::Query;
use calm_common::{is_domain_distinct, Instance};
use calm_datalog::{parse_program, well_founded_model, EvalOptions};
use calm_monotone::{check_pair, Exhaustive, ExtensionKind, Falsifier};
use calm_obs::Obs;
use calm_queries::winmove::{win_move, win_move_native};
use calm_spec::doubled_program;

/// E16: win-move correctness, the doubled program, and class membership.
pub fn e16_winmove() -> Report {
    let mut r = Report::new(
        "E16",
        "win-move under WFS — Mdisjoint \\ Mdistinct (Section 7, [32])",
    );

    // WFS = backward induction on many random games.
    let wfs = win_move();
    let native = win_move_native();
    let mut agree = true;
    for seed in 0..30u64 {
        let g = scaling_game(seed, 12, 3);
        if wfs.eval(&g) != native.eval(&g) {
            agree = false;
        }
    }
    r.claim(
        "WFS true facts = classical backward induction",
        "30 random games, 12 positions",
        agree,
    );

    // Doubled program equivalence.
    let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
    let d = doubled_program(&p);
    let mut doubled_ok = true;
    for seed in 0..15u64 {
        let g = scaling_game(100 + seed, 10, 3);
        let direct = well_founded_model(&p, &g, EvalOptions::default(), &Obs::noop());
        let via = d.eval(&g);
        let out = p.output_schema();
        if direct.true_facts.restrict(&out) != via.true_facts.restrict(&out)
            || direct.undefined().restrict(&out) != via.undefined().restrict(&out)
        {
            doubled_ok = false;
        }
    }
    let connected = d
        .true_side
        .rules()
        .iter()
        .chain(d.possible_side.rules())
        .all(calm_datalog::is_rule_connected);
    r.claim(
        "doubled program ≡ alternating fixpoint, and both sides connected & semi-positive",
        "15 random games",
        doubled_ok
            && connected
            && d.true_side.is_semi_positive()
            && d.possible_side.is_semi_positive(),
    );

    // Class membership.
    let i = Instance::from_facts([mv(1, 2)]);
    let j = Instance::from_facts([mv(2, 3)]);
    let not_distinct = is_domain_distinct(&j, &i)
        && check_pair(&wfs, &i, &j).is_some()
        && Exhaustive::new(ExtensionKind::DomainDistinct)
            .certify(&wfs)
            .is_some();
    r.claim(
        "win-move ∉ Mdistinct",
        "paper-style single-move witness + exhaustive",
        not_distinct,
    );
    let disjoint_clean = Exhaustive::new(ExtensionKind::DomainDisjoint)
        .certify(&wfs)
        .is_none()
        && Falsifier::new(ExtensionKind::DomainDisjoint)
            .with_trials(150)
            .falsify(&wfs, |r| scaling_game(r.gen_u64(), 8, 2))
            .is_none();
    r.claim(
        "win-move ∈ Mdisjoint",
        "exhaustive + randomized certification",
        disjoint_clean,
    );

    // Three-valued structure table.
    let mut rows = Vec::new();
    for (name, game) in [
        ("chain of 6", chain_game(0, 6)),
        ("4-cycle", cycle_game(0, 4)),
        ("3-cycle", cycle_game(0, 3)),
        ("cycle+escape", calm_common::generator::cycle_with_escape(0)),
    ] {
        let m = well_founded_model(&p, &game, EvalOptions::default(), &Obs::noop());
        rows.push(vec![
            name.to_string(),
            m.true_facts.relation_len("win").to_string(),
            m.undefined().relation_len("win").to_string(),
            m.is_total().to_string(),
        ]);
    }
    r.table(markdown_table(
        &["game", "won", "drawn", "total model?"],
        &rows,
    ));
    r
}
