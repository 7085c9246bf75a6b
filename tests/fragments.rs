//! Integration test: the Datalog/wILOG fragment landscape of Section 5 /
//! Figure 2 — experiments E12, E14, E15 of DESIGN.md.

use calm::common::generator::{disjoint_triangles, path, triangle_from, InstanceRng};
use calm::common::{is_domain_disjoint, Instance};
use calm::datalog::fragment::{classify, is_semi_connected_program, semicon_split};
use calm::ilog::{classify_ilog, eval_ilog_query, is_weakly_safe, IlogProgram, Limits};
use calm::monotone::{check_pair, Exhaustive, ExtensionKind, Falsifier};
use calm::prelude::*;
use calm::queries::example51::{p1, p2};
use calm::queries::qtc_datalog;

// ---------- E12: Example 5.1 ----------

#[test]
fn e12_p1_is_connected_and_disjoint_monotone() {
    let q = p1();
    let report = classify(q.program());
    assert!(report.connected && report.semi_connected && !report.sp_datalog);
    // con-Datalog¬ ⊆ semicon-Datalog¬ ⊆ Mdisjoint (Theorem 5.3):
    assert!(Exhaustive::new(ExtensionKind::DomainDisjoint)
        .certify(&q)
        .is_none());
    // The paper's explicit ∉ Mdistinct witness.
    let i = Instance::from_facts([fact("E", [1, 2])]);
    let j = Instance::from_facts([fact("E", [2, 3]), fact("E", [3, 1])]);
    assert!(check_pair(&q, &i, &j).is_some());
}

#[test]
fn e12_p2_escapes_semicon_and_mdisjoint() {
    let q = p2();
    let report = classify(q.program());
    assert!(report.stratifiable && !report.semi_connected && !report.connected);
    // And the query it expresses is genuinely outside Mdisjoint:
    let i = triangle_from(0);
    let j = triangle_from(100);
    assert!(is_domain_disjoint(&j, &i));
    assert!(check_pair(&q, &i, &j).is_some());
}

// ---------- E14: semicon-Datalog¬ ⊆ Mdisjoint (Theorem 5.3) ----------

#[test]
fn e14_semicon_programs_are_disjoint_monotone() {
    // A battery of semi-connected programs; each must pass exhaustive and
    // randomized domain-disjoint certification.
    let programs = [
        ("qtc", calm::queries::qtc::QTC_SRC),
        (
            "sinks",
            "@output O.\nHasOut(x) :- E(x,y).\nAdom(x) :- E(x,y).\nAdom(y) :- E(x,y).\n\
             O(x) :- Adom(x), not HasOut(x).",
        ),
        (
            "unreached-pairs",
            "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- T(x,u), T(y,w), not T(x,y).",
        ),
        ("non-triangle-vertices", calm::queries::example51::P1_SRC),
    ];
    for (name, src) in programs {
        let q = DatalogQuery::parse(name, src).unwrap();
        assert!(
            is_semi_connected_program(q.program()),
            "{name} must be semicon"
        );
        assert!(
            Exhaustive::new(ExtensionKind::DomainDisjoint)
                .certify(&q)
                .is_none(),
            "{name}: exhaustive disjoint certification"
        );
        let f = Falsifier::new(ExtensionKind::DomainDisjoint)
            .with_trials(150)
            .falsify(&q, |r| InstanceRng::seeded(r.gen_u64()).gnp(4, 0.4));
        assert!(f.is_none(), "{name}: randomized disjoint certification");
    }
}

#[test]
fn e14_semicon_split_composition_equals_whole_program() {
    // Theorem 5.3's decomposition P = P_s ∘ P_{≤s−1}: evaluating the
    // connected prefix then the last stratum equals evaluating P.
    let q = qtc_datalog();
    let (prefix, suffix) = semicon_split(q.program()).expect("semicon");
    for input in [path(3), disjoint_triangles(0, 2)] {
        let eval = |p, input| {
            let options = calm::datalog::EvalOptions::default();
            calm::datalog::eval_program(p, input, options, &calm_obs::Obs::noop())
                .unwrap()
                .0
        };
        let whole = eval(q.program(), &input);
        let mid = eval(&prefix, &input);
        let composed = eval(&suffix, &mid);
        assert_eq!(
            whole.restrict(&q.program().output_schema()),
            composed.restrict(&q.program().output_schema())
        );
    }
}

// ---------- E15: wILOG¬ with value invention (Theorem 5.4 side) ----------

#[test]
fn e15_sp_wilog_programs_stay_in_mdistinct() {
    // An SP-wILOG program (invention + edb-negation only): Cabibbo's
    // capture says these are exactly E = Mdistinct; certify the easy
    // direction empirically.
    let src = "@output O.\n\
               Tok(*, x, y) :- E(x, y), not E(y, x).\n\
               O(x, y) :- Tok(t, x, y).";
    let p = IlogProgram::parse(src).unwrap();
    let report = classify_ilog(&p);
    assert!(report.is_sp_wilog());
    let q = calm::ilog::IlogQuery::new("one-way-edges", p).unwrap();
    assert!(Exhaustive::new(ExtensionKind::DomainDistinct)
        .certify(&q)
        .is_none());
    // And it is genuinely non-monotone (adding the reverse edge with old
    // values retracts output), placing it strictly between M and E.
    let i = Instance::from_facts([fact("E", [1, 2])]);
    let j = Instance::from_facts([fact("E", [2, 1])]);
    assert!(check_pair(&q, &i, &j).is_some());
}

#[test]
fn e15_semicon_wilog_program_in_mdisjoint() {
    // A semi-connected wILOG¬ program using invention in a connected
    // stratum and idb-negation in the last one.
    let src = "@output O.\n\
               Pair(*, x, y) :- E(x, y).\n\
               Linked(x) :- Pair(p, x, y).\n\
               Adom(x) :- E(x,y).\n\
               Adom(y) :- E(x,y).\n\
               O(x) :- Adom(x), not Linked(x).";
    let p = IlogProgram::parse(src).unwrap();
    let report = classify_ilog(&p);
    assert!(report.weakly_safe);
    assert!(report.is_semicon_wilog());
    let q = calm::ilog::IlogQuery::new("never-source", p).unwrap();
    assert!(Exhaustive::new(ExtensionKind::DomainDisjoint)
        .certify(&q)
        .is_none());
}

#[test]
fn e15_weak_safety_is_respected_at_runtime() {
    // Weakly safe programs never leak invented values; the runtime check
    // agrees with the static analysis across a program battery.
    let sources = [
        ("safe-pairs", "@output O.\nPair(*, x, y) :- E(x, y).\nO(x, y) :- Pair(p, x, y).", true),
        ("leaky", "@output R.\nR(*, x) :- E(x, x).", false),
        (
            "safe-linked",
            "@output O.\nPair(*, x, y) :- E(x, y).\nLinked(p, q) :- Pair(p, x, y), Pair(q, y, z).\nO(x) :- Pair(p, x, y).",
            true,
        ),
    ];
    // The leaky program only derives on self-loops — include one so the
    // dynamic check actually exercises the leak.
    let mut input = path(3);
    input.insert(fact("E", [1, 1]));
    for (name, src, expect_safe) in sources {
        let p = IlogProgram::parse(src).unwrap();
        assert_eq!(is_weakly_safe(&p), expect_safe, "{name}: static");
        let result = eval_ilog_query(&p, &input, Limits::default());
        assert_eq!(result.is_ok(), expect_safe, "{name}: dynamic");
    }
}

#[test]
fn e15_invention_distinguishes_isomorphic_contexts() {
    // The point of invention: one fresh witness per derivation context.
    // Count invented pair-ids across a path: one per edge.
    let src = "Pair(*, x, y) :- E(x, y).";
    let p = IlogProgram::parse(src).unwrap();
    let full = calm::ilog::eval_ilog(&p, &path(5), Limits::default()).unwrap();
    let ids: std::collections::BTreeSet<_> = full.tuples("Pair").map(|t| t[0].clone()).collect();
    assert_eq!(ids.len(), 5);
    assert!(ids.iter().all(calm::common::Value::is_invented));
}

// ---------- Figure 2 syntactic inclusions across a program battery ----------

#[test]
fn figure2_fragment_inclusions_hold_syntactically() {
    let battery = [
        calm::queries::tc::TC_SRC,
        calm::queries::qtc::QTC_SRC,
        calm::queries::example51::P1_SRC,
        calm::queries::example51::P2_SRC,
        "@output O.\nO(x,y) :- E(x,y), x != y.",
        "@output O.\nO(x,y) :- E(x,y), not E(y,x).",
    ];
    for src in battery {
        let q = DatalogQuery::parse("battery", src).unwrap();
        let r = classify(q.program());
        // Datalog ⊆ Datalog(≠) ⊆ SP-Datalog ⊆ semicon ⊆ stratifiable;
        // connected ⊆ semicon.
        if r.datalog {
            assert!(r.datalog_neq);
        }
        if r.datalog_neq {
            assert!(r.sp_datalog);
        }
        if r.sp_datalog {
            assert!(r.semi_connected, "SP ⊆ semicon fails on:\n{src}");
        }
        if r.connected {
            assert!(r.semi_connected);
        }
        if r.semi_connected {
            assert!(r.stratifiable);
        }
    }
}
