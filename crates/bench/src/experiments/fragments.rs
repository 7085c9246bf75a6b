//! Experiments E12–E15: Datalog/wILOG fragments (Section 5).

use crate::report::{markdown_table, Report};
use calm_common::generator::{triangle_from, InstanceRng};
use calm_common::query::Query;
use calm_common::{fact, is_domain_disjoint, Instance};
use calm_datalog::fragment::{classify, semicon_split};
use calm_datalog::DatalogQuery;
use calm_ilog::{classify_ilog, eval_ilog_query, is_weakly_safe, IlogProgram, Limits};
use calm_monotone::{
    check_distributes_over_components, check_pair, Exhaustive, ExtensionKind, Falsifier,
};
use calm_queries::example51::{p1, p2, P1_SRC, P2_SRC};
use calm_queries::qtc::QTC_SRC;

/// E12: Example 5.1 — `P1 ∈ con-Datalog¬ \ Mdistinct`, `P2` not
/// semi-connected (and not in `Mdisjoint`).
pub fn e12_example51() -> Report {
    let mut r = Report::new("E12", "Example 5.1 — the programs P1 and P2");
    let rep1 = classify(p1().program());
    r.claim(
        "P1 ∈ con-Datalog¬ (all rules connected)",
        format!("connected={}, sp={}", rep1.connected, rep1.sp_datalog),
        rep1.connected && !rep1.sp_datalog,
    );
    let q1 = p1();
    let i = Instance::from_facts([fact("E", [1, 2])]);
    let j = Instance::from_facts([fact("E", [2, 3]), fact("E", [3, 1])]);
    let witness = check_pair(&q1, &i, &j).is_some();
    r.claim(
        "P1({E(a,b)}) ≠ ∅ but P1(∪{E(b,c),E(c,a)}) = ∅ — P1 ∉ Mdistinct",
        "the paper's exact counterexample",
        witness && !q1.eval(&i).is_empty() && q1.eval(&i.union(&j)).is_empty(),
    );
    let disjoint_clean = Exhaustive::new(ExtensionKind::DomainDisjoint)
        .certify(&q1)
        .is_none();
    r.claim(
        "P1 ∈ Mdisjoint (Thm 5.3 on con ⊆ semicon)",
        "exhaustive certification",
        disjoint_clean,
    );

    let rep2 = classify(p2().program());
    r.claim(
        "P2 stratifiable but not semicon-Datalog¬",
        format!(
            "stratifiable={}, semicon={}",
            rep2.stratifiable, rep2.semi_connected
        ),
        rep2.stratifiable && !rep2.semi_connected,
    );
    let q2 = p2();
    let t0 = triangle_from(0);
    let t1 = triangle_from(100);
    let p2_breaks = is_domain_disjoint(&t1, &t0) && check_pair(&q2, &t0, &t1).is_some();
    r.claim(
        "P2's query ∉ Mdisjoint",
        "disjoint-triangle witness",
        p2_breaks,
    );
    r
}

/// E13: Lemma 5.2 — con-Datalog¬ queries distribute over components.
pub fn e13_components() -> Report {
    let mut r = Report::new(
        "E13",
        "Lemma 5.2 — con-Datalog¬ distributes over components",
    );
    let con_queries: Vec<(&str, DatalogQuery)> = vec![
        ("TC", calm_queries::tc::tc_datalog()),
        ("P1", p1()),
        (
            "self-reaching",
            DatalogQuery::parse(
                "self-reaching",
                "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nO(x) :- T(x,x).",
            )
            .unwrap(),
        ),
    ];
    let mut rng = calm_common::rng::Rng::seed_from_u64(13);
    for (name, q) in &con_queries {
        assert!(classify(q.program()).connected, "{name} must be connected");
        let mut ok = true;
        for _ in 0..60 {
            let a = InstanceRng::seeded(rng.gen_u64()).gnp(4, 0.4);
            let b = InstanceRng::seeded(rng.gen_u64())
                .gnp(4, 0.4)
                .map_values(|v| match v {
                    calm_common::value::Value::Int(k) => calm_common::v(k + 100),
                    other => other.clone(),
                });
            if check_distributes_over_components(q, &a.union(&b)).is_some() {
                ok = false;
            }
        }
        r.claim(
            format!("{name} distributes over components (Def. 5)"),
            "60 random multi-component instances",
            ok,
        );
    }
    // Contrast: Q_TC (semicon but NOT con) does not distribute.
    let qtc = calm_queries::qtc::qtc_datalog();
    let a = calm_common::generator::path_from(0, 2);
    let b = calm_common::generator::path_from(100, 2);
    let fails = check_distributes_over_components(&qtc, &a.union(&b)).is_some();
    r.claim(
        "contrast: Q_TC (unconnected last stratum) does NOT distribute",
        "cross-component O-facts",
        fails,
    );
    r
}

/// E14: Theorem 5.3 — semicon-Datalog¬ ⊆ Mdisjoint over a program
/// battery, plus the composition decomposition `P = P_s ∘ P_{≤s−1}`.
pub fn e14_semicon() -> Report {
    let mut r = Report::new("E14", "Theorem 5.3 — semicon-Datalog¬ ⊆ Mdisjoint");
    let battery = [
        ("Q_TC", QTC_SRC),
        ("P1", P1_SRC),
        (
            "sinks",
            "@output O.\nHasOut(x) :- E(x,y).\nAdom(x) :- E(x,y).\nAdom(y) :- E(x,y).\nO(x) :- Adom(x), not HasOut(x).",
        ),
        (
            "unreached-pairs",
            "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nO(x,y) :- T(x,u), T(y,w), not T(x,y).",
        ),
    ];
    let mut rows = Vec::new();
    for (name, src) in battery {
        let q = DatalogQuery::parse(name, src).unwrap();
        let rep = classify(q.program());
        let clean = Exhaustive::new(ExtensionKind::DomainDisjoint)
            .certify(&q)
            .is_none()
            && Falsifier::new(ExtensionKind::DomainDisjoint)
                .with_trials(120)
                .falsify(&q, |r| InstanceRng::seeded(r.gen_u64()).gnp(4, 0.4))
                .is_none();
        rows.push(vec![
            name.to_string(),
            rep.semi_connected.to_string(),
            if clean {
                "clean".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        r.claim(
            format!("{name} ∈ semicon-Datalog¬ and disjoint-monotone"),
            "exhaustive + randomized",
            rep.semi_connected && clean,
        );
    }
    r.table(markdown_table(
        &["program", "semicon?", "Mdisjoint check"],
        &rows,
    ));

    // Contrast row: P2 is not semicon and violates disjoint monotonicity.
    let q2 = DatalogQuery::parse("P2", P2_SRC).unwrap();
    let rep2 = classify(q2.program());
    let violated = check_pair(&q2, &triangle_from(0), &triangle_from(100)).is_some();
    r.claim(
        "contrast: P2 ∉ semicon and ∉ Mdisjoint",
        "witness found",
        !rep2.semi_connected && violated,
    );

    // Decomposition: evaluating prefix then suffix equals the whole.
    let q = calm_queries::qtc::qtc_datalog();
    let (prefix, suffix) = semicon_split(q.program()).expect("semicon");
    let input = calm_common::generator::path(3);
    let eval = |p, input| {
        let options = calm_datalog::EvalOptions::default();
        calm_datalog::eval_program(p, input, options, &calm_obs::Obs::noop())
            .unwrap()
            .0
    };
    let whole = eval(q.program(), &input);
    let composed = eval(&suffix, &eval(&prefix, &input));
    r.claim(
        "P = P_s ∘ P_{≤s−1} (the proof's composition)",
        "Q_TC on a path",
        whole.restrict(&q.program().output_schema())
            == composed.restrict(&q.program().output_schema()),
    );
    r
}

/// E15: Section 5.2 — wILOG¬ with value invention.
pub fn e15_wilog() -> Report {
    let mut r = Report::new("E15", "Section 5.2 / Theorem 5.4 — wILOG¬ and weak safety");
    // Weak safety static/dynamic agreement.
    let mut input = calm_common::generator::path(3);
    input.insert(fact("E", [1, 1]));
    let battery = [
        (
            "safe-pairs",
            "@output O.\nPair(*, x, y) :- E(x, y).\nO(x, y) :- Pair(p, x, y).",
            true,
        ),
        ("leaky", "@output R.\nR(*, x) :- E(x, x).", false),
    ];
    for (name, src, safe) in battery {
        let p = IlogProgram::parse(src).unwrap();
        let static_ok = is_weakly_safe(&p) == safe;
        let dynamic_ok = eval_ilog_query(&p, &input, Limits::default()).is_ok() == safe;
        r.claim(
            format!("{name}: weak safety static analysis = runtime behaviour"),
            format!("weakly_safe={safe}"),
            static_ok && dynamic_ok,
        );
    }
    // SP-wILOG ⊆ Mdistinct (Cabibbo's capture, easy direction).
    let sp = IlogProgram::parse(
        "@output O.\nTok(*, x, y) :- E(x, y), not E(y, x).\nO(x, y) :- Tok(t, x, y).",
    )
    .unwrap();
    let rep = classify_ilog(&sp);
    let q = calm_ilog::IlogQuery::new("one-way", sp).unwrap();
    let distinct_clean = Exhaustive::new(ExtensionKind::DomainDistinct)
        .certify(&q)
        .is_none();
    let not_monotone = Exhaustive::new(ExtensionKind::Any).certify(&q).is_some();
    r.claim(
        "SP-wILOG program ∈ Mdistinct \\ M",
        "invention + edb negation",
        rep.is_sp_wilog() && distinct_clean && not_monotone,
    );
    // semicon-wILOG¬ ⊆ Mdisjoint (Theorem 5.4, easy direction).
    let sc = IlogProgram::parse(
        "@output O.\nPair(*, x, y) :- E(x, y).\nLinked(x) :- Pair(p, x, y).\n\
         Adom(x) :- E(x,y).\nAdom(y) :- E(x,y).\nO(x) :- Adom(x), not Linked(x).",
    )
    .unwrap();
    let rep = classify_ilog(&sc);
    let q = calm_ilog::IlogQuery::new("never-source", sc).unwrap();
    let disjoint_clean = Exhaustive::new(ExtensionKind::DomainDisjoint)
        .certify(&q)
        .is_none();
    r.claim(
        "semicon-wILOG¬ program ∈ Mdisjoint",
        "exhaustive disjoint certification",
        rep.is_semicon_wilog() && disjoint_clean,
    );
    // Invention produces one fresh Herbrand value per context.
    let p = IlogProgram::parse("Pair(*, x, y) :- E(x, y).").unwrap();
    let full =
        calm_ilog::eval_ilog(&p, &calm_common::generator::path(5), Limits::default()).unwrap();
    let ids: std::collections::BTreeSet<_> = full.tuples("Pair").map(|t| t[0].clone()).collect();
    r.claim(
        "one invented Skolem value per derivation context",
        format!("{} distinct ids for 5 edges", ids.len()),
        ids.len() == 5 && ids.iter().all(calm_common::value::Value::is_invented),
    );
    r
}
