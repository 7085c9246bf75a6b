//! Per-stratum evaluation counters, pinned: a three-stratum program
//! with negation and two recursive strata, evaluated at one and two
//! eval threads. The model and every field of every stratum's
//! `EvalMetrics` are compared with fixed values.

use calm_common::storage::EvalMetrics;
use calm_common::{fact, Instance};
use calm_datalog::parse_program;

/// `Adom` and `T` (stratum 0, `T` recursive), `U` (stratum 1, negating
/// `T`), `R` and `O` (stratum 2, `R` recursive and negating `U`).
const PROGRAM: &str = "@output O.\n\
    Adom(x) :- E(x,y).\n\
    Adom(y) :- E(x,y).\n\
    T(x,y) :- E(x,y).\n\
    T(x,z) :- T(x,y), E(y,z).\n\
    U(x) :- Adom(x), not T(x,x).\n\
    R(x,y) :- U(x), E(x,y).\n\
    R(x,z) :- R(x,y), E(y,z), not U(z).\n\
    O(x,y) :- R(x,y), x != y.";

/// A ring through `0..8` with two chords, a tail `8 → 9 → 10` into the
/// cycle `10 → 11 → 12 → 10`, a branch `9 → 13`, and a lone edge.
fn input() -> Instance {
    let ring = (0..8).map(|i| fact("E", [i, (i + 1) % 8]));
    let rest = [
        [0, 4],
        [5, 2],
        [3, 8],
        [8, 9],
        [9, 10],
        [10, 11],
        [11, 12],
        [12, 10],
        [9, 13],
        [20, 21],
    ]
    .map(|e| fact("E", e));
    Instance::from_facts(ring.chain(rest))
}

/// The full model and each stratum's counters.
fn run(threads: usize) -> (Instance, Vec<EvalMetrics>) {
    let p = parse_program(PROGRAM).unwrap();
    let options = calm_datalog::EvalOptions::default().with_eval_threads(threads);
    calm_datalog::eval_program(&p, &input(), options, &calm_obs::Obs::noop()).unwrap()
}

/// Every field, in declaration order: a field added to `EvalMetrics`
/// fails to compile here rather than go unpinned.
fn fields(m: &EvalMetrics) -> [usize; 8] {
    let EvalMetrics {
        iterations,
        derivations,
        new_facts,
        index_probes,
        index_hits,
        merge_probes,
        merge_hits,
        bytes_moved,
    } = *m;
    [
        iterations,
        derivations,
        new_facts,
        index_probes,
        index_hits,
        merge_probes,
        merge_hits,
        bytes_moved,
    ]
}

/// FNV-1a over the model's facts, one `fact.` line each, in the
/// instance's order.
fn digest(model: &Instance) -> u64 {
    model.facts().fold(0xcbf2_9ce4_8422_2325, |h, f| {
        format!("{f}.\n")
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// [`digest`] of the model every run derives.
const DIGEST: u64 = 0x0616_5b2a_e2b2_a57c;

#[test]
fn the_engine_pins_its_per_stratum_metrics_at_one_and_two_threads() {
    // [iterations, derivations, new_facts, index_probes, index_hits,
    //  merge_probes, merge_hits, bytes_moved] per stratum.
    let strata: [[usize; 8]; 3] = [
        [11, 207, 147, 131, 153, 0, 0, 1112],
        [2, 5, 5, 0, 0, 0, 0, 20],
        [6, 20, 18, 14, 12, 0, 0, 144],
    ];
    let outputs: Vec<String> = [
        "O(8,9)", "O(8,10)", "O(8,11)", "O(8,12)", "O(9,10)", "O(9,11)", "O(9,12)", "O(9,13)",
        "O(20,21)",
    ]
    .map(String::from)
    .into();
    let schema = parse_program(PROGRAM).unwrap().output_schema();
    for threads in [1, 2] {
        let (model, stats) = run(threads);
        let at = format!("at {threads} eval threads");
        assert_eq!(stats.iter().map(fields).collect::<Vec<_>>(), strata, "{at}");
        assert_eq!(model.len(), 188, "{at}");
        let lens = ["E", "Adom", "T", "U", "R", "O"].map(|r| model.relation_len(r));
        assert_eq!(lens, [18, 16, 131, 5, 9, 9], "{at}");
        let answer: Vec<String> = (model.restrict(&schema).facts())
            .map(|f| f.to_string())
            .collect();
        assert_eq!(answer, outputs, "{at}");
        assert_eq!(digest(&model), DIGEST, "{at}");
    }
}
