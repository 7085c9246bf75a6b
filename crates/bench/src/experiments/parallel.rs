//! Experiment E21: the data-parallel semi-naive fixpoint — sequential
//! vs partitioned rule evaluation (`--eval-threads`) on the three
//! headline queries.
//!
//! **Determinism** is on trial: at every thread count the derived
//! database and the per-stratum [`EvalMetrics`] must be *byte-identical*
//! to the sequential run (the partitioned driver replays the exact
//! sequential derivation order at the merge). What the partitioning
//! costs or buys in time is `datalog.eval.t2_overhead` in
//! BENCHMARK.json, measured where a fixpoint runs for most of a second.
//!
//! [`EvalMetrics`]: calm_common::storage::EvalMetrics

use crate::report::{markdown_table, Report};
use crate::workloads::{scaling_game, scaling_graph};
use calm_common::query::Query;
use calm_datalog::eval::{eval_program, EvalOptions};
use calm_datalog::parse_program;
use calm_obs::Obs;
use calm_queries::winmove::win_move;

const THREADS: [usize; 3] = [1, 2, 8];

/// E21: sequential vs data-parallel fixpoint evaluation; the fixpoint's
/// rule spans and partition counters (`eval.parallel`) go to `obs`.
pub fn e21_parallel(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E21",
        "data-parallel semi-naive fixpoint — determinism over eval threads",
    );
    let mut rows = Vec::new();
    let mut all_identical = true;
    // `same`: how this run compares with the T=1 run before it.
    let mut record = |label: &str, threads: usize, same: Option<bool>| {
        all_identical &= same.unwrap_or(true);
        rows.push(vec![
            label.to_string(),
            threads.to_string(),
            match same {
                None => "baseline",
                Some(true) => "identical",
                Some(false) => "DIVERGED",
            }
            .to_string(),
        ]);
    };

    // TC and Q_TC run through the stratified engine; win-move through
    // the well-founded alternating fixpoint (its inner loops inherit
    // the same partitioned driver).
    let tc = parse_program("@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
    let qtc = parse_program(
        "@output O.\nAdom(x) :- E(x,y).\nAdom(y) :- E(x,y).\n\
         T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
         O(x,y) :- Adom(x), Adom(y), not T(x,y).",
    )
    .unwrap();
    for (label, program, input) in [
        ("TC", &tc, scaling_graph(31, 160, 1.5)),
        ("Q_TC", &qtc, scaling_graph(33, 56, 1.5)),
    ] {
        let mut seq = None;
        for threads in THREADS {
            let _span = obs.span("bench", || format!("e21:{label} T={threads}"));
            let options = EvalOptions::default().with_eval_threads(threads);
            let run = eval_program(program, &input, options, obs).unwrap();
            record(label, threads, seq.as_ref().map(|s| run == *s));
            seq.get_or_insert(run);
        }
    }

    // win-move under the well-founded semantics.
    let game = scaling_game(35, 48, 3);
    let mut seq = None;
    for threads in THREADS {
        let _span = obs.span("bench", || format!("e21:win-move T={threads}"));
        let out = win_move().with_eval_threads(threads).eval(&game);
        record("win-move (WFS)", threads, seq.as_ref().map(|s| out == *s));
        seq.get_or_insert(out);
    }

    r.table(markdown_table(
        &["query", "eval threads", "vs sequential"],
        &rows,
    ));
    r.claim(
        "parallel evaluation is byte-identical to sequential at T ∈ {2,8}",
        "same derived database and per-stratum EvalMetrics on TC, Q_TC and win-move",
        all_identical,
    );
    r
}
