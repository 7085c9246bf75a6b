//! Stratified semantics: evaluate `P1, ..., Pk` in order (Section 2).

use super::database::Database;
use super::seminaive::{
    fixpoint_naive, fixpoint_seminaive_full, CompiledProgram, EvalMetrics, EvalOptions,
};
use crate::program::Program;
use crate::stratify::{stratify, NotStratifiable, Stratification};
use calm_common::instance::Instance;
use calm_obs::Obs;

/// Which fixpoint engine to use within each stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Semi-naive with join reordering and hash indexes (default).
    #[default]
    SemiNaive,
    /// Semi-naive without reordering or indexes (ablation baseline).
    SemiNaiveBaseline,
    /// Naive re-derivation (reference for differential tests and E18).
    Naive,
}

/// Evaluate a stratifiable Datalog¬ program on an input instance,
/// returning the full derived database as an instance (all relations —
/// restrict with [`Program::output_schema`] for the query answer).
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_program(p: &Program, input: &Instance) -> Result<Instance, NotStratifiable> {
    eval_program_with(p, input, Engine::SemiNaive).map(|(i, _)| i)
}

/// As [`eval_program`], with engine selection and per-stratum statistics.
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_program_with(
    p: &Program,
    input: &Instance,
    engine: Engine,
) -> Result<(Instance, Vec<EvalMetrics>), NotStratifiable> {
    let strat = stratify(p)?;
    let symbols = calm_common::storage::SharedSymbols::new();
    Ok(eval_stratification_opts(
        &strat,
        input,
        engine,
        symbols,
        &Obs::noop(),
        1,
    ))
}

/// Evaluate an existing stratification (avoids recomputing it per call),
/// interning into `symbols` — callers that evaluate the same program
/// many times reuse one table so rule constants and recurring domain
/// values are interned once. Reports per-stratum spans (and, through the
/// semi-naive engine, per-iteration/per-rule spans and derivation
/// counters) to `obs`, and runs `eval_threads` data-parallel workers
/// inside every semi-naive stratum fixpoint (`1` = sequential; the
/// output and per-stratum stats are byte-identical either way).
/// [`Engine::Naive`] ignores the knob.
pub fn eval_stratification_opts(
    strat: &Stratification,
    input: &Instance,
    engine: Engine,
    symbols: calm_common::storage::SharedSymbols,
    obs: &Obs,
    eval_threads: usize,
) -> (Instance, Vec<EvalMetrics>) {
    let mut db = Database::from_instance_with(input, symbols);
    let stats = run_strata(strat, &mut db, engine, obs, eval_threads);
    (db.to_instance(), stats)
}

/// Compile every stratum of `strat` against `symbols`; `None` for
/// [`Engine::Naive`], which evaluates the uncompiled rules.
pub(crate) fn precompile(
    strat: &Stratification,
    symbols: &calm_common::storage::SharedSymbols,
    engine: Engine,
) -> Option<Vec<CompiledProgram>> {
    let options = match engine {
        Engine::SemiNaive => EvalOptions::default(),
        Engine::SemiNaiveBaseline => EvalOptions::BASELINE,
        Engine::Naive => return None,
    };
    let mut table = symbols.write();
    Some(
        strat
            .strata
            .iter()
            .map(|stratum| CompiledProgram::new(stratum, &mut table, options))
            .collect(),
    )
}

/// Run every compiled stratum's fixpoint over `db`, lowest stratum
/// first: the one loop under evaluation, the query object's `eval` and
/// `open`, and the maintenance fallback. `spans` wraps each fixpoint in
/// an `eval/stratum#i` span — evaluation reports them; the fallback
/// (already inside a `maintenance_fallback#k` span) does not.
pub(crate) fn fixpoint_strata(
    strata: &[CompiledProgram],
    db: &mut Database,
    obs: &Obs,
    spans: bool,
) -> Vec<EvalMetrics> {
    let mut stats = Vec::with_capacity(strata.len());
    for (i, cp) in strata.iter().enumerate() {
        let _span = spans.then(|| obs.span("eval", || format!("stratum#{i}")));
        stats.push(fixpoint_seminaive_full(cp, db, None, obs));
    }
    stats
}

/// Run every stratum's fixpoint over an already loaded `db`; the caller
/// chooses what to export from the derived database.
fn run_strata(
    strat: &Stratification,
    db: &mut Database,
    engine: Engine,
    obs: &Obs,
    eval_threads: usize,
) -> Vec<EvalMetrics> {
    match precompile(strat, db.symbols(), engine) {
        Some(mut strata) => {
            for cp in &mut strata {
                cp.set_eval_threads(eval_threads);
            }
            fixpoint_strata(&strata, db, obs, true)
        }
        None => strat
            .strata
            .iter()
            .enumerate()
            .map(|(i, stratum)| {
                let _span = obs.span("eval", || format!("stratum#{i}"));
                fixpoint_naive(stratum, db)
            })
            .collect(),
    }
}

/// Render the per-stratum evaluation plan of a program — what the join
/// kernel will run: per rule one line for its round-0 body path and one
/// per delta seed (`R[delta]` first), every atom tagged with its access
/// (`probe@c` for a hash-index probe of column `c`, `lookup` for a
/// fully bound membership test, `scan` otherwise). The `--dump-plan`
/// surface of `calm eval` / `calm simulate`.
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn plan_report(p: &Program) -> Result<String, NotStratifiable> {
    let strat = stratify(p)?;
    let symbols = calm_common::storage::SharedSymbols::new();
    let mut out = String::new();
    for (i, stratum) in strat.strata.iter().enumerate() {
        let cp = CompiledProgram::new(stratum, &mut symbols.write(), EvalOptions::default());
        out.push_str(&format!("stratum {i}:\n"));
        for line in cp.plan_lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Evaluate and project onto the program's output schema — the query
/// answer `P(I)|σ'`.
///
/// ```
/// use calm_datalog::{parse_program, eval_query};
/// use calm_common::{fact, Instance};
///
/// let p = parse_program(
///     "@output T.\n\
///      T(x,y) :- E(x,y).\n\
///      T(x,z) :- T(x,y), E(y,z).",
/// ).unwrap();
/// let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
/// let answer = eval_query(&p, &input).unwrap();
/// assert!(answer.contains(&fact("T", [1, 3])));
/// assert_eq!(answer.len(), 3);
/// ```
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_query(p: &Program, input: &Instance) -> Result<Instance, NotStratifiable> {
    eval_query_opts(p, input, &Obs::noop(), 1)
}

/// As [`eval_query`], reporting spans and counters to `obs`, with
/// `eval_threads` data-parallel workers inside every stratum fixpoint
/// (the answer is identical for any thread count).
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_query_opts(
    p: &Program,
    input: &Instance,
    obs: &Obs,
    eval_threads: usize,
) -> Result<Instance, NotStratifiable> {
    let db = eval_database(p, Database::from_instance(input), obs, eval_threads)?;
    // Unintern only the answer: exporting the whole database and
    // restricting it afterwards would hold two copies of it.
    Ok(db.to_instance_restricted(&p.output_schema()))
}

/// Evaluate `p` over an already loaded database and hand the database
/// back with every derived relation in it — the evaluation under
/// [`eval_query_opts`] without its [`Instance`] on either side. The
/// caller reads the answer off the rows of the output relations
/// ([`Database::to_instance_restricted`], or
/// [`calm_common::storage::FactPrinter`] for text).
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_database(
    p: &Program,
    mut db: Database,
    obs: &Obs,
    eval_threads: usize,
) -> Result<Database, NotStratifiable> {
    let strat = stratify(p)?;
    run_strata(&strat, &mut db, Engine::SemiNaive, obs, eval_threads);
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use calm_common::fact::fact;
    use calm_common::generator::path;

    #[test]
    fn complement_of_tc() {
        let p = parse_program(
            "Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).\n\
             T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- Adom(x), Adom(y), not T(x,y).",
        )
        .unwrap();
        let input = path(2); // 0 -> 1 -> 2
        let out = eval_query(&p, &input).unwrap();
        // 9 pairs total, TC = {(0,1),(1,2),(0,2)}: complement has 6.
        assert_eq!(out.relation_len("O"), 6);
        assert!(out.contains(&fact("O", [2, 0])));
        assert!(out.contains(&fact("O", [0, 0])));
        assert!(!out.contains(&fact("O", [0, 2])));
        // Output projection dropped T and Adom.
        assert_eq!(out.relation_len("T"), 0);
    }

    #[test]
    fn eval_query_exports_exactly_the_restricted_database() {
        // Adom and T are derived but not output; E holds rows of two
        // arities, and so does the output relation's name in the input
        // (`O(7)` is not over the output schema's binary `O`).
        let p = parse_program(
            "@output O.\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).\n\
             T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- Adom(x), Adom(y), not T(x,y).",
        )
        .unwrap();
        let input = Instance::from_facts([
            fact("E", [1]),
            fact("E", [1, 2]),
            fact("E", [2, 3]),
            fact("E", [1, 2, 3]),
            fact("O", [7]),
        ]);
        let full = eval_program(&p, &input).unwrap();
        assert!(full.relation_len("T") > 0 && full.relation_len("Adom") > 0);
        assert!(full.contains(&fact("O", [7])) && full.contains(&fact("E", [1])));
        let answer = eval_query(&p, &input).unwrap();
        assert_eq!(answer, full.restrict(&p.output_schema()));
        assert_eq!(answer.relation_len("O"), 6);
        assert_eq!(answer.len(), 6, "nothing but binary O rows");
        assert_eq!(
            eval_query_opts(&p, &input, &Obs::noop(), 4).unwrap(),
            answer
        );
    }

    #[test]
    fn three_strata_compose() {
        let p = parse_program(
            "A(x) :- V(x), not W(x).\n\
             B(x) :- V(x), not A(x).\n\
             O(x) :- V(x), not B(x).",
        )
        .unwrap();
        let input = calm_common::instance::Instance::from_facts([
            fact("V", [1]),
            fact("V", [2]),
            fact("W", [1]),
        ]);
        let out = eval_query(&p, &input).unwrap();
        // 1: W(1) so not A(1); B(1); so O excludes 1.
        // 2: A(2); not B(2); O(2).
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [2])));
    }

    #[test]
    fn engines_agree_on_stratified_program() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x) :- T(x,x).",
        )
        .unwrap();
        let input = calm_common::generator::cycle(5);
        let (a, _) = eval_program_with(&p, &input, Engine::SemiNaive).unwrap();
        let (b, _) = eval_program_with(&p, &input, Engine::Naive).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.relation_len("O"), 5);
    }

    #[test]
    fn non_stratifiable_is_error() {
        let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
        assert!(eval_program(&p, &calm_common::instance::Instance::new()).is_err());
    }

    #[test]
    fn obs_instrumented_eval_matches_plain_eval() {
        let p = parse_program(
            "@output T.\n\
             T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        let input = path(4);
        let plain = eval_query(&p, &input).unwrap();
        let sink = std::sync::Arc::new(calm_obs::ReportSink::new());
        let obs = Obs::new(sink.clone());
        let traced = eval_query_opts(&p, &input, &obs, 1).unwrap();
        assert_eq!(plain, traced, "instrumentation must not change results");
        assert!(sink.counter_total("eval", "derivations") > 0);
        assert!(sink.counter_total("eval", "iterations") > 0);
        let report = sink.render();
        assert!(report.contains("eval/stratum#0"), "{report}");
        assert!(report.contains("eval.rule/T#0"), "{report}");
    }

    #[test]
    fn merged_stratum_stats_are_consistent_with_the_parts() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x) :- Adom(x), not T(x,x).\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).",
        )
        .unwrap();
        let (_, stats) = eval_program_with(&p, &path(4), Engine::SemiNaive).unwrap();
        let mut merged = EvalMetrics::default();
        for s in &stats {
            merged.merge(s);
        }
        assert_eq!(
            merged.derivations,
            stats.iter().map(|s| s.derivations).sum::<usize>()
        );
        assert_eq!(
            merged.new_facts,
            stats.iter().map(|s| s.new_facts).sum::<usize>()
        );
        assert_eq!(
            merged.iterations,
            stats.iter().map(|s| s.iterations).sum::<usize>()
        );
    }

    #[test]
    fn plan_report_lists_the_paths_the_kernel_runs() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- E(x,y), T(y,z).\n\
             O(x,y) :- T(x,y), F(z,y), T(y,x), not T(y,y).",
        )
        .unwrap();
        let plan = plan_report(&p).unwrap();
        assert!(plan.contains("stratum 0:"), "{plan}");
        assert!(plan.contains("stratum 1:"), "{plan}");
        // Round 0 walks the right-linear rule in body order; its delta
        // round seeds from T and probes E backwards.
        assert!(plan.contains("T#1: E[scan], T[probe@0]"), "{plan}");
        assert!(plan.contains("T#1: T[delta], E[probe@1]"), "{plan}");
        // A fully bound atom, a non-leading probe, and negation.
        assert!(
            plan.contains("O#0: T[scan], T[lookup], F[probe@1], not T[lookup]"),
            "{plan}"
        );
        // The single-atom base rule scans, and has no delta line.
        assert!(plan.contains("T#0: E[scan]\n"), "{plan}");
        assert_eq!(plan.matches("[delta]").count(), 1, "{plan}");
    }

    #[test]
    fn stats_reported_per_stratum() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x) :- Adom(x), not T(x,x).\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).",
        )
        .unwrap();
        let (_, stats) = eval_program_with(&p, &path(4), Engine::SemiNaive).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].new_facts > 0);
    }
}
