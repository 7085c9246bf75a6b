//! Stratified semantics: evaluate `P1, ..., Pk` in order (Section 2).

use super::database::Database;
use super::seminaive::{fixpoint, CompiledProgram, EvalMetrics, EvalOptions};
use crate::program::Program;
use crate::stratify::{stratify, NotStratifiable, Stratification};
use calm_common::instance::Instance;
use calm_common::storage::{Storage, SymbolTable};
use calm_obs::Obs;

/// Compile every stratum of `strat` against `table` with `options`.
pub(crate) fn precompile(
    strat: &Stratification,
    table: &mut SymbolTable,
    options: EvalOptions,
) -> Vec<CompiledProgram> {
    (strat.strata.iter())
        .map(|stratum| CompiledProgram::new(stratum, table, options))
        .collect()
}

/// Run every compiled stratum's fixpoint over `db`, lowest stratum
/// first: under evaluation, the query object's `eval`, `open` and
/// session cold start, and the maintenance fallback. `spans` wraps each fixpoint in
/// an `eval/stratum#i` span — evaluation reports them; the fallback
/// (already inside a `maintenance_fallback#k` span) does not.
pub(crate) fn fixpoint_strata(
    strata: &[CompiledProgram],
    db: &mut Storage,
    obs: &Obs,
    spans: bool,
) -> Vec<EvalMetrics> {
    let mut stats = Vec::with_capacity(strata.len());
    for (i, cp) in strata.iter().enumerate() {
        let _span = spans.then(|| obs.span("eval", || format!("stratum#{i}")));
        stats.push(fixpoint(cp, db, None, None, obs));
    }
    stats
}

/// Evaluate `p` over an already loaded database, every derived
/// relation added to it in place, and return each stratum's counters —
/// the evaluation without an [`Instance`] on either side, which `calm
/// eval` runs. The caller reads the answer off the rows of the output
/// relations ([`Database::to_instance_restricted`], or
/// [`calm_common::storage::FactPrinter`] for text). Each stratum runs
/// in an `eval/stratum#i` span with its per-iteration and per-rule
/// spans and derivation counters reported to `obs`.
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_database(
    p: &Program,
    db: &mut Database,
    options: EvalOptions,
    obs: &Obs,
) -> Result<Vec<EvalMetrics>, NotStratifiable> {
    let strata = precompile(&stratify(p)?, &mut db.symbols().write(), options);
    Ok(fixpoint_strata(&strata, db.storage_mut(), obs, true))
}

/// Evaluate a stratifiable Datalog¬ program on an input instance,
/// returning the full derived model (all relations — restrict with
/// [`Program::output_schema`] for the query answer `P(I)|σ'`) and each
/// stratum's counters. The output and the counters are the same at any
/// `options.eval_threads`.
///
/// ```
/// use calm_datalog::{parse_program, eval_program, EvalOptions};
/// use calm_common::{fact, Instance};
/// use calm_obs::Obs;
///
/// let p = parse_program(
///     "@output T.\n\
///      T(x,y) :- E(x,y).\n\
///      T(x,z) :- T(x,y), E(y,z).",
/// ).unwrap();
/// let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
/// let (model, stats) = eval_program(&p, &input, EvalOptions::default(), &Obs::noop()).unwrap();
/// assert!(model.contains(&fact("T", [1, 3])));
/// assert_eq!(model.restrict(&p.output_schema()).len(), 3);
/// assert_eq!(stats[0].new_facts, 3);
/// ```
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with a negative cycle.
pub fn eval_program(
    p: &Program,
    input: &Instance,
    options: EvalOptions,
    obs: &Obs,
) -> Result<(Instance, Vec<EvalMetrics>), NotStratifiable> {
    let mut db = Database::from_instance(input);
    let stats = eval_database(p, &mut db, options, obs)?;
    Ok((db.to_instance(), stats))
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
    let (mut table, options) = (SymbolTable::new(), EvalOptions::default());
    let strata = precompile(&stratify(p)?, &mut table, options);
    let mut out = String::new();
    for (i, cp) in strata.iter().enumerate() {
        out.push_str(&format!("stratum {i}:\n"));
        for line in cp.plan_lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use calm_common::fact::fact;
    use calm_common::generator::path;

    fn eval(p: &Program, input: &Instance) -> (Instance, Vec<EvalMetrics>) {
        eval_program(p, input, EvalOptions::default(), &Obs::noop()).unwrap()
    }

    /// The query answer `P(I)|σ'`.
    fn answer(p: &Program, input: &Instance) -> Instance {
        eval(p, input).0.restrict(&p.output_schema())
    }

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
        let out = answer(&p, &input);
        // 9 pairs total, TC = {(0,1),(1,2),(0,2)}: complement has 6.
        assert_eq!(out.relation_len("O"), 6);
        assert!(out.contains(&fact("O", [2, 0])));
        assert!(out.contains(&fact("O", [0, 0])));
        assert!(!out.contains(&fact("O", [0, 2])));
        // Output projection dropped T and Adom.
        assert_eq!(out.relation_len("T"), 0);
    }

    #[test]
    fn the_rows_door_exports_exactly_the_restricted_model() {
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
        let (full, stats) = eval(&p, &input);
        assert!(full.relation_len("T") > 0 && full.relation_len("Adom") > 0);
        assert!(full.contains(&fact("O", [7])) && full.contains(&fact("E", [1])));
        for threads in [1, 4] {
            let mut db = Database::from_instance(&input);
            let options = EvalOptions::default().with_eval_threads(threads);
            assert_eq!(
                eval_database(&p, &mut db, options, &Obs::noop()).unwrap(),
                stats
            );
            let answer = db.to_instance_restricted(&p.output_schema());
            assert_eq!(answer, full.restrict(&p.output_schema()));
            assert_eq!(answer.relation_len("O"), 6);
            assert_eq!(answer.len(), 6, "nothing but binary O rows");
        }
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
        let out = answer(&p, &input);
        // 1: W(1) so not A(1); B(1); so O excludes 1.
        // 2: A(2); not B(2); O(2).
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [2])));
    }

    #[test]
    fn non_stratifiable_is_error() {
        let p = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
        let (options, obs) = (EvalOptions::default(), Obs::noop());
        assert!(eval_program(&p, &Instance::new(), options, &obs).is_err());
        assert!(eval_database(&p, &mut Database::new(), options, &obs).is_err());
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
        let plain = answer(&p, &input);
        let sink = std::sync::Arc::new(calm_obs::ReportSink::new());
        let obs = Obs::new(sink.clone());
        let (traced, _) = eval_program(&p, &input, EvalOptions::default(), &obs).unwrap();
        let traced = traced.restrict(&p.output_schema());
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
        let (_, stats) = eval(&p, &path(4));
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
        let (_, stats) = eval(&p, &path(4));
        assert_eq!(stats.len(), 2);
        assert!(stats[0].new_facts > 0);
    }
}
