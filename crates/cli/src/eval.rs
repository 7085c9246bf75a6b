//! `calm eval` (plain and `--updates`) and `calm wfs`.

use crate::obs::{build_obs, ObsOptions};
use crate::{err, load_program, read_input, render_instance, render_plan, CliError, StreamError};
use calm_common::fact::Fact;
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_common::storage::FactPrinter;
use calm_common::update::UpdateBatch;
use calm_datalog::eval::{Database, EvalOptions};
use calm_datalog::DatalogQuery;
use calm_obs::Obs;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;

/// Run a writer-taking command into memory: the door the unit tests and
/// the benchmark's probes come through.
fn collect(
    run: impl FnOnce(&mut dyn io::Write) -> Result<(), StreamError>,
) -> Result<String, CliError> {
    let mut text = Vec::new();
    match run(&mut text) {
        Ok(()) => Ok(String::from_utf8(text).expect("commands print UTF-8")),
        Err(StreamError::Command(e)) => Err(e),
        Err(StreamError::Stdout(e)) => Err(err(format!("stdout: {e}"))),
    }
}

/// `calm eval`: stratified evaluation, output relations printed
/// fact-per-line, optionally writing trace artifacts and appending the
/// run report (`obs_opts`). Every stratum fixpoint runs with
/// `eval_threads` data-parallel workers (`--eval-threads N`; the answer
/// is byte-identical for any thread count). [`cmd_eval_full_to`]
/// collected into a `String`.
pub fn cmd_eval_full(
    program_src: &str,
    facts_src: &str,
    obs_opts: &ObsOptions,
    eval_threads: usize,
) -> Result<String, CliError> {
    collect(|out| cmd_eval_full_to(program_src, facts_src.into(), obs_opts, eval_threads, out))
}

/// [`cmd_eval_full`] writing to `out` as it goes: the facts are read
/// straight into the row store, evaluated there and printed from it
/// (DESIGN §18) — the answer is never held as an `Instance` or as
/// text. Each phase lets go of what it alone reads: an owned facts text
/// is dropped once read, and every relation outside the output schema
/// is freed before the print. Nothing is written unless the command
/// succeeds.
pub fn cmd_eval_full_to(
    program_src: &str,
    facts_src: Cow<'_, str>,
    obs_opts: &ObsOptions,
    eval_threads: usize,
    out: &mut dyn io::Write,
) -> Result<(), StreamError> {
    let p = load_program(program_src)?;
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    let mut db = Database::new();
    read_input(&p, &facts_src, &mut db, &obs)?;
    drop(facts_src);
    let options = EvalOptions::default().with_eval_threads(eval_threads);
    calm_datalog::eval_database(&p, &mut db, options, &obs)
        .map_err(|e| err(format!("evaluation: {e}")))?;
    let (output, symbols) = (p.output_schema(), db.symbols().clone());
    (db.storage_mut()).retain_relations(|r| output.contains(symbols.read().rel_name(r)));
    let plan = render_plan(&p, obs_opts.dump_plan)?;
    out.write_all(plan.as_bytes())?;
    FactPrinter::new(symbols).write(db.storage(), &output, out, &obs)?;
    obs.finish();
    if let Some(r) = report {
        out.write_all(r.render().as_bytes())?;
    }
    Ok(())
}

/// `calm eval --updates FILE`: evaluate once, then fold each signed
/// update batch into the materialized answer by incremental
/// maintenance, printing the output relations after the initial
/// evaluation and after every batch. [`cmd_eval_updates_to`] collected
/// into a `String`.
pub fn cmd_eval_updates(
    program_src: &str,
    facts_src: &str,
    updates_src: &str,
    from_scratch: bool,
    obs_opts: &ObsOptions,
    eval_threads: usize,
) -> Result<String, CliError> {
    collect(|out| {
        cmd_eval_updates_to(
            program_src,
            facts_src,
            updates_src,
            from_scratch,
            obs_opts,
            eval_threads,
            out,
        )
    })
}

/// [`cmd_eval_updates`] writing to `out` as it goes: every print is the
/// answer rows through one [`FactPrinter`] kept across the batches.
/// Nothing is written unless program, facts and updates all parse and
/// the program stratifies.
///
/// The incremental arm reads the input into a maintained session
/// ([`DatalogQuery::read_session`]) and folds every batch into it. With
/// `from_scratch` (the `--from-scratch` flag), every batch instead
/// updates the input rows, and `calm eval`'s fixpoint
/// ([`calm_datalog::eval_database`]) runs on a copy of them — same
/// output, no maintenance. Diffing the two modes' outputs is the
/// differential oracle the CI `incremental` job checks. Either mode
/// prints the `--dump-plan` plan first and reports every fixpoint it
/// runs — the initial one, and in `from_scratch` mode each
/// re-evaluation — to the run report.
pub fn cmd_eval_updates_to(
    program_src: &str,
    facts_src: &str,
    updates_src: &str,
    from_scratch: bool,
    obs_opts: &ObsOptions,
    eval_threads: usize,
    out: &mut dyn io::Write,
) -> Result<(), StreamError> {
    let p = load_program(program_src)?;
    let q = DatalogQuery::new("eval", p)
        .map_err(|e| err(format!("program: {e}")))?
        .with_eval_threads(eval_threads);
    let batches =
        calm_datalog::parse_updates(updates_src).map_err(|e| err(format!("updates: {e}")))?;
    let plan = render_plan(q.program(), obs_opts.dump_plan)?;
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    let answer = q.output_schema();
    let section = |out: &mut dyn io::Write, k: usize| match k {
        0 => writeln!(out, "% initial"),
        k => writeln!(out, "% after batch {k}"),
    };
    if from_scratch {
        let mut edb = Database::new();
        read_input(q.program(), facts_src, &mut edb, &obs)?;
        out.write_all(plan.as_bytes())?;
        let mut printer = FactPrinter::new(edb.symbols().clone());
        let options = EvalOptions::default().with_eval_threads(eval_threads);
        for k in 0..=batches.len() {
            if k > 0 {
                apply_to_rows(&batches[k - 1], q.input_schema(), &mut edb);
            }
            let mut db = edb.clone();
            calm_datalog::eval_database(q.program(), &mut db, options, &obs)
                .expect("the query's program stratifies");
            section(out, k)?;
            printer.write(db.storage(), answer, out, &obs)?;
        }
    } else {
        let session = q.read_session(facts_src, &obs);
        let mut session = session.map_err(|e| err(format!("facts: {e}")))?;
        out.write_all(plan.as_bytes())?;
        let mut printer = FactPrinter::new(session.database().symbols().clone());
        for k in 0..=batches.len() {
            if k > 0 {
                session.apply_obs(&batches[k - 1], &obs);
            }
            section(out, k)?;
            printer.write(session.database().storage(), answer, out, &obs)?;
        }
        // Summary only under --metrics: the plain output must stay
        // byte-diffable against the --from-scratch mode.
        if obs_opts.metrics {
            let s = session.stats();
            writeln!(
                out,
                "% maintenance: {} batches, +{} -{} edb, {} retractions, {} rederivations, {} insertions, {} derivations, {} fallbacks",
                batches.len(),
                s.edb_inserted,
                s.edb_deleted,
                s.retractions,
                s.rederivations,
                s.insertions,
                s.derivations,
                s.fallbacks
            )?;
        }
    }
    obs.finish();
    if let Some(r) = report {
        out.write_all(r.render().as_bytes())?;
    }
    Ok(())
}

/// Fold `batch` into the input rows `edb`, deletions first, as
/// [`UpdateBatch::apply_to_instance`] folds it into an instance — only
/// the facts of `input`, the input schema, as [`read_input`] reads them.
fn apply_to_rows(batch: &UpdateBatch, input: &Schema, edb: &mut Database) {
    let symbols = edb.symbols().clone();
    let (mut table, rows) = (symbols.write(), edb.storage_mut());
    let read = |f: &&Fact| input.arity(f.relation()) == Some(f.arity());
    let mut row = |f: &Fact| -> (_, Vec<_>) {
        (
            table.rel(f.relation()),
            f.args().iter().map(|v| table.sym(v)).collect(),
        )
    };
    for (r, row) in batch.delete.iter().filter(read).map(&mut row) {
        rows.retract(r, &row);
    }
    for (r, row) in batch.insert.iter().filter(read).map(&mut row) {
        rows.insert(r, &row);
    }
    rows.compact_retractions();
}

/// `calm wfs`: well-founded semantics; prints true facts and, when the
/// model is partial, the undefined facts. The alternating-fixpoint
/// inner loops run with `eval_threads` data-parallel workers
/// (`--eval-threads N`).
pub fn cmd_wfs(
    program_src: &str,
    facts_src: &str,
    eval_threads: usize,
) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let mut input = Database::new();
    read_input(&p, facts_src, &mut input, &Obs::noop())?;
    let options = EvalOptions::default().with_eval_threads(eval_threads);
    let model = calm_datalog::well_founded_model(&p, &input.to_instance(), options, &Obs::noop());
    let out_schema = p.output_schema();
    let mut out = String::new();
    let _ = writeln!(out, "% true");
    out.push_str(&render_instance(&model.true_facts.restrict(&out_schema)));
    let undef = model.undefined().restrict(&out_schema);
    if !undef.is_empty() {
        let _ = writeln!(out, "% undefined");
        out.push_str(&render_instance(&undef));
    }
    Ok(out)
}
