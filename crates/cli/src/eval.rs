//! `calm eval` (plain and `--updates`) and `calm wfs`.

use crate::obs::{build_obs, ObsOptions};
use crate::{err, load_facts, load_program, render_instance, render_plan, CliError, StreamError};
use calm_common::query::Query;
use calm_common::storage::FactPrinter;
use calm_datalog::eval::{Database, EvalOptions};
use calm_datalog::DatalogQuery;
use calm_obs::Obs;
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
    collect(|out| cmd_eval_full_to(program_src, facts_src, obs_opts, eval_threads, out))
}

/// [`cmd_eval_full`] writing to `out` as it goes: the facts are read
/// straight into the row store, evaluated there and printed from it
/// (DESIGN §18) — the answer is never held as an `Instance` or as
/// text. Nothing is written unless the command succeeds.
pub fn cmd_eval_full_to(
    program_src: &str,
    facts_src: &str,
    obs_opts: &ObsOptions,
    eval_threads: usize,
    out: &mut dyn io::Write,
) -> Result<(), StreamError> {
    let p = load_program(program_src)?;
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    let mut db = Database::new();
    crate::read_input(&p, facts_src, &mut db, &obs)?;
    let options = EvalOptions::default().with_eval_threads(eval_threads);
    calm_datalog::eval_database(&p, &mut db, options, &obs)
        .map_err(|e| err(format!("evaluation: {e}")))?;
    let plan = if obs_opts.dump_plan {
        render_plan(&p)?
    } else {
        String::new()
    };
    out.write_all(plan.as_bytes())?;
    FactPrinter::new(db.symbols().clone()).write(db.storage(), &p.output_schema(), out, &obs)?;
    obs.finish();
    if let Some(r) = report {
        out.write_all(r.render().as_bytes())?;
    }
    Ok(())
}

/// `calm eval --updates FILE`: evaluate once, then fold each signed
/// update batch into the materialized answer by incremental
/// maintenance (DRed), printing the output relations after the initial
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
/// session's database through one [`FactPrinter`] kept across the
/// batches. Nothing is written unless program, facts and updates all
/// parse and the program stratifies.
///
/// With `from_scratch` (the `--from-scratch` flag), every batch instead
/// re-evaluates the updated EDB with the normal fixpoint and prints the
/// answer `Instance` — same output format, no maintenance, no arena
/// printer. Diffing the two modes' outputs is the differential oracle
/// the CI `incremental` job checks, for the maintenance and for the
/// printer alike. Either mode prints the `--dump-plan` plan first and
/// reports every fixpoint it runs — the initial one, and in
/// `from_scratch` mode each re-evaluation — to the run report.
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
    let mut edb = load_facts(facts_src)?;
    let batches =
        calm_datalog::parse_updates(updates_src).map_err(|e| err(format!("updates: {e}")))?;
    let plan = if obs_opts.dump_plan {
        render_plan(q.program())?
    } else {
        String::new()
    };
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    out.write_all(plan.as_bytes())?;
    writeln!(out, "% initial")?;
    if from_scratch {
        // The query answer `q.eval` would print, through the evaluation
        // door that reports to `obs`.
        let options = EvalOptions::default().with_eval_threads(eval_threads);
        let answer = |edb: &calm_common::Instance| {
            let input = edb.restrict(q.input_schema());
            let (model, _) = calm_datalog::eval_program(q.program(), &input, options, &obs)
                .expect("the query's program stratifies");
            render_instance(&model.restrict(q.output_schema()))
        };
        out.write_all(answer(&edb).as_bytes())?;
        for (k, b) in batches.iter().enumerate() {
            b.apply_to_instance(&mut edb);
            writeln!(out, "% after batch {}", k + 1)?;
            out.write_all(answer(&edb).as_bytes())?;
        }
    } else {
        let mut session = q.open_obs(&edb, &obs);
        let mut printer = FactPrinter::new(session.database().symbols().clone());
        let answer = q.output_schema();
        printer.write(session.database().storage(), answer, out, &obs)?;
        for (k, b) in batches.iter().enumerate() {
            session.apply_obs(b, &obs);
            writeln!(out, "% after batch {}", k + 1)?;
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
    crate::read_input(&p, facts_src, &mut input, &Obs::noop())?;
    let model = calm_datalog::well_founded_model(
        &p,
        &input.to_instance(),
        EvalOptions::default().with_eval_threads(eval_threads),
        &Obs::noop(),
    );
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
