//! `calm eval` (plain and `--updates`) and `calm wfs`.

use crate::obs::{build_obs, ObsOptions};
use crate::{err, load_facts, load_program, render_instance, render_plan, CliError};
use calm_common::query::Query;
use calm_datalog::eval::EvalOptions;
use calm_datalog::DatalogQuery;
use calm_obs::Obs;
use std::fmt::Write as _;

/// `calm eval`: stratified evaluation, output relations printed
/// fact-per-line, optionally writing trace artifacts and appending the
/// run report (`obs_opts`). Every stratum fixpoint runs with
/// `eval_threads` data-parallel workers (`--eval-threads N`; the answer
/// is byte-identical for any thread count).
pub fn cmd_eval_full(
    program_src: &str,
    facts_src: &str,
    obs_opts: &ObsOptions,
    eval_threads: usize,
) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let input = load_facts(facts_src)?;
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    let answer = calm_datalog::eval::eval_query_opts(&p, &input, &obs, eval_threads)
        .map_err(|e| err(format!("evaluation: {e}")))?;
    obs.finish();
    let mut out = String::new();
    if obs_opts.dump_plan {
        out.push_str(&render_plan(&p)?);
    }
    out.push_str(&render_instance(&answer));
    if let Some(r) = report {
        out.push_str(&r.render());
    }
    Ok(out)
}

/// `calm eval --updates FILE`: evaluate once, then fold each signed
/// update batch into the materialized answer by incremental
/// maintenance (DRed), printing the output relations after the initial
/// evaluation and after every batch.
///
/// With `from_scratch` (the `--from-scratch` flag), every batch instead
/// re-evaluates the updated EDB with the normal fixpoint — same output
/// format, no maintenance. Diffing the two modes' outputs is the
/// differential oracle the CI `incremental` job checks.
pub fn cmd_eval_updates(
    program_src: &str,
    facts_src: &str,
    updates_src: &str,
    from_scratch: bool,
    obs_opts: &ObsOptions,
    eval_threads: usize,
) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let q = DatalogQuery::new("eval", p)
        .map_err(|e| err(format!("program: {e}")))?
        .with_eval_threads(eval_threads);
    let mut edb = load_facts(facts_src)?;
    let batches =
        calm_datalog::parse_updates(updates_src).map_err(|e| err(format!("updates: {e}")))?;
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    let mut out = String::new();
    let _ = writeln!(out, "% initial");
    if from_scratch {
        out.push_str(&render_instance(&q.eval(&edb)));
        for (k, b) in batches.iter().enumerate() {
            b.apply_to_instance(&mut edb);
            let _ = writeln!(out, "% after batch {}", k + 1);
            out.push_str(&render_instance(&q.eval(&edb)));
        }
    } else {
        let mut session = q.open(&edb);
        out.push_str(&render_instance(&session.output()));
        for (k, b) in batches.iter().enumerate() {
            session.apply_obs(b, &obs);
            let _ = writeln!(out, "% after batch {}", k + 1);
            out.push_str(&render_instance(&session.output()));
        }
        // Summary only under --metrics: the plain output must stay
        // byte-diffable against the --from-scratch mode.
        if obs_opts.metrics {
            let s = session.stats();
            let _ = writeln!(
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
            );
        }
    }
    obs.finish();
    if let Some(r) = report {
        out.push_str(&r.render());
    }
    Ok(out)
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
    let input = load_facts(facts_src)?;
    let model = calm_datalog::well_founded_model_opts(
        &p,
        &input,
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
