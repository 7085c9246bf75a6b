//! # calm-cli
//!
//! The `calm` command-line tool: a front end over the workspace for
//! people who want to *use* the system rather than link against it.
//!
//! ```text
//! calm eval      PROGRAM.dl FACTS.dl          # stratified evaluation
//! calm wfs       PROGRAM.dl FACTS.dl          # well-founded semantics
//! calm classify  PROGRAM.dl                   # Figure-2 fragment report
//! calm stratify  PROGRAM.dl                   # show the stratification
//! calm check     PROGRAM.dl [--class KIND]    # monotonicity falsify/certify
//! calm simulate  PROGRAM.dl FACTS.dl [--nodes N] [--strategy S]
//! ```
//!
//! All commands read the Datalog syntax documented in
//! [`calm_datalog::parser`], a facts file as the program's input: the
//! facts of `edb(P)`, read into rows by one reader. The library half of
//! this crate holds the command implementations so they can be
//! unit-tested without spawning processes.

#![warn(missing_docs)]

mod eval;
mod obs;
mod simulate;
mod usage;

pub use eval::{cmd_eval_full, cmd_eval_full_to, cmd_eval_updates, cmd_eval_updates_to, cmd_wfs};
pub use obs::ObsOptions;
pub use simulate::{cmd_net_worker, cmd_simulate_run, parse_engine, Engine};
pub use usage::USAGE;

use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_datalog::eval::Database;
use calm_datalog::fragment::classify;
use calm_datalog::{parse_program, DatalogQuery, Program};
use calm_monotone::{Exhaustive, ExtensionKind, Falsifier};
use calm_obs::Obs;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A CLI failure: message for stderr, nonzero exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Why a command that writes its output as it goes stopped early.
#[derive(Debug)]
pub enum StreamError {
    /// The command failed. It did so before writing anything: parsing,
    /// stratification and plan rendering all come before the first
    /// byte.
    Command(CliError),
    /// The output could not be written. A reader that went away
    /// (`calm eval … | head`) is this with `ErrorKind::BrokenPipe`.
    Stdout(std::io::Error),
}

impl From<CliError> for StreamError {
    fn from(e: CliError) -> Self {
        StreamError::Command(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Stdout(e)
    }
}

/// Parse a program source string with a friendly error.
fn load_program(src: &str) -> Result<Program, CliError> {
    parse_program(src).map_err(|e| err(format!("program: {e}")))
}

/// The input of `p` in `facts_src`, read into `db`: the facts of its input
/// relations (`edb(P)`) by name and arity, as `Query::eval` reads them —
/// the one reading of every command (DESIGN §18).
fn read_input(p: &Program, facts_src: &str, db: &mut Database, obs: &Obs) -> Result<(), CliError> {
    (db.read_facts(facts_src, Some(&p.edb()), obs)).map_err(|e| err(format!("facts: {e}")))
}

/// `calm classify`: the Figure-2 fragment report.
pub fn cmd_classify(program_src: &str) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let r = classify(&p);
    let mut out = String::new();
    let mut row = |name: &str, member: bool| {
        let _ = writeln!(out, "{name:<24} {}", if member { "yes" } else { "no" });
    };
    row("Datalog (positive)", r.datalog);
    row("Datalog(!=)", r.datalog_neq);
    row("SP-Datalog", r.sp_datalog);
    row("con-Datalog^not", r.connected);
    row("semicon-Datalog^not", r.semi_connected);
    row("stratifiable", r.stratifiable);
    let class = if r.datalog_neq {
        "M (monotone) — coordination-free in the original model (F0)"
    } else if r.sp_datalog {
        "Mdistinct — coordination-free in the policy-aware model (F1)"
    } else if r.semi_connected {
        "Mdisjoint — coordination-free under domain guidance (F2)"
    } else if r.stratifiable {
        "no guarantee from Figure 2 (outside semicon-Datalog^not)"
    } else {
        "not stratifiable — evaluate under the well-founded semantics"
    };
    let _ = writeln!(out, "=> {class}");
    Ok(out)
}

/// `calm stratify`: print stratum numbers and the per-stratum programs.
pub fn cmd_stratify(program_src: &str) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let s = calm_datalog::stratify(&p).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    for (rel, stratum) in &s.stratum_of {
        let _ = writeln!(out, "stratum {stratum}: {rel}");
    }
    for (i, part) in s.strata.iter().enumerate() {
        let _ = writeln!(out, "-- P{} --", i + 1);
        let _ = write!(out, "{part}");
    }
    Ok(out)
}

/// `calm check`: monotonicity class membership for one of
/// `m | distinct | disjoint`, via exhaustive + randomized search.
pub fn cmd_check(program_src: &str, class: &str, trials: usize) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let q = DatalogQuery::new("query", p).map_err(|e| err(e.to_string()))?;
    let kind = parse_class(class)?;
    let hit = Exhaustive::new(kind).certify(&q).or_else(|| {
        let schema = q.input_schema().clone();
        Falsifier::new(kind)
            .with_trials(trials)
            .falsify(&q, move |rng| {
                let mut r = calm_common::generator::InstanceRng::seeded(rng.gen_u64());
                r.random_instance(&schema, 4, 5)
            })
    });
    let class = kind.class_name(None);
    Ok(match hit {
        Some(v) => format!(
            "NOT in {class}: counterexample found\n  I = {:?}\n  J = {:?}\n  lost = {:?}\n",
            v.base, v.extension, v.lost
        ),
        None => format!(
            "consistent with {class} (exhaustive small-domain + {trials} randomized trials; \
             membership is undecidable in general)\n"
        ),
    })
}

/// `calm trace report`: ingest one or more JSONL traces (`--trace-out`
/// event logs or flight-recorder dumps), rebuild the happens-before
/// message graph, check the causal invariants, and report per-link
/// latency and retransmit-gap percentiles, the critical path, per-node
/// queue-depth timelines and per-message-class fan-out. `json` selects
/// the machine-readable rendering.
///
/// Multiple paths merge into one analysis — the per-worker traces of a
/// process-engine run (`PREFIX.worker0.jsonl`, `PREFIX.worker1.jsonl`,
/// …) each see only their own half of every cross-worker message, so
/// only the merged set satisfies the causal invariants.
///
/// # Errors
/// Fails when a file cannot be read or any causal invariant is
/// violated (an orphan delivery, a cycle, or a cause that does not
/// precede its effect) — a violated trace means the run it came from
/// cannot be trusted, so the report exits nonzero.
pub fn cmd_trace_report(paths: &[PathBuf], json: bool) -> Result<String, CliError> {
    if paths.is_empty() {
        return Err(err("expected at least one trace file"));
    }
    let analysis = calm_obs::trace::analyze_files(paths).map_err(err)?;
    let out = if json {
        format!("{}\n", analysis.render_json())
    } else {
        analysis.render_human()
    };
    if !analysis.invariants_ok() {
        return Err(err(format!(
            "trace invariants violated ({}): {}",
            analysis.violations.len(),
            analysis.violations.join("; ")
        )));
    }
    Ok(out)
}

fn parse_class(s: &str) -> Result<ExtensionKind, CliError> {
    match s {
        "m" | "M" | "monotone" => Ok(ExtensionKind::Any),
        "distinct" | "mdistinct" => Ok(ExtensionKind::DomainDistinct),
        "disjoint" | "mdisjoint" => Ok(ExtensionKind::DomainDisjoint),
        other => Err(err(format!(
            "unknown class '{other}' (expected m|distinct|disjoint)"
        ))),
    }
}

/// Render the compiled query plan as `% `-prefixed comment lines, so
/// that the fact output stays machine-diffable — when `--dump-plan`
/// asks for it (`dump`), and nothing otherwise.
fn render_plan(p: &Program, dump: bool) -> Result<String, CliError> {
    if !dump {
        return Ok(String::new());
    }
    let report = calm_datalog::plan_report(p).map_err(|e| err(format!("plan: {e}")))?;
    let mut out = String::from("% plan:\n");
    for line in report.lines() {
        let _ = writeln!(out, "%   {line}");
    }
    Ok(out)
}

fn render_instance(i: &Instance) -> String {
    let mut out = String::new();
    for (relation, tuple) in i.iter() {
        let _ = calm_common::fact::write_fact(&mut out, relation, tuple);
        out.push_str(".\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_obs::trace_path;

    /// `calm simulate` on `engine` with `opts`, one eval thread.
    fn simulate_on(
        program: &str,
        nodes: usize,
        strategy: &str,
        trace: bool,
        opts: &ObsOptions,
        engine: Engine,
    ) -> Result<String, CliError> {
        cmd_simulate_run(program, FACTS, nodes, strategy, trace, opts, engine, 1)
    }

    /// `calm simulate` with every default: sequential, unobserved.
    fn simulate(program: &str, nodes: usize, strategy: &str) -> Result<String, CliError> {
        let opts = ObsOptions::default();
        simulate_on(program, nodes, strategy, false, &opts, Engine::Sequential)
    }

    fn threaded(workers: usize) -> Engine {
        Engine::Threaded {
            workers,
            faults: None,
        }
    }

    const TC: &str = "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";
    const QTC: &str = "@output O.\nAdom(x) :- E(x,y).\nAdom(y) :- E(x,y).\n\
                       T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                       O(x,y) :- Adom(x), Adom(y), not T(x,y).";
    const FACTS: &str = "E(1,2). E(2,3).";

    #[test]
    fn eval_prints_facts() {
        let out = cmd_eval_full(TC, FACTS, &ObsOptions::default(), 1).unwrap();
        assert!(out.contains("T(1,2)."));
        assert!(out.contains("T(1,3)."));
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn eval_accepts_mixed_arities_in_one_relation() {
        // `E(1)` shares a relation (and a leading symbol) with `E(1,2)`;
        // it matches no binary atom and must not disturb the rows that do.
        let out = cmd_eval_full(TC, "E(1). E(1,2). E(2,3).", &ObsOptions::default(), 1).unwrap();
        assert_eq!(out, "T(1,2).\nT(1,3).\nT(2,3).\n");
        for threads in [2, 4] {
            let par = cmd_eval_full(TC, "E(1). E(1,2). E(2,3).", &ObsOptions::default(), threads);
            assert_eq!(par.unwrap(), out, "--eval-threads {threads}");
        }
    }

    #[test]
    fn dump_plan_prints_strategies_before_results() {
        let opts = ObsOptions {
            trace_out: None,
            metrics: false,
            dump_plan: true,
            ..Default::default()
        };
        let out = cmd_eval_full(QTC, FACTS, &opts, 1).unwrap();
        assert!(out.contains("% plan:"), "{out}");
        // The recursive TC rule probes E from each T row, in round 0 and
        // from the delta alike.
        assert!(out.contains("T[scan], E[probe@0]"), "{out}");
        assert!(out.contains("T[delta], E[probe@0]"), "{out}");
        // Negated atoms show up as lookups in the stratified plan.
        assert!(out.contains("not T[lookup]"), "{out}");
        // The plan precedes the results, which stay intact.
        let plan_at = out.find("% plan:").unwrap();
        let fact_at = out.find("O(").unwrap();
        assert!(plan_at < fact_at, "{out}");

        let sim = simulate_on(TC, 2, "monotone", false, &opts, Engine::Sequential).unwrap();
        assert!(sim.contains("% plan:"), "{sim}");
        assert!(sim.contains("probe@0"), "{sim}");
        assert!(
            sim.contains("% matches centralized evaluation: true"),
            "{sim}"
        );
    }

    #[test]
    fn eval_updates_matches_from_scratch() {
        let updates = "- E(2,3).\n---\n+ E(2,3).\n+ E(3,1).\n---\n- E(1,2).\n";
        let opts = ObsOptions::default();
        // Stratified-negation program through three batches: the
        // incremental and from-scratch modes must print byte-identical
        // output (the CLI half of the differential oracle).
        let inc = cmd_eval_updates(QTC, FACTS, updates, false, &opts, 1).unwrap();
        let scratch = cmd_eval_updates(QTC, FACTS, updates, true, &opts, 1).unwrap();
        assert_eq!(inc, scratch);
        assert!(inc.contains("% initial"));
        assert!(inc.contains("% after batch 3"));
        // --metrics appends the maintenance summary in incremental mode.
        let m = ObsOptions {
            metrics: true,
            ..Default::default()
        };
        let with_stats = cmd_eval_updates(TC, FACTS, updates, false, &m, 1).unwrap();
        assert!(
            with_stats.contains("% maintenance: 3 batches"),
            "{with_stats}"
        );
        // Bad update syntax is a CliError, not a panic.
        assert!(cmd_eval_updates(TC, FACTS, "E(1,2).", false, &opts, 1).is_err());
    }

    #[test]
    fn the_updates_report_covers_every_fixpoint_in_both_modes() {
        // The initial fixpoint (incremental) and every re-evaluation
        // (`--from-scratch`) report their stratum spans and `eval`
        // counters, and either arm one print per section; the
        // maintenance summary is what it was.
        let facts = include_str!("../../../examples/data/graph.facts");
        let updates = include_str!("../../../examples/data/graph.updates");
        let m = ObsOptions {
            metrics: true,
            ..Default::default()
        };
        let counter = |out: &str, name: &str| -> u64 {
            let line = out
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name));
            let line = line.unwrap_or_else(|| panic!("no {name} in {out}"));
            line.split_whitespace().last().unwrap().parse().unwrap()
        };
        // [derivations, iterations, new_facts]: one fixpoint of three
        // rounds, then four of the updated EDB.
        for (from_scratch, stratum_spans, eval) in [(false, 1, [4, 3, 4]), (true, 4, [44, 16, 39])]
        {
            let out = cmd_eval_updates(TC, facts, updates, from_scratch, &m, 1).unwrap();
            let spans = out
                .lines()
                .find(|l| l.trim_start().starts_with("eval/stratum#0"));
            let spans = spans.unwrap_or_else(|| panic!("no stratum span in {out}"));
            assert!(spans.contains(&format!("n={stratum_spans} ")), "{spans}");
            let prints = out
                .lines()
                .find(|l| l.trim_start().starts_with("eval/write_facts"));
            let prints = prints.unwrap_or_else(|| panic!("no print span in {out}"));
            assert!(prints.contains("n=4 "), "{prints}");
            let counters = ["eval/derivations", "eval/iterations", "eval/new_facts"];
            assert_eq!(counters.map(|c| counter(&out, c)), eval, "{out}");
            let maintenance = out.lines().find(|l| l.starts_with("% maintenance:"));
            assert_eq!(
                maintenance,
                (!from_scratch).then_some(
                    "% maintenance: 3 batches, +4 -2 edb, 5 retractions, 0 rederivations, \
                     26 insertions, 38 derivations, 0 fallbacks"
                ),
                "{out}"
            );
        }
    }

    /// Both arms print through the one `FactPrinter` (its `Instance`
    /// oracle is `calm-common`'s `fact_printer` suite): equal output holds
    /// the maintenance to `calm eval`'s fixpoint on the updated input.
    fn both_arms(program: &str, facts: &str, updates: &str) -> String {
        let opts = ObsOptions::default();
        let inc = cmd_eval_updates(program, facts, updates, false, &opts, 1).unwrap();
        let scratch = cmd_eval_updates(program, facts, updates, true, &opts, 1).unwrap();
        assert_eq!(inc, scratch);
        let threaded = cmd_eval_updates(program, facts, updates, false, &opts, 4).unwrap();
        assert_eq!(inc, threaded, "--eval-threads 4");
        inc
    }

    /// What `--updates` prints under `% initial`.
    fn initial_section(updates_output: &str) -> &str {
        let body = updates_output.strip_prefix("% initial\n").unwrap();
        &body[..body.find("% after batch 1\n").unwrap()]
    }

    #[test]
    fn arena_printer_matches_from_scratch_on_the_examples() {
        let facts = include_str!("../../../examples/data/graph.facts");
        let updates = include_str!("../../../examples/data/graph.updates");
        for program in [
            include_str!("../../../examples/data/tc.dl"),
            include_str!("../../../examples/data/tc_right.dl"),
            include_str!("../../../examples/data/qtc.dl"),
        ] {
            let out = both_arms(program, facts, updates);
            assert!(out.contains("% after batch 3"), "{out}");
            let plain = cmd_eval_full(program, facts, &ObsOptions::default(), 1).unwrap();
            assert_eq!(plain, initial_section(&out));
            let par = cmd_eval_full(program, facts, &ObsOptions::default(), 4).unwrap();
            assert_eq!(plain, par, "--eval-threads 4");
        }
    }

    #[test]
    fn arena_printer_matches_from_scratch_on_a_generated_graph() {
        // 500 islands of 10 vertices, 5 000 edges; every third vertex
        // carries a string label, so one column mixes `Int` and `Str`
        // and "v10" sorts before "v9". Four signed batches delete and
        // insert edges, some of them bridges between islands.
        use calm_common::rng::Rng;
        let mut rng = Rng::seed_from_u64(18);
        let label = |v: usize| match v % 3 {
            0 => format!("v{v}"),
            _ => v.to_string(),
        };
        let mut edges = Vec::new();
        for island in 0..500 {
            for _ in 0..10 {
                let (a, b) = (rng.gen_range(0..10usize), rng.gen_range(0..10usize));
                edges.push(format!(
                    "E({},{}).",
                    label(island * 10 + a),
                    label(island * 10 + b)
                ));
            }
        }
        let facts = edges.join("\n");
        let mut updates = String::new();
        for batch in 0..4 {
            for _ in 0..6 {
                updates.push_str(&format!("- {}\n", rng.choose(&edges).unwrap()));
                let (a, b) = (rng.gen_range(0..5000usize), rng.gen_range(0..5000usize));
                updates.push_str(&format!("+ E({},{}).\n", label(a), label(b)));
            }
            if batch < 3 {
                updates.push_str("---\n");
            }
        }
        let out = both_arms(TC, &facts, &updates);
        assert!(out.contains("% after batch 4"), "{out}");
        assert!(out.lines().count() > 50_000, "{}", out.lines().count());
        let plain = cmd_eval_full(TC, &facts, &ObsOptions::default(), 1).unwrap();
        assert_eq!(plain, initial_section(&out));
        assert_eq!(
            plain,
            cmd_eval_full(TC, &facts, &ObsOptions::default(), 4).unwrap(),
            "--eval-threads 4"
        );
    }

    #[test]
    fn a_failing_eval_writes_nothing() {
        // Output streams, so everything that can fail must have failed
        // before the first byte: a facts file whose *last* fact is
        // broken, a program that does not stratify (with a plan to
        // print first), an update file broken on its last line.
        fn refused(run: impl FnOnce(&mut dyn std::io::Write) -> Result<(), StreamError>) -> String {
            let mut out = Vec::new();
            match run(&mut out) {
                Err(StreamError::Command(e)) => {
                    assert!(out.is_empty(), "{} bytes written", out.len());
                    e.0
                }
                other => panic!("expected a command failure, got {other:?}"),
            }
        }
        let plan = ObsOptions {
            dump_plan: true,
            ..Default::default()
        };
        let mut facts = "E(1,2). E(2,3).\n".repeat(130_000);
        assert!(facts.len() > 2_000_000);
        let at = facts.len() + "E(3,4)".len();
        facts.push_str("E(3,4)");
        let e = refused(|out| cmd_eval_full_to(TC, (&facts).into(), &plan, 1, out));
        assert_eq!(e, format!("facts: parse error at byte {at}: expected '.'"));
        let winmove = include_str!("../../../examples/data/winmove.dl");
        let e = refused(|out| cmd_eval_full_to(winmove, "move(1,2).".into(), &plan, 1, out));
        assert_eq!(
            e,
            "evaluation: program is not syntactically stratifiable (negative cycle through win)"
        );
        for from_scratch in [false, true] {
            let e = refused(|out| {
                let updates = "+ E(3,4).\n---\nE(4,5).\n";
                cmd_eval_updates_to(TC, FACTS, updates, from_scratch, &plan, 1, out)
            });
            assert!(e.starts_with("updates: line 3: expected `+ Fact.`"), "{e}");
        }
    }

    #[test]
    fn eval_metrics_name_the_text_edges() {
        let metrics = ObsOptions {
            metrics: true,
            ..Default::default()
        };
        let out = cmd_eval_full(TC, FACTS, &metrics, 1).unwrap();
        for line in [
            "eval/read_facts ",
            "eval/write_facts ",
            "eval/facts_read                          2\n",
            "eval/bytes_in                            15\n",
            "eval/rows_loaded                         2\n",
            "eval/symbols                             3\n",
            "eval/rows_written                        3\n",
            "eval/bytes_out                           24\n",
        ] {
            assert!(out.contains(line), "{line:?} missing from {out}");
        }
        // One print per section under --updates.
        let out = cmd_eval_updates(TC, FACTS, "+ E(3,4).\n---\n- E(1,2).\n", false, &metrics, 1);
        let out = out.unwrap();
        assert!(
            out.contains("eval/write_facts                         n=3 "),
            "{out}"
        );
        assert!(
            out.contains("eval/rows_written                        12\n"),
            "{out}"
        );
    }

    #[test]
    fn wfs_reports_undefined() {
        let out = cmd_wfs(
            "win(x) :- move(x,y), not win(y).",
            "move(1,2). move(2,1).",
            1,
        )
        .unwrap();
        assert!(out.contains("% undefined"));
        assert!(out.contains("win(1)."));
    }

    #[test]
    fn classify_places_programs() {
        let out = cmd_classify(TC).unwrap();
        assert!(out.contains("Datalog (positive)       yes"));
        assert!(out.contains("F0"));
        let out = cmd_classify(QTC).unwrap();
        assert!(out.contains("semicon-Datalog^not      yes"));
        assert!(out.contains("F2"));
        let out = cmd_classify("win(x) :- move(x,y), not win(y).").unwrap();
        assert!(out.contains("well-founded"));
    }

    #[test]
    fn stratify_prints_strata() {
        let out = cmd_stratify(QTC).unwrap();
        assert!(out.contains("stratum 1: T"));
        assert!(out.contains("stratum 2: O"));
        assert!(out.contains("-- P2 --"));
    }

    #[test]
    fn check_finds_qtc_counterexample() {
        let out = cmd_check(QTC, "distinct", 50).unwrap();
        assert!(out.contains("NOT in Mdistinct"), "{out}");
        let out = cmd_check(TC, "m", 50).unwrap();
        assert!(out.contains("consistent with M"));
    }

    #[test]
    fn simulate_matches_centralized() {
        let out = simulate(TC, 3, "monotone").unwrap();
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
        let out = simulate(QTC, 2, "disjoint").unwrap();
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
    }

    #[test]
    fn simulate_with_trace_prints_events() {
        let out = simulate_on(
            TC,
            2,
            "monotone",
            true,
            &ObsOptions::default(),
            Engine::Sequential,
        )
        .unwrap();
        assert!(out.contains("% trace"));
        assert!(out.contains("delivered="));
        assert!(out.contains("% matches centralized evaluation: true"));
    }

    #[test]
    fn eval_with_metrics_appends_report() {
        let opts = ObsOptions {
            trace_out: None,
            metrics: true,
            dump_plan: false,
            ..Default::default()
        };
        let out = cmd_eval_full(TC, FACTS, &opts, 1).unwrap();
        assert!(out.contains("T(1,3)."), "{out}");
        assert!(out.contains("== run report =="), "{out}");
        assert!(out.contains("eval/derivations"), "{out}");
    }

    #[test]
    fn simulate_trace_out_writes_artifacts() {
        let prefix = std::env::temp_dir().join(format!("calm-cli-sim-{}", std::process::id()));
        let opts = ObsOptions {
            trace_out: Some(prefix.clone()),
            metrics: true,
            dump_plan: false,
            ..Default::default()
        };
        let out = simulate_on(TC, 2, "monotone", true, &opts, Engine::Sequential).unwrap();
        assert!(out.contains("% trace"), "{out}");
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
        assert!(out.contains("== run report =="), "{out}");
        assert!(out.contains("strategy/messages.fact"), "{out}");
        assert!(out.contains("% message classes:"), "{out}");
        let jsonl_path = trace_path(&prefix, "jsonl");
        let chrome_path = trace_path(&prefix, "trace.json");
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let chrome = std::fs::read_to_string(&chrome_path).unwrap();
        let chrome = chrome.trim();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        // The runtime layer emits instants and counters (spans come from
        // the eval layer, which strategies drive internally un-observed).
        assert!(chrome.contains("\"ph\":\"i\""), "instant events present");
        assert!(chrome.contains("\"ph\":\"C\""), "counter events present");
        let _ = std::fs::remove_file(jsonl_path);
        let _ = std::fs::remove_file(chrome_path);
    }

    #[test]
    fn trace_out_to_bad_path_is_a_friendly_error() {
        // A prefix whose parent is a regular file can never be created;
        // the error must name the flag and the offending directory.
        let blocker = std::env::temp_dir().join(format!("calm-cli-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let opts = ObsOptions {
            trace_out: Some(blocker.join("trace")),
            metrics: false,
            dump_plan: false,
            ..Default::default()
        };
        let e = cmd_eval_full(TC, FACTS, &opts, 1).unwrap_err();
        assert!(e.0.contains("--trace-out"), "{e}");
        assert!(e.0.contains("cannot create directory"), "{e}");
        assert!(e.0.contains(&blocker.display().to_string()), "{e}");
        let _ = std::fs::remove_file(blocker);
    }

    #[test]
    fn trace_out_creates_missing_parent_directories() {
        let root = std::env::temp_dir().join(format!("calm-cli-mkdir-{}", std::process::id()));
        let prefix = root.join("nested").join("run").join("trace");
        let opts = ObsOptions {
            trace_out: Some(prefix.clone()),
            metrics: false,
            dump_plan: false,
            ..Default::default()
        };
        let out = cmd_eval_full(TC, FACTS, &opts, 1).unwrap();
        assert!(out.contains("T(1,3)."), "{out}");
        let jsonl = std::fs::read_to_string(trace_path(&prefix, "jsonl")).unwrap();
        assert!(!jsonl.is_empty());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn eval_threads_produce_identical_output() {
        let opts = ObsOptions::default();
        let seq = cmd_eval_full(QTC, FACTS, &ObsOptions::default(), 1).unwrap();
        for threads in [2, 8] {
            let par = cmd_eval_full(QTC, FACTS, &opts, threads).unwrap();
            assert_eq!(seq, par, "eval --eval-threads {threads} diverged");
        }
    }

    #[test]
    fn wfs_threads_produce_identical_output() {
        let program = "win(x) :- move(x,y), not win(y).";
        let facts = "move(1,2). move(2,1). move(2,3).";
        let seq = cmd_wfs(program, facts, 1).unwrap();
        for threads in [2, 8] {
            let par = cmd_wfs(program, facts, threads).unwrap();
            assert_eq!(seq, par, "wfs --eval-threads {threads} diverged");
        }
    }

    #[test]
    fn simulate_eval_threads_prints_knob_and_matches() {
        let opts = ObsOptions::default();
        // Sequential engine with data-parallel node fixpoints.
        let out = cmd_simulate_run(
            QTC,
            FACTS,
            2,
            "disjoint",
            false,
            &opts,
            Engine::Sequential,
            4,
        )
        .unwrap();
        assert!(out.contains("% eval threads: 4"), "{out}");
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
        // Threaded engine: W network workers x T eval threads.
        let thr = cmd_simulate_run(TC, FACTS, 3, "monotone", false, &opts, threaded(2), 4).unwrap();
        assert!(thr.contains("% eval threads: 4"), "{thr}");
        assert!(thr.contains("% engine: threaded, workers: 2"), "{thr}");
        assert!(
            thr.contains("% matches centralized evaluation: true"),
            "{thr}"
        );
        // eval_threads = 1 stays silent.
        let one = simulate(TC, 2, "monotone").unwrap();
        assert!(!one.contains("% eval threads:"), "{one}");
    }

    #[test]
    fn simulate_chaos_with_eval_threads_matches_sequential_oracle() {
        // The end-to-end acceptance run: 8 network workers x 4 eval
        // threads under 5% message loss must match the sequential
        // oracle byte for byte (modulo '%' diagnostic lines).
        let opts = ObsOptions::default();
        let facts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('%'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        for (program, strategy) in [(TC, "monotone"), (QTC, "disjoint")] {
            let seq = simulate(program, 4, strategy).unwrap();
            let engine = parse_engine(
                Some("threaded"),
                Some(8),
                None,
                Some("seed=3,drop=0.05"),
                None,
            )
            .unwrap();
            let thr =
                cmd_simulate_run(program, FACTS, 4, strategy, false, &opts, engine, 4).unwrap();
            assert!(thr.contains("% quiescent: true"), "{strategy}: {thr}");
            assert!(thr.contains("% fault stats:"), "{strategy}: {thr}");
            assert!(thr.contains("% eval threads: 4"), "{strategy}: {thr}");
            assert_eq!(facts(&seq), facts(&thr), "{strategy}: chaos run diverged");
        }
    }

    #[test]
    fn simulate_threaded_matches_centralized() {
        let opts = ObsOptions {
            trace_out: None,
            metrics: false,
            dump_plan: false,
            ..Default::default()
        };
        for strategy in ["monotone", "distinct"] {
            for workers in [1, 2, 8] {
                let out = simulate_on(TC, 3, strategy, false, &opts, threaded(workers)).unwrap();
                assert!(
                    out.contains("% matches centralized evaluation: true"),
                    "{strategy} x{workers}: {out}"
                );
                assert!(out.contains("% engine: threaded, workers:"), "{out}");
                assert!(out.contains("% quiescent: true"), "{out}");
                assert!(out.contains("token passes:"), "{out}");
            }
        }
        let out = simulate_on(QTC, 2, "disjoint", false, &opts, threaded(2)).unwrap();
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
    }

    #[test]
    fn simulate_threaded_output_equals_sequential_output() {
        let opts = ObsOptions {
            trace_out: None,
            metrics: false,
            dump_plan: false,
            ..Default::default()
        };
        let seq = simulate(TC, 4, "monotone").unwrap();
        let thr = simulate_on(TC, 4, "monotone", false, &opts, threaded(2)).unwrap();
        // Rendered facts (lines not starting with '%') must be identical.
        let facts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('%'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(facts(&seq), facts(&thr));
    }

    #[test]
    fn simulate_threaded_with_metrics_writes_artifacts() {
        let prefix = std::env::temp_dir().join(format!("calm-cli-sim-thr-{}", std::process::id()));
        let opts = ObsOptions {
            trace_out: Some(prefix.clone()),
            metrics: true,
            dump_plan: false,
            ..Default::default()
        };
        let out = simulate_on(TC, 3, "monotone", false, &opts, threaded(2)).unwrap();
        assert!(out.contains("== run report =="), "{out}");
        assert!(out.contains("% message classes:"), "{out}");
        let jsonl_path = trace_path(&prefix, "jsonl");
        let chrome_path = trace_path(&prefix, "trace.json");
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.contains("executor_start"), "executor event traced");
        assert!(jsonl.contains("termination"), "termination event traced");
        let _ = std::fs::remove_file(jsonl_path);
        let _ = std::fs::remove_file(chrome_path);
    }

    #[test]
    fn parse_engine_accepts_and_rejects() {
        assert_eq!(
            parse_engine(None, None, None, None, None).unwrap(),
            Engine::Sequential
        );
        assert_eq!(
            parse_engine(Some("sequential"), None, None, None, None).unwrap(),
            Engine::Sequential
        );
        assert_eq!(
            parse_engine(Some("threaded"), None, None, None, None).unwrap(),
            threaded(0)
        );
        assert_eq!(
            parse_engine(Some("threaded"), Some(4), None, None, None).unwrap(),
            threaded(4)
        );
        assert!(parse_engine(Some("warp"), None, None, None, None).is_err());
        assert!(parse_engine(Some("sequential"), Some(4), None, None, None).is_err());
    }

    #[test]
    fn parse_engine_accepts_and_rejects_process() {
        assert_eq!(
            parse_engine(Some("process"), None, None, None, None).unwrap(),
            Engine::Process {
                procs: 0,
                faults: None,
                respawn_budget: None
            }
        );
        assert_eq!(
            parse_engine(Some("process"), None, Some(4), None, None).unwrap(),
            Engine::Process {
                procs: 4,
                faults: None,
                respawn_budget: None
            }
        );
        // The process engine carries the raw fault spec it ships, and
        // the plan that validated it.
        let spec = "seed=7,drop=0.1,pkill(worker=1@step=4)";
        assert_eq!(
            parse_engine(Some("process"), None, Some(2), Some(spec), None).unwrap(),
            Engine::Process {
                procs: 2,
                faults: Some((spec.into(), calm_net::FaultPlan::parse(spec).unwrap())),
                respawn_budget: None
            }
        );
        // …but a malformed spec is still rejected at parse time.
        let e = parse_engine(Some("process"), None, None, Some("warp=0.5"), None).unwrap_err();
        assert!(e.0.contains("--faults:"), "{e}");
        // Flag/engine mismatches are named.
        let e = parse_engine(Some("process"), Some(4), None, None, None).unwrap_err();
        assert!(e.0.contains("--procs"), "{e}");
        let e = parse_engine(Some("threaded"), None, Some(4), None, None).unwrap_err();
        assert!(e.0.contains("--procs requires --engine process"), "{e}");
        let e = parse_engine(Some("sequential"), None, Some(4), None, None).unwrap_err();
        assert!(e.0.contains("--procs requires --engine process"), "{e}");
    }

    #[test]
    fn parse_engine_handles_fault_specs() {
        // A well-formed spec parses into a plan carried by the engine.
        match parse_engine(
            Some("threaded"),
            Some(2),
            None,
            Some("seed=7,drop=0.2,dup=0.1"),
            None,
        )
        .unwrap()
        {
            Engine::Threaded {
                workers: 2,
                faults: Some((spec, plan)),
            } => {
                assert_eq!(spec, "seed=7,drop=0.2,dup=0.1");
                assert_eq!(plan.seed, 7);
                assert!(plan.injects_faults());
            }
            other => panic!("unexpected engine {other:?}"),
        }
        // Faults require an engine with a wire to break.
        let e = parse_engine(None, None, None, Some("drop=0.2"), None).unwrap_err();
        assert!(e.0.contains("--faults requires --engine threaded"), "{e}");
        let e = parse_engine(Some("sequential"), None, None, Some("drop=0.2"), None).unwrap_err();
        assert!(e.0.contains("--faults requires --engine threaded"), "{e}");
        // Malformed specs surface the parser's message.
        let e = parse_engine(Some("threaded"), None, None, Some("warp=0.5"), None).unwrap_err();
        assert!(e.0.contains("--faults:"), "{e}");
        assert!(e.0.contains("unknown fault key"), "{e}");
    }

    #[test]
    fn simulate_threaded_with_faults_matches_centralized() {
        let opts = ObsOptions {
            trace_out: None,
            metrics: false,
            dump_plan: false,
            ..Default::default()
        };
        // A lossy, duplicating, crashing network must still converge to
        // the centralized answer, and the run must report fault counters.
        for (strategy, program) in [("monotone", TC), ("distinct", TC), ("disjoint", QTC)] {
            let engine = parse_engine(
                Some("threaded"),
                Some(2),
                None,
                Some("seed=11,drop=0.15,dup=0.1,crash=1@12~10,snapshot=3"),
                None,
            )
            .unwrap();
            let out = simulate_on(program, 2, strategy, false, &opts, engine).expect(strategy);
            assert!(
                out.contains("% matches centralized evaluation: true"),
                "{strategy}: {out}"
            );
            assert!(out.contains("% quiescent: true"), "{strategy}: {out}");
            assert!(out.contains("% fault stats:"), "{strategy}: {out}");
            assert!(out.contains("attempts="), "{strategy}: {out}");
        }
        // Without --faults no fault-stats line is printed.
        let out = simulate_on(TC, 2, "monotone", false, &opts, threaded(2)).unwrap();
        assert!(!out.contains("% fault stats:"), "{out}");
    }

    #[test]
    fn simulate_rejects_unknown_strategy() {
        assert!(simulate(TC, 2, "quantum").is_err());
    }

    #[test]
    fn simulate_rejects_zero_nodes() {
        let e = simulate(TC, 0, "monotone").unwrap_err();
        assert!(e.0.contains("at least 1"));
    }

    #[test]
    fn trace_report_reconstructs_faulty_threaded_run() {
        // The acceptance run: a threaded execution under 5% message loss
        // traced to JSONL must yield a complete, acyclic happens-before
        // graph — and the report must surface link latencies and a
        // critical path ending at a causal root.
        let prefix = std::env::temp_dir().join(format!("calm-cli-trpt-{}", std::process::id()));
        let opts = ObsOptions {
            trace_out: Some(prefix.clone()),
            metrics: false,
            dump_plan: false,
            ..Default::default()
        };
        let engine = parse_engine(
            Some("threaded"),
            Some(4),
            None,
            Some("seed=5,drop=0.05"),
            None,
        )
        .unwrap();
        let out = cmd_simulate_run(TC, FACTS, 4, "monotone", false, &opts, engine, 1).unwrap();
        assert!(out.contains("% quiescent: true"), "{out}");
        let jsonl_path = trace_path(&prefix, "jsonl");
        let report = cmd_trace_report(std::slice::from_ref(&jsonl_path), false).unwrap();
        assert!(report.contains("== trace report =="), "{report}");
        assert!(report.contains("invariants: ok"), "{report}");
        assert!(report.contains("links (origin -> dst):"), "{report}");
        assert!(report.contains("latency us p50="), "{report}");
        assert!(report.contains("critical path ("), "{report}");
        assert!(report.contains("fan-out per message class:"), "{report}");
        // The machine form parses as one JSON object and agrees.
        let json = cmd_trace_report(std::slice::from_ref(&jsonl_path), true).unwrap();
        let v = calm_obs::parse_json(json.trim()).unwrap();
        assert_eq!(
            v.get("invariants")
                .and_then(|i| i.get("ok"))
                .and_then(calm_obs::JsonValue::as_bool),
            Some(true),
            "{json}"
        );
        assert!(
            v.get("events")
                .and_then(|e| e.get("sends"))
                .and_then(calm_obs::JsonValue::as_u64)
                .unwrap_or(0)
                > 0,
            "{json}"
        );
        let _ = std::fs::remove_file(jsonl_path);
        let _ = std::fs::remove_file(trace_path(&prefix, "trace.json"));
    }

    #[test]
    fn trace_report_merges_multiple_files() {
        // Split one run's trace across two files — the shape of a
        // process-engine run, where each worker's file holds only its
        // half of every cross-worker message. Each half alone tears the
        // causal graph; the merged pair must reconstruct it exactly as
        // the single file does.
        let prefix = std::env::temp_dir().join(format!("calm-cli-merge-{}", std::process::id()));
        let opts = ObsOptions {
            trace_out: Some(prefix.clone()),
            ..Default::default()
        };
        let engine = parse_engine(
            Some("threaded"),
            Some(4),
            None,
            Some("seed=8,drop=0.05"),
            None,
        )
        .unwrap();
        let out = cmd_simulate_run(TC, FACTS, 4, "monotone", false, &opts, engine, 1).unwrap();
        assert!(out.contains("% quiescent: true"), "{out}");
        let jsonl_path = trace_path(&prefix, "jsonl");
        let whole = cmd_trace_report(std::slice::from_ref(&jsonl_path), true).unwrap();
        let text = std::fs::read_to_string(&jsonl_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (a, b) = (
            trace_path(&prefix, "worker0.jsonl"),
            trace_path(&prefix, "worker1.jsonl"),
        );
        let half: Vec<String> = lines.iter().step_by(2).map(|l| format!("{l}\n")).collect();
        let other: Vec<String> = lines
            .iter()
            .skip(1)
            .step_by(2)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&a, half.concat()).unwrap();
        std::fs::write(&b, other.concat()).unwrap();
        let merged = cmd_trace_report(&[a.clone(), b.clone()], true).unwrap();
        assert_eq!(merged, whole, "merged halves must equal the whole");
        // And the empty path list is a friendly error.
        let e = cmd_trace_report(&[], false).unwrap_err();
        assert!(e.0.contains("at least one trace file"), "{e}");
        for p in [jsonl_path, a, b, trace_path(&prefix, "trace.json")] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn flight_recorder_dumps_on_retry_exhaustion_and_stays_silent_when_clean() {
        let dump =
            std::env::temp_dir().join(format!("calm-cli-flight-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&dump);
        let opts = ObsOptions {
            flight_recorder: Some(dump.clone()),
            ..Default::default()
        };
        // A clean threaded run must not write a dump file at all.
        let out = cmd_simulate_run(TC, FACTS, 3, "monotone", false, &opts, threaded(2), 1).unwrap();
        assert!(out.contains("% quiescent: true"), "{out}");
        assert!(!dump.exists(), "clean run must not dump");
        // A link that drops every copy exhausts its retry budget: the
        // anomaly must leave a post-mortem JSONL artifact that `calm
        // trace report` ingests.
        let engine = parse_engine(
            Some("threaded"),
            Some(2),
            None,
            Some("seed=9,link=0>1:drop=1.0,retries=2,backoff=1"),
            None,
        )
        .unwrap();
        let _ = cmd_simulate_run(TC, FACTS, 3, "monotone", false, &opts, engine, 1).unwrap();
        let text = std::fs::read_to_string(&dump).expect("anomaly dump written");
        assert!(text.contains("\"type\":\"flight_dump\""), "{text}");
        assert!(text.contains("retry_exhausted"), "{text}");
        let report = cmd_trace_report(std::slice::from_ref(&dump), false).unwrap();
        assert!(report.contains("flight-recorder dumps:"), "{report}");
        let _ = std::fs::remove_file(dump);
    }

    #[test]
    fn errors_are_friendly() {
        assert!(cmd_eval_full("T(x) :-", FACTS, &ObsOptions::default(), 1).is_err());
        assert!(cmd_eval_full(TC, "E(x, ", &ObsOptions::default(), 1).is_err());
        assert!(cmd_check(TC, "bogus", 1).is_err());
    }
}
