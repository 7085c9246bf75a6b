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
//! [`calm_datalog::parser`]. The library half of this crate holds the
//! command implementations so they can be unit-tested without spawning
//! processes.

#![warn(missing_docs)]

use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_datalog::fragment::classify;
use calm_datalog::{parse_facts, parse_program, DatalogQuery, Program};
use calm_monotone::{Exhaustive, ExtensionKind, Falsifier};
use calm_net::{
    run_net_worker, run_process, run_threaded_with, Assign, FaultPlan, JobSpec, ProcessConfig,
    Programs, SpawnHandle, ThreadedConfig, ThreadedNetwork, WorkerSetup,
};
use calm_obs::{ChromeTraceSink, FlightRecorder, JsonlSink, MultiSink, Obs, ReportSink, Sink};
use calm_transducer::{
    expected_output, run, run_with, DisjointStrategy, DistinctStrategy, DistributionPolicy,
    DomainGuidedPolicy, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig, TraceSink,
    Transducer, TransducerNetwork,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// Parse a program source string with a friendly error.
pub fn load_program(src: &str) -> Result<Program, CliError> {
    parse_program(src).map_err(|e| err(format!("program: {e}")))
}

/// Parse a facts source string with a friendly error.
pub fn load_facts(src: &str) -> Result<Instance, CliError> {
    parse_facts(src).map_err(|e| err(format!("facts: {e}")))
}

/// Observability options shared by `eval` and `simulate`
/// (`--trace-out PREFIX`, `--flight-recorder PATH`, `--metrics` and
/// `--dump-plan`).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write trace artifacts `<prefix>.jsonl` (event log) and
    /// `<prefix>.trace.json` (Chrome trace-event JSON).
    pub trace_out: Option<PathBuf>,
    /// Attach the always-on flight recorder: a bounded ring of recent
    /// observations dumped to this JSONL file when an anomaly fires
    /// (retry-budget exhaustion, wire decode failure, node crash, or
    /// non-quiescent termination). A clean run writes nothing.
    pub flight_recorder: Option<PathBuf>,
    /// Append the terminal run report to the command output.
    pub metrics: bool,
    /// Print the compiled query plan — per rule, the atom join order
    /// and each atom's join strategy (merge/hash/scan/lookup) — as
    /// `% `-prefixed comment lines before the results.
    pub dump_plan: bool,
}

impl ObsOptions {
    fn is_off(&self) -> bool {
        self.trace_out.is_none() && self.flight_recorder.is_none() && !self.metrics
    }
}

/// Derive `<prefix>.<ext>` from a `--trace-out` prefix, appending to the
/// file name rather than replacing an existing extension.
fn trace_path(prefix: &Path, ext: &str) -> PathBuf {
    let mut name = prefix.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

/// Assemble an [`Obs`] from the options, plus handles needed afterwards:
/// the report sink to render (when `--metrics`) and extra sinks such as
/// a [`TraceSink`] the caller wants fanned in.
fn build_obs(
    opts: &ObsOptions,
    extra: Vec<Arc<dyn Sink>>,
) -> Result<(Obs, Option<Arc<ReportSink>>), CliError> {
    let mut sinks: Vec<Arc<dyn Sink>> = extra;
    if let Some(prefix) = &opts.trace_out {
        // A prefix like `out/run42/trace` usually points into a directory
        // that doesn't exist yet; create it rather than surfacing the
        // opaque ENOENT the sink would hit.
        if let Some(dir) = prefix.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| {
                err(format!(
                    "--trace-out: cannot create directory '{}': {e}",
                    dir.display()
                ))
            })?;
        }
        let jsonl = JsonlSink::create(&trace_path(prefix, "jsonl"))
            .map_err(|e| err(format!("--trace-out: {e}")))?;
        let chrome = ChromeTraceSink::create(&trace_path(prefix, "trace.json"))
            .map_err(|e| err(format!("--trace-out: {e}")))?;
        sinks.push(Arc::new(jsonl));
        sinks.push(Arc::new(chrome));
    }
    if let Some(path) = &opts.flight_recorder {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| {
                err(format!(
                    "--flight-recorder: cannot create directory '{}': {e}",
                    dir.display()
                ))
            })?;
        }
        sinks.push(Arc::new(FlightRecorder::new(path)));
    }
    let report = if opts.metrics {
        let r = Arc::new(ReportSink::new());
        sinks.push(r.clone());
        Some(r)
    } else {
        None
    };
    let obs = match sinks.len() {
        0 => Obs::noop(),
        1 => Obs::new(sinks.pop().expect("one sink")),
        _ => Obs::new(Arc::new(MultiSink::new(sinks))),
    };
    Ok((obs, report))
}

/// `calm eval`: stratified evaluation, output relations printed
/// fact-per-line.
pub fn cmd_eval(program_src: &str, facts_src: &str) -> Result<String, CliError> {
    cmd_eval_opts(program_src, facts_src, &ObsOptions::default())
}

/// As [`cmd_eval`], optionally writing trace artifacts and appending the
/// run report.
pub fn cmd_eval_opts(
    program_src: &str,
    facts_src: &str,
    obs_opts: &ObsOptions,
) -> Result<String, CliError> {
    cmd_eval_full(program_src, facts_src, obs_opts, 1)
}

/// As [`cmd_eval_opts`], running every stratum fixpoint with
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
    let q = calm_datalog::DatalogQuery::new("eval", p)
        .map_err(|e| err(format!("program: {e}")))?
        .with_eval_threads(eval_threads);
    let mut edb = load_facts(facts_src)?;
    let batches =
        calm_datalog::parse_updates(updates_src).map_err(|e| err(format!("updates: {e}")))?;
    let (obs, report) = build_obs(obs_opts, Vec::new())?;
    let mut out = String::new();
    let _ = writeln!(out, "% initial");
    if from_scratch {
        out.push_str(&render_instance(&calm_common::query::Query::eval(&q, &edb)));
        for (k, b) in batches.iter().enumerate() {
            b.apply_to_instance(&mut edb);
            let _ = writeln!(out, "% after batch {}", k + 1);
            out.push_str(&render_instance(&calm_common::query::Query::eval(&q, &edb)));
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
/// model is partial, the undefined facts.
pub fn cmd_wfs(program_src: &str, facts_src: &str) -> Result<String, CliError> {
    cmd_wfs_opts(program_src, facts_src, 1)
}

/// As [`cmd_wfs`], running the alternating-fixpoint inner loops with
/// `eval_threads` data-parallel workers (`--eval-threads N`).
pub fn cmd_wfs_opts(
    program_src: &str,
    facts_src: &str,
    eval_threads: usize,
) -> Result<String, CliError> {
    let p = load_program(program_src)?;
    let input = load_facts(facts_src)?;
    let model = calm_datalog::well_founded_model_opts(
        &p,
        &input,
        calm_datalog::eval::EvalOptions::default().with_eval_threads(eval_threads),
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
    let mut out = String::new();
    if let Some(v) = Exhaustive::new(kind).certify(&q) {
        let _ = writeln!(
            out,
            "NOT in {}: counterexample found",
            kind.class_name(None)
        );
        let _ = writeln!(out, "  I = {:?}", v.base);
        let _ = writeln!(out, "  J = {:?}", v.extension);
        let _ = writeln!(out, "  lost = {:?}", v.lost);
        return Ok(out);
    }
    let schema = q.input_schema().clone();
    let hit = Falsifier::new(kind)
        .with_trials(trials)
        .falsify(&q, move |rng| {
            let mut r = calm_common::generator::InstanceRng::seeded(rng.gen_u64());
            r.random_instance(&schema, 4, 5)
        });
    match hit {
        Some(v) => {
            let _ = writeln!(
                out,
                "NOT in {}: counterexample found",
                kind.class_name(None)
            );
            let _ = writeln!(out, "  I = {:?}", v.base);
            let _ = writeln!(out, "  J = {:?}", v.extension);
            let _ = writeln!(out, "  lost = {:?}", v.lost);
        }
        None => {
            let _ = writeln!(
                out,
                "consistent with {} (exhaustive small-domain + {} randomized trials; membership is undecidable in general)",
                kind.class_name(None),
                trials
            );
        }
    }
    Ok(out)
}

/// `calm simulate`: run the program through a coordination-free strategy
/// on a simulated network and report output + run metrics.
pub fn cmd_simulate(
    program_src: &str,
    facts_src: &str,
    nodes: usize,
    strategy: &str,
) -> Result<String, CliError> {
    cmd_simulate_opts(program_src, facts_src, nodes, strategy, false)
}

/// `calm simulate --trace`: as [`cmd_simulate`], optionally printing the
/// per-transition event log before the output.
pub fn cmd_simulate_opts(
    program_src: &str,
    facts_src: &str,
    nodes: usize,
    strategy: &str,
    trace: bool,
) -> Result<String, CliError> {
    cmd_simulate_full(
        program_src,
        facts_src,
        nodes,
        strategy,
        trace,
        &ObsOptions::default(),
    )
}

/// Which execution engine `calm simulate` drives.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Engine {
    /// The sequential simulator (round-robin scheduler) — the default.
    #[default]
    Sequential,
    /// The threaded executor (`calm-net`): nodes sharded over worker
    /// threads, termination detected by the Safra ring. `workers: 0`
    /// picks `min(available cores, nodes)`.
    Threaded {
        /// Worker threads (0 = auto).
        workers: usize,
        /// Fault plan (`--faults SPEC`): run the network through the
        /// fault-injection + reliable-delivery substrate.
        faults: Option<FaultPlan>,
    },
    /// The process engine (`calm-net` transport): `procs` OS worker
    /// processes connected to a coordinator over loopback TCP, the
    /// Safra token ring passing across process boundaries. `procs: 0`
    /// picks `min(available cores, nodes)`.
    Process {
        /// Worker processes (0 = auto). Clamped to the node count.
        procs: usize,
        /// Fault plan spec (`--faults SPEC`), validated at parse time
        /// and shipped verbatim to every worker in the job hand-off
        /// (each worker seeds its own wires from it, exactly like the
        /// threaded engine's per-worker substrate).
        faults: Option<String>,
        /// Respawns allowed per worker before its shard is adopted by
        /// survivors (`--respawn-budget N`). `None` picks the default:
        /// supervised (budget 3) when the fault plan schedules process
        /// kills (`pkill(...)`), unsupervised (budget 0 — a death
        /// aborts the run) otherwise.
        respawn_budget: Option<u32>,
    },
}

/// A strategy instance with the policy and system configuration it
/// expects: the three things `simulate` needs to build a network.
type StrategyTriple = (
    Box<dyn Transducer>,
    Box<dyn DistributionPolicy>,
    SystemConfig,
);

/// Build the strategy/policy/system-config triple for a strategy name.
/// `eval_threads` data-parallel workers run inside every node-local
/// fixpoint of the strategy's query (1 = sequential).
fn build_strategy(
    program_src: &str,
    strategy: &str,
    nodes: usize,
    eval_threads: usize,
) -> Result<StrategyTriple, CliError> {
    let p = load_program(program_src)?;
    let q = DatalogQuery::new("query", p)
        .map_err(|e| err(e.to_string()))?
        .with_eval_threads(eval_threads);
    let net = Network::of_size(nodes);
    Ok(match strategy {
        "monotone" | "broadcast" => (
            Box::new(MonotoneBroadcast::new(Box::new(q))) as Box<dyn Transducer>,
            Box::new(HashPolicy::new(net)) as Box<dyn DistributionPolicy>,
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(Box::new(q))),
            Box::new(HashPolicy::new(net)),
            SystemConfig::POLICY_AWARE,
        ),
        "disjoint" => (
            Box::new(DisjointStrategy::new(Box::new(q))),
            Box::new(DomainGuidedPolicy::new(net)),
            SystemConfig::POLICY_AWARE,
        ),
        other => {
            return Err(err(format!(
                "unknown strategy '{other}' (expected monotone|distinct|disjoint)"
            )))
        }
    })
}

/// The full `calm simulate`: strategy selection, optional printed trace,
/// optional trace artifacts (`--trace-out`) and run report (`--metrics`).
pub fn cmd_simulate_full(
    program_src: &str,
    facts_src: &str,
    nodes: usize,
    strategy: &str,
    trace: bool,
    obs_opts: &ObsOptions,
) -> Result<String, CliError> {
    cmd_simulate_engine(
        program_src,
        facts_src,
        nodes,
        strategy,
        trace,
        obs_opts,
        Engine::Sequential,
    )
}

/// As [`cmd_simulate_full`], selecting the execution engine
/// (`--engine threaded --workers N`).
#[allow(clippy::too_many_arguments)]
pub fn cmd_simulate_engine(
    program_src: &str,
    facts_src: &str,
    nodes: usize,
    strategy: &str,
    trace: bool,
    obs_opts: &ObsOptions,
    engine: Engine,
) -> Result<String, CliError> {
    cmd_simulate_run(
        program_src,
        facts_src,
        nodes,
        strategy,
        trace,
        obs_opts,
        engine,
        1,
    )
}

/// As [`cmd_simulate_engine`], running every node-local fixpoint with
/// `eval_threads` data-parallel workers (`--eval-threads N`): the
/// threaded engine then runs `workers × eval_threads` threads in total.
/// Output is byte-identical for any thread count.
#[allow(clippy::too_many_arguments)]
pub fn cmd_simulate_run(
    program_src: &str,
    facts_src: &str,
    nodes: usize,
    strategy: &str,
    trace: bool,
    obs_opts: &ObsOptions,
    engine: Engine,
    eval_threads: usize,
) -> Result<String, CliError> {
    let input = load_facts(facts_src)?;
    if nodes == 0 {
        return Err(err("--nodes must be at least 1"));
    }
    let eval_threads = eval_threads.max(1);
    let (transducer, policy, config) = build_strategy(program_src, strategy, nodes, eval_threads)?;
    let mut out = String::new();
    if obs_opts.dump_plan {
        out.push_str(&render_plan(&load_program(program_src)?)?);
    }
    if eval_threads > 1 {
        let _ = writeln!(out, "% eval threads: {eval_threads}");
    }

    let trace_sink = trace.then(|| Arc::new(TraceSink::new()));
    let extra: Vec<Arc<dyn Sink>> = trace_sink
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn Sink>)
        .collect();
    let observed = trace || !obs_opts.is_off();
    let (obs, report) = if observed {
        build_obs(obs_opts, extra)?
    } else {
        (Obs::noop(), None)
    };

    // Normalized (output, metrics, quiescent) across the two engines.
    let (output, metrics, quiescent) = match engine {
        Engine::Sequential => {
            let tn = TransducerNetwork {
                transducer: transducer.as_ref(),
                policy: policy.as_ref(),
                config,
            };
            let r = if observed {
                run_with(&tn, &input, &Scheduler::RoundRobin, 5_000_000, &obs)
            } else {
                run(&tn, &input, &Scheduler::RoundRobin, 5_000_000)
            };
            (r.output, r.metrics, r.quiescent)
        }
        Engine::Threaded { workers, faults } => {
            let workers = if workers == 0 {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .min(nodes)
            } else {
                workers
            };
            // Each worker gets its own transducer instance (own interner
            // and scratch database) so steps never contend on a shared
            // evaluation context.
            let factory = move || {
                let (t, _, _) = build_strategy(program_src, strategy, nodes, eval_threads)
                    .expect("strategy built once already");
                t
            };
            let tn = ThreadedNetwork {
                programs: Programs::PerWorker(&factory),
                policy: policy.as_ref(),
                config,
            };
            let faulted = faults.is_some();
            let mut tcfg = ThreadedConfig::new(workers);
            if let Some(plan) = faults {
                tcfg = tcfg.with_faults(plan);
            }
            let r = run_threaded_with(&tn, &input, &tcfg, &obs);
            let _ = writeln!(out, "% engine: threaded, workers: {workers}");
            if faulted {
                let counters: String = r
                    .faults
                    .as_pairs()
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(label, n)| format!(" {label}={n}"))
                    .collect();
                let _ = writeln!(out, "% fault stats:{counters}");
            }
            let per_worker: String = r
                .per_worker
                .iter()
                .map(|w| format!(" {}", w.metrics.transitions))
                .collect();
            let token_passes: u64 = r.per_worker.iter().map(|w| w.token_passes).sum();
            let _ = writeln!(
                out,
                "% per-worker steps:{per_worker}, token passes: {token_passes}"
            );
            (r.output, r.metrics, r.quiescent)
        }
        Engine::Process {
            procs,
            faults,
            respawn_budget,
        } => {
            let procs = if procs == 0 {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            } else {
                procs
            }
            .clamp(1, nodes);
            let faulted = faults.is_some();
            // Supervision default: a fault plan that schedules process
            // kills gets a respawn budget (the run is *expected* to
            // recover); anything else keeps the abort-on-death
            // semantics unless --respawn-budget says otherwise.
            let has_pkills = faults
                .as_deref()
                .and_then(|s| FaultPlan::parse(s).ok())
                .is_some_and(|p| !p.pkills.is_empty());
            let budget = respawn_budget.unwrap_or(if has_pkills { 3 } else { 0 });
            let spec = JobSpec {
                program: program_src.to_string(),
                facts: facts_src.to_string(),
                strategy: strategy.to_string(),
                nodes,
                eval_threads,
                step_budget: 5_000_000,
                faults,
                // Base paths; the coordinator suffixes them per worker
                // (PREFIX.workerK) so concurrent writers never share a
                // file. The coordinator's own sinks keep the base path.
                trace_prefix: obs_opts.trace_out.as_ref().map(|p| p.display().to_string()),
                flight_path: obs_opts
                    .flight_recorder
                    .as_ref()
                    .map(|p| p.display().to_string()),
            };
            let exe = std::env::current_exe()
                .map_err(|e| err(format!("cannot locate the calm binary to spawn: {e}")))?;
            let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
                std::process::Command::new(&exe)
                    .args(["net-worker", "--connect", addr, "--worker", &k.to_string()])
                    .spawn()
                    .map(SpawnHandle::Process)
                    .map_err(|e| e.to_string())
            };
            let cfg = ProcessConfig::new(procs, spec).with_respawn_budget(budget);
            let r = run_process(&cfg, &spawner, &obs)
                .map_err(|e| err(format!("process engine: {e}")))?;
            let _ = writeln!(out, "% engine: process, procs: {procs}");
            if r.respawns > 0 || !r.adopted_workers.is_empty() {
                let adopted: Vec<String> =
                    r.adopted_workers.iter().map(|k| k.to_string()).collect();
                let _ = writeln!(
                    out,
                    "% supervision: respawns: {}, adopted worker(s):{}{}",
                    r.respawns,
                    if adopted.is_empty() { " none" } else { " " },
                    adopted.join(", ")
                );
            }
            if faulted {
                let counters: String = r
                    .faults
                    .as_pairs()
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(label, n)| format!(" {label}={n}"))
                    .collect();
                let _ = writeln!(out, "% fault stats:{counters}");
            }
            let per_worker: String = r
                .per_worker
                .iter()
                .map(|w| format!(" {}", w.metrics.transitions))
                .collect();
            let _ = writeln!(
                out,
                "% per-worker steps:{per_worker}, token passes: {}",
                r.token_passes()
            );
            if !r.failed_workers.is_empty() {
                // A lost worker forfeits quiescence; the survivors'
                // states were still collected and the flight recorder
                // (if attached) has already dumped. Exit nonzero rather
                // than pretending the run converged.
                obs.finish();
                let failed: Vec<String> = r.failed_workers.iter().map(|k| k.to_string()).collect();
                return Err(err(format!(
                    "process engine: worker(s) {} died mid-run; run is not quiescent",
                    failed.join(", ")
                )));
            }
            // The transport is program-agnostic: project out(R) from
            // the collected final states, as the threaded join does.
            let out_schema = &transducer.schema().output;
            let mut output = Instance::new();
            for state in r.states.values() {
                output.extend(state.restrict(out_schema).facts());
            }
            (output, r.metrics, r.quiescent)
        }
    };
    obs.finish();
    if let Some(sink) = trace_sink {
        let log = sink.take_trace();
        let _ = writeln!(out, "% trace ({} transitions):", log.events.len());
        out.push_str(&log.render());
    }
    if let Some(r) = report {
        out.push_str(&r.render());
    }
    let _ = writeln!(out, "% quiescent: {quiescent}");
    let _ = writeln!(
        out,
        "% transitions: {}, messages sent: {}, delivered: {}",
        metrics.transitions, metrics.messages_sent, metrics.messages_delivered
    );
    let by_class = metrics.by_class;
    if by_class.total() > 0 {
        let classes: String = by_class
            .as_pairs()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(label, n)| format!(" {label}={n}"))
            .collect();
        let _ = writeln!(
            out,
            "% message classes:{classes}, max queue depth: {}",
            metrics.max_queue_depth()
        );
    }
    // Compare against the centralized answer.
    let q2 =
        DatalogQuery::new("query", load_program(program_src)?).map_err(|e| err(e.to_string()))?;
    let expected = expected_output(&q2, &input);
    let _ = writeln!(
        out,
        "% matches centralized evaluation: {}",
        output == expected
    );
    out.push_str(&render_instance(&output));
    Ok(out)
}

/// The hidden `calm net-worker` entry point: the worker half of the
/// process engine. The coordinator spawns `calm net-worker --connect
/// ADDR --worker K` for each shard; the worker connects, handshakes,
/// receives its job (program + facts + strategy by value in the
/// `Assign` frame), and runs the shared executor loop over the socket.
/// Everything it needs arrives over the wire — no files, no flags
/// beyond the rendezvous address and its index.
///
/// Test hook: when `CALM_NET_WORKER_DIE` names this worker's index the
/// process exits with status 3 right after the handshake — the CLI and
/// CI kill-tests use it to assert that a dead worker yields a
/// non-quiescent coordinator exit (with a flight-recorder dump) rather
/// than a hang.
pub fn cmd_net_worker(addr: &str, worker: usize) -> Result<String, CliError> {
    let builder = move |assign: &Assign| -> Result<WorkerSetup, String> {
        let spec = &assign.spec;
        let (transducer, policy, config) = build_strategy(
            &spec.program,
            &spec.strategy,
            spec.nodes,
            spec.eval_threads.max(1),
        )
        .map_err(|e| e.0)?;
        let input = load_facts(&spec.facts).map_err(|e| e.0)?;
        // The coordinator already suffixed these paths per worker
        // (PREFIX.workerK), so this worker's sinks own their files.
        let opts = ObsOptions {
            trace_out: spec.trace_prefix.as_ref().map(PathBuf::from),
            flight_recorder: spec.flight_path.as_ref().map(PathBuf::from),
            metrics: false,
            dump_plan: false,
        };
        let (obs, _) = build_obs(&opts, Vec::new()).map_err(|e| e.0)?;
        if std::env::var("CALM_NET_WORKER_DIE")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            == Some(assign.worker)
        {
            // Die *after* the sinks exist, and flush them first: the
            // post-mortem contract is that even a killed worker leaves
            // well-formed JSONL behind (trace + flight dump), never a
            // torn line.
            let worker = assign.worker as u64;
            obs.event("net", "worker_die", assign.worker as u32 + 1, || {
                vec![("worker", calm_obs::ArgValue::U64(worker))]
            });
            obs.finish();
            std::process::exit(3);
        }
        Ok(WorkerSetup {
            transducer,
            policy,
            config,
            input,
            obs,
        })
    };
    run_net_worker(addr, worker, &builder).map_err(err)?;
    Ok(String::new())
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
        let mut s = analysis.render_json();
        s.push('\n');
        s
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

/// Render the compiled query plan (`--dump-plan`) as `% `-prefixed
/// comment lines so the fact output stays machine-diffable.
fn render_plan(p: &Program) -> Result<String, CliError> {
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

/// Usage text.
pub const USAGE: &str = "\
calm — weaker forms of monotonicity for declarative networking

USAGE:
  calm eval      <program.dl> <facts.dl> [--updates updates.dl] [--from-scratch]
                 [--eval-threads N] [--trace-out PREFIX] [--metrics]
                 [--dump-plan] [--flight-recorder PATH]
  calm wfs       <program.dl> <facts.dl> [--eval-threads N]
  calm classify  <program.dl>
  calm stratify  <program.dl>
  calm check     <program.dl> [--class m|distinct|disjoint] [--trials N]
  calm simulate  <program.dl> <facts.dl> [--nodes N] [--strategy monotone|distinct|disjoint]
                 [--engine sequential|threaded|process] [--workers N] [--procs N]
                 [--respawn-budget N] [--eval-threads N] [--faults SPEC] [--trace]
                 [--trace-out PREFIX] [--metrics] [--dump-plan] [--flight-recorder PATH]
  calm trace     report <trace.jsonl>... [--json]

  --updates FILE evaluates once, then maintains the answer
  incrementally (delete-rederive over the compiled rules, no per-batch
  re-evaluation) through the signed batches in FILE: lines '+ E(1,2).'
  insert, '- E(2,3).' delete, a line of dashes (---) separates batches,
  '%' comments. The output relations are printed initially and after
  every batch. --from-scratch re-evaluates each batch with the full
  fixpoint instead — byte-identical output by construction, which makes
  'diff' between the two modes a correctness oracle (it is an error
  without --updates). A batch that would overdelete more than a fixed
  share of a stratum re-evaluates that stratum and the ones above it
  instead. With --metrics a '% maintenance:' summary line is appended
  in incremental mode; its 'fallbacks' counts those re-evaluated strata.

  --dump-plan prints the compiled query plan — per rule, the join order
  of round 0 and of every delta seed ('R[delta]' first), each atom
  tagged with how the kernel reaches it (probe@c: hash-index probe of
  column c, lookup: membership test, scan, or negated lookup) — as `% `
  comment lines before the results.

  --trace-out PREFIX writes a structured event log to PREFIX.jsonl and a
  Chrome trace (load at ui.perfetto.dev or chrome://tracing) to
  PREFIX.trace.json (missing directories in PREFIX are created);
  --metrics appends a run report to stdout.

  --flight-recorder PATH attaches the always-on flight recorder: a
  bounded ring of recent observations dumped (appended) to PATH when an
  anomaly fires — retry-budget exhaustion, wire decode failure, node
  crash, or non-quiescent termination. A clean run writes nothing; the
  dump is JSONL and feeds `calm trace report` directly.

  trace report rebuilds the happens-before message graph from one or
  more JSONL traces (--trace-out logs or flight-recorder dumps), checks
  the causal invariants (every delivery traces to its send; the causal
  graph is acyclic; causes precede effects) and prints per-link latency
  and retransmit-gap percentiles, the critical path, per-node
  queue-depth timelines and per-message-class fan-out. --json emits one
  JSON object instead. Invariant violations exit nonzero. Pass every
  PREFIX.workerK.jsonl of a process-engine run together: each worker
  traces only its half of a cross-worker message, so only the merged
  set is causally complete.

  --eval-threads N partitions every rule evaluation inside each fixpoint
  over N data-parallel worker threads. The derived database, metrics and
  printed output are byte-identical to the sequential run (N=1, the
  default) at any thread count.

  --engine threaded runs the network on the calm-net executor: nodes
  sharded over worker threads (--workers N, 0 or unset = one per core),
  quiescence detected by a Safra-style token ring. Output is identical
  to the sequential engine for coordination-free strategies. With
  --eval-threads T the run uses W network workers x T eval threads.

  --engine process runs the network as real OS processes: a coordinator
  spawns --procs N workers (0 or unset = one per core, clamped to the
  node count) that re-exec this binary as 'calm net-worker', connect
  back over loopback TCP, and exchange length-prefixed frames carrying
  the same canonical wire batches as the threaded engine. Quiescence is
  detected by the Safra token ring passing across process boundaries.
  Output is byte-identical to the sequential engine; a worker that dies
  mid-run yields a nonzero, non-quiescent exit (and a flight-recorder
  dump when attached) instead of a hang — unless supervision is on.
  With --trace-out PREFIX each worker writes PREFIX.workerK.jsonl next
  to the coordinator's PREFIX.jsonl; feed them all to 'calm trace
  report' together (respawned incarnations append .rN).

  --respawn-budget N (process engine) turns the coordinator into a
  supervisor: each worker ships periodic versioned state snapshots, and
  a dead worker is respawned up to N times (exponential backoff) with
  its shard restored from the latest retained snapshot; the reliability
  substrate replays in-flight traffic and the Safra ring re-probes in a
  fresh epoch. When the budget runs out the dead shard is adopted by
  the survivors (graceful degradation) before the run is failed. N=0
  disables supervision (the abort-on-death behavior above). Default: 3
  when the fault plan schedules pkill(...), else 0.

  --faults SPEC (threaded and process engines) runs the network through
  the seeded fault-injection + reliable-delivery substrate and prints
  the fault counters. SPEC is comma-separated clauses:
    seed=N drop=P dup=P delay=P/T link=S>D:drop=P
    partition=S>D@F..T crash=N@K~D snapshot=K retries=N backoff=T
    pkill(worker=K@step=S)   (process engine only: kill the whole
    worker process K in place of its S-th step; repeatable — a second
    clause for the same worker kills its first respawn, and so on)
  e.g. --faults 'seed=7,drop=0.2,dup=0.1,crash=1@40~25' or
  --faults 'seed=7,pkill(worker=1@step=40)'. Output is still
  byte-identical to the sequential engine.
";

/// Parse `--engine` / `--workers` / `--procs` / `--faults` values into
/// an [`Engine`]. See [`parse_engine_full`] for `--respawn-budget`.
pub fn parse_engine(
    engine: Option<&str>,
    workers: Option<&str>,
    procs: Option<&str>,
    faults: Option<&str>,
) -> Result<Engine, CliError> {
    parse_engine_full(engine, workers, procs, faults, None)
}

/// Parse `--engine` / `--workers` / `--procs` / `--faults` /
/// `--respawn-budget` values into an [`Engine`].
pub fn parse_engine_full(
    engine: Option<&str>,
    workers: Option<&str>,
    procs: Option<&str>,
    faults: Option<&str>,
    respawn_budget: Option<&str>,
) -> Result<Engine, CliError> {
    let workers_n: usize = workers
        .map(|w| w.parse().map_err(|_| err("--workers must be a number")))
        .transpose()?
        .unwrap_or(0);
    let procs_n: usize = procs
        .map(|p| p.parse().map_err(|_| err("--procs must be a number")))
        .transpose()?
        .unwrap_or(0);
    let budget: Option<u32> = respawn_budget
        .map(|b| {
            b.parse()
                .map_err(|_| err("--respawn-budget must be a number"))
        })
        .transpose()?;
    // Validate the fault spec up front for every engine; only the
    // threaded engine keeps the parsed plan (the process engine ships
    // the raw spec to its workers, which parse it themselves).
    let plan = faults
        .map(|spec| FaultPlan::parse(spec).map_err(|e| err(format!("--faults: {e}"))))
        .transpose()?;
    if respawn_budget.is_some() && engine != Some("process") {
        return Err(err("--respawn-budget requires --engine process"));
    }
    match engine.unwrap_or("sequential") {
        "sequential" => {
            if workers_n != 0 {
                return Err(err("--workers requires --engine threaded"));
            }
            if procs.is_some() {
                return Err(err("--procs requires --engine process"));
            }
            if plan.is_some() {
                return Err(err("--faults requires --engine threaded or process"));
            }
            Ok(Engine::Sequential)
        }
        "threaded" => {
            if procs.is_some() {
                return Err(err("--procs requires --engine process"));
            }
            if plan.as_ref().is_some_and(|p| !p.pkills.is_empty()) {
                return Err(err(
                    "--faults: pkill(...) schedules a process kill and requires --engine process",
                ));
            }
            Ok(Engine::Threaded {
                workers: workers_n,
                faults: plan,
            })
        }
        "process" => {
            if workers.is_some() {
                return Err(err(
                    "--workers requires --engine threaded (use --procs with --engine process)",
                ));
            }
            Ok(Engine::Process {
                procs: procs_n,
                faults: faults.map(String::from),
                respawn_budget: budget,
            })
        }
        other => Err(err(format!(
            "unknown engine '{other}' (expected sequential|threaded|process)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";
    const QTC: &str = "@output O.\nAdom(x) :- E(x,y).\nAdom(y) :- E(x,y).\n\
                       T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                       O(x,y) :- Adom(x), Adom(y), not T(x,y).";
    const FACTS: &str = "E(1,2). E(2,3).";

    #[test]
    fn eval_prints_facts() {
        let out = cmd_eval(TC, FACTS).unwrap();
        assert!(out.contains("T(1,2)."));
        assert!(out.contains("T(1,3)."));
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn eval_accepts_mixed_arities_in_one_relation() {
        // `E(1)` shares a relation (and a leading symbol) with `E(1,2)`;
        // it matches no binary atom and must not disturb the rows that do.
        let out = cmd_eval(TC, "E(1). E(1,2). E(2,3).").unwrap();
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
        let out = cmd_eval_opts(QTC, FACTS, &opts).unwrap();
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

        let sim = cmd_simulate_full(TC, FACTS, 2, "monotone", false, &opts).unwrap();
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
    fn wfs_reports_undefined() {
        let out = cmd_wfs("win(x) :- move(x,y), not win(y).", "move(1,2). move(2,1).").unwrap();
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
        let out = cmd_simulate(TC, FACTS, 3, "monotone").unwrap();
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
        let out = cmd_simulate(QTC, FACTS, 2, "disjoint").unwrap();
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
    }

    #[test]
    fn simulate_with_trace_prints_events() {
        let out = cmd_simulate_opts(TC, FACTS, 2, "monotone", true).unwrap();
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
        let out = cmd_eval_opts(TC, FACTS, &opts).unwrap();
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
        let out = cmd_simulate_full(TC, FACTS, 2, "monotone", true, &opts).unwrap();
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
        let e = cmd_eval_opts(TC, FACTS, &opts).unwrap_err();
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
        let out = cmd_eval_opts(TC, FACTS, &opts).unwrap();
        assert!(out.contains("T(1,3)."), "{out}");
        let jsonl = std::fs::read_to_string(trace_path(&prefix, "jsonl")).unwrap();
        assert!(!jsonl.is_empty());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn eval_threads_produce_identical_output() {
        let opts = ObsOptions::default();
        let seq = cmd_eval(QTC, FACTS).unwrap();
        for threads in [2, 8] {
            let par = cmd_eval_full(QTC, FACTS, &opts, threads).unwrap();
            assert_eq!(seq, par, "eval --eval-threads {threads} diverged");
        }
    }

    #[test]
    fn wfs_threads_produce_identical_output() {
        let program = "win(x) :- move(x,y), not win(y).";
        let facts = "move(1,2). move(2,1). move(2,3).";
        let seq = cmd_wfs(program, facts).unwrap();
        for threads in [2, 8] {
            let par = cmd_wfs_opts(program, facts, threads).unwrap();
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
        let thr = cmd_simulate_run(
            TC,
            FACTS,
            3,
            "monotone",
            false,
            &opts,
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
            4,
        )
        .unwrap();
        assert!(thr.contains("% eval threads: 4"), "{thr}");
        assert!(thr.contains("% engine: threaded, workers: 2"), "{thr}");
        assert!(
            thr.contains("% matches centralized evaluation: true"),
            "{thr}"
        );
        // eval_threads = 1 stays silent.
        let one = cmd_simulate(TC, FACTS, 2, "monotone").unwrap();
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
            let seq = cmd_simulate(program, FACTS, 4, strategy).unwrap();
            let engine =
                parse_engine(Some("threaded"), Some("8"), None, Some("seed=3,drop=0.05")).unwrap();
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
                let out = cmd_simulate_engine(
                    TC,
                    FACTS,
                    3,
                    strategy,
                    false,
                    &opts,
                    Engine::Threaded {
                        workers,
                        faults: None,
                    },
                )
                .unwrap();
                assert!(
                    out.contains("% matches centralized evaluation: true"),
                    "{strategy} x{workers}: {out}"
                );
                assert!(out.contains("% engine: threaded, workers:"), "{out}");
                assert!(out.contains("% quiescent: true"), "{out}");
                assert!(out.contains("token passes:"), "{out}");
            }
        }
        let out = cmd_simulate_engine(
            QTC,
            FACTS,
            2,
            "disjoint",
            false,
            &opts,
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
        )
        .unwrap();
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
        let seq = cmd_simulate(TC, FACTS, 4, "monotone").unwrap();
        let thr = cmd_simulate_engine(
            TC,
            FACTS,
            4,
            "monotone",
            false,
            &opts,
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
        )
        .unwrap();
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
        let out = cmd_simulate_engine(
            TC,
            FACTS,
            3,
            "monotone",
            false,
            &opts,
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
        )
        .unwrap();
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
            parse_engine(None, None, None, None).unwrap(),
            Engine::Sequential
        );
        assert_eq!(
            parse_engine(Some("sequential"), None, None, None).unwrap(),
            Engine::Sequential
        );
        assert_eq!(
            parse_engine(Some("threaded"), None, None, None).unwrap(),
            Engine::Threaded {
                workers: 0,
                faults: None
            }
        );
        assert_eq!(
            parse_engine(Some("threaded"), Some("4"), None, None).unwrap(),
            Engine::Threaded {
                workers: 4,
                faults: None
            }
        );
        assert!(parse_engine(Some("warp"), None, None, None).is_err());
        assert!(parse_engine(Some("threaded"), Some("two"), None, None).is_err());
        assert!(parse_engine(Some("sequential"), Some("4"), None, None).is_err());
    }

    #[test]
    fn parse_engine_accepts_and_rejects_process() {
        assert_eq!(
            parse_engine(Some("process"), None, None, None).unwrap(),
            Engine::Process {
                procs: 0,
                faults: None,
                respawn_budget: None
            }
        );
        assert_eq!(
            parse_engine(Some("process"), None, Some("4"), None).unwrap(),
            Engine::Process {
                procs: 4,
                faults: None,
                respawn_budget: None
            }
        );
        // The process engine carries the raw (validated) fault spec.
        assert_eq!(
            parse_engine(Some("process"), None, Some("2"), Some("seed=7,drop=0.1")).unwrap(),
            Engine::Process {
                procs: 2,
                faults: Some("seed=7,drop=0.1".into()),
                respawn_budget: None
            }
        );
        // …but a malformed spec is still rejected at parse time.
        let e = parse_engine(Some("process"), None, None, Some("warp=0.5")).unwrap_err();
        assert!(e.0.contains("--faults:"), "{e}");
        // Flag/engine mismatches are named.
        let e = parse_engine(Some("process"), Some("4"), None, None).unwrap_err();
        assert!(e.0.contains("--procs"), "{e}");
        let e = parse_engine(Some("threaded"), None, Some("4"), None).unwrap_err();
        assert!(e.0.contains("--procs requires --engine process"), "{e}");
        let e = parse_engine(Some("sequential"), None, Some("4"), None).unwrap_err();
        assert!(e.0.contains("--procs requires --engine process"), "{e}");
        assert!(parse_engine(Some("process"), None, Some("two"), None).is_err());
    }

    #[test]
    fn parse_engine_handles_fault_specs() {
        // A well-formed spec parses into a plan carried by the engine.
        match parse_engine(
            Some("threaded"),
            Some("2"),
            None,
            Some("seed=7,drop=0.2,dup=0.1"),
        )
        .unwrap()
        {
            Engine::Threaded {
                workers: 2,
                faults: Some(plan),
            } => {
                assert_eq!(plan.seed, 7);
                assert!(plan.injects_faults());
            }
            other => panic!("unexpected engine {other:?}"),
        }
        // Faults require an engine with a wire to break.
        let e = parse_engine(None, None, None, Some("drop=0.2")).unwrap_err();
        assert!(e.0.contains("--faults requires --engine threaded"), "{e}");
        let e = parse_engine(Some("sequential"), None, None, Some("drop=0.2")).unwrap_err();
        assert!(e.0.contains("--faults requires --engine threaded"), "{e}");
        // Malformed specs surface the parser's message.
        let e = parse_engine(Some("threaded"), None, None, Some("warp=0.5")).unwrap_err();
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
                Some("2"),
                None,
                Some("seed=11,drop=0.15,dup=0.1,crash=1@12~10,snapshot=3"),
            )
            .unwrap();
            let out = cmd_simulate_engine(program, FACTS, 2, strategy, false, &opts, engine)
                .expect(strategy);
            assert!(
                out.contains("% matches centralized evaluation: true"),
                "{strategy}: {out}"
            );
            assert!(out.contains("% quiescent: true"), "{strategy}: {out}");
            assert!(out.contains("% fault stats:"), "{strategy}: {out}");
            assert!(out.contains("attempts="), "{strategy}: {out}");
        }
        // Without --faults no fault-stats line is printed.
        let out = cmd_simulate_engine(
            TC,
            FACTS,
            2,
            "monotone",
            false,
            &opts,
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
        )
        .unwrap();
        assert!(!out.contains("% fault stats:"), "{out}");
    }

    #[test]
    fn simulate_rejects_unknown_strategy() {
        assert!(cmd_simulate(TC, FACTS, 2, "quantum").is_err());
    }

    #[test]
    fn simulate_rejects_zero_nodes() {
        let e = cmd_simulate(TC, FACTS, 0, "monotone").unwrap_err();
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
        let engine =
            parse_engine(Some("threaded"), Some("4"), None, Some("seed=5,drop=0.05")).unwrap();
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
        let engine =
            parse_engine(Some("threaded"), Some("4"), None, Some("seed=8,drop=0.05")).unwrap();
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
    fn trace_report_rejects_violated_traces() {
        let path = std::env::temp_dir().join(format!("calm-cli-bad-trace-{}", std::process::id()));
        // A delivery with no matching send: the causal graph is torn.
        std::fs::write(
            &path,
            "{\"type\":\"event\",\"cat\":\"trace\",\"name\":\"deliver\",\"track\":1,\"ts_us\":5,\
             \"args\":{\"origin\":3,\"seq\":9,\"dst\":0,\"facts\":1}}\n",
        )
        .unwrap();
        let e = cmd_trace_report(std::slice::from_ref(&path), false).unwrap_err();
        assert!(e.0.contains("trace invariants violated"), "{e}");
        assert!(e.0.contains("no matching send"), "{e}");
        let _ = std::fs::remove_file(path);
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
        let out = cmd_simulate_run(
            TC,
            FACTS,
            3,
            "monotone",
            false,
            &opts,
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
            1,
        )
        .unwrap();
        assert!(out.contains("% quiescent: true"), "{out}");
        assert!(!dump.exists(), "clean run must not dump");
        // A link that drops every copy exhausts its retry budget: the
        // anomaly must leave a post-mortem JSONL artifact that `calm
        // trace report` ingests.
        let engine = parse_engine(
            Some("threaded"),
            Some("2"),
            None,
            Some("seed=9,link=0>1:drop=1.0,retries=2,backoff=1"),
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
        assert!(cmd_eval("T(x) :-", FACTS).is_err());
        assert!(cmd_eval(TC, "E(x, ").is_err());
        assert!(cmd_check(TC, "bogus", 1).is_err());
    }
}
