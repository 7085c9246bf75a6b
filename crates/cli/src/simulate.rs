//! `calm simulate`: one function per engine, all returning the same
//! [`EngineRun`], plus the hidden `net-worker` half of the process
//! engine.

use crate::obs::{build_obs, ObsOptions};
use crate::{err, load_program, read_input, render_plan, CliError};
use calm_common::query::Query;
use calm_common::storage::{FactPrinter, Relation, Storage};
use calm_datalog::eval::{Database, EvalOptions};
use calm_datalog::{DatalogQuery, Program};
use calm_net::{
    run_net_worker, run_process, run_threaded_with, Assign, FaultPlan, JobSpec, NetRunReport,
    ProcessConfig, Programs, SpawnHandle, ThreadedConfig, ThreadedNetwork, WorkerSetup,
};
use calm_obs::{Obs, Sink};
use calm_transducer::strategy::out_rel;
use calm_transducer::system_facts::POLICY_ARITY_CAP;
use calm_transducer::{
    run_with, DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy,
    FinalStates, HashPolicy, Metrics, MonotoneBroadcast, Network, Scheduler, SystemConfig,
    TraceSink, Transducer, TransducerNetwork,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// The step budget `calm simulate` gives every engine.
const STEP_BUDGET: usize = 5_000_000;

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
        /// fault-injection + reliable-delivery substrate. The spec is kept
        /// beside the plan it parsed into, to name a clause in a refusal.
        faults: Option<(String, FaultPlan)>,
    },
    /// The process engine (`calm-net` transport): `procs` OS worker
    /// processes connected to a coordinator over loopback TCP, the
    /// Safra token ring passing across process boundaries. `procs: 0`
    /// picks `min(available cores, nodes)`.
    Process {
        /// Worker processes (0 = auto). Clamped to the node count.
        procs: usize,
        /// Fault plan (`--faults SPEC`): the spec, shipped verbatim to
        /// every worker in the job hand-off (each worker seeds its own
        /// wires from it, exactly like the threaded engine's per-worker
        /// substrate), and the plan it parsed into, which says whether
        /// the run is to be supervised.
        faults: Option<(String, FaultPlan)>,
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
    program: &Program,
    strategy: &str,
    nodes: usize,
    eval_threads: usize,
) -> Result<StrategyTriple, CliError> {
    let q = DatalogQuery::new("query", program.clone())
        .map_err(|e| err(e.to_string()))?
        .with_eval_threads(eval_threads);
    if matches!(strategy, "distinct" | "disjoint") {
        // The policy-aware models show a node policy_R over every tuple
        // of known values: |A|^arity candidates per transition.
        let too_wide = (q.input_schema().iter()).find(|&(_, arity)| arity > POLICY_ARITY_CAP);
        if let Some((relation, arity)) = too_wide {
            return Err(err(format!(
                "--strategy {strategy} enumerates the policy relation of every input relation \
                 and is capped at arity {POLICY_ARITY_CAP}: {relation} has arity {arity} \
                 (--strategy monotone has no policy relations)"
            )));
        }
    }
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

/// One `calm simulate` invocation, parsed once: what every engine runs.
struct Job<'a> {
    /// The sources, which the process engine ships to its workers.
    program_src: &'a str,
    facts_src: &'a str,
    program: &'a Program,
    nodes: usize,
    strategy: &'a str,
    eval_threads: usize,
    transducer: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    config: SystemConfig,
}

/// What a run comes out as, whichever engine made it: the engine's own
/// `%` header lines, then its final states, merged counters and quiescence.
struct EngineRun {
    header: String,
    states: FinalStates,
    metrics: Metrics,
    quiescent: bool,
}

/// The worker count that runs: the one asked for — 0 means one per
/// core — and at most one per node.
fn or_one_per_core(n: usize, nodes: usize) -> usize {
    let asked = match n {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    };
    asked.min(nodes)
}

/// A network engine's header: its `% engine:` line, the supervisor's work
/// (if it did any — the threaded engine has none), the non-zero fault
/// counters (under `--faults`), and every worker's step count with the
/// ring's total token passes.
fn net_header(engine: String, faulted: bool, r: &NetRunReport) -> String {
    let mut header = engine;
    if r.respawns > 0 || !r.adopted_workers.is_empty() {
        let adopted: Vec<String> = r.adopted_workers.iter().map(|k| k.to_string()).collect();
        let _ = writeln!(
            header,
            "% supervision: respawns: {}, adopted worker(s):{}{}",
            r.respawns,
            if adopted.is_empty() { " none" } else { " " },
            adopted.join(", ")
        );
    }
    if faulted {
        let _ = writeln!(header, "% fault stats:{}", nonzero(r.faults.as_pairs()));
    }
    let steps: String = (r.per_worker.iter())
        .map(|w| format!(" {}", w.metrics.transitions))
        .collect();
    let passes = r.token_passes();
    let _ = writeln!(header, "% per-worker steps:{steps}, token passes: {passes}");
    header
}

/// ` label=n` for every non-zero counter.
fn nonzero(pairs: impl IntoIterator<Item = (&'static str, u64)>) -> String {
    pairs
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(label, n)| format!(" {label}={n}"))
        .collect()
}

fn run_sequential(job: &Job<'_>, input: &Database, obs: &Obs) -> EngineRun {
    let tn = TransducerNetwork {
        transducer: job.transducer,
        policy: job.policy,
        config: job.config,
    };
    let input = input.to_instance();
    let r = run_with(&tn, &input, &Scheduler::RoundRobin, STEP_BUDGET, obs);
    EngineRun {
        header: String::new(),
        states: r.states,
        metrics: r.metrics,
        quiescent: r.quiescent,
    }
}

fn run_threaded(job: &Job<'_>, input: &Database, cfg: &ThreadedConfig, obs: &Obs) -> EngineRun {
    let factory = || {
        build_strategy(job.program, job.strategy, job.nodes, job.eval_threads)
            .expect("strategy built once already")
            .0
    };
    let tn = ThreadedNetwork {
        programs: Programs::PerWorker(&factory),
        policy: job.policy,
        config: job.config,
    };
    let r = run_threaded_with(&tn, &input.to_instance(), cfg, obs);
    let engine = format!("% engine: threaded, workers: {}\n", cfg.workers);
    EngineRun {
        header: net_header(engine, cfg.faults.is_some(), &r),
        states: r.states,
        metrics: r.metrics,
        quiescent: r.quiescent,
    }
}

/// The threaded engine's configuration: the workers that run, and the
/// step budget of the other two engines.
fn threaded_config(workers: usize, nodes: usize, faults: Option<FaultPlan>) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::new(or_one_per_core(workers, nodes));
    (cfg.step_budget, cfg.faults) = (STEP_BUDGET, faults);
    cfg
}

fn run_processes(
    job: &Job<'_>,
    procs: usize,
    faults: Option<(String, FaultPlan)>,
    respawn_budget: Option<u32>,
    obs_opts: &ObsOptions,
    obs: &Obs,
) -> Result<EngineRun, CliError> {
    let procs = or_one_per_core(procs, job.nodes);
    let faulted = faults.is_some();
    // Supervision default: a fault plan that schedules process kills
    // gets a respawn budget (the run is *expected* to recover);
    // anything else keeps the abort-on-death semantics unless
    // --respawn-budget says otherwise.
    let has_pkills = faults.as_ref().is_some_and(|(_, p)| !p.pkills.is_empty());
    let budget = respawn_budget.unwrap_or(if has_pkills { 3 } else { 0 });
    let path = |p: &Option<PathBuf>| p.as_ref().map(|p| p.display().to_string());
    let spec = JobSpec {
        program: job.program_src.to_string(),
        facts: job.facts_src.to_string(),
        strategy: job.strategy.to_string(),
        nodes: job.nodes,
        eval_threads: job.eval_threads,
        step_budget: STEP_BUDGET,
        faults: faults.map(|(spec, _)| spec),
        // Base paths; the coordinator suffixes them per worker
        // (PREFIX.workerK) so concurrent writers never share a file.
        // The coordinator's own sinks keep the base path.
        trace_prefix: path(&obs_opts.trace_out),
        flight_path: path(&obs_opts.flight_recorder),
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
    let r = run_process(&cfg, &spawner, obs).map_err(|e| err(format!("process engine: {e}")))?;
    if !r.failed_workers.is_empty() {
        // A lost worker forfeits quiescence; the survivors' states were
        // still collected and the flight recorder (if attached) has
        // already dumped. Exit nonzero rather than pretending the run
        // converged.
        let failed: Vec<String> = r.failed_workers.iter().map(|k| k.to_string()).collect();
        return Err(err(format!(
            "process engine: worker(s) {} died mid-run; run is not quiescent",
            failed.join(", ")
        )));
    }
    Ok(EngineRun {
        header: net_header(format!("% engine: process, procs: {procs}\n"), faulted, &r),
        states: r.states,
        metrics: r.metrics,
        quiescent: r.quiescent,
    })
}

/// The lines every engine's run ends with: quiescence, the flow
/// counters and the per-class message counts.
fn summary_lines(out: &mut String, metrics: &Metrics, quiescent: bool) {
    let _ = writeln!(out, "% quiescent: {quiescent}");
    let _ = writeln!(
        out,
        "% transitions: {}, messages sent: {}, delivered: {}",
        metrics.transitions, metrics.messages_sent, metrics.messages_delivered
    );
    if metrics.by_class.total() > 0 {
        let pairs = metrics.by_class.as_pairs();
        let classes = nonzero(pairs.map(|(label, n)| (label, n as u64)));
        let depth = metrics.max_queue_depth();
        let _ = writeln!(out, "% message classes:{classes}, max queue depth: {depth}");
    }
}

/// Whether `out(R)` — `out`, over the table of `input` — is `Q(I)` as
/// `calm eval` computes it on `input`, the rows [`read_input`] read: per
/// output relation `R`, the rows of `R` and of `out_R` are one set (each
/// of the program's arity).
fn agrees(job: &Job<'_>, input: &mut Database, out: &Storage) -> bool {
    let options = EvalOptions::default().with_eval_threads(job.eval_threads);
    calm_datalog::eval_database(job.program, input, options, &Obs::noop())
        .expect("the program stratified when its strategy was built");
    let table = input.symbols().read();
    job.program.output_schema().iter().all(|(name, _)| {
        let [expected, got] = [(input.storage(), name.to_string()), (out, out_rel(name))]
            .map(|(storage, name)| table.lookup_rel(&name).and_then(|r| storage.relation(r)));
        let len = |relation: Option<&Relation>| relation.map_or(0, Relation::len);
        let mut rows = expected.into_iter().flat_map(Relation::live_rows);
        len(expected) == len(got) && rows.all(|row| got.is_some_and(|got| got.contains(row)))
    })
}

/// `calm simulate`: run the program through a coordination-free
/// strategy on a network of `nodes` nodes and report output + run
/// metrics. `trace` prints the per-transition event log before the
/// output (`--trace`), `obs_opts` selects trace artifacts and the run
/// report, `engine` the execution engine, and every node-local fixpoint
/// runs with `eval_threads` data-parallel workers (`--eval-threads N`;
/// the threaded engine then runs `workers × eval_threads` threads in
/// total). Output is byte-identical for any engine and thread count.
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
    // What the arguments alone refuse is refused before a sink opens.
    if trace && matches!(engine, Engine::Process { .. }) {
        return Err(err(
            "--trace prints the transitions of this process, and --engine process steps its \
             nodes in worker processes: write their traces with --trace-out PREFIX and read \
             them with 'calm trace report PREFIX.worker*.jsonl'",
        ));
    }
    if nodes == 0 {
        return Err(err("--nodes must be at least 1"));
    }
    check_fault_targets(&engine, nodes)?;
    let eval_threads = eval_threads.max(1);
    let program = load_program(program_src)?;
    let (transducer, policy, config) = build_strategy(&program, strategy, nodes, eval_threads)?;
    let trace_sink = trace.then(|| Arc::new(TraceSink::new()));
    let extra = Vec::from_iter(trace_sink.clone().map(|s| s as Arc<dyn Sink>));
    let (obs, report) = build_obs(obs_opts, extra)?;
    // `I`: the facts of `edb(P)`, read once — for the engines of this
    // process and for the check. Process workers read the facts they
    // are shipped themselves.
    let mut input = Database::new();
    {
        let _span = obs.span("simulate", || "read_facts".to_string());
        read_input(&program, facts_src, &mut input, &obs)?;
    }
    let job = Job {
        program_src,
        facts_src,
        program: &program,
        nodes,
        strategy,
        eval_threads,
        transducer: transducer.as_ref(),
        policy: policy.as_ref(),
        config,
    };
    let mut out = String::new();
    out.push_str(&render_plan(&program, obs_opts.dump_plan)?);
    if eval_threads > 1 {
        let _ = writeln!(out, "% eval threads: {eval_threads}");
    }

    // The transport is program-agnostic: the schema of `out(R)` is known
    // here. `out(R)` is united in rows as the run's last step.
    let output = &transducer.schema().output;
    let run = {
        let _span = obs.span("simulate", || "run".to_string());
        let run = match engine {
            Engine::Sequential => Ok(run_sequential(&job, &input, &obs)),
            Engine::Threaded { workers, faults } => {
                let cfg = threaded_config(workers, nodes, faults.map(|(_, plan)| plan));
                Ok(run_threaded(&job, &input, &cfg, &obs))
            }
            Engine::Process {
                procs,
                faults,
                respawn_budget,
            } => run_processes(&job, procs, faults, respawn_budget, obs_opts, &obs),
        };
        // The states are let go once united, over the table of `I`: what
        // follows reads `out(R)`.
        run.map(|mut run| {
            let states = std::mem::take(&mut run.states);
            (states.united(output, input.symbols()), run)
        })
    };
    // Compare against the centralized answer, and print — from those
    // rows, before the report is, so that it covers them.
    let checked = run.map(|(out, run)| {
        let matches = {
            let _span = obs.span("simulate", || "expected".to_string());
            agrees(&job, &mut input, &out)
        };
        let _span = obs.span("simulate", || "write".to_string());
        let (mut facts, mut printer) = (Vec::new(), FactPrinter::new(input.symbols().clone()));
        (printer.write(&out, output, &mut facts, &Obs::noop())).expect("writing to memory");
        (run, matches, facts)
    });
    obs.finish();
    let (run, matches, facts) = checked?;
    out.push_str(&run.header);
    if let Some(sink) = trace_sink {
        let log = sink.take_trace();
        let _ = writeln!(out, "% trace ({} transitions):", log.events.len());
        out.push_str(&log.render());
    }
    if let Some(r) = report {
        out.push_str(&r.render());
    }
    summary_lines(&mut out, &run.metrics, run.quiescent);
    let _ = writeln!(out, "% matches centralized evaluation: {matches}");
    out.push_str(std::str::from_utf8(&facts).expect("facts print UTF-8"));
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
        let program = load_program(&spec.program).map_err(|e| e.0)?;
        let eval_threads = spec.eval_threads.max(1);
        let (transducer, policy, config) =
            build_strategy(&program, &spec.strategy, spec.nodes, eval_threads).map_err(|e| e.0)?;
        let mut input = Database::new();
        read_input(&program, &spec.facts, &mut input, &Obs::noop()).map_err(|e| e.0)?;
        // The coordinator already suffixed these paths per worker
        // (PREFIX.workerK), so this worker's sinks own their files.
        let opts = ObsOptions {
            trace_out: spec.trace_prefix.as_ref().map(PathBuf::from),
            flight_recorder: spec.flight_path.as_ref().map(PathBuf::from),
            ..ObsOptions::default()
        };
        let (obs, _) = build_obs(&opts, Vec::new()).map_err(|e| e.0)?;
        let die = std::env::var("CALM_NET_WORKER_DIE");
        if die.is_ok_and(|k| k.parse() == Ok(assign.worker)) {
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
            input: input.to_instance(),
            obs,
        })
    };
    run_net_worker(addr, worker, &builder).map_err(err)?;
    Ok(String::new())
}

/// Refuse a `--faults` clause of `engine` that names a node outside the
/// network of `nodes` nodes, or a worker outside those the run starts: it
/// would inject nothing, and the run would look like it survived it.
fn check_fault_targets(engine: &Engine, nodes: usize) -> Result<(), CliError> {
    let (Engine::Threaded {
        workers,
        faults: Some((spec, _)),
    }
    | Engine::Process {
        procs: workers,
        faults: Some((spec, _)),
        ..
    }) = engine
    else {
        return Ok(());
    };
    let workers = or_one_per_core(*workers, nodes);
    for clause in spec.split(',').map(str::trim) {
        // Each clause of a spec that parsed parses alone, up to the
        // whole-plan checks — which name no node.
        let Ok(plan) = FaultPlan::parse(clause) else {
            continue;
        };
        let links =
            (plan.per_link.keys().copied()).chain(plan.partitions.iter().map(|p| (p.src, p.dst)));
        let named = plan.crashes.iter().map(|c| c.node);
        if let Some(node) = named
            .chain(links.flat_map(|(src, dst)| [src, dst]))
            .find(|&n| n >= nodes)
        {
            return Err(err(format!(
                "--faults: clause '{clause}' names node {node}, outside the {nodes} nodes \
                 of the network (0 to {})",
                nodes - 1
            )));
        }
        if let Some(kill) = plan.pkills.iter().find(|p| p.worker >= workers) {
            return Err(err(format!(
                "--faults: clause '{clause}' names worker {}, outside the {workers} workers \
                 of the run (0 to {})",
                kill.worker,
                workers - 1
            )));
        }
    }
    Ok(())
}

/// Parse the `--engine` / `--workers` / `--procs` / `--faults` /
/// `--respawn-budget` values, those that were given, into an [`Engine`].
pub fn parse_engine(
    engine: Option<&str>,
    workers: Option<usize>,
    procs: Option<usize>,
    faults: Option<&str>,
    respawn_budget: Option<u32>,
) -> Result<Engine, CliError> {
    // Validate the fault spec up front for every engine. The process
    // engine keeps the spec beside the plan: it ships the text to its
    // workers, which parse it themselves.
    let plan = faults
        .map(|spec| FaultPlan::parse(spec).map_err(|e| err(format!("--faults: {e}"))))
        .transpose()?;
    if respawn_budget.is_some() && engine != Some("process") {
        return Err(err("--respawn-budget requires --engine process"));
    }
    match engine.unwrap_or("sequential") {
        "sequential" => {
            if workers.is_some_and(|w| w != 0) {
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
                workers: workers.unwrap_or(0),
                faults: faults.map(String::from).zip(plan),
            })
        }
        "process" => {
            if workers.is_some() {
                return Err(err(
                    "--workers requires --engine threaded (use --procs with --engine process)",
                ));
            }
            Ok(Engine::Process {
                procs: procs.unwrap_or(0),
                faults: faults.map(String::from).zip(plan),
                respawn_budget,
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
    use calm_net::{FaultStats, WorkerStats};

    const TC: &str = include_str!("../../../examples/data/tc.dl");
    const GRAPH: &str = include_str!("../../../examples/data/graph.facts");

    fn simulate(strategy: &str, engine: Engine) -> String {
        let opts = ObsOptions::default();
        cmd_simulate_run(TC, GRAPH, 3, strategy, false, &opts, engine, 1).unwrap()
    }

    #[test]
    fn sequential_stdout_is_exact_for_every_strategy() {
        // `calm simulate examples/data/tc.dl examples/data/graph.facts
        // --nodes 3 --strategy S`, every byte of it.
        let facts = "out_T(1,2).\nout_T(1,3).\nout_T(2,3).\nout_T(4,5).\n";
        for (strategy, counters) in [
            (
                "monotone",
                "% transitions: 6, messages sent: 6, delivered: 6\n\
                 % message classes: fact=6, max queue depth: 3\n",
            ),
            (
                "distinct",
                "% transitions: 9, messages sent: 128, delivered: 128\n\
                 % message classes: fact=6 absence=122, max queue depth: 47\n",
            ),
            (
                "disjoint",
                "% transitions: 12, messages sent: 104, delivered: 104\n\
                 % message classes: fact=8 value=14 request=32 ok=32 ack=18, \
                 max queue depth: 23\n",
            ),
        ] {
            let expected = format!(
                "% quiescent: true\n{counters}% matches centralized evaluation: true\n{facts}"
            );
            assert_eq!(
                simulate(strategy, Engine::Sequential),
                expected,
                "{strategy}"
            );
        }
    }

    #[test]
    fn a_relation_too_wide_for_the_policy_models_is_refused_before_any_node_steps() {
        // `policy_E` over a 5-ary E would be |A|^5 candidates a
        // transition; the library guards it with an `assert!` (a panic
        // in every worker, before this check existed). Every engine
        // must refuse up front, naming relation, arity and strategy —
        // the process engine before it spawns anything.
        let wide = "@output O.\nO(a) :- E(a,b,c,d,e).";
        let facts = "E(1,2,3,4,5).\nE(2,3,4,5,6).";
        let engines = || {
            [
                Engine::Sequential,
                Engine::Threaded {
                    workers: 2,
                    faults: None,
                },
                Engine::Process {
                    procs: 2,
                    faults: None,
                    respawn_budget: None,
                },
            ]
        };
        let opts = ObsOptions::default();
        for strategy in ["distinct", "disjoint"] {
            for engine in engines() {
                let label = format!("{strategy}, {engine:?}");
                let refused = cmd_simulate_run(wide, facts, 2, strategy, false, &opts, engine, 1);
                let message = refused.expect_err(&label).0;
                assert!(
                    message.contains(&format!("--strategy {strategy}")),
                    "{message}"
                );
                assert!(message.contains("E has arity 5"), "{label}: {message}");
                assert!(message.contains("capped at arity 4"), "{label}: {message}");
            }
        }
        // No policy relations, no cap.
        for engine in engines() {
            if matches!(engine, Engine::Process { .. }) {
                continue; // re-executes the binary: `tests/process.rs`
            }
            let out = cmd_simulate_run(wide, facts, 2, "monotone", false, &opts, engine, 1);
            let out = out.expect("monotone accepts a 5-ary relation");
            assert!(
                out.contains("% matches centralized evaluation: true"),
                "{out}"
            );
            assert!(out.ends_with("out_O(1).\nout_O(2).\n"), "{out}");
        }
    }

    #[test]
    fn eval_threads_do_not_show_in_what_a_node_program_prints() {
        // Both native node programs keep a maintained query session per
        // node; its fixpoints run data-parallel under --eval-threads
        // and must answer the same.
        let opts = ObsOptions::default();
        for strategy in ["monotone", "distinct"] {
            let run = |threads| {
                let engine = Engine::Sequential;
                cmd_simulate_run(TC, GRAPH, 3, strategy, true, &opts, engine, threads).unwrap()
            };
            let one = run(1);
            assert_eq!(run(2), format!("% eval threads: 2\n{one}"), "{strategy}");
        }
    }

    #[test]
    fn metrics_count_one_cold_start_per_node_on_a_clean_run() {
        let opts = ObsOptions {
            metrics: true,
            ..ObsOptions::default()
        };
        let threaded = Engine::Threaded {
            workers: 2,
            faults: None,
        };
        for engine in [Engine::Sequential, threaded] {
            let label = format!("{engine:?}");
            let out = cmd_simulate_run(TC, GRAPH, 3, "distinct", false, &opts, engine, 1).unwrap();
            let value_of = |name: &str| {
                let line = out.lines().find(|l| l.trim_start().starts_with(name));
                let line = line.unwrap_or_else(|| panic!("{label}: no {name} in\n{out}"));
                line.split_whitespace().nth(1).unwrap().to_string()
            };
            assert_eq!(value_of("runtime/engine.cold_starts"), "3", "{label}");
            // One sample per transition.
            let transitions = value_of("runtime/transition");
            let samples = format!("n={transitions}");
            assert_eq!(value_of("runtime/step.new_facts"), samples, "{label}");
        }
    }

    /// `line` is `prefix` followed by `count` space-separated numbers.
    fn is_numbers_after(line: &str, prefix: &str, count: usize) -> bool {
        line.strip_prefix(prefix).is_some_and(|rest| {
            let words: Vec<&str> = rest.split(' ').collect();
            words.len() == count && words.iter().all(|w| w.parse::<u64>().is_ok())
        })
    }

    #[test]
    fn the_threaded_engine_has_the_step_budget_of_the_others() {
        let plan = FaultPlan::parse("seed=7,drop=0.05").unwrap();
        let cfg = threaded_config(3, 4, Some(plan.clone()));
        assert_eq!((cfg.workers, cfg.step_budget), (3, STEP_BUDGET));
        assert_eq!(cfg.faults, Some(plan));
        let cfg = threaded_config(8, 2, None);
        assert_eq!(
            (cfg.workers, cfg.faults),
            (2, None),
            "a worker per node at most"
        );
    }

    #[test]
    fn threaded_header_lines_have_their_shape() {
        let engine = Engine::Threaded {
            workers: 2,
            faults: Some((
                "seed=7,drop=0.05".into(),
                FaultPlan::parse("seed=7,drop=0.05").unwrap(),
            )),
        };
        let out = simulate("monotone", engine);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "% engine: threaded, workers: 2", "{out}");
        // Counters are ` label=n` words, attempts first, zeros left out.
        let stats = lines[1].strip_prefix("% fault stats: ").expect(lines[1]);
        assert!(stats.starts_with("attempts="), "{out}");
        for word in stats.split(' ') {
            let (label, n) = word.split_once('=').expect(word);
            assert!(!label.is_empty() && n.parse::<u64>().unwrap() > 0, "{out}");
        }
        let (steps, passes) = lines[2].split_once(", ").expect(lines[2]);
        assert!(is_numbers_after(steps, "% per-worker steps: ", 2), "{out}");
        assert!(is_numbers_after(passes, "token passes: ", 1), "{out}");
        assert_eq!(lines[3], "% quiescent: true", "{out}");
        // No supervisor, no supervision line; no plan, no stats line.
        assert!(!out.contains("% supervision"), "{out}");
        let clean = simulate(
            "monotone",
            Engine::Threaded {
                workers: 2,
                faults: None,
            },
        );
        assert!(clean
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("% per-worker steps: "));
    }

    #[test]
    fn process_header_lines_have_their_shape() {
        let worker = |k: usize, transitions: usize, token_passes: u64| {
            let mut w = WorkerStats {
                worker: k,
                token_passes,
                ..WorkerStats::default()
            };
            w.metrics.transitions = transitions;
            w
        };
        let engine = |procs: usize| format!("% engine: process, procs: {procs}\n");
        let mut r = NetRunReport {
            states: Default::default(),
            metrics: Metrics::default(),
            per_worker: vec![worker(0, 34, 3), worker(1, 21, 1)],
            quiescent: true,
            failed_workers: Vec::new(),
            adopted_workers: Vec::new(),
            respawns: 0,
            faults: FaultStats {
                attempts: 97,
                dropped: 7,
                crashes: 1,
                ..FaultStats::default()
            },
            link_counters: Default::default(),
            wire_bytes: 1670,
        };
        assert_eq!(
            net_header(engine(2), false, &r),
            "% engine: process, procs: 2\n% per-worker steps: 34 21, token passes: 4\n"
        );
        r.respawns = 1;
        assert_eq!(
            net_header(engine(2), true, &r),
            "% engine: process, procs: 2\n\
             % supervision: respawns: 1, adopted worker(s): none\n\
             % fault stats: attempts=97 dropped=7 crashes=1\n\
             % per-worker steps: 34 21, token passes: 4\n"
        );
        r.adopted_workers = vec![1, 3];
        assert!(net_header(engine(4), false, &r)
            .contains("% supervision: respawns: 1, adopted worker(s): 1, 3\n"));
    }
}
