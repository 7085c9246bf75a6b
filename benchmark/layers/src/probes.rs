//! Every call from the benchmark into a crate under `crates/` is in
//! this file, one thin function per layer boundary. When a probed
//! function is renamed, this is the file to mend; until then the
//! per-layer metrics are reported absent and the end-to-end metrics,
//! which never touch these crates, stand.

use calm_cli::{Engine, ObsOptions};
use calm_common::storage::{EvalMetrics, SharedSymbols};
use calm_common::{Fact, Instance, Query, UpdateBatch};
use calm_datalog::eval::{fixpoint_seminaive_compiled, CompiledProgram, Database, EvalOptions};
use calm_datalog::{DatalogQuery, IncrementalEvaluation, Program, UpdateStats};
use calm_net::transport::{read_frame, write_frame};
use calm_net::{
    run_process, run_threaded, wirefmt, FaultPlan, FaultStats, JobSpec, ProcessConfig, Programs,
    SpawnHandle, ThreadedConfig, ThreadedNetwork,
};
use calm_obs::Obs;
use calm_transducer::{
    distribute, expected_output, run, DistinctStrategy, DistributionPolicy, HashPolicy, Metrics,
    MonotoneBroadcast, Multiset, Network, Scheduler, SystemConfig, Transducer, TransducerNetwork,
};
use std::fmt::Write as _;

pub use calm_cli::cmd_net_worker;

/// The step budget `calm simulate` gives every engine.
const STEP_BUDGET: usize = 5_000_000;

// ---- datalog::parser -------------------------------------------------

pub fn parse_program(src: &str) -> Program {
    calm_datalog::parse_program(src).expect("the benchmark's own program parses")
}

pub fn parse_facts(src: &str) -> Instance {
    calm_datalog::parse_facts(src).expect("the benchmark's own facts parse")
}

pub fn parse_updates(src: &str) -> Vec<UpdateBatch> {
    calm_datalog::parse_updates(src).expect("the benchmark's own updates parse")
}

// ---- datalog::stratify + datalog::eval::compile ----------------------

/// A program stratified and compiled, as `eval_query_opts` does it.
pub struct Plan {
    symbols: SharedSymbols,
    strata: Vec<CompiledProgram>,
}

pub fn plan(program: &Program) -> Plan {
    let strat = calm_datalog::stratify(program).expect("the benchmark's programs stratify");
    let symbols = SharedSymbols::new();
    let strata = strat
        .strata
        .iter()
        .map(|s| CompiledProgram::new(s, &mut symbols.write(), EvalOptions::default()))
        .collect();
    Plan { symbols, strata }
}

/// The cached plan a query object carries (stratify + compile).
pub fn plan_query(program: Program) -> DatalogQuery {
    DatalogQuery::new("eval", program).expect("the benchmark's programs stratify")
}

// ---- common::storage (through datalog's Database) --------------------

pub fn load(input: &Instance, plan: &Plan) -> Database {
    Database::from_instance_with(input, plan.symbols.clone())
}

pub fn rows(db: &Database) -> usize {
    db.len()
}

pub fn export(db: &Database, program: &Program) -> Instance {
    db.to_instance().restrict(&program.output_schema())
}

// ---- datalog::eval ----------------------------------------------------

/// Every stratum's fixpoint with `threads` data-parallel workers; the
/// strata's counters summed.
pub fn fixpoint(plan: &mut Plan, db: &mut Database, threads: usize) -> EvalMetrics {
    let mut total = EvalMetrics::default();
    for cp in &mut plan.strata {
        cp.set_eval_threads(threads);
        total.merge(&fixpoint_seminaive_compiled(cp, db));
    }
    total
}

pub fn eval_from_scratch(q: &DatalogQuery, edb: &Instance) -> Instance {
    q.eval(edb)
}

// ---- datalog::eval::incremental ---------------------------------------

pub fn open<'q>(q: &'q DatalogQuery, edb: &Instance) -> IncrementalEvaluation<'q> {
    q.open(edb)
}

pub fn apply(session: &mut IncrementalEvaluation<'_>, batch: &UpdateBatch) -> UpdateStats {
    session.apply(batch)
}

pub fn output(session: &IncrementalEvaluation<'_>) -> Instance {
    session.output()
}

pub fn apply_to_instance(batch: &UpdateBatch, edb: &mut Instance) {
    batch.apply_to_instance(edb);
}

pub fn is_insert_only(batch: &UpdateBatch) -> bool {
    batch.delete.is_empty()
}

// ---- cli --------------------------------------------------------------

/// As the CLI's `render_instance`: one `fact.` per line.
pub fn render(i: &Instance, out: &mut String) {
    for f in i.facts() {
        let _ = writeln!(out, "{f}.");
    }
}

pub fn cmd_eval(program: &str, facts: &str) -> String {
    calm_cli::cmd_eval_full(program, facts, &ObsOptions::default(), 1).expect("calm eval")
}

pub fn cmd_eval_updates(program: &str, facts: &str, updates: &str) -> String {
    calm_cli::cmd_eval_updates(program, facts, updates, false, &ObsOptions::default(), 1)
        .expect("calm eval --updates")
}

/// `calm simulate --nodes 4` on the sequential engine, or with
/// `procs` worker processes when given.
pub fn cmd_simulate(program: &str, facts: &str, strategy: &str, procs: Option<usize>) -> String {
    let engine = match procs {
        None => Engine::Sequential,
        Some(procs) => Engine::Process {
            procs,
            faults: None,
            respawn_budget: None,
        },
    };
    calm_cli::cmd_simulate_run(
        program,
        facts,
        NODES,
        strategy,
        false,
        &ObsOptions::default(),
        engine,
        1,
    )
    .expect("calm simulate")
}

// ---- transducer::strategy + transducer::runtime -----------------------

pub const NODES: usize = 4;

/// What `calm simulate` builds from a program and a strategy name.
pub struct Strategy {
    pub transducer: Box<dyn Transducer>,
    pub policy: HashPolicy,
    pub config: SystemConfig,
}

/// The strategy over an already planned query (the CLI's
/// `build_strategy` after its parse and `DatalogQuery::new`).
pub fn build_strategy(q: DatalogQuery, strategy: &str) -> Strategy {
    let policy = HashPolicy::new(Network::of_size(NODES));
    match strategy {
        "monotone" => Strategy {
            transducer: Box::new(MonotoneBroadcast::new(Box::new(q))),
            policy,
            config: SystemConfig::ORIGINAL,
        },
        "distinct" => Strategy {
            transducer: Box::new(DistinctStrategy::new(Box::new(q))),
            policy,
            config: SystemConfig::POLICY_AWARE,
        },
        other => panic!("no workload uses strategy '{other}'"),
    }
}

/// A finished network run, whichever engine made it.
pub struct NetRun {
    pub output: Instance,
    pub metrics: Metrics,
    pub quiescent: bool,
    pub token_passes: u64,
    pub wire_bytes: u64,
    pub faults: FaultStats,
}

pub fn run_sequential(s: &Strategy, input: &Instance) -> NetRun {
    let tn = TransducerNetwork {
        transducer: s.transducer.as_ref(),
        policy: &s.policy,
        config: s.config,
    };
    let r = run(&tn, input, &Scheduler::RoundRobin, STEP_BUDGET);
    NetRun {
        output: r.output,
        metrics: r.metrics,
        quiescent: r.quiescent,
        token_passes: 0,
        wire_bytes: 0,
        faults: FaultStats::default(),
    }
}

/// The centralized answer `simulate` compares the network's with.
pub fn expected(q: &DatalogQuery, input: &Instance) -> Instance {
    expected_output(q, input)
}

// ---- net::executor + net::faults --------------------------------------

/// The threaded executor with `workers` threads, each with its own
/// transducer instance as the CLI gives them; `faults` as `--faults`.
pub fn run_threaded_workers(
    s: &Strategy,
    program: &str,
    strategy: &str,
    input: &Instance,
    workers: usize,
    faults: Option<&str>,
) -> NetRun {
    let factory = move || build_strategy(plan_query(parse_program(program)), strategy).transducer;
    let tn = ThreadedNetwork {
        programs: Programs::PerWorker(&factory),
        policy: &s.policy,
        config: s.config,
    };
    let mut cfg = ThreadedConfig::new(workers);
    if let Some(spec) = faults {
        cfg = cfg.with_faults(FaultPlan::parse(spec).expect("the benchmark's fault spec parses"));
    }
    let r = run_threaded(&tn, input, &cfg);
    NetRun {
        output: r.output,
        metrics: r.metrics,
        quiescent: r.quiescent,
        token_passes: r.per_worker.iter().map(|w| w.token_passes).sum(),
        wire_bytes: r.wire_bytes,
        faults: r.faults,
    }
}

// ---- net::transport ----------------------------------------------------

/// The process engine with `procs` workers, each this very executable
/// run as `net-worker` (see `main`), as the CLI re-executes itself.
pub fn run_processes(
    s: &Strategy,
    program: &str,
    facts: &str,
    strategy: &str,
    procs: usize,
) -> NetRun {
    let spec = JobSpec {
        program: program.to_string(),
        facts: facts.to_string(),
        strategy: strategy.to_string(),
        nodes: NODES,
        eval_threads: 1,
        step_budget: STEP_BUDGET,
        faults: None,
        trace_prefix: None,
        flight_path: None,
    };
    let exe = std::env::current_exe().expect("own executable path");
    let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
        std::process::Command::new(&exe)
            .args(["net-worker", "--connect", addr, "--worker", &k.to_string()])
            .spawn()
            .map(SpawnHandle::Process)
            .map_err(|e| e.to_string())
    };
    let cfg = ProcessConfig::new(procs, spec).with_respawn_budget(0);
    let r = run_process(&cfg, &spawner, &Obs::noop()).expect("process engine");
    let token_passes = r.token_passes();
    let mut output = Instance::new();
    for state in r.states.values() {
        output.extend(state.restrict(&s.transducer.schema().output).facts());
    }
    NetRun {
        output,
        metrics: r.metrics,
        quiescent: r.quiescent && r.failed_workers.is_empty(),
        token_passes,
        wire_bytes: r.wire_bytes,
        faults: r.faults,
    }
}

// ---- net::wirefmt + net::transport::frame ------------------------------

/// `answer` split over the nodes as the hash policy would, one batch each.
pub fn node_batches(s: &Strategy, answer: &Instance) -> Vec<Multiset<Fact>> {
    distribute(&s.policy as &dyn DistributionPolicy, answer)
        .values()
        .map(|part| {
            let mut batch = Multiset::new();
            for f in part.facts() {
                batch.insert(f);
            }
            batch
        })
        .collect()
}

pub fn batch_facts(batches: &[Multiset<Fact>]) -> usize {
    batches.iter().map(Multiset::len).sum()
}

pub fn encode(batches: &[Multiset<Fact>]) -> Vec<Vec<u8>> {
    batches.iter().map(wirefmt::encode).collect()
}

pub fn naive_bytes(batches: &[Multiset<Fact>]) -> usize {
    batches.iter().map(wirefmt::naive_len).sum()
}

/// Decode every payload; the facts decoded.
pub fn decode(payloads: &[Vec<u8>]) -> usize {
    payloads
        .iter()
        .map(|p| wirefmt::decode(p).expect("own encoding decodes").len())
        .sum()
}

/// Every payload framed into memory and read back; the bytes read.
pub fn frame_roundtrip(payloads: &[Vec<u8>]) -> usize {
    let mut stream = Vec::new();
    for p in payloads {
        write_frame(&mut stream, p).expect("write to memory");
    }
    let mut reader = std::io::Cursor::new(stream);
    payloads
        .iter()
        .map(|_| read_frame(&mut reader).expect("own frame reads back").len())
        .sum()
}
