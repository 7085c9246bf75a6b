//! `calm-benchmark-layers`: the traced run of one workload. Given the
//! `calm` command line of the workload and the directory with its
//! input files, it runs the command's implementation in-process
//! (`cli.cmd_total_s`), then replays the same pipeline stage by stage
//! with a span around the call into each layer, up to three times
//! while `--seconds` last. Spans go to `--trace-out` as JSON lines;
//! the metrics are printed as one JSON object on the last line.
//!
//! Times are medians over the repetitions; counts must be the same in
//! every repetition, or the run fails.

mod probes;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

const MAX_REPS: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("net-worker") {
        // The process engine re-executes the running binary for its
        // workers; here that binary is this one.
        let connect = flag(&args, "--connect").expect("net-worker --connect ADDR");
        let worker = flag(&args, "--worker")
            .and_then(|k| k.parse().ok())
            .expect("--worker K");
        if let Err(e) = probes::cmd_net_worker(connect, worker) {
            eprintln!("net-worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let usage = "usage: calm-benchmark-layers --workload NAME --dir DIR --seconds S --trace-out FILE -- <calm arguments>";
    let split = args.iter().position(|a| a == "--").expect(usage);
    let (own, calm) = (&args[..split], &args[split + 1..]);
    let workload = flag(own, "--workload").expect(usage);
    let dir = PathBuf::from(flag(own, "--dir").expect(usage));
    let seconds: f64 = flag(own, "--seconds")
        .and_then(|s| s.parse().ok())
        .expect(usage);
    let trace_out = PathBuf::from(flag(own, "--trace-out").expect(usage));

    let mut tracer = Tracer::new();
    let mut report = Report::default();
    let started = Instant::now();
    for rep in 0..MAX_REPS {
        if rep > 0 && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        tracer.start_rep(rep);
        run_pipeline(calm, &dir, &mut tracer, &mut report, rep);
    }
    if let Err(e) = std::fs::write(&trace_out, tracer.jsonl(workload)) {
        eprintln!("{}: {e}", trace_out.display());
        std::process::exit(1);
    }
    println!("{}", report.json());
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn read(dir: &Path, name: &str) -> String {
    let path = dir.join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Per-layer metrics: times collected per repetition, counts once.
#[derive(Default)]
struct Report {
    times: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// A duration or a ratio of durations: the median over repetitions is reported.
    fn time(&mut self, name: &'static str, value: f64) {
        self.times.entry(name).or_default().push(value);
    }

    /// A count (or a ratio of counts): every repetition must give the same.
    fn count(&mut self, name: &'static str, value: f64) {
        if let Some(before) = self.values.insert(name, value) {
            assert!(
                before == value,
                "{name} was {before} in one repetition and {value} in another"
            );
        }
    }

    /// A tally that scheduling may change: the last repetition's.
    fn tally(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn json(&self) -> String {
        let mut all: BTreeMap<&str, f64> = self.values.clone();
        all.extend(self.times.iter().map(|(k, v)| (*k, median(v))));
        let body: Vec<String> = all.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{\"metrics\":{{{}}}}}", body.join(","))
    }
}

fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Pick the pipeline the `calm` command line stands for and run it once.
fn run_pipeline(calm: &[String], dir: &Path, t: &mut Tracer, r: &mut Report, rep: usize) {
    let program = read(dir, &calm[1]);
    let facts = read(dir, &calm[2]);
    let cmd_total = match (calm[0].as_str(), flag(calm, "--updates")) {
        ("eval", None) => eval(&program, &facts, t, r, rep),
        ("eval", Some(updates)) => maintain(&program, &facts, &read(dir, updates), t, r, rep),
        ("simulate", _) => {
            assert_eq!(
                flag(calm, "--nodes"),
                Some("4"),
                "the probes build 4-node networks"
            );
            let strategy = flag(calm, "--strategy").expect("--strategy");
            let procs = flag(calm, "--procs").map(|p| p.parse().expect("--procs N"));
            simulate(&program, &facts, strategy, procs, t, r, rep)
        }
        other => panic!("no pipeline for {other:?}"),
    };
    r.time("cli.cmd_total_s", cmd_total);
    r.time("cli.render_s", t.total_s("cli.render", rep));
    r.time("cli.teardown_s", t.total_s("cli.teardown", rep));
    r.time(
        "datalog.parser.parse_s",
        t.total_s("datalog.parser.parse", rep),
    );
    r.time(
        "datalog.compile.plan_s",
        t.total_s("datalog.compile.plan", rep),
    );
    // How much of the command the staged spans account for, and what
    // staging it costs on top of the command itself.
    r.time(
        "trace.coverage",
        ratio(t.self_below_s("staged", rep), cmd_total),
    );
    r.time(
        "trace.overhead_frac",
        ratio(t.total_s("staged", rep), cmd_total) - 1.0,
    );
}

/// `calm eval P F`: parse, plan, load, fixpoint, export, render.
fn eval(program: &str, facts: &str, t: &mut Tracer, r: &mut Report, rep: usize) -> f64 {
    let (whole, cmd_total) = timed(|| probes::cmd_eval(program, facts));
    let staged = t.span("staged", |t| {
        let (p, input) = t.span("datalog.parser.parse", |_| {
            (probes::parse_program(program), probes::parse_facts(facts))
        });
        let mut plan = t.span("datalog.compile.plan", |_| probes::plan(&p));
        let mut db = t.span("common.storage.load", |_| probes::load(&input, &plan));
        r.count("common.storage.rows_loaded", probes::rows(&db) as f64);
        let m = t.span("datalog.eval.fixpoint", |_| {
            probes::fixpoint(&mut plan, &mut db, 1)
        });
        let answer = t.span("common.storage.export", |_| probes::export(&db, &p));
        let mut out = String::new();
        t.span("cli.render", |_| probes::render(&answer, &mut out));
        r.count("datalog.eval.iterations", m.iterations as f64);
        r.count("datalog.eval.derivations", m.derivations as f64);
        r.count("datalog.eval.new_facts", m.new_facts as f64);
        r.count(
            "datalog.eval.useful_ratio",
            ratio(m.new_facts as f64, m.derivations as f64),
        );
        r.count("datalog.eval.index_probes", m.index_probes as f64);
        r.count("datalog.eval.merge_probes", m.merge_probes as f64);
        r.count(
            "datalog.eval.probe_hit_ratio",
            ratio(
                (m.index_hits + m.merge_hits) as f64,
                (m.index_probes + m.merge_probes) as f64,
            ),
        );
        // Freeing what the command built is part of the command.
        t.span("cli.teardown", |_| drop((p, input, plan, db, answer)));
        out
    });
    assert!(
        staged == whole,
        "the staged pipeline printed something else than cmd_eval_full"
    );
    let fixpoint_s = t.total_s("datalog.eval.fixpoint", rep);
    r.count(
        "datalog.parser.bytes_in",
        (program.len() + facts.len()) as f64,
    );
    r.time(
        "common.storage.load_s",
        t.total_s("common.storage.load", rep),
    );
    r.time(
        "common.storage.export_s",
        t.total_s("common.storage.export", rep),
    );
    r.time("datalog.eval.fixpoint_s", fixpoint_s);

    // Aside: the same fixpoint with two data-parallel workers.
    let p = probes::parse_program(program);
    let mut plan = probes::plan(&p);
    let mut db = probes::load(&probes::parse_facts(facts), &plan);
    let t2 = t.span("datalog.eval.fixpoint_t2", |_| {
        probes::fixpoint(&mut plan, &mut db, 2)
    });
    let t2_s = t.total_s("datalog.eval.fixpoint_t2", rep);
    // Any thread count must give the sequential run's counters.
    r.count("datalog.eval.derivations", t2.derivations as f64);
    r.time("datalog.eval.fixpoint_t2_s", t2_s);
    r.time("datalog.eval.t2_overhead", ratio(t2_s, fixpoint_s));
    cmd_total
}

/// `calm eval P F --updates U`: parse, plan, open, then per batch
/// apply, output, render.
fn maintain(
    program: &str,
    facts: &str,
    updates: &str,
    t: &mut Tracer,
    r: &mut Report,
    rep: usize,
) -> f64 {
    let (whole, cmd_total) = timed(|| probes::cmd_eval_updates(program, facts, updates));
    let mut insert_only = true;
    let staged = t.span("staged", |t| {
        let (p, edb, batches) = t.span("datalog.parser.parse", |_| {
            (
                probes::parse_program(program),
                probes::parse_facts(facts),
                probes::parse_updates(updates),
            )
        });
        let q = t.span("datalog.compile.plan", |_| probes::plan_query(p));
        let mut session = t.span("datalog.incremental.open", |_| probes::open(&q, &edb));
        let mut out = String::from("% initial\n");
        let answer = t.span("datalog.incremental.output", |_| probes::output(&session));
        t.span("cli.render", |_| probes::render(&answer, &mut out));
        let (mut retractions, mut rederivations, mut insertions) = (0, 0, 0);
        for (k, batch) in batches.iter().enumerate() {
            insert_only &= probes::is_insert_only(batch);
            let stats = t.span("datalog.incremental.apply", |_| {
                probes::apply(&mut session, batch)
            });
            retractions += stats.retractions;
            rederivations += stats.rederivations;
            insertions += stats.insertions;
            out.push_str(&format!("% after batch {}\n", k + 1));
            let answer = t.span("datalog.incremental.output", |_| probes::output(&session));
            t.span("cli.render", |_| probes::render(&answer, &mut out));
        }
        r.count("datalog.incremental.retractions", retractions as f64);
        r.count("datalog.incremental.rederivations", rederivations as f64);
        r.count("datalog.incremental.insertions", insertions as f64);
        r.count(
            "datalog.incremental.overdelete_ratio",
            ratio(rederivations as f64, retractions as f64),
        );
        t.span("cli.teardown", |_| drop((session, edb, batches)));
        out
    });
    assert!(
        staged == whole,
        "the staged pipeline printed something else than cmd_eval_updates"
    );
    let applies = t.each_s("datalog.incremental.apply", rep);
    let name = if insert_only {
        "datalog.incremental.apply_insert_s"
    } else {
        "datalog.incremental.apply_delete_s"
    };
    r.time(name, median(&applies));
    r.count(
        "datalog.parser.bytes_in",
        (program.len() + facts.len() + updates.len()) as f64,
    );
    r.time(
        "datalog.incremental.open_s",
        t.total_s("datalog.incremental.open", rep),
    );
    r.time(
        "datalog.incremental.output_s",
        t.total_s("datalog.incremental.output", rep),
    );

    // Aside: the same batches answered by evaluating from scratch.
    let q = probes::plan_query(probes::parse_program(program));
    let mut edb = probes::parse_facts(facts);
    t.span("datalog.eval.from_scratch", |_| {
        for batch in probes::parse_updates(updates) {
            probes::apply_to_instance(&batch, &mut edb);
            std::hint::black_box(probes::eval_from_scratch(&q, &edb));
        }
    });
    r.time(
        "datalog.incremental.vs_scratch_ratio",
        ratio(
            applies.iter().sum(),
            t.total_s("datalog.eval.from_scratch", rep),
        ),
    );
    cmd_total
}

/// `calm simulate P F --nodes 4 --strategy S`, sequential or with
/// `procs` worker processes: parse, build the strategy, run the
/// network, verify against the centralized answer, render. With
/// worker processes the same input also goes, aside, through the
/// sequential runtime, the threaded executor (1 and 2 workers, and 2
/// workers over lossy links), the wire format and the frame codec.
fn simulate(
    program: &str,
    facts: &str,
    strategy: &str,
    procs: Option<usize>,
    t: &mut Tracer,
    r: &mut Report,
    rep: usize,
) -> f64 {
    let (whole, cmd_total) = timed(|| probes::cmd_simulate(program, facts, strategy, procs));
    assert!(
        whole.contains("% quiescent: true")
            && whole.contains("% matches centralized evaluation: true"),
        "cmd_simulate_run did not converge on the centralized answer"
    );
    let build = |t: &mut Tracer| {
        let p = t.span("datalog.parser.parse", |_| probes::parse_program(program));
        let q = t.span("datalog.compile.plan", |_| probes::plan_query(p));
        probes::build_strategy(q, strategy)
    };
    let (s, input, answer) = t.span("staged", |t| {
        let input = t.span("datalog.parser.parse", |_| probes::parse_facts(facts));
        let s = t.span("transducer.strategy.build", build);
        let net = match procs {
            None => t.span("transducer.runtime.run", |_| {
                probes::run_sequential(&s, &input)
            }),
            Some(n) => t.span("net.transport.run_process", |_| {
                probes::run_processes(&s, program, facts, strategy, n)
            }),
        };
        let central = t.span("cli.verify", |t| {
            let p = t.span("datalog.parser.parse", |_| probes::parse_program(program));
            let q = t.span("datalog.compile.plan", |_| probes::plan_query(p));
            probes::expected(&q, &input)
        });
        assert!(
            net.quiescent && net.output == central,
            "the staged network run is wrong"
        );
        let mut out = String::new();
        t.span("cli.render", |_| probes::render(&net.output, &mut out));
        if procs.is_none() {
            runtime_metrics(&net, t.total_s("transducer.runtime.run", rep), r);
        }
        (s, input, net.output)
    });
    r.count(
        "datalog.parser.bytes_in",
        (program.len() + facts.len()) as f64,
    );
    r.time(
        "transducer.strategy.build_s",
        t.total_s("transducer.strategy.build", rep),
    );
    let Some(_) = procs else {
        return cmd_total;
    };

    let seq = t.span("transducer.runtime.run", |_| {
        probes::run_sequential(&s, &input)
    });
    let run_s = t.total_s("transducer.runtime.run", rep);
    runtime_metrics(&seq, run_s, r);
    let w1 = t.span("net.executor.run_w1", |_| {
        probes::run_threaded_workers(&s, program, strategy, &input, 1, None)
    });
    let w2 = t.span("net.executor.run_w2", |_| {
        probes::run_threaded_workers(&s, program, strategy, &input, 2, None)
    });
    // Fault-free end-to-end on purpose: a lossy run is bound by its
    // backoff timers, not by the work, so it is a per-layer probe only.
    let lossy = t.span("net.faults.lossy_run", |_| {
        probes::run_threaded_workers(&s, program, strategy, &input, 2, Some("seed=7,drop=0.05"))
    });
    for (what, run) in [
        ("one worker", &w1),
        ("two workers", &w2),
        ("lossy links", &lossy),
    ] {
        assert!(
            run.quiescent && run.output == answer,
            "threaded executor, {what}: wrong answer"
        );
    }
    let w1_s = t.total_s("net.executor.run_w1", rep);
    r.time("net.executor.run_w1_s", w1_s);
    r.time(
        "net.executor.run_w2_s",
        t.total_s("net.executor.run_w2", rep),
    );
    r.time("net.executor.overhead_w1", ratio(w1_s, run_s));
    r.tally("net.executor.token_passes", w2.token_passes as f64);
    r.tally("net.executor.wire_bytes", w2.wire_bytes as f64);
    r.time(
        "net.faults.lossy_run_s",
        t.total_s("net.faults.lossy_run", rep),
    );
    r.tally("net.faults.attempts", lossy.faults.attempts as f64);
    r.tally(
        "net.faults.retransmissions",
        lossy.faults.retransmissions as f64,
    );
    r.tally(
        "net.faults.duplicates_suppressed",
        lossy.faults.duplicates_suppressed as f64,
    );
    r.tally(
        "net.faults.goodput_ratio",
        ratio(
            lossy.faults.delivered_batches as f64,
            lossy.faults.attempts as f64,
        ),
    );

    let batches = probes::node_batches(&s, &answer);
    let payloads = t.span("net.wirefmt.encode", |_| probes::encode(&batches));
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    let decoded = t.span("net.wirefmt.decode", |_| probes::decode(&payloads));
    let framed = t.span("net.transport.frame_roundtrip", |_| {
        probes::frame_roundtrip(&payloads)
    });
    assert!(
        decoded == probes::batch_facts(&batches) && framed == bytes,
        "wire round trip lost data"
    );
    r.time("net.wirefmt.encode_s", t.total_s("net.wirefmt.encode", rep));
    r.time("net.wirefmt.decode_s", t.total_s("net.wirefmt.decode", rep));
    r.time(
        "net.transport.frame_roundtrip_s",
        t.total_s("net.transport.frame_roundtrip", rep),
    );
    r.count(
        "net.wirefmt.bytes_per_fact",
        ratio(bytes as f64, decoded as f64),
    );
    r.count(
        "net.wirefmt.vs_naive_ratio",
        ratio(bytes as f64, probes::naive_bytes(&batches) as f64),
    );
    cmd_total
}

/// The sequential runtime's counters; they repeat exactly.
fn runtime_metrics(run: &probes::NetRun, run_s: f64, r: &mut Report) {
    let m = &run.metrics;
    r.time("transducer.runtime.run_s", run_s);
    r.time(
        "transducer.runtime.step_mean_us",
        ratio(run_s * 1e6, m.transitions as f64),
    );
    r.count("transducer.runtime.transitions", m.transitions as f64);
    r.count("transducer.runtime.messages_sent", m.messages_sent as f64);
    r.count(
        "transducer.runtime.messages_delivered",
        m.messages_delivered as f64,
    );
    r.count(
        "transducer.runtime.max_queue_depth",
        m.max_queue_depth() as f64,
    );
    r.count(
        "transducer.runtime.eval_derivations",
        m.eval.derivations as f64,
    );
    r.count(
        "transducer.runtime.msgs_per_output_fact",
        ratio(m.messages_sent as f64, run.output.len() as f64),
    );
}
