//! End-to-end tests of `--engine process` with genuine OS worker
//! processes: the coordinator re-execs the `calm` binary as `calm
//! net-worker` for each shard, exactly as a user's run does. The
//! hermetic (thread-backed, same TCP transport) equivalence suite
//! lives in `crates/net/tests/process.rs`; this file covers what only
//! a real process tree can — binary re-exec, job hand-off of program
//! and facts by value over the wire, per-worker trace files, and a
//! worker killed mid-run.

use std::path::PathBuf;
use std::process::Command;

const TC: &str = "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n";
const QTC: &str = "@output O.\nAdom(x) :- E(x,y).\nAdom(y) :- E(x,y).\n\
                   T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                   O(x,y) :- Adom(x), Adom(y), not T(x,y).\n";
const FACTS: &str = "E(1,2). E(2,3). E(3,4).\n";

fn calm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_calm"))
}

struct Inputs {
    dir: PathBuf,
    program: String,
    facts: String,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn write_inputs(tag: &str, program: &str) -> Inputs {
    let dir = std::env::temp_dir().join(format!("calm-cli-proc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("program.dl");
    let f = dir.join("facts.dl");
    std::fs::write(&p, program).unwrap();
    std::fs::write(&f, FACTS).unwrap();
    Inputs {
        dir,
        program: p.display().to_string(),
        facts: f.display().to_string(),
    }
}

/// The rendered facts: every stdout line that is not a `% ` diagnostic.
fn fact_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('%'))
        .map(String::from)
        .collect()
}

#[test]
fn a_five_ary_relation_is_a_usage_error_not_a_worker_panic() {
    // The policy-aware strategies cap input arity at 4. That used to be
    // found by an `assert!` in every worker: two backtraces and
    // `worker(s) 0, 1 died mid-run`. It is refused before anything is
    // spawned; the broadcast strategy has no policy relations and runs.
    let inputs = write_inputs("wide", "@output O.\nO(a) :- E(a,b,c,d,e).\n");
    std::fs::write(&inputs.facts, "E(1,2,3,4,5). E(2,3,4,5,6).\n").unwrap();
    let simulate = |strategy: &str| {
        let mut cmd = calm();
        cmd.args(["simulate", &inputs.program, &inputs.facts, "--nodes", "2"]);
        cmd.args([
            "--strategy",
            strategy,
            "--engine",
            "process",
            "--procs",
            "2",
        ]);
        cmd.output().unwrap()
    };
    for strategy in ["distinct", "disjoint"] {
        let run = simulate(strategy);
        let stderr = String::from_utf8_lossy(&run.stderr).to_string();
        assert_eq!(run.status.code(), Some(1), "{strategy}: {stderr}");
        assert!(stderr.starts_with("error: "), "{strategy}: {stderr}");
        assert!(stderr.contains("E has arity 5"), "{strategy}: {stderr}");
        assert!(!stderr.contains("panicked"), "{strategy}: {stderr}");
        assert!(run.stdout.is_empty(), "{strategy}: nothing ran");
    }
    let run = simulate("monotone");
    let out = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "monotone: {out}");
    assert!(
        out.contains("% matches centralized evaluation: true"),
        "{out}"
    );
    assert_eq!(fact_lines(&out), ["out_O(1).", "out_O(2)."]);
}

#[test]
fn a_fault_clause_outside_the_run_is_refused_by_name() {
    // A clause naming a node outside `--nodes`, or a worker outside the
    // ring the run starts, would inject nothing, and the run would exit
    // 0 as if it had survived the fault. It is refused before anything
    // runs, by name.
    let inputs = write_inputs("range", TC);
    let refusal = |engine: &[&str], spec: &str| {
        let mut cmd = calm();
        cmd.args(["simulate", &inputs.program, &inputs.facts, "--nodes", "4"]);
        let run = cmd.args(engine).args(["--faults", spec]).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr).to_string();
        assert_eq!(run.status.code(), Some(1), "{spec}: {stderr}");
        assert!(run.stdout.is_empty(), "{spec}: nothing ran");
        stderr
    };
    let threaded = ["--engine", "threaded", "--workers", "2"];
    for (spec, named) in [
        (
            "crash=9@1,link=7>8:drop=1.0,partition=5>6@0..100",
            "clause 'crash=9@1' names node 9",
        ),
        (
            "seed=3,link=1>4:drop=1.0",
            "clause 'link=1>4:drop=1.0' names node 4",
        ),
        (
            "partition=5>0@0..100",
            "clause 'partition=5>0@0..100' names node 5",
        ),
    ] {
        let stderr = refusal(&threaded, spec);
        assert!(stderr.contains(named), "{spec}: {stderr}");
    }
    let stderr = refusal(
        &["--engine", "process", "--procs", "2"],
        "pkill(worker=5@step=1)",
    );
    assert!(
        stderr.contains("clause 'pkill(worker=5@step=1)' names worker 5"),
        "{stderr}"
    );
}

#[test]
fn process_engine_matches_sequential_for_every_family() {
    for (tag, program, strategy) in [
        ("m", TC, "monotone"),
        ("d", TC, "distinct"),
        ("j", QTC, "disjoint"),
    ] {
        let inputs = write_inputs(tag, program);
        let seq = calm()
            .args([
                "simulate",
                &inputs.program,
                &inputs.facts,
                "--nodes",
                "4",
                "--strategy",
                strategy,
            ])
            .output()
            .unwrap();
        assert!(seq.status.success(), "{strategy}: sequential run failed");
        let seq_out = String::from_utf8(seq.stdout).unwrap();
        assert!(
            seq_out.contains("% matches centralized evaluation: true"),
            "{strategy}: {seq_out}"
        );
        for procs in ["2", "4"] {
            let run = calm()
                .args([
                    "simulate",
                    &inputs.program,
                    &inputs.facts,
                    "--nodes",
                    "4",
                    "--strategy",
                    strategy,
                    "--engine",
                    "process",
                    "--procs",
                    procs,
                ])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr).to_string();
            assert!(run.status.success(), "{strategy} x{procs}: {stderr}");
            let out = String::from_utf8(run.stdout).unwrap();
            assert!(
                out.contains(&format!("% engine: process, procs: {procs}")),
                "{strategy} x{procs}: {out}"
            );
            assert!(
                out.contains("% quiescent: true"),
                "{strategy} x{procs}: {out}"
            );
            assert!(out.contains("token passes:"), "{strategy} x{procs}: {out}");
            assert!(
                out.contains("% matches centralized evaluation: true"),
                "{strategy} x{procs}: {out}"
            );
            assert_eq!(
                fact_lines(&seq_out),
                fact_lines(&out),
                "{strategy} x{procs}: process output differs from sequential"
            );
        }
    }
}

#[test]
fn process_engine_runs_fault_plans_end_to_end() {
    let inputs = write_inputs("faults", TC);
    let seq = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
        ])
        .output()
        .unwrap();
    assert!(seq.status.success());
    let seq_out = String::from_utf8(seq.stdout).unwrap();
    let run = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
            "--engine",
            "process",
            "--procs",
            "2",
            "--faults",
            "seed=7,drop=0.1,dup=0.05",
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = String::from_utf8(run.stdout).unwrap();
    assert!(out.contains("% fault stats:"), "{out}");
    assert!(out.contains("attempts="), "{out}");
    assert!(out.contains("% quiescent: true"), "{out}");
    assert_eq!(
        fact_lines(&seq_out),
        fact_lines(&out),
        "faulty run diverged"
    );
}

#[test]
fn killed_worker_exits_nonzero_with_flight_dump_instead_of_hanging() {
    // CALM_NET_WORKER_DIE=1 makes worker 1 exit(3) right after the
    // handshake — the socket-level signature of a `kill -9` mid-run.
    // The coordinator must come back (not hang on the headless token
    // ring), name the dead worker, exit nonzero, and leave a
    // flight-recorder dump.
    let inputs = write_inputs("kill", TC);
    let dump = inputs.dir.join("flight.jsonl");
    let prefix = inputs.dir.join("trace");
    let run = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
            "--engine",
            "process",
            "--procs",
            "3",
            "--flight-recorder",
            &dump.display().to_string(),
            "--trace-out",
            &prefix.display().to_string(),
        ])
        .env("CALM_NET_WORKER_DIE", "1")
        .output()
        .unwrap();
    assert!(!run.status.success(), "a lost worker must exit nonzero");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("worker(s) 1 died mid-run"), "{stderr}");
    assert!(stderr.contains("not quiescent"), "{stderr}");
    let text = std::fs::read_to_string(&dump).expect("flight dump written");
    assert!(text.contains("\"type\":\"flight_dump\""), "{text}");
    assert!(text.contains("worker_down"), "{text}");
    // The dying worker flushes its own trace before exit(3): the file
    // must exist, record the `worker_die` event, and every line must be
    // a complete JSONL record — no torn tail from an unflushed buffer.
    let died = std::fs::read_to_string(inputs.dir.join("trace.worker1.jsonl"))
        .expect("dying worker flushed its trace");
    assert!(died.contains("worker_die"), "{died}");
    assert!(died.ends_with('\n'), "trace file has a torn final line");
    for line in died.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"type\":"),
            "malformed JSONL line in dying worker's trace: {line}"
        );
    }
}

#[test]
fn pkill_plan_respawns_workers_and_matches_sequential() {
    // The acceptance run: two scripted process kills under --procs 4,
    // supervised respawn + restore, byte-identical output, exit 0.
    // One node per worker, and a node that forwards nothing is sure of
    // two steps only (its first, and one more for what that one did or
    // for what arrives after it): the kills are at steps 1 and 2.
    let inputs = write_inputs("pkill", TC);
    let seq = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
        ])
        .output()
        .unwrap();
    assert!(seq.status.success());
    let seq_out = String::from_utf8(seq.stdout).unwrap();
    let run = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
            "--engine",
            "process",
            "--procs",
            "4",
            "--faults",
            "seed=7,pkill(worker=1@step=1),pkill(worker=2@step=2)",
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = String::from_utf8(run.stdout).unwrap();
    assert!(out.contains("% quiescent: true"), "{out}");
    assert!(out.contains("% supervision: respawns: 2"), "{out}");
    assert!(
        out.contains("% matches centralized evaluation: true"),
        "{out}"
    );
    assert_eq!(
        fact_lines(&seq_out),
        fact_lines(&out),
        "supervised run with kills diverged from sequential"
    );
}

#[test]
fn respawn_budget_zero_turns_a_pkill_into_a_hard_failure() {
    // Same kill plan, no budget: the supervisor may not respawn, so the
    // worker's death is terminal — nonzero exit and a flight dump.
    let inputs = write_inputs("budget0", TC);
    let dump = inputs.dir.join("flight.jsonl");
    let run = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
            "--engine",
            "process",
            "--procs",
            "2",
            "--faults",
            "seed=7,pkill(worker=1@step=3)",
            "--respawn-budget",
            "0",
            "--flight-recorder",
            &dump.display().to_string(),
        ])
        .output()
        .unwrap();
    assert!(
        !run.status.success(),
        "budget 0 must make a killed worker fatal"
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("worker(s) 1 died mid-run"), "{stderr}");
    let text = std::fs::read_to_string(&dump).expect("flight dump written");
    assert!(text.contains("\"type\":\"flight_dump\""), "{text}");
}

#[test]
fn per_worker_traces_merge_into_one_causally_complete_report() {
    let inputs = write_inputs("trace", TC);
    let prefix = inputs.dir.join("trace");
    let run = calm()
        .args([
            "simulate",
            &inputs.program,
            &inputs.facts,
            "--nodes",
            "4",
            "--strategy",
            "monotone",
            "--engine",
            "process",
            "--procs",
            "2",
            "--trace-out",
            &prefix.display().to_string(),
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // The coordinator writes PREFIX.jsonl; each worker writes its own
    // PREFIX.workerK.jsonl (suffixed by the coordinator in the Assign).
    let coord = inputs.dir.join("trace.jsonl");
    let w0 = inputs.dir.join("trace.worker0.jsonl");
    let w1 = inputs.dir.join("trace.worker1.jsonl");
    for p in [&coord, &w0, &w1] {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("missing trace file {}: {e}", p.display()));
        assert!(!text.is_empty(), "{} is empty", p.display());
    }
    // One worker's file alone is causally torn: it records deliveries
    // of messages whose sends live in the *other* worker's file.
    let solo = calm()
        .args(["trace", "report", &w0.display().to_string()])
        .output()
        .unwrap();
    assert!(
        !solo.status.success(),
        "a lone worker trace must fail the causal invariants"
    );
    assert!(
        String::from_utf8_lossy(&solo.stderr).contains("no matching send"),
        "{}",
        String::from_utf8_lossy(&solo.stderr)
    );
    // Merged, the happens-before graph is whole again.
    let merged = calm()
        .args([
            "trace",
            "report",
            &coord.display().to_string(),
            &w0.display().to_string(),
            &w1.display().to_string(),
        ])
        .output()
        .unwrap();
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    let report = String::from_utf8(merged.stdout).unwrap();
    assert!(report.contains("invariants: ok"), "{report}");
    assert!(report.contains("links (origin -> dst):"), "{report}");
}
