//! What only the real binary can show about `calm`'s standard streams:
//! a reader that goes away ends the run quietly, a command that fails
//! has written nothing to its output and exactly its message to its
//! error stream — the usage text follows a usage mistake and nothing
//! else — the plan `--dump-plan` asks for under `--updates` precedes
//! the answers in both modes, every command spells a string so that it
//! reads back and reads one input, and the three engines print one
//! answer — `calm eval`'s.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn calm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_calm"))
}

/// A scratch directory removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let dir =
            std::env::temp_dir().join(format!("calm-cli-stdout-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    fn file(&self, name: &str, text: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `calm args` prints on a successful run.
fn stdout(args: &[&str]) -> String {
    let run = calm().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{args:?}: {stderr}");
    String::from_utf8(run.stdout).unwrap()
}

#[test]
fn a_reader_that_goes_away_ends_the_run_quietly() {
    // `calm eval … | head -1` used to end in `failed printing to
    // stdout: Broken pipe`, a backtrace and status 101. The answer is
    // 20 000 lines, several pipe buffers: the child is still writing
    // when the pipe closes.
    let dir = Dir::new("pipe");
    let program = dir.file("copy.dl", "@output O.\nO(x,y) :- E(x,y).\n");
    let edges: String = (0..20_000)
        .map(|i| format!("E({i},{}).\n", (i * 7919) % 20_000))
        .collect();
    let facts = dir.file("graph.facts", &edges);
    let mut child = calm()
        .args(["eval", &program, &facts])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "O(0,0).\n");
    drop(stdout);
    let run = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn a_failing_eval_writes_nothing_to_stdout() {
    let dir = Dir::new("fail");
    let tc = dir.file(
        "tc.dl",
        "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n",
    );
    let winmove = dir.file("winmove.dl", "win(x) :- move(x,y), not win(y).\n");
    let facts = dir.file("graph.facts", "E(1,2). E(2,3).\n");
    // The last fact of 2 MB lacks its `.`: everything before it scans.
    let mut long = "E(1,2). E(2,3).\n".repeat(130_000);
    long.push_str("E(3,4)");
    let unterminated = dir.file("long.facts", &long);
    let updates = dir.file("bad.updates", "+ E(3,4).\n---\nE(4,5).\n");
    let cases: [(&[&str], &str); 4] = [
        (
            &["eval", &tc, &unterminated],
            "error: facts: parse error at byte 2080006: expected '.'\n",
        ),
        (
            &["eval", &winmove, &facts, "--dump-plan"],
            "error: evaluation: program is not syntactically stratifiable (negative cycle through win)\n",
        ),
        (
            &["eval", &tc, &facts, "--updates", &updates],
            "error: updates: line 3: expected `+ Fact.`, `- Fact.` or `---`, got: E(4,5).\n",
        ),
        (
            &["eval", &tc, &facts, "--updates", &updates, "--from-scratch"],
            "error: updates: line 3: expected `+ Fact.`, `- Fact.` or `---`, got: E(4,5).\n",
        ),
    ];
    for (args, message) in cases {
        let run = calm().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?}: wrote {:?}", run.stdout);
        assert_eq!(stderr, message, "{args:?}");
    }
}

#[test]
fn a_plan_asked_for_under_updates_precedes_the_initial_answer_in_both_modes() {
    let dir = Dir::new("plan");
    let tc = dir.file(
        "tc.dl",
        "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n",
    );
    let facts = dir.file("graph.facts", "E(1,2). E(2,3).\n");
    let updates = dir.file("graph.updates", "- E(2,3).\n+ E(3,1).\n");
    let expected = "% plan:\n\
                    %   stratum 0:\n\
                    %     T#0: E[scan]\n\
                    %     T#1: T[scan], E[probe@0]\n\
                    %     T#1: T[delta], E[probe@0]\n\
                    % initial\n\
                    T(1,2).\nT(1,3).\nT(2,3).\n\
                    % after batch 1\n\
                    T(1,2).\nT(3,1).\nT(3,2).\n";
    for mode in [&[][..], &["--from-scratch"]] {
        let run = calm()
            .args(["eval", &tc, &facts, "--updates", &updates, "--dump-plan"])
            .args(mode)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{mode:?}: {stderr}");
        assert!(stderr.is_empty(), "{mode:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&run.stdout), expected, "{mode:?}");
    }
}

#[test]
fn distinct_strings_print_apart_and_read_back() {
    // `"5"` and `5` used to print alike, `""` as nothing and `"x,y"` as
    // two values: four facts came out as one line four times, and the
    // answer could not be read back. A string that is not an identifier
    // prints quoted, under every command and both `eval` printers.
    let dir = Dir::new("quoted");
    let copy = dir.file("copy.dl", "@output P.\nP(x,y) :- E(x,y).\n");
    let facts = dir.file(
        "quoted.facts",
        "E(\"5\",5). E(5,\"5\"). E(5,5). E(\"5\",\"5\").\nE(\"x,y\",\"\"). E(\"a b\",a).\n",
    );
    let updates = dir.file("quoted.updates", "+ E(\"(\",b).\n");
    let answer =
        "P(5,5).\nP(5,\"5\").\nP(\"5\",5).\nP(\"5\",\"5\").\nP(\"a b\",a).\nP(\"x,y\",\"\").\n";
    assert_eq!(stdout(&["eval", &copy, &facts]), answer);
    assert_eq!(stdout(&["wfs", &copy, &facts]), format!("% true\n{answer}"));
    let simulated = stdout(&["simulate", &copy, &facts, "--nodes", "2"]);
    let out: String = (simulated.lines())
        .filter(|line| !line.starts_with('%'))
        .map(|line| format!("{}\n", line.strip_prefix("out_").unwrap()))
        .collect();
    assert_eq!(out, answer);
    let after = "P(5,5).\nP(5,\"5\").\nP(\"(\",b).\nP(\"5\",5).\nP(\"5\",\"5\").\nP(\"a b\",a).\nP(\"x,y\",\"\").\n";
    let maintained = format!("% initial\n{answer}% after batch 1\n{after}");
    for mode in [&[][..], &["--from-scratch"]] {
        let args = [&["eval", &copy, &facts, "--updates", &updates][..], mode].concat();
        assert_eq!(stdout(&args), maintained, "{mode:?}");
    }
    // The answer, read as facts, is the answer again.
    let printed = dir.file("printed.facts", &answer.replace("P(", "E("));
    assert_eq!(stdout(&["eval", &copy, &printed]), answer);
}

#[test]
fn a_run_failure_prints_its_message_and_only_a_usage_mistake_the_usage_text() {
    // Every failure used to end in the 90-line usage text: a missing
    // file, a broken trace, a dead worker.
    let dir = Dir::new("stderr");
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let (tc, graph) = (format!("{data}/tc.dl"), format!("{data}/graph.facts"));
    let missing = dir.0.join("no.dl").display().to_string();
    // One worker's half of a run: a delivery whose send is in another file.
    let trace = dir.file(
        "p.worker0.jsonl",
        "{\"type\":\"event\",\"cat\":\"trace\",\"name\":\"deliver\",\"track\":1,\"ts_us\":5,\
         \"args\":{\"origin\":2,\"seq\":0,\"dst\":0,\"facts\":1}}\n",
    );
    let usage = calm_cli::USAGE;
    let process = ["--nodes", "4", "--engine", "process", "--procs", "2"];
    let died: Vec<&str> = ["simulate", &tc, &graph]
        .into_iter()
        .chain(process)
        .collect();
    let cases: [(&[&str], String); 5] = [
        (
            &["eval", &missing, &graph],
            format!("error: {missing}: No such file or directory (os error 2)\n"),
        ),
        (
            &["trace", "report", &trace],
            "error: trace invariants violated (1): deliver of (2,0) at node 0 has no matching send\n"
                .to_string(),
        ),
        (
            &died,
            "error: process engine: worker(s) 1 died mid-run; run is not quiescent\n".to_string(),
        ),
        (
            &["evaluate", &tc, &graph],
            format!("error: unknown command 'evaluate'\n{usage}\n"),
        ),
        (
            &["simulate", &tc, &graph, "--node", "4"],
            format!("error: unknown flag '--node' for 'calm simulate'\n{usage}\n"),
        ),
    ];
    for (args, message) in cases {
        // Worker 1 of the process run exits right after its handshake.
        let run = calm().args(args).env("CALM_NET_WORKER_DIE", "1").output();
        let run = run.unwrap();
        assert_eq!(run.status.code(), Some(1), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}: wrote {:?}", run.stdout);
        assert_eq!(String::from_utf8_lossy(&run.stderr), message, "{args:?}");
    }
}

#[test]
fn a_deeply_nested_trace_line_is_one_unparsed_line() {
    // 30 000 unclosed objects on one line (180 KB) used to overflow the
    // JSON parser's stack and abort the process.
    let dir = Dir::new("nested");
    let trace = dir.file("deep.jsonl", &format!("{}\n", r#"{"a":"#.repeat(30_000)));
    let run = calm().args(["trace", "report", &trace]).output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    let out = String::from_utf8(run.stdout).unwrap();
    assert!(out.contains("\nunparsed lines: 1\n"), "{out}");
}

#[test]
fn the_three_engines_print_one_answer_and_none_builds_a_nodes_state_for_it() {
    // `out(R)` is united from rows on every engine, once — by `simulate`,
    // into the table of its input: no engine builds it on its own — and
    // the per-node `Instance`s are for a caller that asks, and `simulate`
    // does not.
    let dir = Dir::new("engines");
    let edges: String = (0..40)
        .map(|i| format!("E({i},{}). ", (i * 7) % 40))
        .collect();
    let facts = dir.file("ring.facts", &edges);
    let tc = dir.file(
        "tc.dl",
        "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n",
    );
    let simulate = |engine: &[&str]| {
        let run = calm()
            .args(["simulate", &tc, &facts, "--nodes", "4", "--metrics"])
            .args(engine)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{engine:?}: {stderr}");
        let out = String::from_utf8(run.stdout).unwrap();
        let finish = out.lines().find(|l| l.starts_with("  runtime/finish "));
        let n = finish.and_then(|l| l.split_whitespace().find_map(|w| w.strip_prefix("n=")));
        assert_eq!(n, Some("1"), "{engine:?}: {out}");
        assert!(!out.contains("states.materialized"), "{engine:?}: {out}");
        let (_, answer) = (out.split_once("% matches centralized evaluation: true\n"))
            .unwrap_or_else(|| panic!("{engine:?}: {out}"));
        answer.to_string()
    };
    // `calm eval`'s answer, each relation renamed to `out_R`.
    let eval: String = (stdout(&["eval", &tc, &facts]).lines())
        .map(|line| format!("out_{line}\n"))
        .collect();
    assert!(eval.lines().count() > 40, "{eval}");
    for engine in [
        &[][..],
        &["--engine", "threaded", "--workers", "1"],
        &["--engine", "threaded", "--workers", "2"],
        &["--engine", "process", "--procs", "2"],
    ] {
        assert_eq!(simulate(engine), eval, "{engine:?}");
    }
}

#[test]
fn eval_prints_the_same_bytes_through_the_owned_and_the_borrowed_door() {
    // The binary hands `calm eval` its facts text by value, to be dropped
    // once read; `cmd_eval_full` lends its own. `--updates` reads borrowed
    // texts through both doors and must print alike too. After the
    // fixpoint every relation outside the output schema is freed: `E`,
    // `Adom` and an unread `T` go, an output another rule reads (`C`,
    // `T`) or of its own arity (`P`) stays.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let dir = Dir::new("doors");
    let copy = concat!(
        "@output C, T.\nC(x, y) :- E(x, y).\n",
        "T(x, y) :- C(x, y).\nT(x, z) :- T(x, y), C(y, z).\n"
    );
    let arity = "@output P.\nT(x, y) :- E(x, y).\nP(x) :- T(x, y), not E(y, x).\n";
    let facts = "E(1,2). E(2,3). E(3,1). E(4,4). E(4,5). E(5). T(7,8).\n";
    let read = |name: &str| std::fs::read_to_string(format!("{data}/{name}")).unwrap();
    let programs = [
        ("tc.dl", read("tc.dl")),
        ("qtc.dl", read("qtc.dl")),
        ("copy.dl", copy.to_string()),
        ("arity.dl", arity.to_string()),
    ];
    let (facts_file, updates) = (dir.file("g.facts", facts), format!("{data}/graph.updates"));
    let none = calm_cli::ObsOptions::default();
    for (name, program) in &programs {
        let file = dir.file(name, program);
        let borrowed = calm_cli::cmd_eval_full(program, facts, &none, 1).unwrap();
        assert_eq!(stdout(&["eval", &file, &facts_file]), borrowed, "{name}");
        for from_scratch in [false, true] {
            let borrowed = calm_cli::cmd_eval_updates(
                program,
                facts,
                &read("graph.updates"),
                from_scratch,
                &none,
                1,
            );
            let mut args = vec!["eval", &file, &facts_file, "--updates", &updates];
            args.extend(from_scratch.then_some("--from-scratch"));
            assert_eq!(stdout(&args), borrowed.unwrap(), "{name} {from_scratch}");
        }
    }
    let c = "C(1,2).\nC(2,3).\nC(3,1).\nC(4,4).\nC(4,5).\n";
    let t = (1..=3).flat_map(|x| (1..=3).map(move |y| format!("T({x},{y}).\n")));
    let answer = format!("{c}{}T(4,4).\nT(4,5).\n", t.collect::<String>());
    assert_eq!(
        stdout(&["eval", &dir.file("copy.dl", copy), &facts_file]),
        answer
    );
    let file = dir.file("arity.dl", arity);
    assert_eq!(
        stdout(&["eval", &file, &facts_file]),
        "P(1).\nP(2).\nP(3).\nP(4).\n"
    );
    // An input relation is never an output: the program is refused.
    let file = dir.file("both.dl", "@output E, T.\nT(x, y) :- E(x, y).\n");
    let run = calm().args(["eval", &file, &facts_file]).output().unwrap();
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8(run.stderr).unwrap();
    assert_eq!(
        stderr,
        "error: program: output relation E is not an idb relation\n"
    );
}

#[test]
fn every_command_reads_only_the_facts_of_the_programs_input_relations() {
    // `T(7,8)` is a fact of a derived relation. `calm eval` and `calm
    // wfs` used to print it, `eval --updates` and `simulate` to leave it
    // out — and `simulate`'s check agreed with the latter. Every command
    // reads the input as `Query::eval` does: the facts of `edb(P)`.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let tc = format!("{data}/tc.dl");
    let dir = Dir::new("input");
    let facts = dir.file("t78.facts", "E(1,2). E(2,3). T(7,8).\n");
    let updates = dir.file("none.updates", "");
    let answer = "T(1,2).\nT(1,3).\nT(2,3).\n";
    assert_eq!(stdout(&["eval", &tc, &facts]), answer);
    for mode in [&[][..], &["--from-scratch"]] {
        let args = [&["eval", &tc, &facts, "--updates", &updates][..], mode].concat();
        assert_eq!(stdout(&args), format!("% initial\n{answer}"), "{mode:?}");
    }
    assert_eq!(stdout(&["wfs", &tc, &facts]), format!("% true\n{answer}"));
    assert_eq!(
        stdout(&["simulate", &tc, &facts, "--nodes", "2"]),
        "% quiescent: true\n\
         % transitions: 6, messages sent: 2, delivered: 2\n\
         % message classes: fact=2, max queue depth: 1\n\
         % matches centralized evaluation: true\n\
         out_T(1,2).\nout_T(1,3).\nout_T(2,3).\n"
    );
}

#[test]
fn every_engine_runs_on_the_facts_of_the_programs_input_relations() {
    // `E(5)` and `E(7,8,9)` share `E`'s name but not its arity, and
    // `T(7,8)` is a fact of a derived relation. The engines used to
    // distribute and broadcast all three — 10, 246 and 158 messages
    // where the input sends 6, 128 and 104 — and still matched.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let (tc, edb) = (format!("{data}/tc.dl"), format!("{data}/graph.facts"));
    let dir = Dir::new("stray");
    let edges = std::fs::read_to_string(&edb).unwrap();
    let stray = dir.file("stray.facts", &format!("{edges}E(5). E(7,8,9). T(7,8).\n"));
    for engine in [
        &[][..],
        &["--engine", "threaded", "--workers", "2"],
        &["--engine", "process", "--procs", "2"],
    ] {
        // A network engine's step count and queue depth follow its
        // schedule; everything else it prints is the run's.
        let scheduled = |out: String| -> String {
            if engine.is_empty() {
                return out;
            }
            (out.lines())
                .filter(|line| !line.starts_with("% per-worker steps:"))
                .map(|line| match line.split_once(", max queue depth:") {
                    Some((counts, _)) => format!("{counts}\n"),
                    None if line.starts_with("% transitions:") => {
                        format!("% transitions: _{}\n", &line[line.find(',').unwrap()..])
                    }
                    None => format!("{line}\n"),
                })
                .collect()
        };
        for strategy in ["monotone", "distinct", "disjoint"] {
            let run = |facts: &str| {
                let args = [
                    "simulate",
                    &tc,
                    facts,
                    "--nodes",
                    "3",
                    "--strategy",
                    strategy,
                ];
                scheduled(stdout(&[&args[..], engine].concat()))
            };
            let expected = run(&edb);
            assert!(
                expected.contains("% matches centralized evaluation: true"),
                "{expected}"
            );
            assert_eq!(run(&stray), expected, "{strategy} {engine:?}");
        }
    }
}

#[test]
fn a_broadcast_of_a_non_monotone_query_does_not_match() {
    // `O` holds of `x` when an edge leaves `x` and none comes back:
    // nothing here, where every edge has its reverse. Node n1 steps
    // first, holding `E(4,3)` but not `E(3,4)`, and outputs `O(4)`; an
    // output is never retracted. The broadcast is for monotone queries.
    let dir = Dir::new("nonmonotone");
    let program = dir.file("o.dl", "O(x) :- E(x,y), not E(y,x).\n");
    let facts = dir.file(
        "sym.facts",
        "E(1,2). E(2,1). E(3,4). E(4,3). E(5,6). E(6,5).\n",
    );
    assert_eq!(
        stdout(&[
            "simulate",
            &program,
            &facts,
            "--nodes",
            "2",
            "--strategy",
            "monotone"
        ]),
        "% quiescent: true\n\
         % transitions: 6, messages sent: 6, delivered: 6\n\
         % message classes: fact=6, max queue depth: 3\n\
         % matches centralized evaluation: false\n\
         out_O(4).\n"
    );
}

#[test]
fn the_engine_header_names_the_worker_count_that_ran() {
    // `--workers 8` on three nodes used to print `workers: 8` above
    // three step counts: the executor clamped silently. Both network
    // engines clamp once, before the header is written.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let (program, facts) = (format!("{data}/tc.dl"), format!("{data}/graph.facts"));
    for (nodes, engine, flag, asked, ran) in [
        ("3", "threaded", "--workers", "8", 3),
        ("1", "threaded", "--workers", "2", 1),
        ("2", "process", "--procs", "5", 2),
    ] {
        let run = calm()
            .args(["simulate", &program, &facts, "--nodes", nodes])
            .args(["--engine", engine, flag, asked])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{engine} {flag} {asked}: {stderr}");
        let out = String::from_utf8(run.stdout).unwrap();
        let mut lines = out.lines();
        let unit = flag.trim_start_matches('-');
        let header = format!("% engine: {engine}, {unit}: {ran}");
        assert_eq!(lines.next(), Some(header.as_str()), "{out}");
        let steps = lines.next().unwrap();
        let steps = steps.strip_prefix("% per-worker steps: ").expect(steps);
        let counts = steps.split(", ").next().unwrap().split(' ').count();
        assert_eq!(counts, ran, "one step count per worker that ran: {out}");
        assert!(
            out.contains("% matches centralized evaluation: true"),
            "{out}"
        );
    }
}
