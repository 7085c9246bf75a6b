//! The `calm` binary: see [`calm_cli::USAGE`].

use calm_cli::*;
use std::borrow::Cow;
use std::io::{self, Write};

/// Why `calm` did not do what it was asked.
#[derive(Debug)]
enum Failure {
    /// The command line names no command of ours, or a flag the command
    /// does not have: the usage text is the answer.
    Usage(CliError),
    /// The command was understood and failed — a file that is not
    /// there, facts that do not parse, a trace that breaks an invariant,
    /// a worker that died: the message says it all.
    Run(StreamError),
}

impl<E: Into<StreamError>> From<E> for Failure {
    fn from(e: E) -> Self {
        Failure::Run(e.into())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::BufWriter::new(io::stdout().lock());
    let run = dispatch(&args, &mut out).and_then(|()| Ok(out.flush()?));
    match run {
        Ok(()) => return,
        // The reader went away (`calm eval … | head -1`): not a failure
        // of ours, and nobody is left to tell.
        Err(Failure::Run(StreamError::Stdout(e))) if e.kind() == io::ErrorKind::BrokenPipe => {
            return
        }
        Err(Failure::Run(StreamError::Stdout(e))) => eprintln!("error: stdout: {e}"),
        Err(Failure::Run(StreamError::Command(e))) => eprintln!("error: {e}"),
        Err(Failure::Usage(e)) => eprintln!("error: {e}\n{USAGE}"),
    }
    std::process::exit(1);
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))
}

/// The flags each command accepts, and whether each takes a value
/// (`None` for a command that is not one of ours).
fn flags_of(cmd: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match cmd {
        "eval" => &[
            ("--updates", true),
            ("--from-scratch", false),
            ("--eval-threads", true),
            ("--trace-out", true),
            ("--metrics", false),
            ("--dump-plan", false),
            ("--flight-recorder", true),
        ],
        "wfs" => &[("--eval-threads", true)],
        "classify" | "stratify" => &[],
        "check" => &[("--class", true), ("--trials", true)],
        "simulate" => &[
            ("--nodes", true),
            ("--strategy", true),
            ("--engine", true),
            ("--workers", true),
            ("--procs", true),
            ("--respawn-budget", true),
            ("--eval-threads", true),
            ("--faults", true),
            ("--trace", false),
            ("--trace-out", true),
            ("--metrics", false),
            ("--dump-plan", false),
            ("--flight-recorder", true),
        ],
        "trace" => &[("--json", false)],
        "net-worker" => &[("--connect", true), ("--worker", true)],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Every usage mistake, found before anything runs: a command that is
/// not one of ours and what the lookups below would silently ignore — a
/// flag the command does not have, a value-taking flag followed by
/// nothing or by another flag.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), CliError> {
    let Some(table) = flags_of(cmd) else {
        return Err(CliError(format!("unknown command '{cmd}'")));
    };
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match table.iter().find(|(flag, _)| flag == arg) {
            None => return Err(CliError(format!("unknown flag '{arg}' for 'calm {cmd}'"))),
            Some((_, false)) => {}
            // The value is consumed here, so it is never taken for a
            // flag or a file itself.
            Some((_, true)) => match rest.next() {
                Some(value) if !value.starts_with("--") => {}
                _ => return Err(CliError(format!("{arg} expects a value"))),
            },
        }
    }
    Ok(())
}

/// Whether the valueless flag `name` was given.
fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn obs_options(args: &[String]) -> ObsOptions {
    ObsOptions {
        trace_out: flag_value(args, "--trace-out").map(Into::into),
        flight_recorder: flag_value(args, "--flight-recorder").map(Into::into),
        metrics: has(args, "--metrics"),
        dump_plan: has(args, "--dump-plan"),
    }
}

/// The numeric value of flag `name`, if it was given.
fn number_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError> {
    flag_value(args, name)
        .map(|n| {
            n.parse()
                .map_err(|_| CliError(format!("{name} must be a number")))
        })
        .transpose()
}

fn eval_threads(args: &[String]) -> Result<usize, CliError> {
    match number_flag(args, "--eval-threads") {
        Ok(Some(n)) if n >= 1 => Ok(n),
        Ok(None) => Ok(1),
        _ => Err(CliError("--eval-threads must be a number >= 1".into())),
    }
}

/// Run the command `args` name, writing its output to `out`. A command
/// that fails has written nothing.
fn dispatch(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    check_flags(cmd, args).map_err(Failure::Usage)?;
    if cmd == "eval" {
        return Ok(eval(args, out)?);
    }
    let text = buffered(cmd, args)?;
    Ok(out.write_all(text.as_bytes())?)
}

/// `calm eval`: the command that writes as it goes.
fn eval(args: &[String], out: &mut dyn Write) -> Result<(), StreamError> {
    let (p, f) = two_files(args)?;
    let (from_scratch, updates) = (has(args, "--from-scratch"), flag_value(args, "--updates"));
    if from_scratch && updates.is_none() {
        return Err(CliError("--from-scratch only applies to --updates <file>".into()).into());
    }
    let (program, facts, opts) = (read(p)?, read(f)?, obs_options(args));
    match updates {
        Some(u) => {
            let (updates, threads) = (read(u)?, eval_threads(args)?);
            cmd_eval_updates_to(
                &program,
                &facts,
                &updates,
                from_scratch,
                &opts,
                threads,
                out,
            )
        }
        None => cmd_eval_full_to(&program, Cow::Owned(facts), &opts, eval_threads(args)?, out),
    }
}

/// Every other command: its whole output, for `dispatch` to write.
fn buffered(cmd: &str, args: &[String]) -> Result<String, CliError> {
    match cmd {
        "wfs" => {
            let (p, f) = two_files(args)?;
            cmd_wfs(&read(p)?, &read(f)?, eval_threads(args)?)
        }
        "classify" => cmd_classify(&read(one_file(args)?)?),
        "stratify" => cmd_stratify(&read(one_file(args)?)?),
        "check" => {
            let p = one_file(args)?;
            let class = flag_value(args, "--class").unwrap_or("m");
            let trials = number_flag(args, "--trials")?.unwrap_or(200);
            cmd_check(&read(p)?, class, trials)
        }
        "simulate" => {
            let (p, f) = two_files(args)?;
            let nodes = number_flag(args, "--nodes")?.unwrap_or(3);
            let strategy = flag_value(args, "--strategy").unwrap_or("monotone");
            let trace = has(args, "--trace");
            let engine = parse_engine(
                flag_value(args, "--engine"),
                number_flag(args, "--workers")?,
                number_flag(args, "--procs")?,
                flag_value(args, "--faults"),
                number_flag(args, "--respawn-budget")?,
            )?;
            cmd_simulate_run(
                &read(p)?,
                &read(f)?,
                nodes,
                strategy,
                trace,
                &obs_options(args),
                engine,
                eval_threads(args)?,
            )
        }
        "trace" => {
            if args.get(1).map(String::as_str) != Some("report") {
                return Err(CliError("expected 'trace report <trace.jsonl>...'".into()));
            }
            // Every non-flag argument is a trace file; multiple files
            // (the per-worker traces of a process-engine run) merge
            // into one happens-before analysis.
            let paths: Vec<std::path::PathBuf> = args[2..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(std::path::PathBuf::from)
                .collect();
            cmd_trace_report(&paths, has(args, "--json"))
        }
        // Hidden: the worker half of `--engine process`. Spawned by the
        // coordinator, never by hand.
        "net-worker" => {
            let addr = flag_value(args, "--connect")
                .ok_or_else(|| CliError("net-worker: expected --connect ADDR".into()))?;
            let worker = number_flag(args, "--worker")?
                .ok_or_else(|| CliError("net-worker: expected --worker K".into()))?;
            cmd_net_worker(addr, worker)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => unreachable!("check_flags let '{other}' through"),
    }
}

/// The `k`-th argument: the `what` file.
fn file<'a>(args: &'a [String], k: usize, what: &str) -> Result<&'a str, CliError> {
    let named = args.get(k).filter(|a| !a.starts_with("--"));
    named
        .map(String::as_str)
        .ok_or_else(|| CliError(format!("expected a {what} file")))
}

fn one_file(args: &[String]) -> Result<&str, CliError> {
    file(args, 1, "program")
}

fn two_files(args: &[String]) -> Result<(&str, &str), CliError> {
    Ok((file(args, 1, "program")?, file(args, 2, "facts")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The message `dispatch` fails with, having written nothing, and
    /// whether the usage text goes with it.
    fn failed(words: &[&str]) -> (String, bool) {
        let mut out = Vec::new();
        let (e, usage) = match dispatch(&args(words), &mut out) {
            Err(Failure::Run(StreamError::Command(e))) => (e, false),
            Err(Failure::Usage(e)) => (e, true),
            other => panic!("expected a command failure, got {other:?}"),
        };
        assert!(out.is_empty(), "a failing command writes nothing");
        (e.0, usage)
    }

    /// The message of a command that was understood and failed.
    fn failure(words: &[&str]) -> String {
        let (message, usage) = failed(words);
        assert!(!usage, "not a usage mistake: {message}");
        message
    }

    #[test]
    fn from_scratch_without_updates_is_a_usage_error() {
        // Used to be silently ignored (a plain `eval` ran instead).
        let err = failure(&["eval", "p.dl", "f.dl", "--from-scratch"]);
        assert!(
            err.contains("--from-scratch only applies to --updates"),
            "{err}"
        );
        // With --updates the flag is accepted: the error is the missing file.
        let err = failure(&[
            "eval",
            "/nonexistent/p.dl",
            "f.dl",
            "--updates",
            "u.dl",
            "--from-scratch",
        ]);
        assert!(err.contains("/nonexistent/p.dl"), "{err}");
    }

    /// `dispatch` must fail before touching any file, naming the flag.
    fn usage_error(words: &[&str]) -> String {
        let (err, usage) = failed(words);
        assert!(usage, "a usage mistake: {err}");
        assert!(!err.contains("p.dl"), "flags are checked first: {err}");
        err
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error() {
        // A typo used to run silently with the default (1 thread).
        let err = usage_error(&["eval", "p.dl", "f.dl", "--eval-thread", "4"]);
        assert!(err.contains("unknown flag '--eval-thread'"), "{err}");
        // Another command's flag is just as unknown here.
        let err = usage_error(&["wfs", "p.dl", "f.dl", "--nodes", "3"]);
        assert!(
            err.contains("unknown flag '--nodes' for 'calm wfs'"),
            "{err}"
        );
        let err = usage_error(&["classify", "p.dl", "--json"]);
        assert!(err.contains("unknown flag '--json'"), "{err}");
        // The hidden commands have tables too.
        let err = usage_error(&["net-worker", "--connect", "a:1", "--worker", "0", "--x"]);
        assert!(err.contains("unknown flag '--x'"), "{err}");
        let err = usage_error(&["trace", "report", "t.jsonl", "--jsonl"]);
        assert!(err.contains("unknown flag '--jsonl'"), "{err}");
    }

    #[test]
    fn an_unknown_command_is_a_usage_error_and_help_is_not() {
        let err = usage_error(&["evaluate", "p.dl", "f.dl"]);
        assert_eq!(err, "unknown command 'evaluate'");
        for help in [&["help"][..], &["--help"], &["-h"], &[]] {
            let mut out = Vec::new();
            dispatch(&args(help), &mut out).expect("help is a command");
            assert_eq!(out, USAGE.as_bytes());
        }
    }

    #[test]
    fn a_flag_without_its_value_is_a_usage_error() {
        // Used to fall back to 3 nodes.
        let err = usage_error(&["simulate", "p.dl", "f.dl", "--nodes"]);
        assert!(err.contains("--nodes expects a value"), "{err}");
        // Used to write artifacts under the prefix `--metrics`.
        let err = usage_error(&["eval", "p.dl", "f.dl", "--trace-out", "--metrics"]);
        assert!(err.contains("--trace-out expects a value"), "{err}");
        let err = usage_error(&["net-worker", "--connect", "--worker", "0"]);
        assert!(err.contains("--connect expects a value"), "{err}");
    }

    #[test]
    fn trace_with_the_process_engine_is_refused_before_anything_runs() {
        // Used to print `% trace (0 transitions):` over a run of ten:
        // the transitions happen in the worker processes.
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
        let (p, f) = (format!("{data}/tc.dl"), format!("{data}/graph.facts"));
        let err = failure(&["simulate", &p, &f, "--engine", "process", "--trace"]);
        assert!(err.contains("--trace-out PREFIX"), "{err}");
        assert!(err.contains("calm trace report"), "{err}");
        // Before the facts are even parsed.
        let err = failure(&["simulate", &p, &p, "--engine", "process", "--trace"]);
        assert!(err.contains("--trace-out PREFIX"), "{err}");
    }

    #[test]
    fn a_count_that_is_not_a_number_is_refused_by_name() {
        for (engine, flag) in [
            ("sequential", "--nodes"),
            ("threaded", "--workers"),
            ("process", "--procs"),
            ("process", "--respawn-budget"),
        ] {
            let err = failure(&["simulate", "p.dl", "f.dl", "--engine", engine, flag, "two"]);
            assert_eq!(err, format!("{flag} must be a number"));
        }
        let err = failure(&["net-worker", "--connect", "a:1", "--worker", "one"]);
        assert_eq!(err, "--worker must be a number");
        let err = failure(&["trace", "report", "--json"]);
        assert_eq!(err, "expected at least one trace file");
    }

    #[test]
    fn a_refused_simulate_run_leaves_no_artefact() {
        // `--nodes 0` used to be refused after the sinks had opened,
        // leaving `run.jsonl` and `run.trace.json` behind.
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
        let (p, f) = (format!("{data}/tc.dl"), format!("{data}/graph.facts"));
        let root = std::env::temp_dir().join(format!("calm-cli-refused-{}", std::process::id()));
        let prefix = root.join("tz").join("run").display().to_string();
        let flight = root.join("flight").join("dump.jsonl").display().to_string();
        let sinks = ["--trace-out", &prefix, "--flight-recorder", &flight];
        for (refused, says) in [
            (&["--nodes", "0"][..], "--nodes must be at least 1"),
            (
                &[
                    "--nodes",
                    "4",
                    "--engine",
                    "threaded",
                    "--faults",
                    "crash=9@1",
                ],
                "names node 9",
            ),
            (&["--engine", "process", "--trace"], "--trace-out PREFIX"),
        ] {
            let words = [&["simulate", &p, &f][..], refused, &sinks].concat();
            let err = failure(&words);
            assert!(err.contains(says), "{refused:?}: {err}");
            assert!(!root.exists(), "{refused:?} left {}", root.display());
        }
    }

    #[test]
    fn every_documented_flag_is_accepted() {
        // All of them at once gets past the flag check: the error is
        // the missing program file.
        let err = failure(&[
            "simulate",
            "/nonexistent/p.dl",
            "f.dl",
            "--nodes",
            "2",
            "--strategy",
            "monotone",
            "--engine",
            "process",
            "--procs",
            "2",
            "--respawn-budget",
            "1",
            "--eval-threads",
            "2",
            "--faults",
            "seed=1,drop=0.1",
            "--trace",
            "--trace-out",
            "t",
            "--metrics",
            "--dump-plan",
            "--flight-recorder",
            "f.jsonl",
        ]);
        assert!(err.contains("/nonexistent/p.dl"), "{err}");
        let err = failure(&["trace", "report", "/nonexistent/t.jsonl", "--json"]);
        assert!(err.contains("/nonexistent/t.jsonl"), "{err}");
    }
}
