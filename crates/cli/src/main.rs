//! The `calm` binary: see [`calm_cli::USAGE`].

use calm_cli::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            // Runtime failures inside a spawned net-worker (a scripted
            // pkill, a lost coordinator) are not usage mistakes — keep
            // the supervisor's stderr readable.
            if args.first().map(String::as_str) != Some("net-worker") {
                eprintln!("{USAGE}");
            }
            std::process::exit(1);
        }
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))
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
        metrics: args.iter().any(|a| a == "--metrics"),
        dump_plan: args.iter().any(|a| a == "--dump-plan"),
    }
}

fn eval_threads(args: &[String]) -> Result<usize, CliError> {
    flag_value(args, "--eval-threads")
        .map(|n| {
            n.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| CliError("--eval-threads must be a number >= 1".into()))
        })
        .transpose()
        .map(|n| n.unwrap_or(1))
}

fn dispatch(args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "eval" => {
            let (p, f) = two_files(args)?;
            let from_scratch = args.iter().any(|a| a == "--from-scratch");
            match flag_value(args, "--updates") {
                Some(u) => cmd_eval_updates(
                    &read(p)?,
                    &read(f)?,
                    &read(u)?,
                    from_scratch,
                    &obs_options(args),
                    eval_threads(args)?,
                ),
                None if from_scratch => Err(CliError(
                    "--from-scratch only applies to --updates <file>".into(),
                )),
                None => cmd_eval_full(
                    &read(p)?,
                    &read(f)?,
                    &obs_options(args),
                    eval_threads(args)?,
                ),
            }
        }
        "wfs" => {
            let (p, f) = two_files(args)?;
            cmd_wfs_opts(&read(p)?, &read(f)?, eval_threads(args)?)
        }
        "classify" => cmd_classify(&read(one_file(args)?)?),
        "stratify" => cmd_stratify(&read(one_file(args)?)?),
        "check" => {
            let p = one_file(args)?;
            let class = flag_value(args, "--class").unwrap_or("m");
            let trials: usize = flag_value(args, "--trials")
                .map(|t| {
                    t.parse()
                        .map_err(|_| CliError("--trials must be a number".into()))
                })
                .transpose()?
                .unwrap_or(200);
            cmd_check(&read(p)?, class, trials)
        }
        "simulate" => {
            let (p, f) = two_files(args)?;
            let nodes: usize = flag_value(args, "--nodes")
                .map(|n| {
                    n.parse()
                        .map_err(|_| CliError("--nodes must be a number".into()))
                })
                .transpose()?
                .unwrap_or(3);
            let strategy = flag_value(args, "--strategy").unwrap_or("monotone");
            let trace = args.iter().any(|a| a == "--trace");
            let engine = parse_engine_full(
                flag_value(args, "--engine"),
                flag_value(args, "--workers"),
                flag_value(args, "--procs"),
                flag_value(args, "--faults"),
                flag_value(args, "--respawn-budget"),
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
            match args.get(1).map(String::as_str) {
                Some("report") => {}
                _ => return Err(CliError("expected 'trace report <trace.jsonl>...'".into())),
            }
            // Every non-flag argument is a trace file; multiple files
            // (the per-worker traces of a process-engine run) merge
            // into one happens-before analysis.
            let paths: Vec<std::path::PathBuf> = args[2..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(std::path::PathBuf::from)
                .collect();
            if paths.is_empty() {
                return Err(CliError("expected a trace file".into()));
            }
            let json = args.iter().any(|a| a == "--json");
            cmd_trace_report(&paths, json)
        }
        // Hidden: the worker half of `--engine process`. Spawned by the
        // coordinator, never by hand.
        "net-worker" => {
            let addr = flag_value(args, "--connect")
                .ok_or_else(|| CliError("net-worker: expected --connect ADDR".into()))?;
            let worker: usize = flag_value(args, "--worker")
                .ok_or_else(|| CliError("net-worker: expected --worker K".into()))?
                .parse()
                .map_err(|_| CliError("net-worker: --worker must be a number".into()))?;
            cmd_net_worker(addr, worker)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError(format!("unknown command '{other}'"))),
    }
}

fn one_file(args: &[String]) -> Result<&str, CliError> {
    args.get(1)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError("expected a program file".into()))
}

fn two_files(args: &[String]) -> Result<(&str, &str), CliError> {
    let p = args
        .get(1)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError("expected a program file".into()))?;
    let f = args
        .get(2)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError("expected a facts file".into()))?;
    Ok((p, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn from_scratch_without_updates_is_a_usage_error() {
        // Used to be silently ignored (a plain `eval` ran instead).
        let err = dispatch(&args(&["eval", "p.dl", "f.dl", "--from-scratch"])).unwrap_err();
        assert!(
            err.0.contains("--from-scratch only applies to --updates"),
            "{}",
            err.0
        );
        // With --updates the flag is accepted: the error is the missing file.
        let err = dispatch(&args(&[
            "eval",
            "/nonexistent/p.dl",
            "f.dl",
            "--updates",
            "u.dl",
            "--from-scratch",
        ]))
        .unwrap_err();
        assert!(err.0.contains("/nonexistent/p.dl"), "{}", err.0);
    }
}
