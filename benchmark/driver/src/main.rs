//! `calm-benchmark`: the benchmark every perf or simplicity change to
//! this repository is judged by. It sees `calm` the way a user does —
//! as `target/release/calm`, run as a child process on files — and
//! depends on no crate of the repository. See `benchmark/README.md`.

mod json;
mod ladder;
mod measure;
mod metrics;
mod oracle;
mod report;
mod rng;
mod run;
mod workloads;

use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{end_to_end, traced, EndToEnd, Env, Traced};
use std::path::{Path, PathBuf};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
calm-benchmark — end-to-end and per-layer benchmark of the calm CLI

Run from the root of a checkout:
  calm-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one contract run: builds calm from source, measures one workload,
      prints the result as one JSON object on the last line of stdout
      (--trace 0: the end-to-end metrics; --trace 1: the per-layer ones)
  calm-benchmark run [--seed N]... [--out FILE]
      every workload end to end with nothing attached, then the traced
      run; prints every metric by name and unit (default seed 11,
      default file benchmark/out/BENCH.json)
  calm-benchmark check-repeat [--seed N]
      the whole set twice on the same binary; exits nonzero when a
      (metric, workload) pair differs by more than its bound or a
      per-layer count differs at all
  calm-benchmark ladder
      eval-tc-deep and maintain-delete at 10^3..10^6 derived tuples on
      chain, grid and random shapes -> benchmark/out/ladder.json
  calm-benchmark manifest
      print BENCHMARK.json from the metric and workload tables
";

const DEFAULT_SEED: u64 = 11;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(measure::TIME_CHILD) => {
            measure::time_child_main(&args[1..]);
            Ok(true)
        }
        Some(measure::CALIBRATE) => {
            measure::calibrate_main();
            Ok(true)
        }
        Some(run::SETUP) => run::setup_main(&args[1..]).map(|()| true),
        Some("run") => cmd_run(&args[1..]),
        Some("check-repeat") => cmd_check_repeat(&args[1..]),
        Some("ladder") => Env::discover().and_then(|env| ladder::run(&env)),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(true)
        }
        Some(_) => cmd_contract(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The values of every `--name VALUE` pair; anything else is an error.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(name) = it.next() {
        if !allowed.contains(&name.as_str()) {
            return Err(format!("unexpected argument '{name}'\n{USAGE}"));
        }
        let value = it.next().ok_or(format!("{name} needs a value"))?;
        out.push((name.as_str(), value.as_str()));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{name}: '{value}' is not a number"))
}

fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One contract run. The result line is printed even when invocations
/// failed (`correct: false`); only trouble that leaves nothing to
/// report — no build, no samples, no probes — is an error exit.
fn cmd_contract(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (name, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
        match name {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number::<u64>(name, value)?),
            "--seconds" => seconds = Some(number::<f64>(name, value)?),
            _ => trace = Some(number::<u8>(name, value)?),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or(format!("no workload '{name}'"))?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.unwrap_or(RUN_SECONDS as f64);
    let trace = trace.unwrap_or(0) != 0;

    let env = Env::discover()?;
    let calm = env.build_calm()?;
    let file = env.out_dir.join(format!(
        "result.{}.seed{seed}.trace{}.json",
        w.name,
        u8::from(trace)
    ));
    let line = if trace {
        let layers = env.build_layers()?;
        let t = traced(&env, &calm, &layers, w, seed, seconds);
        write_file(
            &file,
            &report::result_file(
                w,
                seed,
                seconds,
                vec![
                    ("host", report::host_facts()),
                    ("per_layer", report::traced_json(&t)),
                ],
            ),
        )?;
        let t = t?;
        report::print_table(w.name, per_layer_values(&t));
        let metrics: Vec<(&Metric, f64)> = per_layer_values(&t).collect();
        report::result_line(t.attempted, t.failures.len() as u64, &metrics)
    } else {
        let e = end_to_end(&env, &calm, w, seed, seconds)?;
        write_file(
            &file,
            &report::result_file(
                w,
                seed,
                seconds,
                vec![
                    ("host", report::host_facts()),
                    ("end_to_end", report::end_to_end_json(&e)),
                ],
            ),
        )?;
        let values = e
            .metrics()
            .ok_or("no invocation succeeded: nothing to report")?;
        report::print_table(w.name, END_TO_END.iter().zip(values));
        let metrics: Vec<(&Metric, f64)> = END_TO_END.iter().zip(values).collect();
        report::result_line(e.attempted, e.failures.len() as u64, &metrics)
    };
    println!("{line}");
    Ok(true)
}

fn per_layer_values(t: &Traced) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
    PER_LAYER.iter().zip(t.metrics.iter().copied())
}

/// Everything one `run` measures for one workload.
struct Measured {
    workload: &'static Workload,
    end_to_end: EndToEnd,
    traced: Result<Traced, String>,
}

/// All six workloads at one seed: end to end first, with nothing
/// attached, then the traced runs. A failure to build or run the layer
/// probes leaves the end-to-end metrics standing.
fn measure_all(env: &Env, calm: &Path, seed: u64) -> Result<Vec<Measured>, String> {
    let mut e2e = Vec::new();
    for w in &WORKLOADS {
        eprintln!("== {} (seed {seed}): end to end", w.name);
        let e = end_to_end(env, calm, w, seed, RUN_SECONDS as f64)?;
        if let Some(values) = e.metrics() {
            report::print_table(w.name, END_TO_END.iter().zip(values));
        }
        println!(
            "{:<18} {:<42} {:>16} of {}",
            w.name,
            "failed",
            e.failures.len(),
            e.attempted
        );
        e2e.push(e);
    }
    let layers = env.build_layers();
    let mut all = Vec::new();
    for (w, end_to_end) in WORKLOADS.iter().zip(e2e) {
        eprintln!("== {} (seed {seed}): traced", w.name);
        let traced = layers
            .clone()
            .and_then(|bin| traced(env, calm, &bin, w, seed, RUN_SECONDS as f64));
        match &traced {
            Ok(t) => report::print_table(w.name, per_layer_values(t)),
            Err(why) => println!("{:<18} per-layer metrics absent: {why}", w.name),
        }
        all.push(Measured {
            workload: w,
            end_to_end,
            traced,
        });
    }
    Ok(all)
}

fn run_json(seed: u64, all: &[Measured]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "workloads",
            Json::Arr(
                all.iter()
                    .map(|m| {
                        report::result_file(
                            m.workload,
                            seed,
                            RUN_SECONDS as f64,
                            vec![
                                ("end_to_end", report::end_to_end_json(&m.end_to_end)),
                                ("per_layer", report::traced_json(&m.traced)),
                            ],
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn all_correct(all: &[Measured]) -> bool {
    all.iter().all(|m| {
        m.end_to_end.failures.is_empty()
            && m.end_to_end.metrics().is_some()
            && m.traced.as_ref().map_or(true, |t| t.failures.is_empty())
    })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let mut seeds = Vec::new();
    let mut out: Option<PathBuf> = None;
    for (name, value) in flags(args, &["--seed", "--out"])? {
        match name {
            "--seed" => seeds.push(number::<u64>(name, value)?),
            _ => out = Some(PathBuf::from(value)),
        }
    }
    if seeds.is_empty() {
        seeds.push(DEFAULT_SEED);
    }
    let env = Env::discover()?;
    let calm = env.build_calm()?;
    let mut runs = Vec::new();
    let mut correct = true;
    for seed in seeds {
        let all = measure_all(&env, &calm, seed)?;
        correct &= all_correct(&all);
        runs.push(run_json(seed, &all));
    }
    let path = out.unwrap_or_else(|| env.out_dir.join("BENCH.json"));
    write_file(
        &path,
        &Json::obj([
            ("benchmark", Json::str("calm-benchmark")),
            ("host", report::host_facts()),
            ("runs", Json::Arr(runs)),
        ]),
    )?;
    eprintln!("wrote {}", path.display());
    Ok(correct)
}

/// Relative change of `b` against `a` in the metric's bad direction.
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a;
    if m.better == "lower" {
        change
    } else {
        -change
    }
}

fn cmd_check_repeat(args: &[String]) -> Result<bool, String> {
    let mut seed = DEFAULT_SEED;
    for (name, value) in flags(args, &["--seed"])? {
        seed = number(name, value)?;
    }
    let env = Env::discover()?;
    let calm = env.build_calm()?;
    let first = measure_all(&env, &calm, seed)?;
    let second = measure_all(&env, &calm, seed)?;
    let mut agree = all_correct(&first) && all_correct(&second);
    println!(
        "\n{:<18} {:<42} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        let name = a.workload.name;
        let (Some(va), Some(vb)) = (a.end_to_end.metrics(), b.end_to_end.metrics()) else {
            println!("{name:<18} no samples");
            agree = false;
            continue;
        };
        for ((m, x), y) in END_TO_END.iter().zip(va).zip(vb) {
            // Either run may be the slow one.
            let apart = worsening(m, x, y).max(worsening(m, y, x));
            let ok = apart <= m.bound;
            agree &= ok;
            println!(
                "{name:<18} {:<42} {x:>12.5} {y:>12.5} {apart:>8.4} {:>6} {}",
                m.name,
                m.bound,
                if ok { "" } else { "OUT OF BOUND" }
            );
        }
        match (&a.traced, &b.traced) {
            (Ok(ta), Ok(tb)) => {
                for ((m, x), (_, y)) in per_layer_values(ta).zip(per_layer_values(tb)) {
                    if m.unit == "count" && x != y {
                        agree = false;
                        println!("{name:<18} {:<42} {x:>12} {y:>12} COUNT DIFFERS", m.name);
                    }
                }
            }
            (Err(why), _) | (_, Err(why)) => {
                agree = false;
                println!("{name:<18} per-layer metrics absent: {why}");
            }
        }
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    write_file(
        &env.out_dir.join("check-repeat.json"),
        &Json::obj([
            ("host", report::host_facts()),
            ("agree", Json::Bool(agree)),
            (
                "runs",
                Json::Arr(vec![run_json(seed, &first), run_json(seed, &second)]),
            ),
        ]),
    )?;
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::check_output;
    use std::process::Command;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_come_in_pairs_and_from_the_allowed_set() {
        let args = strings(&["--seed", "12", "--seed", "13"]);
        assert_eq!(
            flags(&args, &["--seed"]).unwrap(),
            vec![("--seed", "12"), ("--seed", "13")]
        );
        assert!(flags(&strings(&["--seed"]), &["--seed"]).is_err());
        assert!(flags(&strings(&["--sed", "1"]), &["--seed"]).is_err());
        assert!(number::<u64>("--seed", "x").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        assert!((worsening(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        let higher = PER_LAYER.iter().find(|m| m.better == "higher").unwrap();
        assert!((worsening(higher, 1.0, 0.8) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn the_result_line_parses_and_names_every_metric() {
        let metrics: Vec<(&Metric, f64)> = END_TO_END.iter().map(|m| (m, 1.2034)).collect();
        let line = report::result_line(12, 1, &metrics);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        let printed = v.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(printed.len(), END_TO_END.len());
        for ((name, value), m) in printed.iter().zip(&END_TO_END) {
            assert_eq!(name, m.name);
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert_eq!(value.get("unit"), Some(&Json::str(m.unit)));
            assert_eq!(value.get("value").and_then(Json::as_f64), Some(1.2034));
        }
    }

    /// The oracle against `calm eval` itself, on a 30-edge graph. Needs
    /// the release binary the benchmark command builds first; without
    /// it the test says so and passes.
    #[test]
    fn oracle_equals_calm_eval_on_a_30_edge_graph() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), |d| root.join(d));
        let calm = target.join("release/calm");
        if !calm.is_file() {
            eprintln!("skipped: {} is not built", calm.display());
            return;
        }
        let mut rng = rng::Rng::new(30);
        let mut edges = std::collections::BTreeSet::new();
        while edges.len() < 30 {
            edges.insert((rng.below(14), rng.below(14)));
        }
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        let dir =
            std::env::temp_dir().join(format!("calm-benchmark-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let facts: String = edges
            .iter()
            .map(|(a, b)| format!("E({a},{b}).\n"))
            .collect();
        std::fs::write(dir.join("g.facts"), facts).unwrap();
        let program = "@output T, O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                       O(x,y) :- T(x,y), not E(x,y).\n";
        std::fs::write(dir.join("p.dl"), program).unwrap();
        let out = Command::new(&calm)
            .args(["eval", "p.dl", "g.facts"])
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(out.status.success());
        let mut facts = oracle::facts_of(0, &oracle::transitive_closure(14, &edges));
        facts.extend(oracle::facts_of(
            1,
            &oracle::closure_minus_edges(14, &edges),
        ));
        let expected = oracle::Expected {
            relations: vec![("T", 2), ("O", 2)],
            sections: vec![facts],
            simulate: false,
        };
        let text = String::from_utf8(out.stdout).unwrap();
        assert_eq!(check_output(&text, &expected), Ok(()));
        // A deliberately corrupted output file is a failure.
        let corrupted = text.replacen("T(", "T(1", 1);
        assert!(check_output(&corrupted, &expected).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
