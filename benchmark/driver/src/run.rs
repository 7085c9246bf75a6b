//! One run of one workload: the end-to-end run (nothing attached to
//! the children) and the traced run (through `benchmark/layers`).

use crate::json::{self, Json};
use crate::measure::{median, run_child, run_self, Sample, CALIBRATE, CALIBRATION_REFERENCE_S};
use crate::metrics::PER_LAYER;
use crate::oracle::{check_output, Expected};
use crate::workloads::{Inputs, Workload, MONOTONE_BASE_ARGS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The first argument of the driver's set-up mode.
pub const SETUP: &str = "set-up";
/// Timed invocations a run makes at least, however short `--seconds` is.
const MIN_INVOCATIONS: usize = 3;
/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Invocations per configuration where the traced run times the CLI.
const TRACED_INVOCATIONS: usize = 3;

/// Where things are: the checkout root (the current directory), the
/// cargo target directory and the benchmark's scratch directory.
pub struct Env {
    pub root: PathBuf,
    pub target_dir: PathBuf,
    pub out_dir: PathBuf,
}

impl Env {
    /// # Errors
    /// When the current directory is not the root of a checkout.
    pub fn discover() -> Result<Env, String> {
        let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
        if !root.join("benchmark/driver/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not the root of a checkout (no benchmark/driver/Cargo.toml): run from there",
                root.display()
            ));
        }
        let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        Ok(Env {
            out_dir: root.join("benchmark/out"),
            root,
            target_dir,
        })
    }

    fn cargo_build(&self, what: &[&str], binary: &str) -> Result<PathBuf, String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--target-dir"])
            .arg(&self.target_dir)
            .args(what)
            .current_dir(&self.root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        let path = self.target_dir.join("release").join(binary);
        if !status.success() || !path.is_file() {
            return Err(format!("cargo build {} failed ({status})", what.join(" ")));
        }
        Ok(path)
    }

    /// Build the program under test from the checkout's sources.
    pub fn build_calm(&self) -> Result<PathBuf, String> {
        self.cargo_build(&["-p", "calm-cli"], "calm")
    }

    /// Build the layer probes (their own workspace).
    pub fn build_layers(&self) -> Result<PathBuf, String> {
        self.cargo_build(
            &["--manifest-path", "benchmark/layers/Cargo.toml"],
            "calm-benchmark-layers",
        )
    }
}

/// Checks each invocation's output and keeps the tally. An output
/// that is byte-identical to one already checked needs no second parse.
struct Checker<'a> {
    workload: &'static str,
    expected: &'a Expected,
    reference: Option<Vec<u8>>,
    /// `eval --updates`: byte-identity with the reference is required.
    pinned: bool,
    attempted: u64,
    failures: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(workload: &'static str, expected: &'a Expected) -> Self {
        Checker {
            workload,
            expected,
            reference: None,
            pinned: false,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn judge(&mut self, run: &Result<Sample, String>, stdout_path: &Path) -> Result<(), String> {
        let sample = run.as_ref().map_err(Clone::clone)?;
        if !sample.exit_ok {
            return Err("exited nonzero".to_string());
        }
        let bytes = std::fs::read(stdout_path).map_err(|e| e.to_string())?;
        if self.reference.as_deref() == Some(&bytes[..]) {
            return Ok(());
        }
        let text = String::from_utf8(bytes).map_err(|_| "output is not UTF-8".to_string())?;
        check_output(&text, self.expected)?;
        if self.pinned {
            return Err("the right facts, but not byte-identical to the --from-scratch run".into());
        }
        self.reference = Some(text.into_bytes());
        Ok(())
    }

    /// Count one invocation; a failure names the workload and the reason.
    fn record(
        &mut self,
        what: &str,
        run: Result<Sample, String>,
        stdout_path: &Path,
    ) -> Option<Sample> {
        self.attempted += 1;
        match self.judge(&run, stdout_path) {
            Ok(()) => run.ok(),
            Err(why) => {
                let line = format!("{}: {what}: {why}", self.workload);
                eprintln!("FAILED {line}");
                self.failures.push(line);
                None
            }
        }
    }
}

fn write_inputs(inputs: &Inputs, scratch: &Path) -> Result<(), String> {
    for (name, content) in &inputs.files {
        std::fs::write(scratch.join(name), content).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// What the end-to-end run of one workload measured.
pub struct EndToEnd {
    pub samples: Vec<Sample>,
    /// The calibration children, one before each timed invocation.
    pub calibrations: Vec<Sample>,
    /// Wall seconds per set-up of the set-up children, one child before
    /// each timed invocation.
    pub setup_walls_s: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl EndToEnd {
    fn of(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    pub fn walls(&self) -> Vec<f64> {
        self.of(|s| s.wall_s)
    }

    /// The host's pace during the run, by the wall clock and by the
    /// CPU clock of the calibration children: above 1 when it was
    /// faster than the reference.
    pub fn speed(&self) -> [f64; 2] {
        let walls: Vec<f64> = self.calibrations.iter().map(|s| s.wall_s).collect();
        let cpus: Vec<f64> = self.calibrations.iter().map(|s| s.cpu_s).collect();
        [
            CALIBRATION_REFERENCE_S / median(&walls),
            CALIBRATION_REFERENCE_S / median(&cpus),
        ]
    }

    /// Medians as measured: wall, CPU and set-up seconds.
    pub fn raw_times(&self) -> Option<[f64; 3]> {
        if self.samples.is_empty() {
            return None;
        }
        Some([
            median(&self.walls()),
            median(&self.of(|s| s.cpu_s)),
            median(&self.setup_walls_s),
        ])
    }

    /// The end-to-end metrics, in `END_TO_END` order; times are the
    /// measured medians scaled to the reference speed. With no good
    /// sample there is nothing to report.
    pub fn metrics(&self) -> Option<[f64; 4]> {
        let [wall, cpu, setup] = self.raw_times()?;
        let [by_wall, by_cpu] = self.speed();
        Some([
            wall * by_wall,
            cpu * by_cpu,
            median(&self.of(|s| s.peak_rss_mb)),
            setup * by_wall,
        ])
    }
}

/// Set-up mode (`set-up WORKLOAD SEED`, run in the scratch directory):
/// generate the workload's input files and compute the reference
/// output, `Workload::setup_reps` times over, as a process of its own
/// so that it can be timed like one.
///
/// # Errors
/// On a malformed command line or an unwritable file.
pub fn setup_main(args: &[String]) -> Result<(), String> {
    let [name, seed] = args else {
        return Err(format!("usage: {SETUP} WORKLOAD SEED"));
    };
    let w = crate::workloads::find(name).ok_or(format!("no workload '{name}'"))?;
    let seed = seed
        .parse()
        .map_err(|_| format!("seed '{seed}' is not a number"))?;
    for _ in 0..w.setup_reps {
        let inputs = w.inputs(seed);
        write_inputs(&inputs, Path::new("."))?;
        std::hint::black_box(&inputs.expected);
    }
    Ok(())
}

/// The end-to-end run: closed loop, one client. One untimed warm-up,
/// then for `seconds` a set-up child, a calibration child and a `calm`
/// child in turn, each `calm` output checked outside its timed interval.
///
/// # Errors
/// Only on trouble of the driver's own (scratch directory, files); a
/// failing child is a counted failure, not an error.
pub fn end_to_end(
    env: &Env,
    calm: &Path,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let scratch = env.out_dir.join(w.name);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let inputs = w.inputs(seed);
    write_inputs(&inputs, &scratch)?;
    let stdout_path = scratch.join("stdout.txt");
    let mut checker = Checker::new(w.name, &inputs.expected);
    if w.from_scratch_reference {
        let mut args = inputs.args.clone();
        args.push("--from-scratch");
        let run = run_child(calm, &args, &scratch, &stdout_path, CHILD_TIMEOUT);
        checker.record("--from-scratch reference", run, &stdout_path);
        checker.pinned = checker.reference.is_some();
    }
    let run = run_child(calm, &inputs.args, &scratch, &stdout_path, CHILD_TIMEOUT);
    checker.record("warm-up", run, &stdout_path);

    let mut samples = Vec::new();
    let (mut calibrations, mut setup_walls_s) = (Vec::new(), Vec::new());
    let aside_out = scratch.join("aside.txt");
    let seed_text = seed.to_string();
    let window = Instant::now();
    let mut k = 0;
    while k < MIN_INVOCATIONS || window.elapsed().as_secs_f64() < seconds {
        k += 1;
        // The same bytes again: set-up is timed where the invocations are.
        let setup = run_self(&[SETUP, w.name, &seed_text], &scratch, &aside_out)?;
        setup_walls_s.push(setup.wall_s / f64::from(w.setup_reps));
        calibrations.push(run_self(&[CALIBRATE], &scratch, &aside_out)?);
        let run = run_child(calm, &inputs.args, &scratch, &stdout_path, CHILD_TIMEOUT);
        samples.extend(checker.record(&format!("invocation {k}"), run, &stdout_path));
    }
    Ok(EndToEnd {
        samples,
        calibrations,
        setup_walls_s,
        attempted: checker.attempted,
        failures: checker.failures,
    })
}

/// What the traced run of one workload gave: the value of every
/// per-layer metric, in `PER_LAYER` order.
pub struct Traced {
    pub metrics: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Median wall seconds and peak RSS of `TRACED_INVOCATIONS` checked
/// CLI invocations with `args`.
fn time_cli(
    calm: &Path,
    args: &[&str],
    scratch: &Path,
    checker: &mut Checker<'_>,
) -> Option<(f64, f64)> {
    let stdout_path = scratch.join("stdout.txt");
    let mut good = Vec::new();
    for k in 0..TRACED_INVOCATIONS {
        let run = run_child(calm, args, scratch, &stdout_path, CHILD_TIMEOUT);
        good.extend(checker.record(
            &format!("traced invocation {k} of {args:?}"),
            run,
            &stdout_path,
        ));
    }
    if good.is_empty() {
        return None;
    }
    let walls: Vec<f64> = good.iter().map(|s| s.wall_s).collect();
    let rss: Vec<f64> = good.iter().map(|s| s.peak_rss_mb).collect();
    Some((median(&walls), median(&rss)))
}

/// The traced run: the layer probes replay the workload's pipeline
/// stage by stage in-process and print their metrics; the driver adds
/// the ones that need the CLI's own wall clock and memory.
///
/// # Errors
/// When the probes do not run or print something else than their
/// metrics: the per-layer metrics are then absent, with this reason.
pub fn traced(
    env: &Env,
    calm: &Path,
    layers: &Path,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<Traced, String> {
    let scratch = env.out_dir.join(w.name);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let inputs = w.inputs(seed);
    write_inputs(&inputs, &scratch)?;
    let mut checker = Checker::new(w.name, &inputs.expected);
    let cli = time_cli(calm, &inputs.args, &scratch, &mut checker);

    let trace_path = env.out_dir.join(format!("trace.{}.jsonl", w.name));
    let output = Command::new(layers)
        .args(["--workload", w.name, "--seconds", &seconds.to_string()])
        .arg("--dir")
        .arg(&scratch)
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--")
        .args(&inputs.args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", layers.display()))?;
    if !output.status.success() {
        return Err(format!("the layer probes failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let printed = json::parse(last).map_err(|e| format!("layer probes' output: {e}"))?;
    let printed = printed
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("layer probes' output has no metrics object")?;

    let mut values = vec![0.0; PER_LAYER.len()];
    let mut set = |name: &str, value: f64| -> Result<(), String> {
        let slot = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .ok_or(format!("'{name}' is not a per-layer metric of the table"))?;
        values[slot] = value;
        Ok(())
    };
    for (name, value) in printed {
        set(
            name,
            value.as_f64().ok_or(format!("'{name}' is not a number"))?,
        )?;
    }
    // A layer this workload never enters costs it nothing. What is
    // reported for it is the cost of looking at the clock, as
    // measured (the contract refuses a time that reads exactly the
    // same on every run, as a constant 0 would).
    for m in &PER_LAYER {
        let per_second = match m.unit {
            "s" => 1.0,
            "us" => 1e6,
            _ => continue,
        };
        if !printed.iter().any(|(name, _)| name == m.name) {
            // Averaged over many looks, for digits below the clock's tick.
            const LOOKS: u32 = 1000;
            let start = Instant::now();
            for _ in 0..LOOKS {
                std::hint::black_box(Instant::now());
            }
            let look_s = start.elapsed().as_secs_f64() / f64::from(LOOKS);
            set(m.name, look_s * per_second)?;
        }
    }
    let cmd_total = printed
        .iter()
        .find(|(n, _)| n == "cli.cmd_total_s")
        .and_then(|(_, v)| v.as_f64());
    if let (Some((wall, rss_mb)), Some(cmd_total)) = (cli, cmd_total) {
        set("cli.process_overhead_s", wall - cmd_total)?;
        let tuples = inputs.edb_facts + inputs.expected.sections.last().map_or(0, Vec::len);
        set(
            "common.storage.rss_bytes_per_tuple",
            rss_mb * 1024.0 * 1024.0 / tuples as f64,
        )?;
    }
    if inputs.args.contains(&"process") {
        // The process-engine workload: its input through the CLI under each engine; the
        // difference between two worker processes and two worker
        // threads is what the star relay and the sockets cost.
        let engines: [(&str, &[&str]); 4] = [
            (
                "net.transport.proc_p1_wall_s",
                &["--engine", "process", "--procs", "1"],
            ),
            (
                "net.transport.proc_p2_wall_s",
                &["--engine", "process", "--procs", "2"],
            ),
            (
                "net.transport.thr_w2_wall_s",
                &["--engine", "threaded", "--workers", "2"],
            ),
            ("net.transport.seq_wall_s", &[]),
        ];
        let mut walls = [0.0; 4];
        for (slot, (name, extra)) in walls.iter_mut().zip(engines) {
            let args: Vec<&str> = MONOTONE_BASE_ARGS.iter().chain(extra).copied().collect();
            if let Some((wall, _)) = time_cli(calm, &args, &scratch, &mut checker) {
                *slot = wall;
                set(name, wall)?;
            }
        }
        set("net.transport.relay_overhead_s", walls[1] - walls[2])?;
    }
    Ok(Traced {
        metrics: values,
        attempted: checker.attempted,
        failures: checker.failures,
    })
}
