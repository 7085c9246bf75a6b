//! Turning measurements into the result line, the result files and
//! the printed table.

use crate::json::Json;
use crate::measure::{median, quartiles};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run::{EndToEnd, Traced};
use crate::workloads::Workload;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the host and the sources that every result file records.
pub fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        // A contract checkout is not a git repository.
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// The contract's result: one JSON object on one line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&Metric, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(m, v)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
    .compact()
}

fn failures_json(failures: &[String]) -> Json {
    Json::Arr(failures.iter().map(Json::str).collect())
}

/// One workload's end-to-end block of a result file. Minimum, maximum
/// and quartiles are information, not metrics: a dozen samples
/// support no tail percentile.
pub fn end_to_end_json(e: &EndToEnd) -> Json {
    let walls = e.walls();
    let mut pairs = vec![
        ("attempted", Json::Num(e.attempted as f64)),
        ("failed", Json::Num(e.failures.len() as f64)),
        ("failures", failures_json(&e.failures)),
        ("timed_invocations", Json::Num(e.samples.len() as f64)),
        (
            "wall_samples_s",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        (
            "calibration_walls_s",
            Json::Arr(e.calibrations.iter().map(|c| Json::Num(c.wall_s)).collect()),
        ),
        ("speed_by_wall", Json::Num(e.speed()[0])),
        ("speed_by_cpu", Json::Num(e.speed()[1])),
    ];
    if walls.len() >= 2 {
        let (q1, q3) = quartiles(&walls);
        let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let max = walls.iter().copied().fold(0.0, f64::max);
        pairs.push((
            "wall_info_s",
            Json::obj([
                ("min", Json::Num(min)),
                ("q1", Json::Num(q1)),
                ("median", Json::Num(median(&walls))),
                ("q3", Json::Num(q3)),
                ("max", Json::Num(max)),
            ]),
        ));
    }
    if let Some([wall, cpu, setup]) = e.raw_times() {
        pairs.push((
            "raw_medians_s",
            Json::obj([
                ("wall", Json::Num(wall)),
                ("cpu", Json::Num(cpu)),
                ("setup", Json::Num(setup)),
            ]),
        ));
    }
    if let Some(values) = e.metrics() {
        pairs.push(("metrics", metrics_json(END_TO_END.iter().zip(values))));
    }
    Json::obj(pairs)
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a Metric, f64)>) -> Json {
    Json::obj(metrics.map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// One workload's per-layer block: the metrics, or why they are absent.
pub fn traced_json(t: &Result<Traced, String>) -> Json {
    match t {
        Ok(t) => Json::obj([
            ("attempted", Json::Num(t.attempted as f64)),
            ("failed", Json::Num(t.failures.len() as f64)),
            ("failures", failures_json(&t.failures)),
            (
                "metrics",
                metrics_json(PER_LAYER.iter().zip(t.metrics.iter().copied())),
            ),
        ]),
        Err(why) => Json::obj([("absent", Json::str(why.as_str()))]),
    }
}

/// A result file: host facts, seed, pinned sizes and the given blocks.
pub fn result_file(
    w: &Workload,
    seed: u64,
    seconds: f64,
    blocks: Vec<(&'static str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        (
            "sizes",
            Json::obj(w.sizes.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
        ),
    ];
    pairs.extend(blocks);
    Json::obj(pairs)
}

/// Print one workload's metrics, one per line: name, value, unit.
pub fn print_table<'a>(workload: &str, metrics: impl Iterator<Item = (&'a Metric, f64)>) {
    for (m, v) in metrics {
        println!("{workload:<18} {:<42} {v:>16.6} {}", m.name, m.unit);
    }
}
