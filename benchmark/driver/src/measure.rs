//! Timing one `calm` child process from spawn to reaping, with the
//! resource usage `wait4` reports, and the statistics over samples.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is that of 64-bit Linux");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

const WNOHANG: i32 = 1;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished invocation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from just before spawn to the `wait4` that reaped it.
    pub wall_s: f64,
    /// User + system CPU seconds of the child and the descendants it reaped.
    pub cpu_s: f64,
    /// Largest resident set among them, in MiB.
    pub peak_rss_mb: f64,
    /// Exited with status 0.
    pub exit_ok: bool,
}

/// Run `program args` in `dir` with stdout to `stdout_path` and reap it
/// with `wait4`. The child is polled once a millisecond so that a hung
/// one can be killed at `timeout`; that adds at most a millisecond to
/// a wall time of about a second.
///
/// # Errors
/// When the child cannot be spawned, or was killed at the timeout.
fn spawn_and_reap(
    program: &Path,
    args: &[&str],
    dir: &Path,
    stdout_path: &Path,
    timeout: Duration,
) -> Result<Sample, String> {
    let stdout =
        File::create(stdout_path).map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(stdout)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let mut timed_out = false;
    loop {
        let options = if timed_out { 0 } else { WNOHANG };
        // SAFETY: `status` and `usage` are live, writable and of the
        // types wait4 fills; `pid` is our own unreaped child, which
        // `child` (never waited through std) keeps from being reused.
        let reaped = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if reaped == pid {
            break;
        }
        if reaped < 0 {
            return Err(format!("wait4: {}", std::io::Error::last_os_error()));
        }
        if start.elapsed() >= timeout {
            // Not reaped yet, so the pid is still ours to kill.
            let _ = child.kill();
            timed_out = true;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if timed_out {
        return Err(format!("killed after {} s", timeout.as_secs()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Sample {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        // Exited normally (low seven bits clear) with code 0.
        exit_ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

/// The first argument of the driver's helper mode (see [`run_child`]).
pub const TIME_CHILD: &str = "time-child";

/// Run `program args` in `dir` with stdout to `stdout_path`, one child
/// at a time, timed from spawn to the `wait4` that reaps it.
///
/// The child is not spawned from this process but from a fresh copy of
/// this executable in helper mode, which does nothing else: Linux
/// starts a child's `ru_maxrss` at the peak resident set of the process
/// that spawned it, and this process, which holds the reference
/// answers, is larger than some of the runs it measures.
///
/// # Errors
/// When the child cannot be spawned, or was killed at the timeout.
pub fn run_child(
    program: &Path,
    args: &[&str],
    dir: &Path,
    stdout_path: &Path,
    timeout: Duration,
) -> Result<Sample, String> {
    let helper = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(helper)
        .arg(TIME_CHILD)
        .arg(timeout.as_secs().to_string())
        .arg(dir)
        .arg(stdout_path)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the timing helper: {e}"))?;
    let line = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<&str> = line.split_whitespace().collect();
    let number = |field: &str| {
        field
            .parse::<f64>()
            .map_err(|_| format!("the timing helper printed {line:?}"))
    };
    match fields[..] {
        ["ok", wall, cpu, rss, exit_ok] => Ok(Sample {
            wall_s: number(wall)?,
            cpu_s: number(cpu)?,
            peak_rss_mb: number(rss)?,
            exit_ok: exit_ok == "true",
        }),
        _ => Err(line
            .trim()
            .strip_prefix("failed ")
            .unwrap_or("the timing helper died")
            .to_string()),
    }
}

/// Helper mode: `time-child TIMEOUT_S DIR STDOUT PROGRAM ARGS...` runs
/// the one child and prints its [`Sample`] on one line.
pub fn time_child_main(args: &[String]) {
    let [timeout, dir, stdout_path, program, rest @ ..] = args else {
        println!("failed usage: time-child TIMEOUT_S DIR STDOUT PROGRAM ARGS...");
        return;
    };
    let timeout = Duration::from_secs(timeout.parse().unwrap_or(60));
    let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    match spawn_and_reap(
        Path::new(program),
        &rest,
        Path::new(dir),
        Path::new(stdout_path),
        timeout,
    ) {
        Ok(s) => println!(
            "ok {} {} {} {}",
            s.wall_s, s.cpu_s, s.peak_rss_mb, s.exit_ok
        ),
        Err(why) => println!("failed {why}"),
    }
}

/// The first argument of the driver's calibration mode.
pub const CALIBRATE: &str = "calibrate";

/// Seconds a calibration child takes on the reference host at its
/// usual speed; reported times are scaled to that speed.
pub const CALIBRATION_REFERENCE_S: f64 = 0.25;

/// Calibration mode: a fixed piece of work with the profile of the
/// program under test — a fresh process that builds small heap rows,
/// hashes them, keeps them and prints them — and nothing of the
/// repository in it.
///
/// The hosts this benchmark runs on change speed by a fifth for
/// minutes at a time, and a fresh, allocating process feels it the way
/// `calm` does (work inside the long-lived driver does not, nor does a
/// register-only spin). One calibration child runs before each timed
/// invocation; dividing the medians takes the host's pace out of them.
pub fn calibrate_main() {
    const ROWS: u64 = 330_000;
    let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut x: u64 = 1;
    for i in 0..ROWS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let row = vec![(x >> 40) as u32 % 2_000_000, (x >> 20) as u32 % 2_000_000];
        if !seen.contains_key(&row) {
            seen.insert(row.clone(), i as u32);
            rows.push(row);
        }
    }
    let mut out = String::new();
    for row in &rows {
        let _ = writeln!(out, "T({},{}).", row[0], row[1]);
    }
    print!("{out}");
}

/// Run this executable in mode `args` as a child, timed like any other
/// child: the calibration work and the set-up are measured this way, so
/// that they meet the host's pace the way a `calm` invocation does.
///
/// # Errors
/// When the child cannot be run or fails.
pub fn run_self(args: &[&str], dir: &Path, stdout_path: &Path) -> Result<Sample, String> {
    let me = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let sample = run_child(&me, args, dir, stdout_path, Duration::from_secs(60))?;
    if !sample.exit_ok {
        return Err(format!("the {} child failed", args[0]));
    }
    Ok(sample)
}

/// Median; `values` must not be empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the contract's spread is their distance over the
/// median); written to the result files as information. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), (15.0, 120.0));
    }

    #[test]
    fn a_child_reports_exit_status_time_and_memory() {
        let dir = std::env::temp_dir();
        let out = dir.join(format!("calm-benchmark-test-{}.out", std::process::id()));
        let ok = spawn_and_reap(
            Path::new("sh"),
            &["-c", "echo hi"],
            &dir,
            &out,
            Duration::from_secs(20),
        )
        .unwrap();
        assert!(ok.exit_ok && ok.wall_s > 0.0 && ok.peak_rss_mb > 0.0);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "hi\n");
        let bad = spawn_and_reap(
            Path::new("sh"),
            &["-c", "exit 3"],
            &dir,
            &out,
            Duration::from_secs(20),
        )
        .unwrap();
        assert!(!bad.exit_ok);
        let hung = spawn_and_reap(
            Path::new("sleep"),
            &["30"],
            &dir,
            &out,
            Duration::from_millis(50),
        );
        assert!(hung.unwrap_err().contains("killed"));
        let _ = std::fs::remove_file(out);
    }
}
