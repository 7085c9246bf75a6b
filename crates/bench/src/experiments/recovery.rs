//! E26: supervised recovery under scripted process kills — a kill-rate
//! sweep (0, 1, 2, 4 kills) over the three strategy families and
//! `--procs` ∈ {2, 4}, showing what robustness moves: durable snapshot
//! bytes shipped to the coordinator, messages replayed by restored
//! incarnations, and the supervisor's recovery latency (worker_down →
//! worker_respawn, read from the coordinator's own causal events, not
//! from a clock of this harness).
//!
//! The claim that matters rides on every single point of the sweep:
//! the run stays quiescent, loses no worker, and its output is
//! byte-identical to the sequential oracle — kills included. A second
//! claim pins the supervision machinery itself: every scheduled kill is
//! answered by exactly one respawn (no adoption in this sweep — the
//! budget is sized above the kill count), and a killed run replays or
//! re-ships durable state (snapshot bytes are always nonzero under
//! supervision, which checkpoints eagerly).
//!
//! Workers are thread-backed as in E25 — the kill path (`pkill` in the
//! fault spec) severs the worker's socket and aborts its executor loop
//! exactly as the OS-process kill does; the CLI test suite covers the
//! genuine `kill -9` signature with real processes.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::process::{job, run_process_tcp, NODES};
use crate::report::{markdown_table, Report};
use crate::workloads::{families, scaling_graph};
use calm_obs::{ArgValue, Obs, Sink};

const PROCS: [usize; 2] = [2, 4];
const KILLS: [usize; 4] = [0, 1, 2, 4];

/// Records the coordinator's `net` events with their timestamps — just
/// enough causal trace to pair each `worker_down` with the
/// `worker_respawn` that answers it.
#[derive(Default)]
struct EventCapture {
    events: Mutex<Vec<(String, u64)>>,
}

impl Sink for EventCapture {
    fn span(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}
    fn event(&self, cat: &str, name: &str, _track: u32, ts_us: u64, _args: &[(&str, ArgValue)]) {
        if cat == "net" {
            self.events.lock().unwrap().push((name.to_string(), ts_us));
        }
    }
    fn counter(&self, _: &str, _: &str, _: u64, _: u64) {}
    fn gauge(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}
    fn histogram(&self, _: &str, _: &str, _: u64) {}
}

impl EventCapture {
    /// Mean worker_down → worker_respawn latency in milliseconds, by
    /// pairing each down with the next respawn in event order (the
    /// supervisor handles one death at a time).
    fn mean_recovery_ms(&self) -> Option<f64> {
        let events = self.events.lock().unwrap();
        let mut pending: Option<u64> = None;
        let mut latencies = Vec::new();
        for (name, ts) in events.iter() {
            match name.as_str() {
                "worker_down" => pending = Some(*ts),
                "worker_respawn" => {
                    if let Some(down) = pending.take() {
                        latencies.push(ts.saturating_sub(down) as f64 / 1e3);
                    }
                }
                _ => {}
            }
        }
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
        }
    }
}

/// The scripted kill plan: `kills` process kills spread over the
/// workers (never worker 0 first — the coordinator's first victim
/// being mid-ring exercises the epoch fencing harder), at staggered
/// step counts so respawned incarnations get killed again in the
/// 4-kill points.
fn kill_plan(kills: usize, procs: usize) -> String {
    let victims: Vec<usize> = match procs {
        2 => vec![1, 0, 1, 0],
        _ => vec![1, 2, 3, 1],
    };
    let mut spec = String::from("seed=7");
    for (i, &w) in victims.iter().take(kills).enumerate() {
        spec.push_str(&format!(",pkill(worker={}@step={})", w, 3 * (i + 1)));
    }
    spec
}

/// E26: supervised recovery — kill-rate sweep. The sequential oracle
/// runs thread the given [`Obs`]; the supervised runs use a private
/// capture sink (their coordinator events are the measurement).
pub fn e26_recovery(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E26",
        "supervised recovery — kill-rate sweep: snapshot bytes, replays, latency",
    );
    let input = scaling_graph(11, 32, 1.5);
    let mut rows = Vec::new();

    for f in families(NODES) {
        let label = f.label;
        let transducer = f.transducer(1);
        let (expected, seq) = f.run_sequential(&input, obs);

        let mut all_identical = seq.quiescent;
        let mut all_recovered = true;
        let mut always_durable = true;
        for procs in PROCS {
            for kills in KILLS {
                let mut cfg =
                    job(f.strategy, procs, Some(kill_plan(kills, procs))).with_respawn_budget(8);
                // Recovery latency should show the engine, not the sleep.
                cfg.respawn_backoff = Duration::from_millis(5);
                let capture = Arc::new(EventCapture::default());
                let run = run_process_tcp(&cfg, &input, &Obs::new(capture.clone()));
                let identical = run.quiescent
                    && run.failed_workers.is_empty()
                    && run.adopted_workers.is_empty()
                    && run.states.output(&transducer.schema().output) == expected;
                all_identical &= identical;
                all_recovered &= run.respawns == kills as u64;
                always_durable &= run.faults.snapshot_bytes > 0;
                rows.push(vec![
                    label.to_string(),
                    procs.to_string(),
                    kills.to_string(),
                    run.faults.snapshot_bytes.to_string(),
                    run.faults.replayed.to_string(),
                    capture
                        .mean_recovery_ms()
                        .map_or("-".into(), |l| format!("{l:.1}")),
                    identical.to_string(),
                ]);
            }
        }
        r.claim(
            format!("{label}: byte-identical to the sequential oracle at every kill count"),
            "quiescent, no lost workers, output equals oracle at kills {0,1,2,4} x procs {2,4}",
            all_identical,
        );
        r.claim(
            format!("{label}: every scripted kill answered by exactly one respawn"),
            "respawns == kills at every sweep point (budget 8 — no adoption)",
            all_recovered,
        );
        r.claim(
            format!("{label}: supervision always ships durable state"),
            "snapshot bytes > 0 at every sweep point (eager checkpoint shipping)",
            always_durable,
        );
    }

    r.table(markdown_table(
        &[
            "strategy (query)",
            "procs",
            "kills",
            "snapshot bytes",
            "replayed msgs",
            "recovery ms",
            "identical",
        ],
        &rows,
    ));
    r
}
