//! E24: causal tracing is invisible and complete — the three
//! observability modes of the threaded executor:
//!
//! * **off** — `Obs::noop()`: every trace site is a branch on
//!   `obs.enabled()`, message ids are never minted, payloads carry no
//!   trace extension;
//! * **flight** — the always-on [`FlightRecorder`] ring alone: ids are
//!   minted and every event is rendered into the bounded in-memory
//!   ring, but nothing touches disk on a clean run;
//! * **jsonl** — the full `--trace-out` path: every event rendered and
//!   written through a [`JsonlSink`].
//!
//! Three things must hold: the output is byte-identical to the
//! sequential oracle in every mode (tracing is invisible to the
//! engine); the full-JSONL trace reconstructs a complete, acyclic
//! happens-before graph under 5% message loss; and the flight recorder
//! writes nothing when nothing went wrong. (What each mode costs is
//! `trace.overhead_frac` in BENCHMARK.json.)

use crate::report::{markdown_table, Report};
use crate::workloads::{families, scaling_graph};
use calm_net::{FaultPlan, ThreadedConfig};
use calm_obs::trace::analyze_lines;
use calm_obs::{FlightRecorder, JsonlSink, Obs};
use std::io::Write;
use std::sync::{Arc, Mutex};

const NODES: usize = 8;
const WORKERS: usize = 4;
const SEED: u64 = 24;
const DROP: f64 = 0.05;

/// An in-memory writer sharing its buffer with the experiment, so the
/// traced run's JSONL can be re-analyzed without touching disk.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 trace")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// E24: off vs flight recorder vs full JSONL. The outer `obs` handle
/// observes only the oracle runs: each mode under test is a sink of its
/// own, and a second, ambient one would make every mode the same mode.
pub fn e24_trace(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E24",
        "causal tracing — off vs always-on flight recorder vs full JSONL",
    );
    let input = scaling_graph(11, 24, 1.5);

    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut graphs_ok = true;
    let mut clean_flight_silent = true;
    // The broadcast and the request/OK families: the least and the most
    // causally entangled traffic.
    for f in families(NODES)
        .into_iter()
        .filter(|f| f.strategy != "distinct")
    {
        let (expected, _) = f.run_sequential(&input, obs);
        let cfg =
            ThreadedConfig::new(WORKERS).with_faults(FaultPlan::uniform(SEED, DROP, DROP / 2.0));
        let mut run_mode = |mode: Obs| {
            let (output, _) = f.run_threaded(&input, &cfg, &mode);
            mode.finish();
            all_equal &= output == expected;
        };

        // Mode `off`: the baseline.
        run_mode(Obs::noop());
        // Mode `flight`: ids minted, ring filled, no disk on clean runs.
        let dump = std::env::temp_dir().join(format!(
            "calm-e24-flight-{}-{}.jsonl",
            std::process::id(),
            f.strategy
        ));
        let _ = std::fs::remove_file(&dump);
        run_mode(Obs::new(Arc::new(FlightRecorder::new(&dump))));
        // A lossy-but-recovering run is clean: no anomaly, no dump file.
        clean_flight_silent &= !dump.exists();
        let _ = std::fs::remove_file(&dump);
        // Mode `jsonl`: the full event stream, rendered and written —
        // and it must rebuild the full causal graph.
        let buf = SharedBuf::default();
        run_mode(Obs::new(Arc::new(JsonlSink::to_writer(Box::new(
            buf.clone(),
        )))));
        let analysis = analyze_lines(buf.text().lines());
        graphs_ok &= analysis.invariants_ok() && analysis.sends > 0 && analysis.deliveries > 0;

        rows.push(vec![
            f.label.to_string(),
            format!(
                "{} sends / {} deliveries / {} retransmits",
                analysis.sends, analysis.deliveries, analysis.retransmits
            ),
        ]);
    }
    r.table(markdown_table(
        &["strategy (query)", "traced events (jsonl mode)"],
        &rows,
    ));
    r.claim(
        "tracing is invisible to the engine",
        "every mode reproduces the sequential oracle byte-identically under 5% loss",
        all_equal,
    );
    r.claim(
        "the traced run reconstructs a complete acyclic happens-before graph",
        "analyze_lines: every delivery traced to its send, causal graph acyclic",
        graphs_ok,
    );
    r.claim(
        "the flight recorder is silent when clean",
        "no dump file without an anomaly",
        clean_flight_silent,
    );
    r
}
