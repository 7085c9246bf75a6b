//! E23: the delta-encoded wire format — bytes on the wire, old (naive)
//! vs new (delta) payloads.
//!
//! Two measurements back the storage-v2 wire-format claim:
//!
//! * **end-to-end bytes**: every batch a strategy sends during a
//!   threaded run is priced in both formats by a recording
//!   [`Transducer`] wrapper (the engines themselves encode and count
//!   the delta format only — `wire_bytes`, shown alongside), on both
//!   the fault-free channel transport and the reliable substrate under
//!   loss. Fan-out and retransmission multiply either format's bytes by
//!   the same copies, so the saving per batch is the saving on the wire;
//! * **a sampled dense batch**: the whole TC closure as one message,
//!   sized and round-tripped in both formats. (That the saving is not
//!   bought with a slower codec is `net.wirefmt.{encode_s, decode_s,
//!   vs_naive_ratio}` in BENCHMARK.json.)
//!
//! Every cell must still reproduce the sequential oracle byte-identically
//! — the format is invisible to the engine.

use crate::report::{markdown_table, Report};
use crate::workloads::{families, scaling_graph};
use calm_common::fact::Fact;
use calm_net::{run_threaded_with, wirefmt, FaultPlan, Programs, ThreadedConfig, ThreadedNetwork};
use calm_obs::Obs;
use calm_transducer::multiset::Multiset;
use calm_transducer::{Transducer, TransducerSchema, TransducerStep};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 8;
const WORKERS: usize = 4;
const SEED: u64 = 23;
const DROP: f64 = 0.05;

/// What the batches sent during one run cost in each wire format.
#[derive(Default)]
struct BatchBytes {
    batches: AtomicU64,
    delta: AtomicU64,
    naive: AtomicU64,
}

/// Behaves as `inner`, pricing every non-empty `Qsnd` result in both
/// formats on the way out. The strategies never repeat a sent fact, so
/// these are the batches the executor ships (E23 checks the delta total
/// against the executor's own `wire_bytes`).
struct Recording {
    inner: Box<dyn Transducer>,
    bytes: Arc<BatchBytes>,
}

impl Transducer for Recording {
    fn schema(&self) -> &TransducerSchema {
        self.inner.schema()
    }

    fn step(&self, d: &calm_common::instance::Instance) -> TransducerStep {
        let step = self.inner.step(d);
        if !step.snd.is_empty() {
            let batch: Multiset<Fact> = step.snd.facts().collect();
            let b = &self.bytes;
            b.batches.fetch_add(1, Ordering::Relaxed);
            let delta = wirefmt::encode(&batch).len() as u64;
            b.delta.fetch_add(delta, Ordering::Relaxed);
            let naive = wirefmt::naive_len(&batch) as u64;
            b.naive.fetch_add(naive, Ordering::Relaxed);
        }
        step
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// E23: wire bytes, naive vs delta; `obs` sees every run, so `repro
/// --trace-out` captures the `net/wire.bytes` counters.
pub fn e23_wire(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E23",
        "delta wire format — bytes on the wire vs the naive encoding",
    );
    let input = scaling_graph(11, 24, 1.5);

    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut all_smaller = true;
    let mut recording_exact = true;
    // The dense batch sampled below: the broadcast family's output, the
    // full TC closure — as one message, the shape that strategy ships.
    let mut batch: Multiset<Fact> = Multiset::new();
    for f in families(NODES) {
        let (expected, _) = f.run_sequential(&input, obs);
        if f.strategy == "monotone" {
            batch = expected.facts().collect();
        }

        // One fault-free run (in-process channel transport) and one
        // lossy run (reliable substrate: retransmitted copies count).
        let transports: [(&str, Option<FaultPlan>); 2] = [
            ("channel", None),
            (
                "reliable, drop=0.05",
                Some(FaultPlan::uniform(SEED, DROP, DROP / 2.0)),
            ),
        ];
        for (transport, plan) in transports {
            let bytes = Arc::new(BatchBytes::default());
            let recording = || {
                Box::new(Recording {
                    inner: f.transducer(1),
                    bytes: bytes.clone(),
                }) as Box<dyn Transducer>
            };
            let net = ThreadedNetwork {
                programs: Programs::PerWorker(&recording),
                policy: f.policy.as_ref(),
                config: f.config,
            };
            let mut cfg = ThreadedConfig::new(WORKERS);
            cfg.faults = plan;
            let thr = run_threaded_with(&net, &input, &cfg, obs);
            let matches = thr.states.output(&recording().schema().output) == expected;
            all_equal &= thr.quiescent && matches;
            let delta = bytes.delta.load(Ordering::Relaxed);
            let naive = bytes.naive.load(Ordering::Relaxed);
            all_smaller &= 0 < delta && delta < naive;
            if transport == "channel" {
                // Every batch goes once to each other worker: the
                // recording prices exactly what the executor ships.
                let remote = (WORKERS - 1) as u64;
                recording_exact &= thr.wire_bytes == delta * remote;
            }
            let saved = 100.0 * (1.0 - delta as f64 / naive.max(1) as f64);
            rows.push(vec![
                f.label.to_string(),
                transport.to_string(),
                thr.wire_bytes.to_string(),
                bytes.batches.load(Ordering::Relaxed).to_string(),
                delta.to_string(),
                naive.to_string(),
                format!("{saved:.1}%"),
                matches.to_string(),
            ]);
        }
    }
    r.table(markdown_table(
        &[
            "strategy (query)",
            "transport",
            "wire bytes (all copies)",
            "batches sent",
            "their delta bytes",
            "their naive bytes",
            "saved",
            "matches oracle",
        ],
        &rows,
    ));
    r.claim(
        "delta payloads beat the naive encoding on the batches every strategy sends",
        "the batches sent in each run, priced in both formats: delta < naive in every cell \
         (fan-out and retransmission copy both formats alike); on the channel transport \
         their delta bytes × 3 other workers are the executor's wire_bytes exactly",
        all_smaller && recording_exact,
    );
    r.claim(
        "the wire format is invisible to the engine",
        "every cell reproduces the sequential oracle byte-identically and quiesces",
        all_equal,
    );

    let delta = wirefmt::encode(&batch);
    let naive = wirefmt::encode_naive(&batch);
    let round_trip = wirefmt::decode(&delta).as_ref() == Ok(&batch)
        && wirefmt::decode_naive(&naive).as_ref() == Ok(&batch);
    r.table(markdown_table(
        &["sampled batch", "facts", "delta bytes", "naive bytes"],
        &[vec![
            "TC closure, one message".to_string(),
            batch.len().to_string(),
            delta.len().to_string(),
            naive.len().to_string(),
        ]],
    ));
    r.claim(
        "the codec round-trips the sampled batch in both formats",
        format!(
            "dense batch: {} delta bytes vs {} naive ({:.1}% saved)",
            delta.len(),
            naive.len(),
            100.0 * (1.0 - delta.len() as f64 / naive.len().max(1) as f64)
        ),
        round_trip && delta.len() < naive.len(),
    );
    r
}
