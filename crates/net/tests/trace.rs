//! Causal-tracing invariants, end to end: a traced threaded run under
//! message loss must leave a JSONL log from which the happens-before
//! graph reconstructs *completely* (every delivery traced to its send)
//! and *acyclically* — and tracing must never perturb what the engines
//! compute: outputs stay byte-identical to the sequential oracle at any
//! worker count, traced or not.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_net::{
    run_threaded, run_threaded_with, FaultPlan, Programs, ThreadedConfig, ThreadedNetwork,
};
use calm_obs::trace::analyze_lines;
use calm_obs::{JsonlSink, Obs, ReportSink};
use calm_queries::tc::tc_datalog;
use calm_transducer::{
    expected_output, run, HashPolicy, MonotoneBroadcast, Network, Scheduler, SystemConfig,
    Transducer, TransducerNetwork,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The broadcast strategy over `tc`: every worker builds its own.
fn tc_broadcast() -> Box<dyn Transducer> {
    Box::new(MonotoneBroadcast::new(Box::new(tc_datalog())))
}

/// An in-memory writer sharing its buffer with the test.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 output")
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

fn chain_input(n: i64) -> Instance {
    Instance::from_facts((0..n).map(|i| fact("E", [i, i + 1])))
}

#[test]
fn faulty_threaded_trace_reconstructs_a_complete_acyclic_graph() {
    // The acceptance run: 5% message loss, several workers, tracing on.
    // Every delivered batch must trace back to its send and the causal
    // graph must be acyclic — under retransmission, crash-free loss and
    // receiver dedup alike.
    //
    // Sized for the loss assertion below: how many wire transmissions a
    // run attempts depends on the schedule (batching). Eight nodes
    // broadcasting a chain of 24 attempt 180-650, so a run without a
    // single drop has probability 0.95^180 < 1e-4 (a chain of 8 on 4
    // nodes attempts 40-50 and drops nothing in two runs of five).
    let policy = HashPolicy::new(Network::of_size(8));
    let tn = ThreadedNetwork {
        programs: Programs::PerWorker(&tc_broadcast),
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let buf = SharedBuf::default();
    let obs = Obs::new(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let plan = FaultPlan::uniform(23, 0.05, 0.0);
    let r = run_threaded_with(
        &tn,
        &chain_input(24),
        &ThreadedConfig::new(3).with_faults(plan),
        &obs,
    );
    obs.finish();
    assert!(r.quiescent, "lossy run must still quiesce");

    let text = buf.text();
    let a = analyze_lines(text.lines());
    assert!(
        a.invariants_ok(),
        "happens-before graph must be complete and acyclic: {:?}",
        a.violations
    );
    assert!(a.sends > 0, "sends traced");
    assert!(a.deliveries > 0, "deliveries traced");
    assert_eq!(a.unparsed_lines, 0, "no torn lines");
    // The fault plan actually bit: losses were observed and healed.
    assert!(r.faults.dropped > 0, "drop=0.05 must drop something");
    assert_eq!(
        a.drops, r.faults.dropped,
        "every drop carries a trace event"
    );
    assert_eq!(
        a.retransmits, r.faults.retransmissions,
        "every retransmission carries a trace event"
    );
    assert_eq!(
        a.dedups, r.faults.duplicates_suppressed,
        "every dedup suppression carries a trace event"
    );
    // The run's summary event: seven of the counters, in this order.
    let f = &r.faults;
    let summary = format!(
        "\"args\":{{\"attempts\":{},\"retransmissions\":{},\"duplicates_suppressed\":{},\
         \"dropped\":{},\"crashes\":{},\"snapshots\":{},\"retry_exhausted\":{}}}",
        f.attempts,
        f.retransmissions,
        f.duplicates_suppressed,
        f.dropped,
        f.crashes,
        f.snapshots,
        f.retry_exhausted
    );
    let event = (text.lines().find(|l| l.contains("\"fault_summary\""))).expect("a summary event");
    assert!(event.contains(&summary), "{event}");
    // The report walks a critical path back to a causal root.
    assert!(!a.critical_path.is_empty(), "critical path reconstructed");
    let root = a.critical_path.last().unwrap();
    assert!(
        root.id.1 == 0 || a.critical_path.len() > 1,
        "path walks causes, newest first"
    );
}

#[test]
fn sequential_trace_speaks_the_same_vocabulary() {
    // The sequential engine's trace must analyze with the same tooling
    // and pass the same invariants — same `trace/send` / `trace/deliver`
    // events, same id scheme.
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let policy = HashPolicy::new(Network::of_size(3));
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let buf = SharedBuf::default();
    let obs = Obs::new(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let r = calm_transducer::run_with(
        &tn,
        &chain_input(5),
        &Scheduler::RoundRobin,
        1_000_000,
        &obs,
    );
    obs.finish();
    assert!(r.quiescent);

    let text = buf.text();
    let a = analyze_lines(text.lines());
    assert!(a.invariants_ok(), "{:?}", a.violations);
    assert!(a.sends > 0);
    assert!(a.deliveries > 0);
    // Broadcast: each send is delivered to every other node.
    assert_eq!(a.deliveries, a.sends * 2);
    assert!(!a.critical_path.is_empty());
    // Class fan-out picked up the strategy's fact broadcasts.
    assert!(a.classes.contains_key("fact"), "{:?}", a.classes.keys());
}

#[test]
fn tracing_never_perturbs_outputs() {
    // Byte-identity oracle discipline with the recorder on: for any
    // worker count, with and without faults, the traced run's output
    // must equal the untraced run's output must equal the sequential
    // oracle's.
    let t = tc_broadcast();
    let policy = HashPolicy::new(Network::of_size(4));
    let input = chain_input(6);
    let seq_tn = TransducerNetwork {
        transducer: &*t,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let oracle = run(&seq_tn, &input, &Scheduler::RoundRobin, 1_000_000);
    assert!(oracle.quiescent);

    // Sequential, traced: identical output.
    let obs = Obs::new(Arc::new(JsonlSink::to_writer(Box::new(std::io::sink()))));
    let seq_traced =
        calm_transducer::run_with(&seq_tn, &input, &Scheduler::RoundRobin, 1_000_000, &obs);
    obs.finish();
    let seq_traced = seq_traced.states.output(&t.schema().output);
    assert_eq!(seq_traced, oracle.output, "sequential traced");

    let tn = ThreadedNetwork {
        programs: Programs::PerWorker(&tc_broadcast),
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    for workers in [1, 2, 8] {
        for faults in [None, Some(FaultPlan::uniform(7, 0.1, 0.05))] {
            let mut cfg = ThreadedConfig::new(workers);
            if let Some(plan) = faults.clone() {
                cfg = cfg.with_faults(plan);
            }
            let untraced = run_threaded(&tn, &input, &cfg);
            let obs = Obs::new(Arc::new(JsonlSink::to_writer(Box::new(std::io::sink()))));
            let traced = run_threaded_with(&tn, &input, &cfg, &obs);
            obs.finish();
            let tag = format!("workers={workers} faults={}", faults.is_some());
            assert!(traced.quiescent, "{tag}");
            let traced_output = traced.states.output(&t.schema().output);
            assert_eq!(traced_output, oracle.output, "{tag}: traced vs oracle");
            assert_eq!(untraced.output, traced_output, "{tag}: untraced vs traced");
            assert_eq!(
                untraced.metrics.messages_sent, traced.metrics.messages_sent,
                "{tag}: tracing must not change engine-level sends"
            );
        }
    }
}

/// How many `runtime/finish` spans `report` holds: the `n=` of its line.
fn finish_spans(report: &ReportSink) -> u64 {
    let rendered = report.render();
    let line = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("runtime/finish "));
    line.map_or(0, |l| {
        let n = l.split_whitespace().find_map(|w| w.strip_prefix("n="));
        n.expect("a span line has n=").parse().unwrap()
    })
}

#[test]
fn a_threaded_run_unites_out_r_only_when_asked() {
    // The join hands the workers' rows over as they are: `out(R)` is
    // united by the caller that reads it, once, and no node's state is
    // built as facts on the way.
    let policy = HashPolicy::new(Network::of_size(4));
    let tn = ThreadedNetwork {
        programs: Programs::PerWorker(&tc_broadcast),
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let report = Arc::new(ReportSink::new());
    let input = chain_input(6);
    let obs = Obs::new(report.clone());
    let r = run_threaded_with(&tn, &input, &ThreadedConfig::new(2), &obs);
    assert!(r.quiescent);
    assert_eq!(finish_spans(&report), 0, "the run united nothing");
    let output = r.states.output(&tc_broadcast().schema().output);
    assert_eq!(output, expected_output(&tc_datalog(), &input));
    assert_eq!(
        finish_spans(&report),
        1,
        "out(R) is united once, when asked"
    );
    assert_eq!(report.counter_total("runtime", "states.materialized"), 0);
}
