//! Traced runs: a per-transition event log of a network execution, for
//! debugging transducers and for the examples' narrative output.
//!
//! Since the calm-obs layer landed, there is exactly one event mechanism:
//! the runtime emits per-transition events through [`calm_obs::Obs`], and
//! a traced run is simply [`crate::runtime::run_with`] feeding a [`TraceSink`] that
//! collects those events back into a [`Trace`]. The same run can fan out
//! to a JSONL log or Chrome trace at no extra cost via
//! [`calm_obs::MultiSink`].

use calm_obs::{ArgValue, Sink};
use std::fmt;
use std::sync::Mutex;

/// One transition's observable effects, reconstructed from the runtime's
/// `runtime/transition` observability event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// 1-based transition index.
    pub index: usize,
    /// The active node (rendered).
    pub node: String,
    /// Number of message occurrences delivered (0 = heartbeat).
    pub delivered: usize,
    /// Message occurrences enqueued to other nodes by this transition.
    pub sent: usize,
    /// Output facts that appeared at this node in this transition
    /// (rendered).
    pub new_output: Vec<String>,
    /// Whether the node's state changed at all.
    pub state_changed: bool,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<4} {}  delivered={} sent={}{}",
            self.index,
            self.node,
            self.delivered,
            self.sent,
            if self.new_output.is_empty() {
                String::new()
            } else {
                format!("  +out: {}", self.new_output.join(" "))
            }
        )
    }
}

/// The event log of a run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Render the full log, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// A [`Sink`] collecting the runtime's per-transition events into a
/// [`Trace`]. Every other observation kind passes through untouched
/// (combine with other sinks via [`calm_obs::MultiSink`] to keep them).
#[derive(Default)]
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    /// An empty collector.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Drain the collected events into a [`Trace`], assigning 1-based
    /// transition indexes by arrival order.
    pub fn take_trace(&self) -> Trace {
        let mut events = std::mem::take(&mut *self.events.lock().expect("trace events"));
        for (i, e) in events.iter_mut().enumerate() {
            e.index = i + 1;
        }
        Trace { events }
    }
}

impl Sink for TraceSink {
    fn span(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}

    fn event(&self, cat: &str, name: &str, _track: u32, _ts_us: u64, args: &[(&str, ArgValue)]) {
        if cat != "runtime" || name != "transition" {
            return;
        }
        let mut event = TraceEvent {
            index: 0,
            node: String::new(),
            delivered: 0,
            sent: 0,
            new_output: Vec::new(),
            state_changed: false,
        };
        for (key, value) in args {
            match (*key, value) {
                ("node", ArgValue::Str(s)) => event.node = s.clone(),
                ("delivered", ArgValue::U64(n)) => event.delivered = *n as usize,
                ("sent", ArgValue::U64(n)) => event.sent = *n as usize,
                ("state_changed", ArgValue::Bool(b)) => event.state_changed = *b,
                ("new_output", ArgValue::List(facts)) => event.new_output = facts.clone(),
                _ => {}
            }
        }
        self.events.lock().expect("trace events").push(event);
    }

    fn counter(&self, _: &str, _: &str, _: u64, _: u64) {}
    fn gauge(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}
    fn histogram(&self, _: &str, _: &str, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::HashPolicy;
    use crate::runtime::{run, run_with, RunReport, Scheduler, TransducerNetwork};
    use crate::schema::SystemConfig;
    use crate::strategy::{expected_output, MonotoneBroadcast};
    use crate::transducer::Transducer;
    use calm_common::generator::path;
    use calm_common::instance::Instance;
    use calm_obs::Obs;
    use calm_queries::tc::tc_datalog;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Run round-robin with full delivery until quiescence (same stopping rule
    /// as [`crate::runtime::run`]), recording a [`TraceEvent`] per transition.
    fn traced_run(
        tn: &TransducerNetwork<'_>,
        input: &Instance,
        max_transitions: usize,
    ) -> (RunReport, Trace) {
        let sink = Arc::new(TraceSink::new());
        let obs = Obs::new(sink.clone());
        let result = run_with(tn, input, &Scheduler::RoundRobin, max_transitions, &obs);
        (result, sink.take_trace())
    }

    #[test]
    fn trace_matches_untraced_run() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let input = path(4);
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let (result, trace) = traced_run(&tn, &input, 100_000);
        let output = result.states.output(&t.schema().output);
        assert!(result.quiescent);
        assert_eq!(output, expected);
        // Event bookkeeping is consistent with the metrics.
        assert_eq!(trace.events.len(), result.metrics.transitions);
        let traced_sent: usize = trace.events.iter().map(|e| e.sent).sum();
        assert_eq!(traced_sent, result.metrics.messages_sent);
        let traced_delivered: usize = trace.events.iter().map(|e| e.delivered).sum();
        assert_eq!(traced_delivered, result.metrics.messages_delivered);
        // Output events reconstruct the final output (rendered form).
        let from_trace: BTreeSet<String> = (trace.events.iter())
            .flat_map(|e| e.new_output.iter().cloned())
            .collect();
        let rendered: BTreeSet<String> = output.facts().map(|f| f.to_string()).collect();
        assert_eq!(from_trace, rendered);
        // Rendering produces one line per event, 1-based indexes in order.
        assert_eq!(trace.render().lines().count(), trace.events.len());
        assert!(trace
            .events
            .iter()
            .enumerate()
            .all(|(i, e)| e.index == i + 1));
        // The traced run is the plain run plus observation: identical
        // output and metrics.
        let plain = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert_eq!(plain.output, output);
        assert_eq!(plain.metrics, result.metrics);
    }

    #[test]
    fn single_node_trace_is_all_heartbeat_like() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let input = path(2);
        let policy = HashPolicy::new(Network::of_size(1));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let (result, trace) = traced_run(&tn, &input, 1000);
        assert!(result.quiescent);
        assert!(trace.events.iter().all(|e| e.delivered == 0 && e.sent == 0));
    }
}
