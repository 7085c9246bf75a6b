//! The asynchronous operational semantics (Section 4.1.3): configurations
//! `(s, b)`, transitions, `out(R)`, and fair runs that compute a query.

use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_common::storage::{load_instance, store_to_instance, SharedSymbols, Storage};
use calm_obs::Obs;
use calm_transducer::{
    run_with, Batch, Delivery, Metrics, Multiset, Network, NodeEngine, NodeId, RunReport,
    Scheduler, TransducerNetwork,
};
use std::collections::BTreeMap;

/// A configuration `(s, b)`: per-node state (output ∪ memory facts) and
/// per-node message buffer (a multiset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// `s(x)` — output and memory facts stored at each node.
    pub state: BTreeMap<NodeId, Instance>,
    /// `b(x)` — messages sent to each node and not yet delivered.
    pub buffer: BTreeMap<NodeId, Multiset<Fact>>,
}

impl Configuration {
    /// The start configuration: everything empty.
    pub fn start(network: &Network) -> Self {
        Configuration {
            state: network
                .nodes()
                .map(|n| (n.clone(), Instance::new()))
                .collect(),
            buffer: network
                .nodes()
                .map(|n| (n.clone(), Multiset::new()))
                .collect(),
        }
    }

    /// Total buffered messages across all nodes.
    pub fn buffered(&self) -> usize {
        self.buffer.values().map(Multiset::len).sum()
    }
}

/// The final configuration of a run, built from its report's rows: the
/// states and the buffers.
pub fn final_config(r: &RunReport) -> Configuration {
    Configuration {
        state: r.states.materialize(),
        buffer: r.buffers(),
    }
}

/// Execute one transition of node `x`: deliver per `delivery`, expose
/// `D = J ∪ S`, apply the four queries, and update the configuration.
/// Returns `true` when the node's state changed.
///
/// A cold [`NodeEngine`] is built from `(H(x), s(x), b(x))` for the call
/// and taken apart after it, and what it sent goes straight into the
/// other nodes' buffers: the transition exactly as §4.1.3 defines it,
/// one configuration to the next — the specification the warm nodes of
/// [`calm_transducer::run_with`] are checked against, and what the
/// heartbeat witnesses and proof replays step with. It reports to no
/// [`Obs`].
pub fn transition(
    tn: &TransducerNetwork<'_>,
    dist: &BTreeMap<NodeId, Instance>,
    config: &mut Configuration,
    x: &NodeId,
    delivery: Delivery,
    metrics: &mut Metrics,
) -> bool {
    // A table of its own: nothing interned outlives the call. The
    // configuration's facts, `H(x)` among them, are interned at this edge.
    let symbols = SharedSymbols::new();
    let input: Multiset<Fact> = dist.get(x).into_iter().flat_map(Instance::facts).collect();
    let input = Batch::of_facts(&input, &mut symbols.write());
    let (transducer, policy) = (tn.transducer, tn.policy);
    let mut node = NodeEngine::new(transducer, policy, tn.config, x.clone(), &input, &symbols);
    let (state, buffer) = (config.state.remove(x), config.buffer.remove(x));
    let mut rows = Storage::new();
    load_instance(&state.expect("node state"), &symbols, &mut rows);
    let buffer = Batch::of_facts(&buffer.expect("node buffer"), &mut symbols.write());
    node.restore(&rows, &[buffer.into()]);
    let outcome = node.step(delivery, metrics, &Obs::noop());
    config.state.insert(x.clone(), node_state(&node, &symbols));
    config
        .buffer
        .insert(x.clone(), node_pending(&node, &symbols));
    if !outcome.sent.is_empty() {
        let mut sent = Multiset::new();
        outcome.sent.add_to(&symbols.read(), &mut sent);
        for y in tn.policy.network().others(x) {
            let buffer = config.buffer.get_mut(y).expect("node buffer");
            for (f, n) in sent.iter() {
                buffer.insert_n(f.clone(), n);
            }
            let hw = metrics.buffered_high_water.entry(y.clone()).or_default();
            *hw = (*hw).max(buffer.len());
        }
    }
    outcome.state_changed
}

/// `s(x)` of `node` as facts: its checkpoint's state, un-interned over
/// `symbols`, the table the node was built over.
pub fn node_state(node: &NodeEngine<'_>, symbols: &SharedSymbols) -> Instance {
    store_to_instance(&node.checkpoint().0, symbols)
}

/// `b(x)` of `node` as facts: its checkpoint's buffer, un-interned over
/// `symbols`, the table the node was built over.
pub fn node_pending(node: &NodeEngine<'_>, symbols: &SharedSymbols) -> Multiset<Fact> {
    let batches = node.checkpoint().1;
    let (table, mut pending) = (symbols.read(), Multiset::new());
    for batch in &batches {
        batch.add_to(&table, &mut pending);
    }
    pending
}

/// `D` of `node` as it stands between transitions, as facts: `H(x) ∪
/// s(x)`, and `S` while the node is warm.
pub fn node_visible(node: &NodeEngine<'_>, symbols: &SharedSymbols) -> Instance {
    store_to_instance(node.rows(), symbols)
}

/// `out(R)`: the union over `states` — every node's `s(x)` — of the
/// facts over the `output` schema. The specification: the engines unite
/// rows ([`calm_transducer::FinalStates::output`]) and the tests hold
/// them to this.
pub fn network_output(states: &BTreeMap<NodeId, Instance>, output: &Schema) -> Instance {
    let mut out = Instance::new();
    for state in states.values() {
        out.extend(state.restrict(output).facts());
    }
    out
}

/// Check that the network *computes* a query on this input: every
/// scheduler in `schedulers` must quiesce with output exactly `expected`.
/// Returns the per-scheduler reports for inspection.
pub fn verify_computes(
    tn: &TransducerNetwork<'_>,
    input: &Instance,
    expected: &Instance,
    schedulers: &[Scheduler],
    max_transitions: usize,
) -> Result<Vec<RunReport>, String> {
    let mut results = Vec::new();
    for s in schedulers {
        let r = run_with(tn, input, s, max_transitions, &Obs::noop());
        if !r.quiescent {
            return Err(format!(
                "run did not quiesce within {max_transitions} transitions under {s:?}"
            ));
        }
        let output = r.states.output(&tn.transducer.schema().output);
        if &output != expected {
            return Err(format!(
                "scheduler {s:?}: output {output:?} != expected {expected:?}"
            ));
        }
        results.push(r);
    }
    Ok(results)
}
