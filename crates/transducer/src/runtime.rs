//! Fair runs of the asynchronous operational semantics (Section 4.1.3),
//! driven to quiescence by pluggable schedulers over warm nodes. The
//! transition one configuration to the next, which they are checked
//! against, is the `calm-spec` crate's.

use crate::engine::NodeEngine;
use crate::multiset::Multiset;
use crate::network::NodeId;
use crate::policy::DistributionPolicy;
use crate::rows::{input_batches, values_of, Inbox, StateRows};
use crate::schema::SystemConfig;
use crate::strategy::MessageClassCounts;
use crate::transducer::Transducer;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::schema::Schema;
use calm_common::storage::{
    relations_by_name, store_to_instance, CanonicalOrder, Relation, SharedSymbols, Storage, Sym,
};
use calm_obs::{ArgValue, Obs};
use std::collections::BTreeMap;

/// A transducer network `Π = (N, Υ, Π, P)` ready to run on inputs.
/// The network is taken from the policy.
pub struct TransducerNetwork<'a> {
    /// The per-node transducer.
    pub transducer: &'a dyn Transducer,
    /// The distribution policy (also supplies the network).
    pub policy: &'a dyn DistributionPolicy,
    /// Which system relations nodes see (model variant).
    pub config: SystemConfig,
}

/// Counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total transitions executed.
    pub transitions: usize,
    /// Heartbeats: transitions with `|m| = 0`, whether the schedule
    /// asked for one (`Delivery::None`), delivered everything from an
    /// empty buffer, or sampled and kept every occurrence back.
    pub heartbeats: usize,
    /// Messages enqueued: one per (sent fact, recipient) pair.
    pub messages_sent: usize,
    /// Messages delivered (multiset occurrences consumed).
    pub messages_delivered: usize,
    /// Transition index at which the first output fact appeared.
    pub first_output_at: Option<usize>,
    /// Transition index at which the output last grew.
    pub last_output_growth_at: Option<usize>,
    /// Messages sent, broken down by protocol class (`by_class.total()`
    /// equals `messages_sent` at all times).
    pub by_class: MessageClassCounts,
    /// Per-node high-water mark of the message buffer: the largest
    /// buffered-occurrence count each node's queue ever reached.
    pub buffered_high_water: BTreeMap<NodeId, usize>,
    /// Engine-level counters summed over every transition's queries
    /// (zero when the transducer is native Rust rather than Datalog).
    pub eval: calm_common::storage::EvalMetrics,
}

impl Metrics {
    /// The largest buffered-queue depth any node ever reached.
    pub fn max_queue_depth(&self) -> usize {
        self.buffered_high_water
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// `node`'s buffer is `depth` deep: keep its high-water mark.
    pub(crate) fn note_depth(&mut self, node: &NodeId, depth: usize) {
        match self.buffered_high_water.get_mut(node) {
            Some(hw) => *hw = (*hw).max(depth),
            None => {
                self.buffered_high_water.insert(node.clone(), depth);
            }
        }
    }

    /// Fold another run's counters into this one: sums for the flow
    /// counters, per-class and per-node-high-water pointwise merges, and
    /// `EvalMetrics::merge` for the engine counters. Associative and
    /// commutative with `Metrics::default()` as identity — the threaded
    /// executor merges per-worker metrics with this at join, in worker
    /// order, so the result is deterministic.
    ///
    /// The transition indices (`first_output_at`,
    /// `last_output_growth_at`) are local to each run's own transition
    /// counter; the merge keeps the earliest first and the latest last,
    /// which is the right summary when the counters advanced
    /// concurrently.
    pub fn merge(&mut self, other: &Metrics) {
        self.transitions += other.transitions;
        self.heartbeats += other.heartbeats;
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.first_output_at = match (self.first_output_at, other.first_output_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        self.last_output_growth_at = self.last_output_growth_at.max(other.last_output_growth_at);
        self.by_class.merge(&other.by_class);
        for (node, hw) in &other.buffered_high_water {
            self.note_depth(node, *hw);
        }
        self.eval.merge(&other.eval);
    }

    /// Emit the `runtime/run_summary` event that closes a run on every
    /// engine (sequential runtime, threaded executor, process
    /// coordinator), so reports read the same whichever produced them.
    pub fn report_run_summary(&self, obs: &Obs, quiescent: bool) {
        obs.event("runtime", "run_summary", 0, || {
            vec![
                ("quiescent", ArgValue::Bool(quiescent)),
                ("transitions", ArgValue::U64(self.transitions as u64)),
                ("heartbeats", ArgValue::U64(self.heartbeats as u64)),
                ("messages_sent", ArgValue::U64(self.messages_sent as u64)),
                (
                    "messages_delivered",
                    ArgValue::U64(self.messages_delivered as u64),
                ),
                (
                    "max_queue_depth",
                    ArgValue::U64(self.max_queue_depth() as u64),
                ),
            ]
        });
    }
}

/// The default per-occurrence delivery probability of sampled
/// deliveries and random schedulers.
pub const DEFAULT_DELIVER_P: f64 = 0.6;

/// What a single transition should deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// Deliver every buffered message (`m = b(x)`).
    All,
    /// Deliver nothing — a heartbeat.
    None,
    /// Deliver a random submultiset: each buffered occurrence is
    /// delivered with probability `deliver_p`, the rest stay in flight.
    /// This exercises the formal model's "m is a submultiset of b(x)"
    /// nondeterminism (Section 4.1.3). Deterministic given the seed.
    Sample {
        /// Per-transition RNG seed.
        seed: u64,
        /// Probability that each buffered occurrence is delivered.
        deliver_p: f64,
    },
}

impl Delivery {
    /// A sampled delivery with the default probability
    /// ([`DEFAULT_DELIVER_P`]).
    pub fn sample(seed: u64) -> Self {
        Delivery::Sample {
            seed,
            deliver_p: DEFAULT_DELIVER_P,
        }
    }
}

/// One transition of node `i` among the warm `nodes` of a run: its
/// step, then what it sent enqueued at every other node.
fn fire(
    nodes: &mut [NodeEngine<'_>],
    i: usize,
    delivery: Delivery,
    metrics: &mut Metrics,
    obs: &Obs,
) -> bool {
    let outcome = nodes[i].step(delivery, metrics, obs);
    if !outcome.sent.is_empty() {
        let _span = obs.span_on("runtime", i as u32 + 1, || "route".to_string());
        for (j, y) in nodes.iter_mut().enumerate() {
            if j != i {
                y.enqueue(&outcome.sent, outcome.mid, metrics, obs);
            }
        }
    }
    outcome.state_changed
}

/// The final `s(x)` of every node of a run, in the rows the run's engine
/// instances left them in: one [`StateRows`] from the sequential engine,
/// one per worker from the other two. `out(R)` is united from the rows
/// ([`FinalStates::united`]); a node's state becomes an [`Instance`] only
/// for a caller that asks ([`FinalStates::materialize`]) — un-interning
/// four nodes' memories costs more than a run on rows does — and is
/// counted (`runtime/states.materialized`), so that a run's report shows
/// that it built none.
#[derive(Debug, Clone, Default)]
pub struct FinalStates {
    parts: Vec<StateRows>,
    obs: Obs,
}

impl FinalStates {
    /// The states `parts` hold, node sets disjoint; what is made of them
    /// later is reported to `obs`.
    pub fn new(parts: Vec<StateRows>, obs: &Obs) -> Self {
        FinalStates {
            parts,
            obs: obs.clone(),
        }
    }

    /// `out(R)` as an [`Instance`], under the span `runtime/finish`: united
    /// over a table of its own, un-interned one sorted relation at a time.
    pub fn output(&self, output: &Schema) -> Instance {
        let _span = self.obs.span("runtime", || "finish".to_string());
        let symbols = SharedSymbols::new();
        let rows = self.unite(output, &symbols);
        let (table, mut order) = (&*symbols.read(), CanonicalOrder::default());
        order.extend(table);
        let mut united = Instance::new();
        for (name, r) in relations_by_name(&rows, table) {
            let relation = rows.relation(r).expect("a listed relation");
            let ids = order.sorted_ids(relation, None).into_iter();
            united.extend_relation(name, ids.map(|id| values_of(table, relation.row(id))));
        }
        united
    }

    /// `out(R)` as rows, under the span `runtime/finish`: the rows of the
    /// relations of `output` (name and arity both matching) of every
    /// node's state, united in one store over `symbols` — a table no
    /// node's state is over. Each part's symbols are translated by value
    /// when first seen, by index from then on.
    pub fn united(&self, output: &Schema, symbols: &SharedSymbols) -> Storage {
        let _span = self.obs.span("runtime", || "finish".to_string());
        self.unite(output, symbols)
    }

    fn unite(&self, output: &Schema, symbols: &SharedSymbols) -> Storage {
        let mut out = Storage::new();
        let mut row = Vec::new();
        for part in &self.parts {
            let (of, into) = (part.symbols.read(), &mut *symbols.write());
            let mut syms: Vec<Option<Sym>> = vec![None; of.sym_count()];
            for (name, arity) in output.iter() {
                let Some(r) = of.lookup_rel(name) else {
                    continue;
                };
                let to = into.rel(name);
                let states = part.nodes.iter().filter_map(|(_, state)| state.relation(r));
                for t in states.flat_map(Relation::live_rows) {
                    if t.len() != arity {
                        continue;
                    }
                    row.clear();
                    row.extend(t.iter().map(|&s| {
                        *syms[s.0 as usize].get_or_insert_with(|| into.sym(of.value(s)))
                    }));
                    out.insert(to, &row);
                }
            }
        }
        out
    }

    /// Every node's `s(x)` as an [`Instance`], built now.
    pub fn materialize(&self) -> BTreeMap<NodeId, Instance> {
        let states = (self.parts.iter()).flat_map(|part| {
            let state =
                |(x, rows): &(NodeId, Storage)| (x.clone(), store_to_instance(rows, &part.symbols));
            part.nodes.iter().map(state)
        });
        let states: BTreeMap<NodeId, Instance> = states.collect();
        self.obs
            .counter("runtime", "states.materialized", states.len() as u64);
        states
    }

    /// [`FinalStates::materialize`], the states alone.
    pub fn values(&self) -> impl Iterator<Item = Instance> {
        self.materialize().into_values()
    }
}

/// What [`run_with`] comes out as. `out(R)` is built only on request, from
/// `states` ([`FinalStates::output`], [`FinalStates::united`]).
#[derive(Debug)]
pub struct RunReport {
    /// The final `s(x)` of every node, as the rows the run left.
    pub states: FinalStates,
    /// Run counters.
    pub metrics: Metrics,
    /// Whether the run reached quiescence within the transition budget.
    pub quiescent: bool,
    /// The final `b(x)` of every node, over the states' one table.
    buffers: Vec<(NodeId, Inbox)>,
}

impl RunReport {
    /// The final `b(x)` of every node, as facts, built now.
    pub fn buffers(&self) -> BTreeMap<NodeId, Multiset<Fact>> {
        let table = self.states.parts[0].symbols.read();
        let buffer = |(x, b): &(NodeId, Inbox)| (x.clone(), b.to_multiset(&table));
        self.buffers.iter().map(buffer).collect()
    }
}

/// What [`run`] comes out as: `out(R)`, built once, and the counters — the
/// fields its callers read. The rest take [`run_with`]'s [`RunReport`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `out(R)` — the union of output facts across nodes.
    pub output: Instance,
    /// Run counters.
    pub metrics: Metrics,
    /// Whether the run reached quiescence within the transition budget.
    pub quiescent: bool,
}

/// Schedulers: how nodes are activated and messages delivered. All
/// schedulers end with deliver-everything sweeps, making every generated
/// schedule extendable to a fair run whose limit the quiescent
/// configuration *is*.
#[derive(Debug, Clone)]
pub enum Scheduler {
    /// Round-robin over nodes, delivering all buffered messages at each
    /// activation. The deterministic default.
    RoundRobin,
    /// A seeded random prefix: random node activation with random
    /// delivery/heartbeat decisions for `prefix` transitions, then
    /// round-robin sweeps to quiescence. Models adversarial asynchrony
    /// while keeping runs finite.
    Random {
        /// RNG seed.
        seed: u64,
        /// Number of random-schedule transitions before the closing
        /// sweeps.
        prefix: usize,
        /// Per-occurrence delivery probability of the prefix's sampled
        /// deliveries ([`DEFAULT_DELIVER_P`] unless swept).
        deliver_p: f64,
    },
}

impl Scheduler {
    /// A random scheduler with the default delivery probability
    /// ([`DEFAULT_DELIVER_P`]).
    pub fn random(seed: u64, prefix: usize) -> Self {
        Scheduler::Random {
            seed,
            prefix,
            deliver_p: DEFAULT_DELIVER_P,
        }
    }
}

/// Drive a transducer network on an input until quiescent, or until
/// `max_transitions`.
///
/// ```
/// use calm_transducer::{
///     expected_output, run, DomainGuidedPolicy, MonotoneBroadcast, Network,
///     Scheduler, SystemConfig, TransducerNetwork,
/// };
/// use calm_common::{fact, FnQuery, Instance, Schema};
///
/// // Identity on E, wrapped in the monotone broadcast strategy.
/// let copy = FnQuery::new(
///     "copy",
///     Schema::from_pairs([("E", 2)]),
///     Schema::from_pairs([("E2", 2)]),
///     |i: &Instance| Instance::from_facts(
///         i.tuples("E").map(|t| fact("E2", [t[0].clone(), t[1].clone()])),
///     ),
/// );
/// let strategy = MonotoneBroadcast::new(Box::new(copy));
/// let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
/// let expected = expected_output(strategy.query(), &input);
///
/// let policy = DomainGuidedPolicy::new(Network::of_size(3));
/// let network = TransducerNetwork {
///     transducer: &strategy,
///     policy: &policy,
///     config: SystemConfig::ORIGINAL,
/// };
/// let result = run(&network, &input, &Scheduler::RoundRobin, 10_000);
/// assert!(result.quiescent);
/// assert_eq!(result.output, expected);
/// ```
///
/// **Quiescence detection.** A transducer may keep sending the same
/// messages forever (the formal runs are infinite), and one written as a
/// rule set — a `DatalogTransducer`, a net-compiled program — does: it
/// derives `Qsnd` anew at every step. So "empty buffers" is not a usable
/// stopping criterion (though the strategies, which send each message
/// once, end there). A configuration is declared quiescent when a full
/// deliver-everything sweep (a) changes no node's state and (b) leaves
/// every node's buffer inside `M`, the set of rows the node's own step in
/// that sweep was delivered. The next fair step of a node then delivers a
/// subset of what its last step was, to the state that step left
/// unchanged. For deterministic transducers whose state accumulates
/// everything they react to (all in this workspace) that is a no-op, so
/// the configuration is the limit of every fair extension. `M` is a
/// subset of every row the node was ever delivered, so the test never
/// stops a run earlier than one against all past deliveries would; a
/// resender may take one sweep more, since a row sent to a node after its
/// step reaches its `M` only at its next step.
pub fn run(
    tn: &TransducerNetwork<'_>,
    input: &Instance,
    scheduler: &Scheduler,
    max_transitions: usize,
) -> RunResult {
    let r = run_with(tn, input, scheduler, max_transitions, &Obs::noop());
    RunResult {
        output: r.states.output(&tn.transducer.schema().output),
        metrics: r.metrics,
        quiescent: r.quiescent,
    }
}

/// As [`run`], reporting per-transition events, per-class message
/// counters, per-node queue-depth gauges and a final run summary to
/// `obs`, and building no `out(R)`: the report holds the final states.
pub fn run_with(
    tn: &TransducerNetwork<'_>,
    input: &Instance,
    scheduler: &Scheduler,
    max_transitions: usize,
    obs: &Obs,
) -> RunReport {
    let ids: Vec<&NodeId> = tn.policy.network().nodes().collect();
    // One warm node per node of the network for the whole run, all over
    // one symbol table: what one sends, another enqueues by handle.
    let symbols = SharedSymbols::new();
    let inputs = input_batches(tn.policy, input, &mut symbols.write());
    let (transducer, policy) = (tn.transducer, tn.policy);
    let mut nodes: Vec<NodeEngine<'_>> = (ids.iter().zip(&inputs))
        .map(|(&x, h)| NodeEngine::new(transducer, policy, tn.config, x.clone(), h, &symbols))
        .collect();
    let mut metrics = Metrics::default();

    if let Scheduler::Random {
        seed,
        prefix,
        deliver_p,
    } = scheduler
    {
        // Guards against a degenerate schedule. A non-finite or
        // out-of-range probability falls back into [0, 1]; and the
        // random prefix may claim at most half the transition budget —
        // at `deliver_p = 0` every prefix transition is a heartbeat or
        // an empty sampled delivery, so an unbounded prefix would spin
        // the whole budget away without delivering a single message
        // and the closing sweeps (which provide the fairness the
        // formal model demands) would never run.
        let deliver_p = if deliver_p.is_finite() {
            deliver_p.clamp(0.0, 1.0)
        } else {
            DEFAULT_DELIVER_P
        };
        let prefix = (*prefix).min(max_transitions / 2);
        let mut rng = Rng::seed_from_u64(*seed);
        for _ in 0..prefix {
            if metrics.transitions >= max_transitions {
                break;
            }
            let i = rng.gen_range(0..nodes.len());
            let delivery = match rng.gen_range(0..3u8) {
                0 => Delivery::All,
                1 => Delivery::None,
                _ => Delivery::Sample {
                    seed: rng.gen_u64(),
                    deliver_p,
                },
            };
            fire(&mut nodes, i, delivery, &mut metrics, obs);
        }
    }

    // Closing round-robin sweeps with full delivery.
    let mut quiescent = false;
    while metrics.transitions < max_transitions {
        let mut state_changed = false;
        for i in 0..nodes.len() {
            if metrics.transitions >= max_transitions {
                break;
            }
            state_changed |= fire(&mut nodes, i, Delivery::All, &mut metrics, obs);
        }
        let _span = obs.span("runtime", || "quiesce".to_string());
        // (b) of the quiescence test (see [`run`]).
        if !state_changed && nodes.iter().all(NodeEngine::holds_only_redeliveries) {
            quiescent = true;
            break;
        }
    }

    metrics.report_run_summary(obs, quiescent);

    if obs.enabled() {
        let symbols = symbols.read().sym_count();
        obs.gauge("runtime", "symbols", 0, symbols as u64);
    }
    let mut rows = StateRows {
        symbols,
        nodes: Vec::with_capacity(nodes.len()),
    };
    let mut buffers = Vec::with_capacity(nodes.len());
    for (i, (x, node)) in ids.into_iter().zip(nodes).enumerate() {
        let (state, buffer) = node.into_rows();
        if obs.enabled() {
            obs.gauge("runtime", "state_rows", i as u32 + 1, state.len() as u64);
        }
        rows.nodes.push((x.clone(), state));
        buffers.push((x.clone(), buffer));
    }
    RunReport {
        states: FinalStates::new(vec![rows], obs),
        metrics,
        quiescent,
        buffers,
    }
}
