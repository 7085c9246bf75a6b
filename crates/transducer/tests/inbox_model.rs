//! The node's buffer against a plain `Multiset<Fact>`.
//!
//! Inside a [`NodeEngine`] `b(x)` is a list of shared row batches and a
//! running count (DESIGN §17); at its edges it is the multiset of facts
//! of §4.1.3. This suite drives one node through random sequences of
//! everything that touches the buffer — `enqueue` of a shared batch
//! (sometimes the same handle twice), `enqueue` of a decoded wire batch
//! with counts above one, `step` with all three deliveries, `restore` — next
//! to a model that *is* a `Multiset<Fact>`, and compares after every
//! operation: `pending()`, the O(1) count, `|m|`, the high-water mark
//! and the delivered *set* (read off the state: the broadcast strategy
//! stores every delivered fact). A sampled delivery's coins are the
//! model's own — one per occurrence, in fact order — and are pinned to
//! the values the pre-rows engine produced; and what crosses a node's
//! edge carries no symbol: arities survive a wire batch, and a snapshot
//! restores under any table.
//!
//! Deterministic seeded loops over [`calm_common::rng::Rng`], like
//! `common/tests/storage_model.rs`.

use calm_common::fact::{fact, Fact};
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::storage::{load_instance, SharedSymbols, Storage};
use calm_common::value::Value;
use calm_obs::Obs;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_spec::{node_pending, node_state, transition, Configuration};
use calm_transducer::runtime::DEFAULT_DELIVER_P;
use calm_transducer::{
    distribute, input_batches, Batch, Delivery, DistinctStrategy, DistributionPolicy, HashPolicy,
    Metrics, MonotoneBroadcast, Multiset, Network, NodeEngine, NodeId, SystemConfig,
    TransducerNetwork,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// `facts` as a batch over `symbols`: a decoded wire batch, a buffer.
fn batch(facts: &Multiset<Fact>, symbols: &SharedSymbols) -> Arc<Batch> {
    Arc::new(Batch::of_facts(facts, &mut symbols.write()))
}

/// `(state, buffer)` as the rows a restore takes, over `symbols`.
fn rows(
    state: &Instance,
    buffer: &Multiset<Fact>,
    symbols: &SharedSymbols,
) -> (Storage, Arc<Batch>) {
    let mut rows = Storage::new();
    load_instance(state, symbols, &mut rows);
    (rows, batch(buffer, symbols))
}

/// A message fact of arity 1–3 over a small domain.
fn random_message(rng: &mut Rng) -> Fact {
    let v = |rng: &mut Rng| Value::Int(rng.gen_range(0..4i64));
    let args = (0..rng.gen_range(1..4usize)).map(|_| v(rng)).collect();
    Fact::new("m_E", args)
}

/// The model: the buffer, its deepest arrival, and every fact a
/// delivery ever handed the node.
#[derive(Default)]
struct Model {
    buffer: Multiset<Fact>,
    high_water: usize,
    delivered: BTreeSet<Fact>,
}

impl Model {
    fn arrive(&mut self, facts: &Multiset<Fact>) {
        if !facts.is_empty() {
            for (f, n) in facts.iter() {
                self.buffer.insert_n(f.clone(), n);
            }
            self.high_water = self.high_water.max(self.buffer.len());
        }
    }

    /// Deliver per `delivery`; returns `|m|`. A sample flips one coin
    /// per occurrence, in fact order.
    fn deliver(&mut self, delivery: Delivery) -> usize {
        match delivery {
            Delivery::None => 0,
            Delivery::All => {
                let n = self.buffer.len();
                let buffer = std::mem::take(&mut self.buffer);
                self.delivered.extend(buffer.support().cloned());
                n
            }
            Delivery::Sample { seed, deliver_p } => {
                let mut rng = Rng::seed_from_u64(seed);
                let mut n = 0;
                for (f, count) in std::mem::take(&mut self.buffer).iter() {
                    let kept = (0..count).filter(|_| !rng.gen_bool(deliver_p)).count();
                    n += count - kept;
                    if kept < count {
                        self.delivered.insert(f.clone());
                    }
                    self.buffer.insert_n(f.clone(), kept);
                }
                n
            }
        }
    }
}

/// The facts the node has stored as collected: every delivered `m_E`
/// fact, as `c_E`.
fn collected(node: &NodeEngine<'_>, symbols: &SharedSymbols) -> BTreeSet<Fact> {
    (node_state(node, symbols).facts())
        .filter(|f| &**f.relation() == "c_E")
        .map(|f| Fact::new("m_E", f.args().to_vec()))
        .collect()
}

#[test]
fn the_inbox_is_a_multiset_of_facts_at_every_edge() {
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let policy = HashPolicy::new(Network::of_size(3));
    let x = policy.network().first().clone();
    let obs = Obs::noop();
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let symbols = SharedSymbols::new();
        let sys = SystemConfig::ORIGINAL;
        let input = Batch::default();
        let mut node = NodeEngine::new(&t, &policy, sys, x.clone(), &input, &symbols);
        let mut model = Model::default();
        let mut metrics = Metrics::default();
        for op in 0..60 {
            let at = format!("seed {seed}, operation {op}");
            match rng.gen_range(0..8u8) {
                // A send: each fact once, behind one handle — which a
                // second recipient-like enqueue may share.
                0..=2 => {
                    let n = rng.gen_range(0..6usize);
                    let sent: BTreeSet<Fact> = (0..n).map(|_| random_message(&mut rng)).collect();
                    let sent: Multiset<Fact> = sent.into_iter().collect();
                    let batch = Arc::new(Batch::of_facts(&sent, &mut symbols.write()));
                    assert_eq!(batch.len(), sent.len(), "{at}");
                    for _ in 0..rng.gen_range(1..3u8) {
                        node.enqueue(&batch, None, &mut metrics, &obs);
                        model.arrive(&sent);
                    }
                }
                // A decoded wire batch: counts above one.
                3 => {
                    let mut wire = Multiset::new();
                    for _ in 0..rng.gen_range(0..5usize) {
                        wire.insert_n(random_message(&mut rng), rng.gen_range(1..4usize));
                    }
                    node.enqueue(&batch(&wire, &symbols), None, &mut metrics, &obs);
                    model.arrive(&wire);
                }
                4..=6 => {
                    let delivery = match rng.gen_range(0..3u8) {
                        0 => Delivery::All,
                        1 => Delivery::None,
                        _ => Delivery::sample(rng.gen_u64()),
                    };
                    let outcome = node.step(delivery, &mut metrics, &obs);
                    assert_eq!(outcome.delivered, model.deliver(delivery), "{at}: |m|");
                }
                // A restore: the state the node has, some other buffer.
                _ => {
                    let mut buffer = Multiset::new();
                    for _ in 0..rng.gen_range(0..4usize) {
                        buffer.insert_n(random_message(&mut rng), rng.gen_range(1..3usize));
                    }
                    let (state, buffer_rows) =
                        rows(&node_state(&node, &symbols), &buffer, &symbols);
                    node.restore(&state, &[buffer_rows]);
                    model.buffer = buffer;
                }
            }
            assert_eq!(
                node_pending(&node, &symbols),
                model.buffer,
                "{at}: pending()"
            );
            assert_eq!(node.buffered(), model.buffer.len(), "{at}: the count");
            let hw = metrics.buffered_high_water.get(&x).copied().unwrap_or(0);
            assert_eq!(hw, model.high_water, "{at}: high-water mark");
            assert_eq!(
                collected(&node, &symbols),
                model.delivered,
                "{at}: delivered set"
            );
        }
        assert!(model.high_water > 0 && !model.delivered.is_empty());
    }
}

#[test]
fn a_sampled_delivery_flips_the_coins_it_always_did() {
    // Two senders, overlapping in m_E(3,4)..m_E(5,6): per seed, `|m|`
    // and the kept-back multiset (first argument, occurrences) as the
    // engine produced them when its inbox was a `Multiset<Fact>`.
    const PINNED: [(usize, &[(i64, usize)]); 8] = [
        (10, &[(4, 1), (5, 1)]),
        (7, &[(0, 1), (1, 1), (3, 1), (4, 1), (7, 1)]),
        (6, &[(0, 1), (2, 1), (4, 1), (5, 1), (6, 1), (8, 1)]),
        (7, &[(1, 1), (2, 1), (3, 2), (5, 1)]),
        (5, &[(0, 1), (1, 1), (3, 1), (4, 2), (5, 1), (8, 1)]),
        (6, &[(1, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1)]),
        (7, &[(0, 1), (1, 1), (3, 1), (5, 1), (6, 1)]),
        (8, &[(2, 1), (3, 1), (4, 1), (5, 1)]),
    ];
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let policy = HashPolicy::new(Network::of_size(3));
    let (x, input) = (policy.network().first().clone(), Batch::default());
    let a: Multiset<Fact> = (0..6).map(|i| fact("m_E", [i, i + 1])).collect();
    let b: Multiset<Fact> = (3..9).map(|i| fact("m_E", [i, i + 1])).collect();
    for (seed, (delivered, kept)) in PINNED.into_iter().enumerate() {
        let symbols = SharedSymbols::new();
        let sys = SystemConfig::ORIGINAL;
        let mut node = NodeEngine::new(&t, &policy, sys, x.clone(), &input, &symbols);
        let (mut m, obs) = (Metrics::default(), Obs::noop());
        for sent in [&a, &b] {
            let batch = Arc::new(Batch::of_facts(sent, &mut symbols.write()));
            node.enqueue(&batch, None, &mut m, &obs);
        }
        let outcome = node.step(Delivery::sample(seed as u64), &mut m, &obs);
        assert_eq!(outcome.delivered, delivered, "seed {seed}: |m|");
        let mut want = Multiset::new();
        for &(i, n) in kept {
            want.insert_n(fact("m_E", [i, i + 1]), n);
        }
        assert_eq!(
            node_pending(&node, &symbols),
            want,
            "seed {seed}: kept back"
        );
        assert_eq!(DEFAULT_DELIVER_P, 0.6, "the pins were taken at p = 0.6");
    }
}

/// The two-node policy-aware network of the next two tests.
fn distinct_pair() -> (DistinctStrategy, HashPolicy, Instance) {
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let policy = HashPolicy::new(Network::of_size(2));
    let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 2]), fact("E", [3, 1])]);
    (t, policy, input)
}

/// What one step sent, as the multiset of facts it is.
fn facts_of(sent: &Batch, symbols: &SharedSymbols) -> Multiset<Fact> {
    let mut out = Multiset::new();
    sent.add_to(&symbols.read(), &mut out);
    out
}

#[test]
fn a_wire_batch_carries_the_arity_of_every_row() {
    // One relation at two arities, and a second relation at a third:
    // the node must store and answer exactly as the specification does
    // from the same configuration.
    let (t, policy, input) = distinct_pair();
    let sys = SystemConfig::POLICY_AWARE;
    let mut wire = Multiset::new();
    wire.insert(fact("m_E", [1]));
    wire.insert_n(fact("m_E", [1, 2]), 2);
    wire.insert(fact("n_E", [1, 2, 3]));
    wire.insert(fact("n_E", [3, 3]));
    let nodes: Vec<NodeId> = policy.network().nodes().cloned().collect();
    let dist = distribute(&policy, &input);
    for (i, x) in nodes.iter().enumerate() {
        let other = &nodes[1 - i];
        // The specification.
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: sys,
        };
        let mut config = Configuration::start(policy.network());
        config.buffer.insert(x.clone(), wire.clone());
        let mut cold = Metrics::default();
        transition(&tn, &dist, &mut config, x, Delivery::All, &mut cold);
        // The node, fed through its wire door.
        let symbols = SharedSymbols::new();
        let h = &input_batches(&policy, &input, &mut symbols.write())[i];
        let mut node = NodeEngine::new(&t, &policy, sys, x.clone(), h, &symbols);
        let mut warm = Metrics::default();
        node.enqueue(&batch(&wire, &symbols), None, &mut warm, &Obs::noop());
        assert_eq!(
            node_pending(&node, &symbols),
            wire,
            "{x}: the batch as it was"
        );
        let outcome = node.step(Delivery::All, &mut warm, &Obs::noop());
        assert_eq!(outcome.delivered, 5, "{x}");
        assert_eq!(node_state(&node, &symbols), config.state[x], "{x}: state");
        let sent = facts_of(&outcome.sent, &symbols);
        assert_eq!(sent, config.buffer[other], "{x}: sends");
        assert!(
            node_state(&node, &symbols).contains(&fact("ab_E", [1, 2, 3])),
            "{x}: stored at the arity it came with"
        );
        assert_eq!(sent.count(&fact("n_E", [1, 2, 3])), 0, "{x}: not sent on");
        assert_eq!(warm.messages_sent, cold.messages_sent, "{x}");
        assert_eq!(warm.by_class, cold.by_class, "{x}");
    }
}

#[test]
fn a_snapshot_knows_no_symbols() {
    let (t, policy, input) = distinct_pair();
    let sys = SystemConfig::POLICY_AWARE;
    let x = policy.network().first().clone();
    // `H(x)` over `symbols`: `x` is the first node.
    let h =
        |symbols: &SharedSymbols| input_batches(&policy, &input, &mut symbols.write()).remove(0);
    let obs = Obs::noop();
    let wire = |facts: &[Fact]| -> Multiset<Fact> { facts.iter().cloned().collect() };
    let before = [
        wire(&[fact("m_E", [4, 5]), fact("n_E", [4, 4])]),
        wire(&[fact("n_E", [5, 4]), fact("m_E", [4, 5])]),
    ];
    let waiting = wire(&[
        fact("m_E", [6, 1]),
        fact("n_E", [6, 6]),
        fact("n_E", [6, 6]),
    ]);
    let after = [
        wire(&[fact("n_E", [1, 6]), fact("n_E", [6, 4])]),
        wire(&[]),
        wire(&[fact("m_E", [7, 7]), fact("m_E", [6, 1])]),
    ];

    // The original: stepped under its own table, warm, with a batch
    // waiting when the snapshot is taken.
    let first_table = SharedSymbols::new();
    let mut original = NodeEngine::new(&t, &policy, sys, x.clone(), &h(&first_table), &first_table);
    let mut discarded = Metrics::default();
    for sent in &before {
        original.enqueue(&batch(sent, &first_table), None, &mut discarded, &obs);
        original.step(Delivery::All, &mut discarded, &obs);
    }
    original.enqueue(&batch(&waiting, &first_table), None, &mut discarded, &obs);
    let (state, pending) = (
        node_state(&original, &first_table),
        node_pending(&original, &first_table),
    );
    assert!(!original.is_cold() && pending == waiting);

    // Restored under the same table, and under a fresh one in which the
    // same indices already mean other values and other relations.
    let mut same = NodeEngine::new(&t, &policy, sys, x.clone(), &h(&first_table), &first_table);
    let other_table = SharedSymbols::new();
    for k in 0..40 {
        let mut table = other_table.write();
        table.rel(&format!("r{k}"));
        table.sym(&Value::Int(1000 - k));
        table.sym(&Value::str(format!("v{k}")));
    }
    let mut fresh = NodeEngine::new(&t, &policy, sys, x.clone(), &h(&other_table), &other_table);
    let (same_state, same_pending) = rows(&state, &pending, &first_table);
    same.restore(&same_state, &[same_pending]);
    let (fresh_state, fresh_pending) = rows(&state, &pending, &other_table);
    fresh.restore(&fresh_state, &[fresh_pending]);

    let tables = [&first_table, &first_table, &other_table];
    let mut nodes = [original, same, fresh];
    let mut metrics = [(); 3].map(|()| Metrics::default());
    for (k, sent) in after.iter().enumerate() {
        let mut sends = Vec::new();
        for ((node, m), table) in nodes.iter_mut().zip(&mut metrics).zip(tables) {
            node.enqueue(&batch(sent, table), None, m, &obs);
            let outcome = node.step(Delivery::All, m, &obs);
            sends.push((facts_of(&outcome.sent, table), outcome.delivered));
        }
        for i in 1..3 {
            assert_eq!(sends[i], sends[0], "step {k}: sends of node {i}");
            let (mine, first) = ((&nodes[i], tables[i]), (&nodes[0], tables[0]));
            assert_eq!(
                node_state(mine.0, mine.1),
                node_state(first.0, first.1),
                "step {k}: node {i}"
            );
            assert_eq!(
                node_pending(mine.0, mine.1),
                node_pending(first.0, first.1),
                "step {k}: node {i}"
            );
            // The warm original has its arrivals before the snapshot on
            // no account here either: the three count alike.
            assert_eq!(metrics[i], metrics[0], "step {k}: metrics of node {i}");
        }
    }
    assert!(
        node_state(&nodes[0], &first_table).len() > state.len(),
        "the schedule did something"
    );
}
