//! A node engine running Datalog transducers: a program that deletes,
//! or drops a value it was only sent, cools the engine; a traced send
//! mints increasing ids and names its cause.

use calm_common::fact::{fact, Fact};
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_common::storage::{SharedSymbols, Storage};
use calm_obs::{Obs, ReportSink};
use calm_spec::{node_state, DatalogTransducer};
use calm_transducer::{
    Batch, Delivery, DistributionPolicy, HashPolicy, Metrics, Multiset, Network, NodeEngine,
    NodeId, NodeStepOutcome, SystemConfig, Transducer, TransducerSchema,
};
use std::sync::Arc;

/// Node `x` of `t` holding `input` as `H(x)`, over `symbols`: the
/// instance interned at the edge, as `transition` does.
fn new_node<'a>(
    t: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    sys: SystemConfig,
    x: NodeId,
    input: &Instance,
    symbols: &SharedSymbols,
) -> NodeEngine<'a> {
    let h = Batch::of_facts(&input.facts().collect(), &mut symbols.write());
    NodeEngine::new(t, policy, sys, x, &h, symbols)
}

/// A heartbeat: the node steps on what it holds.
fn beat(engine: &mut NodeEngine<'_>, metrics: &mut Metrics) -> NodeStepOutcome {
    engine.step(Delivery::None, metrics, &Obs::noop())
}

/// `facts` as one send — each once — over `symbols`.
fn send(symbols: &SharedSymbols, facts: &[Fact]) -> Arc<Batch> {
    let facts: Multiset<Fact> = facts.iter().cloned().collect();
    Arc::new(Batch::of_facts(&facts, &mut symbols.write()))
}

/// Enqueue `facts` as one send and deliver everything.
fn hand(
    engine: &mut NodeEngine<'_>,
    symbols: &SharedSymbols,
    facts: &[Fact],
    metrics: &mut Metrics,
) -> NodeStepOutcome {
    engine.enqueue(&send(symbols, facts), None, metrics, &Obs::noop());
    engine.step(Delivery::All, metrics, &Obs::noop())
}

#[test]
fn deletions_and_unstored_message_values_cool_the_engine() {
    let schema = || {
        TransducerSchema::new(
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("out_seen", 1)]),
            Schema::from_pairs([("msg_v", 1)]),
            Schema::from_pairs([("flag", 2)]),
        )
    };
    let net = Network::of_size(1);
    let policy = HashPolicy::new(net.clone());
    let input = Instance::from_facts([fact("E", [1, 2])]);
    let x = net.first().clone();
    let sys = SystemConfig::POLICY_AWARE;
    let mut metrics = Metrics::default();
    let symbols = SharedSymbols::new();

    // A toggle deletes every other transition.
    let toggle = DatalogTransducer::parse(
        "toggle",
        schema(),
        "flag(x,y) :- E(x,y), not flag(x,y).\n\
         del_flag(x,y) :- E(x,y), flag(x,y).",
    )
    .unwrap();
    let mut engine = new_node(&toggle, &policy, sys, x.clone(), &input, &symbols);
    beat(&mut engine, &mut metrics);
    assert!(!engine.is_cold(), "an insertion keeps the engine warm");
    let off = beat(&mut engine, &mut metrics);
    assert!(off.state_changed && engine.is_cold() && node_state(&engine, &symbols).is_empty());

    // A program that stores nothing of a delivered value: A shrinks
    // back when the message leaves.
    let forgetful =
        DatalogTransducer::parse("forgetful", schema(), "out_seen(x) :- E(x,y).").unwrap();
    let symbols = SharedSymbols::new();
    let mut engine = new_node(&forgetful, &policy, sys, x.clone(), &input, &symbols);
    beat(&mut engine, &mut metrics);
    assert!(!engine.is_cold());
    hand(&mut engine, &symbols, &[fact("msg_v", [1])], &mut metrics);
    assert!(!engine.is_cold(), "1 is a value of H(x)");
    hand(&mut engine, &symbols, &[fact("msg_v", [9])], &mut metrics);
    assert!(engine.is_cold(), "9 was seen in the message only");
}

#[test]
fn a_traced_send_mints_increasing_ids_and_names_the_last_arrival_as_its_cause() {
    // A program that sends at every step, whatever it did before.
    let t = DatalogTransducer::parse(
        "resender",
        TransducerSchema::new(
            Schema::from_pairs([("E", 2)]),
            Schema::new(),
            Schema::from_pairs([("m_E", 2)]),
            Schema::new(),
        ),
        "m_E(x,y) :- E(x,y).",
    )
    .unwrap();
    let net = Network::of_size(3);
    let policy = HashPolicy::new(net.clone());
    let input = Instance::from_facts([fact("E", [1, 2])]);
    let x = net.nodes().nth(1).unwrap().clone();
    let symbols = SharedSymbols::new();
    let mut node = new_node(&t, &policy, SystemConfig::ORIGINAL, x, &input, &symbols);
    let mut m = Metrics::default();
    // Untraced: no id.
    let quiet = node.step(Delivery::None, &mut m, &Obs::noop());
    assert!(!quiet.sent.is_empty() && quiet.mid.is_none());
    let obs = Obs::new(Arc::new(ReportSink::new()));
    node.restore(&Storage::new(), &[]);
    let first = node.step(Delivery::None, &mut m, &obs);
    assert_eq!((first.mid, first.cause), (Some((1, 0)), None));
    node.enqueue(
        &send(&symbols, &[fact("m_E", [2, 3])]),
        Some((0, 7)),
        &mut m,
        &obs,
    );
    let second = node.step(Delivery::All, &mut m, &obs);
    assert_eq!((second.mid, second.cause), (Some((1, 1)), Some((0, 7))));
    // A restore does not hand an id out twice; a predecessor's
    // numbering can only push the next one up.
    node.restore(&Storage::new(), &[]);
    node.resume_ids_from(1);
    assert_eq!(node.next_seq(), 2);
    node.resume_ids_from(9);
    let third = node.step(Delivery::None, &mut m, &obs);
    assert_eq!(third.mid, Some((1, 9)));
}
