//! Warm ≡ cold, every transition.
//!
//! A run steps one warm [`NodeEngine`] per node: `D`, the known values,
//! the system facts, the node's open program and its buffer all live
//! across transitions. The *specification* is [`transition`]: a cold
//! node built from `(H(x), s(x), b(x))` for each call, stepping the
//! stateless [`Transducer::step`] (the transducer is wrapped so that its
//! own `open` is hidden and the default adapter runs), its send put
//! straight into the configuration's buffers. This suite drives both
//! through the same schedule — the warm nodes through their own doors,
//! `step` and `enqueue` — and compares, after **every** transition: the
//! node's state and buffer (through `pending()`), what it delivered and
//! sent (as a set: nothing orders a send), `state_changed`,
//! `grew_output` and the whole [`Metrics`], heartbeats and high-water
//! marks included; and it recomputes the `S` part of the warm `D` from
//! scratch with [`system_facts`] — the safety restriction (`policy_R`
//! only over known values, §4.1.3) is a paper property, not an
//! implementation detail.
//!
//! Deterministic seeded loops over [`calm_common::rng::Rng`], like
//! `proptests.rs`.

use calm_common::fact::{fact, Fact};
use calm_common::generator::mv;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::schema::Schema;
use calm_common::storage::SharedSymbols;
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_queries::winmove::win_move;
use calm_spec::{
    compile_monotone_program, final_config, network_output, node_pending, node_state, node_visible,
    system_facts, transition, Configuration, DatalogTransducer,
};
use calm_transducer::schema::is_system_relation;
use calm_transducer::{
    distribute, input_batches, run_with, Delivery, DisjointStrategy, DistinctStrategy,
    DistributionPolicy, DomainGuidedPolicy, HashPolicy, Metrics, MonotoneBroadcast, Multiset,
    Network, NodeEngine, NodeId, Scheduler, SystemConfig, Transducer, TransducerNetwork,
    TransducerSchema, TransducerStep,
};

const SEEDS: u64 = 8;
const MAX_SWEEPS: usize = 12;

/// `inner` with its `open` hidden: the default adapter, hence the
/// stateless `step`, at every transition.
struct Spec<'a>(&'a dyn Transducer);

impl Transducer for Spec<'_> {
    fn schema(&self) -> &TransducerSchema {
        self.0.schema()
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        self.0.step(d)
    }
}

/// A schedule prefix: which node steps, and what is delivered to it.
type Prefix = Vec<(usize, Delivery)>;

/// As `Scheduler::random`: a random node, and everything, a heartbeat
/// or a sampled submultiset.
fn random_prefix(seed: u64, nodes: usize, len: usize) -> Prefix {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let delivery = match rng.gen_range(0..3u8) {
                0 => Delivery::All,
                1 => Delivery::None,
                _ => Delivery::sample(rng.gen_u64()),
            };
            (rng.gen_range(0..nodes), delivery)
        })
        .collect()
}

/// Run `t` on `input` warm and cold side by side — `prefix`, then
/// deliver-everything sweeps over the nodes in order — and compare
/// after every transition. Returns the number of transitions on which
/// the warm engine was cold (the first of each node, and every
/// restart), and the cold side's final configuration.
fn check(
    label: &str,
    t: &dyn Transducer,
    policy: &dyn DistributionPolicy,
    sys: SystemConfig,
    input: &Instance,
    mut plan: Prefix,
) -> (usize, Configuration) {
    let network = policy.network();
    let nodes: Vec<NodeId> = network.nodes().cloned().collect();
    let dist = distribute(policy, input);
    let empty = Instance::new();
    let input_schema = &t.schema().input;

    // Cold: the specification.
    let spec = Spec(t);
    let tn = TransducerNetwork {
        transducer: &spec,
        policy,
        config: sys,
    };
    let mut config = Configuration::start(network);
    let mut cold = Metrics::default();

    // Warm: one engine per node for the run, over one symbol table, each
    // born of its share of the rows of `I`.
    let symbols = SharedSymbols::new();
    let inputs = input_batches(policy, input, &mut symbols.write());
    let mut engines: Vec<NodeEngine<'_>> = (nodes.iter().zip(&inputs))
        .map(|(x, h)| NodeEngine::new(t, policy, sys, x.clone(), h, &symbols))
        .collect();
    let mut warm = Metrics::default();
    let mut cold_starts = 0;

    let prefix = plan.len();
    plan.extend((0..MAX_SWEEPS * nodes.len()).map(|k| (k % nodes.len(), Delivery::All)));

    let mut sweep_changed = false;
    for (k, (i, delivery)) in plan.into_iter().enumerate() {
        let at = format!("{label}, transition {}", k + 1);
        let x = &nodes[i];
        let buffers_before = config.buffer.clone();
        let state_before = config.state[x].clone();
        let changed = transition(&tn, &dist, &mut config, x, delivery, &mut cold);

        // What the cold side delivered and sent, read off the buffers.
        let delivered = difference(&buffers_before[x], &config.buffer[x]);
        let m: Vec<Fact> = delivered.support().cloned().collect();
        let sent: Option<Multiset<Fact>> =
            (network.others(x).next()).map(|y| difference(&config.buffer[y], &buffers_before[y]));

        cold_starts += usize::from(engines[i].is_cold());
        let outcome = engines[i].step(delivery, &mut warm, &Obs::noop());
        for (j, y) in engines.iter_mut().enumerate() {
            if j != i {
                y.enqueue(&outcome.sent, None, &mut warm, &Obs::noop());
            }
        }
        assert_eq!(
            node_state(&engines[i], &symbols),
            config.state[x],
            "{at}: state of {x}"
        );
        assert_eq!(outcome.delivered, delivered.len(), "{at}: |m|");
        assert_eq!(outcome.state_changed, changed, "{at}: state_changed");
        let grew = cold.last_output_growth_at == Some(cold.transitions);
        assert_eq!(outcome.grew_output, grew, "{at}: grew_output");
        if let Some(sent) = sent {
            let mut warm_sent = Multiset::new();
            outcome.sent.add_to(&symbols.read(), &mut warm_sent);
            assert_eq!(warm_sent, sent, "{at}: sent");
        }
        for (y, engine) in nodes.iter().zip(&engines) {
            assert_eq!(
                node_pending(engine, &symbols),
                config.buffer[y],
                "{at}: buffer of {y}"
            );
            assert_eq!(engine.buffered(), config.buffer[y].len(), "{at}: |b({y})|");
        }
        assert_eq!(warm, cold, "{at}: metrics");

        // S, from scratch, for J = H(x) ∪ s(x) ∪ M.
        if !engines[i].is_cold() {
            let mut j = dist.get(x).unwrap_or(&empty).union(&state_before);
            j.extend(m);
            let s = system_facts(x, network, input_schema, policy, sys, &j);
            let mut mine = node_visible(&engines[i], &symbols);
            mine.retain_relations(|r| is_system_relation(r, input_schema));
            assert_eq!(mine, s, "{at}: system facts of {x}");
        }

        // Stop after a deliver-everything sweep that changed nothing
        // and left nothing in flight.
        if k >= prefix {
            sweep_changed |= changed;
            if (k - prefix + 1).is_multiple_of(nodes.len()) {
                if !sweep_changed && config.buffered() == 0 {
                    break;
                }
                sweep_changed = false;
            }
        }
    }
    for (x, engine) in nodes.iter().zip(engines) {
        let (state, buffer) = (
            node_state(&engine, &symbols),
            node_pending(&engine, &symbols),
        );
        assert_eq!(state, config.state[x], "{label}: final state of {x}");
        assert_eq!(buffer, config.buffer[x], "{label}: final buffer of {x}");
    }
    (cold_starts, config)
}

/// `a − b` as multisets: each fact of `a` as often as it occurs in `a`
/// more than in `b`.
fn difference(a: &Multiset<Fact>, b: &Multiset<Fact>) -> Multiset<Fact> {
    let mut out = Multiset::new();
    for (f, n) in a.iter() {
        out.insert_n(f.clone(), n.saturating_sub(b.count(f)));
    }
    out
}

/// Up to `max` random facts of a binary relation over `0..domain`.
fn random_binary(r: &mut Rng, relation: &str, domain: i64, max: usize) -> Instance {
    let n = r.gen_range(0..max + 1);
    Instance::from_facts(
        (0..n).map(|_| fact(relation, [r.gen_range(0..domain), r.gen_range(0..domain)])),
    )
}

/// One relation holding tuples of two arities, outside every schema:
/// its values are known values all the same.
fn noise() -> [Fact; 2] {
    [fact("Noise", [3]), fact("Noise", [3, 11])]
}

/// Every node count 1–4 under both schedules.
fn sweep(
    label: &str,
    t: &dyn Transducer,
    policy: &dyn Fn(Network) -> Box<dyn DistributionPolicy>,
    sys: SystemConfig,
    input: &Instance,
    seed: u64,
) -> usize {
    let mut cold_starts = 0;
    for n in 1..=4 {
        let policy = policy(Network::of_size(n));
        let random = random_prefix(seed * 31 + n as u64, n, 6 * n);
        for (name, prefix) in [("round-robin", Prefix::new()), ("random", random)] {
            let label = format!("{label}, seed {seed}, {n} nodes, {name}");
            cold_starts += check(&label, t, policy.as_ref(), sys, input, prefix).0;
        }
    }
    cold_starts
}

/// The number of (node count, schedule) runs one [`sweep`] makes, and
/// the nodes they hold in total: a run that never restarts an engine
/// has one cold start per node.
const RUNS_NODES: usize = 2 * (1 + 2 + 3 + 4);

fn hash(net: Network) -> Box<dyn DistributionPolicy> {
    Box::new(HashPolicy::new(net))
}

fn domain_guided(net: Network) -> Box<dyn DistributionPolicy> {
    Box::new(DomainGuidedPolicy::new(net))
}

#[test]
fn monotone_broadcast_of_tc() {
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    for seed in 0..SEEDS {
        let mut r = Rng::seed_from_u64(seed);
        let mut input = random_binary(&mut r, "E", 6, 9);
        input.extend(noise());
        for sys in [SystemConfig::ORIGINAL, SystemConfig::POLICY_AWARE] {
            let cold = sweep("monotone(tc)", &t, &hash, sys, &input, seed);
            assert_eq!(cold, RUNS_NODES, "inflationary: no engine restarts");
        }
    }
}

#[test]
fn distinct_strategy_of_an_sp_query() {
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    for seed in 0..SEEDS {
        let mut r = Rng::seed_from_u64(100 + seed);
        let mut input = random_binary(&mut r, "E", 5, 8);
        input.extend(noise());
        for sys in [
            SystemConfig::POLICY_AWARE,
            SystemConfig::POLICY_AWARE_NO_ALL,
        ] {
            let cold = sweep("distinct(sp)", &t, &hash, sys, &input, seed);
            assert_eq!(cold, RUNS_NODES, "inflationary: no engine restarts");
        }
    }
}

#[test]
fn a_schedule_that_grows_every_table_of_a_node_several_times() {
    // Twelve values and three nodes: 225 tuples to determine per node,
    // so `ab_E` and `sb_E` outgrow their row tables (8 slots, doubled
    // when half full) five times, under deliveries of a few hundred
    // rows from two senders.
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let mut r = Rng::seed_from_u64(700);
    let mut input = random_binary(&mut r, "E", 12, 30);
    input.insert(fact("E", [11, 0]));
    input.extend(noise());
    let policy = HashPolicy::new(Network::of_size(3));
    let sys = SystemConfig::POLICY_AWARE;
    for (name, prefix) in [
        ("round-robin", Prefix::new()),
        ("random", random_prefix(701, 3, 18)),
    ] {
        let label = format!("distinct(sp) on 12 values, {name}");
        let (cold_starts, end) = check(&label, &t, &policy, sys, &input, prefix);
        assert_eq!(cold_starts, 3, "{label}: no engine restarts");
        for state in end.state.values() {
            assert!(state.relation_len("ab_E") > 128, "{label}: {}", state.len());
        }
    }
}

#[test]
fn a_run_ends_in_the_configuration_the_specification_reaches() {
    // `run` keeps its final states as rows and builds the configuration
    // on request: it must be the one the specification reaches through
    // the same round-robin schedule, with the same counters, on every
    // example program under every strategy.
    let graph = include_str!("../../../examples/data/graph.facts");
    let input = calm_datalog::parse_facts(graph).expect("the example facts parse");
    for (program, src) in [
        ("tc", include_str!("../../../examples/data/tc.dl")),
        (
            "tc_right",
            include_str!("../../../examples/data/tc_right.dl"),
        ),
        ("qtc", include_str!("../../../examples/data/qtc.dl")),
    ] {
        let query = || Box::new(calm_datalog::DatalogQuery::parse(program, src).expect("parses"));
        let strategies: [(&str, Box<dyn Transducer>, SystemConfig, _); 3] = [
            (
                "monotone",
                Box::new(MonotoneBroadcast::new(query())),
                SystemConfig::ORIGINAL,
                hash as fn(Network) -> Box<dyn DistributionPolicy>,
            ),
            (
                "distinct",
                Box::new(DistinctStrategy::new(query())),
                SystemConfig::POLICY_AWARE,
                hash,
            ),
            (
                "disjoint",
                Box::new(DisjointStrategy::new(query())),
                SystemConfig::POLICY_AWARE,
                domain_guided,
            ),
        ];
        for (strategy, t, sys, policy) in strategies {
            let label = format!("{program}, {strategy}");
            let policy = policy(Network::of_size(3));
            let warm = TransducerNetwork {
                transducer: t.as_ref(),
                policy: policy.as_ref(),
                config: sys,
            };
            let r = run_with(&warm, &input, &Scheduler::RoundRobin, 10_000, &Obs::noop());
            assert!(r.quiescent, "{label}");

            let spec = Spec(t.as_ref());
            let cold = TransducerNetwork {
                transducer: &spec,
                ..warm
            };
            let nodes: Vec<NodeId> = policy.network().nodes().cloned().collect();
            let dist = distribute(policy.as_ref(), &input);
            let mut config = Configuration::start(policy.network());
            let mut metrics = Metrics::default();
            for k in 0..r.metrics.transitions {
                let x = &nodes[k % nodes.len()];
                transition(&cold, &dist, &mut config, x, Delivery::All, &mut metrics);
            }
            assert_eq!(final_config(&r), config, "{label}: configuration");
            assert_eq!(r.metrics, metrics, "{label}: metrics");
            let out = network_output(&config.state, &t.schema().output);
            assert_eq!(r.states.output(&t.schema().output), out, "{label}: out(R)");
        }
    }
}

#[test]
fn distinct_strategy_of_win_move_goes_wrong_the_same_way() {
    // Win-move is outside Mdistinct: the strategy overshoots, and the
    // warm engines must overshoot identically. Its query has no
    // incremental engine, so this is also the default session.
    let t = DistinctStrategy::new(Box::new(win_move()));
    for seed in 0..SEEDS {
        let mut r = Rng::seed_from_u64(200 + seed);
        let input = random_binary(&mut r, "move", 5, 7);
        sweep(
            "distinct(win-move)",
            &t,
            &hash,
            SystemConfig::POLICY_AWARE,
            &input,
            seed,
        );
    }
    // The documented failure: the two moves of a chain on two nodes.
    let input = Instance::from_facts([mv(0, 1), mv(1, 2)]);
    let sys = SystemConfig::POLICY_AWARE;
    sweep("distinct(win-move) chain", &t, &hash, sys, &input, 0);
}

#[test]
fn distinct_complete_set_shrinks_when_a_value_arrives() {
    // Why the strategy's query session takes deletions. n1 holds the
    // chain 5 → 6 → 7 and answers for every tuple over what it knows:
    // all of it is complete at its first heartbeat, and win(6) goes
    // out. n2 knows the value 9 and answers for move(9,9) and
    // move(7,9), both absent; at its first heartbeat it has not heard
    // of 7, so it broadcasts the absence of move(9,9) alone. With that
    // message 9 arrives at n1, where the tuple (7,9) is now
    // undetermined: 7 leaves the complete set it was in, move(6,7)
    // leaves the query's input — nothing was collected, the input only
    // shrank — and the query on what is left answers win(5).
    use calm_spec::OverridePolicy;
    use std::sync::Arc;
    let t = DistinctStrategy::new(Box::new(win_move()));
    let net = Network::of_size(2);
    let (n1, n2) = (net.first().clone(), net.nodes().nth(1).unwrap().clone());
    let base: Arc<dyn DistributionPolicy> = Arc::new(DomainGuidedPolicy::all_to(net, n1.clone()));
    let nine = fact("Other", [9]);
    let policy = OverridePolicy::new(base, [nine.clone(), mv(9, 9), mv(7, 9)], [n2]);
    let input = Instance::from_facts([mv(5, 6), mv(6, 7), nine]);
    let prefix = vec![(0, Delivery::All), (1, Delivery::None), (0, Delivery::All)];
    let sys = SystemConfig::POLICY_AWARE;
    let (_, end) = check("shrinking complete set", &t, &policy, sys, &input, prefix);
    let at_n1 = &end.state[&n1];
    assert!(at_n1.contains(&fact("out_win", [6])), "{at_n1:?}");
    assert!(at_n1.contains(&fact("out_win", [5])), "{at_n1:?}");
}

#[test]
fn disjoint_strategy_of_qtc() {
    // No native program yet: the default adapter on a warm engine.
    let t = DisjointStrategy::new(Box::new(qtc_datalog()));
    for seed in 0..SEEDS / 2 {
        let mut r = Rng::seed_from_u64(300 + seed);
        let input = random_binary(&mut r, "E", 5, 6);
        let sys = SystemConfig::POLICY_AWARE;
        let cold = sweep("disjoint(qtc)", &t, &domain_guided, sys, &input, seed);
        assert_eq!(cold, RUNS_NODES, "inflationary: no engine restarts");
    }
}

#[test]
fn net_compiled_tc() {
    let t = compile_monotone_program("tc", tc_datalog().program()).expect("tc is positive");
    for seed in 0..SEEDS {
        let mut r = Rng::seed_from_u64(400 + seed);
        let mut input = random_binary(&mut r, "E", 6, 8);
        // The input relation itself with a second arity.
        input.insert(fact("E", [7, 8, 9]));
        input.extend(noise());
        for sys in [SystemConfig::ORIGINAL, SystemConfig::POLICY_AWARE] {
            let cold = sweep("netcompile(tc)", &t, &hash, sys, &input, seed);
            assert_eq!(cold, RUNS_NODES, "inflationary: no engine restarts");
        }
    }
}

fn gossip_schema() -> TransducerSchema {
    TransducerSchema::new(
        Schema::from_pairs([("E", 2)]),
        Schema::from_pairs([("out_E", 2), ("out_src", 1), ("out_known", 1)]),
        Schema::from_pairs([("msg_E", 2)]),
        Schema::from_pairs([("seen", 2), ("flag", 2), ("mine", 2)]),
    )
}

#[test]
fn a_deleting_transducer_takes_the_cold_path() {
    // `flag` toggles: every other transition of a node deletes memory,
    // and the engine must start over from (H(x), s(x)). The program
    // reads the system relations, so a stale S would show.
    let t = DatalogTransducer::parse(
        "toggle",
        gossip_schema(),
        "msg_E(x,y) :- E(x,y).\n\
         seen(x,y) :- E(x,y).\n\
         seen(x,y) :- msg_E(x,y).\n\
         flag(x,y) :- seen(x,y), not flag(x,y).\n\
         del_flag(x,y) :- seen(x,y), flag(x,y).\n\
         mine(x,y) :- policy_E(x,y), seen(x,y).\n\
         out_known(v) :- MyAdom(v).\n\
         out_E(x,y) :- seen(x,y), flag(x,y).",
    )
    .unwrap();
    for seed in 0..SEEDS {
        let mut r = Rng::seed_from_u64(500 + seed);
        let mut input = random_binary(&mut r, "E", 6, 7);
        input.insert(fact("E", [0, 1]));
        input.insert(fact("E", [7, 8, 9]));
        let sys = SystemConfig::POLICY_AWARE;
        let cold = sweep("toggle", &t, &hash, sys, &input, seed);
        assert!(cold > RUNS_NODES, "deletions restart the engine: {cold}");
    }
}

#[test]
fn a_transducer_that_drops_a_delivered_value_takes_the_cold_path() {
    // `msg_E(x,y)` is delivered, `x` is stored, `y` is not: when the
    // message leaves, `y` leaves A with it (unless the node holds it
    // otherwise), and MyAdom / policy_E must shrink back.
    let t = DatalogTransducer::parse(
        "forgetful",
        gossip_schema(),
        "msg_E(x,y) :- E(x,y).\n\
         out_src(x) :- E(x,y).\n\
         out_src(x) :- msg_E(x,y).\n\
         mine(x,y) :- policy_E(x,y), MyAdom(x), E(x,y).",
    )
    .unwrap();
    let mut restarts = 0;
    for seed in 0..SEEDS {
        let mut r = Rng::seed_from_u64(600 + seed);
        let mut input = random_binary(&mut r, "E", 8, 7);
        input.insert(fact("E", [0, 1]));
        input.insert(fact("E", [2, 3]));
        let sys = SystemConfig::POLICY_AWARE;
        restarts += sweep("forgetful", &t, &hash, sys, &input, seed) - RUNS_NODES;
    }
    assert!(restarts > 0, "some delivered value was not retained");
}
