//! Declarative networking end-to-end: write a positive Datalog program,
//! compile it into a pure-Datalog transducer, and watch the network
//! compute its fixpoint across asynchronous transitions — the
//! constructive half of the CALM theorem.
//!
//! ```sh
//! cargo run --example declarative_networking
//! ```

use calm::common::fact::Fact;
use calm::common::generator::path;
use calm::common::Instance;
use calm::prelude::*;
use calm::spec::{compile_monotone_program, heartbeat_witness};

fn main() {
    // A recursive, monotone program: reachability from seed vertices.
    let program = calm::datalog::parse_program(
        "@output R.\n\
         R(x) :- Src(x).\n\
         R(y) :- R(x), E(x,y).",
    )
    .unwrap();

    // Compile it into a broadcast transducer: gossip rules for the edb,
    // one immediate-consequence round per transition for the idb.
    let transducer = compile_monotone_program("net-reach", &program).unwrap();
    println!("compiled transducer rules: the gossip layer plus the rewritten program\n");

    // Input: a path plus an unreachable island, seeded at vertex 0.
    let mut input: Instance = path(6);
    input.insert(fact("E", [100, 101]));
    input.insert(fact("Src", [0]));

    // The centralized answer, renamed into the transducer's output schema.
    let expected = Instance::from_facts(
        calm::datalog::DatalogQuery::new("net-reach", program.clone())
            .unwrap()
            .eval(&input)
            .facts()
            .map(|f| Fact::new(format!("out_{}", f.relation()), f.args().to_vec())),
    );
    println!("centralized: {} reachable vertices", expected.len());

    // Run it on networks of growing size under hash partitioning.
    for n in [1usize, 2, 4, 8] {
        let policy = HashPolicy::new(Network::of_size(n));
        let network = TransducerNetwork {
            transducer: &transducer,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let result = run(&network, &input, &Scheduler::RoundRobin, 1_000_000);
        assert!(result.quiescent);
        assert_eq!(result.output, expected, "n={n}");
        println!(
            "n={n}: fixpoint in {} transitions, {} messages — output correct",
            result.metrics.transitions, result.metrics.messages_sent
        );
    }

    // The recursion unfolds ACROSS transitions: on a single node with all
    // the data, the 6-hop path needs several heartbeats.
    let net = Network::of_size(1);
    let x = net.first().clone();
    let policy = DomainGuidedPolicy::all_to(net, x.clone());
    let network = TransducerNetwork {
        transducer: &transducer,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    let beats = heartbeat_witness(&network, &input, &x, &expected, 20).unwrap();
    println!("\nsingle node: fixpoint reached after {beats} heartbeats (one T_P round each)");

    // Adversarial schedules agree — monotone programs are confluent.
    let policy = HashPolicy::new(Network::of_size(4));
    let network = TransducerNetwork {
        transducer: &transducer,
        policy: &policy,
        config: SystemConfig::ORIGINAL,
    };
    for seed in 0..5 {
        let r = run(&network, &input, &Scheduler::random(seed, 100), 1_000_000);
        assert!(r.quiescent && r.output == expected, "seed {seed}");
    }
    println!("5 adversarial random schedules: identical output (confluence) ∎");
}
