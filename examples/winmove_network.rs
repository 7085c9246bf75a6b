//! Win-move, coordination-free (the paper's headline result).
//!
//! Solves random game graphs under the well-founded semantics on an
//! 8-node simulated network with a domain-guided distribution policy,
//! comparing the asynchronous distributed answer against the centralized
//! oracle — and demonstrates the heartbeat-only coordination-freeness
//! witness of Definition 3.
//!
//! ```sh
//! cargo run --example winmove_network
//! ```

use calm::common::generator::InstanceRng;
use calm::prelude::*;
use calm::queries::winmove::{win_move, win_move_native};
use calm::spec::heartbeat_witness;

fn main() {
    let n_nodes = 8;
    let positions = 24;

    for seed in 0..3u64 {
        // A random game over `move(2)` with up to 3 moves per position.
        let game = InstanceRng::seeded(seed).move_graph(positions, 3);
        println!(
            "seed {seed}: game with {} positions, {} moves",
            game.adom().len(),
            game.len()
        );

        // Centralized answers: the WFS query and the native game solver
        // agree.
        let wfs = win_move();
        let oracle = win_move_native();
        assert_eq!(wfs.eval(&game), oracle.eval(&game));
        let won = wfs.eval(&game);
        println!("  won positions (centralized): {}", won.len());

        // Distributed: the Mdisjoint strategy under a domain-guided
        // hash assignment, across adversarial random schedules.
        let strategy = DisjointStrategy::new(Box::new(win_move()));
        let expected = expected_output(strategy.query(), &game);
        let policy = DomainGuidedPolicy::new(Network::of_size(n_nodes));
        let network = TransducerNetwork {
            transducer: &strategy,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        for sched in [Scheduler::RoundRobin, Scheduler::random(99 + seed, 200)] {
            let result = run(&network, &game, &sched, 2_000_000);
            assert!(result.quiescent, "network must quiesce");
            assert_eq!(
                result.output, expected,
                "distributed output must equal the centralized answer"
            );
            println!(
                "  {sched:?}: {} transitions, {} messages sent, {} delivered",
                result.metrics.transitions,
                result.metrics.messages_sent,
                result.metrics.messages_delivered
            );
        }

        // Coordination-freeness witness (Definition 3): with the ideal
        // domain assignment (every value owned by one node), that node
        // computes the full answer with heartbeats alone — no
        // communication at all.
        let net = Network::of_size(n_nodes);
        let x = net.first().clone();
        let ideal = DomainGuidedPolicy::all_to(net, x.clone());
        let witness_network = TransducerNetwork {
            transducer: &strategy,
            policy: &ideal,
            config: SystemConfig::POLICY_AWARE,
        };
        let beats = heartbeat_witness(&witness_network, &game, &x, &expected, 10)
            .expect("win-move is coordination-free under domain guidance");
        println!("  heartbeat-only witness: Q(I) computed after {beats} heartbeat(s)");
    }

    println!("win-move is coordination-free under domain-guided distribution ∎");
}
