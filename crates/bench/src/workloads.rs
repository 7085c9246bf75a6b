//! Shared workloads for the experiments: input generators and the
//! paper's three strategy families.

use calm_common::generator::InstanceRng;
use calm_common::instance::Instance;
use calm_datalog::DatalogQuery;
use calm_net::{run_threaded_with, NetRunReport, Programs, ThreadedConfig, ThreadedNetwork};
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_transducer::{
    run_with, DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy,
    HashPolicy, MonotoneBroadcast, Network, RunReport, Scheduler, SystemConfig, Transducer,
    TransducerNetwork,
};

/// One of §4's three coordination-free strategies together with the
/// query it runs, the distribution policy and the system relations of
/// the transducer model its theorem is stated for.
pub struct Family {
    /// Row label, e.g. `M/broadcast (TC)`.
    pub label: &'static str,
    /// The strategy's `calm simulate --strategy` name — what a
    /// process-engine worker reads from its `Assign` to rebuild the
    /// family on its side of the socket.
    pub strategy: &'static str,
    /// The query the strategy distributes.
    pub query: fn() -> DatalogQuery,
    /// How the input is spread over the nodes.
    pub policy: Box<dyn DistributionPolicy>,
    /// The system relations the model grants.
    pub config: SystemConfig,
}

impl Family {
    /// A fresh transducer — the strategy around the family's query,
    /// node-local fixpoints on `eval_threads` threads.
    pub fn transducer(&self, eval_threads: usize) -> Box<dyn Transducer> {
        let query = Box::new((self.query)().with_eval_threads(eval_threads));
        match self.strategy {
            "monotone" => Box::new(MonotoneBroadcast::new(query)),
            "distinct" => Box::new(DistinctStrategy::new(query)),
            "disjoint" => Box::new(DisjointStrategy::new(query)),
            other => panic!("unknown strategy family {other}"),
        }
    }

    /// The oracle: the sequential round-robin run to quiescence, which
    /// every other engine must reproduce, and its `out(R)`, bound once.
    pub fn run_sequential(&self, input: &Instance, obs: &Obs) -> (Instance, RunReport) {
        let transducer = self.transducer(1);
        let tn = TransducerNetwork {
            transducer: transducer.as_ref(),
            policy: self.policy.as_ref(),
            config: self.config,
        };
        let r = run_with(&tn, input, &Scheduler::RoundRobin, 5_000_000, obs);
        (r.states.output(&transducer.schema().output), r)
    }

    /// A threaded-executor run, one transducer per worker, and its `out(R)`.
    pub fn run_threaded(
        &self,
        input: &Instance,
        cfg: &ThreadedConfig,
        obs: &Obs,
    ) -> (Instance, NetRunReport) {
        let factory = || self.transducer(1);
        let net = ThreadedNetwork {
            programs: Programs::PerWorker(&factory),
            policy: self.policy.as_ref(),
            config: self.config,
        };
        let r = run_threaded_with(&net, input, cfg, obs);
        (r.states.output(&factory().schema().output), r)
    }
}

/// The three families on a network of `nodes` nodes: broadcast of TC
/// under F0 (Thm 4.3's `M` case), fact-absence broadcast of the
/// semi-positive query under F1 (Thm 4.3), and the request/OK protocol
/// on Q_TC under F2 — the only one that needs a domain-guided policy
/// (Thm 4.4).
pub fn families(nodes: usize) -> [Family; 3] {
    let hash = || Box::new(HashPolicy::new(Network::of_size(nodes)));
    [
        Family {
            label: "M/broadcast (TC)",
            strategy: "monotone",
            query: tc_datalog,
            policy: hash(),
            config: SystemConfig::ORIGINAL,
        },
        Family {
            label: "Mdistinct/non-facts (SP)",
            strategy: "distinct",
            query: edges_without_source_loop,
            policy: hash(),
            config: SystemConfig::POLICY_AWARE,
        },
        Family {
            label: "Mdisjoint/request-OK (Q_TC)",
            strategy: "disjoint",
            query: qtc_datalog,
            policy: Box::new(DomainGuidedPolicy::new(Network::of_size(nodes))),
            config: SystemConfig::POLICY_AWARE,
        },
    ]
}

/// Random directed graphs of increasing size for scaling experiments:
/// `|V| = n`, `|E| ≈ density · n`.
pub fn scaling_graph(seed: u64, n: usize, density: f64) -> Instance {
    let m = ((n as f64) * density) as usize;
    let max_edges = n * (n - 1);
    InstanceRng::seeded(seed).gnm(n, m.min(max_edges))
}

/// Random move-graphs for win-move scaling.
pub fn scaling_game(seed: u64, n: usize, max_out: usize) -> Instance {
    InstanceRng::seeded(seed).move_graph(n, max_out)
}

/// The structured graph family of the engine ablation (E18): chains,
/// cycles, grids.
pub fn structured(kind: &str, n: usize) -> Instance {
    match kind {
        "chain" => calm_common::generator::path(n),
        "cycle" => calm_common::generator::cycle(n),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            calm_common::generator::grid(side, side)
        }
        other => panic!("unknown structured workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_graph_has_requested_edges() {
        let g = scaling_graph(1, 10, 2.0);
        assert_eq!(g.len(), 20);
    }

    #[test]
    fn structured_kinds() {
        assert_eq!(structured("chain", 5).len(), 5);
        assert_eq!(structured("cycle", 5).len(), 5);
        assert!(!structured("grid", 9).is_empty());
    }

    #[test]
    fn families_cover_the_three_strategies_with_their_models() {
        let fams = families(4);
        let labels: Vec<&str> = fams.iter().map(|f| f.label).collect();
        assert_eq!(
            labels,
            [
                "M/broadcast (TC)",
                "Mdistinct/non-facts (SP)",
                "Mdisjoint/request-OK (Q_TC)"
            ]
        );
        let names: Vec<&str> = fams.iter().map(|f| f.strategy).collect();
        assert_eq!(names, ["monotone", "distinct", "disjoint"]);
        assert_eq!(fams[0].config, SystemConfig::ORIGINAL);
        assert_eq!(fams[1].config, SystemConfig::POLICY_AWARE);
        assert_eq!(fams[2].config, SystemConfig::POLICY_AWARE);
        let guided: Vec<bool> = fams.iter().map(|f| f.policy.is_domain_guided()).collect();
        assert_eq!(guided, [false, false, true]);
        for f in &fams {
            assert_eq!(f.policy.network().len(), 4);
            assert!(
                f.transducer(1).name().starts_with(f.strategy),
                "{}",
                f.label
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown strategy family disjiont")]
    fn a_mistyped_strategy_name_is_not_the_request_ok_protocol() {
        let [mut f, ..] = families(2);
        f.strategy = "disjiont";
        let _ = f.transducer(1);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn unknown_kind_panics() {
        let _ = structured("torus", 5);
    }
}
