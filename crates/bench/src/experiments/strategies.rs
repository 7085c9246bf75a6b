//! Experiments E8–E11: the transducer-model characterizations and the
//! cost profile of the three coordination-free strategies (§4.3).

use crate::report::{markdown_table, Report};
use crate::workloads::{families, scaling_graph, Family};
use calm_common::generator::{chain_game, mv, path};
use calm_common::query::Query;
use calm_common::{fact, Instance};
use calm_net::{FaultPlan, ThreadedConfig};
use calm_obs::Obs;
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_queries::winmove::win_move;
use calm_spec::{compile_monotone_program, heartbeat_witness, verify_computes, OverridePolicy};
use calm_transducer::{
    expected_output, run, run_with, DisjointStrategy, DistinctStrategy, DistributionPolicy,
    DomainGuidedPolicy, HashPolicy, MessageClassCounts, MonotoneBroadcast, Network, Scheduler,
    SystemConfig, TransducerNetwork,
};

fn schedulers() -> Vec<Scheduler> {
    vec![Scheduler::RoundRobin, Scheduler::random(71, 50)]
}

/// E8: `F1 = Mdistinct` — the distinct strategy computes member queries
/// for arbitrary policies; the heartbeat witness exists; non-member
/// queries break it.
pub fn e8_distinct_model() -> Report {
    let mut r = Report::new("E8", "Theorem 4.3 — F1 = Mdistinct (policy-aware model)");
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let mut input = path(3);
    input.insert(fact("E", [1, 1]));
    let expected = expected_output(t.query(), &input);
    let mut all_n_ok = true;
    for n in [1, 2, 4] {
        let policy = HashPolicy::new(Network::of_size(n));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        if verify_computes(&tn, &input, &expected, &schedulers(), 400_000).is_err() {
            all_n_ok = false;
        }
    }
    r.claim(
        "distinct strategy computes an Mdistinct query on n ∈ {1,2,4}, all schedules",
        "SP query E(x,y)∧¬E(x,x)",
        all_n_ok,
    );

    // Heartbeat witness on the ideal policy.
    let net = Network::of_size(3);
    let x = net.first().clone();
    let ideal = DomainGuidedPolicy::all_to(net, x.clone());
    let tn = TransducerNetwork {
        transducer: &t,
        policy: &ideal,
        config: SystemConfig::POLICY_AWARE,
    };
    let beats = heartbeat_witness(&tn, &input, &x, &expected, 10);
    r.claim(
        "coordination-freeness witness (Def. 3): heartbeat-only prefix computes Q(I)",
        format!("{beats:?} heartbeats on the all-to-x policy"),
        beats.is_some(),
    );

    // Converse: win-move (∉ Mdistinct) must fail under some policy.
    let bad = DistinctStrategy::new(Box::new(win_move()));
    let game = chain_game(0, 2);
    let exp = expected_output(bad.query(), &game);
    let net = Network::of_size(2);
    let base: std::sync::Arc<dyn DistributionPolicy> = std::sync::Arc::new(
        DomainGuidedPolicy::all_to(net.clone(), calm_common::value::Value::str("n1")),
    );
    let policy = OverridePolicy::new(base, [mv(1, 2)], [calm_common::value::Value::str("n2")]);
    let tn = TransducerNetwork {
        transducer: &bad,
        policy: &policy,
        config: SystemConfig::POLICY_AWARE,
    };
    let rr = run(&tn, &game, &Scheduler::RoundRobin, 200_000);
    r.claim(
        "win-move ∉ Mdistinct ⇒ the strategy miscomputes it somewhere",
        format!("output {:?} ≠ expected {:?}", rr.output, exp),
        rr.quiescent && rr.output != exp,
    );
    r
}

/// E9: `F2 = Mdisjoint` — the disjoint strategy under domain guidance.
pub fn e9_disjoint_model() -> Report {
    let mut r = Report::new("E9", "Theorem 4.4 — F2 = Mdisjoint (domain-guided model)");
    let queries: Vec<(&str, Box<dyn Query>)> = vec![
        ("win-move", Box::new(win_move())),
        ("Q_TC", Box::new(qtc_datalog())),
    ];
    for (name, q) in queries {
        let t = DisjointStrategy::new(q);
        let input: Instance = if name == "win-move" {
            chain_game(0, 4)
        } else {
            path(3)
        };
        let expected = expected_output(t.query(), &input);
        let mut ok = true;
        for n in [1, 2, 4] {
            let policy = DomainGuidedPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            if verify_computes(&tn, &input, &expected, &schedulers(), 500_000).is_err() {
                ok = false;
            }
        }
        r.claim(
            format!("disjoint strategy computes {name} on n ∈ {{1,2,4}}, all schedules"),
            "domain-guided hash assignment",
            ok,
        );
        // Heartbeat witness.
        let net = Network::of_size(3);
        let x = net.first().clone();
        let ideal = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &ideal,
            config: SystemConfig::POLICY_AWARE,
        };
        let beats = heartbeat_witness(&tn, &input, &x, &expected, 10);
        r.claim(
            format!("{name}: heartbeat-only witness exists"),
            format!("{beats:?} heartbeats"),
            beats.is_some(),
        );
    }
    r
}

/// E10: Theorem 4.5 / Corollary 4.6 — removing `All` changes nothing for
/// the strategies (which never read it).
pub fn e10_no_all() -> Report {
    let mut r = Report::new(
        "E10",
        "Theorem 4.5 & Cor 4.6 — the All-free models A0/A1/A2",
    );
    // A1: distinct strategy.
    let t = DistinctStrategy::new(Box::new(edges_without_source_loop()));
    let mut input = path(3);
    input.insert(fact("E", [0, 0]));
    let expected = expected_output(t.query(), &input);
    let mut outs = Vec::new();
    for config in [
        SystemConfig::POLICY_AWARE,
        SystemConfig::POLICY_AWARE_NO_ALL,
    ] {
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config,
        };
        let rr = run(&tn, &input, &Scheduler::RoundRobin, 400_000);
        outs.push((config, rr.quiescent, rr.output));
    }
    let a1_ok = outs.iter().all(|(_, q, o)| *q && *o == expected);
    r.claim(
        "A1: distinct strategy identical with and without All",
        "same output both models",
        a1_ok,
    );

    // A2: disjoint strategy.
    let t = DisjointStrategy::new(Box::new(win_move()));
    let game = chain_game(0, 4);
    let expected = expected_output(t.query(), &game);
    let mut ok = true;
    for config in [
        SystemConfig::POLICY_AWARE,
        SystemConfig::POLICY_AWARE_NO_ALL,
    ] {
        let policy = DomainGuidedPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config,
        };
        let rr = run(&tn, &game, &Scheduler::RoundRobin, 400_000);
        if !(rr.quiescent && rr.output == expected) {
            ok = false;
        }
    }
    r.claim(
        "A2: disjoint strategy identical with and without All",
        "win-move",
        ok,
    );

    // A0/oblivious: monotone strategy with no system relations at all.
    let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
    let input = path(4);
    let expected = expected_output(t.query(), &input);
    let mut ok = true;
    for config in [
        SystemConfig::ORIGINAL,
        SystemConfig::ORIGINAL_NO_ALL,
        SystemConfig::OBLIVIOUS,
    ] {
        let policy = HashPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config,
        };
        let rr = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        if !(rr.quiescent && rr.output == expected) {
            ok = false;
        }
    }
    r.claim(
        "F0 = A0 = M: monotone broadcast works obliviously",
        "original / no-All / oblivious identical",
        ok,
    );
    r
}

/// E11: the §4.3 cost table — messages, deliveries, transitions of the
/// three strategies on TC-style workloads, by graph size and network
/// size. Each run is a span and the runtime streams its per-transition
/// events and per-class message counters to `obs` — `repro --trace-out`
/// turns this into the paper's §4.3 message-volume comparison as
/// machine-readable artifacts.
pub fn e11_strategy_costs(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E11",
        "§4.3 — cost profile of the three coordination-free strategies",
    );
    let mut rows = Vec::new();
    // Per-class message composition on the largest configuration, for the
    // composition claims below.
    let mut largest: [MessageClassCounts; 3] = Default::default();
    // Goodput companion: every strategy row re-runs on the threaded
    // engine under a lossy, duplicating link plan so the table reports
    // what reliable delivery costs (retransmits) and absorbs (dups) on
    // top of the engine-level sends — and that the output survives.
    let mut lossy_ok = true;
    // Determinism companion: every strategy row also re-runs with its
    // node-local fixpoints partitioned over 2 eval threads; the whole
    // RunResult (output and Metrics) must be byte-identical.
    let mut parallel_ok = true;
    for &vertices in &[8usize, 16, 32] {
        let input = scaling_graph(11, vertices, 1.5);
        for &n in &[2usize, 4] {
            let mut measure = |label: &str,
                               tn: &TransducerNetwork<'_>,
                               lossy: Option<(u64, u64)>,
                               par: Option<&TransducerNetwork<'_>>| {
                let _span = obs.span("bench", || format!("e11:{label} |V|={vertices} n={n}"));
                let rr = run_with(tn, &input, &Scheduler::RoundRobin, 2_000_000, obs);
                let par_identical = par.map(|ptn| {
                    let rp = run(ptn, &input, &Scheduler::RoundRobin, 2_000_000);
                    rp.output == rr.states.output(&tn.transducer.schema().output)
                        && rp.metrics == rr.metrics
                });
                parallel_ok &= par_identical.unwrap_or(true);
                push_cost_row(&mut rows, label, vertices, n, &rr, lossy, par_identical);
                rr
            };

            for (i, f) in families(n).iter().enumerate() {
                let expected = expected_output(&(f.query)(), &input);
                let lossy = lossy_counters(f, &input, &expected, &mut lossy_ok);
                let (seq, par) = (f.transducer(1), f.transducer(2));
                let network = |transducer| TransducerNetwork {
                    transducer,
                    policy: f.policy.as_ref(),
                    config: f.config,
                };
                let rr = measure(
                    f.label,
                    &network(seq.as_ref()),
                    Some(lossy),
                    Some(&network(par.as_ref())),
                );
                if vertices == 32 && n == 4 {
                    largest[i] = rr.metrics.by_class;
                }
            }

            // The declaratively-compiled broadcast transducer runs the
            // Datalog engine every transition — its run metrics carry the
            // engine-level counters (derivations, index probes/hits).
            let p = calm_datalog::parse_program(
                "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
            )
            .unwrap();
            let c = compile_monotone_program("net-tc", &p).unwrap();
            let policy = HashPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &c,
                policy: &policy,
                config: SystemConfig::ORIGINAL,
            };
            measure("declarative/net-compiled (TC)", &tn, None, None);
        }
    }
    r.table(markdown_table(
        &[
            "strategy (query)",
            "|V|",
            "nodes",
            "transitions",
            "msgs sent",
            "msgs delivered",
            "msg classes",
            "max queue",
            "engine derivations",
            "engine probes/hits",
            "first output at",
            "retransmits (lossy)",
            "dups suppressed (lossy)",
            "eval T=2",
            "quiescent",
        ],
        &rows,
    ));
    r.claim(
        "goodput under loss: every strategy row reproduces its output on the lossy threaded run",
        "drop 10% / dup 5% per link, 2 workers — reliable delivery restores fairness",
        lossy_ok,
    );
    r.claim(
        "data-parallel node fixpoints (--eval-threads 2) leave every strategy row byte-identical",
        "same output and RunResult metrics on every |V| × n configuration",
        parallel_ok,
    );
    // The ordering claim implicit in §4.3: non-fact broadcasting costs
    // more than fact broadcasting; the per-value protocol more than both
    // (on the same |V| and n). Check on the largest configuration.
    let last_m = find_row(&rows, "M/broadcast (TC)", 32, 4);
    let last_d = find_row(&rows, "Mdistinct/non-facts (SP)", 32, 4);
    let last_j = find_row(&rows, "Mdisjoint/request-OK (Q_TC)", 32, 4);
    let ordering = last_m < last_d;
    r.claim(
        "message volume: M-broadcast < Mdistinct (absence broadcasting dominates)",
        format!("{last_m} vs {last_d} messages at |V|=32, n=4"),
        ordering,
    );
    r.claim(
        "the Mdisjoint protocol pays per-value coordination (requests/acks/OKs)",
        format!("{last_j} messages at |V|=32, n=4"),
        last_j > last_m,
    );
    // Per-class composition: what each strategy's messages actually are.
    let [m_cls, d_cls, j_cls] = largest;
    r.claim(
        "M sends fact broadcasts only (no absences, no protocol)",
        format!("classes: {}", class_summary(&m_cls)),
        m_cls.fact > 0 && m_cls.absence == 0 && m_cls.coordination() == 0,
    );
    r.claim(
        "Mdistinct adds absence broadcasts but still no per-value protocol",
        format!("classes: {}", class_summary(&d_cls)),
        d_cls.fact > 0 && d_cls.absence > 0 && d_cls.coordination() == 0,
    );
    r.claim(
        "Mdisjoint replaces absences with the request/OK per-value protocol",
        format!("classes: {}", class_summary(&j_cls)),
        j_cls.request > 0 && j_cls.ok > 0 && j_cls.absence == 0,
    );
    r
}

/// Render non-zero message classes as `fact=40 request=6 ok=6`.
fn class_summary(c: &MessageClassCounts) -> String {
    let parts: Vec<String> = c
        .as_pairs()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(label, n)| format!("{label}={n}"))
        .collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(" ")
    }
}

/// Re-run one strategy family on the threaded engine under a lossy link
/// plan and return `(retransmissions, duplicates suppressed)`; clears
/// `ok` if the run fails to reproduce the centralized answer.
fn lossy_counters(f: &Family, input: &Instance, expected: &Instance, ok: &mut bool) -> (u64, u64) {
    let plan = FaultPlan::uniform(7, 0.1, 0.05);
    let cfg = ThreadedConfig::new(2).with_faults(plan);
    let (output, thr) = f.run_threaded(input, &cfg, &Obs::noop());
    *ok &= thr.quiescent && output == *expected;
    (thr.faults.retransmissions, thr.faults.duplicates_suppressed)
}

fn push_cost_row(
    rows: &mut Vec<Vec<String>>,
    name: &str,
    vertices: usize,
    n: usize,
    rr: &calm_transducer::RunReport,
    lossy: Option<(u64, u64)>,
    par_identical: Option<bool>,
) {
    // Native Rust strategies bypass the Datalog engine: their engine
    // counters are structurally zero, shown as "-".
    let eval = &rr.metrics.eval;
    let (derivations, probes) = if *eval == Default::default() {
        ("-".to_string(), "-".to_string())
    } else {
        (
            eval.derivations.to_string(),
            format!("{}/{}", eval.index_probes, eval.index_hits),
        )
    };
    rows.push(vec![
        name.to_string(),
        vertices.to_string(),
        n.to_string(),
        rr.metrics.transitions.to_string(),
        rr.metrics.messages_sent.to_string(),
        rr.metrics.messages_delivered.to_string(),
        class_summary(&rr.metrics.by_class),
        rr.metrics.max_queue_depth().to_string(),
        derivations,
        probes,
        rr.metrics
            .first_output_at
            .map_or("-".into(), |k| k.to_string()),
        lossy.map_or("-".into(), |(r, _)| r.to_string()),
        lossy.map_or("-".into(), |(_, d)| d.to_string()),
        par_identical.map_or("-".into(), |ok| {
            if ok { "identical" } else { "DIVERGED" }.to_string()
        }),
        rr.quiescent.to_string(),
    ]);
}

fn find_row(rows: &[Vec<String>], name: &str, vertices: usize, n: usize) -> usize {
    rows.iter()
        .find(|row| row[0] == name && row[1] == vertices.to_string() && row[2] == n.to_string())
        .map(|row| row[4].parse().unwrap_or(0))
        .unwrap_or(0)
}

/// Quick self-checks shared with the test suite.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_passes() {
        assert!(e10_no_all().all_pass());
    }
}
