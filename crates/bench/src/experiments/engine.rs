//! Experiment E18: engine ablation — the naive rounds of the reference
//! evaluator ([`calm_spec::reference`]) against the planned semi-naive
//! engine (join reordering + hash indexes), measured in *derivation
//! counts* (deterministic; what the fixpoint costs in time is
//! `datalog.eval.fixpoint_s` and `t2_overhead` in BENCHMARK.json).

use crate::report::{markdown_table, Report};
use crate::workloads::{scaling_graph, structured};
use calm_datalog::eval::{eval_program, EvalOptions};
use calm_datalog::parse_program;
use calm_obs::Obs;
use calm_spec::reference;

/// E18: derivation-count ablation for transitive closure. Each engine
/// × workload run is a span, and the engine streams its
/// per-stratum/per-iteration spans and derivation counters to `obs`.
pub fn e18_engine(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E18",
        "engine ablation — naive (the reference evaluator) vs ordered+indexed semi-naive (TC derivation counts)",
    );
    let p = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
    let mut rows = Vec::new();
    let mut seminaive_always_leq_naive = true;
    let mut engine_is_the_reference = true;
    let mut parallel_identical = true;
    for (kind, n) in [
        ("chain", 24usize),
        ("cycle", 24),
        ("grid", 36),
        ("random", 24),
    ] {
        let input = if kind == "random" {
            scaling_graph(181, n, 2.0)
        } else {
            structured(kind, n)
        };
        let eval = |threads: usize| {
            let _span = obs.span("bench", || format!("e18:{kind} T={threads}"));
            let options = EvalOptions::default().with_eval_threads(threads);
            eval_program(&p, &input, options, obs).unwrap()
        };
        let (model, d_naive) = {
            let _span = obs.span("bench", || format!("e18:{kind} reference"));
            reference::eval(&p, &input).unwrap()
        };
        let (out_opt, stats_opt) = eval(1);
        if out_opt != model {
            engine_is_the_reference = false;
        }
        // The data-parallel driver must be byte-identical to the
        // sequential run — same model, same per-stratum stats.
        let (out_par, stats_par) = eval(2);
        if out_par != out_opt || stats_par != stats_opt {
            parallel_identical = false;
        }
        let d_opt: usize = stats_opt.iter().map(|s| s.derivations).sum();
        let probes: usize = stats_opt.iter().map(|s| s.index_probes).sum();
        let hits: usize = stats_opt.iter().map(|s| s.index_hits).sum();
        if d_opt > d_naive {
            seminaive_always_leq_naive = false;
        }
        rows.push(vec![
            format!("{kind} |V|≈{n}"),
            out_opt.relation_len("T").to_string(),
            d_naive.to_string(),
            d_opt.to_string(),
            format!("{probes} / {hits}"),
            format!("{:.1}x", d_naive as f64 / d_opt.max(1) as f64),
        ]);
    }
    r.claim(
        "the planned engine computes the reference evaluator's model",
        "4 workloads",
        engine_is_the_reference,
    );
    r.claim(
        "the data-parallel driver (--eval-threads 2) is byte-identical to sequential",
        "same model and per-stratum EvalMetrics on all 4 workloads",
        parallel_identical,
    );
    r.claim(
        "semi-naive derives no more than naive",
        "delta-restricted recursion",
        seminaive_always_leq_naive,
    );
    r.table(markdown_table(
        &[
            "workload",
            "|TC|",
            "naive derivations",
            "ordered+indexed",
            "probes / hits (opt)",
            "naive/opt derivations",
        ],
        &rows,
    ));
    r
}
