//! Experiment E18: engine ablation — naive vs semi-naive vs the
//! optimized engine (join reordering + hash indexes), measured in
//! *derivation counts* (deterministic; what the fixpoint costs in time
//! is `datalog.eval.fixpoint_s` and `t2_overhead` in BENCHMARK.json).

use crate::report::{markdown_table, Report};
use crate::workloads::{scaling_graph, structured};
use calm_datalog::eval::{eval_program, Engine, EvalOptions};
use calm_datalog::parse_program;
use calm_obs::Obs;

/// E18: derivation-count ablation for transitive closure. Each engine
/// × workload run is a span, and the optimized engine streams its
/// per-stratum/per-iteration spans and derivation counters to `obs`.
pub fn e18_engine(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E18",
        "engine ablation — naive vs semi-naive vs ordered+indexed (TC derivation counts)",
    );
    let p = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
    let mut rows = Vec::new();
    let mut seminaive_always_leq_naive = true;
    let mut engines_agree = true;
    let mut baseline_never_probes = true;
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
        let eval = |engine: Engine, threads: usize| {
            let _span = obs.span("bench", || format!("e18:{kind} {engine:?} T={threads}"));
            let options = EvalOptions::from(engine).with_eval_threads(threads);
            eval_program(&p, &input, options, obs).unwrap()
        };
        let (out_naive, stats_naive) = eval(Engine::Naive, 1);
        let (out_base, stats_base) = eval(Engine::SemiNaiveBaseline, 1);
        let (out_opt, stats_opt) = eval(Engine::SemiNaive, 1);
        if out_naive != out_base || out_base != out_opt {
            engines_agree = false;
        }
        // The data-parallel driver must be byte-identical to the
        // sequential optimized run — same model, same per-stratum stats.
        let (out_par, stats_par) = eval(Engine::SemiNaive, 2);
        if out_par != out_opt || stats_par != stats_opt {
            parallel_identical = false;
        }
        let d_naive: usize = stats_naive.iter().map(|s| s.derivations).sum();
        let d_base: usize = stats_base.iter().map(|s| s.derivations).sum();
        let d_opt: usize = stats_opt.iter().map(|s| s.derivations).sum();
        let probes: usize = stats_opt.iter().map(|s| s.index_probes).sum();
        let hits: usize = stats_opt.iter().map(|s| s.index_hits).sum();
        let base_probes: usize = stats_base.iter().map(|s| s.index_probes).sum();
        if d_base > d_naive {
            seminaive_always_leq_naive = false;
        }
        if base_probes > 0 {
            baseline_never_probes = false;
        }
        rows.push(vec![
            format!("{kind} |V|≈{n}"),
            out_opt.relation_len("T").to_string(),
            d_naive.to_string(),
            d_base.to_string(),
            d_opt.to_string(),
            format!("{probes} / {hits}"),
            format!("{:.1}x", d_naive as f64 / d_opt.max(1) as f64),
        ]);
    }
    r.claim(
        "all three engines compute identical models",
        "4 workloads",
        engines_agree,
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
    r.claim(
        "the unindexed baseline never probes an index",
        "EvalMetrics.index_probes == 0",
        baseline_never_probes,
    );
    r.table(markdown_table(
        &[
            "workload",
            "|TC|",
            "naive derivations",
            "semi-naive baseline",
            "ordered+indexed",
            "probes / hits (opt)",
            "naive/opt derivations",
        ],
        &rows,
    ));
    r
}
