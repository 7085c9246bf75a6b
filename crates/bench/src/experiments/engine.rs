//! Experiment E18: engine ablation — naive vs semi-naive vs the
//! optimized engine (join reordering + hash indexes), measured in
//! *derivation counts* (deterministic; wall-clock lives in the
//! `datalog_eval` Criterion bench).

use crate::report::{markdown_table, Report};
use crate::workloads::{scaling_graph, structured};
use calm_datalog::eval::{eval_stratification_opts, Engine};
use calm_datalog::parse_program;
use calm_obs::Obs;

/// E18: derivation-count ablation for transitive closure.
pub fn e18_engine() -> Report {
    e18_engine_obs(&Obs::noop())
}

/// As [`e18_engine`], wrapping each engine × workload run in a span and
/// streaming the optimized engine's per-stratum/per-iteration spans and
/// derivation counters to `obs`.
pub fn e18_engine_obs(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E18",
        "engine ablation — naive vs semi-naive vs ordered+indexed (TC derivation counts)",
    );
    let p = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
    let strat = calm_datalog::stratify(&p).unwrap();
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
        let time = |engine: Engine| {
            let _span = obs.span("bench", || format!("e18:{kind} {engine:?}"));
            let t0 = std::time::Instant::now();
            let result = eval_stratification_opts(
                &strat,
                &input,
                engine,
                calm_common::storage::SharedSymbols::new(),
                obs,
                1,
            );
            (result, t0.elapsed().as_secs_f64() * 1e3)
        };
        let ((out_naive, stats_naive), ms_naive) = time(Engine::Naive);
        let ((out_base, stats_base), ms_base) = time(Engine::SemiNaiveBaseline);
        let ((out_opt, stats_opt), ms_opt) = time(Engine::SemiNaive);
        if out_naive != out_base || out_base != out_opt {
            engines_agree = false;
        }
        // The data-parallel driver must be byte-identical to the
        // sequential optimized run — same model, same per-stratum stats.
        let t0 = std::time::Instant::now();
        let (out_par, stats_par) = eval_stratification_opts(
            &strat,
            &input,
            Engine::SemiNaive,
            calm_common::storage::SharedSymbols::new(),
            obs,
            2,
        );
        let ms_par = t0.elapsed().as_secs_f64() * 1e3;
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
            format!("{d_naive} ({ms_naive:.1} ms)"),
            format!("{d_base} ({ms_base:.1} ms)"),
            format!("{d_opt} ({ms_opt:.1} ms)"),
            format!("{ms_par:.1} ms"),
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
            "naive (derivations, time)",
            "semi-naive baseline",
            "ordered+indexed",
            "parallel T=2",
            "probes / hits (opt)",
            "naive/opt derivations",
        ],
        &rows,
    ));
    r
}
