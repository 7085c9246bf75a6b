//! Experiment E27: incremental maintenance — update-batch latency
//! against full re-evaluation, across batch sizes and delete fractions.
//!
//! For each workload we build signed batches of two kinds — mixed
//! batches of 1..64 facts (half deletions drawn from the live EDB, half
//! fresh insertions) and delete-only batches removing 0.1 %..50 % of
//! the EDB — then measure folding each into a maintained
//! [`IncrementalEvaluation`] (best of 7, each trial from a fresh
//! session, set-up untimed) against what re-evaluation costs a holder
//! of the old answer: opening a session on the updated EDB and
//! dropping the old one. Both sides start from a materialized old view
//! and end with a materialized new one, so each pays for disposing of
//! what it replaces; neither exports the answer. Three claims gate the
//! numbers: every cell's maintained output is identical to
//! from-scratch; the *work* of a single-fact update (derivations
//! attempted during maintenance) stays below the full fixpoint's
//! whenever the guard lets it through; and
//! maintenance never loses to re-evaluation — in no cell does it take
//! more than 1.5× the rebuild, because a batch that would overdelete
//! more than [`fallback_limit`] of a stratum re-evaluates it instead
//! (the `fallbacks` column). The cells are milliseconds long and the
//! host's speed wanders by a factor of two within a run, so the times
//! shown are the fastest of seven (what repeats), and the gated ratio
//! is the *median of the seven paired ratios* — each maintenance trial
//! over the rebuild trial timed right before it. A ratio of two minima
//! lets one lucky rebuild trial in a slow phase fail the cell (1 full
//! run in 10 did, at 1.59, on a cell whose two sides are the same
//! fixpoint).
//!
//! [`IncrementalEvaluation`]: calm_datalog::IncrementalEvaluation
//! [`fallback_limit`]: calm_datalog::eval::incremental::fallback_limit

use std::time::Instant;

use crate::report::{markdown_table, Report};
use crate::workloads::scaling_graph;
use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::update::UpdateBatch;
use calm_datalog::eval::incremental::fallback_limit;
use calm_datalog::{parse_program, DatalogQuery};
use calm_obs::Obs;

const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];
/// Delete-only batches, as a share of the EDB (at least one fact).
const DELETE_FRACTIONS: [f64; 6] = [0.001, 0.01, 0.05, 0.10, 0.25, 0.50];
const TRIALS: usize = 7;
/// The never-loses bound: incremental ≤ this × rebuild, cell by cell.
const MAX_RATIO: f64 = 1.5;

/// E27: update-batch latency vs full re-evaluation.
pub fn e27_incremental() -> Report {
    e27_incremental_obs(&Obs::noop())
}

fn tc_query() -> DatalogQuery {
    let p = parse_program(
        "@output T.\n\
         T(x,y) :- E(x,y).\n\
         T(x,z) :- T(x,y), E(y,z).",
    )
    .unwrap();
    DatalogQuery::new("tc", p).unwrap()
}

fn qtc_query() -> DatalogQuery {
    let p = parse_program(
        "@output O.\n\
         Adom(x) :- E(x,y).\n\
         Adom(y) :- E(x,y).\n\
         T(x,y) :- E(x,y).\n\
         T(x,z) :- T(x,y), E(y,z).\n\
         O(x,y) :- Adom(x), Adom(y), not T(x,y).",
    )
    .unwrap();
    DatalogQuery::new("qtc", p).unwrap()
}

/// `deletes` distinct facts sampled from the current EDB plus
/// `inserts` fresh random edges over the same domain.
fn make_batch(
    rng: &mut Rng,
    edb: &Instance,
    domain: i64,
    deletes: usize,
    inserts: usize,
) -> UpdateBatch {
    let mut present: Vec<_> = edb.facts().collect();
    rng.shuffle(&mut present);
    present.truncate(deletes);
    let mut b = UpdateBatch::deleting(present);
    for _ in 0..inserts {
        b.insert.push(fact(
            "E",
            [rng.gen_range(0..domain), rng.gen_range(0..domain)],
        ));
    }
    b
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of the paired ratios `incr[k] / full[k]`.
fn median_ratio(incr: &[f64], full: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = incr.iter().zip(full).map(|(i, f)| i / f).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// As [`e27_incremental`], wrapping each cell in a span so `repro
/// --trace-out` captures the `eval.retractions` / `eval.rederivations`
/// / `eval.maintenance_fallback` counters as artifacts.
pub fn e27_incremental_obs(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E27",
        "incremental maintenance — update-batch latency vs full re-evaluation",
    );
    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut small_batch_cheaper = true;
    let mut singles_maintained = 0;
    let mut worst_ratio: f64 = 0.0;
    for (name, q, edb, domain) in [
        // A dense recursive view: one giant strongly connected
        // component, every tuple derivable through almost every edge.
        (
            "TC/random",
            tc_query(),
            scaling_graph(271, 160, 2.0),
            160i64,
        ),
        // A sparse one with many alternative paths: a grid DAG, where
        // one deleted edge overdeletes a few percent of the view and
        // nearly all of it rederives — DRed's middle ground.
        (
            "TC/grid",
            tc_query(),
            calm_common::generator::grid(16, 16),
            256,
        ),
        // Negation above the recursion: the complement of the closure.
        ("QTC/random", qtc_query(), scaling_graph(272, 96, 1.5), 96),
    ] {
        let edges = edb.relation_len("E");
        let mixed = BATCH_SIZES.map(|n| (format!("±{n}"), n / 2, n - n / 2));
        let deletes = DELETE_FRACTIONS.map(|f| {
            let n = ((edges as f64 * f).round() as usize).max(1);
            (format!("−{}%", f * 100.0), n, 0)
        });
        for (k, (label, ndel, nins)) in mixed.into_iter().chain(deletes).enumerate() {
            let _span = obs.span("bench", || format!("e27:{name} batch={label}"));
            let mut rng = Rng::seed_from_u64(2700 + k as u64);
            let batch = make_batch(&mut rng, &edb, domain, ndel, nins);
            let mut updated = edb.clone();
            batch.apply_to_instance(&mut updated);

            // The two sides alternate, trial by trial, so a drift in
            // the host's speed reaches both. Each starts from a fresh
            // session on the *initial* EDB (untimed).
            let (mut full_ms, mut incr_ms) = (Vec::new(), Vec::new());
            let (mut expect, mut got) = (Instance::new(), Instance::new());
            let mut stats = None;
            for _ in 0..TRIALS {
                // Rebuild: open a session on the updated EDB and drop
                // the old one.
                let old = q.open(&edb);
                let t0 = Instant::now();
                let fresh = q.open(&updated);
                drop(old);
                full_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                expect = fresh.output();
                // Maintain: fold the batch into the old one.
                let mut session = q.open(&edb);
                let t0 = Instant::now();
                let s = session.apply_obs(&batch, obs);
                incr_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                stats = Some(s);
                got = session.output();
            }
            let stats = stats.unwrap();
            let identical = got == expect;
            all_identical &= identical;
            // A fallback *is* the full fixpoint (of the strata it
            // re-evaluates), so the work claim is about the single-fact
            // updates the guard lets through.
            if batch.len() == 1 && stats.fallbacks == 0 {
                singles_maintained += 1;
                small_batch_cheaper &= stats.derivations < full_fixpoint_derivations(&q, &updated);
            }
            let f = best(&full_ms);
            let i = best(&incr_ms);
            let ratio = median_ratio(&incr_ms, &full_ms);
            worst_ratio = worst_ratio.max(ratio);
            rows.push(vec![
                format!("{name} (|E|={edges})"),
                label,
                format!("{i:.2}"),
                format!("{f:.2}"),
                format!("{ratio:.2}"),
                stats.retractions.to_string(),
                stats.rederivations.to_string(),
                stats.derivations.to_string(),
                stats.fallbacks.to_string(),
                identical.to_string(),
            ]);
        }
    }
    r.claim(
        "maintained database identical to from-scratch in every cell",
        "output comparison per cell",
        all_identical,
    );
    r.claim(
        "a maintained single-fact update does less derivation work than the full fixpoint",
        format!(
            "UpdateStats.derivations vs EvalMetrics.derivations, {singles_maintained} single-fact cells without fallback"
        ),
        small_batch_cheaper && singles_maintained > 0,
    );
    r.claim(
        format!("incremental ≤ {MAX_RATIO}× rebuilding the view, in every cell"),
        format!(
            "worst incr/rebuild ratio {worst_ratio:.2} (median of {TRIALS} paired trials; the guard re-evaluates past {} of 10 000 live rows)",
            fallback_limit(10_000)
        ),
        worst_ratio <= MAX_RATIO,
    );
    r.table(markdown_table(
        &[
            "workload",
            "batch",
            "incr ms",
            "rebuild ms",
            "incr/rebuild (median of pairs)",
            "retractions",
            "rederivations",
            "update derivations",
            "fallbacks",
            "identical",
        ],
        &rows,
    ));
    r
}

/// Derivation count of a full fixpoint over `edb` — the deterministic
/// work baseline the single-fact claim compares against.
fn full_fixpoint_derivations(q: &DatalogQuery, edb: &Instance) -> usize {
    let (_, stats) = calm_datalog::eval::eval_stratification_opts(
        q.stratification(),
        edb,
        calm_datalog::eval::Engine::SemiNaive,
        calm_common::storage::SharedSymbols::new(),
        &Obs::noop(),
        1,
    );
    stats.iter().map(|s| s.derivations).sum()
}
