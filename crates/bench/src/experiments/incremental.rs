//! Experiment E27: incremental maintenance — the work of folding an
//! update batch into a maintained view against full re-evaluation,
//! across batch sizes and delete fractions.
//!
//! For each workload we build signed batches of two kinds — mixed
//! batches of 1..64 facts (half deletions drawn from the live EDB, half
//! fresh insertions) and delete-only batches removing 0.1 %..50 % of
//! the EDB — fold each into a maintained [`IncrementalEvaluation`]
//! opened on the initial EDB, and compare with a from-scratch fixpoint
//! on the updated EDB's rows, `calm eval`'s. Work is counted in
//! *derivations* (body valuations enumerated), which a slow host cannot
//! move. Three claims gate the numbers: every cell's maintained rows
//! equal from-scratch's; a single-fact update does less work than the
//! full fixpoint whenever the guard lets it through; and maintenance
//! never loses to re-evaluation — in no cell does it enumerate more than
//! 1.5× the from-scratch fixpoint's derivations, because a batch whose
//! support check visits more than [`fallback_limit`] of a stratum
//! re-evaluates it instead (the `fallbacks` column). What the same
//! comparison costs in time is
//! `datalog.incremental.vs_scratch_ratio` and the `ladder` in
//! BENCHMARK.json.
//!
//! [`IncrementalEvaluation`]: calm_datalog::IncrementalEvaluation
//! [`fallback_limit`]: calm_datalog::eval::incremental::fallback_limit

use crate::report::{markdown_table, Report};
use crate::workloads::scaling_graph;
use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::rng::Rng;
use calm_common::update::UpdateBatch;
use calm_datalog::eval::database::Database;
use calm_datalog::eval::incremental::{fallback_limit, UpdateStats};
use calm_datalog::{eval_database, parse_program, DatalogQuery, EvalOptions};
use calm_obs::Obs;

const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];
/// Delete-only batches, as a share of the EDB (at least one fact).
const DELETE_FRACTIONS: [f64; 6] = [0.001, 0.01, 0.05, 0.10, 0.25, 0.50];
/// The never-loses bound: maintenance work ≤ this × from-scratch work,
/// cell by cell.
const MAX_RATIO: f64 = 1.5;

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

/// One cell's maintenance work over the from-scratch fixpoint's.
fn work_ratio(stats: &UpdateStats, scratch_derivations: usize) -> f64 {
    stats.derivations as f64 / scratch_derivations.max(1) as f64
}

/// The never-loses claim over the worst cell's [`work_ratio`].
fn work_claim(r: &mut Report, worst_ratio: f64) {
    r.claim(
        format!(
            "UpdateStats.derivations ≤ {MAX_RATIO} × the from-scratch fixpoint's derivations \
             on the updated EDB, in every cell"
        ),
        format!(
            "worst update/scratch ratio {worst_ratio:.2} (the guard re-evaluates past {} of 10 000 live rows)",
            fallback_limit(10_000)
        ),
        worst_ratio <= MAX_RATIO,
    );
}

/// E27: update-batch work vs full re-evaluation. Each cell is a span,
/// so `repro --trace-out` captures the `eval.retractions` /
/// `eval.rederivations` / `eval.maintenance_fallback` counters.
pub fn e27_incremental(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E27",
        "incremental maintenance — update-batch work vs full re-evaluation",
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
        // one deleted edge makes a few percent of the view candidates
        // and nearly all of them keep a support.
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

            // Maintain: fold the batch into a session on the old EDB.
            let mut session = q.open(&edb);
            let stats = session.apply_obs(&batch, obs);
            let (identical, scratch) = from_scratch(&q, session.database(), &updated);
            all_identical &= identical;
            // A fallback *is* the full fixpoint (of the strata it
            // re-evaluates), so the work claim is about the single-fact
            // updates the guard lets through.
            if batch.insert.len() + batch.delete.len() == 1 && stats.fallbacks == 0 {
                singles_maintained += 1;
                small_batch_cheaper &= stats.derivations < scratch;
            }
            let ratio = work_ratio(&stats, scratch);
            worst_ratio = worst_ratio.max(ratio);
            rows.push(vec![
                format!("{name} (|E|={edges})"),
                label,
                stats.retractions.to_string(),
                stats.rederivations.to_string(),
                stats.derivations.to_string(),
                scratch.to_string(),
                format!("{ratio:.2}"),
                stats.fallbacks.to_string(),
                identical.to_string(),
            ]);
        }
    }
    r.claim(
        "maintained database identical to from-scratch in every cell",
        "every relation's rows compared per cell",
        all_identical,
    );
    r.claim(
        "a maintained single-fact update does less derivation work than the full fixpoint",
        format!(
            "UpdateStats.derivations vs EvalMetrics.derivations, {singles_maintained} single-fact cells without fallback"
        ),
        small_batch_cheaper && singles_maintained > 0,
    );
    work_claim(&mut r, worst_ratio);
    r.table(markdown_table(
        &[
            "workload",
            "batch",
            "retractions",
            "rederivations",
            "update derivations",
            "scratch derivations",
            "update/scratch",
            "fallbacks",
            "identical",
        ],
        &rows,
    ));
    r
}

/// The from-scratch side of a cell: `calm eval`'s fixpoint over `edb`'s
/// input rows in `maintained`'s table — whether it equals it, and its work.
fn from_scratch(q: &DatalogQuery, maintained: &Database, edb: &Instance) -> (bool, usize) {
    let table = maintained.symbols().clone();
    let mut db = Database::from_instance_with(&edb.restrict(q.input_schema()), table);
    let stats = eval_database(q.program(), &mut db, EvalOptions::default(), &Obs::noop())
        .expect("the query's program stratifies");
    let derivations = stats.iter().map(|s| s.derivations).sum();
    (maintained.same_facts(&db), derivations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e27_work_gate_trips_on_a_50x_update() {
        let gate = |derivations: usize| {
            let stats = UpdateStats {
                derivations,
                ..UpdateStats::default()
            };
            let mut r = Report::new("E27", "gate");
            work_claim(&mut r, work_ratio(&stats, 1_000));
            r.all_pass()
        };
        // An update fifty times the from-scratch work.
        assert!(!gate(50_000));
        assert!(!gate(1_501));
        // The worst cells of the real sweep sit at 1.0–1.4.
        assert!(gate(1_500));
        assert!(gate(1_390));
        assert!(gate(0));
    }
}
