//! Fixpoint evaluation of semi-positive programs: naive and semi-naive.
//!
//! Both compute the minimal fixpoint of the immediate consequence operator
//! `T_P` (Section 2). Negative atoms are only consulted against relations
//! that are fixed during the fixpoint (edb or lower strata), which the
//! stratified driver guarantees.
//!
//! Evaluation runs entirely over the shared substrate
//! ([`calm_common::storage`]): bindings are `Copy` [`Sym`]s, the
//! semi-naive delta is the region of rows past each relation's watermark
//! (no second store, no copying), and the hash indexes used by probe
//! joins are built once before the loop and maintained incrementally on
//! insert — nothing is rebuilt per iteration.
//!
//! # Data-parallel evaluation
//!
//! With [`EvalOptions::eval_threads`] > 1 each iteration's rule
//! evaluations are split into [`EvalJob`]s — a rule (restricted to one
//! delta position in delta rounds) over a contiguous chunk of its
//! *outermost* atom's row scan — and executed by scoped worker threads
//! (`std::thread::scope`, no new dependencies) sharing the storage
//! read-only. Each worker keeps a private derivation buffer and
//! [`EvalMetrics`] block; after the round the buffers are merged in job
//! order (rule index, then delta position, then partition index), which
//! reproduces the exact sequential emission order. Because the chunks
//! partition the same outer scan, every counter is a sum over the same
//! event multiset, so the derived database **and** the metrics are
//! byte-identical to the sequential path at any thread count. The one
//! exception guarded by the planner: a rule whose outermost atom would
//! take the index-probe fast path issues exactly one probe, so such a
//! unit is never split (splitting would multiply `index_probes`).

use super::compile::{
    compile_rule, compile_rule_ordered, CompiledAtom, CompiledRule, JoinStrategy, Slot,
};
use super::database::Database;
use crate::ast::{Rule, Var};
use crate::program::Program;
use calm_common::fact::RelName;
use calm_common::storage::{RelId, Storage, Sym, SymTuple, SymbolTable};
use calm_common::value::Value;
use calm_obs::Obs;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use calm_common::storage::EvalMetrics;

/// Backwards-compatible name for the engine counters: the original
/// `FixpointStats` grew into [`EvalMetrics`].
pub type FixpointStats = EvalMetrics;

/// Evaluation options: the ablation knobs benchmarked by
/// `calm-bench`'s `datalog_eval` bench, plus the data-parallel driver
/// knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Greedily reorder positive body atoms (join planning).
    pub reorder: bool,
    /// Probe incrementally-maintained hash indexes on the probe
    /// positions (built once per fixpoint, maintained on insert).
    pub index: bool,
    /// Worker threads for the data-parallel semi-naive driver; 1 (the
    /// default) runs the classic sequential loop. Any value produces a
    /// byte-identical database and [`EvalMetrics`] — see the module
    /// docs on deterministic merging.
    pub eval_threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            reorder: true,
            index: true,
            eval_threads: 1,
        }
    }
}

impl EvalOptions {
    /// The unoptimized baseline (original body order, full scans,
    /// sequential).
    pub const BASELINE: EvalOptions = EvalOptions {
        reorder: false,
        index: false,
        eval_threads: 1,
    };

    /// The same options with `eval_threads` set to `max(n, 1)`.
    #[must_use]
    pub fn with_eval_threads(mut self, n: usize) -> Self {
        self.eval_threads = n.max(1);
        self
    }
}

/// The `(relation, position)` pairs the compiled rules will probe via
/// the hash path. Leading-column probes go through the merge-join path
/// over sorted batches instead ([`sorted_relations`]), so no hash index
/// is built — or incrementally maintained on every insert — for them.
fn wanted_indexes(rules: &[CompiledRule]) -> BTreeSet<(RelId, usize)> {
    let mut out = BTreeSet::new();
    for rule in rules {
        for atom in &rule.pos {
            if let (Some(p), JoinStrategy::Hash) = (atom.probe, atom.strategy) {
                out.insert((atom.relation, p));
            }
        }
    }
    out
}

/// The relations some atom merge-joins on its leading column: these are
/// sealed into sorted batches at fixpoint entry and re-sealed at every
/// watermark boundary.
fn sorted_relations(rules: &[CompiledRule]) -> BTreeSet<RelId> {
    let mut out = BTreeSet::new();
    for rule in rules {
        for atom in &rule.pos {
            if atom.strategy == JoinStrategy::Merge {
                out.insert(atom.relation);
            }
        }
    }
    out
}

/// Match one atom against a row, extending `binding`. Returns the slots
/// that were newly bound (for backtracking), or `None` on mismatch.
fn unify(atom: &CompiledAtom, row: &[Sym], binding: &mut [Option<Sym>]) -> Option<Vec<usize>> {
    debug_assert_eq!(atom.slots.len(), row.len());
    let mut newly = Vec::new();
    for (slot, &s) in atom.slots.iter().zip(row.iter()) {
        match slot {
            Slot::Const(c) => {
                if *c != s {
                    undo(binding, &newly);
                    return None;
                }
            }
            Slot::Var(i) => match binding[*i] {
                Some(existing) => {
                    if existing != s {
                        undo(binding, &newly);
                        return None;
                    }
                }
                None => {
                    binding[*i] = Some(s);
                    newly.push(*i);
                }
            },
        }
    }
    Some(newly)
}

fn undo(binding: &mut [Option<Sym>], newly: &[usize]) {
    for &i in newly {
        binding[i] = None;
    }
}

fn slot_sym(slot: &Slot, binding: &[Option<Sym>]) -> Sym {
    match slot {
        Slot::Const(c) => *c,
        Slot::Var(i) => {
            binding[*i].expect("slot unbound after positive join; rule safety violated")
        }
    }
}

/// Evaluate a compiled rule against `full`. `delta_at` optionally
/// restricts one positive atom (by index) to the delta region of its
/// relation; `range` optionally restricts the *outermost* atom's row
/// scan to a contiguous `[start, end)` slice (the data-parallel
/// partitioning — indexes into the delta region when the outermost atom
/// is the delta atom, into the full row vector otherwise). Negative
/// atoms are checked against `neg_db` (equal to `full` for ordinary
/// evaluation; a frozen approximation for the well-founded alternating
/// fixpoint). Derived head rows are passed to `emit`.
#[allow(clippy::too_many_arguments)]
fn eval_rule(
    rule: &CompiledRule,
    full: &Storage,
    use_index: bool,
    neg_db: &Storage,
    delta_at: Option<usize>,
    range: Option<(usize, usize)>,
    metrics: &mut EvalMetrics,
    emit: &mut impl FnMut(RelId, SymTuple),
) {
    let mut binding: Vec<Option<Sym>> = vec![None; rule.nvars];
    eval_pos(
        rule,
        0,
        full,
        use_index,
        neg_db,
        delta_at,
        range,
        &mut binding,
        metrics,
        emit,
    );
}

#[allow(clippy::too_many_arguments)]
fn eval_pos(
    rule: &CompiledRule,
    idx: usize,
    full: &Storage,
    use_index: bool,
    neg_db: &Storage,
    delta_at: Option<usize>,
    range: Option<(usize, usize)>,
    binding: &mut Vec<Option<Sym>>,
    metrics: &mut EvalMetrics,
    emit: &mut impl FnMut(RelId, SymTuple),
) {
    if idx == rule.pos.len() {
        // Check inequalities.
        for (l, r) in &rule.ineq {
            if slot_sym(l, binding) == slot_sym(r, binding) {
                return;
            }
        }
        // Check negative atoms (all slots bound by safety).
        for atom in &rule.neg {
            let row: SymTuple = atom.slots.iter().map(|s| slot_sym(s, binding)).collect();
            if neg_db.contains(atom.relation, &row) {
                return;
            }
        }
        let head: SymTuple = rule
            .head
            .slots
            .iter()
            .map(|s| slot_sym(s, binding))
            .collect();
        metrics.derivations += 1;
        emit(rule.head.relation, head);
        return;
    }
    let atom = &rule.pos[idx];
    let Some(relation) = full.relation(atom.relation) else {
        return;
    };
    let scanning_delta = delta_at == Some(idx);
    // Fast paths: probe with the bound symbol at the probe position
    // (never when this atom scans the small delta region). Leading-column
    // probes merge-join the sorted batches; other positions probe the
    // hash index.
    if !scanning_delta && use_index {
        if let Some(p) = atom.probe {
            let s = match atom.slots[p] {
                Slot::Const(c) => c,
                Slot::Var(i) => binding[i].expect("probe position must be bound"),
            };
            if atom.strategy == JoinStrategy::Merge {
                debug_assert_eq!(p, 0, "merge join probes the leading column");
                debug_assert!(
                    idx > 0 || range.is_none(),
                    "partitioned job must not take the outer probe path"
                );
                metrics.merge_probes += 1;
                for row in relation.probe_sorted_iter(s) {
                    metrics.merge_hits += 1;
                    if row.len() != atom.slots.len() {
                        continue;
                    }
                    if let Some(newly) = unify(atom, row, binding) {
                        eval_pos(
                            rule,
                            idx + 1,
                            full,
                            use_index,
                            neg_db,
                            delta_at,
                            range,
                            binding,
                            metrics,
                            emit,
                        );
                        undo(binding, &newly);
                    }
                }
                return;
            }
            if let Some(ids) = relation.probe(p, s) {
                // The parallel planner never partitions a unit whose
                // outermost atom takes the probe path: it would issue
                // one probe per partition instead of one.
                debug_assert!(
                    idx > 0 || range.is_none(),
                    "partitioned job must not take the outer probe path"
                );
                metrics.index_probes += 1;
                metrics.index_hits += ids.len();
                for &id in ids {
                    let row = relation.row(id);
                    if row.len() != atom.slots.len() {
                        continue;
                    }
                    if let Some(newly) = unify(atom, row, binding) {
                        eval_pos(
                            rule,
                            idx + 1,
                            full,
                            use_index,
                            neg_db,
                            delta_at,
                            range,
                            binding,
                            metrics,
                            emit,
                        );
                        undo(binding, &newly);
                    }
                }
                return;
            }
        }
    }
    let mut rows = if scanning_delta {
        relation.delta_rows()
    } else {
        relation.rows()
    };
    if idx == 0 {
        if let Some((start, end)) = range {
            rows = &rows[start.min(rows.len())..end.min(rows.len())];
        }
    }
    for row in rows {
        if row.len() != atom.slots.len() {
            continue;
        }
        if let Some(newly) = unify(atom, row, binding) {
            eval_pos(
                rule,
                idx + 1,
                full,
                use_index,
                neg_db,
                delta_at,
                range,
                binding,
                metrics,
                emit,
            );
            undo(binding, &newly);
        }
    }
}

fn compile_program(program: &Program, table: &mut SymbolTable, reorder: bool) -> Vec<CompiledRule> {
    let idb: BTreeSet<RelName> = program.idb().names().cloned().collect();
    program
        .rules()
        .iter()
        .map(|r| {
            if reorder {
                compile_rule_ordered(r, table, |rel| idb.contains(rel))
            } else {
                compile_rule(r, table, |rel| idb.contains(rel))
            }
        })
        .collect()
}

/// Compute the minimal fixpoint of a semi-positive program over `db`,
/// **naively**: every iteration re-derives everything. Kept as the
/// baseline for the `datalog_eval` benchmark.
pub fn fixpoint_naive(program: &Program, db: &mut Database) -> FixpointStats {
    let compiled = compile_program(program, &mut db.symbols().clone().write(), false);
    let mut metrics = EvalMetrics::default();
    loop {
        metrics.iterations += 1;
        let mut fresh: Vec<(RelId, SymTuple)> = Vec::new();
        {
            let storage = db.storage();
            for rule in &compiled {
                eval_rule(
                    rule,
                    storage,
                    false,
                    storage,
                    None,
                    None,
                    &mut metrics,
                    &mut |rel, row| {
                        if !storage.contains(rel, &row) {
                            fresh.push((rel, row));
                        }
                    },
                );
            }
        }
        let mut added = 0;
        for (rel, row) in fresh {
            let bytes = row.len() * std::mem::size_of::<Sym>();
            if db.storage_mut().insert(rel, row) {
                added += 1;
                metrics.bytes_moved += bytes;
            }
        }
        metrics.new_facts += added;
        if added == 0 {
            return metrics;
        }
    }
}

/// Compute the minimal fixpoint of a semi-positive program over `db` using
/// **semi-naive** evaluation: recursive rules only join against the delta
/// of the previous iteration.
pub fn fixpoint_seminaive(program: &Program, db: &mut Database) -> FixpointStats {
    fixpoint_seminaive_impl(program, db, None, EvalOptions::default())
}

/// As [`fixpoint_seminaive`], reporting per-iteration and per-rule spans
/// plus derivation counters to `obs`.
pub fn fixpoint_seminaive_obs(program: &Program, db: &mut Database, obs: &Obs) -> FixpointStats {
    let cp = CompiledProgram::new(
        program,
        &mut db.symbols().clone().write(),
        EvalOptions::default(),
    );
    fixpoint_compiled_impl(&cp, db, None, obs)
}

/// Semi-naive fixpoint with explicit [`EvalOptions`] — the entry point for
/// the `datalog_eval` ablation benchmark.
pub fn fixpoint_seminaive_with(
    program: &Program,
    db: &mut Database,
    options: EvalOptions,
) -> FixpointStats {
    fixpoint_seminaive_impl(program, db, None, options)
}

/// As [`fixpoint_seminaive_with`], reporting spans and counters to
/// `obs` — the entry point for parameterized (e.g. data-parallel)
/// evaluation with tracing.
pub fn fixpoint_seminaive_with_obs(
    program: &Program,
    db: &mut Database,
    options: EvalOptions,
    obs: &Obs,
) -> FixpointStats {
    let cp = CompiledProgram::new(program, &mut db.symbols().clone().write(), options);
    fixpoint_compiled_impl(&cp, db, None, obs)
}

/// Semi-naive fixpoint with *frozen negation*: every negative body atom is
/// checked against `frozen` instead of the evolving database. This is the
/// `Γ` operator of the well-founded alternating fixpoint
/// ([`crate::wellfounded`]); the program need not be semi-positive.
/// `frozen` must share `db`'s symbol table.
pub fn fixpoint_seminaive_frozen(
    program: &Program,
    db: &mut Database,
    frozen: &Database,
) -> FixpointStats {
    fixpoint_seminaive_impl(program, db, Some(frozen), EvalOptions::default())
}

/// A semi-positive program compiled once against a symbol table, for
/// repeated fixpoint evaluation. [`crate::query::DatalogQuery`] holds one
/// per stratum: the monotonicity falsifiers evaluate the same query
/// thousands of times, and per-eval recompilation dominates small inputs.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    rules: Vec<CompiledRule>,
    indexes: Vec<(RelId, usize)>,
    /// Relations merge-joined on their leading column — sealed into
    /// sorted batches at fixpoint entry and at every watermark boundary.
    sorted: Vec<RelId>,
    options: EvalOptions,
    /// Per-rule span labels (`<head-relation>#<rule-index>`), computed at
    /// compile time so tracing never consults the symbol table.
    labels: Vec<String>,
    /// Per-rule plan descriptions (atom order and join strategy per
    /// atom), rendered at compile time for `--dump-plan` and tracing.
    plan: Vec<String>,
    /// Positive atoms per strategy: `[merge, hash, scan]` counts,
    /// reported as `eval.plan` counters.
    strategy_counts: [usize; 3],
}

impl CompiledProgram {
    /// Compile `program` against `table` with the given options.
    pub fn new(
        program: &Program,
        table: &mut SymbolTable,
        options: EvalOptions,
    ) -> CompiledProgram {
        let rules = compile_program(program, table, options.reorder);
        let (indexes, sorted) = if options.index {
            (
                wanted_indexes(&rules).into_iter().collect(),
                sorted_relations(&rules).into_iter().collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let labels: Vec<String> = rules
            .iter()
            .enumerate()
            .map(|(i, r)| format!("{}#{i}", table.rel_name(r.head.relation)))
            .collect();
        let mut strategy_counts = [0usize; 3];
        let plan = rules
            .iter()
            .zip(&labels)
            .map(|(r, label)| {
                let mut parts: Vec<String> = r
                    .pos
                    .iter()
                    .map(|a| {
                        let strategy = if options.index {
                            a.strategy
                        } else {
                            JoinStrategy::Scan
                        };
                        strategy_counts[match strategy {
                            JoinStrategy::Merge => 0,
                            JoinStrategy::Hash => 1,
                            JoinStrategy::Scan => 2,
                        }] += 1;
                        match (strategy, a.probe) {
                            (JoinStrategy::Scan, _) | (_, None) => {
                                format!("{}[scan]", table.rel_name(a.relation))
                            }
                            (s, Some(p)) => format!("{}[{s}@{p}]", table.rel_name(a.relation)),
                        }
                    })
                    .collect();
                parts.extend(
                    r.neg
                        .iter()
                        .map(|a| format!("not {}[lookup]", table.rel_name(a.relation))),
                );
                format!("{label}: {}", parts.join(", "))
            })
            .collect();
        CompiledProgram {
            rules,
            indexes,
            sorted,
            options,
            labels,
            plan,
            strategy_counts,
        }
    }

    /// The span label of rule `i` (`<head-relation>#<rule-index>`).
    pub fn rule_label(&self, i: usize) -> &str {
        &self.labels[i]
    }

    /// One line per rule: evaluation order of the body atoms and the
    /// join strategy chosen for each (`merge@p` / `hash@p` / `scan`).
    pub fn plan_lines(&self) -> &[String] {
        &self.plan
    }

    /// Positive atoms per join strategy: `(merge, hash, scan)`.
    pub fn strategy_counts(&self) -> (usize, usize, usize) {
        let [m, h, s] = self.strategy_counts;
        (m, h, s)
    }

    /// Set the data-parallel worker count for subsequent fixpoints.
    /// Thread count is a pure driver knob — it never affects
    /// compilation, and any value yields byte-identical results.
    pub fn set_eval_threads(&mut self, n: usize) {
        self.options.eval_threads = n.max(1);
    }

    /// The data-parallel worker count this program will run with.
    pub fn eval_threads(&self) -> usize {
        self.options.eval_threads
    }

    /// The compiled rules — the incremental maintenance engine plans
    /// its access paths over them and joins along those.
    pub(crate) fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }
}

/// Semi-naive fixpoint of a precompiled program. `db` must use the table
/// the program was compiled against.
pub fn fixpoint_seminaive_compiled(cp: &CompiledProgram, db: &mut Database) -> FixpointStats {
    fixpoint_compiled_impl(cp, db, None, &Obs::noop())
}

/// As [`fixpoint_seminaive_compiled`], reporting per-iteration and
/// per-rule spans plus derivation counters to `obs`.
pub fn fixpoint_seminaive_compiled_obs(
    cp: &CompiledProgram,
    db: &mut Database,
    obs: &Obs,
) -> FixpointStats {
    fixpoint_compiled_impl(cp, db, None, obs)
}

/// As [`fixpoint_seminaive_compiled`], with every negative body atom
/// checked against `frozen` (the `Γ` operator of the well-founded
/// alternating fixpoint). `frozen` must share `db`'s symbol table.
pub fn fixpoint_seminaive_frozen_compiled(
    cp: &CompiledProgram,
    db: &mut Database,
    frozen: &Database,
) -> FixpointStats {
    fixpoint_compiled_impl(cp, db, Some(frozen), &Obs::noop())
}

/// As [`fixpoint_seminaive_frozen_compiled`], reporting to `obs`.
pub fn fixpoint_seminaive_frozen_compiled_obs(
    cp: &CompiledProgram,
    db: &mut Database,
    frozen: &Database,
    obs: &Obs,
) -> FixpointStats {
    fixpoint_compiled_impl(cp, db, Some(frozen), obs)
}

fn fixpoint_seminaive_impl(
    program: &Program,
    db: &mut Database,
    frozen: Option<&Database>,
    options: EvalOptions,
) -> FixpointStats {
    let cp = CompiledProgram::new(program, &mut db.symbols().clone().write(), options);
    fixpoint_compiled_impl(&cp, db, frozen, &Obs::noop())
}

/// One unit of evaluation work inside a fixpoint round: a rule
/// (optionally restricted to one delta position), over an optional
/// contiguous `[start, end)` slice of its outermost atom's row scan.
///
/// The planner emits jobs in sequential evaluation order (rule index,
/// then delta position, then partition index); merging worker buffers
/// in job order therefore reproduces the exact sequential emission
/// order — see the module docs.
#[derive(Debug, Clone, Copy)]
struct EvalJob {
    rule: usize,
    delta_at: Option<usize>,
    range: Option<(usize, usize)>,
}

/// Plan the jobs for one `(rule, delta position)` unit: a single
/// unpartitioned job when partitioning is pointless or would change the
/// metrics (outer probe path), otherwise `min(threads, rows)`
/// contiguous chunks of the outermost atom's scan whose sizes differ by
/// at most one.
fn plan_unit(
    jobs: &mut Vec<EvalJob>,
    rule_idx: usize,
    rule: &CompiledRule,
    delta_at: Option<usize>,
    storage: &Storage,
    use_index: bool,
    threads: usize,
) {
    let scan_len = (|| {
        if threads <= 1 {
            return None;
        }
        let atom0 = rule.pos.first()?;
        let scanning_delta = delta_at == Some(0);
        // An outer index probe is a single event: splitting the unit
        // would issue one probe per partition and break the metrics
        // byte-identity guarantee. Keep such units whole.
        if !scanning_delta && use_index && atom0.probe.is_some() {
            return None;
        }
        let relation = storage.relation(atom0.relation)?;
        let len = if scanning_delta {
            relation.delta_rows().len()
        } else {
            relation.len()
        };
        (len >= 2).then_some(len)
    })();
    match scan_len {
        None => jobs.push(EvalJob {
            rule: rule_idx,
            delta_at,
            range: None,
        }),
        Some(len) => {
            let parts = threads.min(len);
            let (base, rem) = (len / parts, len % parts);
            let mut start = 0;
            for p in 0..parts {
                let end = start + base + usize::from(p < rem);
                jobs.push(EvalJob {
                    rule: rule_idx,
                    delta_at,
                    range: Some((start, end)),
                });
                start = end;
            }
        }
    }
}

/// Run one job, appending derived-and-not-yet-stored rows to `sink`.
fn run_job(
    cp: &CompiledProgram,
    job: &EvalJob,
    storage: &Storage,
    neg: &Storage,
    metrics: &mut EvalMetrics,
    sink: &mut Vec<(RelId, SymTuple)>,
) {
    eval_rule(
        &cp.rules[job.rule],
        storage,
        cp.options.index,
        neg,
        job.delta_at,
        job.range,
        metrics,
        &mut |rel, row| {
            if !storage.contains(rel, &row) {
                sink.push((rel, row));
            }
        },
    );
}

/// What one parallel job hands back: its index in the round's job
/// order, the facts it derived, and the counters it accumulated.
type JobResult = (usize, Vec<(RelId, SymTuple)>, EvalMetrics);

/// Execute one round's jobs, extending `pending` with the derivations
/// in sequential order. Sequential (`eval_threads` ≤ 1) runs inline
/// with the classic per-rule spans; parallel fans the jobs out to
/// scoped worker threads over a work-stealing counter and merges the
/// per-job buffers and metrics back in job order.
fn run_round(
    cp: &CompiledProgram,
    storage: &Storage,
    neg: &Storage,
    jobs: &[EvalJob],
    pending: &mut Vec<(RelId, SymTuple)>,
    metrics: &mut EvalMetrics,
    obs: &Obs,
) {
    if cp.options.eval_threads <= 1 {
        let mut k = 0;
        while k < jobs.len() {
            let rule_idx = jobs[k].rule;
            let before = metrics.derivations;
            let _rule_span = obs.span("eval.rule", || cp.labels[rule_idx].clone());
            while k < jobs.len() && jobs[k].rule == rule_idx {
                run_job(cp, &jobs[k], storage, neg, metrics, pending);
                k += 1;
            }
            if obs.enabled() {
                obs.counter(
                    "eval.rule",
                    &cp.labels[rule_idx],
                    (metrics.derivations - before) as u64,
                );
            }
        }
        return;
    }
    let _par_span = obs.span("eval.parallel", || format!("jobs#{}", jobs.len()));
    if obs.enabled() {
        obs.counter("eval.parallel", "partitions", jobs.len() as u64);
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<JobResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cp.options.eval_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs.len() {
                            break;
                        }
                        let mut job_metrics = EvalMetrics::default();
                        let mut buf = Vec::new();
                        run_job(cp, &jobs[j], storage, neg, &mut job_metrics, &mut buf);
                        local.push((j, buf, job_metrics));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("eval worker panicked"))
            .collect()
    });
    // Deterministic merge: every job index occurs exactly once, and job
    // order equals sequential evaluation order, so after sorting the
    // concatenated buffers reproduce the sequential `pending` exactly
    // (insertion order, delta regions and all counters included).
    results.sort_unstable_by_key(|&(j, _, _)| j);
    let mut rule_derivations = 0;
    let mut current_rule = usize::MAX;
    for (j, buf, job_metrics) in results {
        let rule_idx = jobs[j].rule;
        if rule_idx != current_rule {
            if current_rule != usize::MAX && obs.enabled() {
                obs.counter(
                    "eval.rule",
                    &cp.labels[current_rule],
                    rule_derivations as u64,
                );
            }
            current_rule = rule_idx;
            rule_derivations = 0;
        }
        rule_derivations += job_metrics.derivations;
        metrics.merge(&job_metrics);
        pending.extend(buf);
    }
    if current_rule != usize::MAX && obs.enabled() {
        obs.counter(
            "eval.rule",
            &cp.labels[current_rule],
            rule_derivations as u64,
        );
    }
}

fn fixpoint_compiled_impl(
    cp: &CompiledProgram,
    db: &mut Database,
    frozen: Option<&Database>,
    obs: &Obs,
) -> FixpointStats {
    if let Some(f) = frozen {
        assert!(
            db.symbols().same_table(f.symbols()),
            "frozen negation database must share the symbol table"
        );
    }
    // Fixpoints run over compacted stores: the scan path iterates the
    // raw insertion log (`Relation::rows`/`delta_rows`), tombstones
    // included. A caller that retracts must compact first (the update
    // drivers do, at every batch boundary and before a maintenance
    // fallback) — fail in tests rather than join against dead rows.
    debug_assert!(
        !db.storage().any_dead() && !frozen.is_some_and(|f| f.storage().any_dead()),
        "fixpoint over an uncompacted store: compact_retractions() first"
    );
    let threads = cp.options.eval_threads.max(1);
    // Build the probe indexes once; inserts keep them current, so the
    // fixpoint loop below never rebuilds an index. Merge-joined
    // relations are sealed into sorted batches instead — here and at
    // every watermark boundary below, always on the mutating thread.
    for &(rel, pos) in &cp.indexes {
        db.storage_mut().relation_mut(rel).ensure_index(pos);
    }
    for &rel in &cp.sorted {
        db.storage_mut().relation_mut(rel).ensure_sorted();
    }
    if obs.enabled() {
        let (merge, hash, scan) = cp.strategy_counts();
        obs.counter("eval.plan", "atoms.merge", merge as u64);
        obs.counter("eval.plan", "atoms.hash", hash as u64);
        obs.counter("eval.plan", "atoms.scan", scan as u64);
    }
    let mut metrics = EvalMetrics::default();
    let mut pending: Vec<(RelId, SymTuple)> = Vec::new();
    let mut jobs: Vec<EvalJob> = Vec::new();

    // Round 0: evaluate every rule once on the initial database. This
    // covers non-recursive rules completely (their inputs never change
    // within this stratum) and seeds the delta for recursive ones.
    metrics.iterations += 1;
    {
        let _iter_span = obs.span("eval", || "iteration#0".into());
        let storage = db.storage();
        let neg = frozen.map_or(storage, |f| f.storage());
        for (i, rule) in cp.rules.iter().enumerate() {
            plan_unit(&mut jobs, i, rule, None, storage, cp.options.index, threads);
        }
        run_round(cp, storage, neg, &jobs, &mut pending, &mut metrics, obs);
    }

    let mut batch: Vec<SymTuple> = Vec::new();
    loop {
        // Rows inserted now form the next delta region: move every
        // watermark to the current end first, then insert. Consecutive
        // same-relation runs go through one `insert_batch` each, so the
        // relation is resolved once per run instead of once per row.
        db.storage_mut().mark_deltas();
        let mut added = 0;
        let mut drained = pending.drain(..).peekable();
        while let Some((rel, row)) = drained.next() {
            batch.push(row);
            while drained.peek().is_some_and(|&(r, _)| r == rel) {
                batch.push(drained.next().expect("peeked").1);
            }
            let (new_rows, bytes) = db.storage_mut().insert_batch(rel, batch.drain(..));
            added += new_rows;
            metrics.bytes_moved += bytes;
        }
        drop(drained);
        metrics.new_facts += added;
        if obs.enabled() {
            obs.histogram("eval", "iteration_new_facts", added as u64);
        }
        if added == 0 {
            obs.counter("eval", "derivations", metrics.derivations as u64);
            obs.counter("eval", "new_facts", metrics.new_facts as u64);
            obs.counter("eval", "iterations", metrics.iterations as u64);
            obs.counter("eval", "index_probes", metrics.index_probes as u64);
            obs.counter("eval", "merge_probes", metrics.merge_probes as u64);
            return metrics;
        }
        // Re-seal the merge-joined relations so the sorted batches cover
        // the rows just inserted (including the new delta region): merge
        // probes in the round below are then pure binary searches with
        // an empty unsealed tail.
        for &rel in &cp.sorted {
            db.storage_mut().relation_mut(rel).ensure_sorted();
        }
        // Delta round: recursive rules only, one delta position at a time.
        // Dedup across repeated relations at multiple positions is handled
        // by the membership guard on `pending` insertion.
        metrics.iterations += 1;
        let iter = metrics.iterations;
        let _iter_span = obs.span("eval", || format!("iteration#{}", iter - 1));
        let storage = db.storage();
        let neg = frozen.map_or(storage, |f| f.storage());
        jobs.clear();
        for (i, rule) in cp.rules.iter().enumerate() {
            if !rule.is_recursive() {
                continue;
            }
            for (pos_idx, &is_rec) in rule.recursive_pos.iter().enumerate() {
                if is_rec {
                    plan_unit(
                        &mut jobs,
                        i,
                        rule,
                        Some(pos_idx),
                        storage,
                        cp.options.index,
                        threads,
                    );
                }
            }
        }
        run_round(cp, storage, neg, &jobs, &mut pending, &mut metrics, obs);
    }
}

/// A program compiled once against a symbol table, for repeated one-shot
/// derivation (the transducer simulator's per-transition step).
#[derive(Debug, Clone)]
pub struct RuleSet {
    compiled: Vec<CompiledRule>,
}

impl RuleSet {
    /// Compile every rule of `program` against `table` (original body
    /// order; one-shot derivation gains little from reordering).
    pub fn new(program: &Program, table: &mut SymbolTable) -> RuleSet {
        RuleSet {
            compiled: compile_program(program, table, false),
        }
    }

    /// Derive all facts firing on `db` directly (no fixpoint iteration),
    /// passing each derived row to `emit`. `db` must use the table this
    /// rule set was compiled against.
    pub fn derive(
        &self,
        db: &Database,
        metrics: &mut EvalMetrics,
        emit: &mut impl FnMut(RelId, SymTuple),
    ) {
        let storage = db.storage();
        for rule in &self.compiled {
            eval_rule(rule, storage, false, storage, None, None, metrics, emit);
        }
    }
}

/// Evaluate a program's rules against a fixed database *without* fixpoint
/// iteration: derive all facts firing on `db` directly. Used for one-shot
/// queries; the transducer simulator keeps a precompiled [`RuleSet`]
/// instead of calling this per transition.
pub fn derive_once(program: &Program, db: &Database) -> Database {
    let rules = RuleSet::new(program, &mut db.symbols().clone().write());
    let mut out = Database::with_symbols(db.symbols().clone());
    let mut metrics = EvalMetrics::default();
    rules.derive(db, &mut metrics, &mut |rel, row| {
        out.insert(rel, row);
    });
    out
}

/// A rule body compiled once for repeated valuation enumeration — the
/// extension hook used by `calm-ilog` to construct Skolem terms for
/// invention heads. Accepts rules whose *head* contains the invention
/// symbol, since only the body is evaluated.
#[derive(Debug, Clone)]
pub struct ValuationQuery {
    vars: Vec<Var>,
    compiled: CompiledRule,
}

impl ValuationQuery {
    /// Compile the body of `rule` against `table`.
    pub fn new(rule: &Rule, table: &mut SymbolTable) -> ValuationQuery {
        use crate::ast::{Atom, Term};
        let vars: Vec<Var> = rule.positive_variables().into_iter().collect();
        let synthetic = Rule {
            head: Atom::new(
                "__valuation",
                vars.iter().map(|v| Term::Var(v.clone())).collect(),
            ),
            pos: rule.pos.clone(),
            neg: rule.neg.clone(),
            ineq: rule.ineq.clone(),
        };
        let compiled = compile_rule(&synthetic, table, |_| false);
        ValuationQuery { vars, compiled }
    }

    /// The body variables, in the order of each valuation row.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Enumerate every satisfying valuation of the body against `db`
    /// (negation also checked against `db`), deduplicated and in
    /// deterministic (interning) order.
    pub fn eval(&self, db: &Database, metrics: &mut EvalMetrics) -> Vec<SymTuple> {
        let storage = db.storage();
        let mut out: BTreeSet<SymTuple> = BTreeSet::new();
        eval_rule(
            &self.compiled,
            storage,
            false,
            storage,
            None,
            None,
            metrics,
            &mut |_, row| {
                out.insert(row);
            },
        );
        out.into_iter().collect()
    }
}

/// Enumerate every satisfying valuation of a rule's body against `db`
/// (negation also checked against `db`). Returns the valuations as
/// variable→value maps in deterministic (value) order.
///
/// Compiles the body on every call; repeated evaluation should hold a
/// [`ValuationQuery`] instead.
pub fn body_valuations(rule: &Rule, db: &Database) -> Vec<std::collections::BTreeMap<Var, Value>> {
    let q = ValuationQuery::new(rule, &mut db.symbols().clone().write());
    let mut metrics = EvalMetrics::default();
    let rows = q.eval(db, &mut metrics);
    let table = db.symbols().read();
    let ordered: BTreeSet<Vec<Value>> = rows
        .iter()
        .map(|row| row.iter().map(|&s| table.value(s).clone()).collect())
        .collect();
    ordered
        .into_iter()
        .map(|t| q.vars().iter().cloned().zip(t).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use calm_common::fact::fact;
    use calm_common::generator::path;
    use calm_common::instance::Instance;

    fn tc() -> Program {
        parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap()
    }

    #[test]
    fn tc_on_path_both_engines_agree() {
        let input = path(5);
        let mut db1 = Database::from_instance(&input);
        let mut db2 = Database::from_instance(&input);
        let s1 = fixpoint_naive(&tc(), &mut db1);
        let s2 = fixpoint_seminaive(&tc(), &mut db2);
        assert_eq!(db1.to_instance(), db2.to_instance());
        // Path with 5 edges: TC has 5+4+3+2+1 = 15 pairs.
        let out = db1.to_instance();
        assert_eq!(out.relation_len("T"), 15);
        // Semi-naive does strictly fewer derivations on a path.
        assert!(s2.derivations <= s1.derivations);
        assert!(s1.new_facts == s2.new_facts);
    }

    #[test]
    fn indexed_run_probes_instead_of_scanning() {
        // TC probes E on its leading column: the planner chooses the
        // merge join over sorted batches, never the hash index.
        let input = path(8);
        let mut db = Database::from_instance(&input);
        let s = fixpoint_seminaive(&tc(), &mut db);
        assert!(s.merge_probes > 0, "optimized run must merge-join");
        assert!(s.merge_hits > 0);
        assert_eq!(s.index_probes, 0, "leading-column probes never hash");
        assert!(s.bytes_moved > 0);
        // The baseline neither merges nor touches an index.
        let mut db2 = Database::from_instance(&input);
        let s2 = fixpoint_seminaive_with(&tc(), &mut db2, EvalOptions::BASELINE);
        assert_eq!(s2.index_probes, 0);
        assert_eq!(s2.index_hits, 0);
        assert_eq!(s2.merge_probes, 0);
        assert_eq!(s2.merge_hits, 0);
        assert_eq!(db.to_instance(), db2.to_instance());
    }

    #[test]
    fn non_leading_probe_takes_the_hash_path() {
        // F is probed at position 1 (y bound by E), so the planner falls
        // back to the hash index for it.
        let p = parse_program("O(x,y) :- E(x,y), F(z,y).").unwrap();
        let input = Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [3, 4]),
            fact("F", [7, 2]),
            fact("F", [8, 9]),
        ]);
        let mut db = Database::from_instance(&input);
        let s = fixpoint_seminaive(&p, &mut db);
        assert!(s.index_probes > 0, "non-leading probe must use the index");
        assert!(s.index_hits > 0);
        let out = db.to_instance();
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [1, 2])));
    }

    #[test]
    fn merge_join_matches_baseline_on_random_graphs() {
        // Differential: indexed (merge + hash) vs BASELINE (pure scans)
        // must derive the same instance on a spread of graph shapes.
        for n in [0, 1, 2, 5, 9] {
            for input in [path(n), calm_common::generator::cycle(n.max(1))] {
                let mut a = Database::from_instance(&input);
                fixpoint_seminaive(&tc(), &mut a);
                let mut b = Database::from_instance(&input);
                fixpoint_seminaive_with(&tc(), &mut b, EvalOptions::BASELINE);
                assert_eq!(a.to_instance(), b.to_instance(), "diverged at n={n}");
            }
        }
    }

    #[test]
    fn negation_against_edb() {
        let p = parse_program("O(x,y) :- E(x,y), not F(x,y).").unwrap();
        let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("F", [1, 2])]);
        let mut db = Database::from_instance(&input);
        fixpoint_seminaive(&p, &mut db);
        let out = db.to_instance();
        assert!(!out.contains(&fact("O", [1, 2])));
        assert!(out.contains(&fact("O", [2, 3])));
    }

    #[test]
    fn inequality_filtering() {
        let p = parse_program("O(x,y) :- E(x,y), x != y.").unwrap();
        let input = Instance::from_facts([fact("E", [1, 1]), fact("E", [1, 2])]);
        let mut db = Database::from_instance(&input);
        fixpoint_seminaive(&p, &mut db);
        let out = db.to_instance();
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [1, 2])));
    }

    #[test]
    fn constants_in_rules() {
        let p = parse_program("O(x) :- E(x, 3).").unwrap();
        let input = Instance::from_facts([fact("E", [1, 3]), fact("E", [2, 4])]);
        let mut db = Database::from_instance(&input);
        fixpoint_seminaive(&p, &mut db);
        assert_eq!(db.to_instance().relation_len("O"), 1);
    }

    #[test]
    fn cycle_tc_is_complete_graph() {
        let input = calm_common::generator::cycle(4);
        let mut db = Database::from_instance(&input);
        fixpoint_seminaive(&tc(), &mut db);
        assert_eq!(db.to_instance().relation_len("T"), 16);
    }

    #[test]
    fn derive_once_no_recursion() {
        let input = path(3);
        let db = Database::from_instance(&input);
        let out = derive_once(&tc(), &db);
        // Only the base rule fires (T empty in input db).
        assert_eq!(out.to_instance().relation_len("T"), 3);
    }

    #[test]
    fn empty_input_empty_output() {
        let mut db = Database::new();
        let stats = fixpoint_seminaive(&tc(), &mut db);
        assert!(db.is_empty());
        assert_eq!(stats.new_facts, 0);
    }

    #[test]
    fn body_valuations_enumerates_matches() {
        let r = crate::parser::parse_rule("O(x) :- E(x,y), not F(y), x != y.").unwrap();
        let db = Database::from_instance(&Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [3, 3]), // killed by x != y
            fact("E", [4, 5]),
            fact("F", [5]), // kills E(4,5)
        ]));
        let vals = body_valuations(&r, &db);
        assert_eq!(vals.len(), 1);
        let m = &vals[0];
        assert_eq!(m[&Var::new("x")], calm_common::v(1));
        assert_eq!(m[&Var::new("y")], calm_common::v(2));
    }

    /// Row-level (insertion-order) equality of two databases over
    /// *separately interned but identically constructed* symbol tables.
    fn assert_byte_identical(a: &Database, b: &Database) {
        assert_eq!(a.to_instance(), b.to_instance());
        let (sa, sb) = (a.storage(), b.storage());
        let ids: Vec<_> = sa.rel_ids().collect();
        assert_eq!(ids.len(), sb.rel_ids().count());
        for r in ids {
            let rows_a = sa.relation(r).map_or(&[][..], |rel| rel.rows());
            let rows_b = sb.relation(r).map_or(&[][..], |rel| rel.rows());
            assert_eq!(rows_a, rows_b, "insertion order diverged in relation {r:?}");
        }
    }

    #[test]
    fn parallel_fixpoint_is_byte_identical_to_sequential() {
        let input = calm_common::generator::cycle(12);
        let mut seq = Database::from_instance(&input);
        let m_seq = fixpoint_seminaive(&tc(), &mut seq);
        for threads in [2, 3, 8] {
            let mut par = Database::from_instance(&input);
            let m_par = fixpoint_seminaive_with(
                &tc(),
                &mut par,
                EvalOptions::default().with_eval_threads(threads),
            );
            assert_eq!(m_seq, m_par, "EvalMetrics diverged at T={threads}");
            assert_byte_identical(&seq, &par);
        }
    }

    #[test]
    fn parallel_fixpoint_matches_baseline_options_too() {
        // No indexes -> every unit is partitionable (no probe-path
        // exception); the scan-only driver must still be identical.
        let input = path(9);
        let mut seq = Database::from_instance(&input);
        let m_seq = fixpoint_seminaive_with(&tc(), &mut seq, EvalOptions::BASELINE);
        let mut par = Database::from_instance(&input);
        let m_par =
            fixpoint_seminaive_with(&tc(), &mut par, EvalOptions::BASELINE.with_eval_threads(8));
        assert_eq!(m_seq, m_par);
        assert_byte_identical(&seq, &par);
        assert_eq!(m_par.index_probes, 0);
    }

    #[test]
    fn parallel_fixpoint_with_negation_and_ineq() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- T(x,y), not F(x,y), x != y.",
        )
        .unwrap();
        let mut facts = vec![fact("F", [1, 3])];
        for i in 1..8 {
            facts.push(fact("E", [i, i + 1]));
        }
        let input = Instance::from_facts(facts);
        let mut seq = Database::from_instance(&input);
        let m_seq = fixpoint_seminaive(&p, &mut seq);
        let mut par = Database::from_instance(&input);
        let m_par =
            fixpoint_seminaive_with(&p, &mut par, EvalOptions::default().with_eval_threads(4));
        assert_eq!(m_seq, m_par);
        assert_byte_identical(&seq, &par);
        assert!(!par.to_instance().contains(&fact("O", [1, 3])));
    }

    #[test]
    fn eval_threads_zero_is_clamped_to_sequential() {
        assert_eq!(EvalOptions::default().with_eval_threads(0).eval_threads, 1);
        let mut cp_db = Database::from_instance(&path(4));
        let mut cp = CompiledProgram::new(
            &tc(),
            &mut cp_db.symbols().clone().write(),
            EvalOptions::default(),
        );
        cp.set_eval_threads(0);
        assert_eq!(cp.eval_threads(), 1);
        fixpoint_seminaive_compiled(&cp, &mut cp_db);
        assert_eq!(cp_db.to_instance().relation_len("T"), 10);
    }

    #[test]
    fn multiple_recursive_atoms_in_one_rule() {
        // Reachability by doubling: D(x,z) :- D(x,y), D(y,z).
        let p = parse_program(
            "D(x,y) :- E(x,y).\n\
             D(x,z) :- D(x,y), D(y,z).",
        )
        .unwrap();
        let input = path(6);
        let mut db = Database::from_instance(&input);
        fixpoint_seminaive(&p, &mut db);
        assert_eq!(db.to_instance().relation_len("D"), 21); // 6+5+..+1
    }
}
