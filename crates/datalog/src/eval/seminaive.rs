//! Fixpoint evaluation of semi-positive programs: planned semi-naive.
//!
//! It computes the minimal fixpoint of the immediate consequence operator
//! `T_P` (Section 2). Negative atoms are only consulted against relations
//! that are fixed during the fixpoint (edb or lower strata), which the
//! stratified driver guarantees.
//!
//! Evaluation runs entirely over the shared substrate
//! ([`calm_common::storage`]) and through the one join kernel
//! (`eval/join.rs`): round 0 walks every rule's body path, a delta
//! round walks, per recursive atom, the path seeded at that atom from
//! the rows past its relation's watermark (no second store, no
//! copying), and the hash indexes those paths probe are built once
//! before the loop and maintained incrementally on insert — nothing is
//! rebuilt per iteration.
//!
//! # One round loop, data-parallel at T > 1
//!
//! Every round is split into `EvalJob`s — one path of one rule, and
//! with [`EvalOptions::eval_threads`] > 1 one contiguous chunk of its
//! *outermost* scan (the seeding delta rows, or the leading scan of a
//! body path) — and run by `min(eval_threads, jobs)` workers sharing the
//! storage read-only: the calling thread, plus scoped threads
//! (`std::thread::scope`) when there is more than one. Each job appends
//! to a private derivation buffer and fills its own [`EvalMetrics`]
//! block under its rule's `eval.rule` span; after the round the buffers
//! are inserted, and the blocks merged, in job order (rule index, then
//! delta position, then partition index), the order one thread walks
//! them in. Because the chunks partition the same outer scan, every
//! counter is a sum over the same event multiset, so the derived
//! database **and** the metrics are byte-identical at any thread count.
//! The one exception guarded by the planner: a body path that starts
//! with a probe or a lookup performs exactly one, so such a unit is
//! never split (splitting would multiply `index_probes`).

use super::compile::{compile_rule, Access, AccessPath, CompiledAtom, CompiledRule};
use super::database::Database;
use super::join::{instantiate, Join, View};
use crate::ast::{Rule, Var};
use crate::program::Program;
use calm_common::fact::RelName;
use calm_common::storage::{RelId, Rows, Storage, Sym, SymTuple, SymbolTable};
use calm_obs::Obs;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

pub use calm_common::storage::EvalMetrics;

/// Evaluation options: the data-parallel driver knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Worker threads for the semi-naive rounds; 1 (the default)
    /// runs every job on the calling thread. Any value produces a
    /// byte-identical database and [`EvalMetrics`] — see the module
    /// docs on deterministic merging.
    pub eval_threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { eval_threads: 1 }
    }
}

impl EvalOptions {
    /// The same options with `eval_threads` set to `max(n, 1)`.
    #[must_use]
    pub fn with_eval_threads(mut self, n: usize) -> Self {
        self.eval_threads = n.max(1);
        self
    }
}

fn compile_program(program: &Program, table: &mut SymbolTable, reorder: bool) -> Vec<CompiledRule> {
    let idb: BTreeSet<RelName> = program.idb().names().cloned().collect();
    program
        .rules()
        .iter()
        .map(|r| compile_rule(r, table, |rel| idb.contains(rel), reorder))
        .collect()
}

/// Walk `rule`'s body path over `storage` (negation against `neg`),
/// passing the head of every valuation to `emit` through one reused
/// buffer.
fn derive_rule(
    rule: &CompiledRule,
    storage: &Storage,
    neg: &Storage,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(RelId, &[Sym]),
) {
    let mut join = Join::new(rule, &rule.paths.body, storage, neg, View::New);
    let mut head = SymTuple::new();
    join.all(None, &mut |b| {
        instantiate(&rule.head, b, &mut head);
        emit(rule.head.relation, &head);
        true
    });
    join.tally(metrics);
}

/// A semi-positive program compiled once against a symbol table, for
/// repeated fixpoint evaluation. [`crate::query::DatalogQuery`] holds one
/// per stratum: the monotonicity falsifiers evaluate the same query
/// thousands of times, and per-eval recompilation dominates small inputs.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    rules: Vec<CompiledRule>,
    /// The hash indexes the fixpoint's own paths probe.
    indexes: Vec<(RelId, usize)>,
    pub(crate) options: EvalOptions,
    /// Per-rule span labels (`<head-relation>#<rule-index>`), computed at
    /// compile time so tracing never consults the symbol table.
    labels: Vec<String>,
    /// One description per path the fixpoint runs (atom order and access
    /// per atom), rendered at compile time for `--dump-plan`.
    plan: Vec<String>,
    /// Positive atoms on those paths per access: `[probe, lookup, scan]`
    /// counts, reported as `eval.plan` counters.
    access_counts: [usize; 3],
}

impl CompiledProgram {
    /// Compile `program` against `table` with the given options.
    pub fn new(
        program: &Program,
        table: &mut SymbolTable,
        options: EvalOptions,
    ) -> CompiledProgram {
        let rules = compile_program(program, table, true);
        let labels: Vec<String> = rules
            .iter()
            .enumerate()
            .map(|(i, r)| format!("{}#{i}", table.rel_name(r.head.relation)))
            .collect();
        let mut indexes = BTreeSet::new();
        let mut access_counts = [0usize; 3];
        let mut plan = Vec::new();
        for (rule, label) in rules.iter().zip(&labels) {
            let name = |a: &CompiledAtom| table.rel_name(a.relation);
            for (seed, path) in rule.fixpoint_paths() {
                indexes.extend(rule.probed([path]));
                let mut parts: Vec<String> = (seed.iter())
                    .map(|&i| format!("{}[delta]", name(&rule.pos[i])))
                    .collect();
                for step in &path.steps {
                    let (kind, tag) = match step.access {
                        Access::Probe(col) => (0, format!("probe@{col}")),
                        Access::Lookup => (1, "lookup".into()),
                        Access::Scan => (2, "scan".into()),
                    };
                    access_counts[kind] += 1;
                    parts.push(format!("{}[{tag}]", name(&rule.pos[step.atom])));
                }
                parts.extend(rule.neg.iter().map(|a| format!("not {}[lookup]", name(a))));
                plan.push(format!("{label}: {}", parts.join(", ")));
            }
        }
        CompiledProgram {
            rules,
            indexes: indexes.into_iter().collect(),
            options,
            labels,
            plan,
            access_counts,
        }
    }

    /// What the kernel will run, one line per path: for every rule its
    /// round-0 body path, then one line per delta seed (`R[delta]`
    /// first); each atom is tagged `probe@c`, `lookup` or `scan`.
    pub fn plan_lines(&self) -> &[String] {
        &self.plan
    }

    /// Set the data-parallel worker count for subsequent fixpoints.
    /// Thread count is a pure driver knob — it never affects
    /// compilation, and any value yields byte-identical results.
    pub fn set_eval_threads(&mut self, n: usize) {
        self.options.eval_threads = n.max(1);
    }

    /// The compiled rules — incremental maintenance joins along their
    /// seeded paths.
    pub(crate) fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }
}

/// The fixpoint of a precompiled program. `db` must use the table the
/// program was compiled against.
pub fn fixpoint_seminaive_compiled(cp: &CompiledProgram, db: &mut Database) -> EvalMetrics {
    fixpoint(cp, db.storage_mut(), None, None, &Obs::noop())
}

/// Row ids per relation: the rows a round seeds its delta paths from —
/// a signed change set carried across strata, or what one round
/// inserted.
pub(crate) type Ids = HashMap<RelId, Vec<u32>>;

/// One unit of evaluation work inside a fixpoint round: one path of a
/// rule — its body path, or a path seeded at one atom from `seeds`, rows
/// of the atom's relation — over an optional contiguous `[start, end)`
/// slice of its outermost scan.
///
/// The planner emits jobs in sequential evaluation order (rule index,
/// then delta position, then partition index); merging worker buffers
/// in job order therefore reproduces the exact sequential emission
/// order — see the module docs.
#[derive(Debug, Clone, Copy)]
struct EvalJob<'d> {
    rule: usize,
    path: &'d AccessPath,
    seeds: Option<(RelId, &'d [u32])>,
    range: Option<(usize, usize)>,
}

/// Plan the jobs for one unit — `job` with no range: a single
/// unpartitioned job when partitioning is pointless or would change the
/// metrics (a body path that does not start with a scan), otherwise
/// `min(threads, rows)` contiguous chunks of the outermost scan whose
/// sizes differ by at most one.
fn plan_unit<'d>(
    jobs: &mut Vec<EvalJob<'d>>,
    job: EvalJob<'d>,
    rule: &CompiledRule,
    storage: &Storage,
    threads: usize,
) {
    let scan_len = (|| {
        if threads <= 1 {
            return None;
        }
        let len = match job.seeds {
            Some((_, ids)) => ids.len(),
            None => {
                // A leading probe is a single event: splitting the
                // unit would issue one per partition and break the
                // metrics byte-identity guarantee. Keep such units
                // whole.
                let first = rule.paths.body.steps.first()?;
                if first.access != Access::Scan {
                    return None;
                }
                storage
                    .relation(rule.pos[first.atom].relation)?
                    .rows()
                    .len()
            }
        };
        (len >= 2).then_some(len)
    })();
    match scan_len {
        None => jobs.push(job),
        Some(len) => {
            let parts = threads.min(len);
            let (base, rem) = (len / parts, len % parts);
            let mut start = 0;
            for p in 0..parts {
                let end = start + base + usize::from(p < rem);
                let range = Some((start, end));
                jobs.push(EvalJob { range, ..job });
                start = end;
            }
        }
    }
}

/// Run one job, appending every derived row to `sink` — stored or not:
/// the insert is the round's dedup.
fn run_job(
    cp: &CompiledProgram,
    job: &EvalJob<'_>,
    (storage, neg): (&Storage, &Storage),
    metrics: &mut EvalMetrics,
    sink: &mut Rows,
) {
    let rule = &cp.rules[job.rule];
    let mut head = SymTuple::new();
    let mut emit = |b: &[Sym]| {
        instantiate(&rule.head, b, &mut head);
        sink.push(rule.head.relation, &head);
        true
    };
    let mut join = Join::new(rule, job.path, storage, neg, View::New);
    match job
        .seeds
        .and_then(|(r, ids)| Some((storage.relation(r)?, ids)))
    {
        None => {
            join.all(job.range, &mut emit);
        }
        Some((relation, ids)) => {
            let (start, end) = job.range.unwrap_or((0, ids.len()));
            for &id in &ids[start..end] {
                join.seeded(relation.row(id), &mut emit);
            }
        }
    }
    join.tally(metrics);
}

/// Execute one round's jobs into `bufs`, whose concatenation is the
/// round's derivations in job order. `min(eval_threads, jobs)` workers
/// take the jobs from a shared queue — one worker is the calling thread,
/// so T=1 spawns none — and run each under its rule's `eval.rule` span,
/// into a private [`EvalMetrics`] block and a buffer: the worker's last
/// one when the job follows the one it ran before, else one from the
/// pool of `bufs` (the insert empties them and hands them back), so at
/// T=1 a round fills one buffer. The blocks are merged, and one
/// `eval.rule` counter per rule reported, in job order.
fn run_round(
    cp: &CompiledProgram,
    over: (&Storage, &Storage),
    jobs: &[EvalJob<'_>],
    bufs: &mut Vec<Rows>,
    metrics: &mut EvalMetrics,
    obs: &Obs,
) {
    let workers = cp.options.eval_threads.min(jobs.len());
    if cp.options.eval_threads > 1 {
        obs.counter("eval.parallel", "partitions", jobs.len() as u64);
        obs.counter("eval.parallel", "workers", workers as u64);
    }
    let mut blocks = vec![EvalMetrics::default(); jobs.len()];
    let pool = Mutex::new(&mut *bufs);
    let queue = Mutex::new(jobs.iter().zip(&mut blocks).enumerate());
    // A worker's buffers, each with the index of its first job.
    let work = || {
        let (mut filled, mut follows) = (Vec::<(usize, Rows)>::new(), None);
        loop {
            let next = queue.lock().expect("eval job queue").next();
            let Some((j, (job, block))) = next else {
                return filled;
            };
            if follows != Some(j) {
                let buf = pool.lock().expect("eval buffer pool").pop();
                filled.push((j, buf.unwrap_or_default()));
            }
            follows = Some(j + 1);
            let _rule_span = obs.span("eval.rule", || cp.labels[job.rule].clone());
            let (_, buf) = filled.last_mut().expect("pushed");
            run_job(cp, job, over, block, buf);
        }
    };
    let mut filled = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut filled = work();
        for helper in helpers {
            filled.extend(helper.join().expect("eval worker panicked"));
        }
        filled
    });
    // What is left in the pool is empty; the filled buffers follow, in job order.
    filled.sort_unstable_by_key(|&(first, _)| first);
    bufs.extend(filled.into_iter().map(|(_, buf)| buf));
    let mut rule_derivations = 0;
    for (j, (job, block)) in jobs.iter().zip(&blocks).enumerate() {
        rule_derivations += block.derivations;
        metrics.merge(block);
        // One `eval.rule` counter per rule, at its last job.
        if jobs.get(j + 1).is_none_or(|next| next.rule != job.rule) {
            obs.counter("eval.rule", &cp.labels[job.rule], rule_derivations as u64);
            rule_derivations = 0;
        }
    }
}

/// The full form of [`fixpoint_seminaive_compiled`], over the rows of
/// `db`. With `frozen` (over `db`'s table), every negative body atom is
/// checked against it instead — the `Γ` operator of the well-founded
/// alternating fixpoint ([`crate::wellfounded`]). With `seeds = (pos,
/// neg)`, `db` is the fixpoint but for the rows of `pos` (entered) and
/// `neg` (entered or left a relation read under negation), and round 0
/// seeds every atom from them instead of walking the body paths:
/// maintenance's insert step, of which a session's insert-only step is the whole
/// ([`crate::eval::incremental`]). Spans and counters go to `obs`.
pub(crate) fn fixpoint(
    cp: &CompiledProgram,
    db: &mut Storage,
    frozen: Option<&Storage>,
    seeds: Option<(&Ids, &Ids)>,
    obs: &Obs,
) -> EvalMetrics {
    // A fixpoint from scratch runs over compacted stores: round 0 scans
    // the raw insertion log, tombstones included. A caller that retracts
    // must compact first (the update drivers do, at every batch boundary
    // and before a maintenance fallback) — fail in tests rather than
    // join against dead rows.
    debug_assert!(
        seeds.is_some() || (!db.any_dead() && !frozen.is_some_and(Storage::any_dead)),
        "fixpoint over an uncompacted store: compact_retractions() first"
    );
    let threads = cp.options.eval_threads.max(1);
    // Build the probed indexes once; inserts keep them current, so the
    // fixpoint loop below never rebuilds an index.
    for &(rel, col) in &cp.indexes {
        db.relation_mut(rel).ensure_index(col);
    }
    if obs.enabled() {
        let [probe, lookup, scan] = cp.access_counts;
        obs.counter("eval.plan", "atoms.probe", probe as u64);
        obs.counter("eval.plan", "atoms.lookup", lookup as u64);
        obs.counter("eval.plan", "atoms.scan", scan as u64);
    }
    let mut metrics = EvalMetrics::default();
    let mut pending: Vec<Rows> = Vec::new();
    let (none, mut inserted) = (Ids::new(), Ids::new());
    loop {
        // From scratch, round 0 walks every rule's body path once: this
        // covers non-recursive rules completely (their inputs never
        // change within this stratum) and seeds the delta for recursive
        // ones. Every other round seeds one path per atom whose relation
        // has rows in the delta — after round 0, the stratum's own heads.
        // A row derived at several delta positions, or already stored, is
        // dropped by the insert.
        let first = metrics.iterations == 0;
        metrics.iterations += 1;
        let iter = metrics.iterations - 1;
        let _iter_span = obs.span("eval", || format!("iteration#{iter}"));
        {
            let storage = &*db;
            let (pos, neg) = match seeds {
                Some(seeds) if first => seeds,
                _ => (&inserted, &none),
            };
            let mut jobs = Vec::new();
            for (i, rule) in cp.rules.iter().enumerate() {
                let job = |path, seeds| EvalJob {
                    rule: i,
                    path,
                    seeds,
                    range: None,
                };
                if first && seeds.is_none() {
                    let body = job(&rule.paths.body, None);
                    plan_unit(&mut jobs, body, rule, storage, threads);
                    continue;
                }
                let at_pos = rule.pos.iter().zip(&rule.paths.pos).map(|p| (p, pos));
                let at_neg = rule.neg.iter().zip(&rule.paths.neg).map(|n| (n, neg));
                for ((atom, path), delta) in at_pos.chain(at_neg) {
                    if let Some(ids) = delta.get(&atom.relation).filter(|ids| !ids.is_empty()) {
                        let job = job(path, Some((atom.relation, &ids[..])));
                        plan_unit(&mut jobs, job, rule, storage, threads);
                    }
                }
            }
            let over = (storage, frozen.unwrap_or(storage));
            run_round(cp, over, &jobs, &mut pending, &mut metrics, obs);
        }
        // The insert is the round's only membership test. What it added
        // to a relation the rules read — a new row, or one revived in
        // place where the store holds tombstones — is the next round's
        // delta.
        let _merge_span = obs.span("eval", || "merge".into());
        inserted.values_mut().for_each(Vec::clear);
        let mut added = 0;
        for buf in &mut pending {
            for (rel, rows) in buf.runs() {
                let read = (cp.rules.iter()).any(|r| r.pos.iter().any(|a| a.relation == rel));
                let ids = inserted.entry(rel).or_default();
                for row in rows {
                    if let Some(id) = db.insert_id(rel, row) {
                        if read {
                            ids.push(id);
                        }
                        added += 1;
                        metrics.bytes_moved += std::mem::size_of_val(row);
                    }
                }
            }
            buf.clear();
        }
        metrics.new_facts += added;
        if obs.enabled() {
            obs.histogram("eval", "iteration_new_facts", added as u64);
        }
        if added == 0 {
            obs.counter("eval", "derivations", metrics.derivations as u64);
            obs.counter("eval", "new_facts", metrics.new_facts as u64);
            obs.counter("eval", "iterations", metrics.iterations as u64);
            obs.counter("eval", "index_probes", metrics.index_probes as u64);
            return metrics;
        }
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
        emit: &mut impl FnMut(RelId, &[Sym]),
    ) {
        for rule in &self.compiled {
            derive_rule(rule, db.storage(), db.storage(), metrics, emit);
        }
    }
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
        let compiled = compile_rule(&synthetic, table, |_| false, false);
        ValuationQuery { vars, compiled }
    }

    /// The body variables, in the order of each valuation row.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Enumerate every satisfying valuation of the body against `db`
    /// (negation also checked against `db`), deduplicated and in
    /// deterministic (interning) order.
    pub fn eval(&self, db: &Database, metrics: &mut EvalMetrics) -> BTreeSet<SymTuple> {
        let mut out = BTreeSet::new();
        derive_rule(
            &self.compiled,
            db.storage(),
            db.storage(),
            metrics,
            &mut |_, row| {
                if !out.contains(row) {
                    out.insert(row.to_vec());
                }
            },
        );
        out
    }
}

/// Compile `program` with `options` against `db`'s table and run its
/// fixpoint over `db`: the unit tests' shorthand.
#[cfg(test)]
pub(crate) fn fixpoint_with(
    program: &Program,
    db: &mut Database,
    options: EvalOptions,
) -> EvalMetrics {
    let cp = CompiledProgram::new(program, &mut db.symbols().clone().write(), options);
    fixpoint_seminaive_compiled(&cp, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use calm_common::fact::fact;
    use calm_common::generator::path;
    use calm_common::instance::Instance;

    fn fixpoint_seminaive(program: &Program, db: &mut Database) -> EvalMetrics {
        fixpoint_with(program, db, EvalOptions::default())
    }

    fn tc() -> Program {
        parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap()
    }

    #[test]
    fn tc_on_path_derives_each_pair_once() {
        // Path with 5 edges: TC has 5+4+3+2+1 = 15 pairs. Left-linear
        // semi-naive derives each of them once — round k extends the
        // paths of length k by one edge — and a sixth round finds
        // nothing new.
        let mut db = Database::from_instance(&path(5));
        let s = fixpoint_seminaive(&tc(), &mut db);
        assert_eq!(db.to_instance().relation_len("T"), 15);
        assert_eq!((s.iterations, s.derivations, s.new_facts), (6, 15, 15));
    }

    #[test]
    fn indexed_run_probes_instead_of_scanning() {
        // Left-linear TC: round 0 probes E once per T row (T is empty),
        // every delta round once per new T row — and every valuation
        // of the recursive rule is a probe hit.
        let input = path(8);
        let mut db = Database::from_instance(&input);
        let s = fixpoint_seminaive(&tc(), &mut db);
        assert_eq!(s.index_probes, s.new_facts);
        assert_eq!(s.index_hits, s.derivations - 8);
        assert_eq!((s.merge_probes, s.merge_hits), (0, 0));
        assert!(s.bytes_moved > 0);
    }

    #[test]
    fn plan_builds_exactly_the_indexes_the_fixpoint_paths_probe() {
        // F is probed at column 1 (y bound by E); a fully bound atom is
        // a lookup and needs no index at all.
        let p = parse_program("O(x,y) :- E(x,y), F(z,y).\nS(x) :- E(x,y), E(y,x).").unwrap();
        let input = Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [2, 1]),
            fact("E", [3, 4]),
            fact("F", [7, 2]),
            fact("F", [8, 9]),
        ]);
        let mut db = Database::from_instance(&input);
        let s = fixpoint_seminaive(&p, &mut db);
        assert_eq!(s.index_probes, 3, "one probe of F per E row");
        assert_eq!(s.index_hits, 1);
        let out = db.to_instance();
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [1, 2])));
        assert_eq!(out.relation_len("S"), 2);
        let table = db.symbols().read();
        let (e, f) = (
            table.lookup_rel("E").unwrap(),
            table.lookup_rel("F").unwrap(),
        );
        let s2 = table.lookup_sym(&calm_common::v(2)).unwrap();
        let rel = |r| db.storage().relation(r).unwrap();
        assert!(rel(f).probe(1, s2).is_some());
        assert!(rel(f).probe(0, s2).is_none());
        assert!(rel(e).probe(0, s2).is_none() && rel(e).probe(1, s2).is_none());
    }

    /// A ring through `0..n` plus the chords `i → (7i + 3) mod n`.
    fn ring_with_chords(n: i64) -> Instance {
        let ring = (0..n).map(|i| fact("E", [i, (i + 1) % n]));
        let chords = (0..n).map(|i| fact("E", [i, (7 * i + 3) % n]));
        Instance::from_facts(ring.chain(chords))
    }

    /// The kernel seeds a delta round from the delta and probes the
    /// rest: on a closure rule of two binary atoms every valuation of
    /// the recursive rule is a probe hit (nothing is found by scanning
    /// a full relation), and each delta row costs one probe per seed
    /// position.
    fn check_delta_rounds_probe(rule: &str, seeds: usize, round0_probes_per_edge: usize) {
        let p = parse_program(&format!("T(x,y) :- E(x,y).\n{rule}")).unwrap();
        let input = ring_with_chords(200);
        let edges = input.relation_len("E");
        let mut db = Database::from_instance(&input);
        let m = fixpoint_seminaive(&p, &mut db);
        assert_eq!(db.to_instance().relation_len("T"), 200 * 200);
        assert_eq!(m.new_facts, 200 * 200);
        // Every new fact is a delta row exactly once per seed position.
        let round0 = round0_probes_per_edge * edges;
        assert_eq!(m.index_probes, round0 + seeds * m.new_facts, "{rule}");
        assert_eq!(m.index_hits, m.derivations - edges, "{rule}");
        assert!(m.index_probes <= 2 * (m.new_facts + m.index_hits), "{rule}");
        // The same counters at any thread count.
        let mut par = Database::from_instance(&input);
        let options = EvalOptions::default().with_eval_threads(4);
        assert_eq!(fixpoint_with(&p, &mut par, options), m, "{rule}");
    }

    #[test]
    fn kernel_probes_from_the_delta_on_a_right_linear_rule() {
        // Round 0 probes the (empty) T once per edge.
        check_delta_rounds_probe("T(x,z) :- E(x,y), T(y,z).", 1, 1);
    }

    #[test]
    fn kernel_probes_from_the_delta_on_a_doubling_rule() {
        // Round 0 scans the (empty) T; each delta row seeds both atoms.
        check_delta_rounds_probe("T(x,z) :- T(x,y), T(y,z).", 2, 0);
    }

    /// FNV-1a over the rows of relation `name` in row-id order, as the
    /// values they stand for.
    fn row_order_digest(db: &Database, name: &str) -> u64 {
        let table = db.symbols().read();
        let rel = (db.storage().relation(table.lookup_rel(name).unwrap())).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for id in rel.rows() {
            for &s in rel.row(id) {
                for b in format!("{},", table.value(s)).bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn the_insert_drops_the_duplicate_derivations_of_the_doubling_rule() {
        // Most valuations of `T(x,y), T(y,z)` re-derive a stored pair;
        // no membership test precedes the insert, so every one is
        // buffered and `insert_batch` drops it. What is stored, its
        // row ids and the counters do not depend on that, nor on the
        // thread count (1 here, then 2 and 8): the digest pins the row
        // order the fixpoint had when a pre-insert membership test
        // dropped re-derivations.
        let p = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).").unwrap();
        let input = ring_with_chords(200);
        let mut seq = Database::from_instance(&input);
        let m = fixpoint_seminaive(&p, &mut seq);
        assert_eq!(m.new_facts, 200 * 200);
        assert_eq!(m.bytes_moved, m.new_facts * 2 * std::mem::size_of::<Sym>());
        assert!(
            m.derivations > 4 * m.new_facts,
            "{} derivations for {} facts",
            m.derivations,
            m.new_facts
        );
        assert_eq!(row_order_digest(&seq, "T"), 0xfb47_cee2_dd25_0abd);
        for threads in [2, 8] {
            let mut par = Database::from_instance(&input);
            let options = EvalOptions::default().with_eval_threads(threads);
            assert_eq!(fixpoint_with(&p, &mut par, options), m, "T={threads}");
            assert_byte_identical(&seq, &par);
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
    fn rule_set_derives_once_without_recursion() {
        let db = Database::from_instance(&path(3));
        let rules = RuleSet::new(&tc(), &mut db.symbols().clone().write());
        let mut out = Database::with_symbols(db.symbols().clone());
        rules.derive(&db, &mut EvalMetrics::default(), &mut |rel, row| {
            out.storage_mut().insert(rel, row);
        });
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
    fn valuation_query_enumerates_matches() {
        let r = crate::parser::parse_rule("O(x) :- E(x,y), not F(y), x != y.").unwrap();
        let db = Database::from_instance(&Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [3, 3]), // killed by x != y
            fact("E", [4, 5]),
            fact("F", [5]), // kills E(4,5)
        ]));
        let q = ValuationQuery::new(&r, &mut db.symbols().clone().write());
        assert_eq!(q.vars(), [Var::new("x"), Var::new("y")]);
        let rows = q.eval(&db, &mut EvalMetrics::default());
        let table = db.symbols().read();
        let values: Vec<Vec<_>> = (rows.iter())
            .map(|row| row.iter().map(|&s| table.value(s).clone()).collect())
            .collect();
        assert_eq!(values, [[calm_common::v(1), calm_common::v(2)]]);
    }

    /// Row-level (insertion-order) equality of two databases over
    /// *separately interned but identically constructed* symbol tables.
    fn assert_byte_identical(a: &Database, b: &Database) {
        assert_eq!(a.to_instance(), b.to_instance());
        let (sa, sb) = (a.storage(), b.storage());
        let ids: Vec<_> = sa.rel_ids().collect();
        assert_eq!(ids.len(), sb.rel_ids().count());
        for r in ids {
            let (ra, rb) = (sa.relation(r).unwrap(), sb.relation(r).unwrap());
            assert_eq!(ra.rows(), rb.rows(), "row count diverged in relation {r:?}");
            for id in ra.rows() {
                assert_eq!(ra.row(id), rb.row(id), "row {id} diverged in {r:?}");
            }
        }
    }

    #[test]
    fn parallel_fixpoint_is_byte_identical_to_sequential() {
        let input = calm_common::generator::cycle(12);
        let mut seq = Database::from_instance(&input);
        let m_seq = fixpoint_seminaive(&tc(), &mut seq);
        for threads in [2, 3, 8] {
            let mut par = Database::from_instance(&input);
            let m_par = fixpoint_with(
                &tc(),
                &mut par,
                EvalOptions::default().with_eval_threads(threads),
            );
            assert_eq!(m_seq, m_par, "EvalMetrics diverged at T={threads}");
            assert_byte_identical(&seq, &par);
        }
    }

    /// What a fixpoint reported, in report order: every span as
    /// `cat/name`, every counter report as `(cat/name, delta)`.
    #[derive(Default)]
    struct Capture {
        spans: Mutex<Vec<String>>,
        counters: Mutex<Vec<(String, u64)>>,
    }

    impl calm_obs::Sink for Capture {
        fn span(&self, cat: &str, name: &str, _: u32, _: u64, _: u64) {
            self.spans.lock().unwrap().push(format!("{cat}/{name}"));
        }
        fn event(&self, _: &str, _: &str, _: u32, _: u64, _: &[(&str, calm_obs::ArgValue)]) {}
        fn counter(&self, cat: &str, name: &str, _: u64, delta: u64) {
            self.counters
                .lock()
                .unwrap()
                .push((format!("{cat}/{name}"), delta));
        }
        fn gauge(&self, _: &str, _: &str, _: u32, _: u64, _: u64) {}
        fn histogram(&self, _: &str, _: &str, _: u64) {}
    }

    /// The closure of a 12-ring at `threads`: the database, its metrics,
    /// and the spans and counter reports (`cat/name` under `prefix`).
    fn captured_tc(threads: usize, prefix: &str) -> (Database, EvalMetrics, Capture) {
        let mut db = Database::from_instance(&calm_common::generator::cycle(12));
        let options = EvalOptions::default().with_eval_threads(threads);
        let cp = CompiledProgram::new(&tc(), &mut db.symbols().clone().write(), options);
        let sink = std::sync::Arc::new(Capture::default());
        let metrics = fixpoint(&cp, db.storage_mut(), None, None, &Obs::new(sink.clone()));
        let capture = std::sync::Arc::into_inner(sink).expect("one handle");
        capture
            .spans
            .lock()
            .unwrap()
            .retain(|s| s.starts_with(prefix));
        capture
            .counters
            .lock()
            .unwrap()
            .retain(|(c, _)| c.starts_with(prefix));
        (db, metrics, capture)
    }

    #[test]
    fn parallel_round_spawns_at_most_one_worker_per_job() {
        let (seq, m_seq, _) = captured_tc(1, "");
        for threads in [2, 50_000] {
            let (par, m_par, capture) = captured_tc(threads, "eval.parallel/");
            assert_eq!(m_seq, m_par, "EvalMetrics diverged at T={threads}");
            assert_byte_identical(&seq, &par);
            // One `partitions` then one `workers` report per round.
            let counters = capture.counters.into_inner().unwrap();
            assert_eq!(counters.len(), 2 * m_par.iterations);
            for round in counters.chunks(2) {
                let [(p, jobs), (w, workers)] = round else {
                    unreachable!()
                };
                assert!(p.ends_with("/partitions") && w.ends_with("/workers"));
                assert_eq!(*workers, (*jobs).min(threads as u64), "T={threads}");
            }
        }
    }

    #[test]
    fn every_thread_count_reports_the_rule_spans_and_counters_of_one() {
        // The set of `eval.rule/*` spans, and the per-rule counter totals.
        let rules = |threads| {
            let (_, metrics, capture) = captured_tc(threads, "eval.rule/");
            let names: BTreeSet<String> = capture.spans.into_inner().unwrap().into_iter().collect();
            let mut totals = std::collections::BTreeMap::new();
            for (rule, delta) in capture.counters.into_inner().unwrap() {
                *totals.entry(rule).or_insert(0) += delta;
            }
            assert_eq!(totals.values().sum::<u64>(), metrics.derivations as u64);
            (names, totals)
        };
        let one = rules(1);
        assert_eq!(
            one.0,
            BTreeSet::from(["eval.rule/T#0".into(), "eval.rule/T#1".into()])
        );
        for threads in [2, 8] {
            assert_eq!(rules(threads), one, "T={threads}");
        }
    }

    #[test]
    fn every_round_spans_its_merge() {
        let (_, metrics, capture) = captured_tc(1, "eval/merge");
        assert_eq!(
            capture.spans.into_inner().unwrap().len(),
            metrics.iterations
        );
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
        let m_par = fixpoint_with(&p, &mut par, EvalOptions::default().with_eval_threads(4));
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
        assert_eq!(cp.options.eval_threads, 1);
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
