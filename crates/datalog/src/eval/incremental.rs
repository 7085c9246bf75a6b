//! Incremental view maintenance with retractions: DRed
//! (delete–rederive) over compiled stratified programs.
//!
//! [`apply_update_rows`] takes a materialized [`Storage`] (the
//! fixpoint of some stratified program over its old EDB), a signed
//! change in rows and the per-stratum [`CompiledProgram`]s, and
//! maintains the database *in place*. The
//! contract is differential: after any interleaving of batches, the
//! database holds exactly the facts a from-scratch evaluation of the
//! final EDB would produce.
//!
//! # Why DRed and not pure counting
//!
//! The substrate keeps a tombstone bit per row
//! ([`calm_common::storage::Relation::is_live`]), not a count: our
//! semi-naive engine is *set-semantic*: delta rounds place the delta at
//! one body position at a time while the other positions range over
//! the full store, so a derivation touching two delta tuples is
//! enumerated twice, and re-derivations of already-present facts are
//! dropped by the insert without being counted.
//! Exact derivation multiplicities are therefore not recoverable from
//! the fixpoint, and counting-only maintenance would either under- or
//! over-delete. Deletion runs the
//! classic three-phase DRed instead — which is also the only sound
//! choice once stratified negation is involved:
//!
//! 1. **Overdelete**: every derivation over the *old* view that
//!    touched a removed tuple (positive atom) or a newly added tuple
//!    (negative atom) has its head scheduled, transitively within the
//!    stratum (in-stratum recursion is purely positive — stratified
//!    negation only looks down); the scheduled rows are then
//!    tombstoned.
//! 2. **Rederive**: each overdeleted tuple is kept deleted only if no
//!    rule re-derives it from the surviving facts (head-bound backward
//!    check, then forward propagation of the revivals).
//! 3. **Insert**: new derivations from added tuples (positive atoms)
//!    and removed tuples (negative atoms) are propagated semi-naively
//!    with explicit deltas.
//!
//! Strata are processed in order; each stratum's net changes join the
//! signed change sets consumed by the strata above it.
//!
//! # The fixpoint's kernel, by row id
//!
//! Every join of every phase runs through the kernel the fixpoint uses
//! (`eval/join.rs`) along the seeded access paths the rule compiler
//! planned ([`super::compile::RulePaths`]): the seeded atom first, then
//! an index probe (or, fully bound, a membership lookup) per remaining
//! atom; [`MaintenancePlan`] is the set of hash indexes those paths
//! probe beyond the fixpoint's own. The two views are filters on the
//! probed row ids, not copies: the batch starts compacted and moves
//! every watermark once, a retraction leaves a tombstone whose id the
//! indexes keep, and new rows are appended — so the *new* view is
//! "live" and the *old* view is "below the watermark"
//! ([`Relation::live_at_mark`]). Changed, overdeleted and revived
//! tuples are `u32` row ids throughout; only a tuple that does not
//! exist yet (phase 3) is ever materialized.
//!
//! # The re-evaluation guard
//!
//! DRed's cost follows the overdeleted set, and on a dense recursive
//! view a few deleted edges overdelete almost everything — several
//! times the work of evaluating the stratum again. While a stratum is
//! being overdeleted (nothing in it has been mutated yet), the number
//! of scheduled rows is compared with [`fallback_limit`] of the
//! stratum's live head rows; past it, maintenance stops, compacts the
//! tombstones below, clears the head relations of this stratum and
//! every one above, and re-runs their fixpoints over the already
//! maintained lower strata. The same limit is applied to the
//! stratum's inputs before any work is done: when the changes below
//! have already rewritten more than that share of a relation the
//! stratum reads, overdeleting a quarter of the view only to abandon
//! it is skipped. No diff is computed for the re-evaluated strata:
//! change sets only feed the strata above, and all of those are
//! re-evaluated too.
//!
//! Maintenance is sequential (the fallback fixpoints run at the
//! program's `eval_threads`); the from-scratch fixpoint is
//! byte-identical at any `eval_threads`, so the differential oracle
//! holds at any thread count.

use super::compile::{CompiledAtom, CompiledRule, RulePaths};
use super::join::{instantiate, Join, View};
use super::seminaive::{fixpoint, CompiledProgram, Ids};
use super::stratified::fixpoint_strata;
use calm_common::fact::Fact;
use calm_common::query::RowBatch;
use calm_common::storage::{RelId, Relation, Storage, Sym, SymTuple, SymbolTable};
use calm_common::update::UpdateBatch;
use calm_obs::Obs;
use std::collections::{BTreeSet, HashSet};

/// Counters for one update-batch application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// EDB facts actually inserted (absent before).
    pub edb_inserted: usize,
    /// EDB facts actually deleted (present before).
    pub edb_deleted: usize,
    /// Derived tuples scheduled for overdeletion by retraction
    /// propagation, *including* those later rederived. In a stratum
    /// where the re-evaluation guard tripped this counts only what was
    /// scheduled before the stop.
    pub retractions: usize,
    /// Overdeleted tuples with a surviving alternative derivation,
    /// resurrected by the rederive pass. A stratum re-evaluated by the
    /// guard rederives nothing (it is recomputed instead).
    pub rederivations: usize,
    /// Derived tuples newly inserted by insertion propagation (not by a
    /// guard re-evaluation).
    pub insertions: usize,
    /// Body valuations enumerated across all phases, fallback
    /// fixpoints included (work measure).
    pub derivations: usize,
    /// Strata re-evaluated from scratch because the re-evaluation
    /// guard tripped (the tripping stratum and every one above it).
    pub fallbacks: usize,
}

impl UpdateStats {
    /// Accumulate another application's counters.
    pub fn merge(&mut self, other: &UpdateStats) {
        self.edb_inserted += other.edb_inserted;
        self.edb_deleted += other.edb_deleted;
        self.retractions += other.retractions;
        self.rederivations += other.rederivations;
        self.insertions += other.insertions;
        self.derivations += other.derivations;
        self.fallbacks += other.fallbacks;
    }
}

/// The re-evaluation guard's threshold: overdeleting more than this
/// many of a stratum's `live` head rows (or finding more than this
/// many of an input relation's rows changed) abandons DRed for a fresh
/// fixpoint of the stratum. One internal constant — reported through
/// [`UpdateStats::fallbacks`], never set. Measured with the guard off
/// (E27; DESIGN.md §16 has the table), DRed carried through costs half
/// a rebuild of the view at 11 % of it overdeleted and meets the
/// rebuild just under 40 %; at a quarter a completed batch stays
/// under 0.75× and an abandoned prefix adds at most 0.3×. The floor
/// keeps views of a few dozen rows, where neither path costs anything
/// measurable, on the incremental path.
pub fn fallback_limit(live: usize) -> usize {
    live / 4 + 64
}

/// The hash indexes maintenance probes: those of every access path of
/// every rule — the fixpoint builds only the ones its body and delta
/// paths use, the negative-atom, head-bound and lower-stratum seeds
/// need the rest.
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    indexes: BTreeSet<(RelId, usize)>,
}

impl MaintenancePlan {
    /// Plan maintenance of `strata`.
    pub fn new(strata: &[CompiledProgram]) -> MaintenancePlan {
        let rules = strata.iter().flat_map(CompiledProgram::rules);
        let indexes = rules
            .flat_map(|rule| {
                let RulePaths {
                    body,
                    pos,
                    neg,
                    head,
                } = &rule.paths;
                rule.probed([body, head].into_iter().chain(pos).chain(neg))
            })
            .collect();
        MaintenancePlan { indexes }
    }

    /// The `(relation, column)` hash indexes the seeded paths probe.
    pub fn indexes(&self) -> impl Iterator<Item = (RelId, usize)> + '_ {
        self.indexes.iter().copied()
    }

    /// Build the planned indexes on `db` — once, when a session opens:
    /// inserts and compaction keep them current from then on.
    pub fn prepare(&self, db: &mut Storage) {
        for (rel, col) in self.indexes() {
            db.relation_mut(rel).ensure_index(col);
        }
    }
}

/// One stratum's rules.
struct Stratum<'a> {
    rules: &'a [CompiledRule],
}

impl Stratum<'_> {
    /// Enumerate, over `view`, every body valuation that places a
    /// tuple of `pos` at a positive atom or a tuple of `neg` at a
    /// negative atom, passing each derived head to `sink`. `sink`
    /// returns `false` to stop the enumeration; so does this, when
    /// stopped.
    fn derive(
        &self,
        storage: &Storage,
        view: View,
        pos: &Ids,
        neg: &Ids,
        stats: &mut UpdateStats,
        sink: &mut dyn FnMut(RelId, &[Sym]) -> bool,
    ) -> bool {
        let mut head = SymTuple::new();
        for rule in self.rules {
            let paths = &rule.paths;
            let mut emit = |b: &[Sym]| {
                instantiate(&rule.head, b, &mut head);
                sink(rule.head.relation, &head)
            };
            let seeds = (rule.pos.iter().zip(&paths.pos).map(|s| (s, pos)))
                .chain(rule.neg.iter().zip(&paths.neg).map(|s| (s, neg)));
            for ((atom, path), delta) in seeds {
                let (Some(ids), Some(rel)) =
                    (delta.get(&atom.relation), storage.relation(atom.relation))
                else {
                    continue;
                };
                let mut join = Join::new(rule, path, storage, storage, view);
                let go = ids.iter().all(|&id| join.seeded(rel.row(id), &mut emit));
                stats.derivations += join.derivations;
                if !go {
                    return false;
                }
            }
        }
        true
    }

    /// Whether `row` (a tuple of relation `rel`) has at least one
    /// derivation over the current store through the stratum's rules —
    /// the head-bound backward check of the rederive pass (early exit
    /// on the first derivation).
    fn derivable(
        &self,
        storage: &Storage,
        rel: RelId,
        row: &[Sym],
        stats: &mut UpdateStats,
    ) -> bool {
        self.rules.iter().any(|rule| {
            if rule.head.relation != rel {
                return false;
            }
            let mut join = Join::new(rule, &rule.paths.head, storage, storage, View::New);
            let underivable = join.seeded(row, &mut |_| false);
            stats.derivations += join.derivations;
            !underivable
        })
    }

    fn heads(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.relation).collect()
    }
}

/// Maintain one stratum given the net changes below it (EDB and lower
/// strata), extending `added`/`removed` with the stratum's own net
/// changes. Returns `false` — with nothing in the stratum mutated —
/// when the re-evaluation guard tripped during overdeletion.
fn maintain_stratum(
    cp: &CompiledProgram,
    db: &mut Storage,
    added: &mut Ids,
    removed: &mut Ids,
    stats: &mut UpdateStats,
) -> bool {
    let st = Stratum { rules: cp.rules() };
    let heads = st.heads();
    let none = Ids::new();
    let storage = &*db;

    // The guard, ahead of the work: a batch that has already rewritten
    // more than the guard's share of a relation the stratum reads
    // (rows gone from under a positive atom, rows new under a negative
    // one — the seeds of overdeletion, against the relation's old size)
    // is headed for the fallback; do not overdelete a quarter of the
    // view first only to abandon it.
    let churned = |atoms: &[CompiledAtom], delta: &Ids| {
        atoms.iter().any(|a| {
            let old_len = storage
                .relation(a.relation)
                .map_or(0, Relation::delta_start);
            delta
                .get(&a.relation)
                .is_some_and(|ids| ids.len() > fallback_limit(old_len))
        })
    };
    if (st.rules.iter()).any(|r| churned(&r.pos, removed) || churned(&r.neg, added)) {
        return false;
    }

    // --- Phase 1: overdelete over the old view. ---
    // Seeds: old-view derivations touching a removed tuple at a
    // positive atom, or a newly added tuple at a negative atom. Then
    // propagate within the stratum (in-stratum recursion is purely
    // positive) until no new head is scheduled — or the guard trips.
    let live: usize = heads
        .iter()
        .filter_map(|&r| storage.relation(r))
        .map(Relation::len)
        .sum();
    let limit = fallback_limit(live);
    let mut doomed: HashSet<(RelId, u32)> = HashSet::new();
    let mut frontier = Ids::new();
    let mut schedule = |rel: RelId, head: &[Sym], frontier: &mut Ids| {
        let id = storage
            .relation(rel)
            .and_then(|r| r.lookup(head).filter(|&id| r.is_live(id)));
        if let Some(id) = id {
            if doomed.insert((rel, id)) {
                frontier.entry(rel).or_default().push(id);
            }
        }
        doomed.len() <= limit
    };
    let mut within = st.derive(storage, View::Old, removed, added, stats, &mut |r, h| {
        schedule(r, h, &mut frontier)
    });
    while within && !frontier.is_empty() {
        let delta = std::mem::take(&mut frontier);
        within = st.derive(storage, View::Old, &delta, &none, stats, &mut |r, h| {
            schedule(r, h, &mut frontier)
        });
    }
    stats.retractions += doomed.len();
    if !within {
        return false;
    }
    // Apply the overdeletion: tombstone every scheduled row (in id
    // order, so that a run does not depend on the set's hash order).
    let mut dead: Vec<(RelId, u32)> = doomed.iter().copied().collect();
    dead.sort_unstable();
    for &(r, id) in &dead {
        db.retract_id(r, id);
    }

    // --- Phase 2: rederive (semi-naive). ---
    // A tuple stays deleted only if no rule derives it from the
    // surviving facts. One head-bound backward check per overdeleted
    // row seeds the revivals; after that the view only grows by
    // revived tuples, so any further revival must consume a revived
    // tuple at some positive atom — propagate forward with delta joins
    // into the still-deleted set (`doomed`, from here on) instead of
    // rechecking the whole overdeletion every round.
    let storage = &*db;
    let mut revive: Vec<(RelId, u32)> = dead
        .into_iter()
        .filter(|&(r, id)| {
            let row = storage.relation(r).expect("overdeleted relation").row(id);
            st.derivable(storage, r, row, stats)
        })
        .collect();
    for key in &revive {
        doomed.remove(key);
    }
    while !revive.is_empty() {
        let mut delta = Ids::new();
        for (r, id) in revive.drain(..) {
            db.revive(r, id);
            stats.rederivations += 1;
            delta.entry(r).or_default().push(id);
        }
        let storage = &*db;
        st.derive(storage, View::New, &delta, &none, stats, &mut |r, h| {
            if let Some(id) = storage.relation(r).and_then(|rel| rel.lookup(h)) {
                // Two rules can derive the same head in one round.
                if doomed.remove(&(r, id)) {
                    revive.push((r, id));
                }
            }
            true
        });
    }

    // --- Phase 3: insert propagation over the new view. ---
    // The fixpoint's own delta rounds, seeded by derivations touching
    // an added tuple at a positive atom or a removed tuple at a negative
    // atom: the insert is the dedup, revives an overdeleted row in
    // place, and a round that inserts nothing ends the propagation.
    let m = fixpoint(cp, db, None, Some((added, removed)), &Obs::noop());
    stats.insertions += m.new_facts;
    stats.derivations += m.derivations;

    // The stratum's net changes, for the strata above: what is still
    // tombstoned (an insertion may have revived an overdeleted row),
    // and what was appended past the watermark.
    let storage = &*db;
    for (r, id) in doomed {
        if !storage.relation(r).is_some_and(|rel| rel.is_live(id)) {
            removed.entry(r).or_default().push(id);
        }
    }
    for r in heads {
        let ids: Vec<u32> = storage
            .relation(r)
            .map(|rel| rel.added_ids().collect())
            .unwrap_or_default();
        if !ids.is_empty() {
            added.insert(r, ids);
        }
    }
    true
}

/// The guard's fallback: re-evaluate `strata` (a suffix of the
/// program, whose lowest stratum has not been mutated in this batch)
/// over the already-maintained strata below. Returns the derivations
/// the fixpoints enumerated.
fn reevaluate(strata: &[CompiledProgram], db: &mut Storage, obs: &Obs) -> usize {
    // The fixpoint's scan path iterates the raw insertion log, so the
    // tombstones of the EDB and the maintained strata go first.
    db.compact_retractions();
    for cp in strata {
        for rule in cp.rules() {
            db.clear_relation(rule.head.relation);
        }
    }
    let stats = fixpoint_strata(strata, db, obs, false);
    stats.iter().map(|m| m.derivations).sum()
}

/// The facts of `batch` that `keep` passes, as rows over `table`: an
/// insertion interned, a deletion looked up (a fact whose relation or
/// value was never interned is not stored) — the fact door onto
/// [`apply_update_rows`].
pub(crate) fn rows_of_update(
    table: &mut SymbolTable,
    batch: &UpdateBatch,
    keep: impl Fn(&Fact) -> bool,
) -> RowBatch {
    let (mut rows, mut row) = (RowBatch::default(), SymTuple::new());
    for f in batch.delete.iter().filter(|f| keep(f)) {
        row.clear();
        let known = (f.args().iter()).all(|v| table.lookup_sym(v).map(|s| row.push(s)).is_some());
        if let Some(r) = table.lookup_rel(f.relation()).filter(|_| known) {
            rows.delete.push(r, &row);
        }
    }
    for f in batch.insert.iter().filter(|f| keep(f)) {
        row.clear();
        row.extend(f.args().iter().map(|v| table.sym(v)));
        rows.insert.push(table.rel(f.relation()), &row);
    }
    rows
}

/// Apply a signed change in rows, deletions first, to `db`: the
/// compacted fixpoint of `strata` over its EDB, carrying the indexes of
/// their [`MaintenancePlan`]; the change touches EDB relations only (the
/// wrappers in [`crate::query`] see to all of it). A change that only
/// inserts, into relations no stratum reads under negation, overdeletes
/// nothing: it is the fixpoint's delta rounds, stratum by stratum.
///
/// Reports `eval.retractions`, `eval.rederivations` and
/// `eval.maintenance_fallback` counters (plus insertion and work
/// counters) to `obs`.
pub(crate) fn apply_update_rows(
    strata: &[CompiledProgram],
    db: &mut Storage,
    change: &RowBatch,
    obs: &Obs,
) -> UpdateStats {
    assert!(
        !db.any_dead(),
        "incremental maintenance requires a compacted database"
    );
    let mut stats = UpdateStats::default();
    // One watermark move up front: the storage-level signed deltas
    // (`added_ids`/`removed_ids`) then capture exactly this batch's
    // net change, and "below the watermark" is the old view.
    db.mark_deltas();
    for (r, rows) in change.delete.runs() {
        stats.edb_deleted += rows.filter(|row| db.retract(r, row)).count();
    }
    for (r, rows) in change.insert.runs() {
        stats.edb_inserted += db.insert_batch(r, rows).0;
    }

    let mut added = Ids::new();
    let mut removed = Ids::new();
    for r in db.rel_ids() {
        let Some(rel) = db.relation(r) else {
            continue;
        };
        let (a, rm): (Vec<u32>, Vec<u32>) =
            (rel.added_ids().collect(), rel.removed_ids().collect());
        if !a.is_empty() {
            added.insert(r, a);
        }
        if !rm.is_empty() {
            removed.insert(r, rm);
        }
    }

    for (k, cp) in strata.iter().enumerate() {
        if !maintain_stratum(cp, db, &mut added, &mut removed, &mut stats) {
            let _span = obs.span("eval", || format!("maintenance_fallback#{k}"));
            stats.derivations += reevaluate(&strata[k..], db, obs);
            stats.fallbacks += strata.len() - k;
            break;
        }
    }

    // Tombstones served their purpose (old-view reconstruction and
    // in-place revival); the fixpoint engines require a compacted
    // store, so physically drop them at the batch boundary.
    db.compact_retractions();
    if obs.enabled() {
        obs.counter("eval", "retractions", stats.retractions as u64);
        obs.counter("eval", "rederivations", stats.rederivations as u64);
        obs.counter("eval", "update_insertions", stats.insertions as u64);
        obs.counter("eval", "update_derivations", stats.derivations as u64);
        obs.counter("eval", "maintenance_fallback", stats.fallbacks as u64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::database::Database;
    use crate::eval::seminaive::{fixpoint_seminaive_compiled, EvalOptions};
    use crate::eval::stratified::precompile;
    use crate::stratify::stratify;
    use calm_common::fact::fact;
    use calm_common::instance::Instance;
    use calm_common::storage::SharedSymbols;

    /// A compiled program with its maintenance plan.
    struct Maintained {
        strata: Vec<CompiledProgram>,
        plan: MaintenancePlan,
        symbols: SharedSymbols,
    }

    impl Maintained {
        fn new(src: &str) -> Maintained {
            let symbols = SharedSymbols::new();
            let p = crate::parser::parse_program(src).unwrap();
            let strata = precompile(
                &stratify(&p).unwrap(),
                &mut symbols.write(),
                EvalOptions::default(),
            );
            let plan = MaintenancePlan::new(&strata);
            Maintained {
                strata,
                plan,
                symbols,
            }
        }

        /// The fixpoint over `input`, ready for maintenance — also the
        /// from-scratch reference for a later EDB (same compiled
        /// strata, fresh database, shared symbol table).
        fn materialize(&self, input: &Instance) -> Database {
            let mut db = Database::from_instance_with(input, self.symbols.clone());
            for cp in &self.strata {
                fixpoint_seminaive_compiled(cp, &mut db);
            }
            self.plan.prepare(db.storage_mut());
            db
        }

        fn apply(&self, db: &mut Database, batch: &UpdateBatch) -> UpdateStats {
            let rows = rows_of_update(&mut db.symbols().write(), batch, |_| true);
            apply_update_rows(&self.strata, db.storage_mut(), &rows, &Obs::noop())
        }
    }

    /// Fold `batches` into a maintained database, comparing with a
    /// from-scratch evaluation after each; returns the summed counters.
    fn check_differential(src: &str, initial: Instance, batches: &[UpdateBatch]) -> UpdateStats {
        let m = Maintained::new(src);
        let mut db = m.materialize(&initial);
        let mut edb = initial;
        let mut total = UpdateStats::default();
        for (k, batch) in batches.iter().enumerate() {
            total.merge(&m.apply(&mut db, batch));
            batch.apply_to_instance(&mut edb);
            let reference = m.materialize(&edb);
            assert!(
                db.same_facts(&reference),
                "diverged after batch {k}:\nincremental: {:?}\nreference: {:?}",
                db.to_instance(),
                reference.to_instance()
            );
            assert_eq!(db.to_instance(), reference.to_instance(), "batch {k}");
            assert!(!db.storage().any_dead(), "tombstones leaked past batch {k}");
        }
        total
    }

    const TC: &str = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";

    #[test]
    fn tc_delete_edge_retracts_downstream_paths() {
        // Path 1→2→3→4; deleting 2→3 splits the closure.
        let initial =
            Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("E", [3, 4])]);
        check_differential(
            TC,
            initial,
            &[
                UpdateBatch::deleting([fact("E", [2, 3])]),
                UpdateBatch::inserting([fact("E", [2, 3])]),
                UpdateBatch::deleting([fact("E", [1, 2]), fact("E", [3, 4])]),
            ],
        );
    }

    #[test]
    fn tc_rederivation_keeps_alternate_paths() {
        // Two parallel routes 1→2→4 and 1→3→4: deleting one leaves
        // T(1,4) derivable through the other (rederive must fire).
        let initial = Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [2, 4]),
            fact("E", [1, 3]),
            fact("E", [3, 4]),
        ]);
        let m = Maintained::new(TC);
        let mut db = m.materialize(&initial);
        let stats = m.apply(&mut db, &UpdateBatch::deleting([fact("E", [2, 4])]));
        assert!(stats.rederivations > 0, "alternate path must rederive");
        let out = db.to_instance();
        assert!(out.contains(&fact("T", [1, 4])));
        assert!(!out.contains(&fact("T", [2, 4])));
    }

    #[test]
    fn cyclic_support_does_not_self_rederive() {
        // Cycle 1→2→1: every T tuple transitively supports itself;
        // deleting E(1,2) must delete the whole closure, not keep it
        // alive through circular support (the trap counting falls into).
        let initial = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 1])]);
        check_differential(TC, initial, &[UpdateBatch::deleting([fact("E", [1, 2])])]);
    }

    #[test]
    fn stratified_negation_flips_both_ways() {
        // Removing an E tuple can *create* O tuples; adding one can
        // delete them — both negation directions in one program.
        let src = "R(x,y) :- E(x,y).\nR(x,z) :- R(x,y), E(y,z).\nO(x) :- V(x), not R(x,x).";
        let initial = Instance::from_facts([
            fact("V", [1]),
            fact("V", [2]),
            fact("E", [1, 2]),
            fact("E", [2, 1]),
        ]);
        check_differential(
            src,
            initial,
            &[
                // Break the cycle: R(1,1)/R(2,2) vanish, O(1)/O(2) appear.
                UpdateBatch::deleting([fact("E", [2, 1])]),
                // Restore it: O tuples must retract again.
                UpdateBatch::inserting([fact("E", [2, 1])]),
                // Mixed batch.
                UpdateBatch::deleting([fact("E", [1, 2])])
                    .with_insert(fact("V", [3]))
                    .with_insert(fact("E", [3, 3])),
            ],
        );
    }

    #[test]
    fn empty_and_noop_batches_change_nothing() {
        let initial = Instance::from_facts([fact("E", [1, 2])]);
        let m = Maintained::new(TC);
        let mut db = m.materialize(&initial);
        let before = db.to_instance();
        let stats = m.apply(&mut db, &UpdateBatch::default());
        assert_eq!(stats, UpdateStats::default());
        // Deleting an absent fact and re-inserting a present one: no-ops.
        let noop = UpdateBatch::deleting([fact("E", [9, 9])]).with_insert(fact("E", [1, 2]));
        let stats = m.apply(&mut db, &noop);
        assert_eq!(stats.edb_inserted, 0);
        assert_eq!(stats.edb_deleted, 0);
        assert_eq!(db.to_instance(), before);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_is_noop() {
        let initial = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        check_differential(
            TC,
            initial,
            &[UpdateBatch::deleting([fact("E", [2, 3])]).with_insert(fact("E", [2, 3]))],
        );
    }

    #[test]
    fn multi_stratum_chain_propagates_removals_upward() {
        // Three strata: closure → gap detection (negation) → projection.
        let src = "T(x,y) :- E(x,y).\n\
                   T(x,z) :- T(x,y), E(y,z).\n\
                   G(x,y) :- V(x), V(y), not T(x,y), x != y.\n\
                   H(x) :- G(x,y).";
        let initial = Instance::from_facts([
            fact("V", [1]),
            fact("V", [2]),
            fact("V", [3]),
            fact("E", [1, 2]),
            fact("E", [2, 3]),
        ]);
        check_differential(
            src,
            initial,
            &[
                UpdateBatch::deleting([fact("E", [1, 2])]),
                UpdateBatch::inserting([fact("E", [1, 3])]),
                UpdateBatch::deleting([fact("V", [3])]).with_insert(fact("E", [1, 2])),
            ],
        );
    }

    #[test]
    fn insert_propagation_counts_a_head_once_and_revives_in_place() {
        // Deleting E(1,2) overdeletes T(1,2) and T(1,3) with nothing to
        // rederive them; the inserted detours 1→4→2 and 1→5→2 derive
        // T(1,2) twice in one round of insert propagation. The insert
        // drops the second derivation and revives the overdeleted row
        // under its old id; T(1,3) follows one round later.
        let initial = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let m = Maintained::new(TC);
        let mut db = m.materialize(&initial);
        let t = m.symbols.read().lookup_rel("T").unwrap();
        let id_of = |db: &Database, a: i64, b: i64| {
            let table = m.symbols.read();
            let row: Vec<Sym> = [a, b]
                .iter()
                .map(|&v| table.lookup_sym(&calm_common::v(v)).unwrap())
                .collect();
            db.storage().relation(t).unwrap().lookup(&row)
        };
        let (t12, t13) = (id_of(&db, 1, 2), id_of(&db, 1, 3));
        let batch = UpdateBatch::deleting([fact("E", [1, 2])])
            .with_insert(fact("E", [1, 4]))
            .with_insert(fact("E", [4, 2]))
            .with_insert(fact("E", [1, 5]))
            .with_insert(fact("E", [5, 2]));
        let stats = m.apply(&mut db, &batch);
        assert_eq!((stats.retractions, stats.rederivations), (2, 0));
        // T(1,4) T(4,2) T(1,5) T(5,2); T(1,2) once, T(4,3) T(5,3); T(1,3).
        assert_eq!(stats.insertions, 8);
        assert_eq!((id_of(&db, 1, 2), id_of(&db, 1, 3)), (t12, t13));
        let rel = db.storage().relation(t).unwrap();
        assert_eq!((rel.len(), rel.rows().len()), (9, 9), "no row stored twice");
        let mut edb = initial;
        batch.apply_to_instance(&mut edb);
        assert!(db.same_facts(&m.materialize(&edb)));
    }

    const TGH: &str = "T(x,y) :- E(x,y).\n\
                       T(x,z) :- T(x,y), E(y,z).\n\
                       G(x,y) :- V(x), V(y), not T(x,y), x != y.\n\
                       H(x) :- G(x,y).";

    /// A ring through `0..n` plus the chords `i → (7i + 3) mod n`:
    /// strongly connected whatever is done to the chords, so the
    /// closure is all `n²` pairs and every one of them has a
    /// derivation through every chord.
    fn ring_with_chords(n: i64) -> (Instance, Vec<calm_common::fact::Fact>) {
        let ring = (0..n).map(|i| fact("E", [i, (i + 1) % n]));
        let chords: Vec<_> = (0..n)
            .map(|i| fact("E", [i, (7 * i + 3) % n]))
            .filter(|f| f.args()[0] != f.args()[1])
            .collect();
        let graph = Instance::from_facts(ring.chain(chords.iter().cloned()));
        (graph, chords)
    }

    #[test]
    fn guard_reevaluates_a_dense_view_and_the_strata_above_it() {
        let n = 40;
        let (mut initial, chords) = ring_with_chords(n);
        for v in 0..n + 2 {
            initial.insert(fact("V", [v])); // two vertices off the ring: G, H nonempty
        }
        let m = Maintained::new(TGH);
        let mut db = m.materialize(&initial);
        // Every T tuple has a derivation through the chord: overdeletion
        // would schedule all 1600 of them, the guard stops it near 464.
        let stats = m.apply(&mut db, &UpdateBatch::deleting([chords[0].clone()]));
        // T tripped; everything above it (G, H) is re-evaluated too.
        assert!(m.strata.len() >= 2);
        assert_eq!(stats.fallbacks, m.strata.len());
        let live = (n * n) as usize;
        assert_eq!(stats.retractions, fallback_limit(live) + 1);
        assert_eq!(stats.rederivations, 0);
        assert!(stats.derivations > live, "fallback fixpoints are counted");
        // Differential, through the guard and back: a tripping batch, a
        // batch that changes G and H *above* the tripped stratum, the
        // chords back in (pure insertion, no fallback), then a small
        // batch on the re-evaluated store (indexes, watermarks and
        // compaction state must all still be valid).
        let cut = UpdateBatch::deleting([fact("E", [0, 1]), chords[1].clone()]);
        let total = check_differential(
            TGH,
            initial,
            &[
                UpdateBatch::deleting(chords[..3].iter().cloned()),
                cut,
                UpdateBatch::inserting(chords[..3].iter().cloned()),
                UpdateBatch::deleting([fact("V", [n + 1])]),
                UpdateBatch::inserting([fact("E", [n, 0])]),
            ],
        );
        assert!(total.fallbacks >= 2);
        assert!(total.insertions > 0 && total.retractions > 0);
    }

    #[test]
    fn guard_does_not_trip_on_a_small_delete_from_a_large_sparse_view() {
        // A chain of 400 vertices: 79 800 closure tuples. Cutting the
        // edge 380 → 381 removes the 381 · 19 pairs across it — under
        // a tenth of the view — and must cost what it touches, not a
        // re-evaluation.
        let n = 400;
        let initial = Instance::from_facts((0..n - 1).map(|i| fact("E", [i, i + 1])));
        let m = Maintained::new(TC);
        let mut db = m.materialize(&initial);
        let batch = UpdateBatch::deleting([fact("E", [380, 381])]);
        let stats = m.apply(&mut db, &batch);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.retractions, 381 * 19);
        assert_eq!(stats.rederivations, 0);
        let mut edb = initial;
        batch.apply_to_instance(&mut edb);
        let mut reference = Database::from_instance_with(&edb, m.symbols.clone());
        let full: usize = (m.strata.iter())
            .map(|cp| fixpoint_seminaive_compiled(cp, &mut reference).derivations)
            .sum();
        assert!(db.same_facts(&reference));
        assert!(
            stats.derivations * 4 < full,
            "maintenance enumerated {} valuations, the full fixpoint {full}",
            stats.derivations
        );
    }

    #[test]
    fn planned_indexes_are_exactly_what_the_paths_probe() {
        // tc.dl: delta at E probes T on its second column, delta at T
        // probes E on its first, the head-bound check probes E on its
        // second and looks T up — no index on T's first column.
        let m = Maintained::new(TC);
        let table = m.symbols.read();
        let planned: Vec<(String, usize)> = (m.plan.indexes())
            .map(|(r, c)| (table.rel_name(r).to_string(), c))
            .collect();
        let mut expect = vec![
            ("E".to_string(), 0),
            ("E".to_string(), 1),
            ("T".to_string(), 1),
        ];
        expect.sort_by_key(|(name, c)| (table.lookup_rel(name), *c));
        assert_eq!(planned, expect);
    }

    #[test]
    fn supports_update_stats_merge() {
        let mut a = UpdateStats {
            edb_inserted: 1,
            edb_deleted: 2,
            retractions: 3,
            rederivations: 4,
            insertions: 5,
            derivations: 6,
            fallbacks: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.retractions, 6);
        assert_eq!(a.derivations, 12);
        assert_eq!(a.fallbacks, 14);
    }

    #[test]
    #[should_panic(expected = "compacted database")]
    fn rejects_uncompacted_databases() {
        let m = Maintained::new(TC);
        let mut db = m.materialize(&Instance::from_facts([fact("E", [1, 2])]));
        // Leave a tombstone behind by hand.
        let e = m.symbols.read().lookup_rel("E").unwrap();
        let row: Vec<_> = {
            let t = m.symbols.read();
            [calm_common::v(1), calm_common::v(2)]
                .iter()
                .map(|v| t.lookup_sym(v).unwrap())
                .collect()
        };
        db.storage_mut().retract(e, &row);
        m.apply(&mut db, &UpdateBatch::default());
    }
}
