//! Incremental view maintenance over compiled stratified programs
//! (DESIGN.md §16): [`apply_update_rows`] folds a signed change in rows
//! into a materialized [`Storage`] in place, so that it holds what a
//! from-scratch evaluation of the new EDB would. Stratum by stratum, the
//! heads of old-view derivations through a changed row are candidates;
//! a Backward/Forward support check (Motik–Nenov–Piro–Horrocks, AAAI
//! 2015) searches each for a derivation over the new view through rows
//! not deleted — supports in ascending row id, depth first on an
//! explicit stack, checked and proved rows memoised, proofs saturated
//! forward — and an unproved candidate is deleted and cascades; then the
//! fixpoint's delta rounds insert. Nothing in a stratum is mutated before
//! its check ends; a check that visits more than [`fallback_limit`] of
//! the stratum's rows gives way to re-evaluating it and those above.

use super::compile::{CompiledAtom, CompiledRule};
use super::join::{instantiate, Join, View};
use super::seminaive::{fixpoint, CompiledProgram, Ids};
use super::stratified::fixpoint_strata;
use calm_common::fact::Fact;
use calm_common::query::RowBatch;
use calm_common::storage::{RelId, Relation, Storage, Sym, SymTuple, SymbolTable};
use calm_common::update::UpdateBatch;
use calm_obs::Obs;
use std::collections::BTreeSet;

/// Counters for one update-batch application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// EDB facts actually inserted (absent before).
    pub edb_inserted: usize,
    /// EDB facts actually deleted (present before).
    pub edb_deleted: usize,
    /// Derived tuples the support check deleted (none if re-evaluated).
    pub retractions: usize,
    /// Candidates for deletion the support check kept (proved anew).
    pub rederivations: usize,
    /// Derived tuples inserted by insert propagation.
    pub insertions: usize,
    /// Body valuations enumerated, fallback fixpoints included (work).
    pub derivations: usize,
    /// Strata re-evaluated because the guard tripped (and those above).
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

/// The re-evaluation guard's threshold: checking more than this many
/// of a stratum's `live` head rows (or finding more than this many of
/// an input relation's rows changed) abandons maintenance for a fresh
/// fixpoint of the stratum. One internal constant, reported through
/// [`UpdateStats::fallbacks`]; the floor keeps small views maintained.
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
        let indexes = rules.flat_map(|rule| {
            let p = &rule.paths;
            rule.probed([&p.body, &p.head].into_iter().chain(&p.pos).chain(&p.neg))
        });
        MaintenancePlan {
            indexes: indexes.collect(),
        }
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

/// A row of one of the stratum's own (head) relations.
type Row = (RelId, u32);

/// What the support check knows of a row: flags in the top bits of its
/// mark, and below them one more than the index of the first support
/// waiting for the row to be proved (0: none).
const CANDIDATE: u32 = 1 << 31;
const CHECKED: u32 = 1 << 30;
const PROVED: u32 = 1 << 29;
const DELETED: u32 = 1 << 28;
const WAITING: u32 = DELETED - 1;

/// Per relation and row id, the row's mark.
#[derive(Default)]
struct Marks(Vec<Vec<u32>>);

impl Marks {
    fn get(&self, (r, id): Row) -> u32 {
        let mark = self.0.get(r.0 as usize).and_then(|m| m.get(id as usize));
        mark.copied().unwrap_or(0)
    }

    fn mark(&mut self, (r, id): Row) -> &mut u32 {
        let (r, id) = (r.0 as usize, id as usize);
        if self.0.len() <= r {
            self.0.resize_with(r + 1, Vec::new);
        }
        let m = &mut self.0[r];
        if m.len() <= id {
            m.resize(id + 1, 0);
        }
        &mut m[id]
    }
}

/// The stored row of the `atom` a valuation `b` instantiates, if any.
fn row_of(storage: &Storage, atom: &CompiledAtom, b: &[Sym], key: &mut SymTuple) -> Option<Row> {
    instantiate(atom, b, key);
    let id = (storage.relation(atom.relation)).and_then(|rel| rel.lookup(key));
    id.map(|id| (atom.relation, id))
}

/// A derivation of a checked row whose in-stratum rows `rows[start..end]`
/// were not all proved: it waits on one at a time, linked through `next`.
#[derive(Clone, Copy)]
struct Support {
    head: Row,
    start: u32,
    end: u32,
    next: u32,
}

/// The support check of one stratum, over a store it does not mutate.
struct SupportCheck<'a> {
    rules: &'a [CompiledRule],
    storage: &'a Storage,
    /// Per rule, its join on the head-bound path.
    back: Vec<Join<'a>>,
    marks: Marks,
    /// Rows checked, against the guard's `limit`.
    checked: usize,
    limit: usize,
    /// Valuations enumerated by the candidates' joins.
    derivations: usize,
    supports: Vec<Support>,
    rows: Vec<Row>,
    key: SymTuple,
}

impl<'a> SupportCheck<'a> {
    /// Decide every candidate: the rows to delete, in id order, and how
    /// many candidates were kept — or `None` when the guard tripped.
    fn run(&mut self, added: &Ids, removed: &Ids) -> Option<(Vec<Row>, usize)> {
        let (mut round, mut deleted, mut kept) = (Vec::new(), Vec::new(), 0);
        let mut within = self.candidates(removed, added, &mut round);
        while within && !round.is_empty() {
            let mut dying = Ids::new();
            for &f in &round {
                if self.marks.get(f) & CHECKED == 0 && !self.check(f) {
                    return None;
                }
                if self.marks.get(f) & PROVED != 0 {
                    kept += 1;
                } else {
                    *self.marks.mark(f) |= DELETED;
                    deleted.push(f);
                    dying.entry(f.0).or_default().push(f.1);
                }
            }
            round.clear();
            within = self.candidates(&dying, &Ids::new(), &mut round);
        }
        deleted.sort_unstable();
        within.then_some((deleted, kept))
    }

    /// Append to `out`, once each, the heads of old-view derivations
    /// through a row of `pos` at a positive atom or of `neg` at a negative
    /// one; `false` once checking them would pass the guard's limit.
    fn candidates(&mut self, pos: &Ids, neg: &Ids, out: &mut Vec<Row>) -> bool {
        let (storage, marks, key) = (self.storage, &mut self.marks, &mut self.key);
        let (room, mut unchecked) = (self.limit.saturating_sub(self.checked), 0);
        for rule in self.rules {
            let seeds = (rule.pos.iter().zip(&rule.paths.pos).map(|s| (s, pos)))
                .chain(rule.neg.iter().zip(&rule.paths.neg).map(|s| (s, neg)));
            for ((atom, path), delta) in seeds {
                let (Some(ids), Some(rel)) =
                    (delta.get(&atom.relation), storage.relation(atom.relation))
                else {
                    continue;
                };
                let mut join = Join::new(rule, path, storage, storage, View::Old);
                let within = ids.iter().all(|&id| {
                    join.seeded(rel.row(id), &mut |b| {
                        let h = row_of(storage, &rule.head, b, key);
                        if let Some(h) = h.filter(|&h| marks.get(h) & CANDIDATE == 0) {
                            unchecked += usize::from(marks.get(h) & CHECKED == 0);
                            *marks.mark(h) |= CANDIDATE;
                            out.push(h);
                        }
                        unchecked <= room
                    })
                });
                self.derivations += join.derivations;
                if !within {
                    return false;
                }
            }
        }
        true
    }

    /// Check `f` and the rows its supports lead to, depth first on a stack
    /// of `(row, rows still to try)`; `false` when the guard tripped.
    fn check(&mut self, f: Row) -> bool {
        let mut stack: Vec<_> = self.open(f).into_iter().collect();
        while let Some((row, next, end)) = stack.last_mut() {
            if self.checked > self.limit {
                return false;
            }
            match self.rows[*next..*end].first() {
                Some(&g) if self.marks.get(*row) & PROVED == 0 => {
                    *next += 1;
                    if self.marks.get(g) & CHECKED == 0 {
                        stack.extend(self.open(g));
                    }
                }
                _ => drop(stack.pop()),
            }
        }
        self.checked <= self.limit
    }

    /// Mark `row` checked and gather its supports (derivations over the
    /// new view through rows not deleted): `None` when one rests on proved
    /// rows only, else a frame that tries them shallowest first.
    fn open(&mut self, row: Row) -> Option<(Row, usize, usize)> {
        *self.marks.mark(row) |= CHECKED;
        self.checked += 1;
        let (storage, marks, key) = (self.storage, &self.marks, &mut self.key);
        let tuple = storage.relation(row.0).expect("a checked row is stored");
        let tuple = tuple.row(row.1);
        let (mut found, mut bounds, mut proved) = (Vec::new(), Vec::new(), false);
        for (rule, join) in self.rules.iter().zip(&mut self.back) {
            if rule.head.relation != row.0 {
                continue;
            }
            join.seeded(tuple, &mut |b| {
                let start = found.len();
                let own = (rule.pos.iter().zip(&rule.recursive_pos)).filter(|a| *a.1);
                found.extend(own.map(|(a, _)| row_of(storage, a, b, key).expect("joined")));
                let rows = &found[start..];
                if rows.iter().any(|&g| marks.get(g) & DELETED != 0) {
                    found.truncate(start);
                    return true;
                }
                proved = rows.iter().all(|&g| marks.get(g) & PROVED != 0);
                let depth = rows.iter().map(|g| g.1).max();
                bounds.push((depth, start, found.len()));
                !proved
            });
            if proved {
                self.prove(row);
                return None;
            }
        }
        bounds.sort_by_key(|b| b.0);
        let first = self.rows.len();
        for (_, from, to) in bounds {
            let start = self.rows.len() as u32;
            self.rows.extend_from_slice(&found[from..to]);
            let end = self.rows.len() as u32;
            let (head, next) = (row, 0);
            self.supports.push(Support {
                head,
                start,
                end,
                next,
            });
            assert!(self.supports.len() < WAITING as usize, "too many supports");
            self.wait(self.supports.len() as u32);
        }
        Some((row, first, self.rows.len()))
    }

    /// Prove `row`, then saturate: a support whose rows are all proved
    /// proves its head, if that is checked and not proved nor deleted.
    fn prove(&mut self, row: Row) {
        *self.marks.mark(row) |= PROVED;
        let mut queue = vec![row];
        while let Some(proved) = queue.pop() {
            let mark = self.marks.mark(proved);
            let mut s = *mark & WAITING;
            *mark &= !WAITING;
            while s != 0 {
                let Support { head, next, .. } = self.supports[s as usize - 1];
                let waiting = self.marks.get(head) & (CHECKED | PROVED | DELETED) == CHECKED;
                if waiting && !self.wait(s) {
                    *self.marks.mark(head) |= PROVED;
                    queue.push(head);
                }
                s = next;
            }
        }
    }

    /// Put support `s` (one more than its index) on the waiting list of
    /// its first row not proved yet; `false` when all of them are.
    fn wait(&mut self, s: u32) -> bool {
        let Support { start, end, .. } = self.supports[s as usize - 1];
        let rows = &self.rows[start as usize..end as usize];
        let Some(&g) = rows.iter().find(|&&g| self.marks.get(g) & PROVED == 0) else {
            return false;
        };
        let mark = self.marks.mark(g);
        self.supports[s as usize - 1].next = *mark & WAITING;
        *mark = *mark & !WAITING | s;
        true
    }
}

/// Maintain one stratum given the net changes below it, extending
/// `added`/`removed` with its own. `false` — with nothing in the stratum
/// mutated — when the re-evaluation guard tripped.
fn maintain_stratum(
    cp: &CompiledProgram,
    db: &mut Storage,
    added: &mut Ids,
    removed: &mut Ids,
    stats: &mut UpdateStats,
) -> bool {
    let rules = cp.rules();
    let heads: BTreeSet<RelId> = rules.iter().map(|r| r.head.relation).collect();
    let storage = &*db;

    // The guard, ahead of the work: a batch that rewrote more than its
    // share of a relation the stratum reads falls back at once.
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
    if (rules.iter()).any(|r| churned(&r.pos, removed) || churned(&r.neg, added)) {
        return false;
    }

    let live = heads.iter().filter_map(|&r| storage.relation(r));
    let mut check = SupportCheck {
        rules,
        storage,
        back: (rules.iter())
            .map(|r| Join::new(r, &r.paths.head, storage, storage, View::New))
            .collect(),
        marks: Marks::default(),
        checked: 0,
        limit: fallback_limit(live.map(Relation::len).sum()),
        derivations: 0,
        supports: Vec::new(),
        rows: Vec::new(),
        key: SymTuple::new(),
    };
    let decided = check.run(added, removed);
    let joins = check.back.iter().map(|j| j.derivations);
    stats.derivations += check.derivations + joins.sum::<usize>();
    let Some((deleted, kept)) = decided else {
        return false;
    };
    stats.retractions += deleted.len();
    stats.rederivations += kept;
    for &(r, id) in &deleted {
        db.retract_id(r, id);
    }

    // Insert propagation: the fixpoint's delta rounds (dedup, revival).
    let m = fixpoint(cp, db, None, Some((added, removed)), &Obs::noop());
    stats.insertions += m.new_facts;
    stats.derivations += m.derivations;

    // Net changes for the strata above: still dead, or appended.
    let storage = &*db;
    for (r, id) in deleted {
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

/// The guard's fallback: re-evaluate `strata`, a suffix of the program,
/// over the maintained strata below; returns the derivations enumerated.
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
/// wrappers in [`crate::query`] see to it). Reports the counters of
/// [`UpdateStats`] (`eval.retractions`, …) to `obs`.
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
    // One watermark move: the signed deltas (`added_ids`/`removed_ids`)
    // are this batch's net change, and "below the watermark" is the old view.
    db.mark_deltas();
    for (r, rows) in change.delete.runs() {
        stats.edb_deleted += rows.filter(|row| db.retract(r, row)).count();
    }
    for (r, rows) in change.insert.runs() {
        stats.edb_inserted += db.insert_batch(r, rows).0;
    }

    let (mut added, mut removed) = (Ids::new(), Ids::new());
    for (r, rel) in db.rel_ids().filter_map(|r| Some((r, db.relation(r)?))) {
        let (a, rm): (Vec<u32>, Vec<u32>) =
            (rel.added_ids().collect(), rel.removed_ids().collect());
        for (ids, set) in [(a, &mut added), (rm, &mut removed)] {
            if !ids.is_empty() {
                set.insert(r, ids);
            }
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

    // The fixpoint engines require a compacted store: tombstones go at
    // the batch boundary.
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
        // T(1,4) derivable through the other (the check must keep it).
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
        // Deleting E(1,2) deletes T(1,2) and T(1,3), which have no other
        // support; the inserted detours 1→4→2 and 1→5→2 derive T(1,2)
        // twice in one round of insert propagation. The insert drops the
        // second derivation and revives the deleted row under its old
        // id; T(1,3) follows one round later.
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

    /// `ring_with_chords(n)` with `V` over the ring and two vertices off
    /// it, so that `G` and `H` of [`TGH`] are not empty.
    fn ring_with_chords_and_vertices(n: i64) -> (Instance, Vec<calm_common::fact::Fact>) {
        let (mut graph, chords) = ring_with_chords(n);
        for v in 0..n + 2 {
            graph.insert(fact("V", [v]));
        }
        (graph, chords)
    }

    #[test]
    fn a_chord_deleted_from_a_dense_view_is_checked_not_rebuilt() {
        // Every T tuple has a derivation through the chord, and every
        // one keeps a derivation without it: the check finds a support
        // for each candidate, deletes nothing and re-evaluates nothing.
        let n = 40;
        let (initial, chords) = ring_with_chords_and_vertices(n);
        let m = Maintained::new(TGH);
        let mut db = m.materialize(&initial);
        let batch = UpdateBatch::deleting([chords[0].clone()]);
        let stats = m.apply(&mut db, &batch);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!((stats.retractions, stats.rederivations), (0, 40));
        let mut edb = initial;
        batch.apply_to_instance(&mut edb);
        assert!(db.same_facts(&m.materialize(&edb)));
    }

    #[test]
    fn guard_reevaluates_a_dense_view_and_the_strata_above_it() {
        // Half the ring and every chord deleted: T loses far more than a
        // quarter of its rows, the check passes the guard's limit, and T
        // is re-evaluated — and G and H above it with it.
        let n = 40;
        let (initial, chords) = ring_with_chords_and_vertices(n);
        let half_ring = (0..n).step_by(2).map(|i| fact("E", [i, (i + 1) % n]));
        let gutted = UpdateBatch::deleting(half_ring.chain(chords.iter().cloned()));
        let m = Maintained::new(TGH);
        let mut db = m.materialize(&initial);
        let stats = m.apply(&mut db, &gutted);
        assert!(m.strata.len() >= 2);
        assert_eq!(stats.fallbacks, m.strata.len());
        assert_eq!((stats.retractions, stats.rederivations), (0, 0));
        let live = (n * n) as usize;
        assert!(stats.derivations > live, "fallback fixpoints are counted");
        // Differential, through the guard and back: the tripping batch,
        // everything back in, a chord batch that is maintained, a batch
        // that changes G and H above T, then small batches on the
        // re-evaluated store (indexes, watermarks and compaction state
        // must all still be valid).
        let cut = UpdateBatch::deleting([fact("E", [0, 1]), chords[1].clone()]);
        let total = check_differential(
            TGH,
            initial.clone(),
            &[
                gutted.clone(),
                UpdateBatch::inserting(gutted.delete.iter().cloned()),
                UpdateBatch::deleting(chords[..3].iter().cloned()),
                cut,
                UpdateBatch::deleting([fact("V", [n + 1])]),
                UpdateBatch::inserting([fact("E", [n, 0])]),
            ],
        );
        assert!(total.fallbacks >= m.strata.len());
        assert!(total.insertions > 0 && total.retractions > 0 && total.rederivations > 0);
    }

    #[test]
    fn the_maintain_delete_batch_deletes_only_the_leaf_rows() {
        // The maintain-delete benchmark's shape: a strongly connected
        // core of 160 vertices (ring and chords) with 8 leaves hanging
        // off it; three chords and one leaf edge go. The chords cost T
        // nothing; the leaf takes its 160 incoming pairs with it.
        let (mut initial, chords) = ring_with_chords(160);
        let leaves: Vec<_> = (0..8).map(|j| fact("E", [20 * j, 160 + j])).collect();
        for leaf in &leaves {
            initial.insert(leaf.clone());
        }
        let batch = UpdateBatch::deleting(chords[..3].iter().chain(&leaves[..1]).cloned());
        let m = Maintained::new(TC);
        let mut db = m.materialize(&initial);
        let stats = m.apply(&mut db, &batch);
        assert_eq!((stats.fallbacks, stats.retractions), (0, 160));
        let mut edb = initial;
        batch.apply_to_instance(&mut edb);
        assert_eq!(db.to_instance(), m.materialize(&edb).to_instance());
    }

    #[test]
    fn a_support_as_long_as_the_graph_is_checked_without_recursion() {
        // Reachability from 0 on a ring of 100 000 vertices with chords
        // 0 → 20 000 k. Without the chord into 60 000, the shallowest
        // support of R(60 000) is the ring back to 40 000: a chain of
        // 20 000 rows checked one below the other. Then a ring edge goes,
        // and the 9 999 rows up to the next chord with it.
        let src = "R(x) :- S(x).\nR(y) :- R(x), E(x,y).";
        let n = 100_000;
        let ring = (0..n).map(|i| fact("E", [i, (i + 1) % n]));
        let chords = (1..5).map(|k| fact("E", [0, 20_000 * k]));
        let initial = Instance::from_facts(ring.chain(chords).chain([fact("S", [0])]));
        let batches = [
            UpdateBatch::deleting([fact("E", [0, 60_000])]),
            UpdateBatch::deleting([fact("E", [70_000, 70_001])]),
        ];
        let m = Maintained::new(src);
        let (mut db, mut edb) = (m.materialize(&initial), initial);
        let mut decided = Vec::new();
        for batch in &batches {
            let s = m.apply(&mut db, batch);
            decided.push((s.fallbacks, s.retractions, s.rederivations));
            batch.apply_to_instance(&mut edb);
            assert!(db.same_facts(&m.materialize(&edb)), "{decided:?}");
        }
        assert_eq!(decided, [(0, 0, 1), (0, 9_999, 1)]);
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
