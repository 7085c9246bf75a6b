//! The join kernel: the one loop in the workspace that enumerates the
//! body valuations of a rule.
//!
//! A [`Join`] walks one [`AccessPath`] of one [`CompiledRule`] — planned
//! at compile time, so the loop neither tests for boundness nor undoes
//! bindings — over one [`View`] of a store: the seeded atom (if the
//! path has one) is matched against a row handed in by the caller, every
//! other positive atom is reached by a membership lookup (fully bound),
//! a hash-index probe (some column bound) or a scan, and at the body's
//! end inequalities and negative atoms are checked before the binding
//! goes to the caller's sink. The semi-naive fixpoint, one-shot
//! derivation, ILOG valuation queries and the steps of incremental
//! maintenance are all callers; they differ in the path, the view,
//! where the seeding rows come from and what the sink does.

use super::compile::{Access, AccessPath, ColOp, CompiledAtom, CompiledRule, Slot};
use calm_common::storage::{EvalMetrics, Relation, Storage, Sym, SymTuple};

/// Which contents of the store a join ranges over, as a filter on row
/// ids: a retraction leaves a tombstone whose id the indexes keep and
/// new rows are appended, so no view is ever a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) enum View {
    /// The contents at the last watermark move
    /// ([`Relation::live_at_mark`]).
    Old,
    /// The current contents ([`Relation::is_live`]).
    New,
}

impl View {
    fn sees(self, rel: &Relation, id: u32) -> bool {
        match self {
            View::Old => rel.live_at_mark(id),
            View::New => rel.is_live(id),
        }
    }
}

fn val(slot: Slot, binding: &[Sym]) -> Sym {
    match slot {
        Slot::Const(c) => c,
        Slot::Var(i) => binding[i],
    }
}

/// Overwrite `out` with `atom` under `binding` (every variable of the
/// atom bound): a head to emit, a key to look up.
pub(crate) fn instantiate(atom: &CompiledAtom, binding: &[Sym], out: &mut SymTuple) {
    out.clear();
    out.extend(atom.slots.iter().map(|&s| val(s, binding)));
}

/// Run a column program over `row`: bind first occurrences, compare
/// the rest. Slots bound by a failed match are never read.
fn matches(cols: &[ColOp], row: &[Sym], binding: &mut [Sym]) -> bool {
    row.len() == cols.len()
        && cols.iter().zip(row).all(|(op, &s)| match *op {
            ColOp::Bind(i) => {
                binding[i] = s;
                true
            }
            ColOp::Eq(slot) => val(slot, binding) == s,
        })
}

/// One enumeration of a rule's body valuations along one access path.
pub(crate) struct Join<'a> {
    rule: &'a CompiledRule,
    path: &'a AccessPath,
    /// Where the positive atoms range.
    storage: &'a Storage,
    /// Where the negative atoms are checked: `storage` itself, or the
    /// frozen approximation of the alternating fixpoint.
    neg: &'a Storage,
    view: View,
    /// One symbol per variable slot; a slot is only read after the
    /// path bound it.
    binding: Vec<Sym>,
    /// Scratch tuple for membership lookups.
    key: SymTuple,
    /// Row-id range of a seedless path's leading scan (see
    /// [`Join::all`]).
    chunk: Option<(usize, usize)>,
    /// Body valuations enumerated so far.
    pub derivations: usize,
    /// Probes issued against a built hash index, and the candidate ids
    /// they returned. Lookups and scans (a probe of a column without
    /// an index included) count nothing.
    index_probes: usize,
    index_hits: usize,
}

impl<'a> Join<'a> {
    pub fn new(
        rule: &'a CompiledRule,
        path: &'a AccessPath,
        storage: &'a Storage,
        neg: &'a Storage,
        view: View,
    ) -> Self {
        Join {
            rule,
            path,
            storage,
            neg,
            view,
            binding: vec![Sym(0); rule.nvars],
            key: SymTuple::new(),
            chunk: None,
            derivations: 0,
            index_probes: 0,
            index_hits: 0,
        }
    }

    /// Add this join's counters to `metrics`.
    pub fn tally(&self, metrics: &mut EvalMetrics) {
        metrics.derivations += self.derivations;
        metrics.index_probes += self.index_probes;
        metrics.index_hits += self.index_hits;
    }

    /// Whether the (fully bound) atom holds in the view of `storage`.
    fn holds(&mut self, atom: &CompiledAtom, storage: &Storage) -> bool {
        instantiate(atom, &self.binding, &mut self.key);
        storage.relation(atom.relation).is_some_and(|rel| {
            rel.lookup(&self.key)
                .is_some_and(|id| self.view.sees(rel, id))
        })
    }

    /// Enumerate the valuations whose seeded atom is `row`. `sink`
    /// receives each full binding and returns `false` to stop; so does
    /// this, when stopped.
    pub fn seeded(&mut self, row: &[Sym], sink: &mut dyn FnMut(&[Sym]) -> bool) -> bool {
        !matches(&self.path.seed, row, &mut self.binding) || self.step(0, sink)
    }

    /// Enumerate every valuation of a seedless path. `chunk` restricts
    /// a leading scan to the row ids `[start, end)` — one partition of
    /// a data-parallel unit.
    pub fn all(
        &mut self,
        chunk: Option<(usize, usize)>,
        sink: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        debug_assert!(
            self.path.seed.is_empty(),
            "a seeded path needs its seed row"
        );
        self.chunk = chunk;
        self.step(0, sink)
    }

    fn step(&mut self, k: usize, sink: &mut dyn FnMut(&[Sym]) -> bool) -> bool {
        let (rule, storage, neg) = (self.rule, self.storage, self.neg);
        let Some(step) = self.path.steps.get(k) else {
            // Body end: inequalities and negative atoms, all bound.
            let b = &self.binding;
            if rule.ineq.iter().any(|&(l, r)| val(l, b) == val(r, b))
                || rule.neg.iter().any(|atom| self.holds(atom, neg))
            {
                return true;
            }
            self.derivations += 1;
            return sink(&self.binding);
        };
        let atom = &rule.pos[step.atom];
        let Some(rel) = storage.relation(atom.relation) else {
            return true;
        };
        let mut visit = |join: &mut Self, id: u32| {
            !join.view.sees(rel, id)
                || !matches(&step.cols, rel.row(id), &mut join.binding)
                || join.step(k + 1, sink)
        };
        let index = match step.access {
            Access::Lookup => return !self.holds(atom, storage) || self.step(k + 1, sink),
            Access::Probe(col) => rel.probe(col, val(atom.slots[col], &self.binding)),
            Access::Scan => None,
        };
        match index {
            Some(ids) => {
                self.index_probes += 1;
                self.index_hits += ids.len();
                ids.iter().all(|&id| visit(self, id))
            }
            None => {
                let whole = (0, rel.rows().len());
                let (start, end) = if k == 0 {
                    self.chunk.unwrap_or(whole)
                } else {
                    whole
                };
                (start as u32..end as u32).all(|id| visit(self, id))
            }
        }
    }
}
