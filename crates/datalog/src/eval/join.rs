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
//! goes to the caller's sink. The semi-naive fixpoint, naive
//! evaluation, one-shot derivation, ILOG valuation queries and the three
//! DRed phases are all callers; they differ in the path, the view, where
//! the seeding rows come from and what the sink does with a binding.

use super::compile::{Access, AccessPath, ColOp, CompiledAtom, CompiledRule, Slot};
use calm_common::storage::{EvalMetrics, RelId, Relation, Storage, Sym, SymTuple};

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

/// Derived rows awaiting insertion, in emission order, laid out like
/// `transducer::rows::Batch`: the symbols of all rows back to back, one
/// `(relation, arity, end)` header per run of one relation and arity —
/// a buffered row is its symbols, and buffering one allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Derived {
    syms: Vec<Sym>,
    runs: Vec<(RelId, usize, usize)>,
}

impl Derived {
    /// Buffer `row` (arity ≥ 1: the workspace has no nullary relation).
    pub fn push(&mut self, rel: RelId, row: &[Sym]) {
        self.syms.extend_from_slice(row);
        match self.runs.last_mut() {
            Some((r, arity, end)) if *r == rel && *arity == row.len() => *end = self.syms.len(),
            _ => self.runs.push((rel, row.len(), self.syms.len())),
        }
    }

    /// The runs in push order: each relation with its rows of one arity.
    pub fn runs(&self) -> impl Iterator<Item = (RelId, std::slice::ChunksExact<'_, Sym>)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |&(rel, arity, end)| {
            let rows = self.syms[start..end].chunks_exact(arity);
            start = end;
            (rel, rows)
        })
    }

    pub fn clear(&mut self) {
        self.syms.clear();
        self.runs.clear();
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(d: &Derived) -> Vec<(RelId, Vec<Sym>)> {
        (d.runs())
            .flat_map(|(rel, rows)| rows.map(move |row| (rel, row.to_vec())))
            .collect()
    }

    #[test]
    fn derived_runs_break_exactly_where_relation_or_arity_changes() {
        let (e, t) = (RelId(0), RelId(1));
        let pushes: Vec<(RelId, Vec<Sym>)> = [
            (e, &[1, 2][..]),
            (e, &[3, 4]),
            (t, &[5, 6]),
            (t, &[7]),
            (t, &[8]),
            (e, &[9, 1]),
            (e, &[2, 3, 4]),
            (t, &[5, 6]),
        ]
        .iter()
        .map(|&(rel, row)| (rel, row.iter().map(|&s| Sym(s)).collect()))
        .collect();
        let mut d = Derived::default();
        for (rel, row) in &pushes {
            d.push(*rel, row);
        }
        assert_eq!(rows(&d), pushes, "the runs hand rows back in push order");
        assert_eq!(
            d.runs,
            [
                (e, 2, 4),
                (t, 2, 6),
                (t, 1, 8),
                (e, 2, 10),
                (e, 3, 13),
                (t, 2, 15)
            ]
        );
        d.clear();
        assert!(d.syms.is_empty() && d.runs.is_empty());
    }

    #[test]
    fn n_binary_rows_are_2n_symbols_under_one_header() {
        let mut d = Derived::default();
        let n = 1000;
        for i in 0..n {
            d.push(RelId(3), &[Sym(i), Sym(i + 1)]);
        }
        assert_eq!(d.syms.len(), 2 * n as usize);
        assert_eq!(d.runs.len(), 1);
        let (rel, rows) = d.runs().next().unwrap();
        assert_eq!((rel, rows.len()), (RelId(3), n as usize));
    }
}
