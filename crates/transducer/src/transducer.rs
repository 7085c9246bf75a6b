//! Relational transducers (Section 4.1.2): the per-node program
//! `Π = (Qout, Qins, Qdel, Qsnd)`.

use crate::rows::{fact_of, intern_row, Batch};
use crate::schema::TransducerSchema;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::{QuerySession, RowBatch};
use calm_common::storage::{EvalMetrics, RelId, Relation, Storage, Sym, SymbolTable};

/// The result of one transition's queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransducerStep {
    /// `Qout(D)` — new output facts (over `Υout`; output is cumulative).
    pub out: Instance,
    /// `Qins(D)` — memory insertions (over `Υmem`).
    pub ins: Instance,
    /// `Qdel(D)` — memory deletions (over `Υmem`).
    pub del: Instance,
    /// `Qsnd(D)` — messages sent to every other node (over `Υmsg`).
    pub snd: Instance,
    /// Engine counters for evaluating this step's queries (zero for
    /// native Rust transducers, which bypass the Datalog engine).
    pub metrics: EvalMetrics,
}

/// A relational transducer: four queries over the combined schema
/// `Υin ∪ Υout ∪ Υmsg ∪ Υmem ∪ Υsys`.
///
/// Implementations may be native Rust ([`crate::strategy`]) or Datalog
/// programs (`calm-spec`'s `DatalogTransducer`) — the formal model only
/// requires *queries*, i.e. generic deterministic mappings.
pub trait Transducer: Send + Sync {
    /// The transducer schema.
    fn schema(&self) -> &TransducerSchema;

    /// Evaluate the four queries on the visible database `D` of one
    /// transition. Stateless: this is the *specification* of the
    /// program; a running node goes through [`Transducer::open`].
    fn step(&self, d: &Instance) -> TransducerStep;

    /// A display name for reports.
    fn name(&self) -> &str {
        "transducer"
    }

    /// Open the program of one node, whose rows are over `table` (a
    /// program interns the relation names it works with here, once).
    /// The default is the adapter that calls the stateless
    /// [`step`](Transducer::step) on `D ∪ M` at every transition; a
    /// transducer whose memory only grows overrides it with a program
    /// that handles each new row once.
    fn open(&self, _table: &mut SymbolTable) -> Box<dyn NodeProgram + '_> {
        Box::new(Stateless {
            transducer: self,
            d: None,
        })
    }
}

/// What a node's program is shown at one transition, in rows over the
/// node's symbol table, and the three doors its answer leaves through:
/// [`NodeView::insert`] (`Qout`, `Qins` — written into `D` directly,
/// where the node reads back what the step added), [`NodeView::retract`]
/// (`Qdel`) and [`NodeView::send`] (`Qsnd`).
pub struct NodeView<'v> {
    /// The table every row of the node is over.
    pub table: &'v mut SymbolTable,
    /// `D` without the delivered messages: `H(x) ∪ s(x) ∪ S`.
    d: &'v mut Storage,
    /// The system relations (`Id`, `All`, `MyAdom`, `policy_R`): their
    /// rows past the delta watermark joined `D` since the program's
    /// previous call — all of `S` on its first.
    sys: &'v [RelId],
    /// `M`: the distinct message rows delivered at this transition.
    delivered: &'v Storage,
    sent: &'v mut Batch,
    /// Row buffer of [`NodeView::for_rows`].
    scratch: Vec<Sym>,
}

impl<'v> NodeView<'v> {
    pub(crate) fn new(
        table: &'v mut SymbolTable,
        d: &'v mut Storage,
        sys: &'v [RelId],
        delivered: &'v Storage,
        sent: &'v mut Batch,
    ) -> Self {
        NodeView {
            table,
            d,
            sys,
            delivered,
            sent,
            scratch: Vec::new(),
        }
    }

    /// `H(x) ∪ s(x) ∪ S`, this step's insertions included. On its first
    /// call a program reads what it needs from here; later the new
    /// system rows, `M` and its own earlier answers are all that
    /// changed.
    pub fn d(&self) -> &Storage {
        self.d
    }

    /// `M`. (The reference outlives the view's borrow: rows of `M` can
    /// be walked while the view is written to.)
    pub fn delivered(&self) -> &'v Storage {
        self.delivered
    }

    /// The ids of all rows of relation `r` in `D`.
    pub(crate) fn all_ids(&self, r: RelId) -> std::ops::Range<u32> {
        self.d.relation(r).map_or(0..0, |rel| rel.rows())
    }

    /// The ids of the rows of system relation `r` that are new to this
    /// call.
    pub(crate) fn new_ids(&self, r: RelId) -> std::ops::Range<u32> {
        self.d.relation(r).map_or(0..0, |rel| rel.delta_rows())
    }

    /// Call `f` on the rows `ids` of relation `r`, each copied out of
    /// `D` first — so `f` may write to the view.
    pub(crate) fn for_rows(
        &mut self,
        r: RelId,
        ids: std::ops::Range<u32>,
        mut f: impl FnMut(&mut Self, &[Sym]),
    ) {
        let mut row = std::mem::take(&mut self.scratch);
        for id in ids {
            row.clear();
            row.extend_from_slice(self.d.relation(r).expect("ids of its rows").row(id));
            f(self, &row);
        }
        self.scratch = row;
    }

    /// Store a row of an output or memory relation; `true` when new.
    pub fn insert(&mut self, r: RelId, row: &[Sym]) -> bool {
        self.d.insert(r, row)
    }

    /// Delete a row of a memory relation; `true` when it was there. The
    /// node starts over from `(H(x), s(x))` after a step that deleted.
    pub fn retract(&mut self, r: RelId, row: &[Sym]) -> bool {
        self.d.retract(r, row)
    }

    /// Send a row of a message relation to every other node. A program
    /// sends a row at most once per step.
    pub fn send(&mut self, r: RelId, row: &[Sym]) {
        self.sent.push(r, row);
    }

    /// Fold batch `b` into session `q`, and store each row its answer grew
    /// by in the relation `out` pairs its relation with (`R` with `out_R`).
    pub(crate) fn answer(
        &mut self,
        q: &mut dyn QuerySession,
        b: &RowBatch,
        out: &[(RelId, RelId)],
    ) {
        let NodeView { table, d, .. } = self;
        q.apply(table, b, &mut |r, row| {
            if let Some(&(_, to)) = out.iter().find(|&&(from, _)| from == r) {
                d.insert(to, row);
            }
        });
    }

    /// Take the row `f` stands for — interned here — through one of the
    /// three doors: the way a program specified on facts answers.
    fn through<R>(&mut self, f: &Fact, door: impl FnOnce(&mut Self, RelId, &[Sym]) -> R) -> R {
        let mut row = std::mem::take(&mut self.scratch);
        let r = intern_row(self.table, f.relation(), f.args(), &mut row);
        let answer = door(self, r, &row);
        self.scratch = row;
        answer
    }
}

/// One node's program across its transitions — the stateful form of a
/// [`Transducer`]. The engine opens one per node and drops it whenever
/// the node's state stopped being an extension of what the program has
/// seen (a deletion, a restore): a program may assume that between two
/// of its calls `D` changed only by the new system rows and by what it
/// inserted itself.
pub trait NodeProgram {
    /// The transition's queries, as [`Transducer::step`] on `D ∪ M`
    /// would answer them, through the view's doors: every `Qsnd` row
    /// sent, every `Qdel` row that is not also inserted retracted, and
    /// of `Qout` and `Qins` at least the rows not yet in `D` inserted
    /// (`D` is a set, so repeating one is harmless). Returns the engine
    /// counters of the evaluation.
    fn advance(&mut self, view: &mut NodeView<'_>) -> EvalMetrics;
}

/// The default [`NodeProgram`], and the edge between a node's rows and
/// every transducer *specified* on an [`Instance`]: it keeps the
/// `Instance` form of `D` — built from the rows on its first call,
/// extended afterwards by the new system rows and by what the step
/// itself answered, which is all that can have changed — and runs the
/// stateless step on it at every transition.
struct Stateless<'t, T: ?Sized> {
    transducer: &'t T,
    d: Option<Instance>,
}

/// The facts that the rows `ids(r, relation)` of each relation of `store`
/// stand for.
fn facts(
    table: &SymbolTable,
    store: &Storage,
    ids: impl Fn(RelId, &Relation) -> std::ops::Range<u32>,
) -> Vec<Fact> {
    let mut out = Vec::new();
    for r in store.rel_ids() {
        let rel = store.relation(r).expect("a listed relation");
        out.extend(ids(r, rel).map(|id| fact_of(table, r, rel.row(id))));
    }
    out
}

impl<T: Transducer + ?Sized> NodeProgram for Stateless<'_, T> {
    fn advance(&mut self, view: &mut NodeView<'_>) -> EvalMetrics {
        let d = match &mut self.d {
            None => {
                let all = facts(view.table, view.d, |_, rel| rel.rows());
                self.d.insert(all.into_iter().collect())
            }
            Some(d) => {
                d.extend(facts(view.table, view.d, |r, rel| {
                    match view.sys.contains(&r) {
                        true => rel.delta_rows(),
                        false => 0..0,
                    }
                }));
                d
            }
        };
        // `D ∪ M`, the database the stateless step is defined on: the
        // delivered facts join `D` for the call and leave it again.
        let delivered = facts(view.table, view.delivered, |_, rel| rel.rows());
        let added: Vec<Fact> = (delivered.into_iter())
            .filter(|m| d.insert(m.clone()))
            .collect();
        let step = self.transducer.step(d);
        for m in &added {
            d.remove(m);
        }
        // s' = (s ∪ out ∪ (ins \ del)) \ (del \ ins), on both forms.
        let (ins, del) = match step.del.is_empty() {
            true => (step.ins, step.del),
            false => (
                step.ins.difference(&step.del),
                step.del.difference(&step.ins),
            ),
        };
        for f in del {
            if d.remove(&f) {
                view.through(&f, |view, r, row| view.retract(r, row));
            }
        }
        for f in step.out.into_iter().chain(ins) {
            if d.insert(f.clone()) {
                view.through(&f, |view, r, row| view.insert(r, row));
            }
        }
        for f in step.snd {
            view.through(&f, |view, r, row| view.send(r, row));
        }
        step.metrics
    }
}
