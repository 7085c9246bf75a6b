//! Relational transducers (Section 4.1.2): the per-node program
//! `Π = (Qout, Qins, Qdel, Qsnd)`.

use crate::rows::{fact_of, intern_row, values_of, Batch};
use crate::schema::TransducerSchema;
use calm_common::fact::{Fact, RelName};
use calm_common::instance::Instance;
use calm_common::query::{QuerySession, RowBatch};
use calm_common::storage::{
    EvalMetrics, RelId, Relation, SharedSymbols, Storage, Sym, SymbolTable,
};
use calm_datalog::eval::{Database, RuleSet};
use calm_datalog::program::Program;
use std::collections::HashMap;
use std::sync::Mutex;

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
/// Implementations may be Datalog programs ([`DatalogTransducer`]) or
/// native Rust ([`crate::strategy`]) — the formal model only requires
/// *queries*, i.e. generic deterministic mappings.
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
    pub fn all_ids(&self, r: RelId) -> std::ops::Range<u32> {
        self.d.relation(r).map_or(0..0, |rel| rel.rows())
    }

    /// The ids of the rows of system relation `r` that are new to this
    /// call.
    pub fn new_ids(&self, r: RelId) -> std::ops::Range<u32> {
        self.d.relation(r).map_or(0..0, |rel| rel.delta_rows())
    }

    /// Call `f` on the rows `ids` of relation `r`, each copied out of
    /// `D` first — so `f` may write to the view.
    pub fn for_rows(
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

/// A transducer whose four queries are (unions of) non-recursive Datalog¬
/// rule sets, evaluated in one shot over `D`. Rules whose heads are over
/// `Υout`/`Υmem`/`Υmsg` feed `Qout`/`Qins`/`Qsnd`; deletion rules use
/// head relations prefixed `del_` (targeting the memory relation after
/// the prefix).
pub struct DatalogTransducer {
    schema: TransducerSchema,
    name: String,
    /// Per-transducer evaluation state reused across transitions: the
    /// symbol table, the compiled rule set, head-relation routing by
    /// interned id, and a scratch database whose allocations survive
    /// `clear()`. A `Mutex` keeps `step(&self)` shareable across the
    /// simulator's threads without rebuilding any of it per transition.
    ctx: Mutex<StepContext>,
}

/// Where facts derived for a head relation go in a [`TransducerStep`].
enum Route {
    Out,
    Snd,
    Ins,
    /// `del_<base>` head: route to `del`, renamed to the base relation.
    Del(RelName),
}

struct StepContext {
    symbols: SharedSymbols,
    rules: RuleSet,
    routes: HashMap<RelId, Route>,
    scratch: Database,
}

impl DatalogTransducer {
    /// Build from a rule set. Head relations must lie in `Υout`, `Υmem`,
    /// `Υmsg`, or be `del_<mem-relation>`.
    pub fn new(name: impl Into<String>, schema: TransducerSchema, rules: Program) -> Self {
        let symbols = SharedSymbols::new();
        let compiled;
        let mut routes = HashMap::new();
        {
            let mut table = symbols.write();
            for rule in rules.rules() {
                let head = rule.head.relation.as_ref();
                let route = if schema.output.contains(head) {
                    Route::Out
                } else if schema.mem.contains(head) {
                    Route::Ins
                } else if schema.msg.contains(head) {
                    Route::Snd
                } else if let Some(base) = head
                    .strip_prefix("del_")
                    .filter(|base| schema.mem.contains(base))
                {
                    Route::Del(calm_common::fact::rel(base))
                } else {
                    panic!("rule head {head} is not an output/memory/message relation");
                };
                routes.insert(table.rel(head), route);
            }
            compiled = RuleSet::new(&rules, &mut table);
        }
        let scratch = Database::with_symbols(symbols.clone());
        DatalogTransducer {
            schema,
            name: name.into(),
            ctx: Mutex::new(StepContext {
                symbols,
                rules: compiled,
                routes,
                scratch,
            }),
        }
    }

    /// Parse the rule set from Datalog source.
    ///
    /// # Errors
    /// Returns the parser/validation error message.
    pub fn parse(
        name: impl Into<String>,
        schema: TransducerSchema,
        src: &str,
    ) -> Result<Self, String> {
        let rules = calm_datalog::parser::parse_program(src).map_err(|e| e.to_string())?;
        Ok(DatalogTransducer::new(name, schema, rules))
    }
}

impl Transducer for DatalogTransducer {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        let mut guard = self.ctx.lock().expect("step context");
        let ctx = &mut *guard;
        // Diff-reload, not `clear()` + additive `load()`: the scratch
        // database persists across transitions, and `load` alone would
        // keep rows the instance no longer holds (deleted memory or
        // consumed messages), deriving from facts whose supports are
        // gone. `sync_with_instance` retracts exactly the stale rows
        // and keeps unchanged ones interned.
        ctx.scratch.sync_with_instance(d);
        let mut step = TransducerStep::default();
        let mut metrics = EvalMetrics::default();
        // One read lock across the whole derivation: rows are uninterned
        // as they are emitted, no intermediate Database or Instance.
        let table = ctx.symbols.read();
        ctx.rules
            .derive(&ctx.scratch, &mut metrics, &mut |rel, row| {
                let Some(route) = ctx.routes.get(&rel) else {
                    return;
                };
                let args = values_of(&table, row);
                let (to, name) = match route {
                    Route::Out => (&mut step.out, table.rel_name(rel)),
                    Route::Snd => (&mut step.snd, table.rel_name(rel)),
                    Route::Ins => (&mut step.ins, table.rel_name(rel)),
                    Route::Del(base) => (&mut step.del, base),
                };
                to.insert(Fact::from_rel(name.clone(), args));
            });
        drop(table);
        step.metrics = metrics;
        step
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::schema::Schema;

    fn echo_schema() -> TransducerSchema {
        TransducerSchema::new(
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("out_E", 2)]),
            Schema::from_pairs([("msg_E", 2)]),
            Schema::from_pairs([("seen", 2)]),
        )
    }

    #[test]
    fn datalog_transducer_routes_heads() {
        let t = DatalogTransducer::parse(
            "echo",
            echo_schema(),
            "out_E(x,y) :- E(x,y).\n\
             msg_E(x,y) :- E(x,y).\n\
             seen(x,y) :- msg_E(x,y).",
        )
        .unwrap();
        let d = Instance::from_facts([fact("E", [1, 2]), fact("msg_E", [3, 4])]);
        let step = t.step(&d);
        assert_eq!(step.out, Instance::from_facts([fact("out_E", [1, 2])]));
        assert_eq!(step.snd, Instance::from_facts([fact("msg_E", [1, 2])]));
        assert_eq!(step.ins, Instance::from_facts([fact("seen", [3, 4])]));
        assert!(step.del.is_empty());
    }

    #[test]
    fn deletion_rules_use_del_prefix() {
        let t = DatalogTransducer::parse(
            "forgetter",
            echo_schema(),
            "del_seen(x,y) :- seen(x,y), E(x,y).",
        )
        .unwrap();
        let d = Instance::from_facts([fact("seen", [1, 2]), fact("E", [1, 2])]);
        let step = t.step(&d);
        assert_eq!(step.del, Instance::from_facts([fact("seen", [1, 2])]));
    }

    #[test]
    fn step_after_fact_removal_drops_stale_derivations() {
        // Regression for the Instance::remove / scratch-Database
        // mismatch: the StepContext database persists across steps, so
        // a step over a shrunk instance must not keep deriving from the
        // removed fact's old row.
        let t = DatalogTransducer::parse("echo", echo_schema(), "out_E(x,y) :- E(x,y).").unwrap();
        let mut d = Instance::from_facts([fact("E", [1, 2]), fact("E", [3, 4])]);
        assert_eq!(t.step(&d).out.relation_len("out_E"), 2);
        d.remove(&fact("E", [3, 4]));
        let step = t.step(&d);
        assert_eq!(
            step.out,
            Instance::from_facts([fact("out_E", [1, 2])]),
            "removed fact must stop feeding derivations"
        );
        // And re-adding works too (revive path).
        d.insert(fact("E", [3, 4]));
        assert_eq!(t.step(&d).out.relation_len("out_E"), 2);
    }

    #[test]
    #[should_panic(expected = "not an output/memory/message")]
    fn stray_head_rejected() {
        let rules = calm_datalog::parser::parse_program("Other(x) :- E(x,x).").unwrap();
        let _ = DatalogTransducer::new("bad", echo_schema(), rules);
    }

    #[test]
    fn system_relations_readable() {
        let t = DatalogTransducer::parse(
            "id-echo",
            TransducerSchema::new(
                Schema::from_pairs([("E", 2)]),
                Schema::from_pairs([("out_owner", 2)]),
                Schema::new(),
                Schema::new(),
            ),
            "out_owner(n, x) :- Id(n), E(x, y).",
        )
        .unwrap();
        let d = Instance::from_facts([
            fact("E", [1, 2]),
            calm_common::fact::Fact::new("Id", vec![calm_common::value::Value::str("n1")]),
        ]);
        let step = t.step(&d);
        assert_eq!(step.out.relation_len("out_owner"), 1);
    }
}
