//! Relational transducers (Section 4.1.2): the per-node program
//! `Π = (Qout, Qins, Qdel, Qsnd)`.

use crate::schema::TransducerSchema;
use calm_common::fact::{Fact, RelName};
use calm_common::instance::Instance;
use calm_common::storage::{EvalMetrics, RelId, SharedSymbols};
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

    /// Open the program of one node. The default calls the stateless
    /// [`step`](Transducer::step) on `D ∪ M` at every transition; a
    /// transducer whose memory only grows overrides it with a program
    /// that handles each new fact once.
    fn open(&self) -> Box<dyn NodeProgram + '_> {
        Box::new(Stateless(self))
    }
}

/// What a node's program is shown at one transition.
pub struct NodeView<'v> {
    /// `D` without the delivered messages: `H(x) ∪ s(x) ∪ S`.
    d: &'v mut Instance,
    /// The system facts (`Id`, `All`, `MyAdom`, `policy_R`) that joined
    /// `D` since the program's previous call — all of `S` on its first.
    pub new_sys: &'v Instance,
    /// `M`: the distinct message facts delivered at this transition.
    pub delivered: &'v [Fact],
}

impl<'v> NodeView<'v> {
    pub(crate) fn new(d: &'v mut Instance, new_sys: &'v Instance, delivered: &'v [Fact]) -> Self {
        NodeView {
            d,
            new_sys,
            delivered,
        }
    }

    /// `H(x) ∪ s(x) ∪ S`. On its first call a program reads what it
    /// needs from here; later `new_sys`, `delivered` and its own earlier
    /// answers are all that changed.
    pub fn d(&self) -> &Instance {
        self.d
    }

    /// Run `f` on `D ∪ M`, the database the stateless
    /// [`Transducer::step`] is defined on: the delivered facts join `D`
    /// for the call and leave it again.
    pub fn with_delivered<R>(&mut self, f: impl FnOnce(&Instance) -> R) -> R {
        let delivered = self.delivered;
        let added: Vec<&Fact> = (delivered.iter())
            .filter(|m| self.d.insert((*m).clone()))
            .collect();
        let result = f(self.d);
        for m in added {
            self.d.remove(m);
        }
        result
    }
}

/// One node's program across its transitions — the stateful form of a
/// [`Transducer`]. The engine opens one per node and drops it whenever
/// the node's state stopped being an extension of what the program has
/// seen (a deletion, a restore): a program may assume that between two
/// of its calls `D` changed only by [`NodeView::new_sys`] and by the
/// `out`/`ins` it returned itself.
pub trait NodeProgram {
    /// The transition's queries, as [`Transducer::step`] on `D ∪ M`
    /// would answer them, minus what is in the state already: `snd` and
    /// `del` exactly, `out` and `ins` at least the facts not yet in `D`
    /// (the engine folds them into a set, so repeating one is harmless).
    fn advance(&mut self, view: &mut NodeView<'_>) -> TransducerStep;
}

/// The default [`NodeProgram`]: no memory of its own, the stateless
/// step at every transition.
struct Stateless<'t, T: ?Sized>(&'t T);

impl<T: Transducer + ?Sized> NodeProgram for Stateless<'_, T> {
    fn advance(&mut self, view: &mut NodeView<'_>) -> TransducerStep {
        view.with_delivered(|d| self.0.step(d))
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
                let args: Vec<_> = row.iter().map(|s| table.value(*s).clone()).collect();
                match route {
                    Route::Out => step.out.insert(Fact::new(table.rel_name(rel), args)),
                    Route::Snd => step.snd.insert(Fact::new(table.rel_name(rel), args)),
                    Route::Ins => step.ins.insert(Fact::new(table.rel_name(rel), args)),
                    Route::Del(base) => step.del.insert(Fact::new(base, args)),
                };
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
