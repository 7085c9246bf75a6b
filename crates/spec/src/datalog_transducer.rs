//! Relational transducers (Section 4.1.2) written as Datalog¬ rule sets:
//! what the network compiler emits and the tests write programs in.

use calm_common::fact::{Fact, RelName};
use calm_common::instance::Instance;
use calm_common::storage::{EvalMetrics, RelId, SharedSymbols, SymTuple};
use calm_datalog::eval::{Database, RuleSet};
use calm_datalog::program::Program;
use calm_transducer::{Transducer, TransducerSchema, TransducerStep};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

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
    ///
    /// # Panics
    /// When a rule head is none of those ([`DatalogTransducer::parse`]
    /// returns the error instead).
    pub fn new(name: impl Into<String>, schema: TransducerSchema, rules: Program) -> Self {
        Self::build(name, schema, rules).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse the rule set from Datalog source.
    ///
    /// # Errors
    /// Returns the parser/validation error message, or names a rule head
    /// that is not an output, memory, message or `del_<memory>` relation.
    pub fn parse(
        name: impl Into<String>,
        schema: TransducerSchema,
        src: &str,
    ) -> Result<Self, String> {
        let rules = calm_datalog::parser::parse_program(src).map_err(|e| e.to_string())?;
        Self::build(name, schema, rules)
    }

    fn build(
        name: impl Into<String>,
        schema: TransducerSchema,
        rules: Program,
    ) -> Result<Self, String> {
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
                    return Err(format!(
                        "rule head {head} is not an output/memory/message relation"
                    ));
                };
                routes.insert(table.rel(head), route);
            }
            compiled = RuleSet::new(&rules, &mut table);
        }
        let scratch = Database::with_symbols(symbols.clone());
        Ok(DatalogTransducer {
            schema,
            name: name.into(),
            ctx: Mutex::new(StepContext {
                symbols,
                rules: compiled,
                routes,
                scratch,
            }),
        })
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
        // gone. `sync` retracts exactly the stale rows and keeps
        // unchanged ones interned.
        sync(&mut ctx.scratch, d);
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
                let args = row.iter().map(|&s| table.value(s).clone()).collect();
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

/// Make `db`'s facts exactly those of `i`: insert (or revive) every fact
/// of `i`, retract every live row that is not one of them, then compact
/// the tombstones. An additive load would keep the rows of facts a
/// shrunk instance no longer holds.
fn sync(db: &mut Database, i: &Instance) {
    // Per relation, the row ids that hold a fact of `i`.
    let mut wanted: HashMap<RelId, HashSet<u32>> = HashMap::new();
    let symbols = db.symbols().clone();
    let storage = db.storage_mut();
    {
        let mut table = symbols.write();
        let mut row = SymTuple::new();
        for name in i.relation_names() {
            let r = table.rel(name);
            let ids = wanted.entry(r).or_default();
            for t in i.tuples(name) {
                row.clear();
                row.extend(t.iter().map(|v| table.sym(v)));
                let known = storage.relation(r).and_then(|rel| rel.lookup(&row));
                ids.insert(match known {
                    Some(id) => {
                        storage.revive(r, id);
                        id
                    }
                    None => (storage.insert_id(r, &row)).expect("an absent row is new"),
                });
            }
        }
    }
    let none = HashSet::new();
    let rel_ids: Vec<RelId> = storage.rel_ids().collect();
    for r in rel_ids {
        let keep = wanted.get(&r).unwrap_or(&none);
        let rows = storage.relation(r).map_or(0..0, |rel| rel.rows());
        for id in rows.filter(|id| !keep.contains(id)) {
            storage.retract_id(r, id);
        }
    }
    storage.compact_retractions();
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
    fn sync_drops_stale_rows_and_revives_returning_ones() {
        let mut i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let mut db = Database::from_instance(&i);
        i.remove(&fact("E", [2, 3]));
        sync(&mut db, &i);
        assert_eq!(db.to_instance(), i);
        // Tombstones were compacted away: storage is physically clean.
        assert!(!db.storage().any_dead());
        i.insert(fact("E", [2, 3]));
        i.insert(fact("E", [7, 8]));
        sync(&mut db, &i);
        assert_eq!(db.to_instance(), i);
    }

    #[test]
    #[should_panic(expected = "not an output/memory/message")]
    fn stray_head_rejected() {
        let rules = calm_datalog::parser::parse_program("Other(x) :- E(x,x).").unwrap();
        let _ = DatalogTransducer::new("bad", echo_schema(), rules);
    }

    #[test]
    fn parse_refuses_a_head_outside_the_schema() {
        // A head in no relation of the schema, and a deletion of a
        // relation that is not memory: an error naming the head, not a
        // panic.
        for (src, head) in [
            ("foo(x) :- E(x,y).", "foo"),
            ("del_out_E(x,y) :- E(x,y).", "del_out_E"),
        ] {
            let err = DatalogTransducer::parse("t", echo_schema(), src)
                .err()
                .unwrap_or_else(|| panic!("{src}: accepted"));
            assert!(err.contains(head), "{src}: {err}");
        }
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
