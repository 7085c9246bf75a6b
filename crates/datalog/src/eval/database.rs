//! The engine's internal relation store, backed by the shared
//! evaluation substrate ([`calm_common::storage`]).
//!
//! A [`Database`] couples a [`Storage`] (interned, indexed, delta-tracked
//! rows) with the [`SharedSymbols`] table its rows are interned against.
//! Unlike [`Instance`] (which is ordered for determinism), row storage is
//! hash-based for speed; results are converted back to instances at the
//! evaluation edges only.

use crate::parser::{scan_facts, GroundTerm, ParseError};
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_common::storage::{
    load_instance, store_to_instance, store_to_instance_restricted, RelId, SharedSymbols, Storage,
    SymTuple, SymbolTable,
};
use calm_common::value::Value;
use calm_obs::Obs;

/// The facts [`Database::read_facts`] has scanned and not yet loaded.
/// They are interned and inserted a few hundred at a time, in file
/// order: a probe of the symbol table or of a relation's id table is a
/// cache miss on a large input, and a loop of nothing but probes keeps
/// many of them in flight where one probe per scanned fact waits for
/// each.
#[derive(Default)]
struct Pending<'a> {
    /// The terms of the pending facts, back to back.
    terms: Vec<GroundTerm<'a>>,
    /// Per pending fact: its relation and where its terms end.
    facts: Vec<(RelId, usize)>,
    /// The symbols of `terms`, while they are being loaded.
    syms: SymTuple,
}

impl Pending<'_> {
    /// How many facts wait for each other: enough to fill the
    /// processor's window with probes; 64 to 1 024 read the same.
    const FACTS: usize = 256;

    /// Intern every pending term, then insert every pending row.
    fn load(&mut self, table: &mut SymbolTable, storage: &mut Storage) {
        self.syms.clear();
        self.syms.extend(self.terms.iter().map(|t| match *t {
            GroundTerm::Int(i) => table.sym_int(i),
            GroundTerm::Str(text) => table.sym_str(text),
        }));
        let mut start = 0;
        for &(relation, end) in &self.facts {
            storage.insert(relation, &self.syms[start..end]);
            start = end;
        }
        self.terms.clear();
        self.facts.clear();
    }
}

/// A mutable store of relations used during evaluation.
#[derive(Debug, Clone, Default)]
pub struct Database {
    symbols: SharedSymbols,
    storage: Storage,
}

impl Database {
    /// An empty database over a fresh symbol table.
    pub fn new() -> Self {
        Database::default()
    }

    /// An empty database over an existing (shared) symbol table.
    pub fn with_symbols(symbols: SharedSymbols) -> Self {
        Database {
            symbols,
            storage: Storage::new(),
        }
    }

    /// Load an instance into a fresh database.
    pub fn from_instance(i: &Instance) -> Self {
        Database::from_instance_with(i, SharedSymbols::new())
    }

    /// Load an instance into a fresh database over an existing table.
    pub fn from_instance_with(i: &Instance, symbols: SharedSymbols) -> Self {
        let mut db = Database::with_symbols(symbols);
        load_instance(i, &db.symbols, &mut db.storage);
        db
    }

    /// Read ground facts in the [`crate::parse_facts`] grammar straight
    /// into this database: the one facts scanner, with a sink that
    /// interns each term from its borrowed form under a single write
    /// lock and inserts each row into storage — no [`Instance`], fact,
    /// [`Value`] or value tuple in between — with `only`, the facts
    /// [`Instance::restrict`] would keep of them. Rows arrive in file
    /// order; duplicates are dropped by storage as everywhere. Reports the
    /// span `eval/read_facts` and the counters `eval/facts_read`,
    /// `eval/bytes_in`, `eval/rows_loaded` (the facts kept less the
    /// duplicates) and `eval/symbols` (the distinct values the table
    /// holds afterwards) to `obs`.
    ///
    /// # Errors
    /// The scanner's [`ParseError`]; the facts before it are loaded.
    pub fn read_facts(
        &mut self,
        src: &str,
        only: Option<&Schema>,
        obs: &Obs,
    ) -> Result<(), ParseError> {
        let _span = obs.span("eval", || "read_facts".into());
        let mut table = self.symbols.write();
        let storage = &mut self.storage;
        let rows_before = storage.len();
        // Facts of one relation come in runs: resolve a name once per run,
        // to its id and the arity `only` reads (`Some(None)`: none).
        let mut run: Option<(&str, RelId, Option<Option<usize>>)> = None;
        // How many facts follow, at a guess — one per `(`, no more than
        // fit in `src` at five bytes each (`E(1).`) — for the relation of
        // the first of them to be sized once. Nothing depends on it.
        let guess = (src.bytes().filter(|&b| b == b'(').count()).min(src.len() / 5);
        let mut pending = Pending::default();
        let scanned = scan_facts(src, |name, terms| {
            let (relation, read) = match run {
                Some((known, id, read)) if known == name => (id, read),
                _ => {
                    let (id, read) = (table.rel(name), only.map(|schema| schema.arity(name)));
                    if run.is_none() && read != Some(None) {
                        // A term is two bytes at least (`1,`).
                        let arity = terms.len().min(src.len() / 2 / guess.max(1));
                        storage.relation_mut(id).reserve(guess, arity);
                    }
                    run = Some((name, id, read));
                    (id, read)
                }
            };
            if read.is_some_and(|arity| arity != Some(terms.len())) {
                return;
            }
            pending.terms.extend_from_slice(terms);
            pending.facts.push((relation, pending.terms.len()));
            if pending.facts.len() == Pending::FACTS {
                pending.load(&mut table, storage);
            }
        });
        pending.load(&mut table, storage);
        let facts = scanned?;
        obs.counter("eval", "facts_read", facts as u64);
        obs.counter("eval", "bytes_in", src.len() as u64);
        obs.counter("eval", "rows_loaded", (storage.len() - rows_before) as u64);
        obs.counter("eval", "symbols", table.sym_count() as u64);
        Ok(())
    }

    /// Convert back to a deterministic instance.
    pub fn to_instance(&self) -> Instance {
        store_to_instance(&self.storage, &self.symbols)
    }

    /// Convert only the relations of `schema` back to an instance —
    /// equivalent to `self.to_instance().restrict(schema)` without
    /// uninterning the rows that restriction would drop.
    pub fn to_instance_restricted(&self, schema: &Schema) -> Instance {
        store_to_instance_restricted(&self.storage, &self.symbols, schema)
    }

    /// The symbol table shared by this database.
    pub fn symbols(&self) -> &SharedSymbols {
        &self.symbols
    }

    /// The underlying storage.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to the underlying storage.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Insert a tuple by relation name, interning it; returns `true` if
    /// new. Edge/test convenience — hot paths insert interned rows.
    pub fn insert_values(&mut self, relation: &str, tuple: Vec<Value>) -> bool {
        let mut table = self.symbols.write();
        let r = table.rel(relation);
        let row: SymTuple = tuple.iter().map(|v| table.sym(v)).collect();
        drop(table);
        self.storage.insert(r, &row)
    }

    /// Whether two databases over the same symbol table hold the same
    /// facts (no [`Instance`] round-trip).
    pub fn same_facts(&self, other: &Database) -> bool {
        assert!(
            self.symbols.same_table(&other.symbols),
            "same_facts requires databases sharing one symbol table"
        );
        self.storage.same_facts(&other.storage)
    }

    /// Total number of tuples — O(1).
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the database holds no tuples — O(1).
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::value::v;

    #[test]
    fn round_trips_instances() {
        let i = Instance::from_facts([fact("E", [1, 2]), fact("V", [7])]);
        let db = Database::from_instance(&i);
        assert_eq!(db.len(), 2);
        assert_eq!(db.to_instance(), i);
    }

    #[test]
    fn insert_reports_novelty() {
        let mut db = Database::new();
        assert!(db.insert_values("E", vec![v(1), v(2)]));
        assert!(!db.insert_values("E", vec![v(1), v(2)]));
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn same_facts_across_shared_tables() {
        let symbols = SharedSymbols::new();
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let a = Database::from_instance_with(&i, symbols.clone());
        let mut b = Database::with_symbols(symbols);
        assert!(!a.same_facts(&b));
        b.insert_values("E", vec![v(2), v(3)]);
        b.insert_values("E", vec![v(1), v(2)]);
        assert!(a.same_facts(&b));
    }

    #[test]
    #[should_panic(expected = "sharing one symbol table")]
    fn same_facts_rejects_foreign_tables() {
        let a = Database::from_instance(&Instance::from_facts([fact("E", [1, 2])]));
        let b = Database::from_instance(&Instance::from_facts([fact("E", [1, 2])]));
        a.same_facts(&b);
    }
}
