//! The abstract query interface (Section 2: "Computing Queries").
//!
//! A query is a generic mapping from instances over an input schema to
//! instances over an output schema. Everything downstream — the Datalog
//! engine, the native query implementations, the monotonicity checkers and
//! the transducer strategies — speaks this trait.

use crate::fact::Fact;
use crate::instance::Instance;
use crate::schema::Schema;
use crate::storage::{RelId, Rows, Sym, SymbolTable};

/// A query from instances over [`Query::input_schema`] to instances over
/// [`Query::output_schema`].
///
/// Implementations must be *generic* (commute with permutations of the
/// domain) and deterministic; the monotonicity experiments rely on both.
/// Facts of the input outside the input schema must be ignored, and the
/// output must be over the output schema.
pub trait Query: Send + Sync {
    /// The input schema `σ`.
    fn input_schema(&self) -> &Schema;

    /// The output schema `σ'`.
    fn output_schema(&self) -> &Schema;

    /// Evaluate the query on an input instance.
    fn eval(&self, input: &Instance) -> Instance;

    /// A human-readable name for reports and benchmarks.
    fn name(&self) -> &str {
        "query"
    }

    /// Open a maintained evaluation over the empty input, in rows over
    /// the caller's `table` (interned into here, never locked). The
    /// default re-evaluates [`Query::eval`] whenever a batch changed the
    /// input; a query with an incremental engine overrides it.
    fn session(&self, _table: &mut SymbolTable) -> Box<dyn QuerySession + '_> {
        Box::new(ScratchSession {
            query: self,
            input: Instance::new(),
            evaluated: false,
        })
    }
}

/// Where a [`QuerySession`] puts its answer's growth, one call per row.
pub type AnswerSink<'a> = dyn FnMut(RelId, &[Sym]) + 'a;

/// An [`UpdateBatch`](crate::update::UpdateBatch) in rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBatch {
    /// Rows to insert.
    pub insert: Rows,
    /// Rows to delete.
    pub delete: Rows,
}

/// One query maintained over an input that changes by signed batches of
/// rows — what a node's program holds across transitions in place of
/// calling [`Query::eval`] on everything it knows at every one.
pub trait QuerySession {
    /// Fold `batch` — rows over the `table` the session was opened on —
    /// into the input, deletions first, and hand `grown` every row of the
    /// answer over the new input that was not in it after the previous
    /// call (on the first call: the whole answer). Rows may repeat earlier
    /// ones — the caller folds them into a set — and rows that *left* the
    /// answer are not reported: transducer output is cumulative.
    fn apply(&mut self, table: &mut SymbolTable, batch: &RowBatch, grown: &mut AnswerSink<'_>);
}

/// The default [`Query::session`]: the input as facts, evaluated from
/// scratch per batch that changed it, the answer interned into `table`.
struct ScratchSession<'q, Q: ?Sized> {
    query: &'q Q,
    input: Instance,
    evaluated: bool,
}

impl<Q: Query + ?Sized> QuerySession for ScratchSession<'_, Q> {
    fn apply(&mut self, table: &mut SymbolTable, batch: &RowBatch, grown: &mut AnswerSink<'_>) {
        let mut changed = !std::mem::replace(&mut self.evaluated, true);
        let fact = |table: &SymbolTable, r: RelId, row: &[Sym]| {
            let args = row.iter().map(|&s| table.value(s).clone()).collect();
            Fact::from_rel(table.rel_name(r).clone(), args)
        };
        for (r, run) in batch.delete.runs() {
            run.for_each(|row| changed |= self.input.remove(&fact(table, r, row)));
        }
        for (r, run) in batch.insert.runs() {
            run.for_each(|row| changed |= self.input.insert(fact(table, r, row)));
        }
        if changed {
            for (name, t) in self.query.eval(&self.input).iter() {
                let row: Vec<Sym> = t.iter().map(|v| table.sym(v)).collect();
                grown(table.rel(name), &row);
            }
        }
    }
}

/// A query defined by a Rust closure — handy for native implementations of
/// the paper's separating examples and for tests.
pub struct FnQuery<F>
where
    F: Fn(&Instance) -> Instance + Send + Sync,
{
    name: String,
    input: Schema,
    output: Schema,
    f: F,
}

impl<F> FnQuery<F>
where
    F: Fn(&Instance) -> Instance + Send + Sync,
{
    /// Wrap a closure as a [`Query`].
    pub fn new(name: impl Into<String>, input: Schema, output: Schema, f: F) -> Self {
        FnQuery {
            name: name.into(),
            input,
            output,
            f,
        }
    }
}

impl<F> Query for FnQuery<F>
where
    F: Fn(&Instance) -> Instance + Send + Sync,
{
    fn input_schema(&self) -> &Schema {
        &self.input
    }

    fn output_schema(&self) -> &Schema {
        &self.output
    }

    fn eval(&self, input: &Instance) -> Instance {
        let restricted = input.restrict(&self.input);
        (self.f)(&restricted).restrict(&self.output)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;

    #[test]
    fn fn_query_restricts_input_and_output() {
        let q = FnQuery::new(
            "copy-E",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("O", 2)]),
            |i: &Instance| {
                let mut out = Instance::new();
                for f in i.facts() {
                    out.insert(fact("O", [f.args()[0].clone(), f.args()[1].clone()]));
                }
                // Also emit junk outside the output schema; it must be
                // filtered away.
                out.insert(fact("Junk", [1]));
                out
            },
        );
        let input = crate::instance::Instance::from_facts([
            fact("E", [1, 2]),
            fact("X", [5]), // outside input schema: ignored
        ]);
        let out = q.eval(&input);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&fact("O", [1, 2])));
        assert_eq!(q.name(), "copy-E");
    }

    #[test]
    fn boxed_query_delegates() {
        let q: Box<dyn Query> = Box::new(FnQuery::new(
            "id",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("E", 2)]),
            |i: &Instance| i.clone(),
        ));
        let input = Instance::from_facts([fact("E", [1, 2])]);
        assert_eq!(q.eval(&input), input);
        assert_eq!(q.name(), "id");
        assert_eq!(q.input_schema().arity("E"), Some(2));
    }

    #[test]
    fn default_session_reevaluates_only_when_the_input_changed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evals = AtomicUsize::new(0);
        let q = FnQuery::new(
            "id",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("E", 2)]),
            |i: &Instance| {
                evals.fetch_add(1, Ordering::Relaxed);
                i.clone()
            },
        );
        let mut table = SymbolTable::new();
        let mut s = q.session(&mut table);
        // A batch in rows, and what it hands the sink, un-interned.
        let mut grown = |insert: &[Fact], delete: &[Fact]| {
            let mut batch = RowBatch::default();
            for (facts, rows) in [(insert, &mut batch.insert), (delete, &mut batch.delete)] {
                for f in facts {
                    let row: Vec<Sym> = f.args().iter().map(|v| table.sym(v)).collect();
                    rows.push(table.rel(f.relation()), &row);
                }
            }
            let mut rows = Vec::new();
            s.apply(&mut table, &batch, &mut |r, row| {
                rows.push((r, row.to_vec()))
            });
            let mut out = Instance::new();
            for (r, row) in rows {
                let args = row.iter().map(|&v| table.value(v).clone()).collect();
                out.insert_tuple(table.rel_name(r), args);
            }
            out
        };
        // The first call evaluates even an empty input.
        assert!(grown(&[], &[]).is_empty());
        assert_eq!(evals.load(Ordering::Relaxed), 1);
        let one = [fact("E", [1, 2])];
        assert_eq!(grown(&one, &[]), Instance::from_facts(one.clone()));
        // Nothing new: no evaluation, nothing reported.
        assert!(grown(&one, &[]).is_empty());
        assert!(grown(&[], &[fact("E", [9, 9])]).is_empty());
        assert_eq!(evals.load(Ordering::Relaxed), 2);
        // A deletion shrinks the input; the answer over it is handed on.
        let swap = grown(&[fact("E", [3, 4])], &one);
        assert_eq!(swap, Instance::from_facts([fact("E", [3, 4])]));
    }
}
