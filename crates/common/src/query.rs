//! The abstract query interface (Section 2: "Computing Queries").
//!
//! A query is a generic mapping from instances over an input schema to
//! instances over an output schema. Everything downstream — the Datalog
//! engine, the native query implementations, the monotonicity checkers and
//! the transducer strategies — speaks this trait.

use crate::instance::Instance;
use crate::schema::Schema;
use crate::storage::{RelId, Sym, SymbolTable};
use crate::update::UpdateBatch;

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

    /// Open a maintained evaluation over the empty input. The default
    /// keeps the input and re-evaluates [`Query::eval`] from scratch
    /// whenever a batch changed it; a query with an incremental engine
    /// overrides this.
    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(ScratchSession {
            query: self,
            input: Instance::new(),
            evaluated: false,
            table: SymbolTable::new(),
        })
    }
}

/// Where a [`QuerySession`] puts the growth of its answer: one call per
/// fact, as a row of a relation over the session's own symbol table
/// (handed along, to read the names and values off).
pub type AnswerSink<'a> = dyn FnMut(&SymbolTable, RelId, &[Sym]) + 'a;

/// One query maintained over an input that changes by signed batches —
/// what a node's program holds across transitions in place of calling
/// [`Query::eval`] on everything it knows at every one.
pub trait QuerySession {
    /// Fold `batch` into the input (deletions first, like
    /// [`UpdateBatch::apply_to_instance`]) and hand `grown` how the
    /// answer grew: every fact of the answer over the new input that
    /// was not in the answer after the previous call (on the first
    /// call: the whole answer). What is handed lies inside the current
    /// answer and may repeat facts handed before — the caller folds it
    /// into a set. Facts that *left* the answer are not reported:
    /// transducer output is cumulative.
    fn apply(&mut self, batch: &UpdateBatch, grown: &mut AnswerSink<'_>);
}

/// The default [`Query::session`]: the input, and a from-scratch
/// evaluation per batch that changed it, whose answer is interned into
/// a table of the session's own on its way to the sink.
struct ScratchSession<'q, Q: ?Sized> {
    query: &'q Q,
    input: Instance,
    evaluated: bool,
    table: SymbolTable,
}

impl<Q: Query + ?Sized> QuerySession for ScratchSession<'_, Q> {
    fn apply(&mut self, batch: &UpdateBatch, grown: &mut AnswerSink<'_>) {
        let mut changed = false;
        for f in &batch.delete {
            changed |= self.input.remove(f);
        }
        for f in &batch.insert {
            changed |= self.input.insert(f.clone());
        }
        let first = !std::mem::replace(&mut self.evaluated, true);
        if !changed && !first {
            return;
        }
        let answer = self.query.eval(&self.input);
        let mut row = Vec::new();
        for name in answer.relation_names() {
            let r = self.table.rel(name);
            for t in answer.tuples(name) {
                row.clear();
                row.extend(t.iter().map(|v| self.table.sym(v)));
                grown(&self.table, r, &row);
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

impl Query for Box<dyn Query> {
    fn input_schema(&self) -> &Schema {
        (**self).input_schema()
    }

    fn output_schema(&self) -> &Schema {
        (**self).output_schema()
    }

    fn eval(&self, input: &Instance) -> Instance {
        (**self).eval(input)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        (**self).session()
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
        let mut s = q.session();
        // What a batch hands the sink, un-interned.
        let mut grown = |batch: &UpdateBatch| {
            let mut out = Instance::new();
            s.apply(batch, &mut |table, r, row| {
                let args = row.iter().map(|&v| table.value(v).clone()).collect();
                out.insert_tuple(table.rel_name(r), args);
            });
            out
        };
        // The first call evaluates even an empty input.
        assert!(grown(&UpdateBatch::new()).is_empty());
        assert_eq!(evals.load(Ordering::Relaxed), 1);
        let one = UpdateBatch::inserting([fact("E", [1, 2])]);
        assert_eq!(grown(&one), Instance::from_facts([fact("E", [1, 2])]));
        // Nothing new: no evaluation, nothing reported.
        assert!(grown(&one).is_empty());
        assert!(grown(&UpdateBatch::deleting([fact("E", [9, 9])])).is_empty());
        assert_eq!(evals.load(Ordering::Relaxed), 2);
        // A deletion shrinks the input; the answer over it is handed on.
        let swap = UpdateBatch::deleting([fact("E", [1, 2])]).with_insert(fact("E", [3, 4]));
        assert_eq!(grown(&swap), Instance::from_facts([fact("E", [3, 4])]));
    }
}
