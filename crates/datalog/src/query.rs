//! [`DatalogQuery`]: a stratified Datalog¬ program packaged as a
//! [`calm_common::query::Query`].

use crate::eval::database::Database;
use crate::eval::incremental::{apply_update_compiled, MaintenancePlan, UpdateStats};
use crate::eval::seminaive::{CompiledProgram, EvalOptions};
use crate::eval::stratified::{fixpoint_strata, precompile};
use crate::program::Program;
use crate::stratify::{stratify, NotStratifiable};
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::{AnswerSink, Query, QuerySession};
use calm_common::schema::Schema;
use calm_common::storage::SharedSymbols;
use calm_common::update::UpdateBatch;
use calm_obs::Obs;

/// A query computed by a stratified Datalog¬ program (Section 2,
/// "Computing Queries"): `Q(I) = P(I)|σ'` where `σ'` is the program's
/// output schema and the input schema is `edb(P)`.
///
/// The query carries its own [`SharedSymbols`] table and per-stratum
/// [`CompiledProgram`]s, so repeated evaluations (the monotonicity
/// falsifiers run thousands per query, the transducer strategies one per
/// transition) intern rule constants once and never recompile.
pub struct DatalogQuery {
    name: String,
    program: Program,
    input_schema: Schema,
    output_schema: Schema,
    symbols: SharedSymbols,
    /// One compiled program per stratum, each holding the data-parallel
    /// worker count of its fixpoint.
    strata: Vec<CompiledProgram>,
}

impl DatalogQuery {
    /// Package a program as a query.
    ///
    /// # Errors
    /// Returns [`NotStratifiable`] if the program has no syntactic
    /// stratification (evaluate such programs with
    /// [`crate::wellfounded`] instead).
    pub fn new(name: impl Into<String>, program: Program) -> Result<Self, NotStratifiable> {
        let symbols = SharedSymbols::new();
        let strata = precompile(&stratify(&program)?, &symbols, EvalOptions::default());
        Ok(DatalogQuery {
            name: name.into(),
            input_schema: program.edb(),
            output_schema: program.output_schema(),
            program,
            symbols,
            strata,
        })
    }

    /// Parse source text and package it as a query.
    ///
    /// # Errors
    /// Returns an error string for syntax, well-formedness or
    /// stratification failures.
    pub fn parse(name: impl Into<String>, src: &str) -> Result<Self, String> {
        let p = crate::parser::parse_program(src).map_err(|e| e.to_string())?;
        DatalogQuery::new(name, p).map_err(|e| e.to_string())
    }

    /// Run every stratum fixpoint with `n` data-parallel eval threads
    /// (default 1 = sequential; the answer is byte-identical either
    /// way).
    #[must_use]
    pub fn with_eval_threads(mut self, n: usize) -> Self {
        for cp in &mut self.strata {
            cp.set_eval_threads(n);
        }
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Open a maintained evaluation over `input`: materialize the
    /// fixpoint once, then fold signed [`UpdateBatch`]es into it with
    /// [`IncrementalEvaluation::apply`] instead of re-running the
    /// fixpoint per change. The session reuses the query's cached
    /// [`CompiledProgram`]s and shared symbol table.
    pub fn open(&self, input: &Instance) -> IncrementalEvaluation<'_> {
        self.open_obs(input, &Obs::noop())
    }

    /// As [`open`](Self::open), reporting the initial fixpoint to
    /// `obs` as evaluation does: one `eval/stratum#i` span per stratum
    /// with its iteration and rule spans and the `eval` counters.
    pub fn open_obs(&self, input: &Instance, obs: &Obs) -> IncrementalEvaluation<'_> {
        let restricted = input.restrict(&self.input_schema);
        let mut db = Database::from_instance_with(&restricted, self.symbols.clone());
        fixpoint_strata(&self.strata, &mut db, obs, true);
        MaintenancePlan::new(&self.strata).prepare(&mut db);
        IncrementalEvaluation {
            query: self,
            db,
            stats: UpdateStats::default(),
        }
    }
}

/// A maintained evaluation of one [`DatalogQuery`] over a mutating
/// input: the materialized database is updated in place by DRed
/// maintenance ([`crate::eval::incremental`]) as signed batches
/// arrive, and [`output`](IncrementalEvaluation::output) is always
/// byte-identical to `query.eval(current_edb)`.
pub struct IncrementalEvaluation<'q> {
    query: &'q DatalogQuery,
    /// The materialized fixpoint, carrying the indexes of the strata's
    /// [`MaintenancePlan`] since the session opened.
    db: Database,
    stats: UpdateStats,
}

impl IncrementalEvaluation<'_> {
    /// Fold one signed batch into the materialized database. Facts
    /// outside the query's input schema are ignored, mirroring the
    /// input restriction of [`Query::eval`]. Returns this batch's
    /// maintenance counters.
    pub fn apply(&mut self, batch: &UpdateBatch) -> UpdateStats {
        self.apply_obs(batch, &Obs::noop())
    }

    /// As [`apply`](Self::apply), reporting `eval.retractions` /
    /// `eval.rederivations` / `eval.maintenance_fallback` counters to
    /// `obs`.
    pub fn apply_obs(&mut self, batch: &UpdateBatch, obs: &Obs) -> UpdateStats {
        let schema = &self.query.input_schema;
        let keep = |f: &&Fact| schema.arity(f.relation()) == Some(f.arity());
        let restricted = UpdateBatch {
            insert: batch.insert.iter().filter(keep).cloned().collect(),
            delete: batch.delete.iter().filter(keep).cloned().collect(),
        };
        let stats = apply_update_compiled(&self.query.strata, &mut self.db, &restricted, obs);
        self.stats.merge(&stats);
        stats
    }

    /// The query answer for the current input — the materialized
    /// database restricted to the output schema.
    pub fn output(&self) -> Instance {
        self.db.to_instance_restricted(&self.query.output_schema)
    }

    /// The full materialized database (all IDB relations, not just the
    /// output schema).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Cumulative counters over every applied batch.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }
}

impl Query for DatalogQuery {
    fn input_schema(&self) -> &Schema {
        &self.input_schema
    }

    fn output_schema(&self) -> &Schema {
        &self.output_schema
    }

    fn eval(&self, input: &Instance) -> Instance {
        let restricted = input.restrict(&self.input_schema);
        let mut db = Database::from_instance_with(&restricted, self.symbols.clone());
        fixpoint_strata(&self.strata, &mut db, &Obs::noop(), false);
        // Unintern only the output relations — everything else would be
        // dropped by the restriction anyway.
        db.to_instance_restricted(&self.output_schema)
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// The maintained form: one [`IncrementalEvaluation`] opened over
    /// the empty input (where every program's answer is empty — a rule
    /// needs a positive atom); a batch costs what it changes.
    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(self.open(&Instance::new()))
    }
}

/// As [`DatalogQuery`]'s session: the answer's growth is the rows a
/// batch appended — the whole answer when it fell back to re-evaluation
/// — handed on as the rows they are, over the query's symbol table.
impl QuerySession for IncrementalEvaluation<'_> {
    fn apply(&mut self, batch: &UpdateBatch, grown: &mut AnswerSink<'_>) {
        let added_only = self.apply_obs(batch, &Obs::noop()).fallbacks == 0;
        let table = self.db.symbols().read();
        for (name, arity) in self.query.output_schema.iter() {
            let r = table.lookup_rel(name);
            let Some((r, rows)) = r.and_then(|r| Some((r, self.db.storage().relation(r)?))) else {
                continue;
            };
            // The appended rows are read off the storage watermark the
            // batch set on entry (a re-evaluated stratum moves it once
            // per fixpoint round); a row the batch retracted and
            // rederived keeps its id and is not among them.
            let ids = if added_only {
                rows.delta_rows()
            } else {
                rows.rows()
            };
            for id in ids.filter(|&id| rows.is_live(id)) {
                if rows.row(id).len() == arity {
                    grown(&table, r, rows.row(id));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::generator::path;

    #[test]
    fn tc_as_query() {
        let q = DatalogQuery::parse(
            "tc",
            "@output T.\n\
             T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        assert_eq!(q.name(), "tc");
        assert_eq!(q.input_schema().arity("E"), Some(2));
        assert_eq!(q.output_schema().arity("T"), Some(2));
        let out = q.eval(&path(3));
        assert_eq!(out.relation_len("T"), 6);
    }

    #[test]
    fn input_outside_schema_ignored() {
        let q = DatalogQuery::parse("copy", "@output O.\nO(x,y) :- E(x,y).").unwrap();
        let mut input = path(1);
        input.insert(fact("Noise", [99]));
        let out = q.eval(&input);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&fact("O", [0, 1])));
    }

    #[test]
    fn non_stratifiable_rejected() {
        let err = DatalogQuery::parse("wm", "win(x) :- move(x,y), not win(y).");
        assert!(err.is_err());
    }

    #[test]
    fn incremental_session_tracks_eval() {
        let q = DatalogQuery::parse(
            "tc",
            "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        let mut edb = path(4);
        let mut session = q.open(&edb);
        assert_eq!(session.output(), q.eval(&edb));
        let batches = [
            calm_common::UpdateBatch::deleting([fact("E", [1, 2])]),
            calm_common::UpdateBatch::inserting([fact("E", [1, 2]), fact("E", [4, 0])]),
            // Out-of-schema facts are ignored, as in eval().
            calm_common::UpdateBatch::inserting([fact("Noise", [7])])
                .with_delete(fact("E", [2, 3])),
        ];
        for b in &batches {
            session.apply(b);
            b.apply_to_instance(&mut edb);
            assert_eq!(session.output(), q.eval(&edb));
        }
        assert!(session.stats().retractions > 0);
        assert!(session.database().storage().rel_ids().count() > 0);
    }

    #[test]
    fn query_session_reports_the_growth_of_the_answer() {
        // What the session returns, folded into a set, is the union of
        // the answers over every prefix — through a deletion, a
        // re-insertion, and a dense view whose deletion trips the
        // re-evaluation fallback.
        let q = DatalogQuery::parse(
            "indirect",
            "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
             O(x,y) :- T(x,y), not E(x,y).",
        )
        .unwrap();
        let mut session = q.session();
        let mut edb = Instance::new();
        let mut folded = Instance::new();
        let mut union = Instance::new();
        let ring: Vec<_> = (0..12).map(|i| fact("E", [i, (i + 1) % 12])).collect();
        let batches = [
            UpdateBatch::new(),
            UpdateBatch::inserting([fact("E", [1, 2]), fact("E", [2, 3])]),
            UpdateBatch::inserting([fact("E", [3, 4])]),
            UpdateBatch::deleting([fact("E", [2, 3])]),
            UpdateBatch::inserting([fact("E", [2, 3])]),
            UpdateBatch::inserting(ring.clone()),
            // Every closure tuple of the ring depends on this edge.
            UpdateBatch::deleting([ring[0].clone()]),
        ];
        for (k, b) in batches.iter().enumerate() {
            let mut grown = Instance::new();
            session.apply(b, &mut |table, r, row| {
                let args = row.iter().map(|&v| table.value(v).clone()).collect();
                grown.insert_tuple(table.rel_name(r), args);
            });
            b.apply_to_instance(&mut edb);
            let answer = q.eval(&edb);
            assert!(grown.is_subset(&answer), "batch {k}: inside the answer");
            assert!(
                answer.difference(&union).is_subset(&grown),
                "batch {k}: every new fact is reported"
            );
            folded.extend(grown);
            union.extend(answer);
            assert_eq!(folded, union, "batch {k}");
        }
    }

    #[test]
    fn genericity_spot_check() {
        // Permuting the domain commutes with evaluation.
        let q = DatalogQuery::parse(
            "tc",
            "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        let i = path(3);
        let pi = |v: &calm_common::value::Value| match v {
            calm_common::value::Value::Int(k) => calm_common::v(k * 7 + 1),
            other => other.clone(),
        };
        let permuted = i.map_values(pi);
        assert_eq!(q.eval(&i).map_values(pi), q.eval(&permuted));
    }
}
