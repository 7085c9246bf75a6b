//! [`DatalogQuery`]: a stratified Datalog¬ program packaged as a
//! [`calm_common::query::Query`].

use crate::eval::database::Database;
use crate::eval::incremental::{apply_update_rows, rows_of_update, MaintenancePlan, UpdateStats};
use crate::eval::seminaive::{CompiledProgram, EvalOptions};
use crate::eval::stratified::{fixpoint_strata, precompile};
use crate::parser::ParseError;
use crate::program::Program;
use crate::stratify::{stratify, NotStratifiable};
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::{AnswerSink, Query, QuerySession, RowBatch};
use calm_common::schema::Schema;
use calm_common::storage::{RelId, SharedSymbols, Storage, SymbolTable};
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
        let strata = precompile(
            &stratify(&program)?,
            &mut symbols.write(),
            EvalOptions::default(),
        );
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

    /// [`Query::session`], unboxed: the strata compiled against `table`.
    fn row_session(&self, table: &mut SymbolTable) -> RowSession {
        let strat = stratify(&self.program).expect("stratified when the query was built");
        let options = (self.strata.first()).map_or_else(EvalOptions::default, |cp| cp.options);
        let mut ids = |schema: &Schema| schema.iter().map(|(r, n)| (table.rel(r), n)).collect();
        RowSession {
            input: ids(&self.input_schema),
            output: ids(&self.output_schema),
            strata: precompile(&strat, table, options),
            rows: Storage::new(),
            started: false,
        }
    }

    /// Open a maintained evaluation over `input`: materialize the
    /// fixpoint once, then fold signed [`UpdateBatch`]es into it with
    /// [`IncrementalEvaluation::apply`] instead of re-running the
    /// fixpoint per change. The session reuses the query's cached
    /// [`CompiledProgram`]s and shared symbol table.
    pub fn open(&self, input: &Instance) -> IncrementalEvaluation<'_> {
        let db =
            Database::from_instance_with(&input.restrict(&self.input_schema), self.symbols.clone());
        self.maintain(db, &Obs::noop())
    }

    /// As [`open`](Self::open) over the facts of the input schema in
    /// `src`, read into rows by [`Database::read_facts`]; the reading
    /// and the initial fixpoint are reported to `obs` as evaluation's.
    ///
    /// # Errors
    /// The facts scanner's [`ParseError`].
    pub fn read_session(
        &self,
        src: &str,
        obs: &Obs,
    ) -> Result<IncrementalEvaluation<'_>, ParseError> {
        let mut db = Database::with_symbols(self.symbols.clone());
        db.read_facts(src, Some(&self.input_schema), obs)?;
        Ok(self.maintain(db, obs))
    }

    fn maintain(&self, mut db: Database, obs: &Obs) -> IncrementalEvaluation<'_> {
        fixpoint_strata(&self.strata, db.storage_mut(), obs, true);
        MaintenancePlan::new(&self.strata).prepare(db.storage_mut());
        IncrementalEvaluation {
            query: self,
            db,
            stats: UpdateStats::default(),
        }
    }
}

/// A maintained evaluation of one [`DatalogQuery`] over a mutating
/// input: the materialized database is updated in place by incremental
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
    /// Fold one signed batch into the materialized database: the facts
    /// interned, then the row door a [`Query::session`] goes through.
    /// Facts outside the query's input schema are ignored, mirroring the
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
        let keep = |f: &Fact| schema.arity(f.relation()) == Some(f.arity());
        let rows = rows_of_update(&mut self.db.symbols().write(), batch, keep);
        let stats = apply_update_rows(&self.query.strata, self.db.storage_mut(), &rows, obs);
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
        fixpoint_strata(&self.strata, db.storage_mut(), &Obs::noop(), false);
        // Unintern only the output relations — everything else would be
        // dropped by the restriction anyway.
        db.to_instance_restricted(&self.output_schema)
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// The maintained form over the caller's table ([`RowSession`]).
    fn session(&self, table: &mut SymbolTable) -> Box<dyn QuerySession + '_> {
        Box::new(self.row_session(table))
    }
}

/// [`DatalogQuery`]'s [`QuerySession`]: its strata compiled against the
/// caller's table, over a store of its own in rows of that table. The
/// first call is `calm eval`'s fixpoint, every later one
/// [`apply_update_rows`]; the growth is the output rows a call appended.
struct RowSession {
    /// The input and the output relations, by id, with their arities.
    input: Vec<(RelId, usize)>,
    output: Vec<(RelId, usize)>,
    strata: Vec<CompiledProgram>,
    rows: Storage,
    started: bool,
}

impl QuerySession for RowSession {
    fn apply(&mut self, _table: &mut SymbolTable, batch: &RowBatch, grown: &mut AnswerSink<'_>) {
        self.step(batch, grown);
    }
}

impl RowSession {
    /// [`QuerySession::apply`], returning the call's maintenance
    /// counters: none on the first call, which is the fixpoint.
    fn step(&mut self, batch: &RowBatch, grown: &mut AnswerSink<'_>) -> UpdateStats {
        // The rows of the input schema, as `Query::eval` restricts it.
        let mut change = RowBatch::default();
        for (from, to) in [
            (&batch.insert, &mut change.insert),
            (&batch.delete, &mut change.delete),
        ] {
            for (r, run) in from.runs() {
                let kept = run.filter(|row| self.input.contains(&(r, row.len())));
                kept.for_each(|row| to.push(r, row));
            }
        }
        let mut stats = UpdateStats::default();
        let added_only = if std::mem::replace(&mut self.started, true) {
            stats = apply_update_rows(&self.strata, &mut self.rows, &change, &Obs::noop());
            stats.fallbacks == 0
        } else {
            for (r, run) in change.insert.runs() {
                self.rows.insert_batch(r, run);
            }
            fixpoint_strata(&self.strata, &mut self.rows, &Obs::noop(), false);
            MaintenancePlan::new(&self.strata).prepare(&mut self.rows);
            false
        };
        for &(r, arity) in &self.output {
            let Some(rows) = self.rows.relation(r) else {
                continue;
            };
            // Past the watermark the call set on entry; a row it
            // deleted and inserted again keeps its id and is not among them.
            let start = if added_only { rows.delta_start() } else { 0 };
            let ids = start as u32..rows.rows().end;
            for id in ids.filter(|&id| rows.is_live(id) && rows.row(id).len() == arity) {
                grown(r, rows.row(id));
            }
        }
        stats
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

    /// A session fed batches of facts as rows over one table: each
    /// batch's growth, un-interned, must lie inside `Query::eval` of the
    /// prefix it ends, report every fact that answer holds beyond the
    /// answers before it, and — folded — be the union of those answers.
    /// Returns the session's maintenance counters and how many batches
    /// were insert-only and how many deleted something present.
    fn check_session(q: &DatalogQuery, batches: &[UpdateBatch]) -> (UpdateStats, usize, usize) {
        let mut table = SymbolTable::new();
        let mut session = q.row_session(&mut table);
        let (mut edb, mut folded, mut union) = (Instance::new(), Instance::new(), Instance::new());
        let (mut stats, mut inserting, mut deleting) = (UpdateStats::default(), 0, 0);
        for (k, b) in batches.iter().enumerate() {
            let mut rows = RowBatch::default();
            for (facts, to) in [(&b.insert, &mut rows.insert), (&b.delete, &mut rows.delete)] {
                for f in facts {
                    let row: Vec<_> = f.args().iter().map(|v| table.sym(v)).collect();
                    to.push(table.rel(f.relation()), &row);
                }
            }
            let mut grown_rows = Vec::new();
            let step = session.step(&rows, &mut |r, row| grown_rows.push((r, row.to_vec())));
            stats.merge(&step);
            let mut grown = Instance::new();
            for (r, row) in grown_rows {
                let args = row.iter().map(|&v| table.value(v).clone()).collect();
                grown.insert_tuple(table.rel_name(r), args);
            }
            deleting += usize::from(b.delete.iter().any(|f| edb.contains(f)));
            inserting += usize::from(k > 0 && b.delete.is_empty() && !b.insert.is_empty());
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
        (stats, inserting, deleting)
    }

    const INDIRECT: &str = "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                            O(x,y) :- T(x,y), not E(x,y).";

    #[test]
    fn query_session_reports_the_growth_of_the_answer() {
        // Through a deletion, a re-insertion, and a dense view whose
        // deletion trips the re-evaluation fallback.
        let q = DatalogQuery::parse("indirect", INDIRECT).unwrap();
        let ring: Vec<_> = (0..12).map(|i| fact("E", [i, (i + 1) % 12])).collect();
        let batches = [
            UpdateBatch::default(),
            UpdateBatch::inserting([fact("E", [1, 2]), fact("E", [2, 3])]),
            UpdateBatch::inserting([fact("E", [3, 4])]),
            UpdateBatch::deleting([fact("E", [2, 3])]),
            UpdateBatch::inserting([fact("E", [2, 3])]),
            UpdateBatch::inserting(ring.clone()),
            // Every closure tuple of the ring depends on this edge.
            UpdateBatch::deleting([ring[0].clone()]),
        ];
        let (stats, _, deleting) = check_session(&q, &batches);
        assert!(stats.fallbacks > 0 && deleting == 2);
    }

    #[test]
    fn a_session_is_the_answer_of_every_prefix_under_random_signed_batches() {
        // Three programs: positive recursion, negation over the input,
        // three strata (a closure, negation over it, negation over that).
        // Each run opens on a ring, cuts it in two — a batch that deletes
        // most of the closure and trips the guard — then takes random
        // signed batches over a small domain.
        let programs = [
            ("tc", include_str!("../../../examples/data/tc.dl")),
            ("indirect", INDIRECT),
            (
                "strata",
                "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                 U(x) :- V(x), not T(x,x).\nO(x,y) :- E(x,y), not U(x).",
            ),
        ];
        let mut rng = calm_common::rng::Rng::seed_from_u64(0x5e55);
        for (name, src) in programs {
            let q = DatalogQuery::parse(name, src).unwrap();
            assert!(name != "strata" || q.strata.len() == 3);
            let ring: Vec<_> = (20..32)
                .map(|i| fact("E", [i, 20 + (i - 19) % 12]))
                .collect();
            let mut batches = vec![
                UpdateBatch::inserting(ring.clone()),
                UpdateBatch::deleting([ring[3].clone(), ring[9].clone()]),
            ];
            let random_fact = |rng: &mut calm_common::rng::Rng| match rng.gen_range(0..4u32) {
                0 => fact("V", [rng.gen_range(0..6i64)]),
                _ => fact("E", [rng.gen_range(0..6i64), rng.gen_range(0..6i64)]),
            };
            for _ in 0..60 {
                let mut b = UpdateBatch::default();
                for _ in 0..rng.gen_range(0..5usize) {
                    b.insert.push(random_fact(&mut rng));
                }
                if rng.gen_bool(0.4) {
                    for _ in 0..rng.gen_range(1..4usize) {
                        b.delete.push(random_fact(&mut rng));
                    }
                }
                batches.push(b);
            }
            let (stats, inserting, deleting) = check_session(&q, &batches);
            assert!(
                stats.fallbacks > 0 && inserting > 10 && deleting > 5,
                "{name}: {stats:?}, {inserting} insert-only, {deleting} deleting"
            );
            assert!(
                stats.retractions > 0 && stats.insertions > 0,
                "{name}: {stats:?}"
            );
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
