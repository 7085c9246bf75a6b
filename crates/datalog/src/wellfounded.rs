//! The well-founded semantics for (possibly non-stratifiable) Datalog¬,
//! via the alternating fixpoint, plus the "doubled program" construction
//! the paper invokes for connected Datalog under WFS (Section 7).
//!
//! The alternating fixpoint computes two approximations of the
//! three-valued well-founded model:
//!
//! * an increasing sequence of *underestimates* `U` (facts certainly
//!   true), and
//! * a decreasing sequence of *overestimates* `V` (facts possibly true),
//!
//! where each step applies `Γ(K)` — the minimal model of the program with
//! every negative literal `¬R(t̄)` frozen to "`t̄ ∉ K`". True facts are the
//! limit of `U`, undefined facts are `V \ U`.

use crate::ast::{Atom, Rule};
use crate::eval::database::Database;
use crate::eval::seminaive::{fixpoint_seminaive_full, CompiledProgram, EvalOptions};
use crate::program::Program;
use calm_common::fact::{rel, Fact, RelName};
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_common::storage::SharedSymbols;
use calm_common::update::UpdateBatch;
use calm_obs::Obs;
use std::collections::BTreeSet;

/// The three-valued well-founded model of a program on an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WellFoundedModel {
    /// Facts true in the well-founded model (including the input).
    pub true_facts: Instance,
    /// Facts possibly true (true ∪ undefined), including the input.
    pub possible_facts: Instance,
    /// Number of `Γ` applications performed.
    pub gamma_applications: usize,
}

impl WellFoundedModel {
    /// The undefined facts: possible but not true.
    pub fn undefined(&self) -> Instance {
        self.possible_facts.difference(&self.true_facts)
    }

    /// Whether the model is total (two-valued): nothing undefined.
    pub fn is_total(&self) -> bool {
        self.true_facts == self.possible_facts
    }

    /// Truth value of a fact: `Some(true)` = true, `Some(false)` = false,
    /// `None` = undefined.
    pub fn truth(&self, f: &Fact) -> Option<bool> {
        if self.true_facts.contains(f) {
            Some(true)
        } else if self.possible_facts.contains(f) {
            None
        } else {
            Some(false)
        }
    }
}

/// One application of `Γ(K)`: the minimal model of the compiled program
/// over `input` with negation frozen against `k`. The result shares `k`'s
/// symbol table (which the program was compiled against).
fn gamma(cp: &CompiledProgram, input: &Instance, k: &Database, obs: &Obs) -> Database {
    let mut db = Database::from_instance_with(input, k.symbols().clone());
    fixpoint_seminaive_full(cp, &mut db, Some(k), obs);
    db
}

/// Compute the well-founded model of `p` on `input` by the alternating
/// fixpoint. Works for every Datalog¬ program (stratifiable or not); on
/// stratifiable programs the result is total and equals the stratified
/// semantics.
///
/// ```
/// use calm_datalog::{parse_program, well_founded_model};
/// use calm_common::{fact, Instance};
///
/// let win_move = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
/// // 1 -> 2 -> 3 plus the drawn 2-cycle {8, 9}.
/// let game = Instance::from_facts([
///     fact("move", [1, 2]), fact("move", [2, 3]),
///     fact("move", [8, 9]), fact("move", [9, 8]),
/// ]);
/// let model = well_founded_model(&win_move, &game);
/// assert_eq!(model.truth(&fact("win", [2])), Some(true));  // won
/// assert_eq!(model.truth(&fact("win", [3])), Some(false)); // lost (sink)
/// assert_eq!(model.truth(&fact("win", [8])), None);        // drawn
/// ```
pub fn well_founded_model(p: &Program, input: &Instance) -> WellFoundedModel {
    well_founded_model_opts(p, input, EvalOptions::default(), &Obs::noop())
}

/// As [`well_founded_model`], reporting one span per `Γ` application
/// (labelled over/under by alternation side) plus a final
/// `gamma_applications` counter to `obs`, with explicit [`EvalOptions`]
/// — the entry point for data-parallel `Γ` applications
/// (`options.eval_threads` > 1); the model is identical for any thread
/// count.
pub fn well_founded_model_opts(
    p: &Program,
    input: &Instance,
    options: EvalOptions,
    obs: &Obs,
) -> WellFoundedModel {
    // U0 = input only (all negations succeed except on given edb facts).
    // Every approximation shares one symbol table, so the stability check
    // compares interned rows directly — no Instance round-trip per round.
    let mut gamma_applications = 0;
    let mut u = Database::from_instance(input);
    // Compile once; every Γ application below reuses the interned rules.
    let cp = {
        let symbols = u.symbols().clone();
        let mut table = symbols.write();
        CompiledProgram::new(p, &mut table, options)
    };
    loop {
        // V = Γ(U): overestimate.
        let v = {
            let _span = obs.span("wfs", || format!("gamma#{gamma_applications}(over)"));
            gamma(&cp, input, &u, obs)
        };
        gamma_applications += 1;
        // U' = Γ(V): next underestimate.
        let u_next = {
            let _span = obs.span("wfs", || format!("gamma#{gamma_applications}(under)"));
            gamma(&cp, input, &v, obs)
        };
        gamma_applications += 1;
        if u_next.same_facts(&u) {
            obs.counter("wfs", "gamma_applications", gamma_applications as u64);
            return WellFoundedModel {
                true_facts: u_next.to_instance(),
                possible_facts: v.to_instance(),
                gamma_applications,
            };
        }
        u = u_next;
    }
}

/// The *doubled program* construction: two semi-positive-style programs
/// over a schema where every idb predicate `R` has a primed companion
/// `R__p`. Alternating their evaluation reproduces the alternating
/// fixpoint as a pure program transformation — this is the "well-known
/// doubled program approach" the paper uses to place connected Datalog
/// under WFS inside `Mdisjoint` (Section 7).
#[derive(Debug, Clone)]
pub struct DoubledProgram {
    /// Derives unprimed (true-side) facts; its negative literals mention
    /// only primed predicates.
    pub true_side: Program,
    /// Derives primed (possible-side) facts; its negative literals mention
    /// only unprimed predicates.
    pub possible_side: Program,
    /// The idb predicates that were doubled.
    pub doubled: BTreeSet<RelName>,
}

/// The primed companion name of a relation.
pub fn primed(r: &str) -> RelName {
    rel(format!("{r}__p"))
}

/// Build the doubled program of `p`.
pub fn doubled_program(p: &Program) -> DoubledProgram {
    let idb = p.idb();
    let doubled: BTreeSet<RelName> = idb.names().cloned().collect();
    let prime_atom = |a: &Atom| -> Atom {
        if doubled.contains(&a.relation) {
            Atom {
                relation: primed(&a.relation),
                terms: a.terms.clone(),
            }
        } else {
            a.clone()
        }
    };
    let mut true_rules = Vec::new();
    let mut possible_rules = Vec::new();
    for r in p.rules() {
        // True side: positive atoms unprimed, negated idb atoms primed
        // (checked against the possible-side overestimate).
        true_rules.push(Rule {
            head: r.head.clone(),
            pos: r.pos.clone(),
            neg: r.neg.iter().map(&prime_atom).collect(),
            ineq: r.ineq.clone(),
        });
        // Possible side: head and positive idb atoms primed, negated idb
        // atoms unprimed (checked against the true-side underestimate).
        possible_rules.push(Rule {
            head: prime_atom(&r.head),
            pos: r.pos.iter().map(&prime_atom).collect(),
            neg: r.neg.clone(),
            ineq: r.ineq.clone(),
        });
    }
    DoubledProgram {
        true_side: Program::new(true_rules).expect("doubling preserves well-formedness"),
        possible_side: Program::new(possible_rules).expect("doubling preserves well-formedness"),
        doubled,
    }
}

impl DoubledProgram {
    /// Evaluate the doubled program by alternating the two sides until
    /// both stabilize; returns the same model as [`well_founded_model`].
    pub fn eval(&self, input: &Instance) -> WellFoundedModel {
        let symbols = SharedSymbols::new();
        let (possible_cp, true_cp) = self.compile(&symbols, 1);
        // The input is interned once, in both forms the two sides read:
        // the possible side takes primed idb positives (edb stays
        // unprimed, so both forms are loaded), the true side unprimed.
        let mut base_over =
            Database::from_instance_with(&prime_instance(input, &self.doubled), symbols.clone());
        base_over.load(input);
        let base_under = Database::from_instance_with(input, symbols);
        self.alternate(&possible_cp, &true_cp, &base_over, &base_under, input)
    }

    /// Compile both sides once against one shared table; the
    /// alternation only re-runs the fixpoints.
    fn compile(
        &self,
        symbols: &SharedSymbols,
        eval_threads: usize,
    ) -> (CompiledProgram, CompiledProgram) {
        let options = EvalOptions::default().with_eval_threads(eval_threads);
        let mut table = symbols.write();
        (
            CompiledProgram::new(&self.possible_side, &mut table, options),
            CompiledProgram::new(&self.true_side, &mut table, options),
        )
    }

    /// The alternation itself, over the interned input in the form each
    /// side reads (`base_over` for the possible side, `base_under` for
    /// the true side; `input` is their value-level mirror).
    fn alternate(
        &self,
        possible_cp: &CompiledProgram,
        true_cp: &CompiledProgram,
        base_over: &Database,
        base_under: &Database,
        input: &Instance,
    ) -> WellFoundedModel {
        let mut gamma_applications = 0;
        // Under-approximation state: unprimed facts (initially empty).
        let mut under = Database::with_symbols(base_under.symbols().clone());
        loop {
            // Possible side: freeze negation on input ∪ `under`.
            let mut frozen_under = base_under.clone();
            frozen_under.absorb(&under);
            let mut over_db = base_over.clone();
            fixpoint_seminaive_full(possible_cp, &mut over_db, Some(&frozen_under), &Obs::noop());
            gamma_applications += 1;

            // True side: freeze negation on the primed overestimate —
            // `over_db` holds exactly the primed idb facts plus the input,
            // so it serves as the frozen database directly.
            let mut under_db = base_under.clone();
            fixpoint_seminaive_full(true_cp, &mut under_db, Some(&over_db), &Obs::noop());
            gamma_applications += 1;

            if under_db.same_facts(&under) {
                let over = unprime_instance(&over_db.to_instance(), &self.doubled);
                return WellFoundedModel {
                    true_facts: under_db.to_instance(),
                    possible_facts: over.union(input),
                    gamma_applications,
                };
            }
            under = under_db;
        }
    }
}

fn prime_instance(i: &Instance, doubled: &BTreeSet<RelName>) -> Instance {
    let mut out = Instance::new();
    for f in i.facts() {
        if doubled.contains(f.relation()) {
            out.insert(Fact::from_rel(primed(f.relation()), f.args().to_vec()));
        } else {
            out.insert(f);
        }
    }
    out
}

fn unprime_instance(i: &Instance, doubled: &BTreeSet<RelName>) -> Instance {
    let mut out = Instance::new();
    for f in i.facts() {
        let name = f.relation().as_ref();
        if let Some(base) = name.strip_suffix("__p") {
            if doubled.contains(base) {
                out.insert(Fact::new(base, f.args().to_vec()));
                continue;
            }
        }
        out.insert(f);
    }
    out
}

/// A query evaluated under the well-founded semantics: the answer is the
/// set of *true* facts over the program's output schema (the convention
/// used for win-move in the paper and in Zinn et al.).
pub struct WellFoundedQuery {
    name: String,
    program: Program,
    input_schema: Schema,
    output_schema: Schema,
    eval_threads: usize,
}

impl WellFoundedQuery {
    /// Package a (possibly non-stratifiable) program as a WFS query.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        let input_schema = program.edb();
        let output_schema = program.output_schema();
        WellFoundedQuery {
            name: name.into(),
            program,
            input_schema,
            output_schema,
            eval_threads: 1,
        }
    }

    /// Run every `Γ` application with `n` data-parallel eval threads
    /// (default 1 = sequential; the model is identical either way).
    #[must_use]
    pub fn with_eval_threads(mut self, n: usize) -> Self {
        self.eval_threads = n.max(1);
        self
    }

    /// Parse source text into a WFS query.
    ///
    /// # Errors
    /// Returns the parse/validation error message.
    pub fn parse(name: impl Into<String>, src: &str) -> Result<Self, String> {
        let p = crate::parser::parse_program(src).map_err(|e| e.to_string())?;
        Ok(WellFoundedQuery::new(name, p))
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The full three-valued model on an input.
    pub fn model(&self, input: &Instance) -> WellFoundedModel {
        well_founded_model_opts(
            &self.program,
            &input.restrict(&self.input_schema),
            EvalOptions::default().with_eval_threads(self.eval_threads),
            &Obs::noop(),
        )
    }

    /// Open a maintained evaluation over `input`: the doubled program
    /// is constructed and compiled once, the EDB interned once, and
    /// signed [`UpdateBatch`]es are folded in with
    /// [`WellFoundedSession::apply`].
    ///
    /// Unlike [`crate::DatalogQuery::open`], maintenance here is
    /// batch-level re-alternation rather than DRed: the alternating
    /// fixpoint is non-monotone end to end (each Γ application flips
    /// the sign of every idb fact's role), so delete–rederive does not
    /// compose across Γ applications. What the session caches is the
    /// doubled-program construction, its compilation against a shared
    /// symbol table, and the interned EDB — the per-batch cost is the
    /// alternation itself, not parsing, doubling, compiling or
    /// re-interning.
    pub fn open(&self, input: &Instance) -> WellFoundedSession<'_> {
        let doubled = doubled_program(&self.program);
        let symbols = SharedSymbols::new();
        let (possible_cp, true_cp) = doubled.compile(&symbols, self.eval_threads);
        let edb = input.restrict(&self.input_schema);
        let base = Database::from_instance_with(&edb, symbols);
        let mut session = WellFoundedSession {
            query: self,
            doubled,
            possible_cp,
            true_cp,
            base,
            edb,
            model: WellFoundedModel {
                true_facts: Instance::new(),
                possible_facts: Instance::new(),
                gamma_applications: 0,
            },
        };
        session.model = session.alternate();
        session
    }
}

/// A maintained well-founded evaluation (see
/// [`WellFoundedQuery::open`]): the current EDB stays interned in a
/// [`Database`] updated in place by signed batches (tombstone retract,
/// revive-on-reinsert, compaction at the batch boundary), and each
/// [`apply`](WellFoundedSession::apply) re-runs the alternating
/// fixpoint with the cached doubled compilation.
pub struct WellFoundedSession<'q> {
    query: &'q WellFoundedQuery,
    doubled: DoubledProgram,
    possible_cp: CompiledProgram,
    true_cp: CompiledProgram,
    /// The current EDB, interned (input restricted to the input schema).
    base: Database,
    /// Value-level mirror of `base`, for the possible-facts union.
    edb: Instance,
    model: WellFoundedModel,
}

impl WellFoundedSession<'_> {
    /// Fold one signed batch into the EDB and recompute the model.
    /// Facts outside the query's input schema are ignored, mirroring
    /// [`WellFoundedQuery::model`]'s input restriction. Returns
    /// `(inserted, deleted)` EDB fact counts.
    pub fn apply(&mut self, batch: &UpdateBatch) -> (usize, usize) {
        let schema = &self.query.input_schema;
        let keep = |f: &&Fact| schema.arity(f.relation()) == Some(f.arity());
        let restricted = UpdateBatch {
            insert: batch.insert.iter().filter(keep).cloned().collect(),
            delete: batch.delete.iter().filter(keep).cloned().collect(),
        };
        let (ins, del) = self.base.apply_update_batch(&restricted);
        self.base.storage_mut().compact_retractions();
        restricted.apply_to_instance(&mut self.edb);
        self.model = self.alternate();
        (ins, del)
    }

    /// The current three-valued model.
    pub fn model(&self) -> &WellFoundedModel {
        &self.model
    }

    /// The current query answer: true facts over the output schema.
    pub fn output(&self) -> Instance {
        self.model.true_facts.restrict(&self.query.output_schema)
    }

    /// The current (restricted) EDB.
    pub fn edb(&self) -> &Instance {
        &self.edb
    }

    /// The alternating fixpoint over the maintained EDB. The session
    /// EDB is restricted to `edb(P)`, which the doubling never primes,
    /// so one interned base serves both sides.
    fn alternate(&self) -> WellFoundedModel {
        self.doubled.alternate(
            &self.possible_cp,
            &self.true_cp,
            &self.base,
            &self.base,
            &self.edb,
        )
    }
}

impl Query for WellFoundedQuery {
    fn input_schema(&self) -> &Schema {
        &self.input_schema
    }

    fn output_schema(&self) -> &Schema {
        &self.output_schema
    }

    fn eval(&self, input: &Instance) -> Instance {
        self.model(input).true_facts.restrict(&self.output_schema)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use calm_common::fact::fact;
    use calm_common::generator::{chain_game, cycle_game, cycle_with_escape};

    fn win_move() -> Program {
        parse_program("win(x) :- move(x,y), not win(y).").unwrap()
    }

    #[test]
    fn chain_alternates_win_lose() {
        // 0 -> 1 -> 2 -> 3: 3 lost, 2 won, 1 lost, 0 won.
        let m = well_founded_model(&win_move(), &chain_game(0, 3));
        assert!(m.is_total());
        assert_eq!(m.truth(&fact("win", [0])), Some(true));
        assert_eq!(m.truth(&fact("win", [1])), Some(false));
        assert_eq!(m.truth(&fact("win", [2])), Some(true));
        assert_eq!(m.truth(&fact("win", [3])), Some(false));
    }

    #[test]
    fn even_cycle_all_drawn() {
        let m = well_founded_model(&win_move(), &cycle_game(0, 4));
        assert!(!m.is_total());
        for k in 0..4 {
            assert_eq!(m.truth(&fact("win", [k])), None, "position {k} drawn");
        }
    }

    #[test]
    fn cycle_with_escape_is_determined() {
        // a=10, b=11, c=12: c lost, b won (b->c), a lost (only move to won b).
        let m = well_founded_model(&win_move(), &cycle_with_escape(10));
        assert!(m.is_total());
        assert_eq!(m.truth(&fact("win", [10])), Some(false));
        assert_eq!(m.truth(&fact("win", [11])), Some(true));
        assert_eq!(m.truth(&fact("win", [12])), Some(false));
    }

    #[test]
    fn wfs_agrees_with_stratified_semantics_on_stratifiable_program() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             O(x) :- Adom(x), not T(x,x).\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).",
        )
        .unwrap();
        let input = calm_common::generator::path(3);
        let wfs = well_founded_model(&p, &input);
        assert!(wfs.is_total());
        let strat = crate::eval::eval_program(&p, &input).unwrap();
        assert_eq!(wfs.true_facts, strat);
    }

    #[test]
    fn doubled_program_matches_alternating_fixpoint() {
        let p = win_move();
        let d = doubled_program(&p);
        for input in [
            chain_game(0, 4),
            cycle_game(0, 3),
            cycle_game(0, 4),
            cycle_with_escape(0),
        ] {
            let direct = well_founded_model(&p, &input);
            let via_doubled = d.eval(&input);
            assert_eq!(
                direct.true_facts.restrict(&p.output_schema()),
                via_doubled.true_facts.restrict(&p.output_schema()),
                "true facts must agree on {input:?}"
            );
            assert_eq!(
                direct.undefined().restrict(&p.output_schema()),
                via_doubled.undefined().restrict(&p.output_schema()),
                "undefined facts must agree on {input:?}"
            );
        }
    }

    #[test]
    fn doubled_program_structure() {
        let d = doubled_program(&win_move());
        // True side negates only the primed predicate.
        assert_eq!(d.true_side.rules()[0].neg[0].relation.as_ref(), "win__p");
        // Possible side derives primed and negates unprimed.
        assert_eq!(d.possible_side.rules()[0].head.relation.as_ref(), "win__p");
        assert_eq!(d.possible_side.rules()[0].neg[0].relation.as_ref(), "win");
    }

    #[test]
    fn wfs_query_outputs_true_wins() {
        let q = WellFoundedQuery::parse("win-move", "win(x) :- move(x,y), not win(y).").unwrap();
        let out = q.eval(&chain_game(0, 2));
        // 0 -> 1 -> 2: win(1) only (2 lost; 0's move goes to won 1 => 0 lost).
        assert_eq!(out, Instance::from_facts([fact("win", [1])]));
        assert_eq!(q.name(), "win-move");
    }

    #[test]
    fn odd_cycle_drawn() {
        let m = well_founded_model(&win_move(), &cycle_game(0, 3));
        assert_eq!(m.undefined().relation_len("win"), 3);
    }

    #[test]
    fn empty_game_empty_model() {
        let m = well_founded_model(&win_move(), &Instance::new());
        assert!(m.is_total());
        assert!(m.true_facts.is_empty());
    }

    #[test]
    fn session_tracks_model_across_updates() {
        let q = WellFoundedQuery::parse("win-move", "win(x) :- move(x,y), not win(y).").unwrap();
        let mut edb = chain_game(0, 3);
        let mut session = q.open(&edb);
        assert_eq!(session.model().true_facts, q.model(&edb).true_facts);
        let batches = [
            // Close the chain into an even cycle: everything drawn.
            UpdateBatch::inserting([fact("move", [3, 0])]),
            // Break it again and shorten the chain.
            UpdateBatch::deleting([fact("move", [3, 0]), fact("move", [2, 3])]),
            // Mixed batch with an out-of-schema fact (ignored).
            UpdateBatch::inserting([fact("win", [9]), fact("move", [2, 0])]),
        ];
        for (k, b) in batches.iter().enumerate() {
            session.apply(b);
            b.apply_to_instance(&mut edb);
            let expect = q.model(&edb.restrict(q.input_schema()));
            assert_eq!(session.model().true_facts, expect.true_facts, "batch {k}");
            assert_eq!(
                session.model().possible_facts,
                expect.possible_facts,
                "batch {k}"
            );
            assert_eq!(session.output(), q.eval(&edb), "batch {k}");
        }
        // The out-of-schema win(9) never entered the session EDB.
        assert!(!session.edb().contains(&fact("win", [9])));
    }
}
