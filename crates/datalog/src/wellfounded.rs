//! The well-founded semantics for (possibly non-stratifiable) Datalog¬,
//! via the alternating fixpoint. The "doubled program" construction the
//! paper invokes for connected Datalog under WFS (Section 7) is
//! `calm-spec`'s.
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

use crate::eval::database::Database;
use crate::eval::seminaive::{fixpoint, CompiledProgram, EvalOptions};
use crate::program::Program;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_obs::Obs;

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
    fixpoint(cp, db.storage_mut(), Some(k.storage()), None, obs);
    db
}

/// Compute the well-founded model of `p` on `input` by the alternating
/// fixpoint. Works for every Datalog¬ program (stratifiable or not); on
/// stratifiable programs the result is total and equals the stratified
/// semantics. Every `Γ` application runs with `options` (with
/// `options.eval_threads` > 1, data-parallel; the model is the same
/// for any thread count) in one span on `obs`, labelled over/under by
/// alternation side, and a final `gamma_applications` counter follows.
///
/// ```
/// use calm_datalog::{parse_program, well_founded_model, EvalOptions};
/// use calm_common::{fact, Instance};
/// use calm_obs::Obs;
///
/// let win_move = parse_program("win(x) :- move(x,y), not win(y).").unwrap();
/// // 1 -> 2 -> 3 plus the drawn 2-cycle {8, 9}.
/// let game = Instance::from_facts([
///     fact("move", [1, 2]), fact("move", [2, 3]),
///     fact("move", [8, 9]), fact("move", [9, 8]),
/// ]);
/// let model = well_founded_model(&win_move, &game, EvalOptions::default(), &Obs::noop());
/// assert_eq!(model.truth(&fact("win", [2])), Some(true));  // won
/// assert_eq!(model.truth(&fact("win", [3])), Some(false)); // lost (sink)
/// assert_eq!(model.truth(&fact("win", [8])), None);        // drawn
/// ```
pub fn well_founded_model(
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

/// A query evaluated under the well-founded semantics: the answer is the
/// set of *true* facts over the program's output schema (the convention
/// used for win-move in the paper and in Zinn et al.).
pub struct WellFoundedQuery {
    name: String,
    program: Program,
    input_schema: Schema,
    output_schema: Schema,
    options: EvalOptions,
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
            options: EvalOptions::default(),
        }
    }

    /// Run every `Γ` application with `n` data-parallel eval threads
    /// (default 1 = sequential; the model is identical either way).
    #[must_use]
    pub fn with_eval_threads(mut self, n: usize) -> Self {
        self.options = self.options.with_eval_threads(n);
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
        well_founded_model(
            &self.program,
            &input.restrict(&self.input_schema),
            self.options,
            &Obs::noop(),
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

    fn wfs(p: &Program, input: &Instance) -> WellFoundedModel {
        well_founded_model(p, input, EvalOptions::default(), &Obs::noop())
    }

    fn win_move() -> Program {
        parse_program("win(x) :- move(x,y), not win(y).").unwrap()
    }

    #[test]
    fn chain_alternates_win_lose() {
        // 0 -> 1 -> 2 -> 3: 3 lost, 2 won, 1 lost, 0 won.
        let m = wfs(&win_move(), &chain_game(0, 3));
        assert!(m.is_total());
        assert_eq!(m.truth(&fact("win", [0])), Some(true));
        assert_eq!(m.truth(&fact("win", [1])), Some(false));
        assert_eq!(m.truth(&fact("win", [2])), Some(true));
        assert_eq!(m.truth(&fact("win", [3])), Some(false));
    }

    #[test]
    fn even_cycle_all_drawn() {
        let m = wfs(&win_move(), &cycle_game(0, 4));
        assert!(!m.is_total());
        for k in 0..4 {
            assert_eq!(m.truth(&fact("win", [k])), None, "position {k} drawn");
        }
    }

    #[test]
    fn cycle_with_escape_is_determined() {
        // a=10, b=11, c=12: c lost, b won (b->c), a lost (only move to won b).
        let m = wfs(&win_move(), &cycle_with_escape(10));
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
        let model = wfs(&p, &input);
        assert!(model.is_total());
        let (strat, _) =
            crate::eval::eval_program(&p, &input, EvalOptions::default(), &Obs::noop()).unwrap();
        assert_eq!(model.true_facts, strat);
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
        let m = wfs(&win_move(), &cycle_game(0, 3));
        assert_eq!(m.undefined().relation_len("win"), 3);
    }

    #[test]
    fn empty_game_empty_model() {
        let m = wfs(&win_move(), &Instance::new());
        assert!(m.is_total());
        assert!(m.true_facts.is_empty());
    }
}
