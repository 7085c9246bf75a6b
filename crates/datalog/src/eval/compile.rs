//! Rule compilation: variables are numbered into dense slots and every
//! relation name / constant is interned, so that rule matching works over
//! a flat `Vec<Sym>` binding with `Copy` u32 comparisons instead of a
//! name-keyed map of cloned values. Compilation also plans every
//! [`AccessPath`] the join kernel (`eval/join.rs`) takes through the
//! rule — this module is the only planner.

use crate::ast::{Atom, Rule, Term, Var};
use calm_common::storage::{RelId, Sym, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};

/// A compiled term: either an interned constant or a variable slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A constant (interned) that must match exactly.
    Const(Sym),
    /// A variable slot (index into the binding vector).
    Var(usize),
}

/// A compiled atom.
#[derive(Debug, Clone)]
pub struct CompiledAtom {
    /// Interned relation to scan.
    pub relation: RelId,
    /// Per-position slots.
    pub slots: Vec<Slot>,
}

/// A rule compiled for evaluation (against the symbol table it was
/// compiled with).
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Number of variable slots.
    pub nvars: usize,
    /// Positive body atoms, in body order (greedily reordered when the
    /// rule was compiled with `reorder`).
    pub pos: Vec<CompiledAtom>,
    /// Negative body atoms (checked after the positive join).
    pub neg: Vec<CompiledAtom>,
    /// Inequalities (checked after the positive join).
    pub ineq: Vec<(Slot, Slot)>,
    /// The head template. `Slot::Var` entries are guaranteed bound after
    /// the positive join (rule safety).
    pub head: CompiledAtom,
    /// For each positive atom index: whether its relation is an idb
    /// predicate of the current stratum (used for semi-naive delta
    /// placement).
    pub recursive_pos: Vec<bool>,
    /// Every access path the kernel takes through this rule.
    pub paths: RulePaths,
}

/// The access paths of one rule, one per place a join starts from.
#[derive(Debug, Clone, Default)]
pub struct RulePaths {
    /// No seed: every positive atom in body order — round 0 of the
    /// fixpoint, one-shot derivation.
    pub body: AccessPath,
    /// Positive atom `i` bound to a delta row.
    pub pos: Vec<AccessPath>,
    /// Negative atom `j` bound to a tuple that entered or left its
    /// relation.
    pub neg: Vec<AccessPath>,
    /// Head bound: "does any body valuation derive this tuple?"
    pub head: AccessPath,
}

/// Component-aware atom ordering.
///
/// The body's positive atoms are first grouped into connected components
/// of the "shares a variable" graph (each ground atom is its own
/// component), then each component is ordered greedily and the
/// components are concatenated, larger components first (ties: smallest
/// original index). Keeping each component contiguous is what matters:
/// the plain greedy picker used to choose its *first* atom by
/// fewest-new-variables, which could start with a tiny unrelated
/// component (e.g. `S(u)` in `O(x) :- S(u), A(x,y), B(y,z)`) and then
/// re-evaluate the whole `A ⋈ B` join once per `S` row — a Cartesian
/// prefix that is quadratically worse in index probes. Ordering the
/// join-bearing components first performs each join's probe work once.
/// Reordering never changes semantics — the positive body is a
/// conjunction, and components share no variables.
fn order_atoms(pos: &[Atom]) -> Vec<Atom> {
    let n = pos.len();
    let vars: Vec<BTreeSet<&Var>> = pos.iter().map(|a| a.variables().collect()).collect();
    // Flood-fill connected components over "atoms share a variable".
    const UNASSIGNED: usize = usize::MAX;
    let mut comp = vec![UNASSIGNED; n];
    let mut ncomp = 0;
    for start in 0..n {
        if comp[start] != UNASSIGNED {
            continue;
        }
        comp[start] = ncomp;
        let mut stack = vec![start];
        while let Some(j) = stack.pop() {
            for k in 0..n {
                if comp[k] == UNASSIGNED && !vars[j].is_disjoint(&vars[k]) {
                    comp[k] = ncomp;
                    stack.push(k);
                }
            }
        }
        ncomp += 1;
    }
    let mut groups: Vec<Vec<(usize, &Atom)>> = vec![Vec::new(); ncomp];
    for (i, atom) in pos.iter().enumerate() {
        groups[comp[i]].push((i, atom));
    }
    // Largest component first; ties by smallest original atom index.
    // Components are independent conjuncts, so the later ones re-run per
    // binding of the earlier ones — front-load the probe-heavy joins.
    groups.sort_by_key(|g| (usize::MAX - g.len(), g[0].0));
    let mut out = Vec::with_capacity(n);
    for group in groups {
        let shapes = group
            .into_iter()
            .map(|(i, atom)| (i, atom.terms.iter().map(Term::as_var).collect()))
            .collect();
        out.extend(
            greedy_order(shapes, &mut BTreeSet::new())
                .into_iter()
                .map(|i| pos[i].clone()),
        );
    }
    out
}

/// Greedy join ordering: repeatedly pick the unplaced atom with the
/// most already-bound variables (ties: most constants, then fewest new
/// variables, then smallest key for determinism), extending `bound`
/// with each pick. An atom is its key plus one entry per term —
/// `Some(variable)` or `None` for a constant — so the body order is
/// chosen over AST atoms within a connected component and a seeded
/// path ([`CompiledRule::seeded_path`]) over compiled atoms around an
/// already-bound seed with the same policy. Returns the keys in join
/// order.
fn greedy_order<K: Ord + Copy>(
    mut remaining: Vec<(usize, Vec<Option<K>>)>,
    bound: &mut BTreeSet<K>,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, (key, terms))| {
                let bound_vars = terms.iter().flatten().filter(|v| bound.contains(v)).count();
                let consts = terms.iter().filter(|t| t.is_none()).count();
                let new_vars = terms.len() - consts - bound_vars;
                // Max bound vars, then max constants, then min new vars,
                // then min key (stable).
                (bound_vars, consts, usize::MAX - new_vars, usize::MAX - *key)
            })
            .expect("nonempty");
        let (key, terms) = remaining.remove(best_idx);
        bound.extend(terms.into_iter().flatten());
        out.push(key);
    }
    out
}

/// Compile a rule, interning relation names and constants into `table`,
/// and plan its access paths. `is_current_idb` flags which relations
/// belong to the stratum being evaluated (for semi-naive). With
/// `reorder` the positive atoms are put in greedy join order — each
/// atom shares as many variables as possible with the atoms before it,
/// constants count as bound — and every seeded path is ordered the
/// same way around its seed; without it the body order is the source
/// order everywhere. Reordering never changes semantics: the positive
/// body is a conjunction.
pub fn compile_rule(
    rule: &Rule,
    table: &mut SymbolTable,
    is_current_idb: impl Fn(&str) -> bool,
    reorder: bool,
) -> CompiledRule {
    let mut slots: BTreeMap<Var, usize> = BTreeMap::new();
    let body = if reorder {
        order_atoms(&rule.pos)
    } else {
        rule.pos.clone()
    };
    // Positive atoms first so that head/neg/ineq slots refer to already
    // numbered variables (safety guarantees every variable occurs in pos).
    let pos: Vec<CompiledAtom> = (body.iter())
        .map(|a| compile_atom(a, &mut slots, table))
        .collect();
    let neg: Vec<CompiledAtom> = (rule.neg.iter())
        .map(|a| compile_atom(a, &mut slots, table))
        .collect();
    let ineq: Vec<(Slot, Slot)> = rule
        .ineq
        .iter()
        .map(|(l, r)| {
            (
                compile_term(l, &mut slots, table),
                compile_term(r, &mut slots, table),
            )
        })
        .collect();
    let head = compile_atom(&rule.head, &mut slots, table);
    let mut compiled = CompiledRule {
        nvars: slots.len(),
        recursive_pos: body.iter().map(|a| is_current_idb(&a.relation)).collect(),
        pos,
        neg,
        ineq,
        head,
        paths: RulePaths::default(),
    };
    compiled.paths = RulePaths {
        body: compiled.body_path(),
        pos: (0..compiled.pos.len())
            .map(|i| compiled.seeded_path(Seed::Pos(i), reorder))
            .collect(),
        neg: (0..compiled.neg.len())
            .map(|j| compiled.seeded_path(Seed::Neg(j), reorder))
            .collect(),
        head: compiled.seeded_path(Seed::Head, reorder),
    };
    compiled
}

fn compile_atom(
    a: &Atom,
    slots: &mut BTreeMap<Var, usize>,
    table: &mut SymbolTable,
) -> CompiledAtom {
    CompiledAtom {
        relation: table.rel(&a.relation),
        slots: (a.terms.iter())
            .map(|t| compile_term(t, slots, table))
            .collect(),
    }
}

fn compile_term(t: &Term, slots: &mut BTreeMap<Var, usize>, table: &mut SymbolTable) -> Slot {
    match t {
        Term::Var(v) => {
            let next = slots.len();
            Slot::Var(*slots.entry(v.clone()).or_insert(next))
        }
        Term::Const(c) => Slot::Const(table.sym(c)),
        Term::Invention => {
            panic!("invention symbol must be rewritten (Skolemized) before compilation")
        }
    }
}

/// The atom a seeded join starts from: its variables are bound from one
/// delta (or, for the head, checked) tuple before any other atom is
/// visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seed {
    /// Positive atom `i` ranges over a delta instead of its relation.
    Pos(usize),
    /// Negative atom `j` is bound to a tuple that entered or left its
    /// relation.
    Neg(usize),
    /// The head is bound: "does any body valuation derive this tuple?"
    Head,
}

/// What matching one column of a row does, decided at plan time from
/// the variables bound before that column is reached — so the join
/// loop neither tests for boundness nor undoes bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColOp {
    /// First occurrence of a variable on this access path: store the
    /// row's symbol in the slot.
    Bind(usize),
    /// A constant or an already-bound variable: the row must agree.
    Eq(Slot),
}

/// How one step of an [`AccessPath`] finds its candidate rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Every column is bound: one membership lookup.
    Lookup,
    /// Probe the hash index of this (bound) column; a relation that
    /// carries no such index is scanned instead.
    Probe(usize),
    /// Nothing is bound (the atom shares no variable with anything
    /// before it): visit every row.
    Scan,
}

/// One positive atom on an [`AccessPath`].
#[derive(Debug, Clone)]
pub struct Step {
    /// Index into [`CompiledRule::pos`].
    pub atom: usize,
    /// Where the candidate rows come from.
    pub access: Access,
    /// Per-column match program.
    pub cols: Vec<ColOp>,
}

/// One join order through a rule: the seeded atom (if any) first, then
/// every other positive atom with its access chosen from what is bound
/// by then.
#[derive(Debug, Clone, Default)]
pub struct AccessPath {
    /// Match program of the seeded atom against the seeding tuple
    /// (empty on the seedless body path).
    pub seed: Vec<ColOp>,
    /// The remaining positive atoms, in join order.
    pub steps: Vec<Step>,
}

/// The match program of `slots` given the variables bound so far,
/// which it extends.
fn col_ops(slots: &[Slot], bound: &mut BTreeSet<usize>) -> Vec<ColOp> {
    slots
        .iter()
        .map(|&slot| match slot {
            Slot::Var(i) if bound.insert(i) => ColOp::Bind(i),
            _ => ColOp::Eq(slot),
        })
        .collect()
}

impl CompiledRule {
    /// The paths the semi-naive fixpoint runs, each with its seed
    /// position: the body path in round 0, then one seeded path per
    /// recursive positive atom in the delta rounds.
    pub(crate) fn fixpoint_paths(&self) -> impl Iterator<Item = (Option<usize>, &AccessPath)> {
        let deltas = (self.paths.pos.iter().enumerate()).filter(|&(i, _)| self.recursive_pos[i]);
        std::iter::once((None, &self.paths.body)).chain(deltas.map(|(i, p)| (Some(i), p)))
    }

    /// The `(relation, column)` hash indexes `paths` probe.
    pub(crate) fn probed<'a>(
        &'a self,
        paths: impl IntoIterator<Item = &'a AccessPath> + 'a,
    ) -> impl Iterator<Item = (RelId, usize)> + 'a {
        let steps = paths.into_iter().flat_map(|path| &path.steps);
        steps.filter_map(|step| match step.access {
            Access::Probe(col) => Some((self.pos[step.atom].relation, col)),
            _ => None,
        })
    }

    /// The steps visiting the positive atoms `order`, each with its
    /// access chosen from `bound` — the variables bound when it is
    /// reached — which they extend.
    fn steps(
        &self,
        order: impl IntoIterator<Item = usize>,
        bound: &mut BTreeSet<usize>,
    ) -> Vec<Step> {
        order
            .into_iter()
            .map(|atom| {
                let slots = &self.pos[atom].slots;
                // Bound *before* this atom is reached: a variable the
                // atom itself repeats is matched, not probed.
                let is_bound = |s: &Slot| match s {
                    Slot::Const(_) => true,
                    Slot::Var(v) => bound.contains(v),
                };
                let access = if slots.iter().all(is_bound) {
                    Access::Lookup
                } else {
                    slots
                        .iter()
                        .position(is_bound)
                        .map_or(Access::Scan, Access::Probe)
                };
                let cols = col_ops(slots, bound);
                Step { atom, access, cols }
            })
            .collect()
    }

    /// The seedless path: every positive atom in body order.
    fn body_path(&self) -> AccessPath {
        AccessPath {
            seed: Vec::new(),
            steps: self.steps(0..self.pos.len(), &mut BTreeSet::new()),
        }
    }

    /// The path seeded at `seed`: with `reorder`, the other positive
    /// atoms in [`greedy_order`] started from the seed's variables,
    /// otherwise in body order. Ties go to atoms over lower strata
    /// before atoms over the stratum's own (recursive, typically far
    /// larger) relations: with the head of `T(x,z) :- T(x,y), E(y,z)`
    /// bound, probing `E(·,z)` and looking `T(x,y)` up costs the
    /// in-degree of `z`, the other way round the whole closure of `x`.
    fn seeded_path(&self, seed: Seed, reorder: bool) -> AccessPath {
        let seeded = match seed {
            Seed::Pos(i) => &self.pos[i],
            Seed::Neg(j) => &self.neg[j],
            Seed::Head => &self.head,
        };
        let mut bound = BTreeSet::new();
        let seed_ops = col_ops(&seeded.slots, &mut bound);
        let mut rest: Vec<usize> = (0..self.pos.len())
            .filter(|&i| seed != Seed::Pos(i))
            .collect();
        if reorder {
            rest.sort_by_key(|&i| self.recursive_pos[i]);
            let shapes = rest
                .iter()
                .enumerate()
                .map(|(rank, &i)| {
                    let terms = self.pos[i].slots.iter().map(|s| match s {
                        Slot::Var(v) => Some(*v),
                        Slot::Const(_) => None,
                    });
                    (rank, terms.collect())
                })
                .collect();
            let order = greedy_order(shapes, &mut bound.clone());
            rest = order.into_iter().map(|rank| rest[rank]).collect();
        }
        AccessPath {
            seed: seed_ops,
            steps: self.steps(rest, &mut bound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    #[test]
    fn slots_are_shared_across_atoms() {
        let r = parse_rule("T(x,z) :- T(x,y), E(y,z).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |rel| rel == "T", false);
        assert_eq!(c.nvars, 3);
        // T(x,y): slots 0,1. E(y,z): slots 1,2. Head T(x,z): 0,2.
        assert_eq!(c.pos[0].slots, vec![Slot::Var(0), Slot::Var(1)]);
        assert_eq!(c.pos[1].slots, vec![Slot::Var(1), Slot::Var(2)]);
        assert_eq!(c.head.slots, vec![Slot::Var(0), Slot::Var(2)]);
        assert_eq!(c.recursive_pos, vec![true, false]);
        // The head and first atom intern to the same relation id.
        assert_eq!(c.head.relation, c.pos[0].relation);
        assert_eq!(table.rel_name(c.pos[1].relation).as_ref(), "E");
    }

    #[test]
    fn ordering_moves_connected_atoms_together() {
        // O(w) :- A(x), B(x, y), C(y, w): already well-ordered; a
        // shuffled version must be restored so each atom binds to the
        // previous ones.
        let r = parse_rule("O(w) :- C(y, w), A(x), B(x, y).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false, true);
        // First atom introduces variables; every later atom must share at
        // least one slot with earlier atoms (no Cartesian step exists for
        // this rule shape).
        let mut seen: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (i, atom) in c.pos.iter().enumerate() {
            let slots: Vec<usize> = atom
                .slots
                .iter()
                .filter_map(|s| match s {
                    Slot::Var(v) => Some(*v),
                    Slot::Const(_) => None,
                })
                .collect();
            if i > 0 {
                assert!(
                    slots.iter().any(|s| seen.contains(s)),
                    "atom {i} ({}) is a Cartesian step",
                    table.rel_name(atom.relation)
                );
            }
            seen.extend(slots);
        }
    }

    #[test]
    fn ordering_prefers_constant_bound_atoms_first() {
        let r = parse_rule("O(x) :- A(x, y), B(y, 3).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false, true);
        assert_eq!(
            table.rel_name(c.pos[0].relation).as_ref(),
            "B",
            "constant-selective atom first"
        );
    }

    #[test]
    fn ordering_puts_join_components_before_disconnected_singletons() {
        // Two connected components: {A, B} (share y) and {S}. The plain
        // greedy picker used to start with S (fewest new variables),
        // creating a Cartesian prefix; the join-bearing component must
        // come first.
        let r = parse_rule("O(x) :- S(u), A(x, y), B(y, z).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false, true);
        let names: Vec<&str> = c
            .pos
            .iter()
            .map(|a| table.rel_name(a.relation).as_ref())
            .collect();
        assert_eq!(names, ["A", "B", "S"]);
    }

    #[test]
    fn component_ordering_avoids_quadratic_probe_blowup() {
        // n S-facts alongside an A ⋈ B chain. Starting with S re-runs
        // the whole A ⋈ B probe work once per S row — O(n²) index
        // probes; component-aware ordering performs the join once and
        // only repeats the probe-free S scan — O(n) probes. Derivations
        // are order-independent (n² full bindings) and pin that both
        // orders enumerate the same bindings.
        use crate::eval::database::Database;
        use crate::eval::seminaive::{fixpoint_with, EvalOptions};
        use calm_common::fact::fact;
        use calm_common::instance::Instance;
        let n: i64 = 64;
        let mut facts = Vec::new();
        for i in 0..n {
            facts.push(fact("S", [i]));
            facts.push(fact("A", [i, i]));
            facts.push(fact("B", [i, i]));
        }
        let p = crate::parser::parse_program("O(x) :- S(u), A(x, y), B(y, z).").unwrap();
        let mut db = Database::from_instance(&Instance::from_facts(facts));
        let m = fixpoint_with(&p, &mut db, EvalOptions::default());
        assert_eq!(db.to_instance().relation_len("O"), n as usize);
        assert_eq!(m.derivations, (n * n) as usize);
        assert!(
            m.index_probes <= 4 * n as usize,
            "probes not linear: {} for n = {n}",
            m.index_probes
        );
    }

    fn accesses(path: &AccessPath) -> Vec<(usize, Access)> {
        path.steps.iter().map(|s| (s.atom, s.access)).collect()
    }

    #[test]
    fn body_path_access_follows_the_bound_columns() {
        // T(x,y) scans (first atom), E(y,z) probes its leading column,
        // F(w,z) probes z at column 1, and G(x,z) is fully bound.
        let r = parse_rule("O(x) :- T(x,y), E(y,z), F(w,z), G(x,z).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false, false);
        assert!(c.paths.body.seed.is_empty());
        assert_eq!(
            accesses(&c.paths.body),
            [
                (0, Access::Scan),
                (1, Access::Probe(0)),
                (2, Access::Probe(1)),
                (3, Access::Lookup)
            ]
        );
        // A constant is bound from the start; a variable the atom itself
        // repeats is matched, not probed.
        let r2 = parse_rule("O(x) :- R(3, x), S(y, y).").unwrap();
        let c2 = compile_rule(&r2, &mut table, |_| false, false);
        assert_eq!(
            accesses(&c2.paths.body),
            [(0, Access::Probe(0)), (1, Access::Scan)]
        );
        assert_eq!(
            c2.paths.body.steps[1].cols,
            [ColOp::Bind(1), ColOp::Eq(Slot::Var(1))]
        );
    }

    #[test]
    fn seeded_paths_start_from_the_delta_and_probe_the_rest() {
        // Right-linear TC: seeded at T (atom 1), E is probed backwards
        // on the column T's row binds; seeded at E, T forwards.
        let r = parse_rule("T(x,z) :- E(x,y), T(y,z).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |rel| rel == "T", true);
        assert_eq!(accesses(&c.paths.pos[1]), [(0, Access::Probe(1))]);
        assert_eq!(accesses(&c.paths.pos[0]), [(1, Access::Probe(0))]);
        // Head bound: the lower-stratum atom is probed first, the
        // recursive one looked up.
        assert_eq!(
            accesses(&c.paths.head),
            [(0, Access::Probe(0)), (1, Access::Lookup)]
        );
        // The fixpoint runs the body path and the recursive seed only,
        // so it probes T.0 and E.1 — never E.0, which only the
        // maintenance seed at E needs... and T.0 again.
        let own: BTreeSet<_> = c.probed(c.fixpoint_paths().map(|(_, p)| p)).collect();
        let (e, t) = (c.pos[0].relation, c.pos[1].relation);
        assert_eq!(own, BTreeSet::from([(t, 0), (e, 1)]));
        // A repeated variable in the seeded atom is checked on the seed.
        let d = parse_rule("S(x) :- T(x,x), E(x,y).").unwrap();
        let cd = compile_rule(&d, &mut table, |rel| rel == "T", true);
        let seeded_at_t = (0..2).find(|&i| cd.recursive_pos[i]).unwrap();
        assert_eq!(
            cd.paths.pos[seeded_at_t].seed,
            [ColOp::Bind(0), ColOp::Eq(Slot::Var(0))]
        );
    }

    #[test]
    fn seeded_paths_keep_the_body_order_without_reordering() {
        let r = parse_rule("O(x) :- A(x,y), B(z,w), C(y,z).").unwrap();
        let mut table = SymbolTable::new();
        let plain = compile_rule(&r, &mut table, |_| false, false);
        assert_eq!(
            accesses(&plain.paths.pos[0]),
            [(1, Access::Scan), (2, Access::Lookup)]
        );
        // Compiled with reordering, the body is A, C, B and the path
        // seeded at A visits C (bound through y) before B.
        let ordered = compile_rule(&r, &mut table, |_| false, true);
        let a = ordered.pos[0].relation;
        assert_eq!(table.rel_name(a).as_ref(), "A");
        assert_eq!(
            accesses(&ordered.paths.pos[0]),
            [(1, Access::Probe(0)), (2, Access::Probe(0))]
        );
    }

    #[test]
    fn ordering_preserves_semantics() {
        use crate::eval::database::Database;
        use crate::eval::seminaive::{fixpoint_with, EvalOptions};
        use calm_common::fact::fact;
        use calm_common::instance::Instance;
        let src = "O(w) :- C(y, w), A(x), B(x, y).";
        let p = crate::parser::parse_program(src).unwrap();
        let input = Instance::from_facts([
            fact("A", [1]),
            fact("A", [9]),
            fact("B", [1, 2]),
            fact("C", [2, 3]),
            fact("C", [7, 8]),
        ]);
        let mut db = Database::from_instance(&input);
        fixpoint_with(&p, &mut db, EvalOptions::default());
        let out = db.to_instance();
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [3])));
    }

    #[test]
    fn constants_compile_to_const_slots() {
        let r = parse_rule("O(x) :- R(x, 3).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false, false);
        let three = table.lookup_sym(&calm_common::v(3)).unwrap();
        assert_eq!(c.pos[0].slots[1], Slot::Const(three));
        assert_eq!(c.recursive_pos, [false]);
    }

    #[test]
    fn neg_and_ineq_compiled() {
        let r = parse_rule("O(x) :- V(x), not W(x), x != 3.").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false, false);
        assert_eq!(c.neg.len(), 1);
        assert_eq!(c.ineq.len(), 1);
        assert_eq!(c.ineq[0].0, Slot::Var(0));
    }
}
