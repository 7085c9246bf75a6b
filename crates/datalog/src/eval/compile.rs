//! Rule compilation: variables are numbered into dense slots and every
//! relation name / constant is interned, so that rule matching works over
//! a flat `Vec<Option<Sym>>` binding with `Copy` u32 comparisons instead
//! of a name-keyed map of cloned values.

use crate::ast::{Rule, Term, Var};
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

/// How the join loop enumerates an atom's candidate rows, chosen at
/// compile time from the atom's probe position (Storage v2 planner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// The probe position is the leading column: binary-search the
    /// relation's sorted immutable batches (lexicographic row order
    /// makes leading-column groups contiguous). No hash index is built
    /// or maintained for the relation's leading column.
    Merge,
    /// The probe position is a non-leading column: probe the
    /// incrementally maintained per-column hash index.
    Hash,
    /// No position is bound when the atom is reached: scan all rows.
    Scan,
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JoinStrategy::Merge => "merge",
            JoinStrategy::Hash => "hash",
            JoinStrategy::Scan => "scan",
        })
    }
}

/// A compiled atom.
#[derive(Debug, Clone)]
pub struct CompiledAtom {
    /// Interned relation to scan.
    pub relation: RelId,
    /// Per-position slots.
    pub slots: Vec<Slot>,
    /// The first position guaranteed bound when this atom is evaluated in
    /// body order (a constant, or a variable introduced by an earlier
    /// atom). Used for merge/hash probes; `None` means full scan.
    pub probe: Option<usize>,
    /// How candidate rows are enumerated when indexes are enabled:
    /// derived from `probe` (leading column ⇒ merge join over sorted
    /// batches, other column ⇒ hash probe, unbound ⇒ scan).
    pub strategy: JoinStrategy,
}

/// A rule compiled for evaluation (against the symbol table it was
/// compiled with).
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Number of variable slots.
    pub nvars: usize,
    /// Positive body atoms, in evaluation order.
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
}

/// Compile a rule with greedy join ordering: positive atoms are reordered
/// so that each atom shares as many variables as possible with the atoms
/// before it (and constants count as bound). This turns Cartesian-product
/// scans into index-supported joins wherever the rule's shape allows.
/// Reordering never changes semantics — the positive body is a
/// conjunction.
pub fn compile_rule_ordered(
    rule: &Rule,
    table: &mut SymbolTable,
    is_current_idb: impl Fn(&str) -> bool,
) -> CompiledRule {
    let mut ordered = rule.clone();
    ordered.pos = order_atoms(&rule.pos);
    compile_rule(&ordered, table, is_current_idb)
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
fn order_atoms(pos: &[crate::ast::Atom]) -> Vec<crate::ast::Atom> {
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
    let mut groups: Vec<Vec<(usize, &crate::ast::Atom)>> = vec![Vec::new(); ncomp];
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
/// `Some(variable)` or `None` for a constant — so the rule compiler
/// orders AST atoms within a connected component and the maintenance
/// planner ([`CompiledRule::access_path`]) orders compiled atoms
/// around an already-bound seed with the same policy. Returns the keys
/// in join order.
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

/// Compile a rule in the body order given, interning relation names and
/// constants into `table`. `is_current_idb` flags which relations belong
/// to the stratum being evaluated (for semi-naive).
pub fn compile_rule(
    rule: &Rule,
    table: &mut SymbolTable,
    is_current_idb: impl Fn(&str) -> bool,
) -> CompiledRule {
    let mut slots: BTreeMap<Var, usize> = BTreeMap::new();
    let slot_of = |v: &Var, slots: &mut BTreeMap<Var, usize>| -> usize {
        if let Some(&i) = slots.get(v) {
            i
        } else {
            let i = slots.len();
            slots.insert(v.clone(), i);
            i
        }
    };
    let compile_term =
        |t: &Term, slots: &mut BTreeMap<Var, usize>, table: &mut SymbolTable| -> Slot {
            match t {
                Term::Var(v) => Slot::Var(slot_of(v, slots)),
                Term::Const(c) => Slot::Const(table.sym(c)),
                Term::Invention => {
                    panic!("invention symbol must be rewritten (Skolemized) before compilation")
                }
            }
        };
    // Positive atoms first so that head/neg/ineq slots refer to already
    // numbered variables (safety guarantees every variable occurs in pos).
    // While compiling, track which slots are bound by earlier atoms to
    // derive each atom's probe position.
    let mut bound_slots: BTreeSet<usize> = BTreeSet::new();
    let pos: Vec<CompiledAtom> = rule
        .pos
        .iter()
        .map(|a| {
            let compiled_slots: Vec<Slot> = a
                .terms
                .iter()
                .map(|t| compile_term(t, &mut slots, table))
                .collect();
            let probe = compiled_slots.iter().position(|s| match s {
                Slot::Const(_) => true,
                Slot::Var(i) => bound_slots.contains(i),
            });
            for s in &compiled_slots {
                if let Slot::Var(i) = s {
                    bound_slots.insert(*i);
                }
            }
            CompiledAtom {
                relation: table.rel(&a.relation),
                slots: compiled_slots,
                probe,
                strategy: strategy_for(probe),
            }
        })
        .collect();
    let neg: Vec<CompiledAtom> = rule
        .neg
        .iter()
        .map(|a| CompiledAtom {
            relation: table.rel(&a.relation),
            slots: a
                .terms
                .iter()
                .map(|t| compile_term(t, &mut slots, table))
                .collect(),
            probe: None,
            strategy: JoinStrategy::Scan,
        })
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
    let head = CompiledAtom {
        relation: table.rel(&rule.head.relation),
        slots: rule
            .head
            .terms
            .iter()
            .map(|t| compile_term(t, &mut slots, table))
            .collect(),
        probe: None,
        strategy: JoinStrategy::Scan,
    };
    let recursive_pos = rule
        .pos
        .iter()
        .map(|a| is_current_idb(&a.relation))
        .collect();
    CompiledRule {
        nvars: slots.len(),
        pos,
        neg,
        ineq,
        head,
        recursive_pos,
    }
}

/// The join strategy implied by a probe position: the leading column is
/// contiguous under sorted-batch (lexicographic) row order, so it is
/// merge-joinable without any hash index; any other bound position
/// falls back to the per-column hash index; no bound position scans.
fn strategy_for(probe: Option<usize>) -> JoinStrategy {
    match probe {
        Some(0) => JoinStrategy::Merge,
        Some(_) => JoinStrategy::Hash,
        None => JoinStrategy::Scan,
    }
}

/// The atom a maintenance join starts from: its variables are bound
/// from one changed (or, for the head, checked) tuple before any other
/// atom is visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seed {
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
    /// Probe the hash index of this (bound) column.
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

/// A join order for one `(rule, seed)` pair of incremental
/// maintenance: the seeded atom first, then every other positive atom
/// with its access chosen from what is bound by then.
#[derive(Debug, Clone)]
pub struct AccessPath {
    /// Match program of the seeded atom against the seeding tuple.
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
    /// Whether the rule has at least one positive atom over the current
    /// stratum's idb (i.e., participates in the fixpoint recursion).
    pub fn is_recursive(&self) -> bool {
        self.recursive_pos.iter().any(|&b| b)
    }

    /// Plan the maintenance join seeded at `seed` with the rule
    /// compiler's own [`greedy_order`], started from the seed's
    /// variables. Ties go to atoms over lower strata before atoms over
    /// the stratum's own (recursive, typically far larger) relations:
    /// with the head of `T(x,z) :- T(x,y), E(y,z)` bound, probing
    /// `E(·,z)` and looking `T(x,y)` up costs the in-degree of `z`,
    /// the other way round the whole closure of `x`.
    pub fn access_path(&self, seed: Seed) -> AccessPath {
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
        let steps = order
            .into_iter()
            .map(|rank| {
                let atom = rest[rank];
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
                let cols = col_ops(slots, &mut bound);
                Step { atom, access, cols }
            })
            .collect();
        AccessPath {
            seed: seed_ops,
            steps,
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
        let c = compile_rule(&r, &mut table, |rel| rel == "T");
        assert_eq!(c.nvars, 3);
        // T(x,y): slots 0,1. E(y,z): slots 1,2. Head T(x,z): 0,2.
        assert_eq!(c.pos[0].slots, vec![Slot::Var(0), Slot::Var(1)]);
        assert_eq!(c.pos[1].slots, vec![Slot::Var(1), Slot::Var(2)]);
        assert_eq!(c.head.slots, vec![Slot::Var(0), Slot::Var(2)]);
        assert_eq!(c.recursive_pos, vec![true, false]);
        assert!(c.is_recursive());
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
        let c = compile_rule_ordered(&r, &mut table, |_| false);
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
        let c = compile_rule_ordered(&r, &mut table, |_| false);
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
        let c = compile_rule_ordered(&r, &mut table, |_| false);
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
        use crate::eval::seminaive::fixpoint_seminaive;
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
        let m = fixpoint_seminaive(&p, &mut db);
        assert_eq!(db.to_instance().relation_len("O"), n as usize);
        assert_eq!(m.derivations, (n * n) as usize);
        let probes = m.index_probes + m.merge_probes;
        assert!(
            probes <= 4 * n as usize,
            "probes not linear: {probes} for n = {n}"
        );
    }

    #[test]
    fn join_strategy_follows_probe_position() {
        // T(x,y) scans (first atom), E(y,z) probes at its leading
        // column (merge), F(z,y) probes y at position 1 (hash).
        let r = parse_rule("O(x) :- T(x,y), E(y,z), F(w,z).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false);
        assert_eq!(c.pos[0].probe, None);
        assert_eq!(c.pos[0].strategy, JoinStrategy::Scan);
        assert_eq!(c.pos[1].probe, Some(0));
        assert_eq!(c.pos[1].strategy, JoinStrategy::Merge);
        assert_eq!(c.pos[2].probe, Some(1));
        assert_eq!(c.pos[2].strategy, JoinStrategy::Hash);
        // Constants in the leading position also merge.
        let r2 = parse_rule("O(x) :- R(3, x).").unwrap();
        let c2 = compile_rule(&r2, &mut table, |_| false);
        assert_eq!(c2.pos[0].strategy, JoinStrategy::Merge);
    }

    #[test]
    fn ordering_preserves_semantics() {
        use crate::eval::database::Database;
        use crate::eval::seminaive::fixpoint_seminaive;
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
        fixpoint_seminaive(&p, &mut db);
        let out = db.to_instance();
        assert_eq!(out.relation_len("O"), 1);
        assert!(out.contains(&fact("O", [3])));
    }

    #[test]
    fn constants_compile_to_const_slots() {
        let r = parse_rule("O(x) :- R(x, 3).").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false);
        let three = table.lookup_sym(&calm_common::v(3)).unwrap();
        assert_eq!(c.pos[0].slots[1], Slot::Const(three));
        assert!(!c.is_recursive());
    }

    #[test]
    fn neg_and_ineq_compiled() {
        let r = parse_rule("O(x) :- V(x), not W(x), x != 3.").unwrap();
        let mut table = SymbolTable::new();
        let c = compile_rule(&r, &mut table, |_| false);
        assert_eq!(c.neg.len(), 1);
        assert_eq!(c.ineq.len(), 1);
        assert_eq!(c.ineq[0].0, Slot::Var(0));
    }
}
