//! Win-move — the flagship non-monotone query of the CALM refinement.
//!
//! `win(x) ← move(x, y), ¬win(y)` under the **well-founded semantics**:
//! the query outputs the positions that are certainly won. Zinn, Green and
//! Ludäscher showed win-move is coordination-free for domain-guided
//! distributions; this paper derives it from `win-move ∈ Mdisjoint` (via
//! the connected doubled program, Section 7) and `F2 = Mdisjoint`
//! (Theorem 4.4). Win-move is *not* in `Mdistinct`.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::query::{FnQuery, Query};
use calm_common::schema::Schema;
use calm_common::value::Value;
use calm_datalog::WellFoundedQuery;
use std::collections::{BTreeMap, BTreeSet};

/// The win-move program source.
pub const WIN_MOVE_SRC: &str = "win(x) :- move(x,y), not win(y).";

/// Win-move as a well-founded-semantics query (true `win` facts).
pub fn win_move() -> WellFoundedQuery {
    WellFoundedQuery::parse("win-move", WIN_MOVE_SRC).expect("well-formed")
}

/// Native win-move via backward induction (the classical game-solving
/// algorithm): a position is LOST when all moves go to WON positions
/// (vacuously for sinks), WON when some move goes to a LOST position;
/// unresolved positions are drawn. Returns the WON positions — the same
/// answer as the WFS true facts.
pub fn win_move_native() -> impl Query {
    FnQuery::new(
        "win-move-native",
        Schema::from_pairs([("move", 2)]),
        Schema::from_pairs([("win", 1)]),
        |i: &Instance| {
            let mut succ: BTreeMap<Value, BTreeSet<Value>> = BTreeMap::new();
            let mut pred: BTreeMap<Value, BTreeSet<Value>> = BTreeMap::new();
            let mut positions: BTreeSet<Value> = BTreeSet::new();
            for t in i.tuples("move") {
                succ.entry(t[0].clone()).or_default().insert(t[1].clone());
                pred.entry(t[1].clone()).or_default().insert(t[0].clone());
                positions.insert(t[0].clone());
                positions.insert(t[1].clone());
            }
            let mut won: BTreeSet<Value> = BTreeSet::new();
            let mut lost: BTreeSet<Value> = BTreeSet::new();
            // Remaining out-degree towards undetermined positions.
            let mut remaining: BTreeMap<Value, usize> = positions
                .iter()
                .map(|p| (p.clone(), succ.get(p).map_or(0, BTreeSet::len)))
                .collect();
            // Seed: sinks are lost.
            let mut queue: Vec<(Value, bool)> = positions
                .iter()
                .filter(|p| remaining[*p] == 0)
                .map(|p| (p.clone(), false))
                .collect();
            for (p, _) in &queue {
                lost.insert(p.clone());
            }
            while let Some((p, p_won)) = queue.pop() {
                let Some(parents) = pred.get(&p) else {
                    continue;
                };
                for parent in parents {
                    if won.contains(parent) || lost.contains(parent) {
                        continue;
                    }
                    if !p_won {
                        // Parent can move to a lost position: parent won.
                        won.insert(parent.clone());
                        queue.push((parent.clone(), true));
                    } else {
                        // One more of parent's moves leads to a won
                        // position; if all do, parent is lost.
                        let r = remaining.get_mut(parent).expect("known position");
                        *r -= 1;
                        if *r == 0 {
                            lost.insert(parent.clone());
                            queue.push((parent.clone(), false));
                        }
                    }
                }
            }
            Instance::from_facts(won.into_iter().map(|p| fact("win", [p])))
        },
    )
}

/// The *drawn* positions: undefined in the well-founded model (neither
/// won nor lost — play can continue forever). Like win-move itself this
/// query is in `Mdisjoint` (disjoint subgames cannot resolve a draw) but
/// not in `Mdistinct` (a fresh escape edge can determine a drawn cycle).
pub fn win_move_drawn() -> impl Query {
    let wfs = WellFoundedQuery::parse("win-move", WIN_MOVE_SRC).expect("well-formed");
    FnQuery::new(
        "win-move-drawn",
        Schema::from_pairs([("move", 2)]),
        Schema::from_pairs([("drawn", 1)]),
        move |i: &Instance| {
            let model = wfs.model(i);
            Instance::from_facts(
                model
                    .undefined()
                    .tuples("win")
                    .map(|t| fact("drawn", [t[0].clone()])),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::domain::{is_domain_disjoint, is_domain_distinct};
    use calm_common::generator::{chain_game, cycle_game, cycle_with_escape, mv, InstanceRng};

    #[test]
    fn wfs_and_native_agree_on_structured_games() {
        let q1 = win_move();
        let q2 = win_move_native();
        for game in [
            chain_game(0, 5),
            cycle_game(0, 3),
            cycle_game(0, 4),
            cycle_with_escape(0),
            Instance::new(),
        ] {
            assert_eq!(q1.eval(&game), q2.eval(&game), "on {game:?}");
        }
    }

    #[test]
    fn wfs_and_native_agree_on_random_games() {
        let q1 = win_move();
        let q2 = win_move_native();
        for seed in 0..10 {
            let game = InstanceRng::seeded(seed).move_graph(12, 3);
            assert_eq!(q1.eval(&game), q2.eval(&game), "seed {seed}");
        }
    }

    #[test]
    fn win_move_not_in_mdistinct() {
        // I: a single move a -> b; a is won (b is a sink).
        // J: one domain-distinct move b -> c; now b is won, a is lost.
        let q = win_move();
        let i = Instance::from_facts([mv(1, 2)]);
        let j = Instance::from_facts([mv(2, 3)]);
        assert!(is_domain_distinct(&j, &i));
        let before = q.eval(&i);
        let after = q.eval(&i.union(&j));
        assert!(before.contains(&fact("win", [1])));
        assert!(!after.contains(&fact("win", [1])));
        assert!(!before.is_subset(&after), "win-move ∉ Mdistinct");
    }

    #[test]
    fn win_move_survives_disjoint_additions() {
        // win-move ∈ Mdisjoint: disjoint subgames cannot change old
        // positions' status.
        let q = win_move();
        let i = chain_game(0, 4);
        let j = cycle_game(100, 3).union(&chain_game(200, 2));
        assert!(is_domain_disjoint(&j, &i));
        assert!(q.eval(&i).is_subset(&q.eval(&i.union(&j))));
    }

    #[test]
    fn drawn_positions_not_output() {
        let q = win_move();
        let out = q.eval(&cycle_game(0, 4));
        assert!(out.is_empty(), "drawn positions are not won");
    }

    #[test]
    fn drawn_query_identifies_cycles() {
        let q = win_move_drawn();
        let game = chain_game(0, 3).union(&cycle_game(100, 4));
        let out = q.eval(&game);
        assert_eq!(out.relation_len("drawn"), 4);
        assert!(out.contains(&fact("drawn", [100])));
        assert!(!out.contains(&fact("drawn", [0])));
    }

    #[test]
    fn drawn_query_not_in_mdistinct_but_disjoint_safe() {
        let q = win_move_drawn();
        // A 2-cycle is drawn; a fresh escape edge determines it.
        let i = Instance::from_facts([mv(1, 2), mv(2, 1)]);
        let j = Instance::from_facts([mv(2, 3)]);
        assert!(is_domain_distinct(&j, &i));
        let before = q.eval(&i);
        let after = q.eval(&i.union(&j));
        assert_eq!(before.relation_len("drawn"), 2);
        assert!(after.is_empty(), "escape determines the cycle");
        // Disjoint subgames leave old draws drawn.
        let far = cycle_game(500, 3);
        assert!(is_domain_disjoint(&far, &i));
        assert!(q.eval(&i).is_subset(&q.eval(&i.union(&far))));
    }
}
