//! Move-graph (game) instances for the win-move query.
//!
//! Win-move is played on a directed graph over the relation `move(2)`: a
//! position `x` is *won* when there is a move to a position that is lost
//! for the opponent; a position with no outgoing move is lost; cycles can
//! produce *drawn* positions (undefined in the well-founded semantics).

use crate::fact::fact;
use crate::instance::Instance;

/// The relation name used by game generators.
pub const MOVE: &str = "move";

/// A move fact `move(a, b)`.
pub fn mv(a: i64, b: i64) -> crate::fact::Fact {
    fact(MOVE, [a, b])
}

/// A simple chain game `base -> base+1 -> ... -> base+n` over `move`.
/// With `n` moves, positions alternate lost/won from the sink backwards:
/// `base+n` is lost, `base+n-1` is won, etc.
pub fn chain_game(base: i64, n: usize) -> Instance {
    Instance::from_facts((0..n as i64).map(|k| mv(base + k, base + k + 1)))
}

/// A cycle game on `n` positions: every position is *drawn* (undefined in
/// the well-founded semantics) because play can continue forever.
pub fn cycle_game(base: i64, n: usize) -> Instance {
    assert!(n >= 1);
    let n = n as i64;
    Instance::from_facts((0..n).map(|k| mv(base + k, base + (k + 1) % n)))
}

/// The classic mixed game: a 2-cycle `{a, b}` with an escape `b -> c` and
/// sink `c`. Then `c` is lost, `b` is won (move to `c`), and `a` is lost?
/// No — `a`'s only move goes to the won position `b`, so `a` is lost. All
/// three positions are *determined* despite the cycle.
pub fn cycle_with_escape(base: i64) -> Instance {
    Instance::from_facts([
        mv(base, base + 1),
        mv(base + 1, base),
        mv(base + 1, base + 2),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::components;

    #[test]
    fn chain_game_shape() {
        let g = chain_game(0, 3);
        assert_eq!(g.len(), 3);
        assert!(g.contains(&mv(2, 3)));
        assert_eq!(g.relation_names().next().unwrap().as_ref(), "move");
    }

    #[test]
    fn cycle_game_wraps() {
        let g = cycle_game(0, 3);
        assert!(g.contains(&mv(2, 0)));
        assert_eq!(components(&g).len(), 1);
    }

    #[test]
    fn escape_shape() {
        let g = cycle_with_escape(10);
        assert_eq!(g.len(), 3);
        assert!(g.contains(&mv(10, 11)));
        assert!(g.contains(&mv(11, 10)));
        assert!(g.contains(&mv(11, 12)));
    }
}
